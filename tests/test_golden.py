"""Golden trace digests: a refactor must leave every run byte-identical.

The table pins ``Trace.digest()`` of the real and the ideal run of every
scripted schedule, and of seeded lifecycle schedules (seeds 1-3, ten
payments, honest and adversarial) for each protocol, together with a
digest of each lifecycle schedule itself.  It was recorded after
corruption leaks became plain JSON and before the account-model code of
the sidechain and the rollup was merged.  The run digests were recorded
again, with the schedule digests unchanged, when read results began to
carry only the entries their reader had not seen (``base``, ``settled``);
the whole views and verdicts of those runs are pinned across that change
in ``tests/test_properties.py``.  The two adversarial rollup lifecycles of
seeds 1 and 2 were recorded again when every party began to poll the chain
once per block: a client no longer self-publishes the same batch twice in
one round.  The adversarial rollup lifecycle of seed 3 was recorded again
when the ledger began to refuse a replayed txid: a corrupted operator's
``publish-wrong`` that resubmits an identical batch is refused at submit
instead of being committed twice.  Every run digest was recorded again,
with the schedule digests unchanged, when a read result stopped carrying
its tip state and pointer and a settle-ok its constant ``success`` flag:
the reader's whole view gives the first two, and the output tables of
``tests/test_properties.py`` pin that the views and verdicts of those runs
did not move.  Every liquid run digest whose run finalizes a block (all
six lifecycles and every scripted row but ``open-only`` and
``read-heavy``) was recorded again, with the schedule digests unchanged,
when a liquid block lost its ``round`` and ``proposer`` fields and its
digest became its one identity: the round moved into the proposal
message, so every proposal, vote, certificate and block-final note
changed its bytes while the envelopes and their order stayed the same.
Eighteen brick ideal digests (every scripted row but ``open-only``,
``read-heavy`` and ``settle-fresh``, and all six lifecycles) were recorded
again, with every real digest and the schedule digests unchanged, when a
brick pay request stopped carrying a predicted post-state: it names the
transfer (``op``, ``to``, ``amt``), so every pay's submit leak changed its
bytes, and ``overdraft-refused`` loses the leak of the overdraft, which
the interface now refuses at submit as the real client does.
Every liquid and rollup real digest (46 rows) was recorded again, with
every brick and ideal digest and the schedule digests unchanged, when
parties began to act on a schedule from their own ``on_round`` instead of
from a clock pseudo-party's IO nudges: the real traces lost the nudges'
``deliver`` events, so their steps and envelope ids shifted, and rollup
operators now publish before the validator audits in a round.  Every
real digest whose run queues a request (60 rows: 18 brick, 21 liquid and
21 rollup; every ideal digest and the schedule digests unchanged) was
recorded again when the ``request-queued`` note dropped the ``nonce``
(account clients) and ``seq`` (brick clients) that no check reads.
Every liquid and rollup digest (34 scripted and 12 lifecycle rows, real
and ideal; every brick digest and the schedule digests unchanged) was
recorded again when an account state's list of minted deposit txids
became a watermark (``minted_upto``, ``minted_above``): every state, and
every digest or txid over a block or batch that holds one, changed its
bytes, while the event count, the sequence of event types, steps and
rounds, every verdict and every output difference stayed the same.
A change that moves a digest changes a trace and has to say why.
"""

import pytest

from l2sim import harness
from l2sim.trace import digest

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "fec7f028638ae9659397abc1322395e9c51c0aeee700efdb63b6fc810f200244",
        "f46ed2cddd8aded80a6586f712497b760d57ae91c7f6baed63896945626207d3"),
    ("brick", "garbage-triggers"): (
        "b08f027c8d694f6b2f346f0e6ce2737de68bcc56d0dbc5154385960a0085194d",
        "ac5b6afa6dc417fc453bc342f9fb226406d20a00e81051b869ec933536e2c99b"),
    ("brick", "no-pump-delta-flush"): (
        "771078d60c547494f0bef3bd972969201063bf95f11022e4af45040a8d49af02",
        "28e6d1126f498c63282b84a8bca5e435b2d8b14a19de470ad8795a4263f2ad36"),
    ("brick", "open-only"): (
        "1e0d990984454721782f30e034d018d2564e1af44cbbcdfb5b5cf1b631ba88bc",
        "f589fb7743cd932bbee98aca1f3a515eaf35c1d961b8e42787e26a5387fa7ace"),
    ("brick", "overdraft-refused"): (
        "b5531aea4e9b4c4c6ed209c54bcafa61815bfb04ae7ac62a89cd30168a097882",
        "f857a31c378fbcfc61bdb355dfabd676767df5c51e3b4944bd60d3084dafd4f2"),
    ("brick", "pay-both-directions"): (
        "017457a3cb91cff336a3213a278bb6d4f3430d816d9dfba18acf933fbacbd22e",
        "4e69d4c6d7271efbb05f14c9cf5f7ce062134fd176ed96411b4bfb953e59fb5a"),
    ("brick", "pay-pipeline"): (
        "9a209ab8ecd5eca46ca156268c01281cd873868c73f926c556d718c2bef03be2",
        "271e10ad6d0192ed6e32b2b03a7afba12f4830f6e05b85cc20775902bcd6c767"),
    ("brick", "pay-race-same-step"): (
        "31bf706119af532fe3c48508f9721b5d32ea13f1761a2967bfcd08ef10ee6cdd",
        "81f95a93607f73b50758c6be3267d8bff2447201c3393ec859d455d8af53fa8d"),
    ("brick", "read-heavy"): (
        "939927e3d4031aba80441d342c8d8d75f5d37a495170b7866caa04738109c5d0",
        "4117fb93ad76a034ef01aee59af7c6038cb5a43761ca759a6974ec5486d30952"),
    ("brick", "settle-after-traffic"): (
        "3f062fd044af13b0354bb9b20cec61f232b2474fe9c5e036eba94dadcf25791a",
        "5bd3f3e803e8610c0a7a4c2c632610030adab9c75a286ace1e324ce5bd5b2ee9"),
    ("brick", "settle-fresh"): (
        "92284d864bbebda0679ad03219b656456724e6052f51e2462395cb2bf75633d2",
        "0610a90759a8f11c4a8849ed0378fd250e39cab410a3333fd4a1638ab759c9ca"),
    ("brick", "shuffled-delivery"): (
        "f869c98ed63a2c8d3b07b13779acc00118b78089cf39cbaa6799785269f65dae",
        "7336566aa1b1b4231ec907995f49e2215a3536e6ad2c325bea8b1e07c7dc31ee"),
    ("brick", "single-pay"): (
        "dbd11668e70146d61fd9e7e38260ca4a410edc1810f930317267ea8dee848f35",
        "aeb63fa23f069dcef818d036154c0df72901e7e1466b1891f2f41a70a822a8b4"),
    ("brick", "stale-settle-attempt"): (
        "f17af30e7927341934cee5a635f0dbad45c18dd70db85cf5260cd7e137007e9d",
        "f60a8a8c378a1ad7a9e3918df2d6a8aeeb08907974e6df9f888833f8155dbf7b"),
    ("brick", "unilateral-exit"): (
        "49d2f9e04713ca0db04f70d1c37576a40c487caba0dc3680a22f5f724135fd93",
        "207c41fcce74e166b8095fbe61d30af299c2c3039853825f26e35668a2284d12"),
    ("liquid", "client-spam"): (
        "c91f40790f54cc4b6101ce3f011120ce4f6527977857dd37cd0ae6e9152929c9",
        "c08cb549bbe3f5e3060499036136bb6fba76e3d9d288193638961f71684daeb9"),
    ("liquid", "corrupt-operator-rotation"): (
        "6980b2538979a2cc5a84405077b3d02123a6b6023d5c0abc13439a318038cab8",
        "0286ff1ae959501d6448f13e03db53863a1db4e76d60cc74d23d2c1b00e54426"),
    ("liquid", "deposit-mint"): (
        "0f8d0907e4de86a3a1b31cc10c2b47a4b68aa94fb34f69dc03e7b19f492532fd",
        "2e8b281b1054fd9f02d05814713e55e86a28f5f8b9d2d95da6c64430dee67c2f"),
    ("liquid", "deposit-then-withdraw"): (
        "777ba3f1723ea4c3811b62c9165f8053a46e4d49fbd4615184da4f307910aada",
        "05e2155b1429a95cab80bee8a1f291739ff55ff90d4a6525a3bdbbbbe79bcbaa"),
    ("liquid", "garbage-triggers"): (
        "c8a1d315905a824ffdf0b1974e8bdd2d9c6b7b6248d5a9d52f1af3fc04917842",
        "f1be41852a5cc035355e4a1089779873af938a762ff06f0b883a3c1ccc5d2f07"),
    ("liquid", "no-pump-delta-flush"): (
        "4d1f65735019253b93495e998118e4c99886e4406cf21a2f284621c2ed6653e3",
        "ab68467cdbde068e6a1a62afa5c651de8aef6650dad417f44edc451fbec92863"),
    ("liquid", "open-only"): (
        "57f31e2c3aabc438f227cb198badf09c2b496a5657611bbe612fb01cd89ad361",
        "96a70d477d168c7e76165a0b643901728692a2691ee3b6482c2ab03bb6ed0e08"),
    ("liquid", "operator-menu-noise"): (
        "eb37cb60fe2bea43507f7fef132b71a473a0adce448c8e830a71e76c9c830d2c",
        "482fd1f7b009c7b0ae86cfa9f163e61a62fa0d9456458377e06491b46e8f1779"),
    ("liquid", "overdraft-refused"): (
        "d1aded84267f7d2d08ab8d96e859a48fd873b8fbf5c3261206387ac20dac493d",
        "9ad1128846cdbc279b31dd9190b342d706d5797a46bd2f13203ded0ee4cceb58"),
    ("liquid", "pay-both-directions"): (
        "060c41f84cfd60a5b0ec4fac3288a62522af9d6d499a278d42ab84ef72897753",
        "dd7665b61ea0e3d4cb9c130058924d40856c9061eebc45fd3709ec006df41418"),
    ("liquid", "pay-pipeline"): (
        "49bda333d4d6db77018ee665f5937ee509fe99bc7c23e2f91b332689ff970eb1",
        "448659f08b2c3b7f5d66167e1c786988987e90efb1dfa98b707a301cb505af2d"),
    ("liquid", "pay-race-same-step"): (
        "1d8f150b91c8ad29ccca244bc249557207888cffb7dd780fa593035332373d5d",
        "ef2acce36dcb083d1a34f94b114b61f7c031166289c534a0626cf36256061a1e"),
    ("liquid", "read-heavy"): (
        "e2705aedad074ee128f8dad4477e784779bcb7120a2129407ae03a7c12defbca",
        "0c926d9230628bcffc1b7a081e1f4f31aa256afaba5c9950d93f4dc6565cb252"),
    ("liquid", "settle-after-traffic"): (
        "f5d75837ac9df01099ed2826dd66ad6dfa6fb5db598613bd7dba002afa8a2084",
        "5213d610fd47a4266614e0b8fbcb656a78ab6153897954c061217c777ba258b7"),
    ("liquid", "settle-fresh"): (
        "f7bd64b658d59ba639099c67aaade83a03b732a63f56de313cd243aa63b9fc54",
        "9512907f7bb9143016c87e84ea7568d059143b894d7dc30e4cf3f2acaf70621a"),
    ("liquid", "shuffled-delivery"): (
        "b4b8d8a0ada72ccf28ddf258080edb5f1352085ade0ca37385b82095417120b3",
        "bbd70fe8cf3e1c99d019adf3ba9ee0fea5ea83e87ab9e09af759776a9b69a075"),
    ("liquid", "single-pay"): (
        "142c7c507116d6866b8a327a9dab7d19819283a999495358c88005936af2868e",
        "1dbe84604f131f95d217941e64231a5792da6f3a1491972fd0c91c4e1a84b918"),
    ("arbitrum", "deposit-mint"): (
        "08929ad1b7491c662747616f5af1c4ec519a7d8c01816eccde4f8b2a898f9658",
        "d534f76edc9df2c8e0b8774def0c6248240f947049c81be51b60d9d7b55b1491"),
    ("arbitrum", "false-accuse-noise"): (
        "ff8eff87ee192e53cc4adda530e13376afb438adfd2748451475fa5b718a402d",
        "885bc06ec209c5e6cf24ece13cb8cce0ec03666fa4d7590971856393389fdff7"),
    ("arbitrum", "fraud-struck"): (
        "fddfe8fe80cb992221a1085469d039884978f967ae28c43f7b988dfabe7b6a70",
        "6108e2913cc739b3ccdae7cd5a87c5639a38070acc3c1b614aade412f1aa701b"),
    ("arbitrum", "garbage-triggers"): (
        "a3724b10470364fef8ff77a48b1fc6458b2a078c800545aa7a212b3adab6076f",
        "3d04783eb5dae211f80de122eb36980e47a2740a604f6f032052fbfc3dc3829b"),
    ("arbitrum", "no-pump-delta-flush"): (
        "32cf7fd4440434aac734006f1055731d9d1b610aa8d58a7ffd0e3803b778b399",
        "fd32e3c6bd2d79259a83722da0b9fe5ea60cbaff432efe58256df55f29bbb5b5"),
    ("arbitrum", "open-only"): (
        "68a5b6257760e7f8ac8eca3b0a13e6a2111e340b0544d08589598d0cefc21dd5",
        "88a135fde3b0fca66c2f1f1ddb067d1cb47c046fbddec606c2f272fac12527b8"),
    ("arbitrum", "overdraft-refused"): (
        "b14f3564900d7fd2787f8326b24013f1fc80aa224cf6be4d59a5fcb58acc0c50",
        "6e95b17909cce1f336d4451939015b1630f600239b8f022340fe4de09058bb3d"),
    ("arbitrum", "pay-both-directions"): (
        "9953301c153a9889705a7c7439015ff844a36e636f4c9ee528a29d75c3f0e0d6",
        "56fac9d4ea4a4958e9b630d5e40a303e0f13ce1a1923d28ffa844586a5411eea"),
    ("arbitrum", "pay-pipeline"): (
        "2f58a98b983ee7df73c7e1987404b7c2779f4c6fb5e0b0e3312a6ea732765e2a",
        "08b73a840dcc5764b423e1500e0a4d86b7cb853abb14d07fa3ab348a22f333cc"),
    ("arbitrum", "pay-race-same-step"): (
        "2f7af87d215f42db10ece1b757003319b60473b8011ba4b906e2347d7224758c",
        "ecb9015f6014c688867362e62d443157ce3495f4274fdbded4370b518ca06880"),
    ("arbitrum", "read-heavy"): (
        "e61802381dd61518f45c1d05324fc64b7e7618fdd1b648f021f4a541c0f979f9",
        "a0e270843d87dd118ec5bbe57651f488823c30c0515515188dd0a4ce5cdc1e5f"),
    ("arbitrum", "self-publish-rescue"): (
        "4f6e4a6c814dba50b60ae7d3f616b14561065ff537d2c3cd55f7e052398eb490",
        "6a9a9e52e9874e5681ae2f220d6c1d0bfd8931feac06f248103075528e53b736"),
    ("arbitrum", "settle-after-traffic"): (
        "a2cd6d9e19a710a8c956c66760e04c8e0f37a5e63212b7544991832ddf3096c4",
        "8afe67ec90138219abca78d88668527084d115a665357475e60b258c812ee6ce"),
    ("arbitrum", "settle-fresh"): (
        "a4eb588a004cbf2ab3d73ef68a359862ead256912bb4a8b586222d3affb2f3ba",
        "eef05cf2f80a8aa715d88874cc2b71e6a425976fa29616a3524836d047f1df16"),
    ("arbitrum", "shuffled-delivery"): (
        "d49bcd6b6d3f9ee395a680e7db60020d5d5459a402572709e1ae73de140d87a0",
        "a74e5d358024b24590458ab90e79243929e04fcc90df34bd80ad02d2b1f66488"),
    ("arbitrum", "single-pay"): (
        "9543bec56692fa3f2bf449a9fad50a6e539291e1d429673bf0ab108fb1f9e595",
        "09ddf66fd356b6ae834f950ec9811f0d8edc8325fca924d469311d9a11d1de55"),
    ("arbitrum", "withdraw-exit"): (
        "332f121a93a23311c643741586663942ce314952686333472d103db20ca02506",
        "f20f3aeda67f1868cc5fc6b062f4892800dffe11747811bc5abfe61b51674791"),
}

# (protocol, seed, adversarial) -> (schedule, real, ideal) digests
LIFECYCLE = {
    ("brick", 1, False): (
        "7b491486d3a05d4d144d0fb9c415e7e76cb6ca60e444a0c89b7dacc67196fd03",
        "f71cb795bd6fb72c5f645f791cffd5a2bb4d9fcfb5ee47a3aff13275583171aa",
        "b46b552b22e19e00a3c64cd5b6d1913d725c4d4262e63dec889ce9f39193f6c4"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "88bf1475df773fa0cb32f800a9daf9a47a194e146712d02844ddf7063677be02",
        "26b45ce6a78cba0077053003e7bc9ea6d692429178849238e48a39f26c5e3356"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "793e444c7c06fecf1086d30ec0ffb4051539ac5c65d6d06ed7e15e43989a04dd",
        "485324b39e940649613801800fd8cb8bc14401a7335aa29dd3e99e7f8430d0b8"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "4c1958b8dd4ee57b1d4f5627e430faaaab3cd21d50a662b25fa48d301de0beae",
        "bd153eb1162fa851841d3f0ef63c19de425c46022b93a8bd498a52987e2ae70d"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "ca4dc59b1f3de01db22481181f751846c757bfe7636d6c35d005386674dda89a",
        "bed9adabbbe0ee76daffbc67628d9ac2463a7e8babffdf1942c26724679f033d"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "38ba53ae718c3d9b7f6a696f543d65ec1627540e8d84428c1366a01de74f827c",
        "245e5cb8e25d729a11453e30256c4a153fcef53aba4acbbfe40b4764fc35a0c9"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "4ec5ce9b4578db18c71a9e058b3bda0944e806d6e9c562bc4cad75437ab2b5f9",
        "f24bd26cb7d3aefb71a1e035ef289d2194f52a7423a5282a6ba627b79d160f46"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "82c736a4d50c1453ab69ff8fadd5d4839f48eace0818be7a3c258638a09a2813",
        "56dfe43e841c19a84b735c79361f2c7f9be37ef4797362cc6f44a6c4b3a747c2"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "0375004add015c272e23d09386fabd058b1def3995ffd6486c76d8e966285c26",
        "9ef978b38367f0b272bbb48671a619fbefaf77e6f2e880701adba2206e96eb06"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "6fb079e004a1f1c5bf82bf6abe7f9b5c812d5050fb12a72ef0fea4e60787ea71",
        "1aaf48d9fb4869aebb253536073d45628051ef4584be705909313f85cfcff43c"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "72ca894cb7117d77151e8ce05ccd53b1b9c3d00e75f6b3e0be05af701bbd2a4d",
        "570015ac1db56e7839dc70296a1be49896ec69a8f246cd36dfe1acc8da222e58"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "b720d075df48b8f47e3d21784274e803b5c721dabe5fbf031e3ddeaed847e285",
        "143e30024c605bdfb781e1b5e24d0b9806360366b7dfa2984bda7f06b870fda7"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "a40b01230074496ea4a7ba2d07385ed99a543ded295cca77bc9a27ea6631e1ee",
        "fac24d07a828906f38c10ef5ce76981c095eeb334476b34745df29d6883ff220"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "05faf29c6f2044c5beada0e7c7428dbffb5547c3107be2a76a116289e9a7278f",
        "b1902e650e3a2b073762ae62c75fbd7e3bd8369a12311638c7b8a0b54de062ca"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "0eeda2f25e12fc4e5ff5c6811e7a0e53e52ac6ddec56838d19b50a0f30d76837",
        "2f866f6b652ce2bc63ca5e0cac5e123b864c7498f69d89494704ebadaf57fa1f"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "f1d1b7a4af789026e1eedeb7f2ca8455e2568b88933b8c6d5b0989faba24f063",
        "0d48c3e333a8f1120a74cef9c06b0469a1f906f0fc437de4b7001239b09129d7"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "b673c41067c1be51d5af6adaf622414597e95355dcfb3a10b70cd84862f3411e",
        "09bf7c1f88632d8324c0241ac5c20c5eb02efe9e80899e5d5c51e9b792913bbd"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "c7e673038ac1767858fef09b436ebd791cb82daaf6e1061cfbddb46134836b23",
        "341d7a7427f3b72973dcd1e473074f098b1dca123cd4f60508ffc09e5ae10824"),
}


def digests(name, scn, schedule):
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    return real.trace.digest(), ideal.trace.digest()


def test_table_covers_every_scripted_schedule():
    labels = {(name, label) for name, proto in harness.PROTOCOLS.items()
              for label in harness.scripted_schedules(
                  name, proto.canonical_scenario())}
    assert labels == set(SCRIPTED)


@pytest.mark.parametrize("name, label", list(SCRIPTED))
def test_scripted_digests(name, label):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.scripted_schedules(name, scn)[label]
    assert digests(name, scn, schedule) == SCRIPTED[name, label]


@pytest.mark.parametrize("name, seed, adversarial", list(LIFECYCLE))
def test_lifecycle_digests(name, seed, adversarial):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, seed, pays=10,
                                          adversarial=adversarial)
    want_schedule, *want_runs = LIFECYCLE[name, seed, adversarial]
    assert digest(schedule) == want_schedule
    assert digests(name, scn, schedule) == tuple(want_runs)
