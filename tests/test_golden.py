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
Every ideal digest (all 67 rows; every real digest and the schedule
digests unchanged) was recorded again when the environment began to hand
the interface the very entries it hands the real clients: an ideal
``input`` carries the entry itself instead of a ``submit`` of the
translated request, which the interface machine now makes with the
protocol's ``EnvTracker``, and a ``submit-result`` names the entry word
(``req``).  ``python tests/golden_audit.py structure`` printed the same
event count and ``(t, step, round)`` digest for all 134 runs before and
after the change, and ``record`` printed the new rows.  The real digest
of every liquid and rollup run with a deposit (13 rows: both
``deposit-mint`` rows, liquid ``deposit-then-withdraw`` and ten
lifecycles; every ideal digest and the schedule digests unchanged) was
recorded again when a real account client began to answer a deposit with
a ``request-queued`` note naming ``deposit``, in place of a
``deposit-sent`` note that nothing read: ``golden_audit.py compare``
showed that no event count, ``(t, step, round)`` sequence, projection or
``diff_outputs`` length moved.
A change that moves a digest changes a trace and has to say why.
"""

from pathlib import Path

import pytest

from l2sim import harness
from l2sim.trace import digest

import golden_audit

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "fec7f028638ae9659397abc1322395e9c51c0aeee700efdb63b6fc810f200244",
        "09a7218a1f42052a9589ac42f346465205959a768c77dbbb277409d8abdc69bb"),
    ("brick", "garbage-triggers"): (
        "b08f027c8d694f6b2f346f0e6ce2737de68bcc56d0dbc5154385960a0085194d",
        "787b0a9a9850a714d70db5ae72554b1afec88def6c1c59c899c4a115c8b0af0b"),
    ("brick", "no-pump-delta-flush"): (
        "771078d60c547494f0bef3bd972969201063bf95f11022e4af45040a8d49af02",
        "081e09d7d5f58af747b3d1f1b19637c9ba406ba6225cf39ab15c92efafce13c0"),
    ("brick", "open-only"): (
        "1e0d990984454721782f30e034d018d2564e1af44cbbcdfb5b5cf1b631ba88bc",
        "4596cf66c70b4fe98cf62688f527b644ed66d3cddd898f2fb4cb3a0b8ee181b0"),
    ("brick", "overdraft-refused"): (
        "b5531aea4e9b4c4c6ed209c54bcafa61815bfb04ae7ac62a89cd30168a097882",
        "e46400661b002850d52cb5a750112b6d28f4885bd94598699fd3165b5492377d"),
    ("brick", "pay-both-directions"): (
        "017457a3cb91cff336a3213a278bb6d4f3430d816d9dfba18acf933fbacbd22e",
        "84690a6d546bf25260a70482f2aaa15db43b3bb1b5b3149a0b78ffaae71ebe64"),
    ("brick", "pay-pipeline"): (
        "9a209ab8ecd5eca46ca156268c01281cd873868c73f926c556d718c2bef03be2",
        "4b50ac18c127f7deb54c31d898e4f4047f1d9cbe1566557c50e7a53a2c512726"),
    ("brick", "pay-race-same-step"): (
        "31bf706119af532fe3c48508f9721b5d32ea13f1761a2967bfcd08ef10ee6cdd",
        "594cda1ee94329bb331c47ae662f67ca604455989d7d8d3a8daae50d0a8ffb0a"),
    ("brick", "read-heavy"): (
        "939927e3d4031aba80441d342c8d8d75f5d37a495170b7866caa04738109c5d0",
        "ac951863ba2b54b953a27555be935041197f6ae9c3b35d5f36c8636b4bd0334e"),
    ("brick", "settle-after-traffic"): (
        "3f062fd044af13b0354bb9b20cec61f232b2474fe9c5e036eba94dadcf25791a",
        "3d9b779cc0a2f899eb8195a33e448393f061e2005dc4580af7f5b5785d9918e6"),
    ("brick", "settle-fresh"): (
        "92284d864bbebda0679ad03219b656456724e6052f51e2462395cb2bf75633d2",
        "eff6aead61eaf787d3bb790e4e6814935195d4a2f755463de77ea883b5777438"),
    ("brick", "shuffled-delivery"): (
        "f869c98ed63a2c8d3b07b13779acc00118b78089cf39cbaa6799785269f65dae",
        "a8a5c1e6ed636c29be055fddb2dbd494fbf962cd379a819478cb4d1ca5daba79"),
    ("brick", "single-pay"): (
        "dbd11668e70146d61fd9e7e38260ca4a410edc1810f930317267ea8dee848f35",
        "d4c458f62a14250b6727099b4764ef80932e46c1b6a53f597ff61b37ea61ddd5"),
    ("brick", "stale-settle-attempt"): (
        "f17af30e7927341934cee5a635f0dbad45c18dd70db85cf5260cd7e137007e9d",
        "5f1f203eb0b116b9ada9040d16fc59d844a22058d70ec0bc1c29cc5661f0a6ed"),
    ("brick", "unilateral-exit"): (
        "49d2f9e04713ca0db04f70d1c37576a40c487caba0dc3680a22f5f724135fd93",
        "292dd497d38a03964f25a328464451492955717c0b7daa68962dcd4fddece78c"),
    ("liquid", "client-spam"): (
        "c91f40790f54cc4b6101ce3f011120ce4f6527977857dd37cd0ae6e9152929c9",
        "b2e41dbd06f8bede68bbff2cf0e1d66ca58fc3bc71966420df231864b4d3012c"),
    ("liquid", "corrupt-operator-rotation"): (
        "6980b2538979a2cc5a84405077b3d02123a6b6023d5c0abc13439a318038cab8",
        "5783c6bef9b382b4de807c80f6e1682f07312580d99f7470065b928d4a25c046"),
    ("liquid", "deposit-mint"): (
        "7b44e5258dce197bbdc0ddb4f1085c1795df990a5263ec882cad3ae56fe0e34c",
        "eeef31299955518acb80f44962cab3fff446585dfab5502fc9932561e2f4b214"),
    ("liquid", "deposit-then-withdraw"): (
        "59667e5e94709a208d721eebbf6348572001a8d479bfdd00798d8850242d76e8",
        "897dfe48a29fc9782fa918267ee2db6939ec3483ffdc6ab3cd70ff728197cb4a"),
    ("liquid", "garbage-triggers"): (
        "c8a1d315905a824ffdf0b1974e8bdd2d9c6b7b6248d5a9d52f1af3fc04917842",
        "c8a7e31717f0b61bf0c079633c6e0b5a05770e0016960ab41877bb6126218914"),
    ("liquid", "no-pump-delta-flush"): (
        "4d1f65735019253b93495e998118e4c99886e4406cf21a2f284621c2ed6653e3",
        "e43bf0f92b67b9a6c9ce6ae80038a046c4fa7680bf12aae3d7ae63c0bf471e23"),
    ("liquid", "open-only"): (
        "57f31e2c3aabc438f227cb198badf09c2b496a5657611bbe612fb01cd89ad361",
        "13105767a58d601e3b4dc75e3a3ec6ef54bbfe7b2143249a1c76e52ea09d7cb0"),
    ("liquid", "operator-menu-noise"): (
        "eb37cb60fe2bea43507f7fef132b71a473a0adce448c8e830a71e76c9c830d2c",
        "c0fe6003b55f7ea06832236ac5e52e22796fd12af10fc58e09998a1c027c7fe1"),
    ("liquid", "overdraft-refused"): (
        "d1aded84267f7d2d08ab8d96e859a48fd873b8fbf5c3261206387ac20dac493d",
        "7873381328553fd3a544203a566a9da3e249f6736d961c41b87b392229367bf1"),
    ("liquid", "pay-both-directions"): (
        "060c41f84cfd60a5b0ec4fac3288a62522af9d6d499a278d42ab84ef72897753",
        "9ee072ede9aca9be9678bc31526f7d30a1dfb5f9b7e225fd59274755d58e4086"),
    ("liquid", "pay-pipeline"): (
        "49bda333d4d6db77018ee665f5937ee509fe99bc7c23e2f91b332689ff970eb1",
        "ddaa50aa03ed3c694981bb0bc5f8e010c55a9474e7a2ee7fc9f8b791f7a0eebf"),
    ("liquid", "pay-race-same-step"): (
        "1d8f150b91c8ad29ccca244bc249557207888cffb7dd780fa593035332373d5d",
        "893f5dffbdd98b7b2c9bd405876c24ec9c6878916a131b419ce03a13f24a887e"),
    ("liquid", "read-heavy"): (
        "e2705aedad074ee128f8dad4477e784779bcb7120a2129407ae03a7c12defbca",
        "5e216f01a070321e1a987e7ab7ac3419c5f7071fe77742cdf95b18f5e086ef6d"),
    ("liquid", "settle-after-traffic"): (
        "f5d75837ac9df01099ed2826dd66ad6dfa6fb5db598613bd7dba002afa8a2084",
        "0f4f7efafa8c0086c1fdf404674982207805741d9229e45c2012a02695fb4757"),
    ("liquid", "settle-fresh"): (
        "f7bd64b658d59ba639099c67aaade83a03b732a63f56de313cd243aa63b9fc54",
        "3f50a2676330ef2d9abef4a3a3b96b9cbedea219ebe8740a4094f6645a84dc56"),
    ("liquid", "shuffled-delivery"): (
        "b4b8d8a0ada72ccf28ddf258080edb5f1352085ade0ca37385b82095417120b3",
        "750eacef012e6f0b4984a34be91b04ad13c2a10b1e70f490807b2a55b648602e"),
    ("liquid", "single-pay"): (
        "142c7c507116d6866b8a327a9dab7d19819283a999495358c88005936af2868e",
        "781b9969873175ee0b8f156ca14c3919487f5d54c1ac5cf574197d2930f262cb"),
    ("arbitrum", "deposit-mint"): (
        "f1f4d582ce270335fbd62591d80ac3303fe1b2eb5aefd5edf41f8ccc5002a697",
        "46a6b58391b539a806776250266d0808a204b8e06f36a5bdcf4a640a7f3b1bb8"),
    ("arbitrum", "false-accuse-noise"): (
        "ff8eff87ee192e53cc4adda530e13376afb438adfd2748451475fa5b718a402d",
        "cd837c3e745a2d06f2d2af6b5aea18dff4458eed8aa4242082fe238c199b678b"),
    ("arbitrum", "fraud-struck"): (
        "fddfe8fe80cb992221a1085469d039884978f967ae28c43f7b988dfabe7b6a70",
        "0f7374e0c6cf947b3c424e804a56950a2f357094072ee7f4db5301ea7854b79d"),
    ("arbitrum", "garbage-triggers"): (
        "a3724b10470364fef8ff77a48b1fc6458b2a078c800545aa7a212b3adab6076f",
        "b4ab03421a393c83bdaa283d1e326b56e87fe7cc910236382d426f2a3a1b2198"),
    ("arbitrum", "no-pump-delta-flush"): (
        "32cf7fd4440434aac734006f1055731d9d1b610aa8d58a7ffd0e3803b778b399",
        "9454cb7f6eb532b17e9d21b34b5123a42fb906228648d558d34d3ccf460864ac"),
    ("arbitrum", "open-only"): (
        "68a5b6257760e7f8ac8eca3b0a13e6a2111e340b0544d08589598d0cefc21dd5",
        "4d79dcda130e0f766846c994bc6eead0df86f5d39784978916420e2edc15f372"),
    ("arbitrum", "overdraft-refused"): (
        "b14f3564900d7fd2787f8326b24013f1fc80aa224cf6be4d59a5fcb58acc0c50",
        "1c4f1c3588ffc4a494803fe181fa173a1387146bdfeccd485af6a2d09d007ed3"),
    ("arbitrum", "pay-both-directions"): (
        "9953301c153a9889705a7c7439015ff844a36e636f4c9ee528a29d75c3f0e0d6",
        "2592bdb137aa09e8805c7e7ea0b5d770c28b4bafd0d52f149229bebdf858e62c"),
    ("arbitrum", "pay-pipeline"): (
        "2f58a98b983ee7df73c7e1987404b7c2779f4c6fb5e0b0e3312a6ea732765e2a",
        "5ba20203a74156f57bb578ab9efd61793dd508febdfda19bf3bfef07cb307ca4"),
    ("arbitrum", "pay-race-same-step"): (
        "2f7af87d215f42db10ece1b757003319b60473b8011ba4b906e2347d7224758c",
        "694f4188a59888b34462ebf09d129447c59008359f9439b9c100bb9996b22620"),
    ("arbitrum", "read-heavy"): (
        "e61802381dd61518f45c1d05324fc64b7e7618fdd1b648f021f4a541c0f979f9",
        "52902a7ba14d77a50bcf3185d4880b6910292f982e47eada759c55cc41ecf355"),
    ("arbitrum", "self-publish-rescue"): (
        "4f6e4a6c814dba50b60ae7d3f616b14561065ff537d2c3cd55f7e052398eb490",
        "fcee171efd1a94064cf9d40d4162357b1d24ce9c4321ae202e2cdadb3ea9c958"),
    ("arbitrum", "settle-after-traffic"): (
        "a2cd6d9e19a710a8c956c66760e04c8e0f37a5e63212b7544991832ddf3096c4",
        "f14a7417e3fc3600c93ecfc885f11ed4692664d9e4ccef846a659296230078a3"),
    ("arbitrum", "settle-fresh"): (
        "a4eb588a004cbf2ab3d73ef68a359862ead256912bb4a8b586222d3affb2f3ba",
        "12dbcb384b618cd9982114e4081cfa6d10bb933385085ec69ba337080261a2c9"),
    ("arbitrum", "shuffled-delivery"): (
        "d49bcd6b6d3f9ee395a680e7db60020d5d5459a402572709e1ae73de140d87a0",
        "cbb0af406e3dc546661bbbfdc83abf984e31fe3860f699e5e8c4c805a17908a5"),
    ("arbitrum", "single-pay"): (
        "9543bec56692fa3f2bf449a9fad50a6e539291e1d429673bf0ab108fb1f9e595",
        "9db014e55a71f3522f0c3d377ee8ab25d3cad43ffa9af8d5addcfdde8bf58055"),
    ("arbitrum", "withdraw-exit"): (
        "332f121a93a23311c643741586663942ce314952686333472d103db20ca02506",
        "5659388100755f09330bfe69b701d86d59a17985cb54a1e99f9b008d939e8eef"),
}

# (protocol, seed, adversarial) -> (schedule, real, ideal) digests
LIFECYCLE = {
    ("brick", 1, False): (
        "7b491486d3a05d4d144d0fb9c415e7e76cb6ca60e444a0c89b7dacc67196fd03",
        "f71cb795bd6fb72c5f645f791cffd5a2bb4d9fcfb5ee47a3aff13275583171aa",
        "5bb5224346e0ea410c7b53fb94282fd282fcfee3322db44951169994a68d1467"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "88bf1475df773fa0cb32f800a9daf9a47a194e146712d02844ddf7063677be02",
        "d66ec6e822af5cbc84a8feb92631b8de1ad95ef0a7bb7aa5a14bf4f4c0f82aa3"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "793e444c7c06fecf1086d30ec0ffb4051539ac5c65d6d06ed7e15e43989a04dd",
        "a406e0f65cd2f7f149fd223b87592dab2b4e892f73345e2c4c08b8101a76bd93"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "4c1958b8dd4ee57b1d4f5627e430faaaab3cd21d50a662b25fa48d301de0beae",
        "f0544b3f497b0577ae1eb14f45f55c476567648d67dfe906521371ec2aa32cb6"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "ca4dc59b1f3de01db22481181f751846c757bfe7636d6c35d005386674dda89a",
        "527176dcbda9935a963672cffd5d9baaf9347d9634f3a192b99a71657120f70c"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "38ba53ae718c3d9b7f6a696f543d65ec1627540e8d84428c1366a01de74f827c",
        "38abd3a0d100568d06419821e55c184f498f1fe983b8fe2ee136076a9a2c7035"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "4ec5ce9b4578db18c71a9e058b3bda0944e806d6e9c562bc4cad75437ab2b5f9",
        "ea0562744f1e8494ce702370e7eb86cb72843292203b7c321c74843439dc4fe9"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "f78efa60f9ae40af85c76b6b0cba05976f062e0bd34839d00251c6a6a132eb23",
        "d0349d0b5e6b6bc030f7416142caa08664b38d442d0638ffb6751844be5b5325"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "c2a22f3fa14ff64d3b878896887e8039b781d251763bd8b072dbab5092642f20",
        "0b8d687412b2b5761564555ff493e2df3f7489154f6d97fc992873a07400f919"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "b08ebf485e7a00a7d9091828105548dc13d6a822d0cd701f5906398060916139",
        "d5e73f379874ac3dfa8c648090d2b6f3c7e942e0b5409116a0aab00e85ce1090"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "5334e1df30245c59fc82a8c75b5506a617d0a62b0eeeb598d899bde5b42ecde0",
        "16b6edb73bcecb1c06025e8c972983719d2b6d707dcf4b510bc2a0d6498b70de"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "fd4a7c4635715683f029373cd87befe63a1413bf6b59cb5adbeee4d6134e574e",
        "d5663e24484a9dc1e26e29360b6056819cc633b670f1395681b81fd9078dae51"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "a40b01230074496ea4a7ba2d07385ed99a543ded295cca77bc9a27ea6631e1ee",
        "d976494d741fe7c973b5ed71629a7a00bf6707e433cd66e76160c89c4fb86172"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "7f67ad7b192117829cab581171989501db9042ae82bb9636f2a2db6b7ef71792",
        "8bd8cc9a0f8786d0d52bbfc3675e6c1e2a50f74433a02eebc8fcc2bfadc63174"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "71d7a989f4a2e1174caf56906890c97450a43605578c19163691ff886749420a",
        "40d83a7bb5a811b88a6ad01bb5f4469b7fb09bfbb51ac625eb2c3c33318bd6ce"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "e6aabf8f281c73a4b2a6f43536796d50a4d3776821a3be19e95c212fb29f89cf",
        "518ff4d087ee8dc4f2b79002163fce101d9f28d6264f2e348abd9e959d998fd1"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "7fe24bd0df6109d00bce0125ff873838879055e69344a79a0c701c1ab85a924f",
        "8574029cdc81373d4b6780577abe42020193f648e97c8cd6ba63332c231961cf"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "eda5fbc48e765260cc93aca577ca4e933595e6ba33712172b6e519975a61bf9e",
        "c31217213655083c77d7cf91e6c24599455b06d1edf9ff4576f158ec547aaa89"),
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


def test_the_audit_records_rows_as_the_table_holds_them():
    """``golden_audit.py record`` prints rows that paste back unchanged:
    one scripted and one lifecycle row, as they stand in this file."""
    text = Path(__file__).read_text()
    rows = {key: golden_audit.row(table, key, scn, sched)
            for table, key, scn, sched in golden_audit.schedules()
            if key in {("liquid", "deposit-then-withdraw"), ("brick", 2, True)}}
    assert len(rows) == 2
    for row in rows.values():
        assert row in text


def test_the_audit_compares_a_tree_with_itself_and_sees_no_move():
    keys = [["brick", "single-pay"], ["liquid", "deposit-then-withdraw"],
            ["arbitrum", 1, True]]
    lines = []
    root = str(Path(__file__).resolve().parents[1])
    assert golden_audit.compare(root, root, keys, out=lines.append) == []
    assert lines == ["moved rows: 0 of 3", "moved parts: none",
                     "unmoved in every row: events, shape, verdict, diff, "
                     "witnesses, projection, digest"]


def test_the_audit_names_the_parts_of_a_row_that_moved():
    # a renamed hash moves no projection
    a, b = "ab" * 32, "cd" * 32
    assert golden_audit.renumbered({"x": [a, f"tx-{b}", a]}) == \
        golden_audit.renumbered({"x": [b, f"tx-{a}", b]})
    assert golden_audit.renumbered([a, b]) != golden_audit.renumbered([a, a])
    run = {"events": 3, "shape": "s", "witnesses": "w", "projection": "p",
           "digest": "d", "verdicts": [{"record": "verdict",
                                        "property": "safety", "pass": True},
                                       {"record": "da", "g_l2": 1}]}
    old = {"diff": 0, "real": run, "ideal": run}
    new = {"diff": 0, "real": dict(run, digest="e", verdicts=[
        run["verdicts"][0], {"record": "da", "g_l2": 2}]), "ideal": run}
    assert golden_audit.moved_parts(old, old) == []
    assert golden_audit.moved_parts(old, new) == ["real verdict:da",
                                                  "real digest"]


def test_the_audit_finds_where_a_shape_moved():
    old = [["round", 1, 1], ["note", 2, 1], ["ledger-submit", 2, 1]]
    new = [["round", 1, 1], ["exec", 2, 1], ["ledger-submit", 2, 1]]
    assert golden_audit.first_move(old, old) is None
    assert golden_audit.first_move(old, new) == (1, "note", "exec")
    # a step or round that moves counts, and so does a missing tail
    assert golden_audit.first_move(old, old[:1] + [["note", 3, 1]]) == \
        (1, "note", "note")
    assert golden_audit.first_move(old, old[:2]) == (2, "ledger-submit", None)
    assert golden_audit.first_move([], new) == (0, None, "round")


def test_the_audit_rewrites_exactly_the_rows_that_moved(tmp_path):
    """``golden_audit.py rewrite`` on copies of the two table files, with
    one digest changed in one row of each table, restores both copies byte
    for byte and reports exactly those rows; the committed files are never
    rewritten here."""
    here = Path(__file__).resolve().parent
    picked = {"SCRIPTED": ("liquid", "deposit-then-withdraw"),
              "LIFECYCLE": ("arbitrum", 2, True)}
    want = []
    for name in ("test_golden", "test_properties"):
        text = (here / f"{name}.py").read_text()
        for table, (file, _) in golden_audit.COLUMNS.items():
            if file != name:
                continue
            key = picked[table.split("_")[0]]
            start = text.index(f"\n{table} = {{\n")
            at = text.index(f"    {golden_audit.key_text(key)}: (\n", start)
            end = text.index("),\n", at)
            last = text.rindex('"', at, end - 1) + 1   # the row's last digest
            text = text[:last] + "0" * 64 + text[last + 64:]
            want.append((table, key))
        (tmp_path / f"{name}.py").write_text(text)
    lines = []
    moved = golden_audit.rewrite(tmp_path, out=lines.append)
    for name in ("test_golden", "test_properties"):
        assert (tmp_path / f"{name}.py").read_text() \
            == (here / f"{name}.py").read_text()
    assert sorted(moved) == sorted(want) and len(want) == 6
    assert len(lines) == 7 and lines[-1] == "rewrote rows: 6"
    for line, (table, key) in zip(lines, moved):
        assert line.startswith(f"{table} {golden_audit.key_text(key)}: ")
        assert line.count(" -> ") == 1 and f"{'0' * 64} -> " in line
