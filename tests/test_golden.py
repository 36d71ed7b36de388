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
        "e363fbe9d54e8c5fd3d30d87ad93ec63c35a0b05e2433055a3573a895e71f9a6",
        "a70643b9e4641c65286bd13f9b5b4a8b481bc169aeba9a3eb7899f18b92596c6"),
    ("liquid", "corrupt-operator-rotation"): (
        "81eaf4f4fe3602cb6deffeb097942aabd86aea78b42a20104801a7caf8dcf332",
        "ab99c9da1f9965bd5cf62b21d2021e7dfb9097bc0c19a690b98425461a842683"),
    ("liquid", "deposit-mint"): (
        "aa26a282626345e0e2914c749b7a85b2615e4e33b32784b738567f3ee7c949c1",
        "4fe3fb81c2223c5953a6d9b42d96c0b80ff34906f49a8600f1a9e0ed85290672"),
    ("liquid", "deposit-then-withdraw"): (
        "7e0a878ddfece88ef10a5fdc6063855537333fa461a47bbc8b99898fc7dcf902",
        "940daeeed0dd8c04c28c2359da8153fa10eb64cc883d27676b926f565d4d6301"),
    ("liquid", "garbage-triggers"): (
        "ea2c60e6094e6cd50b52bb74e4ac1d087b51a5e000baffd7e811211bc6cdbf6b",
        "dc65ae6305aa1d852b09f861cedbe07d47482ad4f0da9e9462d60d71c53f449d"),
    ("liquid", "no-pump-delta-flush"): (
        "3ffadb626a58ecc4352525f4a369746553fb7b1f68d774299b84d55f3aedfe5d",
        "7c1497be36fcd7b05b153e97495647ea549bfe69e4f00537281100f36c170b68"),
    ("liquid", "open-only"): (
        "9e806f503e425d32b43c18314eecfd00fd7306b0ebede57aebe668239903a2c2",
        "9272217eb0c681d34b1080e50c45a8e5e319c3c784e931259f6a4d24df2a3441"),
    ("liquid", "operator-menu-noise"): (
        "1bcb36696a5d53761d1ed2b71486a1b5c2ade23526697efbe520f93a4fde4b84",
        "c340f3f7715300731ab3b2660c5b6016959896932413b0381a47b709dab0449e"),
    ("liquid", "overdraft-refused"): (
        "fd5f5e849db35c1bba7dcd3ca0be360dae559f08932cd1394cbf08bf4ba76340",
        "a045a10f88d5ecff5ce70298dc5a879d091ca9c9c1366f7531839082f6b8b436"),
    ("liquid", "pay-both-directions"): (
        "b8052b54bb43647fdd06d1c6d27e8e1f275ee6d01324868019b0e8b82b807ae7",
        "e9e24b8e22d335e61b9c198146c1adca72754f312fc9464b6379331ed7470e21"),
    ("liquid", "pay-pipeline"): (
        "3b793922ec0e8c81db6dd212e2ed5757db97fe767c8216f59ea3642a32e06169",
        "a5388d08dc250765d9b7dbe00e8162d3443b84ac49be0486605feae7605af82c"),
    ("liquid", "pay-race-same-step"): (
        "2759502f811913ee4336660220c5c717ecf99f4bb4e983108a1631c410776e91",
        "fab630b97cc5b9c5581d582178af9942144307b3b7a6c8fcca52e8134e860ed8"),
    ("liquid", "read-heavy"): (
        "61925ee375bbd6ffb885f7b96740067db4b18377e0e7523479909cf46eb76b8e",
        "3f0b571cd6d3a0a801bbf05a0c8bb0171b7c62549143628331a45b6ef6dd3ca6"),
    ("liquid", "settle-after-traffic"): (
        "080f304677819d20ce701bea393b5350956c3253598fa9d5b12cd0505414ef5e",
        "cfa0f61dc68bdf44982e51db4514ce563292192447864ee418b7956e78dff7f7"),
    ("liquid", "settle-fresh"): (
        "3e5acaac6dde978f8fb4f57acd034f1e4957d147f71d786b58153567a8c36834",
        "a026a76b4af51c80320a56d537b07935f3cad86b6334c01542c62d01aa7e304f"),
    ("liquid", "shuffled-delivery"): (
        "dc2f4fd8f5b3bca618995f31f2bc3616ed611fe2e1c54825c22b30e967db7e97",
        "e98833cccffe00c540e27e48aa7b64eb46f63d88b20738919ac7876d46ebcedf"),
    ("liquid", "single-pay"): (
        "1d89bd47f4d23485463bf0a26d67f618dcfea646b5f6e5107ce506b88b1a8b2d",
        "0f2b303c3e2e2ad8ca23a707ff2e3688726454f7c46bfb7793f5e55368da49b8"),
    ("arbitrum", "deposit-mint"): (
        "ae1b9d78cbff1e6cff57eda43232823e81f8292e8b0b18f2e162ccc13f25e0a0",
        "9ec50793b1d03d1d6c45fe8d351ec9478fd44a275bc2517de4523e22fb627f56"),
    ("arbitrum", "false-accuse-noise"): (
        "4d4c6b0636c1d2bbc9cd7893a7c096c8bc96001c580692aaf540e83a23ecb127",
        "c4068fa040089f7bc5827199154a1052bc3199c2bbea3e6c391320733ce33ace"),
    ("arbitrum", "fraud-struck"): (
        "bc3ac7d4cbc8dabde43619ef54dfe8f79a6d7c3d66eaebf4bd5c2ff1aab3cfbf",
        "90695f24de117d4869b2227dc74ecb6fcabe81c98a70c27a1305571c9a27650b"),
    ("arbitrum", "garbage-triggers"): (
        "84bbbd67c3d30edd2055609b1fc954ef61c320f472d61fcf60fe5f4d030f8ad7",
        "9e16bc4b8ade02c8bdad372cd8a6924c84735a7d8e3306091f40be973b4ab090"),
    ("arbitrum", "no-pump-delta-flush"): (
        "2a60b907e8ad3f1421a735651ae388fb9c5a3dd33117bbb23ed60ba1704dc58d",
        "42bb78294380ff8ee784c6c6a1b97b304b7fe7c9d4464d060e65c8a53f8ccbea"),
    ("arbitrum", "open-only"): (
        "87f89b3b7600b60d9406416e4c934dfd5a363a906dd4948a477a49df3371bd66",
        "6db98bf913a5d9e0c2e2f1b4f118ca2783bbafb4df67701221c87656213ecb77"),
    ("arbitrum", "overdraft-refused"): (
        "818e434c3a782ef41e91840a4bda02c8ce82ec6a7acb4fe3628dd7713091e4a3",
        "48d113739b40edacda8947c9617f34d6ea00ea8c3ef2ddacec4814777d2cd2a2"),
    ("arbitrum", "pay-both-directions"): (
        "ac22dd784653552e820ea890a31dfcf4892ac40700c9dd079e9739288424c80b",
        "f6898461c93ece77aa2a6aa71946b61e1e5effb204d8f43c7d43bd72d248a5a2"),
    ("arbitrum", "pay-pipeline"): (
        "1778cb98d09053108e204c426be7a231c165cd4c595b85e680d3654b238fef03",
        "ae276efa9a4ca041a0e8aea9126cc55712e6af8555773fbd8eaed09b8b32d87b"),
    ("arbitrum", "pay-race-same-step"): (
        "d3eb1fef4903224656f2b6a8597187bde0e8ff6b8130c6c001f802f95ae2ac27",
        "2b509cc95dbaa13a7613732137be5c4188c68971a0a216142c69f8bfa84bc2e5"),
    ("arbitrum", "read-heavy"): (
        "037dec522c3698532699835701c8bdcc1636ca879d7c56f7866a600c34c3c341",
        "bcdbcb8770d25a343ffb5e11dacd57841cc4d105587af302cdbafd5dd0fd8445"),
    ("arbitrum", "self-publish-rescue"): (
        "f56500cc591767cf9bcc6bc3a56d3e11f116855ce5048aa78f499fa3724a6511",
        "229dcd5b9d44d68fa9c3f841aeb344c1479b6768001042b785fa8d090e2ea157"),
    ("arbitrum", "settle-after-traffic"): (
        "cc1fabc47b1455823f61888f894c856ef393ecd252ee217763a27d5c36ce2672",
        "95e479df025d126c8302d6c2bc4f79e9d1255c1be5354d413f6255efaccb2565"),
    ("arbitrum", "settle-fresh"): (
        "9336854170264b52c85554f4b4f27bcf943ab81a1cc125d40e741f1916904149",
        "9a62ea4e27cdb2da6459536d5577d50736cb977cc514aef3e8fd84553559d545"),
    ("arbitrum", "shuffled-delivery"): (
        "8f91e5ff401d80db1be3a884ee6331773a5188b048772ae34cd2c5d1ed4edbb3",
        "1620d1796ca25c318a80d2c8b8462b72586647bccd3845474458bc64ca4ffdfc"),
    ("arbitrum", "single-pay"): (
        "df6e3195b22885c12ac2871bc5c401ee4b1c88a3bd6da96c2c5acb540e99e9d7",
        "80600b69e259e2a8c7b45b850ba0a6755c08be314b1183d97b4048f528a7b77b"),
    ("arbitrum", "withdraw-exit"): (
        "c2c6eff044cd85177cbaffb4f08d8507e801e0103a8bcc0bacaa0ca49164e2e2",
        "9eec71b534efd9127c97f6e92c36569d97413a6ef1ad96f82bff7b291ff91130"),
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
        "0a2b11138caa94b14e5036fff65ca0b99694cc0db2550910522e097a33d03600",
        "44a6aa024575929dd5a69354aaa6d5d3f6fe166ae6affbb72c66b3503dcc0b64"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "69f369464c0d72f9a9047b3abd56dde42d4d5fffa2a85e2a5e10e172576cdb14",
        "164ce80172ce204baafe2afde822c282699894f623473539f69b2d8d82c665b0"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "686c2e04f523604eb1026bb75154c3d7292bef57e8990b26b0334c024242119e",
        "a1250bfbb1561cb8932a3ac1bf854ee5f698759ca38a5ffe348127abe7f37dc5"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "ea74e8a6301b3ad3cfef648b090e1efa6f836f3bdbf35986a2bea9cba8315bbe",
        "6d40b87b4875f35b6a30004222260f83519d6c4ad3d2651fccb81b89d64555e5"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "d30a974940fa6a643d01b796cc231042a88e6040636ad81ab3aa64557c05d05c",
        "c937064c3e283e0d2da5a777d703e2b87c1ce195be369f811a472543db38030b"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "fce81b4ef9443cf8b30d3f4ea14efbd06352b7245559220c11d0f389a3d24d39",
        "0d347df717b6c232bb831aca5fa3dbdf4fe25fa91680059ed01082d4a5ffd905"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "fb2e59bac4f8315ac5ad9c7f0f7ed48ef32be41e42834c57be15b1c93b1c6a56",
        "a2aa41922974de6ddc3b2b900428de5a49f8716071c95ee2697a04e1eaf419a7"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "aec1e68e4c8926673999336fd9e7ab3419c104581e341bd23d6d63c13af19a46",
        "d7fcca5237880eeff09dc6c2546307fbd6ffce2ee1f82492f794635ed4aec418"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "d5bda46ba98a2b25b279066b0541225cf4f515a4f99cd4da133edd61bf47e3b2",
        "713b893f6acceb173723cc2513af2b43531525d25aa0f112e31a9ba1251917ae"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "1d4790ef62903b8fc2d5aac5406c7764e621c745ddf053e08fb7de3715d5d56c",
        "5d681e0f11aae426d4aa921913e9841663bbad3bcc570445f31101e97e7c4962"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "a36d2204be8ba4189d2752f1539d7b83632c8a7b10f329fa79cb74459ce02ae0",
        "9e55b0b152497007ee276a125f7949cda2ab0f316c1e0ecdca47d1038b09ac85"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "12d6d95f94d7d7f8903de0c94a80fe8bc225e2350689b21e0913a9fb30826a51",
        "f331e24a6aab780be51caaf69c266a98803c8144713ce6ec56582861e58d4bb0"),
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
