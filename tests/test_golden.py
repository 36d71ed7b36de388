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
A change that moves a digest changes a trace and has to say why.
"""

import pytest

from l2sim import harness
from l2sim.trace import digest

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "238c0c9ccae10d51f198ccf041a86f99de80e9581f6157cb0bb53259c9ba0e6c",
        "f46ed2cddd8aded80a6586f712497b760d57ae91c7f6baed63896945626207d3"),
    ("brick", "garbage-triggers"): (
        "0037aeac3999a79c7a1f98df748e3af927e140350c2964d039881c8e11634350",
        "ac5b6afa6dc417fc453bc342f9fb226406d20a00e81051b869ec933536e2c99b"),
    ("brick", "no-pump-delta-flush"): (
        "2d6de4eb51f6133eeeb19c5d0f6c8928dd37c9a47321986ff9a2e405e5c7bfcd",
        "28e6d1126f498c63282b84a8bca5e435b2d8b14a19de470ad8795a4263f2ad36"),
    ("brick", "open-only"): (
        "1e0d990984454721782f30e034d018d2564e1af44cbbcdfb5b5cf1b631ba88bc",
        "f589fb7743cd932bbee98aca1f3a515eaf35c1d961b8e42787e26a5387fa7ace"),
    ("brick", "overdraft-refused"): (
        "829dde11927bb2286f144eb2ed281aa009450570c13928627989cf690789a989",
        "f857a31c378fbcfc61bdb355dfabd676767df5c51e3b4944bd60d3084dafd4f2"),
    ("brick", "pay-both-directions"): (
        "a190d12112e6875f49759947851691a20aae47e367cb287cbc628389702d4dad",
        "4e69d4c6d7271efbb05f14c9cf5f7ce062134fd176ed96411b4bfb953e59fb5a"),
    ("brick", "pay-pipeline"): (
        "c691e555d47007d83837d631019ab3a78864e15fa076de64cb88cc8eb4de3749",
        "271e10ad6d0192ed6e32b2b03a7afba12f4830f6e05b85cc20775902bcd6c767"),
    ("brick", "pay-race-same-step"): (
        "893b6f4b7c2de0bf51d666066bf16207bd3f7f77a5a2eef6fb7f2e87ba6cde41",
        "81f95a93607f73b50758c6be3267d8bff2447201c3393ec859d455d8af53fa8d"),
    ("brick", "read-heavy"): (
        "939927e3d4031aba80441d342c8d8d75f5d37a495170b7866caa04738109c5d0",
        "4117fb93ad76a034ef01aee59af7c6038cb5a43761ca759a6974ec5486d30952"),
    ("brick", "settle-after-traffic"): (
        "93d91e30821bece14812207cff3d789fd8f3e7e02873fda790221b542aa21c76",
        "5bd3f3e803e8610c0a7a4c2c632610030adab9c75a286ace1e324ce5bd5b2ee9"),
    ("brick", "settle-fresh"): (
        "92284d864bbebda0679ad03219b656456724e6052f51e2462395cb2bf75633d2",
        "0610a90759a8f11c4a8849ed0378fd250e39cab410a3333fd4a1638ab759c9ca"),
    ("brick", "shuffled-delivery"): (
        "e2abea5e3eaa5caff5022b4b0d385e367cdae064ef5afcc20b5b9b6e84aff841",
        "7336566aa1b1b4231ec907995f49e2215a3536e6ad2c325bea8b1e07c7dc31ee"),
    ("brick", "single-pay"): (
        "59e2268980d4052b7bf067a1192845164181cbc81ebbd223aca3193329eba166",
        "aeb63fa23f069dcef818d036154c0df72901e7e1466b1891f2f41a70a822a8b4"),
    ("brick", "stale-settle-attempt"): (
        "c54db0cd775579ce9d7a3b7982a16b3a3cb23f430bf560d207fc26030aff6407",
        "f60a8a8c378a1ad7a9e3918df2d6a8aeeb08907974e6df9f888833f8155dbf7b"),
    ("brick", "unilateral-exit"): (
        "a8b8cb93cc96d600755656e7d3bee2a0253f2c8c3c6986d5b93d578c6d243789",
        "207c41fcce74e166b8095fbe61d30af299c2c3039853825f26e35668a2284d12"),
    ("liquid", "client-spam"): (
        "4700a3ec8c40ba8a5e55007fe9f47f6729c8e5421093d696d3409687fcbb150b",
        "a70643b9e4641c65286bd13f9b5b4a8b481bc169aeba9a3eb7899f18b92596c6"),
    ("liquid", "corrupt-operator-rotation"): (
        "072ce16820fdfb49826f3d985669777a271d41d54a7360492700ccab5e135107",
        "ab99c9da1f9965bd5cf62b21d2021e7dfb9097bc0c19a690b98425461a842683"),
    ("liquid", "deposit-mint"): (
        "40365a1da874810f76367eaff0cae45b28ba46a17d9de11f057d5e29da9cbda1",
        "4fe3fb81c2223c5953a6d9b42d96c0b80ff34906f49a8600f1a9e0ed85290672"),
    ("liquid", "deposit-then-withdraw"): (
        "1a0e7fdff325a23f14bd388e020b1d8961321c7d35999b08c524d70b88d300ec",
        "940daeeed0dd8c04c28c2359da8153fa10eb64cc883d27676b926f565d4d6301"),
    ("liquid", "garbage-triggers"): (
        "64f3d81089e757bfa19fe178fe39952e6d94e0a04480429d5966de33c993602f",
        "dc65ae6305aa1d852b09f861cedbe07d47482ad4f0da9e9462d60d71c53f449d"),
    ("liquid", "no-pump-delta-flush"): (
        "a8fdc79a751ecf339777bd3efdc2c2f02a82baaef04466dbc27183b4d3c95ba2",
        "7c1497be36fcd7b05b153e97495647ea549bfe69e4f00537281100f36c170b68"),
    ("liquid", "open-only"): (
        "c31d345c8be708192fd36d0a18a1131825a0c9677689fdbeed6863bf5b1edfaf",
        "9272217eb0c681d34b1080e50c45a8e5e319c3c784e931259f6a4d24df2a3441"),
    ("liquid", "operator-menu-noise"): (
        "b8bf42a6693231d1bcb86d6a47b90a3bafee2fadfe95902b3e76f5b1a8e7480f",
        "c340f3f7715300731ab3b2660c5b6016959896932413b0381a47b709dab0449e"),
    ("liquid", "overdraft-refused"): (
        "df71c25b880c20de84ddc8a498c139d7629657010ee9d4370c478f2d9455597c",
        "a045a10f88d5ecff5ce70298dc5a879d091ca9c9c1366f7531839082f6b8b436"),
    ("liquid", "pay-both-directions"): (
        "cba76a799915b57bd9364b55759673e98ee4d79e6c96792330bedcc077748470",
        "e9e24b8e22d335e61b9c198146c1adca72754f312fc9464b6379331ed7470e21"),
    ("liquid", "pay-pipeline"): (
        "bd5d50640b0d6d817991eb24ee23b82f9325bf10e6e81164e4edc3f5256cf0eb",
        "a5388d08dc250765d9b7dbe00e8162d3443b84ac49be0486605feae7605af82c"),
    ("liquid", "pay-race-same-step"): (
        "3181757827809208818161a30a8b9e50875ce1efc977f587b17445e1cac643d9",
        "fab630b97cc5b9c5581d582178af9942144307b3b7a6c8fcca52e8134e860ed8"),
    ("liquid", "read-heavy"): (
        "de2bd998ce54675dfe74c0d3b1c7947a98fd9ca30af0b4ff52f9c658d9a7077b",
        "3f0b571cd6d3a0a801bbf05a0c8bb0171b7c62549143628331a45b6ef6dd3ca6"),
    ("liquid", "settle-after-traffic"): (
        "2772f11ad4245624642e9bec8d52be7ea0685f041031bfc4a467d392cad202e1",
        "cfa0f61dc68bdf44982e51db4514ce563292192447864ee418b7956e78dff7f7"),
    ("liquid", "settle-fresh"): (
        "5ca70667bb40bb550d1da69b21032edab8070728014144baa133a34f40e94849",
        "a026a76b4af51c80320a56d537b07935f3cad86b6334c01542c62d01aa7e304f"),
    ("liquid", "shuffled-delivery"): (
        "ccd80183a36183620b166ac46d489ff13c68a5907d7aab19976b4d2047e17d3d",
        "e98833cccffe00c540e27e48aa7b64eb46f63d88b20738919ac7876d46ebcedf"),
    ("liquid", "single-pay"): (
        "b0c120985f397f8472afcc34709ad05292f3fcf6afa3e19fd13f1f390be9e784",
        "0f2b303c3e2e2ad8ca23a707ff2e3688726454f7c46bfb7793f5e55368da49b8"),
    ("arbitrum", "deposit-mint"): (
        "c0603ce57eff31d9eda13a80ec763f75f53d31b8d016a273780989ba9baf691d",
        "9ec50793b1d03d1d6c45fe8d351ec9478fd44a275bc2517de4523e22fb627f56"),
    ("arbitrum", "false-accuse-noise"): (
        "581262627c093d791347699c17f12fc0276944603c06c9985365fe9b4cbab41c",
        "c4068fa040089f7bc5827199154a1052bc3199c2bbea3e6c391320733ce33ace"),
    ("arbitrum", "fraud-struck"): (
        "f89238c78cd7ca1907dab6e924fdeafc74058d835f7e615725c124ba96311390",
        "90695f24de117d4869b2227dc74ecb6fcabe81c98a70c27a1305571c9a27650b"),
    ("arbitrum", "garbage-triggers"): (
        "b27626fa39771d069dfc8895d42f89c3f7eddfecc1196adb68cc5c3311266da7",
        "9e16bc4b8ade02c8bdad372cd8a6924c84735a7d8e3306091f40be973b4ab090"),
    ("arbitrum", "no-pump-delta-flush"): (
        "b51ab10edf1a8fa000ffce9638ff83b580adc67646f611443762a8ce6e90e779",
        "42bb78294380ff8ee784c6c6a1b97b304b7fe7c9d4464d060e65c8a53f8ccbea"),
    ("arbitrum", "open-only"): (
        "34ced6760282c34d376bffa1aee9049468a6511a856af81f836cefdde3051049",
        "6db98bf913a5d9e0c2e2f1b4f118ca2783bbafb4df67701221c87656213ecb77"),
    ("arbitrum", "overdraft-refused"): (
        "d6996fbda339e915965f41e84e8d7676b29f5e6d28fe3f8bdb11b34f2f023322",
        "48d113739b40edacda8947c9617f34d6ea00ea8c3ef2ddacec4814777d2cd2a2"),
    ("arbitrum", "pay-both-directions"): (
        "05e2fb6f0b29a75083f8b6d52d8242727d7a9b4962a04e4408236d69343d5c85",
        "f6898461c93ece77aa2a6aa71946b61e1e5effb204d8f43c7d43bd72d248a5a2"),
    ("arbitrum", "pay-pipeline"): (
        "7fb1659f6939078c19c3c6780d068a84e5ce17046fbfac54e75f72344fdc3a6c",
        "ae276efa9a4ca041a0e8aea9126cc55712e6af8555773fbd8eaed09b8b32d87b"),
    ("arbitrum", "pay-race-same-step"): (
        "3a378da104d13f7380010106642db6f4e22dd31530065e31011648883e772d93",
        "2b509cc95dbaa13a7613732137be5c4188c68971a0a216142c69f8bfa84bc2e5"),
    ("arbitrum", "read-heavy"): (
        "ffe1614339edc2de24af99fda66e7bce7ea53e1ae28c46874f2f53307da8d583",
        "bcdbcb8770d25a343ffb5e11dacd57841cc4d105587af302cdbafd5dd0fd8445"),
    ("arbitrum", "self-publish-rescue"): (
        "7a769891f2256f60f39a1018ec526f820c9a2f6afd9d9b61192b793bb402a6d9",
        "229dcd5b9d44d68fa9c3f841aeb344c1479b6768001042b785fa8d090e2ea157"),
    ("arbitrum", "settle-after-traffic"): (
        "47dc7d10f3bead24f932847fa379d3f51a06dc3e4f92620733e8f88190905c63",
        "95e479df025d126c8302d6c2bc4f79e9d1255c1be5354d413f6255efaccb2565"),
    ("arbitrum", "settle-fresh"): (
        "c2c823efca5c5d8ff0a68f8776350056e208e8531c20797dad99076eb8ea52ab",
        "9a62ea4e27cdb2da6459536d5577d50736cb977cc514aef3e8fd84553559d545"),
    ("arbitrum", "shuffled-delivery"): (
        "72064a9faea456125ef1e6948c96a332a922cecc49092362b363b67519ab302c",
        "1620d1796ca25c318a80d2c8b8462b72586647bccd3845474458bc64ca4ffdfc"),
    ("arbitrum", "single-pay"): (
        "f1f2b9af2a0e549e93a1d7b1c2810106b68aac5a808f9f48d67f5405180ac2c0",
        "80600b69e259e2a8c7b45b850ba0a6755c08be314b1183d97b4048f528a7b77b"),
    ("arbitrum", "withdraw-exit"): (
        "ade3aaff88bb218204f407c9e0bd82f4975871bf08d2c4578802e753c4604a23",
        "9eec71b534efd9127c97f6e92c36569d97413a6ef1ad96f82bff7b291ff91130"),
}

# (protocol, seed, adversarial) -> (schedule, real, ideal) digests
LIFECYCLE = {
    ("brick", 1, False): (
        "7b491486d3a05d4d144d0fb9c415e7e76cb6ca60e444a0c89b7dacc67196fd03",
        "476830c087bfcbb9adcbe750ff28c712a30ce388538a92ae3d14257aa410a50f",
        "b46b552b22e19e00a3c64cd5b6d1913d725c4d4262e63dec889ce9f39193f6c4"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "0963d354b7321a1735e91e714a636df5a5ad39a6220d330a7aa2f1fc2ece9b64",
        "26b45ce6a78cba0077053003e7bc9ea6d692429178849238e48a39f26c5e3356"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "03dc2f9f7a06eb4365bb29c5a82b627aab9207075dba49be2e5d68dd6970a91d",
        "485324b39e940649613801800fd8cb8bc14401a7335aa29dd3e99e7f8430d0b8"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "44e196c76c23293d3fe9bc3e277fa551270eb549e9cd5b0de85b33bf02894a1e",
        "bd153eb1162fa851841d3f0ef63c19de425c46022b93a8bd498a52987e2ae70d"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "5d1a5f5f264a015791ab2eceade1feba0b1608859b780a3d88dc1187af364bc7",
        "bed9adabbbe0ee76daffbc67628d9ac2463a7e8babffdf1942c26724679f033d"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "bb709b469e6ead73138120bb47318bdf7c638af37d8edd0b055d9393dc393e0a",
        "245e5cb8e25d729a11453e30256c4a153fcef53aba4acbbfe40b4764fc35a0c9"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "6c4016fe51d6a32996c303909a98d4a472eaecdb2d3770b7a19793996c5cca6a",
        "44a6aa024575929dd5a69354aaa6d5d3f6fe166ae6affbb72c66b3503dcc0b64"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "5c4e6ea802935ea1a9d120b1a779256fabeec32f96b4fe588e1b61c9e85ab978",
        "164ce80172ce204baafe2afde822c282699894f623473539f69b2d8d82c665b0"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "ef98a0b333612040208b31eec17763684436eb9f8e02e0c652187af5e9fb0afa",
        "a1250bfbb1561cb8932a3ac1bf854ee5f698759ca38a5ffe348127abe7f37dc5"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "00e3a930e8ade5d927f853df3680c7cd30437e7e46c6c66bf3bb0c3de418c9ed",
        "6d40b87b4875f35b6a30004222260f83519d6c4ad3d2651fccb81b89d64555e5"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "a6ddf78aec2b74b73770befa60dfa66429e36d15ba4fce2302c01c74c4ea9831",
        "c937064c3e283e0d2da5a777d703e2b87c1ce195be369f811a472543db38030b"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "a4b896da64a490111ee8e6c789b1986988e44d0c3fb90552d70ff72e8fadd0bd",
        "0d347df717b6c232bb831aca5fa3dbdf4fe25fa91680059ed01082d4a5ffd905"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "136c000e1298741a4a682e3cc56736ea1ec787b465ddf5bd82ec0dd8e35694bb",
        "a2aa41922974de6ddc3b2b900428de5a49f8716071c95ee2697a04e1eaf419a7"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "243fdc8eb0a3369b88656d8bc9980db993b981ac616c0c5cf38eb678a29e9a65",
        "d7fcca5237880eeff09dc6c2546307fbd6ffce2ee1f82492f794635ed4aec418"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "c5a99f0d5ea297987f8a9d69efc95c0f603fabb8234128a00d5cfe16e58c2255",
        "713b893f6acceb173723cc2513af2b43531525d25aa0f112e31a9ba1251917ae"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "5d0af51235a70710697ed02fbd12be513f337b17499b72b99f33a94e0513e6af",
        "5d681e0f11aae426d4aa921913e9841663bbad3bcc570445f31101e97e7c4962"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "8894ca65c5c6d7b0239d56ccfabed7e01c0ff0527738411ee21288d5539e1939",
        "9e55b0b152497007ee276a125f7949cda2ab0f316c1e0ecdca47d1038b09ac85"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "d3c16472adc45514eb6f2f74597cdc4544d444a8ba7525ebdd6e29ae55f26b46",
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
