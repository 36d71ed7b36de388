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
did not move.  A change that moves a digest changes a trace and has to
say why.
"""

import pytest

from l2sim import harness
from l2sim.trace import digest

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "238c0c9ccae10d51f198ccf041a86f99de80e9581f6157cb0bb53259c9ba0e6c",
        "09024ff6d45e7a492afb2f0ce9695292ea3bd8c3125e752471917220dde38170"),
    ("brick", "garbage-triggers"): (
        "0037aeac3999a79c7a1f98df748e3af927e140350c2964d039881c8e11634350",
        "83ec3a8d3021a0f0aef15804446d92c73ee2fa19c6c45ebb774a4f3e22856bec"),
    ("brick", "no-pump-delta-flush"): (
        "2d6de4eb51f6133eeeb19c5d0f6c8928dd37c9a47321986ff9a2e405e5c7bfcd",
        "bc242870b5bdfb83afed943ad45b27da90f26e5afa702579489a365eb22b7614"),
    ("brick", "open-only"): (
        "1e0d990984454721782f30e034d018d2564e1af44cbbcdfb5b5cf1b631ba88bc",
        "f589fb7743cd932bbee98aca1f3a515eaf35c1d961b8e42787e26a5387fa7ace"),
    ("brick", "overdraft-refused"): (
        "829dde11927bb2286f144eb2ed281aa009450570c13928627989cf690789a989",
        "16dcbeff387ea58262f3cddb9f4f29554324d99989c379d7d47a91705cefdc20"),
    ("brick", "pay-both-directions"): (
        "a190d12112e6875f49759947851691a20aae47e367cb287cbc628389702d4dad",
        "069479d9a8dc379da3d2be9478a70d888e6ebce0a59ac485ca1478d8c38192f4"),
    ("brick", "pay-pipeline"): (
        "c691e555d47007d83837d631019ab3a78864e15fa076de64cb88cc8eb4de3749",
        "322914d0017c3ca88d9f55cf734abaa36059884eba246936a81e8b02ab6fd1d6"),
    ("brick", "pay-race-same-step"): (
        "893b6f4b7c2de0bf51d666066bf16207bd3f7f77a5a2eef6fb7f2e87ba6cde41",
        "337b72df98faa0507813759fcbc16950e9843d8fe63ac42e84539cacc9c8c82b"),
    ("brick", "read-heavy"): (
        "939927e3d4031aba80441d342c8d8d75f5d37a495170b7866caa04738109c5d0",
        "4117fb93ad76a034ef01aee59af7c6038cb5a43761ca759a6974ec5486d30952"),
    ("brick", "settle-after-traffic"): (
        "93d91e30821bece14812207cff3d789fd8f3e7e02873fda790221b542aa21c76",
        "21883f39c324c0204563ababbe9431e7cb92a2163c8a26e9f40909b176a76cb1"),
    ("brick", "settle-fresh"): (
        "92284d864bbebda0679ad03219b656456724e6052f51e2462395cb2bf75633d2",
        "0610a90759a8f11c4a8849ed0378fd250e39cab410a3333fd4a1638ab759c9ca"),
    ("brick", "shuffled-delivery"): (
        "e2abea5e3eaa5caff5022b4b0d385e367cdae064ef5afcc20b5b9b6e84aff841",
        "6253a5472f54d7651a3e85f4f7cfa617470d6e82398cd9d4c50ee96531dcd592"),
    ("brick", "single-pay"): (
        "59e2268980d4052b7bf067a1192845164181cbc81ebbd223aca3193329eba166",
        "22d0248d93202028f9f9a1f934950967c715b6fd0b963bfc23c78a57be69aef3"),
    ("brick", "stale-settle-attempt"): (
        "c54db0cd775579ce9d7a3b7982a16b3a3cb23f430bf560d207fc26030aff6407",
        "a77a2c965d9c581b5cc0387695cf889d4bebaaa242d2280280421b648c149274"),
    ("brick", "unilateral-exit"): (
        "a8b8cb93cc96d600755656e7d3bee2a0253f2c8c3c6986d5b93d578c6d243789",
        "3b329348f6dbaf6734b04df723feb032b6de62ef68caed1d7201aec4c18889cd"),
    ("liquid", "client-spam"): (
        "87c3feeccdd379c262b00f2877c9fa1195f4f62569d4a3822897e06dbb04f573",
        "f6fad9c76a49ae4da2563d5c9154239489e908c39bef30956c5dffafceb5ab0f"),
    ("liquid", "corrupt-operator-rotation"): (
        "3ed3d4e38b5a91ad7b80e17fd598a5d624287b35f5a96feaf38b76d690ca9d6a",
        "ed7d87fd7774a181bcc6a25ce1ffc1e8eaa73da2dd6e72db3d781dff8e81144d"),
    ("liquid", "deposit-mint"): (
        "aa5b5af2f757bb9f60a15c5601322eff317aa6e4c29a3e8b57e55d140fc67e37",
        "8b5ee733a30ce4e56641ea0acb355c734d4d1bec22a7731a0a4de584c3bbce54"),
    ("liquid", "deposit-then-withdraw"): (
        "05e2f1fee52ff1833aea28bdf0c652f2035b093d7c511254f96d72aae7d48744",
        "5d8530056d883094ff3e4e481033eaf334f27934b2f830a46d92785e288de0a6"),
    ("liquid", "garbage-triggers"): (
        "4cc0adcfe2e8976c4372f88e766919de5827628241cb92f76fda2db8e8191fde",
        "af41b83050b63cffa7ab675b28a4a8f3937fa3597d7b89cec46ca3b2389161b2"),
    ("liquid", "no-pump-delta-flush"): (
        "2de153fd2e1f6f6f28bca95373cdec5e7df4858e33be9f424029a2bc7d159d9f",
        "bdb71aa94f6e1f21e40e09e56a41c778523c9d353dd9178c0feff3a4463e5e8a"),
    ("liquid", "open-only"): (
        "c31d345c8be708192fd36d0a18a1131825a0c9677689fdbeed6863bf5b1edfaf",
        "9272217eb0c681d34b1080e50c45a8e5e319c3c784e931259f6a4d24df2a3441"),
    ("liquid", "operator-menu-noise"): (
        "7d07ef86e9656952e6052776f1e3402c73fecd13615b7f0ab18a7da3ad6992c8",
        "0e3b6ebd6b4a5448d67cca2d938127e8804b05ca7b5dfef3f064dd94d3f36dd3"),
    ("liquid", "overdraft-refused"): (
        "8a94131646bd05def0b759f81c9f4d774854adfacb0d5dbfcc896b0f6f4d51c8",
        "f2fd40bbeb36e30f4daa5f58a732d11c00e5468ca466f4a46f557c1ddb142b24"),
    ("liquid", "pay-both-directions"): (
        "0fc7f51c9efc95c96c1963cadf4c1e695a31a180bf68d346879b0307eb7f544c",
        "51bc0c5ddf9bccac386b1e65ff71237484f740c24568371fe173398844a3696d"),
    ("liquid", "pay-pipeline"): (
        "ce60b110f37fb696b044fd4865e464576a659ae1872c10baab214c9f053e5d07",
        "f417f1a81cb48ada83f88629a28070599b2e05cfadf8023fe508d4abbc90ee3a"),
    ("liquid", "pay-race-same-step"): (
        "5c4476cba299f5048c3cea7a3a738a9174624e16125542fb790316a9caa36017",
        "16f2ea0f0a7fe58aedf7b45d791bfbcaa447f64dcf0b1531f91b022d49376f58"),
    ("liquid", "read-heavy"): (
        "de2bd998ce54675dfe74c0d3b1c7947a98fd9ca30af0b4ff52f9c658d9a7077b",
        "3f0b571cd6d3a0a801bbf05a0c8bb0171b7c62549143628331a45b6ef6dd3ca6"),
    ("liquid", "settle-after-traffic"): (
        "afac229bd01e85181a14b7694e17aeeda0c1b140d30b86d2e9730ca590e0f5b4",
        "be1c64989c2ec80e3a5ab2b73c61987057a35222bb152e50eb8017fd7037d883"),
    ("liquid", "settle-fresh"): (
        "7e6b66ab2a7f65d76d235e2db1244388f78b976f0c9616beb79cef8388f1460c",
        "01cb7a175440851e16a8ea3c708ddff25142464ab0b063c8fe7fb28b889a660b"),
    ("liquid", "shuffled-delivery"): (
        "6a82fe132dc69b60141ddfab4e51c8b4974804e34a1a311a71f40dc79c289cf0",
        "3b9b5fd5e79695605d5c664a0fe0a54a353dc0f36bd24e6626a2fb3a7070b579"),
    ("liquid", "single-pay"): (
        "a540665e765c3d8cb62205cab86a64fa9550f4e3a20cd5232d4f5f2ddfa137f8",
        "5dcbd28742bdee243a789904373e078af63c5808a9bcf5e852ed83bb91dcec60"),
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
        "eccc6ea06db1eb36437b8a8569918441c7d05e4956eabddbb4a32e7f121dff5b"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "0963d354b7321a1735e91e714a636df5a5ad39a6220d330a7aa2f1fc2ece9b64",
        "b22d7eb8b9c59bb7fd89345478077c348fea8533bcae7dd9994cc9e07f1c624b"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "03dc2f9f7a06eb4365bb29c5a82b627aab9207075dba49be2e5d68dd6970a91d",
        "2719f81ef2dacbfe1f17501cbf08a9b33b276996fcb0d584afd8c4a3ba26a2a0"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "44e196c76c23293d3fe9bc3e277fa551270eb549e9cd5b0de85b33bf02894a1e",
        "92d4124a22b90cc6d76b03d8c75065985458897bf58cc1219f957dcef09555cd"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "5d1a5f5f264a015791ab2eceade1feba0b1608859b780a3d88dc1187af364bc7",
        "01af4a9aa6653e614cc8e37b5f36cf8741ae1e0b35036a3ab058df4cf67bf50a"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "bb709b469e6ead73138120bb47318bdf7c638af37d8edd0b055d9393dc393e0a",
        "517ffeb7b0246fd1aaab3187991d6758a95cd5d410877febd86750caeaa42be8"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "0324a622d25681656c6c36a6be30c17047dd14dab5c3149a961f2fd2d5f7d5b7",
        "ccb3e85476005f397463c0aec38795aff4999dccfd5a3a3c44a8a4d9b615bf73"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "87f4f100438d59b95e8d4d0d4220c9eba99a71b1bd2c7d785e25fb55540847ab",
        "e0430f3ea5c763e05c4ea4dcb24cd86d0ba9b6a42cc73c3a70f0cdd2deb510c9"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "5f2a6ca989c268487a88f7fd3b771cd7779c38438742cc68012979b99193059e",
        "e00e7094c87b2f8db20798d2b099042a0da7686e2f2219977cf7b0beb1cab223"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "67af47ecd17511bed4161bb3f34c1a59fe2770ec19a58c28f88f5aacf920bd41",
        "a050cde598f6456eb5e1289be386f8310729b66fa65dff1c095254255a41edd3"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "aa4cd1811c5639a548a459e9cdd813537c3b5d1690f9057c1614b2895bdafb4b",
        "a11bbf584647fc2432e2219fb0f2c6beff1242a0cbe7b6f51b138fecfd402787"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "7a7d199d4381a65765d3bb464aae1976ba3df7b773ec2dbf75439ca58b029853",
        "f27e48b4350077d94d7e38825100321bd91ba3d19263c7ad2331a53ed98ad590"),
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
