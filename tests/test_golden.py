"""Golden trace digests: a refactor must leave every run byte-identical.

The table pins ``Trace.digest()`` of the real and the ideal run of every
scripted schedule, and of seeded lifecycle schedules (seeds 1-3, ten
payments, honest and adversarial) for each protocol, together with a
digest of each lifecycle schedule itself.  It was recorded once, after
corruption leaks became plain JSON and before the account-model code of
the sidechain and the rollup was merged, and is not regenerated: a change
that moves a digest changes a trace and has to say why.
"""

import pytest

from l2sim import harness
from l2sim.trace import digest

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "2b8ab3a4b5808fee83dff5a88784c401544c30884638000760b528b5c0742ed9",
        "6f31b5ecc0a25e3fe249060db8e3d33e6fa095328f4dc5207cabdb6e5e460995"),
    ("brick", "garbage-triggers"): (
        "5468f6c964fbc2bde68666ed6b8734dad36df93398b4b85341a90d050c0d02e9",
        "22812e79afc853d4236a8c607dfe9e3d8271cdc00a3e6e72e9a942c7b672c1e9"),
    ("brick", "no-pump-delta-flush"): (
        "ac11214706b653fca74c211efa9a97826410c2ffe6c89523285c1982a7f55c30",
        "b3a7d33f06dc9b16940255927802453e9cd61bfcdeba7a0231ac95d8855f5b64"),
    ("brick", "open-only"): (
        "0c5e52fa739cfbe557f431e7b99d11cc5ffe5174b3050a9f49ace386f52d9918",
        "bcf1eaeb5ff0e6dd969e7706b5d0ca42749c28071c774dd6876a7b9232af0314"),
    ("brick", "overdraft-refused"): (
        "40b3309b039bf464a33bab18e0fdebad186da0413696041cd808a21764f8adc2",
        "a4946954c32070a514666f617e912f28cecab911eb14234b6d044973e84d880b"),
    ("brick", "pay-both-directions"): (
        "cba21d0f8063055304b32f6fc51838cb15adeaa7ecb1c0e55315523a215fb6d1",
        "cc2b5bc843fcc2674dbf2d068c722e3b1bf145d8ffa9a1052c87f75a5dca2049"),
    ("brick", "pay-pipeline"): (
        "043ea7625d726cdae30af6a03f5e5c132a6ecdc4df4330c7c7507b2cd49f1490",
        "58e80558c0eb86f9c747c5318520a693aaf0abdbc95e922fe55e1b18cd0710f9"),
    ("brick", "pay-race-same-step"): (
        "440031ca4d0a6894e813e75f9389dbe87e9193a61de9bb988c439b576fcebe72",
        "3513619812dd746a456b54fa9014103bcf4c8d0d1926560d092f8a595c737079"),
    ("brick", "read-heavy"): (
        "20eac1be1b45935f1e885bd29b6950feeb026e33306a8f60229ea58078722c42",
        "f5ba28a2961772aef5ca2ad57c3a4115f1a6d09354ec3815247208c056bb0d94"),
    ("brick", "settle-after-traffic"): (
        "959d72b3f7bc30df651ae66611b9e7ad331ff86de552782a7572a94c138acef9",
        "f84e69bf15cab84994c0a0adafb3f6c924e86e57d505a4daffd583821da6d2d2"),
    ("brick", "settle-fresh"): (
        "0e08a54412c60dfd6bbcb161181293b2defb74b5e9b8a570488eeebc047b6cd5",
        "afd03a1b5422d83e9ef8cb735274ca224a50de17ee218c8a53a6cf0d0715d9d9"),
    ("brick", "shuffled-delivery"): (
        "8ea7c91ab80fbc2ccb7e0f7ade2a0a73ad02b43d4c2608950cd997cb67bf9254",
        "516672017d86c9757b8915b02bf145f3407dcb922b8c431980694d289ca2fa1b"),
    ("brick", "single-pay"): (
        "ce5695cf4478a7782070b94a75959df65ea0e5e8c109bc44edb92152ce79ee85",
        "383eb8b2d3ada99e72bd8456e8de27194813f0e23cdcf409bb81588f949bc595"),
    ("brick", "stale-settle-attempt"): (
        "59d88879a8dcb5ae18a31d33ae078b3a6e4ea66d339d3e34b43170c068b71483",
        "82cbd2e6b4575757538d75e9679b6eebf3d847b9d1296d57d535adcfd7597984"),
    ("brick", "unilateral-exit"): (
        "ad398bc05e103fc9bc22d0f3415af2b5a0d3a5bc62e75c16434cb8e20ca271d9",
        "a3b2b9b2e1bebc63550de3f4f7ae7b02866efe4b0510a476f9f96d32a60b1630"),
    ("liquid", "client-spam"): (
        "e260cd4e20b9bdfb016be6e76d17fd1d70d9fcfd63314cbbab18538f5391c693",
        "d2658828a00d160d00610299bc76d189677a85dbe9325bb220f68f7436c7d40d"),
    ("liquid", "corrupt-operator-rotation"): (
        "a4d5ae1789889333f5612d72b4847b05ab04e2e2feafa3a1f28d830c18690aba",
        "95a627f4bf4919731c195d9e8f3589aa7c72e24a5c2850c05ced7485f15c0f03"),
    ("liquid", "deposit-mint"): (
        "bc101531fbec71f0a9afae35fa8061e91d13a8feea31dbe8a96362b779859f65",
        "8a43c193bf1be49a70c05a9b92b23cc0925b3e62743872e1c19bc569d001163a"),
    ("liquid", "deposit-then-withdraw"): (
        "5e46c13a63a897c504da99dc9efb78861c04cb91f9d1f450766bcd9a792f36c6",
        "82b60183c6a84011bbb1fe6e388998c23fc6ecdd0cba1a470a216ae34c85ff9e"),
    ("liquid", "garbage-triggers"): (
        "d87fb9b479ed4e8253e0e017a6eca72f34447469f0a8f6f3d509d14fd3f88841",
        "a393a46040d40434aef6e12fa1a23b4cffd37af1ae927c9cb9b1bbb6e202752d"),
    ("liquid", "no-pump-delta-flush"): (
        "7785536404d6c859937bd5f9f972a101990e67846b27182820b73fb119873700",
        "7f81b37a1c0f3f84d86e553cb643e311c630cd31539798cdeef44e3ef9cf8451"),
    ("liquid", "open-only"): (
        "0b45ea8a689c029f18b7fa68b2fa258180eb5fe2b91046dc31bb7120ab4593e4",
        "bfc1df66350d6488d75f29ae0aed51bdf23606fd73c602b076e135383b100f69"),
    ("liquid", "operator-menu-noise"): (
        "49a02d2fd70d4d3135d5a7ef0984f9d02e023ad15dd44762e266fa8bd18e3b28",
        "df33c2e0f31b3b220f76a2df32c21c2f745644421c232012cadc6024fd6c9c52"),
    ("liquid", "overdraft-refused"): (
        "3e8dfc07d28454e7428b9654a3a1a1539569527d3d42851b19cfdfc2a04874e1",
        "5968e7e7b642833c0900530eb7d5ec723f6d7a29068acef0475bb4b871019239"),
    ("liquid", "pay-both-directions"): (
        "c7dfb23deaaaed730996c9fb6289405b41a1087fa231c9d2d00b7fae7149938f",
        "b938523e270a7f6c8111583b5e6b2d3e8a60a1cda82a54f9f97f94e6b2f67b43"),
    ("liquid", "pay-pipeline"): (
        "b199b036fcc0213d20e180ca2799bc66bf9c447b358e360211b6fd7144fb3dac",
        "bbb451329e5fb8b086945ed3e8cea594c97668ac91f7b43010a50868ec36a819"),
    ("liquid", "pay-race-same-step"): (
        "1406fb3bcf93b2690e682518d8ab8f8c89ab77c38a73a897cc97ead2e884c13d",
        "63e84514dda6e49cff3dd790ecf5abc3c24ddea232a6bfbbb4457f36fccbb88b"),
    ("liquid", "read-heavy"): (
        "5abbf236036cd58f194fee9f0fec5bdc471448ae74bbf491fb6198fdac20bb3b",
        "f65f791cd2ef1e7352cd851c5178150081f500f44bc739455ed010a95c7057e6"),
    ("liquid", "settle-after-traffic"): (
        "4778be2b64052e7dbf82f6c51addd7b4db09311b01b06595b493a7c9906aa788",
        "42c746f5699d288953380a85837b70882c271252b3449639f5f511c1e22b29f1"),
    ("liquid", "settle-fresh"): (
        "8845a8d282acc80dc572c9a01a6b8a90ceee8f1be87e59628859d096c6212ce3",
        "6e7d39838d7d414f4d183d1787e0143c8871111b464860e413dc90dbe8ebcc92"),
    ("liquid", "shuffled-delivery"): (
        "2edcee9004c2189eecc4a61e4a6e45ca7917aeaef533f99f3ad50633c0bd5a47",
        "45c07c337219e32e22826ec98dc6422837fd3a79504122bca65bcaaff33658f1"),
    ("liquid", "single-pay"): (
        "2cf672b0f32dfa3455dff637357efb3d43cefb8026727714da8c70aad84f63dc",
        "60d25094a228c4d323a85c085484fd64eaad422fe8e72d1770bae62727d3b0d8"),
    ("arbitrum", "deposit-mint"): (
        "500cbbe638fba3155c2c0078805030d9375bc4ba72bdf0142ce5c88517d7c15f",
        "10f5367b8938b9edb0ca5664b6f04860be22f01e1a34711a21e41e6600faa18c"),
    ("arbitrum", "false-accuse-noise"): (
        "dbd75c3f6578aead7009678a5adc8979b209ca20152650dadf092387c7357bde",
        "346d1ab81e7bf9012f13c8731b3467f3d5d4949c9ad0ca034550f8d8bcf7a6df"),
    ("arbitrum", "fraud-struck"): (
        "ebfebc94897f582d70abd446e0967198f535688fb4157d63b0203914fc646af8",
        "0109b494911b691424833caeb9ee1416d9b4ea040a8fd6192f9aa3afa553dda4"),
    ("arbitrum", "garbage-triggers"): (
        "29f64c0081abb101b8d92849deff18c2e8c4276bdeb910f8d8a6ee0b58e0ba6c",
        "c419285ca53bd97c02de388b8cb8b8e95f9876988760bfd305f365f335920b64"),
    ("arbitrum", "no-pump-delta-flush"): (
        "50e1a4588907c3da18624cf09e241e23ac08c088a3e74269cae532721b4ab7f8",
        "3e60c4ee0fa6d1eac94b602df5caa2fd3f9deb0322949204cfbd9a9639f0330a"),
    ("arbitrum", "open-only"): (
        "08442bfaafb304a4b5bab2f7382a10d415719f2310edb5f740875b497d0e0098",
        "8c6cecae46fdcd31519ede402afb76eb2befa902a4fb979a8b2f891464e2834f"),
    ("arbitrum", "overdraft-refused"): (
        "79ac59a6edea13c65337ecd15ba5167cbfca4b6ad47af4f257f72b27656598bb",
        "601110f0713cc6995c021bb4f0a333343641c85f2ed5574cd05166cfa8b9f9f9"),
    ("arbitrum", "pay-both-directions"): (
        "8ecfab085bb090b2dacbd6eac68e073730bf6ffb84a0d562ba39defaf15e63da",
        "b0a3479227cadd3de578952488f53119e78dc740fa7c28af0d81ca4d389166d0"),
    ("arbitrum", "pay-pipeline"): (
        "341355ce93068d8e7070c84bcae911dc348b51a5bc962806b7ad1172d38e0225",
        "2179713aac3dcf5a2b49eddddb25129683c288bfdbca567cb9bd65e7d93236cf"),
    ("arbitrum", "pay-race-same-step"): (
        "22f841b7a5b440d2148ae4162840a52e737a3684e35a3c625b6d3e09ae558f52",
        "65a1dcca593c444c032248562375337d999953af2a3c12b521de366bcc05daa7"),
    ("arbitrum", "read-heavy"): (
        "addba43c8e40573913d6263a9a3d3fb5cea6d5c9229d2e4259ef58161c8597ba",
        "01b569902dd331f408e665d199c359d45ee4f39c4dd199b7237fcd566cee51d1"),
    ("arbitrum", "self-publish-rescue"): (
        "0a790e8ef5decdd54a1843f9029d013bfac9454d6f26a242d298ca4d9409a6ad",
        "4c1821f401d6a95a8dabff351ea15ebc19f57cf54d3302ee7b841fe236ef105b"),
    ("arbitrum", "settle-after-traffic"): (
        "1358ff2e2ef4bda4931d8b3d964e7d28fb62c0bb669dfccbfd8f55e154c5e0ac",
        "4bb9b4016ace5936f412b57cf8ab1c2255d3fa4a9d2ec022e2ddf452c5d213d5"),
    ("arbitrum", "settle-fresh"): (
        "e0339a2f844eb0d42b02d86f224616450a658089f6aa8a579fcfd60055dac630",
        "805a45edc2109cecbced63913c93d8686f4158ec763e90e2f285298881d8d0df"),
    ("arbitrum", "shuffled-delivery"): (
        "3971031efa4c23c98b48e592f1692047b14d963597ecbcee5da797dd692aea0f",
        "89b5ade436c60f76305b15395bbe84142feb6077b23066e38243fd702f6726cd"),
    ("arbitrum", "single-pay"): (
        "e649588c957a13676c653896ba061112593323cb9bcac97b410b749786669ba2",
        "1912be3336b5e99985c27780031da8ef0f2d0a0525b2b0fc6419a144e4a65006"),
    ("arbitrum", "withdraw-exit"): (
        "1134d66e005919b91e66f63049f8663ff5b7467955645e9ab6b2a43981f9fe41",
        "4e676f8021f8d22c10a1cd9fb4ccded04d1bb02ac1d247641364bfe08889bdbd"),
}

# (protocol, seed, adversarial) -> (schedule, real, ideal) digests
LIFECYCLE = {
    ("brick", 1, False): (
        "7b491486d3a05d4d144d0fb9c415e7e76cb6ca60e444a0c89b7dacc67196fd03",
        "b597e82ea9fb0e71dfc49860594227c26ec9c5613540ee99457609c32dc88914",
        "fce4ca791cc4c7edd9144dc66eca7c6d67d6b9cf1df301ebbe956808c35acda9"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "173cc5d4a4bc6a3f698d9fe1e184b2ad35f9f81fb546baddf11c1be592c6664a",
        "c12672e0e33f4860cb589ad81e9eaec7fc748f13d3a2947497fae595a75a2700"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "fcaa52defe3c1e4f3f0cd350f19c7ce50f587b5eab35da199ac692aad0489b8b",
        "47ce88ae169689d8cb413a3c23f21687ef59fde6f28077259dcea72dd20361c2"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "feb33e7e79e8aac8424606107304a8a6f5c5e4a7c23af08dbd375f0c8ebe91c2",
        "d32e271b6014a580541ecade31c1d93318a87a5807ae4ec999e87d100d105112"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "4d1fb48f09e9ed8aa70aab30f508bf3d1e9520cef82ed0477f2aa531a9294fe1",
        "d3fc2807277549395071ae12d49b837965efafe3fb1fc3dd3bc74d2ce6de7824"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "2c00a15a7bc02dbc92bbf6a9e7216bc4a75e83d6b3c679edd64424d4f7ac27f9",
        "df7d3eca3fbbc0e94cd943e7d2af2e5b9b26c8db14e6988daf275781f0ef860f"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "5717af01a43d05d26e0e8c4b713bf9d091fb8bc22bb40682534f5068709e6268",
        "e28449ed832df5ec9894b10e115872769f439b7318b9c3f0a93de6a4045bb93b"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "1c70557f894aacae1b7eed8dc6eea2e85481ecf2f8814b3615ec22f89633b8c0",
        "ce5c4306c41aba30671610fbc3d1fd71360e7199080db58602c46f66cf6deeb0"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "64f16937d33e5cf0d609b53700c769b25602f07ae8543fea3e718376f5ec67ad",
        "6d8e4dd732cab018d234aac5bca1e2386192bea446269dcd1de14635b3c98500"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "2d0ed8b72ccf746e4c4f954bb9272e6f4156e3b5b4adf7b85555fee6231fc13c",
        "2751113539ad843ebd7078975f5d6476f63b5b05504ed136bce9b5940e5b1faf"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "cb9d8e4076215aa7195f26b428e27bd3315c6234d6dfc546e2b9faa8904509bd",
        "ab6fd577664bc141d412ae309c0777e98cb55f2eab7f45b9f6237974698f9a5c"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "29c52ada4e02efb609ed8ddf8079f7061b3efa9dc612a9e555dc67fdc54a1edd",
        "72eef2f04c365a033086dd330b16c9230ec30e5011679240fa5c626f0f9438dd"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "c38908bde1ff2d2bc5371cf333b8ec04966d7bd0eba9bcdd7dfc79fc8833e4c0",
        "fa55f1bc4ea3595e32326d83329fb06e4d3a1d1e6e8f7b01c6922834a2ee2b3e"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "03cac20a32e73d8d779d368922e227fbf0d7ad47ca6d0996363f1913c4b01c5b",
        "27508c9ab2979bfbc0989d1c8f87a69895e8f082dc8b769b478d9cda08272733"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "bad5aba5d17948d270a93286b0ccc79236da0f45708e60ffb196ff0c59bde9bd",
        "42a70b7edd39020e4abe5ddcdffe5da0b0ba7f02f1b8530a24d7af488becc39c"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "7d987239d1e2d80f055445c83944d20af36ebfaf584cf1d1c600143f93f8aa39",
        "24b99456544dd9e1bf83f333c88ce38803c0ae205e849381ed027388807e0c50"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "1fc8b2a3a0737357e34643e1cf4949b7c3b3a1f8a7889d4204d359bb62f22b67",
        "88b997995904e22d68cbd3f8e5749b38a385bae227da07e2773014113da1193f"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "1227ce7852ff6abdd8456541d7bfa184d8d4761a0d87169690b32dd781f9bcb4",
        "5ef66f308e44605767cdb4f626f3fdd635c789fd7b295da533f9664f87924471"),
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
