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
instead of being committed twice.  A change that moves a digest changes a
trace and has to say why.
"""

import pytest

from l2sim import harness
from l2sim.trace import digest

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "4e49769d5906de8dcf4f405cfb5aa91863b74b1a8f8f02fbafc726960b488269",
        "45930d0a2ce9f9ee16e03f0fdc5b54b5dfc8fca45759503a148830c114df834a"),
    ("brick", "garbage-triggers"): (
        "90e874ab34b10f51b71a78b981f5b028ced2b056a2bb750f8fc5f865904613be",
        "823324a1bd8a90c604aacba687374528e37396300e3e870e25c41b594562b0b1"),
    ("brick", "no-pump-delta-flush"): (
        "08a8b68a6201b812fb8bbd3057bb1607374a0f263623a90ff12ae422deda2cde",
        "26cee8c4f76e9ebe152ba794fda1d1838c1bad314e2a036040dca3e9897a9b51"),
    ("brick", "open-only"): (
        "84593724d6894499aeb0ade26798619beec247b13edf7bd7e8f3da645de0efab",
        "01ee956e154e1520a7011c1016da10dd8b5ec844230d3958f8c3fb4c04a9b086"),
    ("brick", "overdraft-refused"): (
        "52953ea6128ca1edd07c5993c8d7bf33f48826806eb9147d7f92e52ceffc9f5d",
        "b3e13aa2f65f720d9746a9995ccfa5eaddb955b61766f266e0e5e9c7466f7771"),
    ("brick", "pay-both-directions"): (
        "411fa2d9839f89189400dcf26994a9eeb2ad21ced7f748cb29f9ea1756f1492f",
        "ba1c601593022a8b2dd0801054a822294073072701910eeef58fa424293f0595"),
    ("brick", "pay-pipeline"): (
        "a098519262a1f8e568a8483b529db4b1857d97d9c459adf4d5ee96a5a811d769",
        "f500c59c98db593b505d61e061a9f539718fc04a6d1b16de86d661184b79d5ae"),
    ("brick", "pay-race-same-step"): (
        "25110f7137e3c5cedb65985d5c9ab110d7988519b8ae807bbda107d8ed6151be",
        "538260a5141c41f057fc6dc9daad92a4154d8951be5e645228b9b6fb65687ae8"),
    ("brick", "read-heavy"): (
        "e89abef4ebbf3d8aa5419a6369dd090de92d01d3ead0707f944c7760ba474a43",
        "74eb348ae5052d31aa3873f559d4e66a9fe872000cc875d008745490c972d724"),
    ("brick", "settle-after-traffic"): (
        "662e14fea4bef2fef394a8b4c2875a74eea14c8f875bd683639e94d94dfdbe24",
        "b7a901e5506d7822ac2fbb5c85892c137834cb95f0e0c2cf405e376fd520a520"),
    ("brick", "settle-fresh"): (
        "0de469e5147b3a049e29250862a4aff3de8879c3482b5406d7e9b5a44d27d5db",
        "040115fc2711ed39dde47317b4f92770ba6ee695a77f319e684b3f51316f83f1"),
    ("brick", "shuffled-delivery"): (
        "1c58eabef822bb99ba9475e477afba4adfe582dd90476d75c0d9a7b3cfd0f61e",
        "8391ab34326466305d475cb71754fc3c116a0fb9ee374601c7a8c7b5c5ea731a"),
    ("brick", "single-pay"): (
        "88a31171ed66ee5e5f9888d559651fe48e50d5bea6b22e61b5febf5d8c330849",
        "c1dd5c664efe8722037adc0ff9369df396bb4b8c0684ca58d748242dc486e4e9"),
    ("brick", "stale-settle-attempt"): (
        "32449a3bdc3cf8ce930a5599dc4dc4c7c201f9d3e5b4f6bb62a370c6dd4a8c51",
        "59eba4142cb72d0ec54244c9b785aae6faf0f010a0581b9a2cfe03312a703bf6"),
    ("brick", "unilateral-exit"): (
        "fce8eb1e77a8f6addde5f8cfed5599f917bc36d9d509ae8c0f7bf28d8c515460",
        "aacf1f63c85c5741622a63f98ceddf1820c61c33cbb835c63a6408c25bef4a4c"),
    ("liquid", "client-spam"): (
        "6c5d2b7e8840598cadc5c67477191168fa621c067fa08ff45e7c808ba93dac0d",
        "3a6620f95ea1bdc271a0709f011e886fff9b006e9fab04674b52d0f0d246bd5d"),
    ("liquid", "corrupt-operator-rotation"): (
        "c88bb5a70198d75bd9dad3a695f289f201ab528e55e36ca1e62503043376a1d2",
        "7bd9ff782ed14371d6ba67403a592271394dfa75a2c13a30b47a8798d5c86d22"),
    ("liquid", "deposit-mint"): (
        "dbed2cd36625262b36872853d7acfd15d2cd37dda5cc4d94cf6919707b21bbde",
        "20ec9a639a8a1f007d1ec81f08fa1a500e850320f3d5c812b18f6ceee170197a"),
    ("liquid", "deposit-then-withdraw"): (
        "1445e3a834442578448d4293424dee7a4f38b0b84aabacbca277193f239f08ee",
        "504d67ac0713db3eca1df9458da0368a204cef020035fecc5faaa08b0e65f6f7"),
    ("liquid", "garbage-triggers"): (
        "b34e25c81f45e5be56d413db511372a52ce4312093f936f358f6daac8624859d",
        "102e842ea6fc28bb8623a30e3a576bc9999bac5fb06f491940317cc04647891c"),
    ("liquid", "no-pump-delta-flush"): (
        "7492c41d54968d0b70354d9ca6fb6035658cb498d01dcb34dea989e1129ef6f0",
        "19dbf68836c3f5df6c635d78c24402e574135fe76ed9c0c11a07266f2dbc31bf"),
    ("liquid", "open-only"): (
        "ae77f18c2610edd0232eb147af59c9a48f913df9ad3a0c09566f3747ed44eb12",
        "132436fb1841884792ca911a5459ad91807e23e4cb07ba3c149e16be3a18c17d"),
    ("liquid", "operator-menu-noise"): (
        "cb6f1b3d36900a95d027e5f7d6a162883ad7b9542b908629ebfc84b91253178f",
        "004b5d8e1dcafd1685d26c8282742081057100ef16eacdb5762b156e228c090d"),
    ("liquid", "overdraft-refused"): (
        "033e164667d94bda3ae76f65ee9ffe289e7f982f71b2def85421c8e61bfd2f7f",
        "836141cf8545ceafc896c6d0d03f6974ae730e842bcfef973e785d770890f7f0"),
    ("liquid", "pay-both-directions"): (
        "08e3290b481ea4936e1e6158aa2ab288c7d99f2e4856dc8d4c539e1931182a17",
        "c258da10d4fefd779bba7fcc3871ae805fe7d00c694408555c9b64a371e46f61"),
    ("liquid", "pay-pipeline"): (
        "ad6655995280fc8345e7af8ad4b77a51f38889033266d99a8bebc9bc8d651a97",
        "bb292e892ddf13ab4c5ac8a18956c5a87eb979009ab3788892920775978f8c74"),
    ("liquid", "pay-race-same-step"): (
        "a6608e64374b51f29e6d9512870ab2890887a6632aeea0b4c43a6cb3df3337aa",
        "3aac8c5dd48b496f58014cadecdefae1c8afddd8feffe57e6b69d29d3481b046"),
    ("liquid", "read-heavy"): (
        "a437263577c6cfc16f5f770c4eefcef5be527652414a3e567baecc920cdee6f3",
        "9e0ec7133f5d81c74ec53e862ffe7cd99dbe03bf6f1a5e87fbb9540e9255768a"),
    ("liquid", "settle-after-traffic"): (
        "3740a47fc1bb57077fb8bf8eec2cf51f0621050d130cea32581792e3d1b772c5",
        "f250317d1659b5fcae87f042bca76696c323d60c58f9b7e6dd15740051773a6e"),
    ("liquid", "settle-fresh"): (
        "0f9aab4462d3b1123aa56515c59b0b72f52bc6d0f8ee44f8321851a073472437",
        "18554a7fdd46593a859348193570122dbcdbe3ded74bda64bd3acad7ce385c29"),
    ("liquid", "shuffled-delivery"): (
        "e820375735ab5e1ce6872bb520071ef0aab0f26d7cbf849620e0d29937f96edf",
        "a431e92ae7d84b360df89163d3136943435f125f755a200a7d4487f8ea449ee8"),
    ("liquid", "single-pay"): (
        "38e797bbcf11d52c6a10a3d2343633044ce5b0b6a87aeb6684636cb0b7326b2e",
        "743fbb12a4d84ff800a725527efb3246004f977643e350f420746fd3d9da1222"),
    ("arbitrum", "deposit-mint"): (
        "bfeec4b029380c321265ce17734933ddc4b901549a0e2c0debd2f86961511cb0",
        "1b55fd419918f4c0b128a901f9fa7b95117d6a1d234e4bd46d794084e021c584"),
    ("arbitrum", "false-accuse-noise"): (
        "dbf353261dfc7b396ed7694a97e70c04e355b0899142bab7f166865002df2e95",
        "9ff782ec7180a1b8bcda2cbb8ab50e125b160f6b1e3bcdb41948a10fe7918d1e"),
    ("arbitrum", "fraud-struck"): (
        "2c538a0b3a17d9c9b82e26a131f740485a7c8f5f6340a6bf92331936d76c8931",
        "d628879dad195527eafca2bce325c556f6e473cf9d522a794f8ac2dc89954d94"),
    ("arbitrum", "garbage-triggers"): (
        "b962a5d1c3e87380382d2592773f7c166c19dfd008d02d1d46ca047964eb1fa7",
        "486de29dac6d8e9f2091ab3ee7215603ec6bf7b8b04a7f34f59bbabb5087b0eb"),
    ("arbitrum", "no-pump-delta-flush"): (
        "450396ee648e68ac19624248a0b0042ba1c791db180c9de8d81acbc4d719cfae",
        "b54490253a18c7c8a7cbf53f46023ad8cb61ac3057b8752afeb37e130e350485"),
    ("arbitrum", "open-only"): (
        "d5ac4922d04258ee4a52ae70623b53794214ccff8a05af8618c44fc856ac3634",
        "a629ada8e1aa174b0a245a34929e27c262b51b536ba51379ecb4fdf5c66606bb"),
    ("arbitrum", "overdraft-refused"): (
        "59a70c8103e02bb30ead6424c2b804aee379822bc23782fa830b585d8fff8ffb",
        "d8e7d7e300f1890c95d510aa4c530a3e8d6fe9966c6c1ec72acef4799dc35605"),
    ("arbitrum", "pay-both-directions"): (
        "8ac84d8537d5739bee36ccd1d7b1c072828ee3f1efd492cd9df4cb5a660c4eae",
        "aed9b01622e59d3b4aef0135d83fc16bd9a67bfe2ca7403ab665a0c89cd25582"),
    ("arbitrum", "pay-pipeline"): (
        "65981294754c9cbb513109f365909ec606178edab70220bf6e19d9352dd4ca25",
        "2d3f52e5f101fd3e481aabf9d8dcfe35384f05abfec0b60573516901a58a1240"),
    ("arbitrum", "pay-race-same-step"): (
        "6730f05f3435717af99cb0b55e1c647ea627ba86d376d3566a9accf23549c42d",
        "cdc78b7ecdb1cadafa5215f6e4d9fdb593a8dc5281b0670217aeb79c3c412c07"),
    ("arbitrum", "read-heavy"): (
        "22a3a5247256a738e3a4ec3d5d98e0314e94fc0dfd229fb82847744a3c9f8b4a",
        "24dd1843b4277e6d25331de23894b22e12387d2d795c1c5e680caa10631848ee"),
    ("arbitrum", "self-publish-rescue"): (
        "f9ae0aa76501469852a7ad9d35eb3d153cb223e52521ad1b7c1b815ddbaeab14",
        "948122230fa3e31529664c0cb2c7d49c795013244e9c11ccb88b42a07c6ef873"),
    ("arbitrum", "settle-after-traffic"): (
        "222e0703b8b983ced5a51c008bd2deaa000c2b408e594c7bb395c45b1bc83c71",
        "f0bd87cf19850e878352e1cb1c42881868ba553c28ee13bdf14d73dc695f4dcf"),
    ("arbitrum", "settle-fresh"): (
        "aeca34ed423c1a6242ceb99aa577d403bc8fc0432d694d1fa7eee4272959400c",
        "1af54451a31c4da4099549d36a73de6c266eaa246a4f94957539517d99770d9c"),
    ("arbitrum", "shuffled-delivery"): (
        "6721e402bb9d5bae17d81d8242798689c10d72285a9e51a7b7e50220383a20d0",
        "b816b87394ed3f58c076fe3bda1762e5c166c5dc4fea4db5f4162f1d8a6d6f19"),
    ("arbitrum", "single-pay"): (
        "a1534090259a90b3c124878fbdb0a29256e30a9b9e477cfda1792557aa398984",
        "3559283ba5c14d0289d3f8bc65d5db99451f0be1e25b55d6422f8b08574be6e5"),
    ("arbitrum", "withdraw-exit"): (
        "e71cfe479be47e77c6cc61380fc7c700c4911f4779b9337fe783be61f3eb62e4",
        "dc035cde01ff453b4453627cbb855b13a6df6bb6fb934578cfb62cd3c81d3bdb"),
}

# (protocol, seed, adversarial) -> (schedule, real, ideal) digests
LIFECYCLE = {
    ("brick", 1, False): (
        "7b491486d3a05d4d144d0fb9c415e7e76cb6ca60e444a0c89b7dacc67196fd03",
        "81f0c86215143048cc4d92cc3029bd6bbfe634868840909ee95a04dc017bdeb5",
        "ac5f35cfdb7ad78c4a20da34562c36dda03dac793f2bba3fe3e11a026f05ef8e"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "901043658ae78289d58f6441ae206496c470c4afebbe2023c88a1bb905af62c8",
        "2b9ef0bf4a015647251ab2b943d51610db172c2ff73c8c938d76eb95803037aa"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "a8a2a10f2f733d5604f028a268739a74fa326462a2735f1e58858f5dfa6ed7ee",
        "2f591f68b75e884bd07042c32a46b25f5a01d592d153e75d262c0559ffae0c5f"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "522141dd582fe0724612527bfc6159e486a0c1ca940f21cb40239273c248d8d4",
        "a5e4b7354637525e6ccb5208c3043b59ca86828114a74e5ae05b23cb3e169d80"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "7d98d69f277625ab45c71b46789ec5fae9883f0650ee75ff9db3fca6ac98c35b",
        "23d6a77db26ab71d9d7cd731830cafd3eeebae3f1c9b3e39fd347e29b3f22aa5"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "89e77a2240043fa0d2033dc629327e4e7b3f35c7b0249ab91f0c1164eec2347e",
        "8b9ccfb8fbb6f5197df0c8e25c3d40d2333a85eee6e078d43f4a14e5544f87ec"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "785c161fefdc3b231b58a385d91e49bf65bfa0cf0a60e1c0023ba50153afa208",
        "cd50a99e278a827fa04d584aac2bf1213f915fb36323bb2f1cbdce722c13b5c7"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "e59c6769b9e5110f7f06ad5d8e813fa048bfb385a40e79bfbd30476cce521d5b",
        "2433ee190797a5b0e610546f98f6dfef2331e844285120e8511941c275569a77"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "89f461e7a11d5a6dd52256ebd141d723ee5dd2e9ae31f98bf07753af6f85f56a",
        "057ad75bf883bbba2cdde70a7e0e88b65e869a4d5365e2dc829a77ed0cff4f4e"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "45a49b06597b94cb1c4cf414835b5cda1d90e8a208e2f212830aa0931627c678",
        "046a7e9adb714e9ffa92c9496072eadc28f6ae9e81cf9401468cac0fed196c96"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "a6aec24f775184ab35d9a5a270c998c8b72cf454a70f0e8d5717fa2b19fbca40",
        "3e3375098c3b1945c607ac3259c60ed1dc349a93debaf2c734e9a73044dabc60"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "1947d5c7972b6b20cb799b50e7d2ff6780d6cab19df914adc7dd34621cb60664",
        "50e68859b4259dc4d13bd6636ad10b6b9f12ae4c2614c02538d6cac2521bf536"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "6bb3a44ae312681594745a074f2827dd1c786b5c882094c23ae7dd6fcbd906de",
        "b57e984556ea00083dd1f9022e6482f2d82219d63e7df3de1b8eb803eba9250b"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "6a71e5508a8ad94f09b410f1270f3baf734f47cd7d3c860514298517090fe479",
        "d1fb2b7b4b1dd1a87f5db5ab264708935a9112aeeb55a01863e2b72caa45f2cf"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "2aa17db8007f9e3cb96779ce10650ae88821564bcc00a2ec686877a59886a98e",
        "2891eb0396a705e531faedc75aaaa7f879308bf9cf1ce190ce5aa9416c4446eb"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "85a8a37e343344e6afd2fd60d9c6ae11f8f35ff9793e3a9a0e197610e6826bf3",
        "5fb3f2fcebb67f258d5f153ac47cecbe873b5c42d2731e9f2bec19e1757cf858"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "67a5de18625b996705775707e4a765956ea07b86efefd581120cd8f4f7979e48",
        "12085afcdc18b409f4a465bbc60b898ce0516c9f2ec1331126cedfdfb5afdd79"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "3e487c9277ddb9889bac64a6577ccf98b71b2d51e34683681524748ac5d75bca",
        "001f02f59579ed5026db2b051932fef38601ec4e2fc4b2d11a4187b7c17b55fd"),
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
