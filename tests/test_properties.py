"""Property checks: pinned verdicts, a reference safety check, failing traces.

The verdict table pins, for the real and the ideal trace of every scripted
schedule and of the golden lifecycles (seeds 1-3, ten payments, honest
and adversarial), a sha256 over every check's record and witness.  It was
recorded once, before the checks were reworked to build evidence keys
once per view and to judge liveness from per-view summaries, and is not
regenerated: a change that moves a verdict or a witness has to say why.

``reference_check_safety`` keeps the all-pairs safety check that the
one-pass ``check_safety`` replaced; the two are compared on hand-built
failing traces and on random view sets.  The hand-built liveness and
settlement traces pin the verdicts the checks gave before that rework,
and every failing witness must fail again when checked on its own (one
liveness witness that does not is marked as a known defect).
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from l2sim import harness, properties
from l2sim.core import CLIENT, OPEN, SETTLEMENT, UPDATE
from l2sim.properties import (
    Verdict,
    as_trace,
    check_correct_settlement,
    check_liveness,
    check_safety,
    read_views,
)
from l2sim.trace import canon


def all_checks(name, scn, trace):
    """Every check on one trace, in the order the benchmark runs them."""
    proto = harness.protocol(name)
    f = {role: budget for role, _, budget in proto.party_roles(scn)}
    out = [properties.check_correct_initialization(trace),
           check_safety(trace, f)]
    out += [check_liveness(trace, kind, params)
            for kind, params in proto.liveness_params(scn).items()]
    out.append(check_correct_settlement(trace))
    out.append(properties.measure_data_availability(trace))
    return out


def verdict_digest(checks):
    rows = [[v.to_record(), getattr(v, "witness", None)] for v in checks]
    return hashlib.sha256(canon(rows).encode()).hexdigest()


def witness_digest(v):
    return hashlib.sha256(canon(v.witness).encode()).hexdigest()


# (protocol, schedule label) -> (real, ideal) verdict digests
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "23667ee4516f732d2cdcd557338c18c7361c8011d634a00a2de82dccb449a853",
        "23667ee4516f732d2cdcd557338c18c7361c8011d634a00a2de82dccb449a853"),
    ("brick", "garbage-triggers"): (
        "d97b3f4ab97059a68cf7023b0a4734b9b20122debd785fb24a2208e5f989c493",
        "d97b3f4ab97059a68cf7023b0a4734b9b20122debd785fb24a2208e5f989c493"),
    ("brick", "no-pump-delta-flush"): (
        "d97b3f4ab97059a68cf7023b0a4734b9b20122debd785fb24a2208e5f989c493",
        "d97b3f4ab97059a68cf7023b0a4734b9b20122debd785fb24a2208e5f989c493"),
    ("brick", "open-only"): (
        "6d1d675f9be7510fe935ddeba48d8db09f0b24b2b15b6b75a72f0a4e7bc44a9d",
        "6d1d675f9be7510fe935ddeba48d8db09f0b24b2b15b6b75a72f0a4e7bc44a9d"),
    ("brick", "overdraft-refused"): (
        "fa0878ab4e0ff65c65c0378368340f792bec9fab2edd4d4a8f8a69e03e76f5d2",
        "850d84537ed9ec6882cb6eb06bd0e5d75690db8610d0a278d058bd15ab1b01a8"),
    ("brick", "pay-both-directions"): (
        "8086d1b4a4ed0267eb57a21fa252d9509c4c385215b1265dc6fad4819d57ec34",
        "8086d1b4a4ed0267eb57a21fa252d9509c4c385215b1265dc6fad4819d57ec34"),
    ("brick", "pay-pipeline"): (
        "c59ca8abf9bed9d2c3047e4400653871755e7c09288caabefdf3906b38a56eb7",
        "c59ca8abf9bed9d2c3047e4400653871755e7c09288caabefdf3906b38a56eb7"),
    ("brick", "pay-race-same-step"): (
        "8086d1b4a4ed0267eb57a21fa252d9509c4c385215b1265dc6fad4819d57ec34",
        "8086d1b4a4ed0267eb57a21fa252d9509c4c385215b1265dc6fad4819d57ec34"),
    ("brick", "read-heavy"): (
        "f4e9e4094fdc383eaaa9848e94269d8b14f15703075e64920e70176cc05548fd",
        "f4e9e4094fdc383eaaa9848e94269d8b14f15703075e64920e70176cc05548fd"),
    ("brick", "settle-after-traffic"): (
        "139c884c177754b49629ff2a5c351b30af39acc6eab9ae36c195cae907ee90f3",
        "139c884c177754b49629ff2a5c351b30af39acc6eab9ae36c195cae907ee90f3"),
    ("brick", "settle-fresh"): (
        "922f9e89be486c1fd6b3a8d74a65c76d00739d3b51376db8272e68e1ab10bf93",
        "922f9e89be486c1fd6b3a8d74a65c76d00739d3b51376db8272e68e1ab10bf93"),
    ("brick", "shuffled-delivery"): (
        "a8270785e83c2e511cc963b8ea32e56e7962b56a867a98c631819929eea70d25",
        "a8270785e83c2e511cc963b8ea32e56e7962b56a867a98c631819929eea70d25"),
    ("brick", "single-pay"): (
        "d97b3f4ab97059a68cf7023b0a4734b9b20122debd785fb24a2208e5f989c493",
        "d97b3f4ab97059a68cf7023b0a4734b9b20122debd785fb24a2208e5f989c493"),
    ("brick", "stale-settle-attempt"): (
        "80528c79660b9f0f4ef91fa4ffa9f8e58e0a0f5ac23479a23af167279557e78b",
        "80528c79660b9f0f4ef91fa4ffa9f8e58e0a0f5ac23479a23af167279557e78b"),
    ("brick", "unilateral-exit"): (
        "2537c626c02bd2894e0b4425dcca0597bd4d6af55b8458d8995d75f64fdb82d4",
        "2537c626c02bd2894e0b4425dcca0597bd4d6af55b8458d8995d75f64fdb82d4"),
    ("liquid", "client-spam"): (
        "a55f12f2df87d4fce4f282fbeca3f20fce67b9857c5e1a08053eacc73f7603d4",
        "a55f12f2df87d4fce4f282fbeca3f20fce67b9857c5e1a08053eacc73f7603d4"),
    ("liquid", "corrupt-operator-rotation"): (
        "6d3b01722fe32d0902483404dc6b446c0bf5c9aa5cca60c67395d15774c71616",
        "6d3b01722fe32d0902483404dc6b446c0bf5c9aa5cca60c67395d15774c71616"),
    ("liquid", "deposit-mint"): (
        "91db962dc4fe5f96697c4989be2f0c6f33728e5249fb0ca9551c04828d6b956b",
        "91db962dc4fe5f96697c4989be2f0c6f33728e5249fb0ca9551c04828d6b956b"),
    ("liquid", "deposit-then-withdraw"): (
        "be4221f00bdb3f548672e32de0c34df23688090f0110ba8e285aea5beb65bb0a",
        "125254612f825ba5c4af7e9cdeb3ae12db405ab19c88d8b42450f98b66cfe326"),
    ("liquid", "garbage-triggers"): (
        "3b42444c18b91e022f1516f31b9a71fa054a0d77ed2e8f1935da282822b2b669",
        "3b42444c18b91e022f1516f31b9a71fa054a0d77ed2e8f1935da282822b2b669"),
    ("liquid", "no-pump-delta-flush"): (
        "3b42444c18b91e022f1516f31b9a71fa054a0d77ed2e8f1935da282822b2b669",
        "3b42444c18b91e022f1516f31b9a71fa054a0d77ed2e8f1935da282822b2b669"),
    ("liquid", "open-only"): (
        "0a3f5f541249b4cc52aaf6b499c93c44ee4297d002c266bb504dca6202d52f7c",
        "0a3f5f541249b4cc52aaf6b499c93c44ee4297d002c266bb504dca6202d52f7c"),
    ("liquid", "operator-menu-noise"): (
        "2b87f4f3c3d5fbef15663cdeba32afe5019f485a9a5eee8393e0527b22a81ec3",
        "2b87f4f3c3d5fbef15663cdeba32afe5019f485a9a5eee8393e0527b22a81ec3"),
    ("liquid", "overdraft-refused"): (
        "df85a466b6a4c1b142df51599b9a68825a3482b257f781d47e572ef903ea10d2",
        "df85a466b6a4c1b142df51599b9a68825a3482b257f781d47e572ef903ea10d2"),
    ("liquid", "pay-both-directions"): (
        "80dfd00168e56762008e10b3bc900f0bd1b715fb58ed21c5985043bdb26d9047",
        "80dfd00168e56762008e10b3bc900f0bd1b715fb58ed21c5985043bdb26d9047"),
    ("liquid", "pay-pipeline"): (
        "e7d1e15916a0bca0d705f010c38ccea36c1c14a94c4ef66ae7ef0a504157a3b0",
        "e7d1e15916a0bca0d705f010c38ccea36c1c14a94c4ef66ae7ef0a504157a3b0"),
    ("liquid", "pay-race-same-step"): (
        "80dfd00168e56762008e10b3bc900f0bd1b715fb58ed21c5985043bdb26d9047",
        "80dfd00168e56762008e10b3bc900f0bd1b715fb58ed21c5985043bdb26d9047"),
    ("liquid", "read-heavy"): (
        "a3c887e904e709ebe66b78a92003e0cc421a72facffacd0c3e1359d0b874a763",
        "a3c887e904e709ebe66b78a92003e0cc421a72facffacd0c3e1359d0b874a763"),
    ("liquid", "settle-after-traffic"): (
        "f23d4d3c72a733fda434755c6fb5d11c8fc4833daf0438189506bd4683fefbeb",
        "f23d4d3c72a733fda434755c6fb5d11c8fc4833daf0438189506bd4683fefbeb"),
    ("liquid", "settle-fresh"): (
        "ec24b3ec88ebf56ffec4914f49faaf8e4883f962dca5bb7cc1a0855d8d0257f6",
        "ec24b3ec88ebf56ffec4914f49faaf8e4883f962dca5bb7cc1a0855d8d0257f6"),
    ("liquid", "shuffled-delivery"): (
        "c6726d6c9945590d4ac7e13cd129329cf90bd1f8744b58f13a57b4fae43b0362",
        "c6726d6c9945590d4ac7e13cd129329cf90bd1f8744b58f13a57b4fae43b0362"),
    ("liquid", "single-pay"): (
        "3b42444c18b91e022f1516f31b9a71fa054a0d77ed2e8f1935da282822b2b669",
        "3b42444c18b91e022f1516f31b9a71fa054a0d77ed2e8f1935da282822b2b669"),
    ("arbitrum", "deposit-mint"): (
        "adf63e7dd779244bc79c9dfa0319890354d19dbe05250ada9655a1afbf783495",
        "adf63e7dd779244bc79c9dfa0319890354d19dbe05250ada9655a1afbf783495"),
    ("arbitrum", "false-accuse-noise"): (
        "485e7e9b240300358748a7bb551570b7c4a613d88c1a8a113313e21775c1c443",
        "485e7e9b240300358748a7bb551570b7c4a613d88c1a8a113313e21775c1c443"),
    ("arbitrum", "fraud-struck"): (
        "4078de60fcdbc24e5ea800ec3aa2de75f15735ecc41e810d3a3d515cf75a2075",
        "4078de60fcdbc24e5ea800ec3aa2de75f15735ecc41e810d3a3d515cf75a2075"),
    ("arbitrum", "garbage-triggers"): (
        "f00d122894f687a1efdc04cf454c8b1636ddeb997f8de14416a181c5dafafe44",
        "f00d122894f687a1efdc04cf454c8b1636ddeb997f8de14416a181c5dafafe44"),
    ("arbitrum", "no-pump-delta-flush"): (
        "a54de996b55180557217fb509b55b591e14f5915cd622a3f30212cf79b07a671",
        "a54de996b55180557217fb509b55b591e14f5915cd622a3f30212cf79b07a671"),
    ("arbitrum", "open-only"): (
        "c7d599371176a08c7518a0d334f690c45a0f63305c2bcd4932431ba1b49fe330",
        "c7d599371176a08c7518a0d334f690c45a0f63305c2bcd4932431ba1b49fe330"),
    ("arbitrum", "overdraft-refused"): (
        "180996967576605e6120a01f0f4cec500e2c274a41df68d021ca0f3775ccb1ad",
        "180996967576605e6120a01f0f4cec500e2c274a41df68d021ca0f3775ccb1ad"),
    ("arbitrum", "pay-both-directions"): (
        "18a12a01db80c820a3e7b330c3fe27424677825e9c4d3cba48ed1cd924ab9ce5",
        "18a12a01db80c820a3e7b330c3fe27424677825e9c4d3cba48ed1cd924ab9ce5"),
    ("arbitrum", "pay-pipeline"): (
        "1ec51cf1188cb873f46162e0a449a7a36c1064c6f765d3dbf65e22d9cd6ceb66",
        "1ec51cf1188cb873f46162e0a449a7a36c1064c6f765d3dbf65e22d9cd6ceb66"),
    ("arbitrum", "pay-race-same-step"): (
        "18a12a01db80c820a3e7b330c3fe27424677825e9c4d3cba48ed1cd924ab9ce5",
        "18a12a01db80c820a3e7b330c3fe27424677825e9c4d3cba48ed1cd924ab9ce5"),
    ("arbitrum", "read-heavy"): (
        "af365b3bd73ae9888d2395cab5a340b0b0119be24a9b3dadc8a22d55bae3a882",
        "af365b3bd73ae9888d2395cab5a340b0b0119be24a9b3dadc8a22d55bae3a882"),
    ("arbitrum", "self-publish-rescue"): (
        "4f7239446b2cc1fa7bc360dd998e15762f34f8139b7050b24ad6ca50f4fcece4",
        "4f7239446b2cc1fa7bc360dd998e15762f34f8139b7050b24ad6ca50f4fcece4"),
    ("arbitrum", "settle-after-traffic"): (
        "cc68beb7485d671b204436f429d9231365cb994e5914265a4ff5a5e3ae5e6165",
        "cc68beb7485d671b204436f429d9231365cb994e5914265a4ff5a5e3ae5e6165"),
    ("arbitrum", "settle-fresh"): (
        "f4a5fb5050b5c6bdffc4c002f729124610ce4e5feb966b5aff64e36d9a92bd8e",
        "f4a5fb5050b5c6bdffc4c002f729124610ce4e5feb966b5aff64e36d9a92bd8e"),
    ("arbitrum", "shuffled-delivery"): (
        "ed5ae3dca4259af2f4cd0de93c6ce73d987a5b14377739e701eb161bfc8e5b6a",
        "ed5ae3dca4259af2f4cd0de93c6ce73d987a5b14377739e701eb161bfc8e5b6a"),
    ("arbitrum", "single-pay"): (
        "39bd7b8b6d2cbdb765b2b28f5f2d864c4cb8d138d749d8a68e384e90695f2ee7",
        "39bd7b8b6d2cbdb765b2b28f5f2d864c4cb8d138d749d8a68e384e90695f2ee7"),
    ("arbitrum", "withdraw-exit"): (
        "cc68beb7485d671b204436f429d9231365cb994e5914265a4ff5a5e3ae5e6165",
        "cc68beb7485d671b204436f429d9231365cb994e5914265a4ff5a5e3ae5e6165"),
}

# (protocol, seed, adversarial) -> (real, ideal) verdict digests
LIFECYCLE = {
    ("brick", 1, False): (
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388",
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388"),
    ("brick", 1, True): (
        "8282a3b40dee297ccfd23c6b87d4273902f93ca8799786c629ad1fa403ff4121",
        "8282a3b40dee297ccfd23c6b87d4273902f93ca8799786c629ad1fa403ff4121"),
    ("brick", 2, False): (
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388",
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388"),
    ("brick", 2, True): (
        "8282a3b40dee297ccfd23c6b87d4273902f93ca8799786c629ad1fa403ff4121",
        "8282a3b40dee297ccfd23c6b87d4273902f93ca8799786c629ad1fa403ff4121"),
    ("brick", 3, False): (
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388",
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388"),
    ("brick", 3, True): (
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388",
        "83c1276dd1734a05a0671a6eaddbcd8ee769d2689802f19cca8f148a7a48e388"),
    ("liquid", 1, False): (
        "6d02b75238fc52a74de1d80b1f27bfbf79767a4d865ebb13f80c2c5fb55cc051",
        "6d02b75238fc52a74de1d80b1f27bfbf79767a4d865ebb13f80c2c5fb55cc051"),
    ("liquid", 1, True): (
        "ba9afd03874c1c671a79dae418b30873094b214121bcb08d8cf2341e554ef158",
        "ba9afd03874c1c671a79dae418b30873094b214121bcb08d8cf2341e554ef158"),
    ("liquid", 2, False): (
        "df3f49d4b6cfcfb8e7d8ab10d97467c90918da0af142e97661db3a51e49801de",
        "df3f49d4b6cfcfb8e7d8ab10d97467c90918da0af142e97661db3a51e49801de"),
    ("liquid", 2, True): (
        "ba9afd03874c1c671a79dae418b30873094b214121bcb08d8cf2341e554ef158",
        "ba9afd03874c1c671a79dae418b30873094b214121bcb08d8cf2341e554ef158"),
    ("liquid", 3, False): (
        "02a0799c767756bfd614e1aa672b46020df3cbfe67106d1e7d7aa25f34cb36ae",
        "02a0799c767756bfd614e1aa672b46020df3cbfe67106d1e7d7aa25f34cb36ae"),
    ("liquid", 3, True): (
        "df3f49d4b6cfcfb8e7d8ab10d97467c90918da0af142e97661db3a51e49801de",
        "df3f49d4b6cfcfb8e7d8ab10d97467c90918da0af142e97661db3a51e49801de"),
    ("arbitrum", 1, False): (
        "d75002d5971db25715262c0edea4d25e74e6c8ff7b3a6711a8bfaddb1c6a5200",
        "d75002d5971db25715262c0edea4d25e74e6c8ff7b3a6711a8bfaddb1c6a5200"),
    ("arbitrum", 1, True): (
        "fa7d4b730a1ab2dc2122826987d05674c2e671a80c68f4f6299f636aee380113",
        "fa7d4b730a1ab2dc2122826987d05674c2e671a80c68f4f6299f636aee380113"),
    ("arbitrum", 2, False): (
        "fda81020717a541063783a209950405e4cab2fc272c410435db7f4a955d25543",
        "fda81020717a541063783a209950405e4cab2fc272c410435db7f4a955d25543"),
    ("arbitrum", 2, True): (
        "8643c0b6a258fe0fd66b545bfc7d4038574a6955424042234a7aebae1e7cb272",
        "8643c0b6a258fe0fd66b545bfc7d4038574a6955424042234a7aebae1e7cb272"),
    ("arbitrum", 3, False): (
        "0fe7d23ba833a30073f69cd9f324c5b797d529452545b2f4628438a929cbeb1d",
        "0fe7d23ba833a30073f69cd9f324c5b797d529452545b2f4628438a929cbeb1d"),
    ("arbitrum", 3, True): (
        "0faa109bcdacf2b64b41770d514dd5f08d4fea1370a265962c7bcab56139f78f",
        "0faa109bcdacf2b64b41770d514dd5f08d4fea1370a265962c7bcab56139f78f"),
}


def verdict_digests(name, scn, schedule):
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    return (verdict_digest(all_checks(name, scn, real.trace)),
            verdict_digest(all_checks(name, scn, ideal.trace)))


def test_verdict_table_covers_every_scripted_schedule():
    labels = {(name, label) for name, proto in harness.PROTOCOLS.items()
              for label in harness.scripted_schedules(
                  name, proto.canonical_scenario())}
    assert labels == set(SCRIPTED)


@pytest.mark.parametrize("name, label", list(SCRIPTED))
def test_scripted_verdicts(name, label):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.scripted_schedules(name, scn)[label]
    assert verdict_digests(name, scn, schedule) == SCRIPTED[name, label]


@pytest.mark.parametrize("name, seed, adversarial", list(LIFECYCLE))
def test_lifecycle_verdicts(name, seed, adversarial):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, seed, pays=10,
                                          adversarial=adversarial)
    assert verdict_digests(name, scn, schedule) == \
        LIFECYCLE[name, seed, adversarial]


# -- the all-pairs safety check, kept as the reference -----------------------


def reference_is_prefix(shorter, longer):
    def key(e):
        return (e.get("kind"), e.get("seq"), canon(e.get("state")))
    keys_a = [key(e) for e in shorter]
    keys_b = [key(e) for e in longer]
    return keys_b[:len(keys_a)] == keys_a


def reference_check_safety(trace, f) -> Verdict:
    name = "safety"
    counts = properties.corruption_counts(trace)
    if not properties._within(f, counts):
        return Verdict(name, True, vacuous=True,
                       params={"f": f, "corrupted": counts,
                               "reason": "corruptions-exceed-f"})
    views = read_views(trace)
    by_party = {}
    for v in views:
        by_party.setdefault(v.party, []).append(v)
    for party, vs in by_party.items():
        vs.sort(key=lambda v: (v.round, v.step))
        for a, b in zip(vs, vs[1:]):
            if not reference_is_prefix(a.executed, b.executed):
                return Verdict(name, False,
                               witness=[properties._view_event(a),
                                        properties._view_event(b)],
                               params={"clause": "self-consistency",
                                       "party": party, "f": f})
    flat = sorted(views, key=lambda v: (v.round, v.step))
    for i, a in enumerate(flat):
        for b in flat[i + 1:]:
            if a.party == b.party:
                continue
            if not (reference_is_prefix(a.executed, b.executed)
                    or reference_is_prefix(b.executed, a.executed)):
                return Verdict(name, False,
                               witness=[properties._view_event(a),
                                        properties._view_event(b)],
                               params={"clause": "view-consistency",
                                       "parties": [a.party, b.party], "f": f})
    return Verdict(name, True, params={"f": f, "views": len(views)},
                   vacuous=not views)


# -- hand-built traces -------------------------------------------------------

A, B, C, D = (f"{CLIENT}:{p}" for p in "ABCD")


def event(t, party, rnd, step, **fields):
    return {"t": t, "party": party, "round": rnd, "step": step, **fields}


def read(party, rnd, step, executed):
    state = executed[-1]["state"] if executed else None
    return event("output", party, rnd, step,
                 payload={"kind": "read-result", "state": state,
                          "pointer": len(executed), "executed": executed})


def corrupt(party, rnd, step):
    return event("corrupt", party, rnd, step)


# entries shared between views, as read results share them in real runs
LETTERS = {c: {"kind": UPDATE, "seq": i, "state": {"seq": i, "tag": c}}
           for i, c in enumerate("oxyzw")}


def chain(text):
    return [LETTERS[c] for c in text]


SAFETY_CASES = {
    "self-consistency-break": (
        [read(A, 1, 1, chain("ox")), read(B, 1, 2, chain("o")),
         read(A, 2, 3, chain("oy"))], {CLIENT: 0}),
    "first-failing-pair-avoids-longest": (
        [read(A, 1, 1, chain("ox")), read(B, 2, 2, chain("oy")),
         read(C, 3, 3, chain("oyzw"))], {CLIENT: 0}),
    "equal-length-divergent-longest": (
        [read(A, 1, 1, chain("o")), read(B, 2, 2, chain("oxz")),
         read(C, 2, 3, chain("oyz"))], {CLIENT: 0}),
    "same-party-views-skipped": (
        [read(A, 1, 1, chain("o")), read(B, 1, 2, chain("ox")),
         read(A, 2, 3, chain("ox")), read(A, 3, 4, chain("oxyz")),
         read(B, 4, 5, chain("oxy"))], {CLIENT: 0}),
    "corruptions-over-f": (
        [corrupt(B, 1, 1), read(A, 2, 2, chain("ox")),
         read(B, 2, 3, chain("oy"))], {CLIENT: 0}),
    "corrupted-reader-ignored": (
        [corrupt(B, 1, 1), read(A, 2, 2, chain("ox")),
         read(B, 2, 3, chain("oy"))], {CLIENT: 1}),
    "no-views": ([], {CLIENT: 0}),
}

# label -> (passed, vacuous, clause, parties of the failing pair)
SAFETY_EXPECTED = {
    "self-consistency-break": (False, False, "self-consistency", None),
    "first-failing-pair-avoids-longest": (
        False, False, "view-consistency", [A, B]),
    "equal-length-divergent-longest": (
        False, False, "view-consistency", [B, C]),
    "same-party-views-skipped": (True, False, None, None),
    "corruptions-over-f": (True, True, None, None),
    "corrupted-reader-ignored": (True, False, None, None),
    "no-views": (True, True, None, None),
}


def assert_same_verdict(got, want):
    assert got.to_record() == want.to_record()
    assert canon(got.witness) == canon(want.witness)


@pytest.mark.parametrize("label", list(SAFETY_CASES))
def test_safety_matches_reference(label):
    events, f = SAFETY_CASES[label]
    trace = as_trace(events)
    got = check_safety(trace, f)
    assert_same_verdict(got, reference_check_safety(trace, f))
    assert (got.passed, got.vacuous, got.params.get("clause"),
            got.params.get("parties")) == SAFETY_EXPECTED[label]
    if not got.passed:
        assert not check_safety(as_trace(got.witness), f).passed


class CanonCounter:
    def __init__(self):
        self.calls = 0

    def __call__(self, obj):
        self.calls += 1
        return canon(obj)


def distinct_states(trace):
    return len({id(e.get("state"))
                for v in read_views(trace) for e in v.executed})


STATE_POOL = [None] + [{"seq": i, "tag": t} for i in range(2) for t in "ab"]


@st.composite
def view_sets(draw):
    """Reads of 2-4 parties over a small entry alphabet, rounds shuffled.

    Each party reads growing prefixes of its own branch of one base
    history, and now and then a view with a stray tail, so passing sets,
    self-consistency breaks and cross-party forks all occur.
    """
    alphabet = st.builds(
        lambda kind, seq, state: {"kind": kind, "seq": seq,
                                  "state": STATE_POOL[state]},
        st.sampled_from([OPEN, UPDATE]), st.integers(0, 2),
        st.integers(0, len(STATE_POOL) - 1))
    parties = [f"{CLIENT}:p{i}" for i in range(draw(st.integers(2, 4)))]
    base = draw(st.lists(alphabet, max_size=4))
    branches = {p: base + draw(st.lists(alphabet, max_size=3))
                for p in parties}
    reads = [(draw(st.sampled_from(parties)), draw(st.integers(0, 4)), step)
             for step in range(draw(st.integers(2, 8)))]
    cuts = {}
    events = []
    for party, rnd, step in sorted(reads, key=lambda r: (r[1], r[2])):
        cuts[party] = draw(st.integers(cuts.get(party, 0),
                                       len(branches[party])))
        executed = branches[party][:cuts[party]]
        if draw(st.integers(0, 9)) == 0:
            executed = executed + draw(st.lists(alphabet, min_size=1,
                                                max_size=2))
        events.append(read(party, rnd, step, executed))
    events = draw(st.permutations(events))
    bad = draw(st.lists(st.sampled_from(parties), max_size=1))
    events = [corrupt(p, 0, -1) for p in bad] + list(events)
    return events, {CLIENT: draw(st.integers(0, 2))}


@settings(max_examples=300, deadline=None)
@given(view_sets())
def test_safety_matches_reference_on_random_views(case):
    events, f = case
    trace = as_trace(events)
    counter = CanonCounter()
    saved = properties.canon
    properties.canon = counter
    try:
        got = check_safety(trace, f)
    finally:
        properties.canon = saved
    assert_same_verdict(got, reference_check_safety(trace, f))
    assert counter.calls <= distinct_states(trace) + 1
    if not got.passed:
        assert not check_safety(as_trace(got.witness), f).passed


# -- liveness and settlement on failing traces ------------------------------

LIVE = {"f": {CLIENT: 0}, "t_l2": 4, "t_l1": 2}       # deadline: round + 6


def entry(seq, txs=()):
    return {"kind": UPDATE, "seq": seq, "state": {"seq": seq},
            "txs": list(txs)}


GENESIS = {"kind": OPEN, "seq": 0, "state": {"seq": 0}}
PAY_B = {"op": "pay", "from": "B", "to": "C", "amt": 1, "nonce": 1}
MINT_A = {"op": "mint", "to": "A", "amt": 5, "ref": "dep-1"}


def horizon(rnd):
    return event("note", D, rnd, 99, kind="tick")


def inp(party, rnd, step, **payload):
    return event("input", party, rnd, step, payload=payload)


def note(party, rnd, step, kind, **fields):
    return event("note", party, rnd, step, kind=kind, **fields)


def out(party, rnd, step, **payload):
    return event("output", party, rnd, step, payload=payload)


def commit(rnd, step, kind):
    return [event("ledger-submit", "chain", rnd, step, accepted=True,
                  txid=f"tx-{kind}", kind=kind, author=A, body={}),
            event("ledger-commit", "chain", rnd, step, height=1,
                  txids=[f"tx-{kind}"])]


# label -> (check kind, events)
LIVENESS_CASES = {
    "deposit-never-minted": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        read(B, 3, 2, [GENESIS, entry(1, [PAY_B])]),
        read(B, 8, 3, [GENESIS, entry(1, [PAY_B]), entry(2, [MINT_A])]),
        horizon(20)]),
    "deposit-minted-at-deadline": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        read(B, 7, 2, [GENESIS, entry(1, [MINT_A])]),
        horizon(20)]),
    "second-deposit-needs-second-mint": (UPDATE, [
        inp(A, 1, 1, kind="deposit", amt=5),
        inp(A, 2, 2, kind="deposit", amt=5),
        read(B, 4, 3, [GENESIS, entry(1, [MINT_A])]),
        horizon(20)]),
    "queued-pay-nonce-missing": (UPDATE, [
        inp(B, 1, 1, kind="pay", to="C", amt=1),
        note(B, 1, 2, "request-queued", req="pay", nonce=2),
        read(C, 4, 3, [GENESIS, entry(1, [PAY_B])]),
        horizon(20)]),
    "queued-pay-nonce-seen": (UPDATE, [
        inp(B, 1, 1, kind="pay", to="C", amt=1),
        note(B, 1, 2, "request-queued", req="pay", nonce=1),
        read(C, 4, 3, [GENESIS, entry(1, [PAY_B])]),
        horizon(20)]),
    "kth-update-missing": (UPDATE, [
        inp(A, 1, 1, kind="pay", amt=1),
        note(A, 1, 2, "request-queued", req="pay", seq=1),
        inp(A, 2, 3, kind="pay", amt=1),
        note(A, 2, 4, "request-queued", req="pay", seq=2),
        read(B, 5, 5, [GENESIS, entry(1)]),
        read(B, 9, 6, [GENESIS, entry(1), entry(2)]),
        horizon(20)]),
    "pay-never-sent": (UPDATE, [
        inp(A, 1, 1, kind="pay", amt=1),
        read(B, 5, 2, [GENESIS, entry(1)]),
        horizon(20)]),
    "open-without-open-ok": (OPEN, [
        inp(A, 1, 1, kind="open"),
        out(A, 9, 2, kind="open-ok", state={"seq": 0}),
        horizon(20)]),
    "open-confirmed": (OPEN, [
        inp(A, 1, 1, kind="open"),
        out(A, 7, 2, kind="open-ok", state={"seq": 0}),
        horizon(20)]),
    "settle-confirmed-before-request": (SETTLEMENT, [
        out(A, 1, 1, kind="settle-ok", state={"seq": 0}),
        inp(A, 2, 2, kind="settle"),
        horizon(20)]),
    "exec-clears-rid-late": (UPDATE, [
        event("leak", "funct", 1, 1,
              data={"kind": "submit",
                    "req": {"by": "A", "kind": UPDATE, "rid": 7, "round": 1,
                            "body": {"kind": "pay"}}}),
        event("exec", "funct", 3, 2, kind=UPDATE, seq=1, rids=[6]),
        event("exec", "funct", 8, 3, kind=UPDATE, seq=2, rids=[7]),
        horizon(20)]),
}

# label -> (record, witness sha256) as the checks gave them before the
# one-pass rework
LIVENESS_EXPECTED = {
    "deposit-never-minted": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "c0ffd41464ee1632320d76349912cf7591a900e51f811895678b7e207fa8efb1"),
    "deposit-minted-at-deadline": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": True,
         "vacuous": False,
         "params": {"kind": "update",
                    "judged": 1,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "second-deposit-needs-second-mint": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "83f1263648a29bd8ce16fc003f9656d394989e9c560abf6ebced49cfbc3ce551"),
    "queued-pay-nonce-missing": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "B",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "592a3e5fccc81e428edfd5b1fd113a918d73ee94c1df9f73dd250fcef222371a"),
    "queued-pay-nonce-seen": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": True,
         "vacuous": False,
         "params": {"kind": "update",
                    "judged": 1,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "kth-update-missing": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "ff8a0cdb81fb51391f2eed73cebd3a95630431e14250692020e0771b1e0708e0"),
    "pay-never-sent": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 3},
        "6215493c1d2cf77ab3811ba79808aed3d39845d2ece52dbbc12c87ef48ec94ad"),
    "open-without-open-ok": (
        {"record": "verdict",
         "property": "liveness-open",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "open",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 2},
        "97bb55b21841186d0157b5a8a93972a3a76dc1b397920a06106825058f6ab4ee"),
    "open-confirmed": (
        {"record": "verdict",
         "property": "liveness-open",
         "pass": True,
         "vacuous": False,
         "params": {"kind": "open",
                    "judged": 1,
                    "beyond_horizon": 0,
                    "f": {"client": 0}},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "settle-confirmed-before-request": (
        {"record": "verdict",
         "property": "liveness-settlement",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "settlement",
                    "pid": "A",
                    "submit_round": 2,
                    "deadline": 8,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 2},
        "98796b6f20fc09c0e52955540ac0d99f57b7d4e672da26dc8938cc045279b67e"),
    "exec-clears-rid-late": (
        {"record": "verdict",
         "property": "liveness-update",
         "pass": False,
         "vacuous": False,
         "params": {"kind": "update",
                    "pid": "A",
                    "submit_round": 1,
                    "deadline": 7,
                    "t_l2": 4,
                    "t_l1": 2},
         "witness_len": 2},
        "ce3e7525b01d2da9df2675b88fbc58ffb7dbcb1b2c9ed0f73be790c682599185"),
}


@pytest.mark.parametrize("label", list(LIVENESS_CASES))
def test_liveness_on_hand_built_traces(label):
    kind, events = LIVENESS_CASES[label]
    v = check_liveness(as_trace(events), kind, LIVE)
    record, witness = LIVENESS_EXPECTED[label]
    assert v.to_record() == record
    assert witness_digest(v) == witness


def replay_cases():
    for label, (kind, events) in LIVENESS_CASES.items():
        if LIVENESS_EXPECTED[label][0]["pass"]:
            continue
        marks = ()
        if label == "second-deposit-needs-second-mint":
            # the witness keeps only the failing deposit, so on its own it
            # waits for one mint, which the window holds
            marks = pytest.mark.xfail(strict=True,
                                      reason="witness drops earlier deposits")
        yield pytest.param(label, marks=marks)


@pytest.mark.parametrize("label", replay_cases())
def test_liveness_witness_replays(label):
    kind, events = LIVENESS_CASES[label]
    v = check_liveness(as_trace(events), kind, LIVE)
    assert not check_liveness(as_trace(v.witness), kind, LIVE).passed


def stale_view():
    return read(B, 3, 1, [GENESIS, entry(1), entry(2)])


SETTLEMENT_CASES = {
    "stale-settlement": [
        stale_view(), out(A, 5, 2, kind="settle-ok", state={"seq": 1}),
        *commit(5, 3, "settle")],
    "stale-but-explicit-anchor": [
        stale_view(), inp(A, 4, 2, kind="settle", seq=1),
        out(A, 5, 3, kind="settle-ok", state={"seq": 1}),
        *commit(5, 4, "settle")],
    "fresh-settlement": [
        stale_view(), out(A, 5, 2, kind="settle-ok", state={"seq": 2}),
        *commit(5, 3, "peg-out")],
    "no-close-record-on-chain": [
        stale_view(), out(A, 5, 2, kind="settle-ok", state={"seq": 2}),
        *commit(5, 3, "deposit")],
    "later-view-not-counted": [
        out(A, 2, 1, kind="settle-ok", state={"seq": 1}), stale_view(),
        *commit(2, 2, "settle")],
}

SETTLEMENT_EXPECTED = {
    "stale-settlement": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": False,
         "vacuous": False,
         "params": {"settled_at": 1, "latest_known": 2},
         "witness_len": 2},
        "25f5a6c36330bb895851c9e08b26c4c8101e23e3fe21fe61c9f4aa1b71a7234a"),
    "stale-but-explicit-anchor": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": True,
         "vacuous": False,
         "params": {"settlements": 1},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "fresh-settlement": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": True,
         "vacuous": False,
         "params": {"settlements": 1},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "no-close-record-on-chain": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": False,
         "vacuous": False,
         "params": {"reason": "no-close-record-on-chain"},
         "witness_len": 1},
        "e41018df82d1be844d21e1c55f581426f54a1038183e3e914af1566984847420"),
    "later-view-not-counted": (
        {"record": "verdict",
         "property": "correct-settlement",
         "pass": True,
         "vacuous": False,
         "params": {"settlements": 1},
         "witness_len": 0},
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
}


@pytest.mark.parametrize("label", list(SETTLEMENT_CASES))
def test_settlement_on_hand_built_traces(label):
    v = check_correct_settlement(as_trace(SETTLEMENT_CASES[label]))
    record, witness = SETTLEMENT_EXPECTED[label]
    assert v.to_record() == record
    assert witness_digest(v) == witness
    if not v.passed:
        assert not check_correct_settlement(as_trace(v.witness)).passed
