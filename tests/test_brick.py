"""Channel protocol: real machines, ledger checks, and the ideal bundle."""

import pytest

from l2sim.runtime import Ctx, World, EntityId
from l2sim.base import CertRegistry, Ledger, make_tx, tx_signable
from l2sim.core import (OPEN, UPDATE, SETTLEMENT, CLIENT, INTERFACE_ROLE,
                        InternalState, open_record)
from l2sim import brick
from l2sim.properties import read_views

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def make_world(scn=None):
    scn = scn or brick.canonical_scenario()
    w = World("chan", dict(TIMING))
    w.certs = CertRegistry()
    w.ledger = Ledger(TIMING)
    w.ledger.bind(w)
    brick.build_real(w, scn)
    return w, scn


def pump(world):
    while world.pending_net():
        world.deliver_net(min(e.eid for e in world.pending_net()))


def rounds(world, k=1):
    for _ in range(k):
        pump(world)
        world.advance_round()
        pump(world)


def client(world, pid):
    return world.machines[EntityId(pid, world.sid, CLIENT)]


def warden(world, pid):
    return world.machines[EntityId(pid, world.sid, brick.WARDEN)]


def outputs(world, kind=None):
    out = [e for e in world.trace.events if e.get("t") == "output"]
    if kind:
        out = [e for e in out if e["payload"].get("kind") == kind]
    return out


def notes(world, kind):
    return [e for e in world.trace.events
            if e.get("t") == "note" and e.get("kind") == kind]


def open_channel(world):
    for pid in ("c1", "c2"):
        world.inject_input(world.entity(CLIENT, pid), {"kind": "open"})
    rounds(world, 2)


def pay(world, frm, to, amt, settle_rounds=1):
    world.inject_input(world.entity(CLIENT, frm),
                       {"kind": "pay", "to": to, "amt": amt})
    pump(world)
    rounds(world, settle_rounds)


def test_open_needs_both_clients():
    world, scn = make_world()
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "open"})
    rounds(world, 3)
    assert outputs(world, "open-ok") == []
    assert client(world, "c1").phase == "opening"


def test_open_completes_with_all_collateral():
    world, scn = make_world()
    open_channel(world)
    oks = outputs(world, "open-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    s0 = brick.initial_state(scn["collateral"])
    assert all(o["payload"]["state"] == s0 for o in oks)
    commits = world.ledger.find(lambda t: t["kind"] == "open-commit")
    assert len({t["author"] for t in commits}) == 6
    assert notes(world, "open-done")


def test_pay_updates_both_sides():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    for pid in ("c1", "c2"):
        m = client(world, pid)
        assert m.latest()["seq"] == 1
        assert m.latest()["state"]["bal"] == {"c1": 7, "c2": 13}
    accepts = notes(world, "state-accept")
    assert {a["party"] for a in accepts} == {"client:c1", "client:c2"}


def test_pay_pipelines_sequentially():
    world, scn = make_world()
    open_channel(world)
    c1 = world.entity(CLIENT, "c1")
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 1})
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 2})
    assert client(world, "c1").proposal["seq"] == 1
    assert len(client(world, "c1").pending_pay) == 1
    pump(world)
    assert client(world, "c1").latest()["seq"] == 2
    assert client(world, "c1").latest()["state"]["bal"] == {"c1": 7, "c2": 13}


def test_overdraft_refused_locally():
    world, scn = make_world()
    open_channel(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 99})
    pump(world)
    assert client(world, "c1").latest()["seq"] == 0
    refusals = notes(world, "request-refused")
    assert refusals and refusals[-1]["why"] == "invalid-transfer"


def test_pay_goes_both_directions():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    pay(world, "c2", "c1", 5)
    assert client(world, "c1").latest()["state"]["bal"] == {"c1": 12, "c2": 8}
    assert client(world, "c1").latest()["seq"] == 2


def test_wardens_store_latest_and_refuse_stale():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    w1 = warden(world, "w1")
    assert w1.stored["seq"] == 1
    csigs = w1.stored["csigs"]
    state0 = brick.initial_state(scn["collateral"])
    world.queue_net(world.entity(CLIENT, "c1"), w1.me,
                    {"kind": "pay2", "state": state0, "seq": 0, "csigs": csigs})
    pump(world)
    assert w1.stored["seq"] == 1
    assert notes(world, "stale-refused")


def test_collaborative_settle_latest():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 4)
    world.inject_input(world.entity(CLIENT, "c2"),
                       {"kind": "settle", "type": "collab"})
    rounds(world, 2)
    oks = outputs(world, "settle-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    assert all(o["payload"]["state"]["bal"] == {"c1": 6, "c2": 14} for o in oks)
    done = notes(world, "settle-done")
    assert done and done[0]["type"] == "collab"
    assert client(world, "c1").phase == "closed"


def test_collaborative_settle_old_state():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 2)
    pay(world, "c1", "c2", 2)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "settle", "type": "collab", "seq": 1})
    rounds(world, 2)
    oks = outputs(world, "settle-ok")
    assert oks and all(o["payload"]["state"]["bal"] == {"c1": 8, "c2": 12}
                       for o in oks)


def test_unilateral_settle_resolves_latest():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "settle", "type": "unilateral"})
    rounds(world, 3)
    oks = outputs(world, "settle-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    assert all(o["payload"]["state"]["bal"] == {"c1": 7, "c2": 13} for o in oks)
    done = notes(world, "settle-done")
    assert done[0]["type"] == "unilateral"


def test_unilateral_survives_silent_warden():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    world.corrupt(world.entity(brick.WARDEN, "w1"))
    world.inject_input(world.entity(CLIENT, "c2"),
                       {"kind": "settle", "type": "unilateral"})
    rounds(world, 3)
    oks = outputs(world, "settle-ok")
    assert len(oks) == 2
    assert all(o["payload"]["state"]["bal"] == {"c1": 7, "c2": 13} for o in oks)


def test_unilateral_stale_publication_loses():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    w1 = world.entity(brick.WARDEN, "w1")
    world.corrupt(w1)
    brick.menu(world, w1)["publish-stale"]()
    world.inject_input(world.entity(CLIENT, "c2"),
                       {"kind": "settle", "type": "unilateral"})
    rounds(world, 3)
    pubs = world.ledger.find(lambda t: t["kind"] == "warden-publish")
    assert min(t["body"]["seq"] for t in pubs) == 0
    oks = outputs(world, "settle-ok")
    assert oks and all(o["payload"]["state"]["bal"] == {"c1": 7, "c2": 13}
                       for o in oks)


def test_ledger_rejects_forged_close():
    world, scn = make_world()
    open_channel(world)
    bogus = {"bal": {"c1": 0, "c2": 20}, "seq": 5}
    ref = world.certs.sign("client:c2", brick.close_msg(world.sid, bogus, 5))
    tx = make_tx("settle", {"channel": world.sid, "state": bogus, "seq": 5,
                            "csigs": [ref, ref], "mode": "collab",
                            "conflict": f"close/{world.sid}"}, "client:c2")
    tx["sigs"] = [world.certs.sign("client:c2", tx_signable(tx))]
    res = world.ledger.submit(tx)
    assert res["accepted"] is False
    assert res["reason"] == "bad-channel-sigs"


def test_read_reports_accepted_chain():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "read"})
    r = outputs(world, "read-result")[-1]["payload"]
    assert r["state"]["seq"] == 1
    assert [e["kind"] for e in r["executed"]] == [OPEN, UPDATE]
    assert r["pointer"] == 1


def test_read_includes_settlement_record():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    world.inject_input(world.entity(CLIENT, "c2"),
                       {"kind": "settle", "type": "collab"})
    rounds(world, 2)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "read"})
    r = outputs(world, "read-result")[-1]["payload"]
    assert [e["kind"] for e in r["executed"]] == [OPEN, UPDATE]
    assert r["settled"] == r["state"]
    view = read_views(world.trace)[-1]
    assert [e["kind"] for e in view.executed] == [OPEN, UPDATE, SETTLEMENT]


# -- ideal bundle gating ---------------------------------------------------


def ideal_fixture():
    world, scn = make_world()
    bundle = brick.make_bundle(world, scn)
    ist = InternalState(identities={CLIENT: list(scn["clients"]),
                                    brick.WARDEN: list(scn["wardens"])})
    ctx = Ctx(world, world.entity(INTERFACE_ROLE, "F"))
    return world, scn, bundle, ist, ctx


def seed_open(bundle, ist, scn, ctx):
    s0 = brick.initial_state(scn["collateral"])
    for c in scn["clients"]:
        ok, _ = bundle.submit(ist, {"kind": OPEN, "body": {"state": s0},
                                    "by": c, "round": 0}, ctx)
        assert ok
        ist.queue.append({"kind": OPEN, "body": {"state": s0}, "by": c,
                          "rid": ist.new_rid()})
    # what the interface records for an accepted open
    ist.states.append(s0)
    ist.onchain = s0
    ist.executed.append(open_record(s0, {"wardens": []}, ctx))
    ist.queue = [r for r in ist.queue if r["kind"] != OPEN]
    return s0


def test_bundle_submit_gating():
    world, scn, bundle, ist, ctx = ideal_fixture()
    s0 = brick.initial_state(scn["collateral"])
    ok, why = bundle.submit(ist, {"kind": OPEN, "body": {"state": {"bal": {}, "seq": 0}},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "bad-state")
    ok, why = bundle.submit(ist, {"kind": UPDATE, "body": {"state": s0, "seq": 0},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "phase")
    seed_open(bundle, ist, scn, ctx)
    stale = dict(s0)
    ok, why = bundle.submit(ist, {"kind": UPDATE, "body": {"state": stale, "seq": 0},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "stale")
    skewed = {"bal": {"c1": 9, "c2": 12}, "seq": 1}
    ok, why = bundle.submit(ist, {"kind": UPDATE,
                                  "body": {"state": skewed, "seq": 1},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "not-conserving")
    good = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    ok, why = bundle.submit(ist, {"kind": UPDATE, "body": {"state": good, "seq": 1},
                                  "by": "c1", "round": 0}, ctx)
    assert ok
    ok, _ = bundle.submit(ist, {"kind": SETTLEMENT, "body": {"type": "collab"},
                                "by": "c1", "round": 0}, ctx)
    assert ok
    ist.queue.append({"kind": SETTLEMENT, "body": {"type": "collab"}, "by": "c1",
                      "rid": ist.new_rid()})
    ok, why = bundle.submit(ist, {"kind": UPDATE, "body": {"state": good, "seq": 1},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "settle-pending")


def test_bundle_open_check_demands_everything():
    world, scn, bundle, ist, ctx = ideal_fixture()
    s0 = brick.initial_state(scn["collateral"])
    wardens = [{"by": f"warden:w{i+1}"} for i in range(3)]
    ok, why, _ = bundle.open(ist, {"state": s0}, {"wardens": wardens}, ctx)
    assert (ok, why) == (False, "missing-open-requests")
    for c in scn["clients"]:
        ist.queue.append({"kind": OPEN, "body": {"state": s0}, "by": c,
                          "rid": ist.new_rid()})
    ok, why, _ = bundle.open(ist, {"state": s0}, {"wardens": wardens[:2]}, ctx)
    assert (ok, why) == (False, "thin-warden-multiset")
    ok, why, _ = bundle.open(ist, {"state": s0}, {"wardens": wardens}, ctx)
    assert (ok, why) == (False, "collateral-missing")
    for short in (["client:c1", "client:c2"] +
                  [f"warden:w{i+1}" for i in range(4)]):
        tx = make_tx("open-commit",
                     {"channel": world.sid, "state": s0,
                      "conflict": f"open/{world.sid}/{short}"}, short)
        tx["sigs"] = [world.certs.sign(short, tx_signable(tx))]
        world.ledger.submit(tx)
    world.advance_round()
    ok, why, record = bundle.open(ist, {"state": s0}, {"wardens": wardens}, ctx)
    assert (ok, why) == (True, None)
    assert record == open_record(s0, {"wardens": wardens}, ctx)
    assert ist.states == [] and ist.executed == []     # the bundle only answers


def test_bundle_update_check_wants_client_agreement():
    world, scn, bundle, ist, ctx = ideal_fixture()
    seed_open(bundle, ist, scn, ctx)
    new = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    msg = brick.state_msg(world.sid, new, 1)
    c1 = world.certs.sign("client:c1", msg)
    c2 = world.certs.sign("client:c2", msg)
    wardens = [{"by": f"warden:w{i+1}"} for i in range(3)]
    ok, why, _ = bundle.update(ist, new, {"clients": [c1, c1],
                                          "wardens": wardens}, ctx)
    assert (ok, why) == (False, "missing-agreement")
    ok, why, _ = bundle.update(ist, new, {"clients": [c1, c2],
                                          "wardens": wardens[:2]}, ctx)
    assert (ok, why) == (False, "thin-warden-multiset")
    att = {"clients": [c1, c2], "wardens": wardens}
    ok, why, record = bundle.update(ist, new, att, ctx)
    assert (ok, why) == (True, None)
    assert record == {"kind": UPDATE, "seq": 1, "state": new, "evidence": att,
                      "rids": [], "round": world.round_no}
    assert ist.states == [ist.onchain]


def test_bundle_read_fails_on_missing_record():
    world, scn, bundle, ist, ctx = ideal_fixture()
    seed_open(bundle, ist, scn, ctx)
    s1 = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    s2 = {"bal": {"c1": 5, "c2": 15}, "seq": 2}
    ist.states.extend([s1, s2])
    ist.executed.append({"kind": UPDATE, "seq": 2, "state": s2, "evidence": None})
    assert bundle.read(ist, 2, ctx) is False
    assert bundle.read(ist, 0, ctx) is True


def test_bundle_unilateral_needs_quorum_and_latest():
    world, scn, bundle, ist, ctx = ideal_fixture()
    s0 = seed_open(bundle, ist, scn, ctx)
    s1 = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    ist.states.append(s1)
    ist.executed.append({"kind": UPDATE, "seq": 1, "state": s1, "evidence": None})
    msg1 = brick.state_msg(world.sid, s1, 1)
    csigs = [world.certs.sign("client:c1", msg1),
             world.certs.sign("client:c2", msg1)]
    body = {"type": "unilateral"}
    ok, why, _ = bundle.settlement(ist, body, None, ctx)
    assert (ok, why) == (False, "thin-publication")

    def publish(short, state, seq, sigs):
        tx = make_tx("warden-publish",
                     {"channel": world.sid, "state": state, "seq": seq,
                      "csigs": sigs, "conflict": f"wpub/{world.sid}/{short}"},
                     short)
        tx["sigs"] = [world.certs.sign(short, tx_signable(tx))]
        assert world.ledger.submit(tx)["accepted"]

    open_sigs = [world.certs.sign("client:c1", brick.open_msg(world.sid, s0)),
                 world.certs.sign("client:c2", brick.open_msg(world.sid, s0))]
    publish("warden:w1", s0, 0, open_sigs)
    publish("warden:w2", s0, 0, open_sigs)
    publish("warden:w3", s0, 0, open_sigs)
    world.advance_round()
    ok, why, _ = bundle.settlement(ist, body, None, ctx)
    assert (ok, why) == (False, "not-latest")
    publish("warden:w4", s1, 1, csigs)
    world.advance_round()
    ok, why, got = bundle.settlement(ist, body, None, ctx)
    assert (ok, why) == (True, None)
    assert got == s1
