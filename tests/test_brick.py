"""Channel protocol: real machines, ledger checks, and the ideal bundle."""

import pytest

from l2sim.runtime import Ctx, World, EntityId
from l2sim.base import Ledger, make_tx, tx_signable
from l2sim.core import (OPEN, UPDATE, SETTLEMENT, CLIENT, INTERFACE_ROLE,
                        InternalState, open_record)
from l2sim import brick, harness, properties
from l2sim.properties import read_views
from l2sim.trace import digest
from seeded_schedules import (random_schedule, real_runs, request_rows,
                              separate_runs)

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def make_world(scn=None):
    scn = scn or brick.canonical_scenario()
    w = World("chan", Ledger(TIMING))
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


def test_an_input_to_a_warden_writes_only_its_input_event():
    """A warden takes no input: the environment's ``close-uni`` to an
    open channel's warden leaves its ``input`` event and nothing else
    (a client's unilateral settle reaches the wardens over NET)."""
    world, scn = make_world()
    open_channel(world)
    w1 = warden(world, "w1")
    assert w1.stored is not None
    before = len(world.trace.events)
    world.inject_input(world.entity(brick.WARDEN, "w1"), {"kind": "close-uni"})
    assert [ev["t"] for ev in world.trace.events[before:]] == ["input"]
    assert w1.published is False


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
    ref = world.certs.sign("client:c2",
                           brick.close_msg(world.certs, world.sid, bogus, 5))
    tx = make_tx("settle", {"chain": world.sid, "state": bogus, "seq": 5,
                            "csigs": [ref, ref], "mode": "collab",
                            "conflict": f"close/{world.sid}"}, "client:c2")
    tx["sigs"] = [world.certs.sign("client:c2", digest(tx_signable(tx)))]
    res = world.ledger.submit(tx)
    assert res["accepted"] is False
    assert res["reason"] == "bad-channel-sigs"


def test_a_client_chain_holds_seq_i_at_index_i():
    """``Hooks.triggers_for`` finds an accepted state's entry as
    ``chain[seq]``: in the real run of every scripted schedule and of the
    honest and adversarial golden lifecycles, each client's chain holds
    the entry of seq i at index i."""
    longest = 0
    for _, run in real_runs("brick"):
        for m in run.world.machines.values():
            if isinstance(m, brick.BrickClient):
                assert [e["seq"] for e in m.chain] == list(range(len(m.chain)))
                longest = max(longest, len(m.chain))
    assert longest > 2


def test_read_reports_accepted_chain():
    world, scn = make_world()
    open_channel(world)
    pay(world, "c1", "c2", 3)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "read"})
    r = outputs(world, "read-result")[-1]["payload"]
    assert [e["kind"] for e in r["executed"]] == [OPEN, UPDATE]
    assert read_views(world.trace)[-1].executed[-1]["state"]["seq"] == 1


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
    assert r["settled"] == r["executed"][-1]["state"]
    view = read_views(world.trace)[-1]
    assert [e["kind"] for e in view.executed] == [OPEN, UPDATE, SETTLEMENT]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: no brick settlement kind matches "
                   "a request of class settlement")
def test_settlement_liveness_judges_the_collab_settle():
    """The collab settle of settle-after-traffic has class ``settlement``
    at round 8 and the run ends at round 34, past every settlement bound;
    ``settlement-collab`` and ``settlement-unilateral`` each judge 0
    requests, where kind ``settlement`` with the collab bound judges 1."""
    scn = brick.canonical_scenario()
    sched = harness.scripted_schedules("brick", scn)["settle-after-traffic"]
    sched += [{"op": op} for _ in range(20) for op in ("advance", "pump")]
    real, ideal, _ = harness.run_differential("brick", scn, sched)
    for run in (real, ideal):
        judged = sum(
            properties.check_liveness(run.trace, kind, params)
            .params.get("judged", 0)
            for kind, params in brick.liveness_params(scn).items()
            if kind.startswith(SETTLEMENT))
        assert judged == 1


def test_the_ideal_run_refuses_an_overdraft_as_the_real_client_does():
    """overdraft-refused, then 12 rounds and a read per client.  The real
    client refuses c1's pay of 99 and the interface refuses it at submit,
    so in both runs the one pay judged is the later pay of 2, and it is
    served.  While the environment predicted each pay's post-state, the
    ideal run queued the overdraft and its update liveness failed (pid
    c1, deadline 12)."""
    scn = brick.canonical_scenario()
    sched = harness.scripted_schedules("brick", scn)["overdraft-refused"]
    sched += [{"op": op} for _ in range(12) for op in ("advance", "pump")]
    sched += [{"op": "input", "pid": c, "entry": {"kind": "read"}}
              for c in scn["clients"]]
    real, ideal, diffs = harness.run_differential("brick", scn, sched)
    params = brick.liveness_params(scn)[UPDATE]
    verdicts = [properties.check_liveness(run.trace, UPDATE, params)
                for run in (real, ideal)]
    assert [v.passed for v in verdicts] == [True, True]
    assert verdicts[0].params == verdicts[1].params
    assert (verdicts[0].params["judged"],
            verdicts[0].params["beyond_horizon"]) == (1, 0)
    assert diffs == []


# -- seeded agreement sweep --------------------------------------------------

# the menu moves a corrupted party of each role can make
MENU_MOVES = {CLIENT: ["stale-settle"],
              brick.WARDEN: ["publish-stale", "ack-garbage"]}

# seeds whose two runs answer a request differently (ROADMAP item 21): the
# interface refuses at submit, as insufficient or out of phase, a pay that
# the real client queues; the outputs agree.  Item 21's one refusal rule
# empties these lists
REQUESTS_DIFFER = {False: [9, 97], True: [97]}


@pytest.mark.parametrize("corrupt", [False, True], ids=["honest", "corrupt"])
def test_seeded_schedules_keep_the_runs_in_agreement(corrupt):
    """Over 150 seeded schedules, the real and ideal outputs are equal,
    both runs get the same safety and update-liveness verdicts, and both
    answer every request alike except in the pinned seeds.
    While the environment predicted each pay's post-state, update
    liveness differed in 43 honest and 10 corrupt schedules.  Schedules
    in which update liveness fails in both runs (ROADMAP item 1's warden
    split) are not judged here.  The real run is a separate one, and the
    ideal run refuses no round, so its inner world writes the real trace
    in every schedule."""
    failures = {"outputs": [], "safety": [], "liveness-update": [],
                "refused": [], "requests": []}
    for seed in range(150):
        scn, sched = random_schedule("brick", seed, corrupt, ("pay",),
                                     MENU_MOVES)
        real, ideal, diffs = separate_runs("brick", scn, sched)
        if diffs:
            failures["outputs"].append(seed)
        if request_rows(real.trace) != request_rows(ideal.trace):
            failures["requests"].append(seed)
        if ideal.refused:
            failures["refused"].append(seed)
        f = {role: budget for role, _, budget in brick.party_roles(scn)}
        params = brick.liveness_params(scn)[UPDATE]
        for name, check in (
                ("safety", lambda t: properties.check_safety(t, f)),
                ("liveness-update",
                 lambda t: properties.check_liveness(t, UPDATE, params))):
            if len({check(run.trace).passed for run in (real, ideal)}) > 1:
                failures[name].append(seed)
    assert failures == {"outputs": [], "safety": [], "liveness-update": [],
                        "refused": [], "requests": REQUESTS_DIFFER[corrupt]}


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


def pay_request(by, to, amt):
    return {"kind": UPDATE, "body": {"op": "pay", "to": to, "amt": amt},
            "by": by, "round": 0}


def test_bundle_submit_gating():
    """A pay request names its transfer, and the bundle judges it against
    its own latest state less the payer's queued pays."""
    world, scn, bundle, ist, ctx = ideal_fixture()
    ok, why = bundle.submit(ist, {"kind": OPEN, "body": {"state": {"bal": {}, "seq": 0}},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "bad-state")
    assert bundle.submit(ist, pay_request("c1", "c2", 3), ctx) == (False, "phase")
    seed_open(bundle, ist, scn, ctx)
    for to, amt in (("c3", 3), (None, 3), ("c2", 0), ("c2", -1), ("c2", "3"),
                    ("c2", True), ("c2", 1.5), ("c2", None)):
        assert bundle.submit(ist, pay_request("c1", to, amt), ctx) == \
            (False, "malformed")
    assert bundle.submit(ist, pay_request("c1", "c2", 11), ctx) == \
        (False, "insufficient")
    assert bundle.submit(ist, pay_request("c1", "c2", 7), ctx) == (True, None)
    ist.queue.append(dict(pay_request("c1", "c2", 7), rid=ist.new_rid()))
    assert bundle.submit(ist, pay_request("c1", "c2", 4), ctx) == \
        (False, "insufficient")
    assert bundle.submit(ist, pay_request("c1", "c2", 3), ctx) == (True, None)
    # the peer's queued pays do not count against the payer
    assert bundle.submit(ist, pay_request("c2", "c1", 10), ctx) == (True, None)
    ok, _ = bundle.submit(ist, {"kind": SETTLEMENT, "body": {"type": "collab"},
                                "by": "c1", "round": 0}, ctx)
    assert ok
    ist.queue.append({"kind": SETTLEMENT, "body": {"type": "collab"}, "by": "c1",
                      "rid": ist.new_rid()})
    assert bundle.submit(ist, pay_request("c1", "c2", 1), ctx) == \
        (False, "settle-pending")


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
                     {"chain": world.sid, "state": s0,
                      "conflict": f"open/{world.sid}/{short}"}, short)
        tx["sigs"] = [world.certs.sign(short, digest(tx_signable(tx)))]
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
    msg = brick.state_msg(world.certs, world.sid, new, 1)
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


def test_bundle_update_clears_the_first_pay_it_executes():
    """An update clears one rid: that of the first queued pay whose
    transfer from the latest state gives the executed state."""
    world, scn, bundle, ist, ctx = ideal_fixture()
    seed_open(bundle, ist, scn, ctx)
    for by, to in (("c2", "c1"), ("c1", "c2"), ("c1", "c2")):
        ist.queue.append(dict(pay_request(by, to, 3), rid=ist.new_rid()))
    back, first, _ = [r["rid"] for r in ist.queue]
    wardens = [{"by": f"warden:w{i+1}"} for i in range(3)]

    def rids(state):
        msg = brick.state_msg(world.certs, world.sid, state, state["seq"])
        att = {"clients": [world.certs.sign(c, msg)
                           for c in ("client:c1", "client:c2")],
               "wardens": wardens}
        ok, _, record = bundle.update(ist, state, att, ctx)
        assert ok
        return record["rids"]

    assert rids({"bal": {"c1": 7, "c2": 13}, "seq": 1}) == [first]
    assert rids({"bal": {"c1": 13, "c2": 7}, "seq": 1}) == [back]
    assert rids({"bal": {"c1": 8, "c2": 12}, "seq": 1}) == []


def record_updates(ist, *states):
    """What the interface records for accepted updates to ``states``."""
    for state in states:
        ist.states.append(state)
        ist.executed.append({"kind": UPDATE, "seq": state["seq"],
                             "state": state, "evidence": None})


def test_bundle_update_takes_only_the_next_seq():
    world, scn, bundle, ist, ctx = ideal_fixture()
    seed_open(bundle, ist, scn, ctx)
    wardens = [{"by": f"warden:w{i+1}"} for i in range(3)]

    def update(state):
        msg = brick.state_msg(world.certs, world.sid, state, state["seq"])
        att = {"clients": [world.certs.sign(c, msg)
                           for c in ("client:c1", "client:c2")],
               "wardens": wardens}
        return bundle.update(ist, state, att, ctx)[:2]

    assert update({"bal": {"c1": 7, "c2": 13}, "seq": 2}) == (False, "not-next")
    assert update({"bal": {"c1": 7, "c2": 13}, "seq": 0}) == (False, "stale")
    assert update({"bal": {"c1": 7, "c2": 13}, "seq": 1}) == (True, None)


def test_bundle_read_hides_states_below_the_settled_anchor():
    world, scn, bundle, ist, ctx = ideal_fixture()
    seed_open(bundle, ist, scn, ctx)
    s1 = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    record_updates(ist, s1, {"bal": {"c1": 5, "c2": 15}, "seq": 2})
    assert [bundle.read(ist, i, ctx) for i in range(3)] == [True] * 3
    ist.onchain = s1                # what a settlement of s1 records
    assert [bundle.read(ist, i, ctx) for i in range(3)] == [False, True, True]


def test_bundle_collab_settles_only_a_recorded_state():
    world, scn, bundle, ist, ctx = ideal_fixture()
    seed_open(bundle, ist, scn, ctx)
    s1 = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    record_updates(ist, s1)
    ist.queue.append({"kind": SETTLEMENT, "body": {"type": "collab"},
                      "by": "c1", "rid": ist.new_rid()})
    msg = brick.close_msg(world.certs, world.sid, s1, 1)
    csigs = [world.certs.sign(c, msg) for c in ("client:c1", "client:c2")]

    def settle(state, seq, att):
        body = {"type": "collab", "state": state, "seq": seq}
        return bundle.settlement(ist, body, att, ctx)

    other = {"bal": {"c1": 9, "c2": 11}, "seq": 1}
    for state, seq in ((other, 1), (s1, 2), (s1, "1"), (s1, None), (s1, -1)):
        assert settle(state, seq, {"clients": csigs}) == \
            (False, "unrecorded-state", None)
    assert settle(s1, 1, None) == (False, "missing-agreement", None)
    assert settle(s1, 1, {"clients": csigs}) == (False, "not-committed", None)
    tx = make_tx("settle", {"chain": world.sid, "state": s1, "seq": 1,
                            "csigs": csigs, "mode": "collab",
                            "conflict": f"close/{world.sid}"}, "client:c1")
    tx["sigs"] = [world.certs.sign("client:c1", digest(tx_signable(tx)))]
    assert world.ledger.submit(tx)["accepted"]
    world.advance_round()
    assert settle(s1, 1, {"clients": csigs}) == (True, None, s1)


def test_bundle_unilateral_needs_quorum_and_latest():
    world, scn, bundle, ist, ctx = ideal_fixture()
    s0 = seed_open(bundle, ist, scn, ctx)
    s1 = {"bal": {"c1": 7, "c2": 13}, "seq": 1}
    record_updates(ist, s1)
    msg1 = brick.state_msg(world.certs, world.sid, s1, 1)
    csigs = [world.certs.sign("client:c1", msg1),
             world.certs.sign("client:c2", msg1)]
    body = {"type": "unilateral"}
    ok, why, _ = bundle.settlement(ist, body, None, ctx)
    assert (ok, why) == (False, "thin-publication")

    def publish(short, state, seq, sigs):
        tx = make_tx("warden-publish",
                     {"chain": world.sid, "state": state, "seq": seq,
                      "csigs": sigs, "conflict": f"wpub/{world.sid}/{short}"},
                     short)
        tx["sigs"] = [world.certs.sign(short, digest(tx_signable(tx)))]
        assert world.ledger.submit(tx)["accepted"]

    open_dig = brick.open_msg(world.certs, world.sid, s0)
    open_sigs = [world.certs.sign("client:c1", open_dig),
                 world.certs.sign("client:c2", open_dig)]
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
