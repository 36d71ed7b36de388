"""Sidechain protocol: committee flow, pegs, quorum experiments, bundle."""

import pytest

from l2sim.runtime import Ctx, World, EntityId
from l2sim.base import CertRegistry, Ledger
from l2sim.core import (OPEN, UPDATE, SETTLEMENT, CLIENT, INTERFACE_ROLE,
                        InternalState, open_record)
from l2sim import liquid
from l2sim.trace import digest

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def make_world(scn=None, **kw):
    scn = scn or liquid.canonical_scenario(**kw)
    w = World("side", dict(TIMING))
    w.certs = CertRegistry()
    w.ledger = Ledger(TIMING)
    w.ledger.bind(w)
    liquid.build_real(w, scn)
    return w, scn


def pump(world):
    while world.pending_net():
        world.deliver_net(min(e.eid for e in world.pending_net()))


def cycle(world, k=1):
    for _ in range(k):
        pump(world)
        world.advance_round()
        pump(world)


def client(world, pid):
    return world.machines[EntityId(pid, world.sid, CLIENT)]


def operator(world, pid):
    return world.machines[EntityId(pid, world.sid, liquid.OPERATOR)]


def outputs(world, kind=None):
    out = [e for e in world.trace.events if e.get("t") == "output"]
    if kind:
        out = [e for e in out if e["payload"].get("kind") == kind]
    return out


def notes(world, kind):
    return [e for e in world.trace.events
            if e.get("t") == "note" and e.get("kind") == kind]


def open_chain(world):
    for pid in ("c1", "c2"):
        world.inject_input(world.entity(CLIENT, pid), {"kind": "open"})
    cycle(world)


def test_open_after_registrations_commit():
    world, scn = make_world()
    open_chain(world)
    oks = outputs(world, "open-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    s0 = liquid.genesis_state(scn["initial"])
    assert all(o["payload"]["state"] == s0 for o in oks)
    regs = world.ledger.find(lambda t: t["kind"] == "open-commit")
    assert len(regs) == 6     # four operators plus the two clients


def test_pay_finalizes_one_block():
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world)
    for pid in scn["operators"]:
        m = operator(world, pid)
        assert m.tip()["height"] == 1
    for pid in ("c1", "c2"):
        m = client(world, pid)
        assert m.height() == 1
        assert m.states[-1]["bal"] == {"c1": 7, "c2": 13}
        assert m.states[-1]["nonce"]["c1"] == 1
    finals = notes(world, "block-final")
    assert {n["height"] for n in finals} == {1}


def test_pays_pipeline_across_blocks():
    world, scn = make_world()
    open_chain(world)
    c1 = world.entity(CLIENT, "c1")
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 1})
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 2})
    assert len(client(world, "c1").pending) == 1
    cycle(world, 2)
    m = client(world, "c1")
    assert m.height() == 2
    assert m.states[-1]["bal"] == {"c1": 7, "c2": 13}
    assert m.outstanding is None


def test_overdraft_refused_locally():
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 99})
    cycle(world)
    assert client(world, "c1").height() == 0
    refusals = notes(world, "request-refused")
    assert refusals and refusals[-1]["why"] == "invalid-transfer"


def test_deposit_mints_after_confirmations():
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "deposit", "amt": 5})
    cycle(world)                      # deposit commits on L1
    assert client(world, "c1").height() == 0
    cycle(world)                      # depth reaches confirm_depth, mint proposed
    m = client(world, "c1")
    assert m.height() == 1
    assert m.states[-1]["bal"]["c1"] == 15
    assert len(m.states[-1]["minted"]) == 1


def test_pegout_settles_on_l1():
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "settle", "amt": 4})
    cycle(world, 2)
    oks = outputs(world, "settle-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    assert all(o["payload"]["state"]["bal"] == {"c1": 6, "c2": 10} for o in oks)
    done = notes(world, "settle-done")
    assert done and done[0]["amt"] == 4
    pegouts = world.ledger.find(lambda t: t["kind"] == "peg-out")
    assert len(pegouts) == 1
    assert len(pegouts[0]["body"]["opsigs"]) >= scn["quorum"]


def test_read_carries_block_records():
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world)
    world.inject_input(world.entity(CLIENT, "c2"), {"kind": "read"})
    r = outputs(world, "read-result")[-1]["payload"]
    assert r["state"]["bal"] == {"c1": 7, "c2": 13}
    assert [e["kind"] for e in r["executed"]] == [OPEN, UPDATE]
    assert len(r["executed"][1]["txs"]) == 1
    assert r["pointer"] == 1


def test_garbage_proposal_is_ignored():
    world, scn = make_world()
    open_chain(world)
    bad = world.entity(liquid.OPERATOR, "op1")
    world.corrupt(bad)
    liquid.menu(world, bad)["garbage-propose"]()
    cycle(world)
    assert all(operator(world, o).tip()["height"] == 0
               for o in scn["operators"][1:])


def stage_equivocation(world, scn):
    """Walk to the corrupt operator's leadership round with a tx in hand."""
    open_chain(world)
    cycle(world, 2)                   # rounds 2 and 3 pass without proposals
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    pump(world)
    op1 = world.entity(liquid.OPERATOR, "op1")
    world.corrupt(op1)
    world.advance_round()             # round 4: op1 leads and stays silent
    txs_a = [next(iter(operator(world, "op2").mempool.values()))]
    targets = [world.entity(liquid.OPERATOR, o) for o in scn["operators"][1:]]
    liquid.equivocate(world, op1, targets[:1], targets[1:], txs_a,
                      world.round_no)
    return op1


def test_vote_once_blocks_equivocation_at_full_quorum():
    world, scn = make_world()
    stage_equivocation(world, scn)
    pump(world)
    digests = {digest(operator(world, o).tip()) for o in scn["operators"][1:]
               if operator(world, o).tip()["height"] == 1}
    assert len(digests) <= 1          # never two finalized blocks at one height


def test_thin_quorum_splits_clients():
    world, scn = make_world(quorum=2)
    stage_equivocation(world, scn)
    # deliver the committee traffic but keep the block pushes in hand
    while True:
        ops_only = [e for e in world.pending_net()
                    if e.dst.role == liquid.OPERATOR]
        if not ops_only:
            break
        world.deliver_net(min(e.eid for e in ops_only))
    a_dig = digest(operator(world, "op2").tip())
    b_dig = digest(operator(world, "op3").tip())
    assert operator(world, "op2").tip()["height"] == 1
    assert operator(world, "op3").tip()["height"] == 1
    assert a_dig != b_dig             # two conflicting certified blocks
    # adversary routes one branch to each client
    for env in list(world.pending_net()):
        if env.dst.role != CLIENT:
            continue
        if env.src.pid == "op2" and env.dst.pid == "c1":
            world.deliver_net(env.eid)
        elif env.src.pid == "op3" and env.dst.pid == "c2":
            world.deliver_net(env.eid)
    s1 = client(world, "c1").states[-1]
    s2 = client(world, "c2").states[-1]
    assert client(world, "c1").height() == 1 == client(world, "c2").height()
    assert s1 != s2                   # divergent reads at the same height


# -- ideal bundle ----------------------------------------------------------


def ideal_fixture(**kw):
    world, scn = make_world(**kw)
    bundle = liquid.make_bundle(world, scn)
    ist = InternalState(identities={CLIENT: list(scn["clients"]),
                                    liquid.OPERATOR: list(scn["operators"])})
    ctx = Ctx(world, world.entity(INTERFACE_ROLE, "F"))
    seed_open(ist, liquid.genesis_state(scn["initial"]), ctx)
    return world, scn, bundle, ist, ctx


def seed_open(ist, s0, ctx):
    """What the interface records for an accepted liquid open."""
    ist.states.append(s0)
    ist.onchain = s0
    ist.executed.append(dict(open_record(s0, None, ctx),
                             block=liquid.genesis_block()))


def test_bundle_submit_balance_gating():
    world, scn, bundle, ist, ctx = ideal_fixture()
    ok, _ = bundle.submit(ist, {"kind": UPDATE,
                                "body": {"op": "pay", "to": "c2", "amt": 6},
                                "by": "c1", "round": 0}, ctx)
    assert ok
    ist.queue.append({"kind": UPDATE, "body": {"op": "pay", "to": "c2", "amt": 6},
                      "by": "c1", "rid": ist.new_rid(), "round": 0})
    ok, why = bundle.submit(ist, {"kind": UPDATE,
                                  "body": {"op": "pay", "to": "c2", "amt": 6},
                                  "by": "c1", "round": 0}, ctx)
    assert (ok, why) == (False, "insufficient")


def test_bundle_update_checks_cert_and_transition():
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world)
    entry = operator(world, "op2").chain[1]
    bundle = liquid.make_bundle(world, scn)
    ist = InternalState(identities={CLIENT: list(scn["clients"]),
                                    liquid.OPERATOR: list(scn["operators"])})
    ctx = Ctx(world, world.entity(INTERFACE_ROLE, "F"))
    seed_open(ist, liquid.genesis_state(scn["initial"]), ctx)
    ok, why, record = bundle.update(ist, entry["block"], entry["cert"], ctx)
    assert (ok, why) == (True, None)
    assert record["state"]["bal"] == {"c1": 7, "c2": 13}
    assert (record["seq"], record["block"]) == (1, entry["block"])
    thin = {"round": entry["cert"]["round"],
            "pre": entry["cert"]["pre"][:1], "fin": entry["cert"]["fin"][:1]}
    ok, why, _ = bundle.update(ist, entry["block"], thin, ctx)
    assert (ok, why) == (False, "thin-certificate")
    wrong = dict(entry["block"], txs=entry["block"]["txs"] * 2)
    ok, why, _ = bundle.update(ist, wrong, entry["cert"], ctx)
    assert why in ("thin-certificate", "invalid-transition")
    assert len(ist.states) == len(ist.executed) == 1   # the bundle only answers


def test_bundle_round_gate_waits_for_ripe_work():
    world, scn, bundle, ist, ctx = ideal_fixture()
    ist.queue.append({"kind": UPDATE, "body": {"op": "pay", "to": "c2", "amt": 1},
                      "by": "c1", "rid": ist.new_rid(), "round": 0})
    ok, _ = bundle.upd_rnd(ist, ctx)
    assert ok                          # younger than the update allowance
    world.round_no = liquid.UPDATE_ALLOWANCE
    ok, why = bundle.upd_rnd(ist, ctx)
    assert (ok, why) == (False, "pending-l2-work")


def deposit_on_l1(world, depth):
    """A deposit of 5 to c1, committed and ``depth`` blocks deep."""
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "deposit", "amt": 5})
    cycle(world, depth)
    (dep,) = world.ledger.find(lambda t: t["kind"] == "deposit")
    assert world.ledger.depth(dep) == depth


def overdue_peg_in(world, ist, amt=5):
    ist.queue.append({"kind": UPDATE, "body": {"op": "peg-in", "amt": amt},
                      "by": "c1", "rid": ist.new_rid(), "round": 0})
    world.round_no = liquid.UPDATE_ALLOWANCE


def test_bundle_round_gate_ignores_unripe_deposit():
    world, scn, bundle, ist, ctx = ideal_fixture()
    deposit_on_l1(world, TIMING["confirm_depth"] - 1)
    overdue_peg_in(world, ist)
    ok, _ = bundle.upd_rnd(ist, ctx)
    assert ok                          # no ripe deposit on L1 backing it


def test_bundle_round_gate_waits_for_ripe_deposit():
    world, scn, bundle, ist, ctx = ideal_fixture()
    deposit_on_l1(world, TIMING["confirm_depth"])
    overdue_peg_in(world, ist, amt=4)
    assert bundle.upd_rnd(ist, ctx) == (True, None)    # amount differs
    overdue_peg_in(world, ist)
    assert bundle.upd_rnd(ist, ctx) == (False, "pending-l2-work")


def test_bundle_read_reconstruction_gap():
    world, scn, bundle, ist, ctx = ideal_fixture()
    s1 = dict(liquid.genesis_state(scn["initial"]), height=1)
    s2 = dict(s1, height=2)
    ist.states.extend([s1, s2])
    ist.executed.append({"kind": UPDATE, "seq": 2, "state": s2, "txs": [],
                         "block": None, "evidence": None})
    assert bundle.read(ist, 2, ctx) is False
