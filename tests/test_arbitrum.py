"""Rollup protocol: publication, fraud proofs, finality, exits, bundle."""

import pytest

from l2sim.runtime import Ctx, World, EntityId
from l2sim.base import CertRegistry, Ledger, make_tx, tx_signable
from l2sim.core import (OPEN, UPDATE, SETTLEMENT, CLIENT, INTERFACE_ROLE,
                        InternalState)
from l2sim import arbitrum
from l2sim.properties import read_views
from l2sim.accounts import genesis_state, l2_txid

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def make_world(scn=None, **kw):
    scn = scn or arbitrum.canonical_scenario(**kw)
    w = World("roll", dict(TIMING))
    w.certs = CertRegistry()
    w.ledger = Ledger(TIMING)
    w.ledger.bind(w)
    arbitrum.build_real(w, scn)
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


def outputs(world, kind=None):
    out = [e for e in world.trace.events if e.get("t") == "output"]
    if kind:
        out = [e for e in out if e["payload"].get("kind") == kind]
    return out


def notes(world, kind):
    return [e for e in world.trace.events
            if e.get("t") == "note" and e.get("kind") == kind]


def view_of(world, scn):
    return arbitrum.chain_view(world.ledger, world.sid, scn["initial"],
                               TIMING["confirm_depth"], world.round_no,
                               TIMING["t_period"])


def open_rollup(world):
    for pid in ("c1", "c2"):
        world.inject_input(world.entity(CLIENT, pid), {"kind": "open"})
    cycle(world)


def reads(world, pid):
    world.inject_input(world.entity(CLIENT, pid), {"kind": "read"})
    res = outputs(world, "read-result")
    return res[-1]["payload"] if res else None


# -- honest flows ----------------------------------------------------------


def test_open_after_registrations_commit():
    world, scn = make_world()
    open_rollup(world)
    oks = outputs(world, "open-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    s0 = genesis_state(scn["initial"])
    assert all(o["payload"]["state"] == s0 for o in oks)
    regs = world.ledger.find(lambda t: t["kind"] == "open-commit")
    assert len(regs) == 5     # two operators, one validator, two clients


def test_pay_published_then_final():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 5)           # nudge at round 4, commit at round 5
    v = view_of(world, scn)
    assert len(v["entries"]) == 1 and v["final"] == 0
    assert client(world, "c1").outstanding is None     # optimistic clearing
    cycle(world, 5)           # window 5+4 passes at round 10
    v = view_of(world, scn)
    assert v["final"] == 1
    assert notes(world, "batch-final")
    r = reads(world, "c2")
    assert r["state"]["bal"] == {"c1": 7, "c2": 13}
    assert r["pointer"] == 1
    assert [e["kind"] for e in r["executed"]] == [OPEN, UPDATE]


def test_pays_pipeline_across_batches():
    world, scn = make_world()
    open_rollup(world)
    c1 = world.entity(CLIENT, "c1")
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 1})
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 2})
    assert len(client(world, "c1").pending) == 1
    cycle(world, 13)          # batches at rounds 5 and 9, final by 14
    v = view_of(world, scn)
    assert [e["batch"]["seq"] for e in v["entries"]] == [1, 2]
    assert v["final"] == 2
    r = reads(world, "c1")
    assert r["state"]["bal"] == {"c1": 7, "c2": 13}
    assert r["state"]["nonce"]["c1"] == 2


def test_refuses_overdraft_locally():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 99})
    assert notes(world, "request-refused")
    assert client(world, "c1").outstanding is None


def test_deposit_mints_after_confirmations():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "deposit", "amt": 5})
    cycle(world, 9)
    v = view_of(world, scn)
    assert v["final"] >= 1
    mints = [t for e in v["entries"] for t in e["batch"]["txs"]
             if t.get("op") == "mint"]
    assert len(mints) == 1 and mints[0]["to"] == "c1"
    r = reads(world, "c1")
    assert r["state"]["bal"]["c1"] == 15


def test_withdraw_settles_on_l1():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "settle", "amt": 4})
    cycle(world, 11)
    claims = world.ledger.find(lambda t: t["kind"] == "settle")
    assert len(claims) == 1
    assert claims[0]["body"]["to"] == "c1" and claims[0]["body"]["amt"] == 4
    oks = outputs(world, "settle-ok")
    assert {o["party"] for o in oks} == {"client:c1", "client:c2"}
    for pid in ("c1", "c2"):
        m = client(world, pid)
        assert m.closed and m.settled_state["bal"]["c1"] == 6
    r = reads(world, "c2")
    assert r["settled"] == m.settled_state
    assert read_views(world.trace)[-1].executed[-1]["kind"] == SETTLEMENT


# -- adversarial flows -----------------------------------------------------


def test_fraud_proof_strikes_wrong_batch():
    world, scn = make_world()
    open_rollup(world)
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    cycle(world)              # batch commits, validators audit at once
    found = notes(world, "fraud-found")
    assert found and found[0]["accepted"]
    cycle(world)              # the proof itself commits
    assert view_of(world, scn)["entries"] == []
    proofs = world.ledger.find(lambda t: t["kind"] == "fraud-proof")
    assert len(proofs) == 1
    cycle(world, 10)
    assert view_of(world, scn)["final"] == 0


def test_chain_rebuilds_after_strike():
    world, scn = make_world()
    open_rollup(world)
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 13)
    v = view_of(world, scn)
    assert v["final"] >= 1
    assert v["entries"][0]["batch"]["by"] == "operator:p2"
    r = reads(world, "c1")
    assert r["state"]["bal"] == {"c1": 7, "c2": 13}


def test_unchallenged_fraud_finalizes():
    world, scn = make_world()
    open_rollup(world)
    world.corrupt(world.entity(arbitrum.VALIDATOR, "v1"), allow_over_budget=True)
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    cycle(world, 10)
    v = view_of(world, scn)
    assert v["final"] == 1
    assert v["entries"][0]["post"] != v["entries"][0]["claimed"]
    r = reads(world, "c1")
    assert r["state"]["bal"]["c1"] == 11      # the skim went through


def test_held_proof_cannot_strike_final_batch():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 9)
    v = view_of(world, scn)
    assert v["final"] == 1
    proof = make_tx("fraud-proof",
                    {"chain": world.sid, "target": v["entries"][0]["txid"],
                     "seq": 1, "conflict": "fraud/late"},
                    "validator:v1")
    proof["sigs"] = [world.certs.sign("validator:v1", tx_signable(proof))]
    res = world.ledger.submit(proof)
    assert not res["accepted"] and res["reason"] in ("window-closed",
                                                     "batch-correct")


def test_self_publish_rescues_censored_tx():
    world, scn = make_world()
    open_rollup(world)
    # with self-publication on, losing every operator is within budget
    world.corrupt(world.entity(arbitrum.OPERATOR, "p1"))
    world.corrupt(world.entity(arbitrum.OPERATOR, "p2"))
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 6)           # the wait (t_period) runs out at round 5
    assert notes(world, "self-publish")
    v = view_of(world, scn)
    assert len(v["entries"]) == 1
    assert v["entries"][0]["batch"]["by"] == "client:c1"
    cycle(world, 6)
    assert view_of(world, scn)["final"] == 1
    r = reads(world, "c1")
    assert r["state"]["bal"] == {"c1": 7, "c2": 13}


def test_no_self_publish_means_censorship_sticks():
    world, scn = make_world(self_publish=False)
    open_rollup(world)
    world.corrupt(world.entity(arbitrum.OPERATOR, "p1"))
    world.corrupt(world.entity(arbitrum.OPERATOR, "p2"), allow_over_budget=True)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 12)
    assert view_of(world, scn)["entries"] == []
    assert client(world, "c1").outstanding is not None


def test_reorged_tx_is_requeued_and_lands():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    pump(world)
    tx = client(world, "c1").outstanding["tx"]
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    state = genesis_state(scn["initial"])
    bad_post = dict(state, height=1, bal={"c1": 2, "c2": 18})
    batch = {"seq": 1, "prev": arbitrum.genesis_anchor(world.sid),
             "txs": [tx], "post": bad_post, "by": p1.short()}
    ltx = make_tx("batch-publish", {"chain": world.sid, "batch": batch},
                  p1.short())
    ltx["sigs"] = [world.certs.sign(p1.short(), tx_signable(ltx))]
    assert world.ledger.submit(ltx)["accepted"]
    cycle(world)              # wrong batch commits; c1 sees the tx included
    assert client(world, "c1").outstanding is None
    cycle(world)              # validator proof commits, batch struck
    assert notes(world, "tx-reorged")
    cycle(world, 12)          # honest operator republishes and finalizes
    v = view_of(world, scn)
    assert v["final"] >= 1
    r = reads(world, "c1")
    assert r["state"]["bal"] == {"c1": 7, "c2": 13}
    assert r["state"]["nonce"]["c1"] == 1


def test_false_accusation_is_rejected():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 5)
    v1 = world.entity(arbitrum.VALIDATOR, "v1")
    world.corrupt(v1, allow_over_budget=True)
    acts = arbitrum.menu(world, v1)
    acts["false-accuse"]()
    rejected = [e for e in world.trace.events
                if e.get("t") == "ledger-submit" and e.get("kind") == "fraud-proof"]
    assert rejected and not rejected[-1]["accepted"]
    assert rejected[-1]["reason"] == "batch-correct"
    cycle(world, 6)
    assert view_of(world, scn)["final"] == 1


def test_forged_exit_claim_is_rejected():
    world, scn = make_world()
    open_rollup(world)
    claim = make_tx("settle",
                    {"chain": world.sid, "to": "c1", "amt": 9,
                     "l2txid": "nope", "batch": "nope",
                     "state": genesis_state(scn["initial"]),
                     "conflict": "exit/forged"},
                    "client:c1")
    claim["sigs"] = [world.certs.sign("client:c1", tx_signable(claim))]
    res = world.ledger.submit(claim)
    assert not res["accepted"] and res["reason"] == "batch-not-final"


# -- ideal bundle ----------------------------------------------------------


def bundle_pair(world, scn):
    bundle = arbitrum.make_bundle(world, scn)
    ist = InternalState(identities={CLIENT: list(scn["clients"])})
    return bundle, ist, Ctx(world, world.entity(INTERFACE_ROLE, "F"))


def seed_open(bundle, ist, ctx, scn):
    s0 = genesis_state(scn["initial"])
    ist.states.append(s0)
    ist.onchain = s0
    ist.executed.append({"kind": OPEN, "state": s0, "seq": 0,
                         "evidence": None, "round": 0})


def test_bundle_submit_gating():
    world, scn = make_world()
    bundle, ist, ctx = bundle_pair(world, scn)
    ok, why = bundle.submit(ist, {"kind": UPDATE, "body": {"op": "pay"},
                                  "by": "c1"}, ctx)
    assert not ok and why == "phase"
    ok, _ = bundle.submit(ist, {"kind": OPEN,
                                "body": {"state": genesis_state(scn["initial"])},
                                "by": "c1"}, ctx)
    assert ok
    seed_open(bundle, ist, ctx, scn)
    ok, why = bundle.submit(ist, {"kind": UPDATE,
                                  "body": {"op": "pay", "to": "c2", "amt": 11},
                                  "by": "c1"}, ctx)
    assert not ok and why == "insufficient"
    ok, _ = bundle.submit(ist, {"kind": UPDATE,
                                "body": {"op": "pay", "to": "c2", "amt": 6},
                                "by": "c1"}, ctx)
    assert ok
    ist.queue.append({"kind": UPDATE, "body": {"op": "pay", "to": "c2", "amt": 6},
                      "by": "c1", "rid": 1})
    ok, why = bundle.submit(ist, {"kind": SETTLEMENT,
                                  "body": {"op": "peg-out", "amt": 5},
                                  "by": "c1"}, ctx)
    assert not ok and why == "insufficient"     # 10 minus pending 6
    ok, _ = bundle.submit(ist, {"kind": UPDATE, "body": {"op": "peg-in", "amt": 5},
                                "by": "c1"}, ctx)
    assert ok
    ok, why = bundle.submit(ist, {"kind": UPDATE, "body": {"op": "scramble"},
                                  "by": "c1"}, ctx)
    assert not ok and why == "unknown-kind"


def test_bundle_check_open_progression():
    world, scn = make_world()
    bundle, ist, ctx = bundle_pair(world, scn)
    body = {"state": genesis_state(scn["initial"])}
    ok, why, _ = bundle.open(ist, body, None, ctx)
    assert not ok and why == "missing-open-requests"
    for c in scn["clients"]:
        ist.queue.append({"kind": OPEN, "body": body, "by": c, "rid": len(ist.queue)})
    # registrations are still pending at round 0
    fresh = World("roll2", dict(TIMING))
    fresh.certs = CertRegistry()
    fresh.ledger = Ledger(TIMING)
    fresh.ledger.bind(fresh)
    arbitrum.build_real(fresh, scn)
    ok, why, _ = bundle.open(ist, body, None,
                             Ctx(fresh, fresh.entity(INTERFACE_ROLE, "F")))
    assert not ok and why == "registration-missing"
    world.advance_round()
    ok, why, record = bundle.open(ist, body, None, ctx)
    assert ok, why
    assert record == {"kind": OPEN, "state": body["state"], "seq": 0,
                      "evidence": None, "round": world.round_no}
    assert ist.states == [] and ist.executed == []     # the bundle only answers


def test_bundle_check_update_arms():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 4)           # published and committed at round five
    bundle, ist, ctx = bundle_pair(world, scn)
    seed_open(bundle, ist, ctx, scn)
    batch = view_of(world, scn)["entries"][0]["batch"]
    assert bundle.update(ist, {"seq": 1}, None, ctx) == \
        (False, "malformed", None)
    assert bundle.update(ist, dict(batch, seq=5), None, ctx) == \
        (False, "stale", None)
    ghost = dict(batch, txs=[])
    assert bundle.update(ist, ghost, None, ctx) == \
        (False, "not-on-ledger", None)
    assert bundle.update(ist, batch, None, ctx) == (False, "window-open", None)
    cycle(world, 5)
    ok, why, record = bundle.update(ist, batch, None, ctx)
    assert ok, why
    post = record["state"]
    assert post["bal"] == {"c1": 7, "c2": 13} and post["height"] == 1
    assert (record["seq"], record["batch"], record["txs"]) == \
        (1, batch, batch["txs"])
    assert len(ist.states) == 1 and len(ist.executed) == 1


def test_bundle_halts_on_unchallenged_fraud():
    world, scn = make_world()
    open_rollup(world)
    world.corrupt(world.entity(arbitrum.VALIDATOR, "v1"), allow_over_budget=True)
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    cycle(world, 10)
    v = view_of(world, scn)
    assert v["final"] == 1
    bundle, ist, ctx = bundle_pair(world, scn)
    seed_open(bundle, ist, ctx, scn)
    ok, why, _ = bundle.update(ist, v["entries"][0]["batch"], None, ctx)
    assert not ok and why == "halt:unchallenged-fraud"


def test_bundle_read_entries_behind_index_and_gap():
    world, scn = make_world()
    bundle, ist, ctx = bundle_pair(world, scn)
    seed_open(bundle, ist, ctx, scn)
    s1 = dict(genesis_state(scn["initial"]), height=1)
    s2 = dict(s1, height=2)
    ist.states += [s1, s2]
    ist.executed.append({"kind": UPDATE, "seq": 1, "state": s1, "txs": []})
    ist.executed.append({"kind": UPDATE, "seq": 2, "state": s2, "txs": []})
    assert bundle.read(ist, 1, ctx) is True
    assert bundle.read(ist, 2, ctx) is True
    ist.executed = [e for e in ist.executed if e.get("seq") != 1]
    assert bundle.read(ist, 2, ctx) is False    # reconstruction gap


def test_bundle_check_settlement_arms():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"), {"kind": "settle", "amt": 4})
    cycle(world, 11)
    assert world.ledger.find(lambda t: t["kind"] == "settle")
    bundle, ist, ctx = bundle_pair(world, scn)
    seed_open(bundle, ist, ctx, scn)
    body = {"op": "peg-out", "from": "c1", "amt": 4}
    ok, why, _ = bundle.settlement(ist, body, None, ctx)
    assert not ok and why == "no-settle-request"
    ist.queue.append({"kind": SETTLEMENT, "body": body, "by": "c1", "rid": 9})
    ok, why, _ = bundle.settlement(ist, body, None, ctx)
    assert not ok and why == "no-burn"
    entry = view_of(world, scn)["entries"][0]
    ist.executed.append({"kind": UPDATE, "seq": 1, "state": entry["post"],
                         "txs": entry["batch"]["txs"]})
    ok, why, sstate = bundle.settlement(ist, body, None, ctx)
    assert ok, why
    assert sstate["bal"]["c1"] == 6


def test_bundle_round_gate_never_refuses():
    world, scn = make_world()
    bundle, ist, ctx = bundle_pair(world, scn)
    seed_open(bundle, ist, ctx, scn)
    ist.queue.append({"kind": UPDATE, "body": {"op": "pay", "to": "c2", "amt": 1},
                      "by": "c1", "rid": 3, "round": 0})
    assert bundle.upd_rnd(ist, ctx) == (True, None)


@pytest.mark.parametrize("n_ops", [1, 2, 3])
@pytest.mark.parametrize("self_publish", [True, False])
def test_operator_budget_is_the_liveness_tolerance(n_ops, self_publish):
    # the adversary may corrupt exactly as many operators as liveness
    # tolerates: one operator without self-publication gets budget 0
    scn = arbitrum.canonical_scenario(n_ops=n_ops, self_publish=self_publish)
    budget = {role: b for role, _, b in arbitrum.party_roles(scn)}["operator"]
    params = arbitrum.liveness_params(scn)
    assert budget == params[UPDATE]["f"]["operator"]
    assert budget == params[SETTLEMENT]["f"]["operator"]
    assert budget == (n_ops if self_publish else n_ops - 1)
