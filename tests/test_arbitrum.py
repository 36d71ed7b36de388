"""Rollup protocol: publication, fraud proofs, finality, exits, bundle."""

import pytest

from l2sim.runtime import Ctx, World, EntityId
from l2sim.base import Ledger, make_tx, tx_signable
from l2sim.core import (OPEN, UPDATE, SETTLEMENT, CLIENT, INTERFACE_ROLE,
                        InternalState)
from l2sim import arbitrum, harness, properties
from l2sim.properties import summarize
from l2sim.accounts import genesis_state, l2_txid
from l2sim.trace import digest
from seeded_schedules import (random_schedule, real_runs, request_rows,
                              separate_runs)

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def make_world(scn=None, **kw):
    scn = scn or arbitrum.canonical_scenario(**kw)
    w = World("roll", Ledger(TIMING))
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


def view_of(world):
    return arbitrum.chain_view(world.ledger, world.sid, world.round_no)


def open_rollup(world):
    for pid in ("c1", "c2"):
        world.inject_input(world.entity(CLIENT, pid), {"kind": "open"})
    cycle(world)


def reads(world, pid):
    """The whole view a read shows ``pid``, or None when it reads empty."""
    before = len(outputs(world, "read-result"))
    world.inject_input(world.entity(CLIENT, pid), {"kind": "read"})
    if len(outputs(world, "read-result")) == before:
        return None
    return summarize(world.trace).views[-1].executed


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
    v = view_of(world)
    assert len(v["entries"]) == 1 and v["final"] == 0
    assert client(world, "c1").outstanding is None     # optimistic clearing
    cycle(world, 5)           # window 5+4 passes at round 10
    v = view_of(world)
    assert v["final"] == 1
    assert notes(world, "batch-final")
    r = reads(world, "c2")
    assert r[-1]["state"]["bal"] == {"c1": 7, "c2": 13}
    assert [e["kind"] for e in r] == [OPEN, UPDATE]


def test_pays_pipeline_across_batches():
    world, scn = make_world()
    open_rollup(world)
    c1 = world.entity(CLIENT, "c1")
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 1})
    world.inject_input(c1, {"kind": "pay", "to": "c2", "amt": 2})
    assert len(client(world, "c1").pending) == 1
    cycle(world, 13)          # batches at rounds 5 and 9, final by 14
    v = view_of(world)
    assert [e["batch"]["seq"] for e in v["entries"]] == [1, 2]
    assert v["final"] == 2
    r = reads(world, "c1")
    assert r[-1]["state"]["bal"] == {"c1": 7, "c2": 13}
    assert r[-1]["state"]["nonce"]["c1"] == 2


def test_operators_publish_only_in_period_rounds():
    """In every real run, an honest operator submits batches only in
    rounds that are multiples of ``t_period``; a corrupted operator, which
    gets no ``on_round``, publishes only by the ``publish-wrong`` menu
    move."""
    rounds = set()
    for sched, run in real_runs("arbitrum"):
        events = run.trace.events
        corrupted_at = {ev["party"]: ev["step"] for ev in events
                        if ev["t"] == "corrupt"}
        for ev in events:
            if ev["t"] != "ledger-submit" or ev["kind"] != "batch-publish" \
                    or not ev["author"].startswith(f"{arbitrum.OPERATOR}:"):
                continue
            if ev["step"] >= corrupted_at.get(ev["author"], ev["step"] + 1):
                assert {"op": "menu", "role": arbitrum.OPERATOR,
                        "pid": ev["author"].split(":")[1],
                        "action": "publish-wrong"} in sched
                continue
            assert ev["round"] % run.world.timing["t_period"] == 0
            rounds.add(ev["round"])
    assert len(rounds) > 3


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
    v = view_of(world)
    assert v["final"] >= 1
    mints = [t for e in v["entries"] for t in e["batch"]["txs"]
             if t.get("op") == "mint"]
    assert len(mints) == 1 and mints[0]["to"] == "c1"
    r = reads(world, "c1")
    assert r[-1]["state"]["bal"]["c1"] == 15


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
    assert outputs(world, "read-result")[-1]["payload"]["settled"] == \
        m.settled_state
    assert r[-1] == {"kind": SETTLEMENT, "seq": None, "state": m.settled_state}


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
    assert view_of(world)["entries"] == []
    proofs = world.ledger.find(lambda t: t["kind"] == "fraud-proof")
    assert len(proofs) == 1
    cycle(world, 10)
    assert view_of(world)["final"] == 0


def test_chain_rebuilds_after_strike():
    world, scn = make_world()
    open_rollup(world)
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 13)
    v = view_of(world)
    assert v["final"] >= 1
    assert v["entries"][0]["batch"]["by"] == "operator:p2"
    r = reads(world, "c1")
    assert r[-1]["state"]["bal"] == {"c1": 7, "c2": 13}


def test_unchallenged_fraud_finalizes():
    world, scn = make_world()
    open_rollup(world)
    world.corrupt(world.entity(arbitrum.VALIDATOR, "v1"), allow_over_budget=True)
    p1 = world.entity(arbitrum.OPERATOR, "p1")
    world.corrupt(p1)
    arbitrum.publish_wrong_batch(world, p1)
    cycle(world, 10)
    v = view_of(world)
    assert v["final"] == 1
    assert v["entries"][0]["post"] != v["entries"][0]["claimed"]
    r = reads(world, "c1")
    assert r[-1]["state"]["bal"]["c1"] == 11      # the skim went through


def test_held_proof_cannot_strike_final_batch():
    world, scn = make_world()
    open_rollup(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 9)
    v = view_of(world)
    assert v["final"] == 1
    proof = make_tx("fraud-proof",
                    {"chain": world.sid, "target": v["entries"][0]["txid"],
                     "seq": 1, "conflict": "fraud/late"},
                    "validator:v1")
    proof["sigs"] = [world.certs.sign("validator:v1", digest(tx_signable(proof)))]
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
    v = view_of(world)
    assert len(v["entries"]) == 1
    assert v["entries"][0]["batch"]["by"] == "client:c1"
    cycle(world, 6)
    assert view_of(world)["final"] == 1
    r = reads(world, "c1")
    assert r[-1]["state"]["bal"] == {"c1": 7, "c2": 13}


def test_no_self_publish_means_censorship_sticks():
    world, scn = make_world(self_publish=False)
    open_rollup(world)
    world.corrupt(world.entity(arbitrum.OPERATOR, "p1"))
    world.corrupt(world.entity(arbitrum.OPERATOR, "p2"), allow_over_budget=True)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    cycle(world, 12)
    assert view_of(world)["entries"] == []
    assert client(world, "c1").outstanding is not None


def test_a_late_tx_that_no_longer_applies_is_dropped():
    # no operator publishes and no validator challenges; a batch committed
    # by hand claims a post in which c1 holds 2, so c1's pay of 5 no longer
    # applies to the tip when it turns late: the client drops it and sends
    # its next request, a pay of 1, which self-publication then lands
    world, scn = make_world()
    open_rollup(world)
    world.corrupt(world.entity(arbitrum.OPERATOR, "p1"))
    world.corrupt(world.entity(arbitrum.OPERATOR, "p2"))
    world.corrupt(world.entity(arbitrum.VALIDATOR, "v1"),
                  allow_over_budget=True)
    c1 = client(world, "c1")
    for amt in (5, 1):
        world.inject_input(world.entity(CLIENT, "c1"),
                           {"kind": "pay", "to": "c2", "amt": amt})
    late = c1.outstanding["txid"]
    assert [i["txid"] for i in c1.inflight] == [late]
    assert [body["amt"] for body in c1.pending] == [1]
    view = view_of(world)
    poor = dict(view["tip"], height=1, bal={"c1": 2, "c2": 18})
    assert world.ledger.submit(arbitrum.batch_tx(
        world.certs, view, world.sid, "operator:p1", 1, [], poor))["accepted"]
    cycle(world)
    assert view_of(world)["tip"] == poor
    # the pay turns late in round since + t_period
    cycle(world, c1.outstanding["since"] + TIMING["t_period"] - 1
          - world.round_no)
    assert c1.outstanding["txid"] == late
    assert late in [i["txid"] for i in c1.inflight]
    cycle(world)
    sent = c1.outstanding
    assert (sent["tx"]["amt"], sent["tx"]["nonce"]) == (1, 1)
    assert late not in [i["txid"] for i in c1.inflight]
    assert c1.pending == []
    cycle(world, 6)
    published = [l2_txid(world.certs, t) for b in world.ledger.find(
        lambda t: t["kind"] == "batch-publish")
        for t in b["body"]["batch"]["txs"]]
    assert late not in published
    assert sent["txid"] in published


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
    ltx["sigs"] = [world.certs.sign(p1.short(), digest(tx_signable(ltx)))]
    assert world.ledger.submit(ltx)["accepted"]
    cycle(world)              # wrong batch commits; c1 sees the tx included
    assert client(world, "c1").outstanding is None
    cycle(world)              # validator proof commits, batch struck
    assert notes(world, "tx-reorged")
    cycle(world, 12)          # honest operator republishes and finalizes
    v = view_of(world)
    assert v["final"] >= 1
    r = reads(world, "c1")
    assert r[-1]["state"]["bal"] == {"c1": 7, "c2": 13}
    assert r[-1]["state"]["nonce"]["c1"] == 1


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
    assert view_of(world)["final"] == 1


def test_forged_exit_claim_is_rejected():
    world, scn = make_world()
    open_rollup(world)
    claim = make_tx("settle",
                    {"chain": world.sid, "to": "c1", "amt": 9,
                     "l2txid": "nope", "batch": "nope",
                     "state": genesis_state(scn["initial"]),
                     "conflict": "exit/forged"},
                    "client:c1")
    claim["sigs"] = [world.certs.sign("client:c1", digest(tx_signable(claim)))]
    res = world.ledger.submit(claim)
    assert not res["accepted"] and res["reason"] == "batch-not-final"


# -- seeded agreement sweep --------------------------------------------------

# what the sweep draws: entry kinds, and the menu moves a corrupted party
# of each role can make
ENTRY_KINDS = ("pay", "deposit")
MENU_MOVES = {CLIENT: ["spam-overdraft"], arbitrum.OPERATOR: ["publish-wrong"]}

# seeds whose real run fails update liveness, split by the ideal run's
# verdict (ROADMAP item 4).  In honest seed 16, c2 asks for six pays by
# round 6 while its deposits are not yet minted: the interface refuses two
# as insufficient, the real client queues all six and sends one per batch
# period, so the sixth is sent at round 25 and shows after its round-32
# deadline
REAL_ONLY_FAILS = {False: [16, 122, 135, 142], True: [122]}
BOTH_FAIL = {False: [11], True: [83]}
# seeds whose two runs answer a request differently (ROADMAP item 21): the
# interface refuses at submit, as insufficient or out of phase, a request
# that the real client queues; the outputs agree.  Item 21's one refusal
# rule empties these lists
REQUESTS_DIFFER = {False: [11, 16, 61, 97, 122, 135, 142], True: [122]}


@pytest.mark.parametrize("corrupt", [False, True], ids=["honest", "corrupt"])
def test_seeded_schedules_keep_the_runs_in_agreement(corrupt):
    """Over 150 seeded schedules, the real and ideal outputs are equal,
    both runs get the same safety verdict, and both get the same
    update-liveness verdict except in the pinned seeds where only the
    real run fails it, and both answer every request alike except in the
    pinned seeds.  The closing rounds outlast the update deadline,
    so most requests are judged.  The real run is a separate one, and the
    ideal run refuses no round, so its inner world writes the real trace
    in every schedule."""
    failures = {"outputs": [], "safety": [], "liveness-update": [],
                "refused": [], "requests": []}
    both_fail = []
    for seed in range(150):
        scn, sched = random_schedule("arbitrum", seed, corrupt, ENTRY_KINDS,
                                     MENU_MOVES)
        real, ideal, diffs = separate_runs("arbitrum", scn, sched)
        if diffs:
            failures["outputs"].append(seed)
        if request_rows(real.trace) != request_rows(ideal.trace):
            failures["requests"].append(seed)
        if ideal.refused:
            failures["refused"].append(seed)
        f = {role: budget for role, _, budget in arbitrum.party_roles(scn)}
        params = arbitrum.liveness_params(scn)[UPDATE]
        for name, check in (
                ("safety", lambda t: properties.check_safety(t, f)),
                ("liveness-update",
                 lambda t: properties.check_liveness(t, UPDATE, params))):
            real_ok, ideal_ok = (check(run.trace).passed
                                 for run in (real, ideal))
            if real_ok != ideal_ok:     # the seed and the run that failed
                failures[name].append((seed, "ideal" if real_ok else "real"))
            elif name == "liveness-update" and not real_ok:
                both_fail.append(seed)
    assert failures == {"outputs": [], "safety": [], "liveness-update": [
        (seed, "real") for seed in REAL_ONLY_FAILS[corrupt]], "refused": [],
        "requests": REQUESTS_DIFFER[corrupt]}
    assert both_fail == BOTH_FAIL[corrupt]


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
    # the recipient is checked before the amount is compared
    for kind, body in ((UPDATE, {"op": "pay", "to": "operator:p1", "amt": 1}),
                       (UPDATE, {"op": "pay", "to": "c9", "amt": "x"}),
                       (UPDATE, {"op": "pay", "to": "c2", "amt": 0}),
                       (UPDATE, {"op": "pay", "to": "c2", "amt": -3}),
                       (UPDATE, {"op": "pay", "to": "c2"}),
                       (UPDATE, {"op": "peg-in", "amt": 0}),
                       (SETTLEMENT, {"op": "peg-out", "amt": 0}),
                       (SETTLEMENT, {"op": "peg-out", "amt": -1})):
        assert bundle.submit(ist, {"kind": kind, "body": body, "by": "c1"},
                             ctx) == (False, "malformed")
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
    fresh = World("roll2", Ledger(TIMING))
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
    batch = view_of(world)["entries"][0]["batch"]
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
    v = view_of(world)
    assert v["final"] == 1
    bundle, ist, ctx = bundle_pair(world, scn)
    seed_open(bundle, ist, ctx, scn)
    ok, why, _ = bundle.update(ist, v["entries"][0]["batch"], None, ctx)
    assert not ok and why == "halt:unchallenged-fraud"


class CountedBatch(dict):
    """A batch that counts the comparisons made with it."""

    compared = 0
    __hash__ = None

    def __eq__(self, other):
        CountedBatch.compared += 1
        return dict.__eq__(self, other)


def test_bundle_certify_scans_from_the_tip(monkeypatch):
    # entries hold distinct seqs, so at most one equals the batch, and the
    # batch after the last certified one lies near the tip of the chain
    world, scn = make_world()
    bundle, ist, ctx = bundle_pair(world, scn)
    entries = [{"batch": CountedBatch(seq=i, txs=[]), "commit_round": 0,
                "post": {"seq": i}, "claimed": {"seq": i}}
               for i in range(1, 301)]
    monkeypatch.setattr(arbitrum, "world_view", lambda w: {"entries": entries})
    monkeypatch.setattr(CountedBatch, "compared", 0)
    assert bundle._certify(ist, {"seq": 297, "txs": []}, None, ctx) \
        == "window-open"
    assert CountedBatch.compared == 4
    assert bundle._certify(ist, {"seq": 301, "txs": []}, None, ctx) \
        == "not-on-ledger"
    assert CountedBatch.compared == 4 + 300


def test_bundle_read_entries_behind_index():
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
    entry = view_of(world)["entries"][0]
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
