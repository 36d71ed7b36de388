"""Sidechain protocol: committee flow, pegs, quorum experiments, bundle."""

from collections import Counter

import pytest

from l2sim.runtime import Ctx, World, EntityId
from l2sim.base import Ledger
from l2sim.core import (OPEN, UPDATE, SETTLEMENT, CLIENT, INTERFACE_ROLE,
                        InternalState, open_record)
from l2sim import base, harness, liquid, properties, trace
from l2sim.trace import canon, digest
from golden_audit import all_checks
from seeded_schedules import (inp, random_schedule, real_runs, request_rows,
                              separate_runs)

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def make_world(scn=None, **kw):
    scn = scn or liquid.canonical_scenario(**kw)
    w = World("side", Ledger(TIMING))
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
    assert m.states[-1]["minted_upto"] == 1


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
    assert [e["kind"] for e in r["executed"]] == [OPEN, UPDATE]
    assert len(r["executed"][1]["txs"]) == 1
    assert r["executed"][-1]["state"]["bal"] == {"c1": 7, "c2": 13}


def test_garbage_proposal_is_ignored():
    world, scn = make_world()
    open_chain(world)
    bad = world.entity(liquid.OPERATOR, "op1")
    world.corrupt(bad)
    liquid.menu(world, bad)["garbage-propose"]()
    cycle(world)
    assert all(operator(world, o).tip()["height"] == 0
               for o in scn["operators"][1:])


def test_only_the_round_leader_proposes():
    """In every real run, a proposal an honest operator sends in round r
    names round r and comes from the leader of r; a corrupted operator,
    which gets no ``on_round``, proposes only by the ``garbage-propose``
    menu move."""
    ops = [f"{liquid.OPERATOR}:{o}"
           for o in liquid.canonical_scenario()["operators"]]
    honest = 0
    for sched, run in real_runs("liquid"):
        events = run.trace.events
        round_of = {ev["step"]: ev["round"] for ev in events}
        corrupted_at = {ev["party"]: ev["step"] for ev in events
                        if ev["t"] == "corrupt"}
        for ev in events:
            if ev["t"] != "deliver" or ev["payload"].get("kind") != "propose":
                continue
            if ev["sent"] >= corrupted_at.get(ev["src"], ev["sent"] + 1):
                assert {"op": "menu", "role": liquid.OPERATOR,
                        "pid": ev["src"].split(":")[1],
                        "action": "garbage-propose"} in sched
                continue
            rnd = round_of[ev["sent"]]
            assert ev["payload"]["round"] == rnd
            assert ev["src"] == ops[rnd % len(ops)]
            honest += 1
    assert honest > 100


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


def test_a_vote_cannot_swap_the_block_under_a_certificate():
    """A corrupted operator (within f) votes for the leader's block X but
    ships another height-1 block Y with its votes, and they reach op1
    before the proposal does; op1 must still finalize X."""
    world, scn = make_world()
    open_chain(world)
    world.inject_input(world.entity(CLIENT, "c1"),
                       {"kind": "pay", "to": "c2", "amt": 3})
    pump(world)
    op1, op4 = (world.entity(liquid.OPERATOR, o) for o in ("op1", "op4"))
    world.corrupt(op4)
    world.advance_round()             # round 2: op3 proposes X
    [(rnd, x)] = {(e.payload["round"], digest(e.payload["block"]))
                  for e in world.pending_net()
                  if e.payload.get("kind") == "propose"}
    block_x = operator(world, "op3").blocks_seen[x]
    block_y = dict(block_x, txs=[])
    honest = [world.entity(liquid.OPERATOR, o) for o in ("op1", "op2", "op3")]
    votes = liquid.sign_branch(world, op4, block_x, rnd).values()
    for dst in honest:
        for msg in votes:
            world.queue_net(op4, dst, dict(msg, block=block_y))
    for env in world.pending_net():   # op4's votes reach op1 first
        if env.src == op4 and env.dst == op1:
            world.deliver_net(env.eid)
    late = [e for e in world.pending_net()
            if e.dst == op1 and e.payload.get("kind") == "propose"]
    while True:
        rest = [e for e in world.pending_net() if e not in late]
        if not rest:
            break
        world.deliver_net(min(e.eid for e in rest))
    pump(world)                       # the proposal reaches op1 last
    ops = [world.machines[e] for e in honest]
    assert [m.tip() for m in ops] == [block_x] * 3
    for m in ops:
        assert liquid.cert_valid(world.certs, world.sid, m.tip(),
                                 m.chain[-1]["cert"], scn["quorum"],
                                 [o.short() for o in m.operators]) == x


def two_deposits(pump_seed):
    """Both clients open, c1 deposits 3 twice a round apart, then three
    rounds pass with no delivery and one seeded pump delivers their
    proposals and votes in one batch."""
    sched = [inp("c1", kind="open"), inp("c2", kind="open"),
             inp("c1", kind="deposit", amt=3), {"op": "advance"},
             inp("c1", kind="deposit", amt=3)]
    return sched + [{"op": "advance"}] * 3 + [{"op": "pump", "seed": pump_seed}]


def test_honest_operators_agree_after_two_deposits():
    """All operators and clients honest.  While a block's digest covered
    its round and an operator final-voted every round's quorum block, op1,
    op2 and op4 finalized one height-1 block and op3 another at this pump
    seed, the real run failed safety (c1 and c2 read different height-1
    states) and ``diff_outputs`` had one entry, for client:c2."""
    scn = liquid.canonical_scenario()
    sched = two_deposits(484162) + [inp("c1", kind="read"),
                                    inp("c2", kind="read")]
    real, ideal, diffs = harness.run_differential("liquid", scn, sched)
    finals = {ev["party"]: ev["bdig"] for ev in real.trace.events
              if ev["t"] == "note" and ev.get("kind") == "block-final"
              and ev["height"] == 1}
    assert len(finals) == len(scn["operators"])
    assert len(set(finals.values())) == 1
    f = {role: budget for role, _, budget in liquid.party_roles(scn)}
    assert [properties.check_safety(run.trace, f).passed
            for run in (real, ideal)] == [True, True]
    assert diffs == []


def lock_split():
    """two_deposits at pump seed 2, then 20 closing rounds of advance,
    pump and a read by each client."""
    sched = two_deposits(2)
    for _ in range(20):
        sched += [{"op": "advance"}, {"op": "pump"},
                  inp("c1", kind="read"), inp("c2", kind="read")]
    return sched


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: no unlock rule, so a 2/2 lock "
                          "split stalls the chain")
def test_a_lock_split_does_not_stall_the_chain():
    """All operators and clients honest.  At this pump seed op1 and op4
    lock the round-2 block of height 1 and op2 and op3 the round-3 block,
    so neither gathers a 2f+1 final quorum, and a locked operator neither
    votes for nor proposes another block: every operator stays at height
    0, and update liveness fails in both runs."""
    scn = liquid.canonical_scenario()
    real, ideal, _ = harness.run_differential("liquid", scn, lock_split())
    assert all(operator(real.world, o).tip()["height"] >= 1
               for o in scn["operators"])
    params = liquid.liveness_params(scn)[UPDATE]
    assert [properties.check_liveness(run.trace, UPDATE, params).passed
            for run in (real, ideal)] == [True, True]


def test_a_refused_round_takes_a_separate_real_run():
    """On the lock split's schedule the interface's round gate refuses 14
    advances, all at round 10, so the inner world stops there while a
    real run moves on.  ``run_differential`` then returns a separate real
    run, and its trace is a stand-alone real run's."""
    scn = liquid.canonical_scenario()
    sched = lock_split()
    real, ideal, _ = harness.run_differential("liquid", scn, sched)
    assert ideal.refused == [{"round": 10, "reason": "pending-l2-work"}] * 14
    assert real.world is not ideal.sim.inner
    assert (ideal.sim.inner.round_no, real.world.round_no) == (10, 24)
    alone = harness.apply_schedule(harness.RealRun("liquid", scn), sched)
    assert real.trace.events == alone.trace.events


def test_a_truncated_run_takes_a_separate_real_run():
    """The honest seed-1 lifecycle at 150 pays: the step limit halts the
    inner world (ROADMAP item 2), the outer world runs on, and its round
    gate refuses two advances at round 308.  The real run returned is a
    separate one, cut by the step limit like the inner world."""
    scn = liquid.canonical_scenario()
    sched = harness.lifecycle_schedule("liquid", scn, 1, pays=150)
    real, ideal, _ = harness.run_differential("liquid", scn, sched)
    assert ideal.refused == [{"round": 308, "reason": "pending-l2-work"}] * 2
    assert real.world is not ideal.sim.inner
    alone = harness.apply_schedule(harness.RealRun("liquid", scn), sched)
    assert real.trace.events == alone.trace.events
    assert not real.trace.complete and not alone.trace.complete


# -- seeded agreement sweep --------------------------------------------------

# what the sweep draws: entry kinds, and the menu moves a corrupted party
# of each role can make
ENTRY_KINDS = ("pay", "deposit")
MENU_MOVES = {CLIENT: ["spam-overdraft"],
              liquid.OPERATOR: ["stale-push", "garbage-propose"]}

# digest of the 150 (scenario, schedule) pairs per mode, recorded from the
# generator the sweep's counts in ROADMAP.md were measured with
SWEEP_DIGESTS = {
    False: "c9303536e4ca62a01436c538264a5ef2ac80f4db84d58b93fbe2ab5754f6a099",
    True: "92e2ca22e9e2099486347a842bf1788f5220b36fe6cdaec181139710e07acfa3",
}


# how many of the 150 schedules freeze the ideal clock, per mode
FROZEN = {False: 29, True: 24}
# seeds whose two runs answer a request differently (ROADMAP item 21): the
# interface refuses at submit, as insufficient or out of phase, a request
# that the real client queues; the outputs agree.  Item 21's one refusal
# rule empties these lists
REQUESTS_DIFFER = {False: [11, 16, 97, 122, 135, 142], True: [122]}


def sweep_schedule(seed, corrupt):
    return random_schedule("liquid", seed, corrupt, ENTRY_KINDS, MENU_MOVES)


@pytest.mark.parametrize("corrupt", [False, True], ids=["honest", "corrupt"])
def test_the_sweep_draws_the_same_schedules(corrupt):
    got = [sweep_schedule(seed, corrupt) for seed in range(150)]
    assert digest(got) == SWEEP_DIGESTS[corrupt]


def honest_forks(world):
    """Heights at which honest operators' block-final notes name two
    digests."""
    bad = properties.summarize(world.trace).corrupted
    named = {}
    for ev in world.trace.events:
        if ev["t"] == "note" and ev.get("kind") == "block-final" \
                and ev["party"] not in bad:
            named.setdefault(ev["height"], set()).add(ev["bdig"])
    return sorted(h for h, digs in named.items() if len(digs) > 1)


@pytest.mark.parametrize("corrupt", [False, True], ids=["honest", "corrupt"])
def test_seeded_schedules_keep_operators_and_runs_in_agreement(corrupt):
    """Over 150 seeded schedules, honest operators of the real run and of
    the simulator's copy never finalize two blocks at one height, the
    real and ideal outputs are equal, both runs get the same safety
    verdict, and both get the same update-liveness verdict unless the
    ideal clock froze.

    A schedule is frozen when the ideal run's outer round ends behind the
    real run's: the interface's round gate refused a round, and the ideal
    run judged fewer rounds (ROADMAP item 2).  29 honest and 24 corrupt
    schedules freeze, and they are exactly the schedules whose ideal run
    records a refused round; the corrupt frozen seeds 101 and 109 get
    different update-liveness verdicts, because the two runs judge
    different requests.  That parity is item 2's.  Both runs answer every
    request alike except in the pinned seeds.  The real run is a
    separate one, and in every schedule that does not freeze the ideal
    run's inner world writes the real trace."""
    failures = {"fork": [], "outputs": [], "safety": [], "liveness-update": [],
                "requests": []}
    frozen, refused = [], []
    for seed in range(150):
        scn, sched = sweep_schedule(seed, corrupt)
        real, ideal, diffs = separate_runs("liquid", scn, sched)
        if honest_forks(real.world) or honest_forks(ideal.sim.inner):
            failures["fork"].append(seed)
        if diffs:
            failures["outputs"].append(seed)
        if request_rows(real.trace) != request_rows(ideal.trace):
            failures["requests"].append(seed)
        f = {role: budget for role, _, budget in liquid.party_roles(scn)}
        if len({properties.check_safety(run.trace, f).passed
                for run in (real, ideal)}) > 1:
            failures["safety"].append(seed)
        params = liquid.liveness_params(scn)[UPDATE]
        if ideal.refused:
            refused.append(seed)
        if ideal.outer.round_no < real.world.round_no:
            frozen.append(seed)
        elif len({
                properties.check_liveness(run.trace, UPDATE, params).passed
                for run in (real, ideal)}) > 1:
            failures["liveness-update"].append(seed)
    assert failures == {"fork": [], "outputs": [], "safety": [],
                        "liveness-update": [],
                        "requests": REQUESTS_DIFFER[corrupt]}
    assert refused == frozen
    assert len(frozen) == FROZEN[corrupt]


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


def test_bundle_admits_only_a_deposit_before_the_open():
    """A deposit is an L1 transfer the real client makes in any phase, so
    the interface queues a peg-in before the open too; every other update
    or settlement request is refused there."""
    world, scn = make_world()
    bundle = liquid.make_bundle(world, scn)
    ist = InternalState(identities={CLIENT: list(scn["clients"]),
                                    liquid.OPERATOR: list(scn["operators"])})
    ctx = Ctx(world, world.entity(INTERFACE_ROLE, "F"))

    def submit(kind, **body):
        return bundle.submit(ist, {"kind": kind, "body": body, "by": "c1",
                                   "round": 0}, ctx)

    assert ist.phase() == "init"
    assert submit(UPDATE, op="peg-in", amt=2) == (True, None)
    assert submit(UPDATE, op="pay", to="c2", amt=1) == (False, "phase")
    assert submit(UPDATE, op="bogus", amt=1) == (False, "unknown-kind")
    assert submit(SETTLEMENT, op="peg-out", amt=1) == (False, "phase")


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
    assert world.ledger.buried(dep) == (depth >= TIMING["confirm_depth"])


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



def test_clients_buffer_only_heights_above_their_chain():
    # a push for a height the client already holds is never read again
    scn = liquid.canonical_scenario()
    run = harness.apply_schedule(
        harness.RealRun("liquid", scn),
        harness.lifecycle_schedule("liquid", scn, 1, pays=40))
    clients = [run.world.machines[e] for e in run.world.roles[CLIENT]]
    assert clients
    for m in clients:
        assert m.height() > 0
        assert all(h > m.height() for h in m.buffer), m.me.short()


def test_cert_valid_digests_the_block_and_each_phase_once(monkeypatch):
    # however many refs a certificate holds, checking it digests at most
    # the block and the two phase messages; and a registry digests each
    # distinct phase message once, however many operators sign or check it
    calls, per_call = [0], []
    phase_digests, registries = Counter(), {}
    original = trace.digest

    def counted(obj):
        calls[0] += 1
        return original(obj)

    monkeypatch.setattr(base, "digest", counted)     # the registry's digests
    cert_valid, message = liquid.cert_valid, base.CertRegistry.message

    def measured(*args):
        before = calls[0]
        out = cert_valid(*args)
        per_call.append(calls[0] - before)
        return out

    def recorded(certs, *parts):
        before = calls[0]
        out = message(certs, *parts)
        if parts[0] in ("pre", "fin"):
            registries[id(certs)] = certs    # kept alive, so ids stay distinct
            phase_digests[id(certs), canon(list(parts))] += calls[0] - before
        return out

    monkeypatch.setattr(liquid, "cert_valid", measured)
    monkeypatch.setattr(base.CertRegistry, "message", recorded)
    scn = liquid.canonical_scenario()
    schedules = list(harness.scripted_schedules("liquid", scn).values())
    schedules.append(harness.lifecycle_schedule("liquid", scn, 1, pays=12,
                                                adversarial=True))
    for sched in schedules:     # two executions, each with its registry
        for run in (harness.RealRun("liquid", scn),
                    harness.IdealRun("liquid", scn)):
            harness.apply_schedule(run, sched)
    assert len(per_call) > 100
    assert max(per_call) <= 3
    assert len(phase_digests) > 100
    assert set(phase_digests.values()) == {1}


def test_a_stale_push_after_two_blocks_leaves_every_client_chain():
    """The ``stale-push`` menu move sends only once its operator's chain
    holds a block, and a corrupted operator's chain freezes when it is
    corrupted; every schedule that draws the move corrupts before the
    first block, so there it does nothing.  Here op2 is corrupted after
    two blocks: each client receives block 1 again, keeps its chain, both
    runs' outputs agree and so do their verdicts."""
    scn = liquid.canonical_scenario()
    blocks = ([inp("c1", kind="open"), inp("c2", kind="open")]
              + [{"op": "advance"}, {"op": "pump"}] * 4
              + [inp("c1", kind="pay", to="c2", amt=2)]
              + [{"op": "advance"}, {"op": "pump"}] * 3
              + [inp("c2", kind="pay", to="c1", amt=1)]
              + [{"op": "advance"}, {"op": "pump"}] * 3)
    push = [{"op": "corrupt", "role": liquid.OPERATOR, "pid": "op2"},
            {"op": "menu", "role": liquid.OPERATOR, "pid": "op2",
             "action": "stale-push"}, {"op": "pump"}]
    rest = ([{"op": "advance"}, {"op": "pump"}] * 2
            + [inp("c1", kind="read"), inp("c2", kind="read")])

    run = harness.apply_schedule(harness.RealRun("liquid", scn), blocks)
    world = run.world
    assert len(operator(world, "op2").chain) == 3
    chains = {pid: list(client(world, pid).chain) for pid in scn["clients"]}
    assert all(len(chain) == 3 for chain in chains.values())
    start = len(world.trace.events)
    harness.apply_schedule(run, push)
    pushed = [ev for ev in world.trace.events[start:] if ev["t"] == "deliver"
              and ev["payload"].get("kind") == "block-push"]
    assert sorted((ev["src"], ev["dst"]) for ev in pushed) \
        == [("operator:op2", "client:c1"), ("operator:op2", "client:c2")]
    assert all(ev["payload"]["entry"]["block"]["height"] == 1
               for ev in pushed)
    for pid in scn["clients"]:
        assert client(world, pid).chain == chains[pid]

    real, ideal, diffs = separate_runs("liquid", scn, blocks + push + rest)
    assert diffs == []
    verdicts = [[(v.name, v.passed) for v in all_checks("liquid", scn, r.trace)
                 if isinstance(v, properties.Verdict)] for r in (real, ideal)]
    assert verdicts[0] == verdicts[1]
