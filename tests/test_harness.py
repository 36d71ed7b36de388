"""Real-vs-ideal differential checks driven through the schedule harness.

Every scripted scenario and a band of seeded lifecycles must produce the
same per-party output stream in both stackings; the remaining tests pin
the harness mechanics that make that comparison meaningful.
"""

import types

import pytest

from l2sim import arbitrum, brick, harness, liquid, properties
from l2sim.base import Ledger
from l2sim.core import CLIENT, UPDATE
from l2sim.properties import as_trace
from l2sim.runtime import ScheduleError, World
from l2sim.trace import IntegrityError, Trace, canon, canon_loose
from seeded_schedules import real_runs, request_rows
from test_checks import scripted_traces
from test_schema import lifecycle_runs
from l2sim.harness import (
    GARBAGE_TRIGGERS,
    IdealRun,
    RealRun,
    apply_schedule,
    diff_outputs,
    lifecycle_schedule,
    output_projection,
    protocol,
    run_differential,
    scripted_schedules,
)

PROTOCOLS = sorted(harness.PROTOCOLS)

COMMON_LABELS = [
    "open-only", "single-pay", "pay-both-directions", "pay-race-same-step",
    "pay-pipeline", "read-heavy", "shuffled-delivery", "no-pump-delta-flush",
    "overdraft-refused", "settle-fresh", "settle-after-traffic",
    "garbage-triggers",
]


def corpus():
    out = []
    for name in PROTOCOLS:
        scn = protocol(name).canonical_scenario()
        for label in scripted_schedules(name, scn):
            out.append((name, label))
    return out


@pytest.mark.parametrize("name,label", corpus())
def test_scripted_scenario_outputs_match(name, label):
    scn = protocol(name).canonical_scenario()
    sched = scripted_schedules(name, scn)[label]
    real, ideal, diffs = run_differential(name, scn, sched)
    assert diffs == []


@pytest.mark.parametrize("name", PROTOCOLS)
def test_corpus_has_at_least_twelve_scenarios(name):
    scn = protocol(name).canonical_scenario()
    scheds = scripted_schedules(name, scn)
    assert len(scheds) >= 12
    for label in COMMON_LABELS:
        assert label in scheds


@pytest.mark.parametrize("name", PROTOCOLS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("adversarial", [False, True])
def test_seeded_lifecycle_outputs_match(name, seed, adversarial):
    scn = protocol(name).canonical_scenario()
    sched = lifecycle_schedule(name, scn, seed, adversarial=adversarial)
    real, ideal, diffs = run_differential(name, scn, sched)
    assert diffs == []


def reference_projection(trace):
    """output_projection as it was before it shared the evidence keys of
    ``properties``: one ``canon`` per executed entry of every read."""
    per = {}
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        p = ev["payload"]
        kind = p.get("kind")
        if kind == "read-result":
            item = {"kind": kind, "base": p.get("base", 0),
                    "settled": p.get("settled"),
                    "executed": [[e.get("kind"), e.get("seq"),
                                  canon(e.get("state"))]
                                 for e in p.get("executed", ())]}
        elif kind in ("open-ok", "settle-ok"):
            item = {"kind": kind, "state": p.get("state")}
        else:
            item = {"kind": kind, "raw": canon(p)}
        per.setdefault(ev["party"], []).append(item)
    return per


# the exact keys of the outputs that repeat nothing the reader's whole view
# gives: no tip state or pointer on a read, no constant flag on a settle-ok
OUTPUT_KEYS = {"read-result": {"kind", "base", "executed", "settled"},
               "settle-ok": {"kind", "state"}}


def assert_exact_output_keys(trace):
    for ev in trace.events:
        if ev["t"] == "output" and ev["payload"]["kind"] in OUTPUT_KEYS:
            assert set(ev["payload"]) == OUTPUT_KEYS[ev["payload"]["kind"]]


# the golden lifecycles of tests/test_golden.py
GOLDEN_LIFECYCLES = [(name, seed, adversarial) for name in PROTOCOLS
                     for seed in (1, 2, 3) for adversarial in (False, True)]


@pytest.mark.parametrize("name, label", corpus())
def test_projection_matches_reference_on_scripted(name, label):
    scn = protocol(name).canonical_scenario()
    real, ideal, _ = run_differential(name, scn,
                                      scripted_schedules(name, scn)[label])
    for run in (real, ideal):
        assert output_projection(run.trace) == reference_projection(run.trace)
        assert_exact_output_keys(run.trace)


@pytest.mark.parametrize("name, seed, adversarial", GOLDEN_LIFECYCLES)
def test_projection_matches_reference_on_lifecycles(name, seed, adversarial):
    scn = protocol(name).canonical_scenario()
    sched = lifecycle_schedule(name, scn, seed, pays=10,
                               adversarial=adversarial)
    real, ideal, _ = run_differential(name, scn, sched)
    for run in (real, ideal):
        got = output_projection(run.trace)
        assert got == reference_projection(run.trace)
        assert_exact_output_keys(run.trace)
        assert any(o["kind"] == "read-result"
                   and o["base"] + len(o["executed"]) > 2
                   for outs in got.values() for o in outs)


def environment_inputs(trace):
    """(party, payload) of each input the environment handed a party."""
    return [(ev["party"], ev["payload"]) for ev in trace.events
            if ev["t"] == "input" and not ev["forced"]]


@pytest.mark.parametrize("name, label, seed, adversarial", [
    (name, label, None, None) for name, label in corpus()] + [
    (name, None, seed, adversarial)
    for name, seed, adversarial in GOLDEN_LIFECYCLES])
def test_both_runs_get_the_same_inputs_and_requests(name, label, seed,
                                                    adversarial):
    """The environment hands the real clients and the interface the very
    same entries, and ``properties.requests`` reads them by one path: on
    every scripted schedule and golden lifecycle, both runs ask the same
    requests in the same rounds and refuse the same ones."""
    real, ideal = (scripted_traces(name, label) if label is not None
                   else lifecycle_runs(name, seed, adversarial)[1])
    assert environment_inputs(real) == environment_inputs(ideal)
    assert request_rows(real) == request_rows(ideal)
    assert request_rows(real)


@pytest.mark.parametrize("name, label, seed, adversarial", [
    (name, label, None, None) for name, label in corpus()] + [
    (name, None, seed, adversarial)
    for name, seed, adversarial in GOLDEN_LIFECYCLES])
def test_both_runs_answer_a_request_with_one_note(name, label, seed,
                                                  adversarial):
    """Both runs answer in one format: no ``submit-result`` is left, and
    an answer is a ``request-queued`` or ``request-refused`` note whose
    ``req`` is its request's entry word.  Every honest answer pairs with a
    request, and the interface answers every request at once."""
    real, ideal = (scripted_traces(name, label) if label is not None
                   else lifecycle_runs(name, seed, adversarial)[1])
    for trace in (real, ideal):
        assert all(ev["t"] != "submit-result" for ev in trace.events)
        s = properties.summarize(trace)
        answered = [r for r in s.requests if r["note"] is not None]
        assert all(r["note"]["t"] == "note" and r["note"]["req"] == r["what"]
                   for r in answered)
        answers = [ev for ev in trace.events if ev["t"] == "note"
                   and ev["kind"] in ("request-queued", "request-refused")
                   and ev["party"] not in s.corrupted]
        assert len(answers) == len(answered)
    assert all(r["note"] is not None
               for r in properties.summarize(ideal).requests)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_single_pay_is_not_vacuous(name):
    # the equality above would hold trivially if nothing ever happened, so
    # pin that the payment scenario really moves state through a read
    scn = protocol(name).canonical_scenario()
    sched = scripted_schedules(name, scn)["single-pay"]
    real, ideal, diffs = run_differential(name, scn, sched)
    assert diffs == []
    per = output_projection(real.trace)
    for pid in scn["clients"]:
        outs = per[f"client:{pid}"]
        kinds = [o["kind"] for o in outs]
        assert kinds.count("read-result") == 2
        assert outs[-1]["base"] + len(outs[-1]["executed"]) > \
            outs[1]["base"] + len(outs[1]["executed"])


@pytest.mark.parametrize("name", PROTOCOLS)
def test_settlement_scenario_reaches_settle_ok(name):
    scn = protocol(name).canonical_scenario()
    sched = scripted_schedules(name, scn)["settle-after-traffic"]
    real, ideal, diffs = run_differential(name, scn, sched)
    assert diffs == []
    kinds = [o["kind"]
             for outs in output_projection(real.trace).values()
             for o in outs]
    assert "settle-ok" in kinds


@pytest.mark.parametrize("name", PROTOCOLS)
def test_worlds_stay_in_lockstep(name):
    scn = protocol(name).canonical_scenario()
    sched = scripted_schedules(name, scn)["shuffled-delivery"]
    real = apply_schedule(RealRun(name, scn), sched)
    ideal = apply_schedule(IdealRun(name, scn), sched)
    assert ideal.outer.round_no == ideal.sim.inner.round_no
    assert ideal.sim.inner.round_no == real.world.round_no
    # identical machine activity implies identical envelope numbering
    assert ideal.sim.inner.eid_counter == real.world.eid_counter


@pytest.mark.parametrize("name", PROTOCOLS)
def test_only_the_ledgers_own_world_ticks_it(name, monkeypatch):
    """The world a ledger is built with, the first on it, reaches every
    round first: it ticks the ledger once per round, inside its advance,
    and the ideal run's inner world only polls the blocks."""
    advancing, ticked = [], []
    tick, advance = Ledger.tick, World.advance_round

    def tracked(world):
        advancing.append(world)
        try:
            return advance(world)
        finally:
            advancing.pop()

    def recorded(ledger):
        ticked.append(advancing[-1])
        tick(ledger)

    monkeypatch.setattr(World, "advance_round", tracked)
    monkeypatch.setattr(Ledger, "tick", recorded)
    scn = protocol(name).canonical_scenario()
    sched = scripted_schedules(name, scn)["single-pay"]
    real = apply_schedule(RealRun(name, scn), sched)
    ideal = apply_schedule(IdealRun(name, scn), sched)
    assert ticked == [real.world] * real.world.round_no \
        + [ideal.outer] * ideal.outer.round_no
    for world in (real.world, ideal.outer, ideal.sim.inner):
        ledger = world.ledger
        assert ledger.round == ledger.height == world.round_no > 0


@pytest.mark.parametrize("name", PROTOCOLS)
def test_the_differential_returns_the_inner_world_as_the_real_run(name):
    """Over every scripted schedule and golden lifecycle, the ideal run
    refuses no round, so ``run_differential`` runs the protocol once: the
    real run it returns is the ideal run's inner world, and its trace is
    a stand-alone real run's."""
    scn = protocol(name).canonical_scenario()
    for sched, alone in real_runs(name):
        real, ideal, _ = run_differential(name, scn, sched)
        assert ideal.refused == []
        assert real.world is ideal.sim.inner
        assert real.trace.events == alone.trace.events


CLIENT_CLASSES = {"brick": brick.BrickClient, "liquid": liquid.LiquidClient,
                  "arbitrum": arbitrum.ArbitrumClient}


@pytest.mark.parametrize("name", PROTOCOLS)
def test_each_client_polls_once_per_advance(name, monkeypatch):
    cls = CLIENT_CLASSES[name]
    recheck, advance = cls._recheck, World.advance_round
    calls, polled = [], []

    def counted(me, ctx):
        calls.append(me.me)
        recheck(me, ctx)

    def checked(world):
        calls.clear()
        ok = advance(world)
        want = [m.me for m in world.machines.values()
                if ok and isinstance(m, cls) and m.me not in world.corruption]
        assert calls == want
        polled.extend(want)
        return ok

    monkeypatch.setattr(cls, "_recheck", counted)
    monkeypatch.setattr(World, "advance_round", checked)
    scn = protocol(name).canonical_scenario()
    run_differential(name, scn, scripted_schedules(name, scn)["single-pay"])
    assert polled


def client_resubmits(trace):
    """(author, txid) of each accepted ledger submit by a client that
    repeats one the same client already made."""
    seen, again = set(), []
    for ev in trace.events:
        if ev["t"] == "ledger-submit" and ev["accepted"] \
                and ev["author"].startswith(f"{CLIENT}:"):
            key = (ev["author"], ev["txid"])
            if key in seen:
                again.append(key)
            seen.add(key)
    return again


@pytest.mark.parametrize("name, label",
                         corpus() + [("arbitrum", seed) for seed in (1, 2, 3)])
def test_no_client_resubmits_an_accepted_txid(name, label):
    """A self-published batch, a deposit or a close goes to the ledger once:
    the arbitrum entries are the adversarial lifecycles (pays=10)."""
    scn = protocol(name).canonical_scenario()
    schedule = (lifecycle_schedule(name, scn, label, pays=10, adversarial=True)
                if isinstance(label, int) else scripted_schedules(name, scn)[label])
    real, ideal, _ = run_differential(name, scn, schedule)
    assert client_resubmits(real.trace) == []
    assert client_resubmits(ideal.trace) == []


@pytest.mark.parametrize("name", PROTOCOLS)
def test_events_are_not_changed_after_they_are_emitted(name, monkeypatch):
    """Events hold payloads and ledger bodies by reference, and the ledger
    does not check a txid again at commit: nothing may change either once
    it is in the trace.  Over the scripted suite and one adversarial
    lifecycle, each event keeps the canonical text it had at emission."""
    emitted = []
    init = Trace.__init__

    def observed(trace, header=None):
        init(trace, header)
        trace.observers.append(lambda ev: emitted.append((ev, canon(ev))))

    monkeypatch.setattr(Trace, "__init__", observed)
    scn = protocol(name).canonical_scenario()
    schedules = list(scripted_schedules(name, scn).values())
    schedules.append(lifecycle_schedule(name, scn, 1, pays=10, adversarial=True))
    for schedule in schedules:
        run_differential(name, scn, schedule)
        assert emitted
        assert [text for _, text in emitted] == [canon(ev) for ev, _ in emitted]
        emitted.clear()


@pytest.mark.parametrize("name", PROTOCOLS)
def test_an_observer_sees_exactly_the_trace(name, monkeypatch):
    """Every writer goes through ``Trace.emit``: over the scripted suite an
    observer on each trace gets the very event objects of ``trace.events``,
    in order, and the suite writes every kind the runtime builds itself."""
    seen = {}
    init = Trace.__init__

    def observed(trace, header=None):
        init(trace, header)
        trace.observers.append(seen.setdefault(trace, []).append)

    monkeypatch.setattr(Trace, "__init__", observed)
    scn = protocol(name).canonical_scenario()
    kinds = set()
    for schedule in scripted_schedules(name, scn).values():
        seen.clear()
        real, ideal, _ = run_differential(name, scn, schedule)
        for trace in (real.trace, ideal.trace):
            got = seen[trace]
            assert len(got) == len(trace.events)
            assert all(a is b for a, b in zip(got, trace.events))
            kinds.update(ev["t"] for ev in got)
    assert {"deliver", "absorb", "output", "note", "input"} <= kinds


@pytest.mark.parametrize("name,label", corpus())
def test_a_world_keeps_its_notes(name, label, monkeypatch):
    """A world keeps its notes in its trace alone, and the simulator
    observes the inner trace: on every scripted schedule the notes handed
    to ``Hooks.triggers_for`` are the very ``note`` events of the inner
    trace, once each, in trace order, and each is the inner trace's last
    event when it is handed over.  No world keeps a note list and the
    simulator keeps no cursor."""
    hooks = protocol(name).Hooks
    triggers_for = hooks.triggers_for
    handed = []

    def observed(self, inner, ev):
        assert inner.trace.events[-1] is ev
        handed.append(ev)
        return triggers_for(self, inner, ev)

    monkeypatch.setattr(hooks, "triggers_for", observed)
    scn = protocol(name).canonical_scenario()
    ideal = apply_schedule(IdealRun(name, scn),
                           scripted_schedules(name, scn)[label])
    notes = [ev for ev in ideal.sim.inner.trace.events if ev["t"] == "note"]
    assert notes
    assert len(handed) == len(notes)
    assert all(a is b for a, b in zip(handed, notes))
    for obj in (ideal.outer, ideal.sim.inner, ideal.sim):
        assert not {"notes", "cursor", "read_delay"} & set(vars(obj))


def test_a_rollup_exit_is_submitted_after_the_update_its_note_triggers():
    """In the ideal trace of the rollup's ``withdraw-exit``, the update
    that the round-22 ``batch-final`` notes trigger executes before the
    exit's ``settle`` reaches the ledger, as the notes come first in the
    inner round sweep."""
    scn = protocol("arbitrum").canonical_scenario()
    ideal = apply_schedule(IdealRun("arbitrum", scn),
                           scripted_schedules("arbitrum", scn)["withdraw-exit"])
    events = ideal.trace.events
    (update,) = [i for i, ev in enumerate(events) if ev["t"] == "exec"
                 and ev["kind"] == UPDATE and ev["round"] == 22]
    (settle,) = [i for i, ev in enumerate(events) if ev["t"] == "ledger-submit"
                 and ev["kind"] == "settle"]
    assert update < settle


@pytest.mark.parametrize("name", PROTOCOLS)
def test_a_cloned_outer_world_reads_through_its_own_simulator(name):
    """The interface's read answer is the simulator's method, so a clone of
    an ideal run's outer world answers reads from the inner world that the
    clone copied along with the shared ledger, not from the original."""
    scn = protocol(name).canonical_scenario()
    ideal = apply_schedule(IdealRun(name, scn),
                           scripted_schedules(name, scn)["single-pay"])
    twin = ideal.outer.clone()
    (inner,) = [w for w in twin.ledger.worlds if w is not twin]
    sim = twin.owners[ideal.sim.funct].read_delay.__self__
    assert sim is not ideal.sim and (sim.outer, sim.inner) == (twin, inner)
    assert inner.trace.observers == [sim.sync]


def test_a_clone_copies_no_trace_of_another_world():
    """``World.clone`` copies every world on the ledger, but no world's
    events: the twin ledger's inner world starts with an empty trace that
    the copied simulator observes, and the original inner trace keeps its
    events and its observer."""
    scn = protocol("arbitrum").canonical_scenario()
    ideal = apply_schedule(IdealRun("arbitrum", scn),
                           scripted_schedules("arbitrum", scn)["single-pay"])
    inner = ideal.sim.inner
    events = list(inner.trace.events)
    assert len(events) == 59
    twin = ideal.outer.clone()
    (copied,) = [w for w in twin.ledger.worlds if w is not twin]
    assert copied.trace.events == []
    (sync,) = copied.trace.observers
    assert sync.__func__ is harness.Simulator.sync
    assert sync.__self__ is not ideal.sim and sync.__self__.inner is copied
    assert inner.trace.events == events
    assert inner.trace.observers == [ideal.sim.sync]


@pytest.mark.parametrize("name", PROTOCOLS)
def test_short_names_are_role_and_pid(name):
    ideal = IdealRun(name)
    real = RealRun(name)
    for world in (real.world, ideal.outer, ideal.sim.inner):
        for ent in world.owners:
            assert ent.short() == ent.short() == f"{ent.role}:{ent.pid}"
    assert ideal.sim.adv.short() == "adv:sim"


@pytest.mark.parametrize("name", PROTOCOLS)
def test_differential_is_deterministic(name):
    scn = protocol(name).canonical_scenario()
    sched = scripted_schedules(name, scn)["pay-race-same-step"]
    a = output_projection(apply_schedule(RealRun(name, scn), sched).trace)
    b = output_projection(apply_schedule(RealRun(name, scn), sched).trace)
    assert a == b
    c = output_projection(apply_schedule(IdealRun(name, scn), sched).trace)
    d = output_projection(apply_schedule(IdealRun(name, scn), sched).trace)
    assert c == d


def test_bare_advances_agree_with_pumped_delivery():
    # regression: with no explicit pumping the synchrony flush is the only
    # transport, and the shared chain must not extend past the protocol's
    # deliveries for the same round on either side of the stack
    scn = protocol("brick").canonical_scenario()
    sched = scripted_schedules("brick", scn)["no-pump-delta-flush"]
    real, ideal, diffs = run_differential("brick", scn, sched)
    assert diffs == []
    outs = output_projection(real.trace)["client:c1"]
    assert outs[-1]["kind"] == "read-result"
    views = [v for v in properties.summarize(real.trace).views
             if v.party == "client:c1"]
    assert [e["seq"] for e in views[-1].executed] == [0, 1]


# ROADMAP item 4 (fuzz the environment): its schedules always open both
# clients, so they never reach a lone open, which only the real account
# runs confirm; which run is right is that item's triage
LONE_OPEN_SPLITS = {"liquid", "arbitrum"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 4: a lone open is confirmed by the real run "
        "only")) if name in LONE_OPEN_SPLITS else name
    for name in PROTOCOLS])
def test_a_lone_open_gets_the_same_outputs_in_both_runs(name):
    scn = protocol(name).canonical_scenario()
    sched = [{"op": "input", "pid": scn["clients"][0],
              "entry": {"kind": "open"}}]
    sched += [{"op": op} for _ in range(16) for op in ("advance", "pump")]
    real, ideal, diffs = run_differential(name, scn, sched)
    opened = [[ev["party"] for ev in run.trace.events if ev["t"] == "output"
               and ev["payload"]["kind"] == "open-ok"]
              for run in (real, ideal)]
    assert opened[0] == opened[1]
    assert diffs == []


@pytest.mark.parametrize("name", ["liquid", "arbitrum"])
def test_a_deposit_before_the_open_is_judged_alike_in_both_runs(name):
    """The real client makes an L1 deposit in any phase.  While the
    interface refused a peg-in before the open, the real run judged one
    more deposit request than the ideal run: in liquid it judged 1
    request and the ideal run 0, and in arbitrum its ``beyond_horizon``
    was 1 and the ideal run's 0."""
    scn = protocol(name).canonical_scenario()
    sched = [{"op": "input", "pid": "c1",
              "entry": {"kind": "deposit", "amt": 2}}]
    sched += [{"op": "input", "pid": c, "entry": {"kind": "open"}}
              for c in scn["clients"]]
    for _ in range(16):
        sched += [{"op": "advance"}, {"op": "pump"}]
        sched += [{"op": "input", "pid": c, "entry": {"kind": "read"}}
                  for c in scn["clients"]]
    real, ideal, diffs = run_differential(name, scn, sched)
    assert diffs == []
    params = protocol(name).liveness_params(scn)[UPDATE]
    real_v, ideal_v = (properties.check_liveness(run.trace, UPDATE, params)
                       for run in (real, ideal))
    assert real_v.to_record() == ideal_v.to_record()
    assert real_v.params["judged"] + real_v.params["beyond_horizon"] == 1


def test_corrupted_client_inputs_absorbed_in_both_worlds():
    scn = protocol("brick").canonical_scenario()
    scheds = scripted_schedules("brick", scn)
    sched = (scheds["open-only"]
             + [{"op": "corrupt", "role": "client", "pid": "c2"}]
             + [{"op": "input", "pid": "c2",
                 "entry": {"kind": "pay", "to": "c1", "amt": 1}}]
             + [{"op": "advance"}, {"op": "pump"}]
             + [{"op": "input", "pid": "c1", "entry": {"kind": "read"}}])
    real, ideal, diffs = run_differential("brick", scn, sched)
    assert diffs == []


def test_garbage_triggers_leave_no_output():
    scn = protocol("liquid").canonical_scenario()
    base = scripted_schedules("liquid", scn)["open-only"]
    garbage = [{"op": "raw-trigger", "payload": dict(g)}
               for g in GARBAGE_TRIGGERS]
    plain = apply_schedule(IdealRun("liquid", scn), base)
    noisy = apply_schedule(IdealRun("liquid", scn), base + garbage)
    assert output_projection(plain.trace) == output_projection(noisy.trace)


def test_unknown_schedule_op_rejected():
    scn = protocol("brick").canonical_scenario()
    with pytest.raises(ScheduleError):
        apply_schedule(RealRun("brick", scn), [{"op": "warp"}])


# a value no trace can hold, with a repr that names no address
OPAQUE = types.SimpleNamespace()

# each shape of malformed step; before apply_schedule checked every step,
# these raised AttributeError, KeyError or ValueError part-way through,
# the steps naming a party the run lacks a ScheduleError or a
# CorruptionError part-way through, and the raw triggers left an ideal
# trace whose digest raised TypeError
MALFORMED_STEPS = [
    "advance",
    None,
    ["op", "advance"],
    {},
    {"op": None},
    {"op": ["advance"]},
    {"op": "warp"},
    {"op": "input", "entry": {"kind": "read"}},
    {"op": "input", "pid": 1, "entry": {"kind": "read"}},
    {"op": "input", "pid": "c1"},
    {"op": "corrupt", "pid": "c1"},
    {"op": "corrupt", "role": "client"},
    {"op": "corrupt", "role": "client", "pid": "c1", "force": 1},
    {"op": "menu", "pid": "c1", "action": "x"},
    {"op": "menu", "role": "client", "action": "x"},
    {"op": "menu", "role": "client", "pid": "c1"},
    {"op": "raw-trigger"},
    {"op": "pump", "seed": "7"},
    {"op": "pump", "seed": True},
    {"op": "input", "pid": "zz", "entry": {"kind": "read"}},
    {"op": "corrupt", "role": "client", "pid": "zz"},
    {"op": "corrupt", "role": "nobody", "pid": "c1"},
    {"op": "raw-trigger", "payload": {1, 2}},
    {"op": "raw-trigger", "payload": OPAQUE},
    {"op": "raw-trigger", "payload": {"kind": "open", "body": {"x": {3}}}},
]


@pytest.mark.parametrize("step", MALFORMED_STEPS,
                         ids=[canon_loose(s) for s in MALFORMED_STEPS])
def test_malformed_steps_raise_schedule_error(step):
    scn = protocol("brick").canonical_scenario()
    base = scripted_schedules("brick", scn)["open-only"]
    for run in (RealRun("brick", scn), IdealRun("brick", scn)):
        before = len(run.trace.events)
        with pytest.raises(ScheduleError):
            apply_schedule(run, base + [step] + base)
        assert len(run.trace.events) == before     # checked before step one


# menu steps that both runs used to play: a warden's sends in the name of
# an uncorrupted party, or a silent no-op for an action its menu lacks
CORRUPT_W1 = {"op": "corrupt", "role": "warden", "pid": "w1"}
MENU_W1 = {"op": "menu", "role": "warden", "pid": "w1",
           "action": "ack-garbage"}
BAD_MENU_STEPS = {
    "party-not-corrupted": [MENU_W1],
    "party-corrupted-later": [MENU_W1, CORRUPT_W1],
    "other-party-corrupted": [dict(CORRUPT_W1, pid="w2"), MENU_W1],
    "unknown-action": [CORRUPT_W1, dict(MENU_W1, action="nope")],
    "action-of-another-role": [
        {"op": "corrupt", "role": "client", "pid": "c2"},
        dict(MENU_W1, role="client", pid="c2")],
}


@pytest.mark.parametrize("flavor", [RealRun, IdealRun])
@pytest.mark.parametrize("label", list(BAD_MENU_STEPS))
def test_bad_menu_steps_raise_schedule_error(label, flavor):
    scn = protocol("brick").canonical_scenario()
    base = scripted_schedules("brick", scn)["open-only"]
    run = flavor("brick", scn)
    before = len(run.trace.events)
    with pytest.raises(ScheduleError):
        apply_schedule(run, base + BAD_MENU_STEPS[label] + base)
    assert len(run.trace.events) == before         # checked before step one


# (entry, protocols it is malformed for); most of them crashed a client
# or the ideal request translation before apply_schedule checked entries,
# and an undeclared field that no trace can hold left both traces with a
# digest that raised TypeError
MALFORMED_ENTRIES = [
    ({"kind": "pay"}, PROTOCOLS),
    ({"kind": "pay", "to": "c2"}, PROTOCOLS),
    ({"kind": "pay", "to": "c2", "amt": "1"}, PROTOCOLS),
    ({"kind": "pay", "to": "c2", "amt": True}, PROTOCOLS),
    ({"kind": "deposit"}, ["arbitrum", "liquid"]),
    ({"kind": "deposit", "amt": 2.0}, ["arbitrum", "liquid"]),
    ({"kind": "settle"}, ["arbitrum", "liquid"]),
    ({"kind": "settle", "amt": None}, ["arbitrum", "liquid"]),
    ({}, PROTOCOLS),
    ("pay", PROTOCOLS),
    ({"kind": "read", "note": {1}}, PROTOCOLS),
    ({"kind": "pay", "to": "c2", "amt": 1, "memo": OPAQUE}, PROTOCOLS),
    ({"kind": "settle", "amt": 1, "seq": 0, "why": [{2}]}, PROTOCOLS),
]


@pytest.mark.parametrize("name", PROTOCOLS)
@pytest.mark.parametrize("entry, bad", MALFORMED_ENTRIES,
                         ids=[canon_loose(e) for e, _ in MALFORMED_ENTRIES])
def test_malformed_entries_raise_schedule_error(name, entry, bad):
    scn = protocol(name).canonical_scenario()
    base = scripted_schedules(name, scn)["open-only"]
    sched = base + [{"op": "input", "pid": "c1", "entry": entry}] + base
    if name not in bad:
        assert run_differential(name, scn, sched)[2] == []   # a no-op
        return
    for run in (RealRun(name, scn), IdealRun(name, scn)):
        before = len(run.trace.events)
        with pytest.raises(ScheduleError):
            apply_schedule(run, sched)
        assert len(run.trace.events) == before     # checked before step one


def brick_settle_schedule(entry):
    """Scripted brick single-pay, then a settle input, an advance and a
    pump."""
    scn = protocol("brick").canonical_scenario()
    return scn, scripted_schedules("brick", scn)["single-pay"] + [
        {"op": "input", "pid": "c1", "entry": entry},
        {"op": "advance"}, {"op": "pump"}]


@pytest.mark.parametrize("seq", ["x", True], ids=repr)
def test_a_brick_settle_with_a_malformed_seq_is_refused(seq):
    # such a settle once ran, and left both traces unloadable: its seq
    # reached an event whose schema types it as an int
    scn, sched = brick_settle_schedule({"kind": "settle", "seq": seq})
    for run in (RealRun("brick", scn), IdealRun("brick", scn)):
        before = len(run.trace.events)
        with pytest.raises(ScheduleError):
            apply_schedule(run, sched)
        assert len(run.trace.events) == before     # checked before step one


SETTLE_ENTRIES = [{"kind": "settle"}, {"kind": "settle", "seq": None},
                  {"kind": "settle", "seq": 0}]


@pytest.mark.parametrize("entry", SETTLE_ENTRIES, ids=canon)
def test_a_brick_settle_with_no_seq_or_an_int_seq_runs(entry):
    scn, sched = brick_settle_schedule(entry)
    for run in run_differential("brick", scn, sched)[:2]:
        settles = [ev for ev in run.trace.events if ev["t"] == "input"
                   and ev["payload"] == entry]
        assert len(settles) == 1
        assert Trace.from_text(run.trace.to_text()).events == run.trace.events


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_world_reads_its_ledgers_timing_and_registry(name):
    real, _ = harness.make_real(name)
    ideal = IdealRun(name)
    assert ideal.outer.ledger is ideal.sim.inner.ledger
    for world in (real, ideal.outer, ideal.sim.inner):
        ledger = world.ledger
        assert world.timing is ledger.timing and world.certs is ledger.certs
        assert world in ledger.worlds
        for ctx in world.ctxs.values():
            assert ctx.timing is ledger.timing and ctx.certs is ledger.certs


CONTRACT = ("canonical_scenario", "liveness_params", "build_real",
            "make_bundle", "party_roles", "EnvTracker", "Hooks", "menu")


@pytest.mark.parametrize("name", PROTOCOLS)
def test_protocol_module_provides_the_contract(name):
    proto = protocol(name)
    missing = [attr for attr in CONTRACT if not hasattr(proto, attr)]
    assert missing == []
    # the benchmark's tracer wraps these on the class itself
    assert "triggers_for" in vars(proto.Hooks)
    assert "read_delay" in vars(proto.Hooks)
    assert "ideal_request" in vars(proto.EnvTracker)


@pytest.mark.parametrize("name", PROTOCOLS)
def test_a_tracker_translates_each_input_alone(name):
    """``EnvTracker.ideal_request`` keeps no state: after every input of
    a seeded lifecycle, a tracker that has translated the inputs before it
    returns what a fresh tracker returns."""
    proto = protocol(name)
    scn = proto.canonical_scenario()
    used = proto.EnvTracker(scn)
    steps = [s for s in lifecycle_schedule(name, scn, 1, pays=10)
             if s["op"] == "input"]
    assert {s["entry"]["kind"] for s in steps} >= {"open", "pay", "settle"}
    for step in steps + steps:
        pid, entry = step["pid"], step["entry"]
        assert used.ideal_request(pid, entry) == \
            proto.EnvTracker(scn).ideal_request(pid, entry)


def test_benchmark_spans_stay_module_functions(monkeypatch):
    # the benchmark's tracer wraps these by name on their module, so they
    # must stay plain module functions that callers look up at call time
    from l2sim import arbitrum, liquid, properties
    checks = [name for name in vars(properties) if name.startswith("check_")]
    assert len(checks) == 4
    spans = [(arbitrum, "chain_view"), (arbitrum, "batch_digest"),
             (liquid, "cert_valid")]
    spans += [(properties, name) for name in checks + [
        "measure_data_availability", "is_prefix", "requests", "read_views",
        "committed_txs"]]
    for mod, name in spans:
        fn = vars(mod)[name]
        assert isinstance(fn, types.FunctionType)
        assert fn.__module__ == mod.__name__ and fn.__name__ == name
    calls = {"chain_view": 0, "batch_digest": 0}
    for name in calls:
        def counted(*args, _fn=getattr(arbitrum, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(arbitrum, name, counted)
    world, scn = harness.make_real("arbitrum")
    arbitrum.world_view(world)
    assert calls["chain_view"] == 1
    sched = scripted_schedules("arbitrum", scn)["single-pay"]
    run = RealRun("arbitrum", scn)
    apply_schedule(run, sched)
    assert calls["chain_view"] > 1 and calls["batch_digest"] >= 1
    prefix_calls = []

    def counted_prefix(*args, _fn=properties.is_prefix):
        prefix_calls.append(args)
        return _fn(*args)
    monkeypatch.setattr(properties, "is_prefix", counted_prefix)
    views = properties.summarize(run.trace).views
    f = {role: budget for role, _, budget in arbitrum.party_roles(scn)}
    assert views and properties.check_safety(run.trace, f).passed
    assert len(prefix_calls) >= len(views)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        protocol("lightning")


def test_desk_timing_keeps_rollup_finality_monotone():
    # the condition the arbitrum module docstring states for finality
    t = harness.DESK_TIMING
    assert t["t_period"] > t["liveness_bound"]
    assert harness.make_real("arbitrum")[0].timing == t


def test_diff_outputs_reports_mismatch_and_length_drift():
    class T:
        def __init__(self, events):
            self.events = events

    def out(party, kind, **extra):
        return {"t": "output", "party": party,
                "payload": {"kind": kind, **extra}}

    a = T([out("client:c1", "open-ok", state={"seq": 0}),
           out("client:c1", "settle-ok", state={"seq": 1})])
    b = T([out("client:c1", "open-ok", state={"seq": 9})])
    got = diff_outputs(a, b)
    assert len(got) == 2
    assert got[0]["index"] == 0
    assert got[1]["real"] == "2 outputs"
    assert diff_outputs(a, a) == []


def test_an_output_that_is_no_object_is_an_integrity_error():
    """An output that is no object, and a read whose ``base`` is no int,
    ``executed`` no list of objects or ``settled`` no object or null, is
    refused where the trace enters, also when the reader is corrupted: the
    projection keeps corrupted parties' reads."""
    def read(**fields):
        return {"kind": "read-result", "base": 0, "executed": [],
                "settled": None, **fields}

    corrupt = {"t": "corrupt", "party": "client:c1", "round": 0, "step": 0}
    for payload in (5, read(executed=5), read(executed=[5]),
                    read(base="0"), read(base=None), read(settled=5)):
        for prefix in ([], [corrupt]):
            events = prefix + [{"t": "output", "party": "client:c1",
                                "round": 0, "step": 1, "payload": payload}]
            with pytest.raises(IntegrityError, match="step 1"):
                output_projection(as_trace(events))
            trace = Trace()
            trace.events = events
            with pytest.raises(IntegrityError, match="step 1"):
                Trace.from_text(trace.to_text())
    trace = as_trace([corrupt, {"t": "output", "party": "client:c1",
                                "round": 0, "step": 1, "payload": read()}])
    assert output_projection(trace) == {"client:c1": [
        {"kind": "read-result", "base": 0, "settled": None, "executed": []}]}
