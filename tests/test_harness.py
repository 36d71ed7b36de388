"""Real-vs-ideal differential checks driven through the schedule harness.

Every scripted scenario and a band of seeded lifecycles must produce the
same per-party output stream in both stackings; the remaining tests pin
the harness mechanics that make that comparison meaningful.
"""

import types

import pytest

from l2sim import harness
from l2sim.trace import canon
from l2sim.harness import (
    GARBAGE_TRIGGERS,
    IdealRun,
    RealRun,
    apply_schedule,
    desk_timing,
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
            item = {"kind": kind, "state": p.get("state"),
                    "pointer": p.get("pointer"),
                    "executed": [[e.get("kind"), e.get("seq"),
                                  canon(e.get("state"))]
                                 for e in p.get("executed", ())]}
        elif kind == "open-ok":
            item = {"kind": kind, "state": p.get("state")}
        elif kind == "settle-ok":
            item = {"kind": kind, "success": p.get("success", True),
                    "state": p.get("state")}
        else:
            item = {"kind": kind, "raw": canon(p)}
        per.setdefault(ev["party"], []).append(item)
    return per


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


@pytest.mark.parametrize("name, seed, adversarial", GOLDEN_LIFECYCLES)
def test_projection_matches_reference_on_lifecycles(name, seed, adversarial):
    scn = protocol(name).canonical_scenario()
    sched = lifecycle_schedule(name, scn, seed, pays=10,
                               adversarial=adversarial)
    real, ideal, _ = run_differential(name, scn, sched)
    for run in (real, ideal):
        got = output_projection(run.trace)
        assert got == reference_projection(run.trace)
        assert any(o["kind"] == "read-result" and len(o["executed"]) > 2
                   for outs in got.values() for o in outs)


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
        assert outs[-1]["pointer"] > outs[1]["pointer"]


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
    assert outs[-1]["pointer"] == 1


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
    with pytest.raises(ValueError):
        apply_schedule(RealRun("brick", scn), [{"op": "warp"}])


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
    arbitrum.world_view(world, scn["initial"])
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
    views = properties.read_views(run.trace)
    f = {role: budget for role, _, budget in arbitrum.party_roles(scn)}
    assert views and properties.check_safety(run.trace, f).passed
    assert len(prefix_calls) >= len(views)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        protocol("lightning")


def test_desk_timing_overrides_merge():
    t = desk_timing({"delta": 3})
    assert t["delta"] == 3
    assert t["confirm_depth"] == harness.DESK_TIMING["confirm_depth"]
    assert desk_timing() == harness.DESK_TIMING


def test_diff_outputs_reports_mismatch_and_length_drift():
    class T:
        def __init__(self, events):
            self.events = events

    def out(party, kind, **extra):
        return {"t": "output", "party": party,
                "payload": {"kind": kind, **extra}}

    a = T([out("client:c1", "open-ok", state={"seq": 0}),
           out("client:c1", "settle-ok", success=True, state={"seq": 1})])
    b = T([out("client:c1", "open-ok", state={"seq": 9})])
    got = diff_outputs(a, b)
    assert len(got) == 2
    assert got[0]["index"] == 0
    assert got[1]["real"] == "2 outputs"
    assert diff_outputs(a, a) == []
