"""Counting guards on the read path, with no timing.

A read is two ``input`` events, two sub-call records and up to two
``output`` events; these tests pin the work behind them that no trace
shows: a read builds no ``Envelope``, and ``diff_outputs``
canonicalizes each state object once across both runs' reads.
"""

from l2sim import properties, runtime
from l2sim.harness import (
    IdealRun, apply_schedule, diff_outputs, lifecycle_schedule, protocol,
    run_differential, scripted_schedules,
)


def test_an_output_builds_no_envelope(monkeypatch):
    """A read in an ideal run is one input call to each world's client,
    and its two outputs, the inner client's and the interface's, follow;
    neither the inputs nor the outputs build an envelope."""
    scn = protocol("brick").canonical_scenario()
    run = apply_schedule(IdealRun("brick", scn),
                         scripted_schedules("brick", scn)["open-only"])
    built = []
    envelope = runtime.Envelope

    def spy(*args, **kwargs):
        built.append(envelope(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runtime, "Envelope", spy)
    before = [len(w.trace.events) for w in (run.sim.inner, run.outer)]
    run.input("c1", {"kind": "read"})
    outputs = [ev for w, n in zip((run.sim.inner, run.outer), before)
               for ev in w.trace.events[n:] if ev["t"] == "output"]
    assert [ev["payload"]["kind"] for ev in outputs] == ["read-result"] * 2
    assert built == []


def test_the_diff_canonicalizes_each_state_object_once(monkeypatch):
    """On the honest seed-1 brick lifecycle the two runs' reads share
    state objects, and ``diff_outputs`` runs ``canon`` at most once per
    distinct state object across both traces."""
    scn = protocol("brick").canonical_scenario()
    sched = lifecycle_schedule("brick", scn, 1, pays=100)
    real, ideal, diff = run_differential("brick", scn, sched)
    assert diff == []
    states = [e["state"] for run in (real, ideal)
              for ev in run.trace.events if ev["t"] == "output"
              and ev["payload"]["kind"] == "read-result"
              for e in ev["payload"]["executed"]]
    distinct = {id(s) for s in states}
    calls = []
    canon = properties.canon

    def counted(obj):
        calls.append(obj)
        return canon(obj)

    monkeypatch.setattr(properties, "canon", counted)
    assert diff_outputs(real.trace, ideal.trace) == []
    assert len(calls) == len({id(s) for s in calls}) <= len(distinct)
    assert {id(s) for s in calls} <= distinct
    assert len(distinct) < len(states) / 2     # the runs share objects
