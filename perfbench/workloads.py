"""The four closed-loop workloads, their correctness gate and fingerprint.

A workload is a fixed list of operations built once in set-up from the
seed.  Operations run one at a time, and the next starts when the previous
one has ended (a closed loop with one operation in flight).  Only the
program's public API is called: ``harness`` to build and drive worlds,
``properties`` to judge traces.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PROTOCOLS = ("brick", "liquid", "arbitrum")
WORKLOADS = ("scripted-suite", "lifecycle-honest", "lifecycle-adversarial",
             "checks-long")
LIFECYCLE_PAYS = 100
# Each lifecycle workload runs this many schedules per protocol, from seeds
# drawn from --seed, so one unlucky draw (say, an adversarial run that
# corrupts nobody) does not set a run's figures.
LIFECYCLE_SCHEDULES = 2
# pays=40 keeps the superlinear check cost visible while one pass stays
# near 15 s; at pays=100 a single pass takes about two minutes
CHECKS_PAYS = 40
SETUP_REPEATS = 3


def load_l2sim() -> dict:
    """Import l2sim afresh and return its layer modules by short name."""
    for name in [m for m in sys.modules if m == "l2sim" or m.startswith("l2sim.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"l2sim.{name}")
            for name in ("runtime", "trace", "base", "accounts", "core",
                         "brick", "liquid", "arbitrum", "harness",
                         "properties")}


@dataclass
class Op:
    """One closed-loop operation: a schedule, or one trace's checks."""
    protocol: str
    label: str
    fn: Callable[[], dict]
    static_reasons: list = field(default_factory=list)


@dataclass
class Outcome:
    op: Op
    seconds: float
    events: int
    reasons: list
    fingerprint: str


def run_checks(l2, name, scn, trace) -> list:
    """Every property check on one trace, in a fixed order."""
    P = l2["properties"]
    proto = l2["harness"].protocol(name)
    f = {role: budget for role, _, budget in proto.party_roles(scn)}
    out = [P.check_correct_initialization(trace), P.check_safety(trace, f)]
    out += [P.check_liveness(trace, kind, params)
            for kind, params in proto.liveness_params(scn).items()]
    out.append(P.check_correct_settlement(trace))
    out.append(P.measure_data_availability(trace))
    return out


def _simulate(l2, name, scn, schedule, checks):
    def fn():
        real, ideal, diff = l2["harness"].run_differential(name, scn, schedule)
        out = {"traces": {"real": real.trace, "ideal": ideal.trace},
               "diff": diff, "verdicts": {}}
        if checks:
            for flavor, trace in out["traces"].items():
                out["verdicts"][flavor] = run_checks(l2, name, scn, trace)
        return out
    return fn


def _check(l2, name, scn, flavor, trace):
    def fn():
        return {"traces": {flavor: trace}, "diff": None,
                "verdicts": {flavor: run_checks(l2, name, scn, trace)}}
    return fn


def lifecycle_schedules(h, name, scn, seed, pays, adversarial):
    """LIFECYCLE_SCHEDULES (sub-seed, schedule) pairs drawn from ``seed``.

    Adversarial draws that corrupt no party are skipped: without a
    corruption the schedule is an honest one plus garbage triggers.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < LIFECYCLE_SCHEDULES:
        sub = rng.randrange(1 << 30)
        sched = h.lifecycle_schedule(name, scn, sub, pays=pays,
                                     adversarial=adversarial)
        if not adversarial or any(s["op"] == "corrupt" for s in sched):
            out.append((sub, sched))
    return out


def build_ops(l2, workload, seed, lifecycle_pays=LIFECYCLE_PAYS,
              checks_pays=CHECKS_PAYS) -> list:
    """Generate the workload's inputs; for checks-long, also its traces."""
    h = l2["harness"]
    ops = []
    for name in PROTOCOLS:
        scn = h.protocol(name).canonical_scenario()
        if workload == "scripted-suite":
            for label, sched in h.scripted_schedules(name, scn).items():
                ops.append(Op(name, label, _simulate(l2, name, scn, sched, True)))
        elif workload in ("lifecycle-honest", "lifecycle-adversarial"):
            for sub, sched in lifecycle_schedules(
                    h, name, scn, seed, lifecycle_pays,
                    workload == "lifecycle-adversarial"):
                ops.append(Op(name, f"lifecycle seed {sub}",
                              _simulate(l2, name, scn, sched, False)))
        elif workload == "checks-long":
            sched = h.lifecycle_schedule(name, scn, seed, pays=checks_pays)
            real, ideal, diff = h.run_differential(name, scn, sched)
            static = [f"diff_outputs: {len(diff)} mismatches"] if diff else []
            for flavor, run in (("real", real), ("ideal", ideal)):
                ops.append(Op(name, flavor,
                              _check(l2, name, scn, flavor, run.trace),
                              list(static)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops


def setup(workload, seed, repeats=SETUP_REPEATS, speed=None, **sizes):
    """Import and build inputs ``repeats`` times; keep the last build.

    Returns (modules, ops, median seconds of one set-up), the seconds
    corrected by ``speed`` (a HostSpeed) when given.
    """
    times = []
    for _ in range(repeats):
        mark = speed.mark() if speed else 0
        t0 = time.perf_counter()
        l2 = load_l2sim()
        ops = build_ops(l2, workload, seed, **sizes)
        elapsed = time.perf_counter() - t0
        times.append(speed.seconds(mark, elapsed) if speed else elapsed)
    return l2, ops, statistics.median(times)


# -- running and judging -----------------------------------------------------


def run_pass(ops, speed=None) -> list:
    """Run every operation once; returns (op, seconds, result or exception).

    Garbage left by the previous operation is collected before the clock
    starts, so neither its time nor its memory lands on the next one.
    With ``speed`` (a HostSpeed), seconds are host-speed corrected.
    """
    clock = time.perf_counter
    out = []
    for op in ops:
        gc.collect()
        mark = speed.mark() if speed else 0
        t0 = clock()
        try:
            result = op.fn()
        except Exception as exc:   # a failed operation is counted, not fatal
            result = exc
        elapsed = clock() - t0
        out.append((op, speed.seconds(mark, elapsed) if speed else elapsed,
                    result))
    return out


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha_json(obj) -> str:
    """sha256 of the canonical JSON of ``obj``."""
    return hashlib.sha256(_canon(obj).encode()).hexdigest()


def _stream_sha(objs) -> str:
    """sha256 over the canonical JSON of each object, without one big string."""
    acc = hashlib.sha256()
    try:
        for obj in objs:
            acc.update(_canon(obj).encode())
    except (TypeError, ValueError) as exc:
        return f"unserialisable: {type(exc).__name__}"
    return acc.hexdigest()


def _projection_items(h, trace):
    for party, items in sorted(h.output_projection(trace).items()):
        yield [party, len(items)]
        yield from items


def judge(l2, op, seconds, result) -> Outcome:
    """Apply the correctness gate and fingerprint one operation's outputs."""
    reasons = list(op.static_reasons)
    if isinstance(result, Exception):
        reasons.append(f"raised {type(result).__name__}: {result}")
        return Outcome(op, seconds, 0, reasons,
                       sha_json([op.protocol, op.label, reasons[-1]]))
    h = l2["harness"]
    traces = result["traces"]
    parts = {}
    for flavor, trace in traces.items():
        if not trace.complete:
            reasons.append(f"{flavor} trace incomplete")
        try:
            trace.digest()
        except Exception as exc:   # trace.py promises every trace serialises
            reasons.append(f"{flavor} Trace.digest() {type(exc).__name__}")
        records = (v.to_record() for v in result["verdicts"].get(flavor, ()))
        parts[flavor] = [_stream_sha(_projection_items(h, trace)),
                         _stream_sha(records)]
    if result["diff"]:
        reasons.append(f"diff_outputs: {len(result['diff'])} mismatches")
    verdicts = result["verdicts"]
    if "real" in verdicts and "ideal" in verdicts:
        reasons += parity(verdicts["real"], verdicts["ideal"])
    events = sum(len(t.events) for t in traces.values())
    return Outcome(op, seconds, events, reasons,
                   sha_json([op.protocol, op.label, parts]))


def parity(real, ideal) -> list:
    """Checks whose verdict differs between the real and ideal trace."""
    return [f"parity {a.name}: real {a.passed}, ideal {b.passed}"
            for a, b in zip(real, ideal)
            if hasattr(a, "passed") and a.passed != b.passed]


def judge_pass(l2, raw) -> list:
    outcomes = [judge(l2, *r) for r in raw]
    # checks-long judges each trace alone, so pair them up for parity
    by_key = {}
    for o, (_, _, result) in zip(outcomes, raw):
        if o.op.label in ("real", "ideal") and isinstance(result, dict):
            by_key.setdefault(o.op.protocol, {})[o.op.label] = (o, result)
    for pair in by_key.values():
        if len(pair) == 2:
            (ro, rr), (io, ir) = pair["real"], pair["ideal"]
            diffs = parity(rr["verdicts"]["real"], ir["verdicts"]["ideal"])
            ro.reasons += diffs
            io.reasons += diffs
    return outcomes


# -- metrics -------------------------------------------------------------------


def measure(l2, ops, seconds, speed) -> dict:
    """Closed loop, one protocol at a time, a third of the time each.

    Within its share a protocol's operations run in order, round after
    round, until the share is used up (at least one round).  Giving each
    protocol its own share keeps brick and liquid from being a few short
    samples beside arbitrum's long schedules, so their rates are medians
    of many rounds.
    """
    rounds = {}
    for proto in PROTOCOLS:
        group = [op for op in ops if op.protocol == proto]
        start = time.perf_counter()
        rounds[proto] = []
        while (not rounds[proto]
               or time.perf_counter() - start < seconds / len(PROTOCOLS)):
            rounds[proto].append(judge_pass(l2, run_pass(group, speed)))
    return summarize(rounds)


def summarize(rounds) -> dict:
    """Metrics from {protocol: [round outcomes]}.

    A protocol's rate is the median over its rounds, so a burst of host
    noise in one round does not move it; the total rate is that of one
    pass over all operations run at those per-protocol rates.  Latency
    percentiles are taken over the operations of one pass, each at its
    median over repetitions.
    """
    firsts = []
    rates, pass_events, pass_secs = {}, 0, 0.0
    for proto, rs in rounds.items():
        first = [o.fingerprint for o in rs[0]]
        firsts += first
        for outcomes in rs[1:]:
            for o, fp in zip(outcomes, first):
                if o.fingerprint != fp:
                    o.reasons.append("fingerprint differs from the first round")
        rates[proto] = statistics.median(
            sum(o.events for o in r) / sum(o.seconds for o in r) for r in rs)
        events = sum(o.events for o in rs[0])
        pass_events += events
        pass_secs += events / rates[proto] if events else 0.0
    rates[None] = pass_events / pass_secs if pass_secs else 0.0
    flat = [o for rs in rounds.values() for r in rs for o in r]
    per_op = {}
    for o in flat:
        per_op.setdefault(id(o.op), []).append(o.seconds * 1000)
    medians = [statistics.median(ms) for ms in per_op.values()]
    p90 = (statistics.quantiles(medians, n=10, method="inclusive")[8]
           if len(medians) > 1 else medians[0])
    return {
        "rounds": {p: len(rs) for p, rs in rounds.items()},
        "outcomes": flat,
        "rates": rates,
        "p50_ms": statistics.median(medians),
        "p90_ms": p90,
        "above_p90": sum(1 for o in flat if o.seconds * 1000 > p90),
        "fingerprint": sha_json(firsts),
        "deterministic": not any("fingerprint differs" in r
                                 for o in flat for r in o.reasons),
    }
