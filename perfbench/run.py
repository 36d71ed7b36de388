"""Benchmark for l2sim: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload scripted-suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` it runs one untraced pass and one
traced pass and reports the per-layer metrics instead.  Lines before it are
a readable report: every metric with its unit, failed operations with their
reasons, and the output fingerprint.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "events_per_s": "events/s",
    "events_per_s.brick": "events/s",
    "events_per_s.liquid": "events/s",
    "events_per_s.arbitrum": "events/s",
    "schedule_p50_ms": "ms",
    "schedule_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def report_failures(outcomes):
    """Print failed_ratio and each reason; return (failed, attempted).

    Both counts are over distinct operations: an operation fails if any of
    its executions failed.  How many times a timed run repeats an operation
    depends on host speed, so counting executions would make the counts of
    two runs with the same seed disagree.
    """
    reasons = collections.OrderedDict()
    for o in outcomes:
        reasons.setdefault((o.op.protocol, o.op.label), collections.Counter())
        reasons[(o.op.protocol, o.op.label)].update(o.reasons)
    base = ("trace check sets" if outcomes[0].op.label in ("real", "ideal")
            else "schedules")
    failed = {k: c for k, c in reasons.items() if c}
    print(f"failed_ratio {len(failed)}/{len(reasons)} = "
          f"{len(failed) / len(reasons):.4f} (base: distinct {base}; "
          f"{sum(1 for o in outcomes if o.reasons)} of {len(outcomes)} "
          "executions failed)")
    for (proto, label), counter in failed.items():
        for reason, n in counter.items():
            print(f"  failed x{n}: {proto} {label}: {reason}")
    return len(failed), len(reasons)


def untraced(wl, args):
    import hostspeed
    with hostspeed.HostSpeed() as speed:
        l2, ops, setup_s = wl.setup(args.workload, args.seed, speed=speed)
        s = wl.measure(l2, ops, args.seconds, speed)
    values = {
        "events_per_s": s["rates"][None],
        "events_per_s.brick": s["rates"]["brick"],
        "events_per_s.liquid": s["rates"]["liquid"],
        "events_per_s.arbitrum": s["rates"]["arbitrum"],
        "schedule_p50_ms": s["p50_ms"],
        "schedule_p90_ms": s["p90_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outcomes = s["outcomes"]
    print(f"workload {args.workload} seed {args.seed}: rounds per protocol "
          f"{s['rounds']}, {len(outcomes)} operations, closed loop, "
          "one operation in flight")
    for name, unit in END_TO_END.items():
        print(f"  {name:24} {values[name]:14.4f} {unit}")
    print(f"  schedule latency: percentiles over {len(ops)} operations at "
          f"their medians; {len(outcomes)} executions, {s['above_p90']} "
          "of them above p90")
    print(f"  host speed scale (reference probe time / median probe time, "
          f"{len(speed.log)} probes): {speed.scale():.4f}")
    failed, attempted = report_failures(outcomes)
    print(f"fingerprint {s['fingerprint']}")
    return {"correct": s["deterministic"], "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in END_TO_END.items()}}


def traced(wl, args):
    import tracer
    l2, ops, _ = wl.setup(args.workload, args.seed, repeats=1)
    plain_raw = wl.run_pass(ops)
    plain = wl.judge_pass(l2, plain_raw)
    del plain_raw
    tr = tracer.Tracer(l2)
    with tr:
        raw = wl.run_pass(ops)
    leftovers = tracer.wrapped_leftovers(l2)
    outcomes = wl.judge_pass(l2, raw)
    tr.observe(r["traces"][f] for _, _, r in raw if isinstance(r, dict)
               for f in r["traces"])
    same_fp = [o.fingerprint for o in outcomes] == [o.fingerprint for o in plain]
    same_events = [o.events for o in outcomes] == [o.events for o in plain]
    for o, p in zip(outcomes, plain):
        if o.fingerprint != p.fingerprint or o.events != p.events:
            o.reasons.append("traced output differs from the untraced pass")
    untraced_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in outcomes)
    metrics = tr.metrics(traced_s, untraced_s)
    print(f"workload {args.workload} seed {args.seed}: traced pass "
          f"{traced_s:.3f} s, untraced pass {untraced_s:.3f} s, "
          f"overhead x{traced_s / untraced_s:.2f}")
    for name, m in metrics.items():
        print(f"  {name:48} {m['value']:14.6g} {m['unit']}")
    failed, attempted = report_failures(outcomes)
    print(f"fingerprint traced {wl.sha_json([o.fingerprint for o in outcomes])} "
          f"untraced {wl.sha_json([o.fingerprint for o in plain])}; "
          f"event counts equal: {same_events}; wrappers left: {leftovers}")
    return {"correct": same_fp and same_events and not leftovers,
            "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(names, args):
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update(
            {f"{name}/{k}": v for k, v in res["metrics"].items()})
    return summary


def main(argv=None):
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "l2sim" / "__init__.py").is_file():
        print(f"perfbench: no l2sim sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(workloads.WORKLOADS, args)
    else:
        t0 = time.perf_counter()
        result = (traced if args.trace else untraced)(workloads, args)
        print(f"run took {time.perf_counter() - t0:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
