"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hostspeed
import run
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
TINY = {"lifecycle_pays": 3, "checks_pays": 3}


def tiny_ops(workload, seed=1):
    l2 = wl.load_l2sim()
    return l2, wl.build_ops(l2, workload, seed, **TINY)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_each_workload_measures_at_tiny_size(workload):
    l2, ops = tiny_ops(workload)
    with hostspeed.HostSpeed() as speed:
        s = wl.measure(l2, ops, 0, speed)
    assert speed.log and 0.1 < speed.scale() < 10
    assert s["deterministic"]
    assert set(s["rounds"]) == set(wl.PROTOCOLS)
    assert all(n >= 1 for n in s["rounds"].values())
    assert all(r > 0 for r in s["rates"].values())
    assert 0 < s["p50_ms"] <= s["p90_ms"]
    assert all(o.events > 0 for o in s["outcomes"])


def test_fingerprint_repeats_across_passes_and_seeds_differ():
    l2, ops = tiny_ops("lifecycle-honest", seed=1)
    a = [o.fingerprint for o in wl.judge_pass(l2, wl.run_pass(ops))]
    b = [o.fingerprint for o in wl.judge_pass(l2, wl.run_pass(ops))]
    assert a == b
    l2, other = tiny_ops("lifecycle-honest", seed=2)
    c = [o.fingerprint for o in wl.judge_pass(l2, wl.run_pass(other))]
    assert c != a


def _fingerprint_line(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scripted-suite",
         "--seconds", "0"], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True).stdout
    return [ln for ln in out.splitlines() if ln.startswith("fingerprint")]


def test_fingerprint_ignores_hash_seed():
    assert _fingerprint_line(1) == _fingerprint_line(99)


def test_tracer_restores_every_wrapped_name():
    l2 = wl.load_l2sim()
    before = {m: dict(vars(mod)) for m, mod in l2.items()}
    world_dict = dict(vars(l2["runtime"].World))
    with tracer.Tracer(l2) as tr:
        assert tr.patches
        assert l2["properties"].canon is not before["properties"]["canon"]
        assert l2["harness"].canon is l2["trace"].canon
        assert tracer.wrapped_leftovers(l2)
    assert tracer.wrapped_leftovers(l2) == []
    for m, mod in l2.items():
        assert all(vars(mod)[k] is v for k, v in before[m].items())
    assert dict(vars(l2["runtime"].World)) == world_dict


def test_tracer_restores_after_an_error():
    l2 = wl.load_l2sim()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(l2):
            raise RuntimeError("boom")
    assert tracer.wrapped_leftovers(l2) == []


def test_traced_pass_matches_untraced_and_counts_layers():
    l2, ops = tiny_ops("lifecycle-adversarial")
    plain = wl.judge_pass(l2, wl.run_pass(ops))
    tr = tracer.Tracer(l2)
    with tr:
        raw = wl.run_pass(ops)
    traced = wl.judge_pass(l2, raw)
    assert [o.fingerprint for o in traced] == [o.fingerprint for o in plain]
    assert [o.events for o in traced] == [o.events for o in plain]
    m = tr.metrics(1.0, 1.0)
    assert set(m) == set(tracer.metric_units())
    for name in ("runtime.emit", "trace.canon", "base.ledger.find",
                 "core.bundle", "harness.sync", "arbitrum.chain_view",
                 "brick.handlers", "liquid.handlers", "arbitrum.handlers"):
        assert m[f"{name}.calls"]["value"] > 0, name
    assert m["base.ledger.find.pred_calls"]["value"] > 0
    assert 0 < m["trace.digest.unique_ratio"]["value"] <= 1


class FakeTrace:
    def __init__(self, complete=True, digest_error=None):
        self.events = [{"t": "output", "party": "client:c1",
                        "payload": {"kind": "open-ok", "state": {}}}]
        self.complete = complete
        self._error = digest_error

    def digest(self):
        if self._error:
            raise self._error
        return "ok"


def _verdict(name, passed):
    return SimpleNamespace(name=name, passed=passed,
                           to_record=lambda: {"property": name, "pass": passed})


@pytest.mark.parametrize("result, reason", [
    (RuntimeError("bad"), "raised RuntimeError"),
    ({"traces": {"real": FakeTrace(complete=False)}, "diff": None,
      "verdicts": {}}, "real trace incomplete"),
    ({"traces": {"real": FakeTrace(digest_error=TypeError("set"))},
      "diff": None, "verdicts": {}}, "real Trace.digest() TypeError"),
    ({"traces": {"real": FakeTrace(), "ideal": FakeTrace()},
      "diff": [{"party": "client:c1"}], "verdicts": {}}, "diff_outputs: 1"),
    ({"traces": {"real": FakeTrace(), "ideal": FakeTrace()}, "diff": [],
      "verdicts": {"real": [_verdict("safety", False)],
                   "ideal": [_verdict("safety", True)]}},
     "parity safety: real False, ideal True"),
])
def test_gate_counts_each_failure_kind(result, reason):
    l2 = wl.load_l2sim()
    op = wl.Op("brick", "fake", lambda: result)
    (o,) = wl.judge_pass(l2, wl.run_pass([op]))
    assert any(r.startswith(reason) for r in o.reasons), o.reasons


def test_gate_passes_clean_outputs():
    l2 = wl.load_l2sim()
    ok = {"traces": {"real": FakeTrace(), "ideal": FakeTrace()}, "diff": [],
          "verdicts": {"real": [_verdict("safety", True)],
                       "ideal": [_verdict("safety", True)]}}
    (o,) = wl.judge_pass(l2, wl.run_pass([wl.Op("brick", "fake", lambda: ok)]))
    assert o.reasons == []


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        tracer.metric_units()


@pytest.mark.parametrize("trace_flag, names", [
    ("0", run.END_TO_END), ("1", tracer.metric_units())])
def test_cli_last_line_is_the_result(trace_flag, names):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scripted-suite",
         "--seed", "3", "--seconds", "0", "--trace", trace_flag],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    res = json.loads(out.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 49
    assert set(res["metrics"]) == set(names)


def test_cli_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scripted-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
