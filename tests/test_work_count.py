"""``tests/work_count.py`` counts executed bytecodes, a work count that
does not depend on the host: it must repeat exactly, run after run and
under any ``PYTHONHASHSEED``.  A process's first run also fills the
process-wide short-name cache (``runtime._SHORT``), so runs are compared
after one run that warms it."""

import os
import subprocess
import sys
from pathlib import Path

import work_count
from l2sim import harness

ROOT = Path(__file__).resolve().parents[1]
COUNT = """
import work_count
from l2sim import harness
scn = harness.protocol("arbitrum").canonical_scenario()
pairs = [(scn, harness.scripted_schedules("arbitrum", scn)["single-pay"])]
work_count.count(harness, "arbitrum", pairs)
per_code, events = work_count.count(harness, "arbitrum", pairs)
print(sum(per_code.values()), events)
"""


def test_a_work_count_repeats_across_runs_and_hash_seeds():
    scn = harness.protocol("arbitrum").canonical_scenario()
    pairs = [(scn, harness.scripted_schedules("arbitrum", scn)["single-pay"])]
    work_count.count(harness, "arbitrum", pairs)
    first = work_count.count(harness, "arbitrum", pairs)
    assert work_count.count(harness, "arbitrum", pairs) == first
    per_code, events = first
    assert events > 0 and work_count.by_function(per_code)[
        "arbitrum.ArbitrumClient._recheck"] > 0
    for seed in ("0", "123"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "tests")]))
        out = subprocess.run([sys.executable, "-c", COUNT], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == [str(sum(per_code.values())), str(events)]
