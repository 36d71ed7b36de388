"""``tests/work_count.py`` counts executed bytecodes, a work count that
does not depend on the host: it must repeat exactly, run after run and
under any ``PYTHONHASHSEED``.  A process's first run also fills the
process-wide short-name cache (``runtime._SHORT``), so runs are compared
after one run that warms it.  With ``--missed`` it names the lines of
``src/l2sim`` that a workload never ran."""

import os
import subprocess
import sys
from pathlib import Path

import work_count
from l2sim import harness, liquid

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


def code_lines(code):
    """The lines of ``code``, but its first (``def``) line."""
    return {line for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def test_missed_names_the_stale_push_send_and_not_the_block_push():
    # in the liquid scripted suite a corrupted operator's stale push never
    # finds a block to send, while an honest operator pushes every block
    # it appends
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "work_count.py"), "--top", "0",
         "--missed", "--protocol", "liquid", "scripted"],
        capture_output=True, text=True, check=True).stdout
    (row,) = [line for line in out.splitlines()
              if line.strip().startswith("liquid.py:")]
    missed = set()
    for span in row.split(": ")[-1].split(", "):
        first, _, last = span.partition("-")
        missed |= set(range(int(first), int(last or first) + 1))
    source = Path(liquid.__file__).read_text().splitlines()
    (stale,) = [c for c in liquid.menu.__code__.co_consts
                if getattr(c, "co_name", None) == "stale_push"]
    push = next(line for line in sorted(code_lines(stale))
                if "block-push" in source[line - 1])
    assert missed & code_lines(stale) == set(range(push, push + 4))
    append = liquid.LiquidOperator._append.__code__
    sends = {line for line in code_lines(append)
             if "push" in source[line - 1] or "send_net" in source[line - 1]}
    assert len(sends) == 3 and not missed & sends
    assert work_count.spans([1, 2, 3, 5, 7, 8]) == "1-3, 5, 7-8"
