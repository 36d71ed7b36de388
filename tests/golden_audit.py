"""Audit the golden digest tables of ``tests/test_golden.py``.

Run it from the root of a source tree; it imports the ``l2sim`` package
of the tree it sits in:

    python tests/golden_audit.py structure
    python tests/golden_audit.py record

Both modes run every table schedule (the scripted schedules of each
protocol and the golden lifecycles: seeds 1-3, ten pays, honest and
adversarial) through ``harness.run_differential``.

- ``structure`` prints one line per schedule and run: the event count and
  a sha256 of the run's ``[(t, step, round)]`` sequence.  Two trees whose
  outputs are equal kept every run's shape: a change that only edits
  payloads moves digests but no line here.
- ``record`` prints the ``SCRIPTED`` and ``LIFECYCLE`` tables in their own
  format, so the rows of a change that moves digests can be pasted back.

Comparing two trees row by row (``compare OLD NEW``) is still open
(ROADMAP item 20).
"""

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":      # tests import it with l2sim on the path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from l2sim import harness  # noqa: E402
from l2sim.trace import canon, digest  # noqa: E402

PAYS = 10


def schedules():
    """(table, key, scenario, schedule) of every table schedule, in the
    tables' order."""
    for name, proto in harness.PROTOCOLS.items():
        scn = proto.canonical_scenario()
        for label, sched in sorted(harness.scripted_schedules(name, scn).items()):
            yield "SCRIPTED", (name, label), scn, sched
    for name, proto in harness.PROTOCOLS.items():
        scn = proto.canonical_scenario()
        for seed in (1, 2, 3):
            for adversarial in (False, True):
                yield "LIFECYCLE", (name, seed, adversarial), scn, \
                    harness.lifecycle_schedule(name, scn, seed, pays=PAYS,
                                               adversarial=adversarial)


def runs(name, scn, sched):
    real, ideal, _ = harness.run_differential(name, scn, sched)
    return {"real": real.trace, "ideal": ideal.trace}


def shape(trace) -> str:
    """sha256 of the trace's (t, step, round) sequence."""
    seq = [[ev.get("t"), ev.get("step"), ev.get("round")] for ev in trace.events]
    return hashlib.sha256(canon(seq).encode()).hexdigest()


def key_text(key) -> str:
    return "(" + ", ".join(json.dumps(k) if isinstance(k, str) else repr(k)
                           for k in key) + ")"


def row(table, key, scn, sched) -> str:
    """The row of ``key`` as ``tests/test_golden.py`` writes it."""
    traces = runs(key[0], scn, sched)
    values = [traces["real"].digest(), traces["ideal"].digest()]
    if table == "LIFECYCLE":
        values.insert(0, digest(sched))
    return f"    {key_text(key)}: (\n" + ",\n".join(
        f'        "{v}"' for v in values) + "),\n"


def structure():
    for _, key, scn, sched in schedules():
        for flavor, trace in runs(key[0], scn, sched).items():
            print(key_text(key), flavor, len(trace.events), shape(trace))


def record():
    table = None
    for name, key, scn, sched in schedules():
        if name != table:
            if table is not None:
                print("}\n")
            table = name
            print(f"{name} = {{")
        print(row(name, key, scn, sched), end="")
    print("}")


if __name__ == "__main__":
    modes = {"structure": structure, "record": record}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(modes)}}}")
    modes[sys.argv[1]]()
