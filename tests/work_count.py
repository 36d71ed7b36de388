"""Count the bytecodes a workload executes: a work count that does not
depend on the host.

    python tests/work_count.py [--tree TREE] [--top N] [--protocol P ...]
                               [--missed] WORKLOAD

``WORKLOAD`` is ``scripted`` (a protocol's scripted suite) or
``lifecycle-honest`` / ``lifecycle-adversarial`` (the lifecycle schedules
that perfbench's workloads of those names draw: seed 1, pays=100).  Each
schedule runs through ``harness.run_differential`` with ``sys.settrace``
and ``f_trace_opcodes`` on, so every bytecode executed in a Python frame is
counted, in l2sim and in the standard library alike; building the
schedules is not counted.  For each protocol (all three by default) it
prints the bytecodes, the events of both runs' traces, bytecodes per event,
and the ``--top`` functions (default 15) by their share of the bytecodes.
With ``--missed`` it then prints, per ``src/l2sim`` module, the executable
lines that no counted run executed: every line of a function body but its
``def`` line, since module and class bodies run at import, before the
count.  Building the schedules is not counted either, so the lines that
build them are among those printed.

``TREE`` (default: the tree this file sits in) is a directory holding
``src/l2sim`` or a git revision of this repository, extracted with ``git
archive``; the count runs in a subprocess under that tree's ``src``.  The
count is a function of the code and the schedules alone: it repeats
exactly across runs and across ``PYTHONHASHSEED`` values, so two trees can
be compared by it where wall time on a shared host cannot resolve a few
percent.  A process's first run also fills process-wide caches (the short
names of ``runtime._SHORT``), which the first protocol counted pays.
"""

import argparse
import gc
import inspect
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("scripted", "lifecycle-honest", "lifecycle-adversarial")
PROTOCOLS = ("brick", "liquid", "arbitrum")
SEED, PAYS, SCHEDULES = 1, 100, 2     # as perfbench's lifecycle workloads


def schedules(harness, workload, name):
    """The (scenario, schedule) pairs of ``workload`` for protocol
    ``name``; the lifecycle draw is perfbench's: sub-seeds from one
    ``random.Random(SEED)``, skipping adversarial draws that corrupt no
    party."""
    scn = harness.protocol(name).canonical_scenario()
    if workload == "scripted":
        return [(scn, s) for s in harness.scripted_schedules(name, scn).values()]
    adversarial = workload == "lifecycle-adversarial"
    rng, out = random.Random(SEED), []
    while len(out) < SCHEDULES:
        sched = harness.lifecycle_schedule(name, scn, rng.randrange(1 << 30),
                                           pays=PAYS, adversarial=adversarial)
        if not adversarial or any(s["op"] == "corrupt" for s in sched):
            out.append((scn, sched))
    return out


def count(harness, name, pairs, lines=None):
    """(bytecodes per code object, trace events) of running each
    (scenario, schedule) pair of protocol ``name`` differentially.  The
    collector is run before each schedule and kept off during it, so no
    finalizer of earlier garbage runs inside the count.  A ``lines`` set
    also gets the (file name, line) of every line executed."""
    per_code, events = Counter(), 0

    def local(frame, event, arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        elif event == "line" and lines is not None:
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    for scn, sched in pairs:
        gc.collect()
        gc.disable()
        sys.settrace(on_call)
        try:
            real, ideal, _ = harness.run_differential(name, scn, sched)
        finally:
            sys.settrace(None)
            gc.enable()
        events += len(real.trace.events) + len(ideal.trace.events)
    return per_code, events


def by_function(per_code) -> Counter:
    """Bytecodes per ``module.qualname``."""
    out = Counter()
    for code, n in per_code.items():
        out[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += n
    return out


def executable(path) -> set:
    """The lines of a module's function bodies, each but its ``def`` line
    (the first line of its code)."""
    out = set()
    todo = [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS:    # not a module or class body
            out |= {line for _, _, line in code.co_lines()
                    if line is not None and line != code.co_firstlineno}
    return out


def missed_lines(lines, package) -> dict:
    """Module file name -> the sorted executable lines of each module of
    the ``package`` directory that no (file name, line) of ``lines`` ran;
    modules that ran every line are left out."""
    ran = {}
    for filename, line in lines:
        ran.setdefault(filename, set()).add(line)
    ran = {Path(f).resolve(): got for f, got in ran.items()}
    out = {}
    for path in sorted(Path(package).resolve().glob("*.py")):
        left = executable(path) - ran.get(path, set())
        if left:
            out[path.name] = sorted(left)
    return out


def spans(lines) -> str:
    """Sorted line numbers as ``a-b`` runs of consecutive numbers."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def report(workload, names, top, missed):
    from l2sim import harness
    lines = set() if missed else None
    for name in names:
        per_code, events = count(harness, name,
                                 schedules(harness, workload, name), lines)
        total = sum(per_code.values())
        print(f"{name} {workload}: {total} bytecodes, {events} events, "
              f"{total / events:.1f} per event")
        for fn, n in by_function(per_code).most_common(top):
            print(f"  {100 * n / total:5.1f}%  {n:>9}  {fn}")
    if missed:
        print(f"never ran in {workload} ({', '.join(names)}):")
        for module, left in missed_lines(
                lines, Path(harness.__file__).parent).items():
            print(f"  {module}: {len(left)} lines: {spans(left)}")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--tree", default=str(ROOT))
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--protocol", action="append", choices=PROTOCOLS,
                        help="count only this protocol (repeatable)")
    parser.add_argument("--missed", action="store_true",
                        help="also print the l2sim lines that never ran")
    args = parser.parse_args(argv)
    names = args.protocol or PROTOCOLS
    if args.src:                        # the subprocess, under the tree's src
        sys.path.insert(0, args.src)
        report(args.workload, names, args.top, args.missed)
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from golden_audit import _src
    with tempfile.TemporaryDirectory() as tmp:
        return subprocess.run(
            [sys.executable, __file__, "--src", _src(args.tree, tmp),
             "--top", str(args.top), args.workload,
             *(f"--protocol={n}" for n in names),
             *(["--missed"] if args.missed else [])]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
