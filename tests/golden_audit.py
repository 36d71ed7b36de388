"""Audit the golden digest tables of ``tests/test_golden.py``.

Run it from the root of a source tree; it imports the ``l2sim`` package
of the tree it sits in:

    python tests/golden_audit.py structure
    python tests/golden_audit.py record
    python tests/golden_audit.py compare OLD NEW
    python tests/golden_audit.py rewrite

Every mode runs every table schedule (the scripted schedules of each
protocol and the golden lifecycles: seeds 1-3, ten pays, honest and
adversarial) through ``harness.run_differential``.

- ``structure`` prints one line per schedule and run: the event count and
  a sha256 of the run's ``[(t, step, round)]`` sequence.  Two trees whose
  outputs are equal kept every run's shape: a change that only edits
  payloads moves digests but no line here.
- ``record`` prints the ``SCRIPTED`` and ``LIFECYCLE`` tables in their own
  format, so the rows of a change that moves digests can be pasted back.
- ``compare OLD NEW`` takes two source trees, each a directory holding
  ``src/l2sim`` or a git revision of this repository (extracted with
  ``git archive``).  It builds one record per table row under each tree's
  ``src``, in a subprocess per tree, and prints every row that moved with
  the parts of its record that moved, then a count of moved rows and
  parts.  A row's record holds the ``diff_outputs`` length and, for each
  run, the event count (``events``), a sha256 of the ``(t, step, round)``
  sequence (``shape``), each check's ``to_record()`` (``verdict:NAME``), a
  sha256 of every check's witness (``witnesses``), a sha256 of the output
  projection with each sha256 hex string renumbered by first appearance
  (``projection``), and the trace digest (``digest``).  A change that
  only renames a hash moves no projection.  Under a row whose shape moved
  it prints, per run, the first event index at which the two sequences
  differ and each tree's ``t`` there.
  It exits with status 1 when any row moved and 0 otherwise, so a
  commit meant to be byte-identical is checked by the exit status.
- ``rewrite`` re-records, in place, every row of the tables that pin
  digests: ``SCRIPTED`` and ``LIFECYCLE`` in ``tests/test_golden.py``,
  and ``SCRIPTED_OUTPUTS``, ``SCRIPTED_WITNESSES``, ``LIFECYCLE_OUTPUTS``
  and ``LIFECYCLE_WITNESSES`` in ``tests/test_properties.py``.  It
  computes each row with the function that the table's own test checks
  it with, rewrites only the rows that moved, leaves every other byte of
  both files as it is, and prints one line per moved row: the table, the
  key, and each moved column's old and new digest.

The test suite never rewrites the committed tables; a change that moves
a digest runs ``rewrite`` and says why in the changelog.
"""

import hashlib
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":      # tests import it with l2sim on the path
    # ``records SRC KEYS`` builds the records under another tree's src
    sys.path.insert(0, sys.argv[2] if sys.argv[1:2] == ["records"]
                    else str(ROOT / "src"))

from l2sim import harness, properties  # noqa: E402
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


def all_checks(name, scn, trace):
    """Every check on one trace, in the order the benchmark runs them."""
    proto = harness.protocol(name)
    f = {role: budget for role, _, budget in proto.party_roles(scn)}
    out = [properties.check_correct_initialization(trace),
           properties.check_safety(trace, f)]
    out += [properties.check_liveness(trace, kind, params)
            for kind, params in proto.liveness_params(scn).items()]
    out.append(properties.check_correct_settlement(trace))
    out.append(properties.measure_data_availability(trace))
    return out


def sha(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def steps(trace) -> list:
    """The trace's (t, step, round) sequence."""
    return [[ev.get("t"), ev.get("step"), ev.get("round")]
            for ev in trace.events]


def shape(trace) -> str:
    """sha256 of the trace's (t, step, round) sequence."""
    return sha(canon(steps(trace)))


def first_move(old, new):
    """(index, old t, new t) at the first event where two (t, step, round)
    sequences differ, a t past the end of its sequence being None; None
    when the sequences are equal."""
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else [None]
        b = new[i] if i < len(new) else [None]
        if a != b:
            return i, a[0], b[0]
    return None


HEX = re.compile(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])")


def renumbered(obj) -> str:
    """The canonical text of ``obj``, each sha256 hex string in it replaced
    by the number of its first appearance."""
    seen = {}
    return HEX.sub(lambda m: f"#{seen.setdefault(m.group(), len(seen))}",
                   canon(obj))


def key_text(key) -> str:
    return "(" + ", ".join(json.dumps(k) if isinstance(k, str) else repr(k)
                           for k in key) + ")"


def row(table, key, scn, sched) -> str:
    """The row of ``key`` as ``tests/test_golden.py`` writes it."""
    traces = runs(key[0], scn, sched)
    values = [traces["real"].digest(), traces["ideal"].digest()]
    if table == "LIFECYCLE":
        values.insert(0, digest(sched))
    return row_text(key, values)


def row_text(key, values) -> str:
    """A table row as the digest tables write it."""
    return f"    {key_text(key)}: (\n" + ",\n".join(
        f'        "{v}"' for v in values) + "),\n"


def audit_record(key, scn, sched) -> dict:
    """What ``compare`` holds of one table row (see the module docstring)."""
    name = key[0]
    real, ideal, diff = harness.run_differential(name, scn, sched)
    rec = {"diff": len(diff)}
    for flavor, trace in (("real", real.trace), ("ideal", ideal.trace)):
        checks = all_checks(name, scn, trace)
        rec[flavor] = {
            "events": len(trace.events), "shape": shape(trace),
            "steps": steps(trace),
            "verdicts": [v.to_record() for v in checks],
            "witnesses": sha(canon([getattr(v, "witness", None)
                                    for v in checks])),
            "projection": sha(renumbered(harness.output_projection(trace))),
            "digest": trace.digest()}
    return rec


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


def records(src, keys):
    """One JSON line per table row in ``keys`` (every row when None), built
    with the l2sim under ``src``."""
    keys = None if keys is None else {tuple(k) for k in keys}
    for table, key, scn, sched in schedules():
        if keys is None or key in keys:
            print(json.dumps({"table": table, "key": list(key),
                              **audit_record(key, scn, sched)}), flush=True)


def _src(tree, into) -> str:
    """The ``src`` directory of ``tree``: a directory, or a git revision
    of this repository extracted under ``into``."""
    if (Path(tree) / "src" / "l2sim").is_dir():
        return str(Path(tree) / "src")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", tree, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into)
    return str(Path(into) / "src")


def moved_parts(old, new) -> list:
    """The names of the parts of two records of one row that differ."""
    parts = ["diff"] if old["diff"] != new["diff"] else []
    for flavor in ("real", "ideal"):
        a, b = old[flavor], new[flavor]
        mine = [part for part in ("events", "shape") if a[part] != b[part]]
        va, vb = a["verdicts"], b["verdicts"]
        if len(va) != len(vb):
            mine.append("verdict")
        else:
            mine += [f"verdict:{x.get('property', x['record'])}"
                     for x, y in zip(va, vb) if x != y]
        mine += [part for part in ("witnesses", "projection", "digest")
                 if a[part] != b[part]]
        parts += [f"{flavor} {part}" for part in mine]
    return parts


def compare(old, new, keys=None, out=print) -> list:
    """Print and return (key, moved parts) of each row that moved from
    tree ``old`` to tree ``new``; ``keys`` limits the rows."""
    with tempfile.TemporaryDirectory() as tmp:
        procs = [subprocess.Popen(
            [sys.executable, __file__, "records",
             _src(tree, Path(tmp) / str(i)), json.dumps(keys)],
            stdout=subprocess.PIPE, text=True)
            for i, tree in enumerate((old, new))]
        sides = []
        for tree, proc in zip((old, new), procs):
            text = proc.communicate()[0]
            if proc.returncode:
                raise RuntimeError(f"records of {tree} failed")
            sides.append({(r["table"], tuple(r["key"])): r
                          for r in map(json.loads, text.splitlines())})
    a, b = sides
    moved = []
    for row_id in list(a) + [k for k in b if k not in a]:
        if row_id not in a or row_id not in b:
            parts = [f"only in {new if row_id in b else old}"]
        else:
            parts = moved_parts(a[row_id], b[row_id])
        if parts:
            moved.append((row_id, parts))
            out(f"{row_id[0]} {key_text(row_id[1])}: {', '.join(parts)}")
        for flavor in ("real", "ideal"):
            if f"{flavor} shape" in parts:
                i, ta, tb = first_move(a[row_id][flavor]["steps"],
                                       b[row_id][flavor]["steps"])
                out(f"  {flavor} shape first moves at event {i}: "
                    f"{old} has {ta}, {new} has {tb}")
    tables = {}
    for (table, key), _ in moved:
        tables.setdefault(table, {}).setdefault(key[0], 0)
        tables[table][key[0]] += 1
    out(f"moved rows: {len(moved)} of {len(set(a) | set(b))}" + "".join(
        f"; {table} {sum(per.values())} ("
        + ", ".join(f"{name} {n}" for name, n in per.items()) + ")"
        for table, per in tables.items()))
    counts = {}
    for _, parts in moved:
        for part in parts:
            counts[part] = counts.get(part, 0) + 1
    out("moved parts: " + (", ".join(f"{p} {n}" for p, n in counts.items())
                           or "none"))
    bases = {p.split()[-1].split(":")[0] for p in counts}
    out("unmoved in every row: " + ", ".join(
        p for p in ("events", "shape", "verdict", "diff", "witnesses",
                    "projection", "digest") if p not in bases))
    return moved


# table -> (the file that holds it, the names of its columns)
OUTPUT_COLUMNS = ("real projection", "real records", "ideal projection",
                  "ideal records")
COLUMNS = {
    "SCRIPTED": ("test_golden", ("real", "ideal")),
    "LIFECYCLE": ("test_golden", ("schedule", "real", "ideal")),
    "SCRIPTED_WITNESSES": ("test_properties", ("real", "ideal")),
    "LIFECYCLE_WITNESSES": ("test_properties", ("real", "ideal")),
    "SCRIPTED_OUTPUTS": ("test_properties", OUTPUT_COLUMNS),
    "LIFECYCLE_OUTPUTS": ("test_properties", OUTPUT_COLUMNS),
}
HEX_VALUE = re.compile(r'"([0-9a-f]{64})"')


def table_rows(table, key, scn, sched) -> dict:
    """{table: digests} of one schedule, for each table it has a row in,
    computed by the functions those tables' tests check them with."""
    import test_golden
    import test_properties
    real_ideal = test_golden.digests(key[0], scn, sched)
    witnesses, outputs = test_properties.table_digests(key[0], scn, sched)
    return {table: real_ideal if table == "SCRIPTED"
            else (digest(sched),) + real_ideal,
            f"{table}_WITNESSES": witnesses, f"{table}_OUTPUTS": outputs}


def rewrite(tests=Path(__file__).resolve().parent, out=print) -> list:
    """Re-record each digest table row that moved, in the files under
    ``tests``; print and return (table, key) of each."""
    texts = {name: (Path(tests) / f"{name}.py").read_text()
             for name in ("test_golden", "test_properties")}
    moved = []
    for table, key, scn, sched in schedules():
        for name, values in table_rows(table, key, scn, sched).items():
            file, columns = COLUMNS[name]
            text = texts[file]
            start = text.index(f"\n{name} = {{\n")
            at = text.index(f"\n    {key_text(key)}: (\n", start,
                            text.index("\n}\n", start)) + 1
            end = text.index("),\n", at) + 3
            old = HEX_VALUE.findall(text[at:end])
            if old == list(values):
                continue
            texts[file] = text[:at] + row_text(key, values) + text[end:]
            moved.append((name, key))
            out(f"{name} {key_text(key)}: " + ", ".join(
                f"{column} {a} -> {b}"
                for column, a, b in zip(columns, old, values) if a != b))
    for file, text in texts.items():
        path = Path(tests) / f"{file}.py"
        if path.read_text() != text:
            path.write_text(text)
    out(f"rewrote rows: {len(moved)}")
    return moved


if __name__ == "__main__":
    modes = {"structure": (structure, 0), "record": (record, 0),
             "compare": (compare, 2), "records": (records, 2),
             "rewrite": (rewrite, 0)}
    mode, args = sys.argv[1] if len(sys.argv) > 1 else None, sys.argv[2:]
    if mode not in modes or len(args) != modes[mode][1]:
        sys.exit(f"usage: {sys.argv[0]} structure | record | compare OLD NEW"
                 " | rewrite")
    if mode == "records":
        args[1] = json.loads(args[1])
    moved = modes[mode][0](*args)
    sys.exit(1 if mode == "compare" and moved else 0)
