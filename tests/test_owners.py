"""Each shared rule is written in one place.

An ``ast`` walk over the sources, like ``tests/test_imports.py``: in
``properties`` only the builders of the trace summary read a trace's
``.events``; under ``src/l2sim`` one function builds the settled entry
``{"kind": SETTLEMENT, "seq": None, "state": ...}`` of read results; and
only ``core.InterfaceMachine`` writes the internal state ``ist`` directly.
The bundle classes define no entry point beyond the six of
``SubroutineBundle``, so a leftover override of a retired one cannot sit
there unused.
"""

import ast
import importlib
from pathlib import Path

from l2sim import core

SRC = Path(__file__).resolve().parents[1] / "src" / "l2sim"

SUMMARY_BUILDERS = {"summarize", "corrupted_parties", "read_views",
                    "requests", "committed_txs"}


def functions_where(source, found) -> set:
    """Names of the top-level functions (or classes) holding a node for
    which ``found`` is true."""
    out = set()
    for top in ast.parse(source).body:
        if any(found(node) for node in ast.walk(top)):
            out.add(getattr(top, "name", "<module>"))
    return out


def reads_events(node):
    return isinstance(node, ast.Attribute) and node.attr == "events"


def is_settled_entry(node):
    if not isinstance(node, ast.Dict):
        return False
    fields = {k.value: v for k, v in zip(node.keys, node.values)
              if isinstance(k, ast.Constant)}
    kind = fields.get("kind")
    return set(fields) == {"kind", "seq", "state"} \
        and isinstance(fields["seq"], ast.Constant) \
        and fields["seq"].value is None \
        and (isinstance(kind, ast.Name) and kind.id == "SETTLEMENT"
             or isinstance(kind, ast.Constant) and kind.value == "settlement")


MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "sort", "reverse", "add",
            "discard", "new_rid"}


def on_ist(node):
    """``node`` is ``ist`` or an attribute or item reached from it."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == "ist":
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == "ist"


def targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = [node.target]
    else:
        return []
    out = []
    while found:
        t = found.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            found.extend(t.elts)
        else:
            out.append(t)
    return out


def writes_ist(node):
    if any(on_ist(t) for t in targets(node)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and on_ist(node.func.value))


def test_the_guards_see_what_they_look_for():
    source = ("def a(t):\n    return t.events\n"
              "def b(s):\n    return {'kind': SETTLEMENT, 'seq': None, "
              "'state': s}\n"
              "def c(s):\n    return {'kind': 'update', 'seq': None, "
              "'state': s}\n")
    assert functions_where(source, reads_events) == {"a"}
    assert functions_where(source, is_settled_entry) == {"b"}
    writes = ("def w1(ist):\n    ist.executed[-1]['block'] = 1\n"
              "def w2(ist):\n    ist.states.append(1)\n"
              "def w3(self):\n    self.ist.queue += [1]\n"
              "def w4(ist):\n    a, ist.onchain = 1, 2\n"
              "def w5(ist):\n    del ist.read_ptr['a']\n"
              "def w6(ist):\n    ist.new_rid()\n"
              "def r1(ist):\n    return [e['state'] for e in ist.executed]\n"
              "def r2(ist):\n    return ist.latest()['bal'].get('c1')\n")
    assert functions_where(writes, writes_ist) == {f"w{i}" for i in range(1, 7)}


def test_only_the_summary_builders_read_events():
    source = (SRC / "properties.py").read_text()
    assert functions_where(source, reads_events) <= SUMMARY_BUILDERS


def test_one_function_builds_the_settled_entry():
    owners = [(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in functions_where(path.read_text(), is_settled_entry)]
    assert owners == [("core.py", "settled_entry")]


def test_only_the_interface_machine_writes_the_internal_state():
    writers = [(path.name, name) for path in sorted(SRC.glob("*.py"))
               for name in functions_where(path.read_text(), writes_ist)]
    assert writers == [("core.py", "InterfaceMachine")]


ENTRY_POINTS = {"submit", "open", "update", "read", "settlement", "upd_rnd"}


def public_methods(cls):
    return {n for n, v in vars(cls).items()
            if callable(v) and not n.startswith("_")}


def test_the_bundle_contract_has_six_entry_points():
    assert public_methods(core.SubroutineBundle) == ENTRY_POINTS


def test_no_bundle_defines_another_entry_point():
    bundles = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"l2sim.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ \
                    and issubclass(value, core.SubroutineBundle) \
                    and value is not core.SubroutineBundle:
                bundles[value.__name__] = public_methods(value) - ENTRY_POINTS
    assert bundles == {"AccountBundle": set(), "ArbitrumBundle": set(),
                       "BrickBundle": set(), "LiquidBundle": set()}
