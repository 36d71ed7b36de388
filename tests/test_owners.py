"""Each shared rule is written in one place.

An ``ast`` walk over the sources, like ``tests/test_imports.py``: in
``properties`` only the builders of the trace summary read a trace's
``.events``; under ``src/l2sim`` one function builds the settled entry
``{"kind": SETTLEMENT, "seq": None, "state": ...}`` of read results; and
only ``core.InterfaceMachine`` writes the internal state ``ist`` directly;
and no polling path (a machine's ``on_round``, ``on_ledger_block``,
``_recheck*`` or ``_watch_*`` handler, or ``ripe_deposits``, nor anything
they call) scans the ledger with ``Ledger.find``: they read the kind index.
The bundle classes define no entry point beyond the six of
``SubroutineBundle``, so a leftover override of a retired one cannot sit
there unused, and they only answer: no method of theirs sends, outputs,
notes, emits, submits, signs, holds, ticks or corrupts through the
``Ctx`` it is handed.
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


POLLING = ("on_round", "on_ledger_block", "ripe_deposits")


def is_polling(name):
    return name in POLLING or name.startswith(("_recheck", "_watch_"))


def calls_find(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "find")


def callees(fn):
    """Names ``fn`` calls as ``name(...)`` or ``self.name(...)``."""
    out = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            out.add(node.func.id)
        elif isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "self":
            out.add(node.func.attr)
    return out


def polling_finds(sources) -> set:
    """Names of the functions that call ``.find`` and are reached from a
    polling path.  Calls resolve by name across all ``sources``, so a name
    shared by several functions reaches all of them."""
    defs = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(node)
    reached, todo = set(), [name for name in defs if is_polling(name)]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for fn in defs[name]:
            todo.extend(callees(fn))
    return {name for name in reached
            if any(calls_find(node) for fn in defs[name]
                   for node in ast.walk(fn))}


ACTIONS = {"send_net", "output", "note", "queue_io", "queue_net", "emit",
           "submit", "sign", "hold", "tick", "corrupt"}


def calls_action(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return name in ACTIONS


def acting_methods(source, classes) -> set:
    """(class, method) of each method of the named top-level ``classes``
    that calls an action."""
    return {(top.name, fn.name) for top in ast.parse(source).body
            if isinstance(top, ast.ClassDef) and top.name in classes
            for fn in top.body if isinstance(fn, ast.FunctionDef)
            and any(calls_action(node) for node in ast.walk(fn))}


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
    machine = ("class M:\n"
               "    def on_round(self, ctx):\n        self._check(ctx)\n"
               "    def _check(self, ctx):\n"
               "        return ctx.ledger.find(lambda t: True)\n"
               "    def _recheck_x(self, ctx):\n"
               "        return ctx.ledger.records('deposit')\n"
               "    def open(self, env):\n"
               "        return env.ledger.find(lambda t: True)\n")
    helper = ("def _watch_y(ctx):\n    return scan(ctx.ledger)\n"
              "def scan(ledger):\n    return ledger.find(lambda t: True)\n")
    assert polling_finds([machine]) == {"_check"}
    assert polling_finds([machine, helper]) == {"_check", "scan"}
    bundles = ("class B(SubroutineBundle):\n"
               "    def open(self, ist, body, attachment, ctx):\n"
               "        return ctx.ledger.find(lambda t: True)\n"
               "    def update(self, ist, state, attachment, ctx):\n"
               "        ctx.ledger.submit(state)\n"
               "    def read(self, ist, idx, ctx):\n"
               "        ctx.world.emit('x')\n"
               "    def upd_rnd(self, ist, ctx):\n"
               "        return ctx.certs.verify_any(None, 1), None\n"
               "class M:\n"
               "    def on_round(self, ctx):\n        ctx.note('x')\n")
    assert acting_methods(bundles, {"B"}) == {("B", "update"), ("B", "read")}


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


def test_no_polling_path_scans_the_ledger():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert polling_finds(sources) == set()


ENTRY_POINTS = {"submit", "open", "update", "read", "settlement", "upd_rnd"}


def public_methods(cls):
    return {n for n, v in vars(cls).items()
            if callable(v) and not n.startswith("_")}


def test_the_bundle_contract_has_six_entry_points():
    assert public_methods(core.SubroutineBundle) == ENTRY_POINTS


def bundle_classes(path) -> list:
    """The SubroutineBundle subclasses the module at ``path`` defines."""
    module = importlib.import_module(f"l2sim.{path.stem}")
    return [value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and issubclass(value, core.SubroutineBundle)
            and value is not core.SubroutineBundle]


def test_no_bundle_defines_another_entry_point():
    bundles = {cls.__name__: public_methods(cls) - ENTRY_POINTS
               for path in sorted(SRC.glob("*.py"))
               for cls in bundle_classes(path)}
    assert bundles == {"AccountBundle": set(), "ArbitrumBundle": set(),
                       "BrickBundle": set(), "LiquidBundle": set()}


def test_bundles_only_answer():
    acting = set()
    for path in sorted(SRC.glob("*.py")):
        names = {cls.__name__ for cls in bundle_classes(path)}
        acting |= acting_methods(path.read_text(), names)
    assert acting == set()
