"""Each shared rule is written in one place.

An ``ast`` walk over the sources, like ``tests/test_imports.py``: in
``properties`` only ``summarize``, the builder of the trace summary,
reads a trace's ``.events``; under ``src/l2sim`` one function builds the settled entry
``{"kind": SETTLEMENT, "seq": None, "state": ...}`` of read results; and
only ``core.InterfaceMachine`` writes the internal state ``ist`` directly;
and no polling path (a machine's ``on_round``, ``_recheck*`` or
``_watch_*`` handler, or ``ripe_deposits``, nor anything they call) scans the ledger with ``Ledger.find``: they read the kind index.
The bundle classes define no entry point beyond the six of
``SubroutineBundle``, so a leftover override of a retired one cannot sit
there unused, and they only answer: no method of theirs sends, outputs,
notes, emits, submits, signs, holds, ticks or corrupts through the
``Ctx`` it is handed.  No bundle ``read`` loops or builds a comprehension
over ``ist.executed`` or ``ist.states``: the interface keeps them in step,
so a read answers from that invariant instead of walking them.

One owner mints blocks: under ``src/l2sim`` only ``World.advance_round``
calls ``Ledger.tick``, so every world on a ledger sees its blocks by the
one rule that method keeps.

Inputs are calls, and envelopes are NET: under ``src/l2sim`` only
``World.queue_net`` builds an ``Envelope``, and no module tells the
environment from other senders by a sender's ``.role`` (``src.role`` or
``env.src.role``).

The protocol modules digest signed and identifying values only through
the run's ``CertRegistry``, so each is digested once per run: a direct
``trace.digest`` call there must be on ``DIRECT_DIGESTS``, with its reason.

Every attribute a class under ``src/l2sim`` assigns on ``self`` is read by
name somewhere in ``src/`` or ``perfbench/``; storing into its items or
calling a mutator on it whose result is dropped is not a read.  ``Machine``
subclasses are exempt: their public attributes are the corruption leak.
"""

import ast
import importlib
from pathlib import Path

from l2sim import core
from l2sim.runtime import Machine

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "l2sim"

SUMMARY_BUILDERS = {"summarize"}


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


POLLING = ("on_round", "ripe_deposits")


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


def methods_where(source, classes, found) -> set:
    """(class, method) of each method of the named top-level ``classes``
    holding a node for which ``found`` is true."""
    return {(top.name, fn.name) for top in ast.parse(source).body
            if isinstance(top, ast.ClassDef) and top.name in classes
            for fn in top.body if isinstance(fn, ast.FunctionDef)
            and any(found(node) for node in ast.walk(fn))}


def walks_records(node):
    """``node`` loops or builds a comprehension over ``ist.executed`` or
    ``ist.states``, or over anything made of them."""
    return isinstance(node, (ast.For, ast.comprehension)) and any(
        isinstance(n, ast.Attribute) and n.attr in ("executed", "states")
        and on_ist(n) for n in ast.walk(node.iter))


def self_writes(source, exempt) -> set:
    """(class, attribute) of each ``self.attribute`` that a top-level class
    not named in ``exempt`` assigns or deletes."""
    return {(top.name, t.attr) for top in ast.parse(source).body
            if isinstance(top, ast.ClassDef) and top.name not in exempt
            for node in ast.walk(top) for t in targets(node)
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"}


def only_written(node, parent) -> bool:
    """``node``'s value is only stored into: it takes an item assignment
    or delete, or a mutator call whose result is dropped or itself only
    written into."""
    up = parent.get(node)
    if isinstance(up, ast.Subscript) and up.value is node:
        return isinstance(up.ctx, (ast.Store, ast.Del)) \
            or only_written(up, parent)
    call = parent.get(up)
    if isinstance(up, ast.Attribute) and up.attr in MUTATORS \
            and isinstance(call, ast.Call) and call.func is up:
        return isinstance(parent.get(call), ast.Expr) \
            or only_written(call, parent)
    return False


def read_names(sources) -> set:
    """Names of the attributes some expression in ``sources`` reads."""
    names = set()
    for source in sources:
        tree = ast.parse(source)
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and not only_written(node, parent)}
    return names


def machine_classes(path) -> set:
    """Names of the Machine subclasses the module at ``path`` defines."""
    module = importlib.import_module(f"l2sim.{path.stem}")
    return {name for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
            and issubclass(value, Machine)}


# the protocol modules digest signed and identifying values through the
# run's registry (``CertRegistry.digest``/``message``), which digests each
# value once per run; (module, function) -> why it calls ``trace.digest``
# directly instead
DIGEST_MODULES = ("accounts.py", "arbitrum.py", "brick.py", "liquid.py")
DIRECT_DIGESTS: dict[tuple[str, str], str] = {}


def scopes_where(tree, found) -> set:
    """``name`` or ``Class.name`` of each top-level function or method of
    ``tree`` holding a node for which ``found`` is true; a node outside
    any function counts as ``<module>``."""
    out = set()
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{fn.name}", fn) for fn in top.body
                      if isinstance(fn, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef):
            scopes = [(top.name, top)]
        else:
            scopes = [("<module>", top)]
        out |= {name for name, scope in scopes
                if any(found(node) for node in ast.walk(scope))}
    return out


def calls_tick(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tick")


def builds_envelope(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "Envelope"
        or isinstance(node.func, ast.Attribute)
        and node.func.attr == "Envelope")


def reads_sender_role(node):
    """``node`` reads ``.role`` off a sender: ``src``, ``sender`` or any
    ``.src`` attribute."""
    if not (isinstance(node, ast.Attribute) and node.attr == "role"):
        return False
    owner = node.value
    return isinstance(owner, ast.Name) and owner.id in ("src", "sender") \
        or isinstance(owner, ast.Attribute) and owner.attr == "src"


def direct_digests(source) -> set:
    """The scopes (see ``scopes_where``) that call ``trace.digest``,
    imported by any name, or as ``trace.digest``."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "trace"
             for alias in node.names if alias.name == "digest"}

    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return isinstance(func, ast.Name) and func.id in names \
            or isinstance(func, ast.Attribute) and func.attr == "digest" \
            and isinstance(func.value, ast.Name) and func.value.id == "trace"

    return scopes_where(tree, calls)


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
    assert methods_where(bundles, {"B"}, calls_action) == \
        {("B", "update"), ("B", "read")}
    reads = ("class R1:\n"
             "    def read(self, ist, idx, ctx):\n"
             "        for e in ist.executed[:idx]:\n            pass\n"
             "class R2:\n"
             "    def read(self, ist, idx, ctx):\n"
             "        return all(s for i, s in enumerate(self.ist.states))\n"
             "class R3:\n"
             "    def read(self, ist, idx, ctx):\n"
             "        return [e['state'] for e in ist.executed]\n"
             "class R4:\n"
             "    def read(self, ist, idx, ctx):\n"
             "        return idx >= ist.states[idx]['seq']\n"
             "    def settlement(self, ist, body, attachment, ctx):\n"
             "        return [e for e in ist.executed]\n"
             "class R5:\n"
             "    def read(self, ist, idx, ctx):\n"
             "        return [r for r in ist.queue]\n")
    assert methods_where(reads, {f"R{i}" for i in range(1, 6)},
                         walks_records) == {("R1", "read"), ("R2", "read"),
                                            ("R3", "read"),
                                            ("R4", "settlement")}
    attrs = ("class A:\n"
             "    def __init__(self):\n"
             "        self.log, self.seen, self.n = [], {}, 0\n"
             "        self.kept: dict = {}\n        self.got = []\n"
             "    def add(self, x):\n"
             "        self.log.append(x)\n"
             "        self.seen.setdefault(x, []).append(1)\n"
             "        self.n += 1\n"
             "        self.kept[x] = 1\n"
             "        return self.got.pop()\n"
             "    def has(self, x):\n        return x in self.kept\n"
             "class M:\n"
             "    def __init__(self):\n        self.leak = 1\n")
    assert self_writes(attrs, {"M"}) == \
        {("A", a) for a in ("log", "seen", "n", "kept", "got")}
    assert self_writes(attrs, set()) >= {("M", "leak")}
    read = read_names([attrs])
    assert {"kept", "got"} <= read
    assert not {"log", "seen", "n", "leak"} & read
    digests = ("from .trace import digest as d\n"
               "from . import trace\n"
               "GENESIS = d({})\n"
               "def f(x):\n    return d(x)\n"
               "def g(x):\n    return trace.digest(x)\n"
               "def h(certs, x):\n    return certs.digest(x)\n"
               "class C:\n"
               "    def m(self, x):\n        return [d(y) for y in x]\n"
               "    def n(self, ctx, x):\n        return ctx.certs.digest(x)\n")
    assert direct_digests(digests) == {"<module>", "f", "g", "C.m"}
    ticks = ("class W:\n"
             "    def advance_round(self):\n        self.ledger.tick()\n"
             "    def corrupt(self, e):\n        return self.tick\n"
             "def mint(world):\n    world.ledger.tick()\n"
             "LEDGER.tick()\n")
    assert scopes_where(ast.parse(ticks), calls_tick) == \
        {"W.advance_round", "mint", "<module>"}
    envelopes = ("class W:\n"
                 "    def queue_net(self, a, b, p):\n"
                 "        self.net[1] = Envelope(1, a, b, p, 0, 0)\n"
                 "    def inject_input(self, a, p):\n"
                 "        runtime.Envelope(0, self.env, a, 'io', p, 0, 0)\n"
                 "def wrap(p):\n    return Envelope\n")
    assert scopes_where(ast.parse(envelopes), builds_envelope) == \
        {"W.queue_net", "W.inject_input"}
    roles = ("class M:\n"
             "    def on_message(self, ctx, env):\n"
             "        if env.src.role == ENV_ROLE:\n            pass\n"
             "    def _on(self, ctx, p, src):\n"
             "        return src.role != 'env'\n"
             "    def ok(self, ctx, env):\n"
             "        return self.me.role, env.dst.role, src.short()\n"
             "def menu(world, entity):\n    return entity.role\n")
    assert scopes_where(ast.parse(roles), reads_sender_role) == \
        {"M.on_message", "M._on"}


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
        acting |= methods_where(path.read_text(), names, calls_action)
    assert acting == set()


def test_no_bundle_read_walks_the_records():
    walking = set()
    for path in sorted(SRC.glob("*.py")):
        names = {cls.__name__ for cls in bundle_classes(path)} | \
            {"SubroutineBundle"}
        walking |= {found for found in methods_where(
            path.read_text(), names, walks_records) if found[1] == "read"}
    assert walking == set()


def test_every_written_attribute_is_read():
    read = read_names(path.read_text() for path in
                      [*sorted(SRC.glob("*.py")),
                       *sorted((ROOT / "perfbench").rglob("*.py"))])
    unread = {found for path in sorted(SRC.glob("*.py"))
              for found in self_writes(path.read_text(), machine_classes(path))
              if found[1] not in read}
    assert unread == set()


def test_only_a_round_advance_mints():
    minters = {(path.name, name) for path in sorted(SRC.glob("*.py"))
               for name in scopes_where(ast.parse(path.read_text()),
                                        calls_tick)}
    assert minters == {("runtime.py", "World.advance_round")}


def test_protocol_digests_go_through_the_registry():
    direct = {(name, fn) for name in DIGEST_MODULES
              for fn in direct_digests((SRC / name).read_text())}
    assert direct == set(DIRECT_DIGESTS)


def test_only_a_net_send_builds_an_envelope():
    builders = {(path.name, name) for path in sorted(SRC.glob("*.py"))
                for name in scopes_where(ast.parse(path.read_text()),
                                         builds_envelope)}
    assert builders == {("runtime.py", "World.queue_net")}


def test_no_machine_picks_out_the_environment_by_role():
    readers = {(path.name, name) for path in sorted(SRC.glob("*.py"))
               for name in scopes_where(ast.parse(path.read_text()),
                                        reads_sender_role)}
    assert readers == set()
