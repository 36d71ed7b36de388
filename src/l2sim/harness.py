"""Real-versus-ideal differential driving for the three protocols.

A real run hosts the protocol machines alone.  An ideal run stacks three
pieces: an outer world holding the interface machine plus bare ``Machine``s
for the non-client cast, an inner world running the very same protocol
machines, and a scripted simulator that observes the inner trace and turns
each inner note into interface triggers as the note is written.  Both worlds are built on one ledger, which holds the run's
timing and registry; the inner world advances in lockstep right after
each outer round, which keeps envelope numbering, block timing, and so
client-visible outputs identical between the two runs.  The outer world,
first to each round, mints its block; reads ask the simulator through the
interface machine's ``read_delay``.  The inner world sees the ledger's events by the same rule,
so its trace is a stand-alone real run's: the inner world *is* the real
run, unless the ideal run refused a round (``IdealRun.advance`` then
flushes the inner world but does not advance it).

Schedules are plain data (lists of step dicts), so they serialize into
scenario files and replay bit-exactly; ``apply_schedule`` checks every step
against ``STEP_FIELDS`` and every environment entry against
``ENTRY_FIELDS`` before the first step, and raises ScheduleError for a
malformed one, or for a menu step whose party is not corrupted by then or
whose action that party's menu lacks.  Both run flavors expose the same
driving surface (input / corrupt / menu / menu_act / pump / advance), and
``run_differential`` executes one schedule against both, running the
protocol once where it can, and diffs the per-party output streams.  Both
flavors build read results with ``core.read_result``, and
``output_projection`` keeps a read's ``base``, ``settled`` and the keys of
its executed entries.  The prefix rule fixes ``base`` from the views alone,
so the outputs of two runs are equal exactly when their readers' whole
views are.  A run's trace is only ever appended to: the property checks
share one ``properties.summarize`` summary, built in one walk over the
events, per trace object, events list and event count, so an event must
never be edited in place.

A protocol is a module registered in ``PROTOCOLS``; the module itself is
the contract, and it provides:

- ``canonical_scenario(**kw)``: the default scenario dict;
- ``liveness_params(scn)``: {request class: {"f", "t_l2", "t_l1"}};
- ``party_roles(scn)``: (role, pids, corruption budget) rows of the cast;
- ``build_real(world, scn)``: declares roles and registers the machines;
- ``make_bundle(world, scn)``: the SubroutineBundle of the ideal run;
- ``EnvTracker(scn).ideal_request(pid, entry)``: a stateless translation
  of an environment entry into an interface request, or None, with which
  the interface machine reads the entries both runs get;
- ``Hooks(scn)`` with ``triggers_for(inner, note)``, which sees only the
  inner run's ``note`` events, and ``read_delay(inner, pid)``: the
  simulator's view of the inner run;
- ``menu(world, entity)``: {action name: callable} of moves in a corrupted
  party's name; a move returns the environment entry it mirrors, which an
  ideal run hands the interface as a forced input, or None.

The benchmark under ``perfbench/`` resolves names by hand, so these keep
their names and signatures:

- here: ``protocol``, ``scripted_schedules``, ``lifecycle_schedule``,
  ``run_differential``, ``output_projection`` and ``diff_outputs``; it
  wraps ``make_real``, ``build_ideal``, ``Simulator.sync`` (the observer
  of the inner trace, so one call per inner event) and ``apply_schedule``;
- per protocol: ``canonical_scenario``, ``party_roles`` and
  ``liveness_params``; it wraps ``Hooks.triggers_for``, ``Hooks.read_delay``
  and ``EnvTracker.ideal_request`` (each in the class's own ``__dict__``)
  and the machine classes' ``on_message``/``on_round`` (not ``on_input``,
  so handling an input counts as ``World.inject_input`` self time);
- it wraps ``liquid.cert_valid``, ``arbitrum.chain_view``,
  ``arbitrum.batch_digest`` and public functions of ``accounts``, ``trace``
  and ``properties``, which callers look up through the module global so
  that the wrapper sees every call;
- it wraps ``World.deliver_net``, ``drain_io``, ``inject_input``,
  ``advance_round``, ``flush_overdue``, ``corrupt``, ``emit`` and
  ``queue_net`` in ``runtime``; ``Ledger.find``/``validate``/``submit``/
  ``tick``/``read``, ``CertRegistry.sign``/``verify``/``verify_any`` and
  ``make_tx`` in ``base``; ``InterfaceMachine.on_message`` and every
  bundle entry point in ``core``.

Its ``find(ledger, pred)`` shim fixes the signature of ``Ledger.find``, the
ideal side's scan, so the ledger's (kind, chain) index has its own accessor,
``Ledger.records(kind, chain)``, which the polling parties read and the
benchmark does not wrap.
"""

from __future__ import annotations

import random

from . import arbitrum, brick, liquid
from .base import Ledger
from .core import CLIENT, INTERFACE_ROLE, InterfaceMachine, attach_round_gate
from .properties import entry_keys, read_fields
from .runtime import EntityId, Machine, ScheduleError, World
from .trace import canon

PROTOCOLS = {"brick": brick, "liquid": liquid, "arbitrum": arbitrum}

# the run's one timing value: the ledger holds it and every world on the
# ledger reads it; t_period > liveness_bound keeps rollup finality monotone
# (see ``arbitrum``)
DESK_TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2,
               "t_period": 4}


def protocol(name):
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None


def make_real(name, scn=None):
    """Stand-alone real world: ledger, certificates, protocol machines."""
    proto = protocol(name)
    scn = scn or proto.canonical_scenario()
    world = World(name, Ledger(DESK_TIMING))
    proto.build_real(world, scn)
    return world, scn


def build_ideal(name, scn=None):
    """Outer interface world plus the simulator running the inner twin."""
    proto = protocol(name)
    scn = scn or proto.canonical_scenario()
    outer = World(name, Ledger(DESK_TIMING))
    outer.declare_role(INTERFACE_ROLE, subroutine=True)
    identities = {}
    client_pids = []
    for role, pids, budget in proto.party_roles(scn):
        identities[role] = list(pids)
        outer.declare_role(role, budget=budget)
        if role == CLIENT:
            client_pids = list(pids)
            continue
        for pid in pids:      # an inert stand-in the adversary can corrupt
            outer.register(Machine(outer.entity(role, pid)))
    bundle = proto.make_bundle(outer, scn)
    clients = [outer.entity(CLIENT, p) for p in client_pids]
    fm = InterfaceMachine(outer.entity(INTERFACE_ROLE, "F"), bundle,
                          proto.EnvTracker(scn), clients, identities)
    outer.register(fm)
    attach_round_gate(outer, fm)
    sim = Simulator(outer, proto, scn)
    return outer, sim, scn


class Simulator:
    """Scripted adversary-side program for the ideal run.

    Keeps a private copy of the protocol, ``inner``, on the outer world's
    ledger (the outer world reaches each round first, so it mints every
    block), and observes the inner trace: ``sync`` sees each inner event as
    it is written and turns each ``note`` into interface triggers at once.
    The interface machine's ``read_delay`` answers from the inner clients'
    positions.
    """

    def __init__(self, outer, proto, scn):
        self.outer = outer
        self.hooks = proto.Hooks(scn)
        self.funct = outer.roles[INTERFACE_ROLE][0]
        self.adv = EntityId("sim", outer.sid, "adv")
        self.inner = World(outer.sid, outer.ledger)
        self.inner.trace.observers.append(self.sync)
        proto.build_real(self.inner, scn)
        outer.owners[self.funct].read_delay = self.read_delay

    def sync(self, ev):
        """Observe one inner event: a note becomes interface triggers."""
        if ev["t"] == "note":
            for trig in self.hooks.triggers_for(self.inner, ev):
                self.trigger(trig)

    def read_delay(self, pid):
        return self.hooks.read_delay(self.inner, pid)

    def trigger(self, payload):
        """Send the interface one trigger and deliver it at once."""
        self.outer.queue_net(self.adv, self.funct, payload)
        self.outer.deliver_net(self.outer.eid_counter)


def _deliverable(world):
    return [e.eid for e in world.pending_net()
            if e.hold_until is None or world.round_no >= e.hold_until]


def _client_entities(world):
    """pid -> entity of each client registered in ``world``."""
    return {ent.pid: ent for ent in world.roles.get(CLIENT, ())}


def _pump_world(world, seed=None):
    """Deliver every unheld NET envelope, batch by batch, until quiescent.
    With a ``seed``, each batch goes in the order that one ``Random(seed)``
    shuffles it into, seeded at the first batch that a shuffle can move."""
    rng = None
    while world.halted is None:
        batch = _deliverable(world)
        if not batch:
            break
        if seed is not None and len(batch) > 1:
            rng = rng or random.Random(seed)
            rng.shuffle(batch)
        for eid in batch:
            world.deliver_net(eid)


class RealRun:
    """Schedule facade over a stand-alone real world, or over ``world``, an
    ideal run's inner world, which must not be driven further."""

    flavor = "real"

    def __init__(self, name, scn=None, world=None):
        self.proto = protocol(name)
        self.world, self.scn = (world, scn) if world else make_real(name, scn)
        self.clients = _client_entities(self.world)

    @property
    def trace(self):
        return self.world.trace

    def input(self, pid, entry):
        self.world.inject_input(self.clients[pid], dict(entry))

    def corrupt(self, role, pid, force=False):
        self.world.corrupt(self.world.entity(role, pid),
                           allow_over_budget=force)

    def corrupted(self, role, pid):
        return self.world.entity(role, pid) in self.world.corruption

    def menu(self, role, pid):
        return self.proto.menu(self.world, self.world.entity(role, pid))

    def menu_act(self, role, pid, action):
        self.menu(role, pid)[action]()

    def raw_trigger(self, payload):
        pass

    def pump(self, seed=None):
        _pump_world(self.world, seed)

    def advance(self):
        return self.world.advance_round()


class IdealRun:
    """Schedule facade over the interface machine plus its simulator."""

    flavor = "ideal"

    def __init__(self, name, scn=None):
        self.proto = protocol(name)
        self.outer, self.sim, self.scn = build_ideal(name, scn)
        self.refused = []    # {round, reason} of each advance the outer refused
        # the two worlds share a sid, so one entity names a client in both
        self.clients = _client_entities(self.outer)

    @property
    def trace(self):
        return self.outer.trace

    def input(self, pid, entry):
        ent = self.clients[pid]
        self.sim.inner.inject_input(ent, dict(entry))
        self.outer.inject_input(ent, dict(entry))

    def corrupt(self, role, pid, force=False):
        for world in (self.outer, self.sim.inner):
            world.corrupt(world.entity(role, pid), allow_over_budget=force)

    def corrupted(self, role, pid):
        inner = self.sim.inner
        return inner.entity(role, pid) in inner.corruption

    def menu(self, role, pid):
        inner = self.sim.inner
        return self.proto.menu(inner, inner.entity(role, pid))

    def menu_act(self, role, pid, action):
        mirrored = self.menu(role, pid)[action]()
        if mirrored is not None:
            self.outer.inject_input(self.outer.entity(CLIENT, pid), mirrored,
                                    force=True)

    def raw_trigger(self, payload):
        self.sim.trigger(payload)

    def pump(self, seed=None):
        _pump_world(self.sim.inner, seed)

    def advance(self):
        # the protocol machines must see their overdue deliveries before
        # the shared chain extends, exactly as one real advance interleaves
        # its flush and its tick; only then does the clock move on both
        # sides of the stack
        self.sim.inner.flush_overdue()
        ok = self.outer.advance_round()
        if ok:
            self.sim.inner.advance_round()
        else:   # a gate's refusal is the outer's last event; a halt has none
            self.refused.append({"round": self.outer.round_no, "reason":
                                 "halted" if self.outer.halted
                                 else self.outer.trace.events[-1]["reason"]})
        return ok


# -- schedules -------------------------------------------------------------


_PAY = {"to": str, "amt": int}
_ACCOUNT_ENTRIES = {"pay": _PAY, "deposit": {"amt": int},
                    "settle": {"amt": int}}
# the fields each kind of environment entry must carry, with their types,
# per protocol; a field whose types include None may also be missing.
# Brick closes the whole channel, so its settle names no amount, and the
# seq of the state to close on only if it picks one.  A kind not listed
# here is one no client acts on.
ENTRY_FIELDS = {brick: {"pay": _PAY, "settle": {"seq": (int, type(None))}},
                liquid: _ACCOUNT_ENTRIES, arbitrum: _ACCOUNT_ENTRIES}


# the fields each schedule op needs, with their types (a raw trigger's
# payload may be any JSON: the interface must refuse what it cannot use);
# any step may also carry the optional fields, which a pump reads as its
# shuffle seed and a corrupt as its force flag
STEP_FIELDS = {"input": {"pid": str}, "advance": {}, "pump": {},
               "corrupt": {"role": str, "pid": str},
               "menu": {"role": str, "pid": str, "action": str},
               "raw-trigger": {"payload": object}}
OPTIONAL_FIELDS = {"seed": int, "force": bool}


def _types(typ):
    return typ if isinstance(typ, tuple) else (typ,)


def _typed(value, typ):
    """``value`` is a ``typ``, a type or a tuple of types; a bool is no
    int."""
    return isinstance(value, typ) and not (type(value) is bool
                                           and int in _types(typ))


def _serializable(value, what):
    """Raise ScheduleError unless ``value`` can go into a trace."""
    try:
        canon(value)
    except (TypeError, ValueError) as e:
        raise ScheduleError(f"{what} cannot go into a trace: {e}") from None


def _check_entry(proto, entry):
    """Raise ScheduleError unless ``entry`` is a well-formed environment
    entry for protocol module ``proto``."""
    if not isinstance(entry, dict) or not isinstance(entry.get("kind"), str):
        raise ScheduleError(f"malformed environment entry {entry!r}")
    fields = ENTRY_FIELDS[proto].get(entry["kind"], {})
    for name, typ in fields.items():
        value = entry.get(name)
        if not _typed(value, typ):
            names = " or ".join(t.__name__ for t in _types(typ))
            raise ScheduleError(f"{entry['kind']} entry needs {names} "
                                f"{name!r}, got {value!r}")
    if len(entry.keys() - fields.keys()) > 1:   # an untyped field, not kind
        _serializable(entry, f"{entry['kind']} entry")


def _check_step(proto, step):
    """The op of ``step``; raise ScheduleError unless it is a well-formed
    schedule step for protocol module ``proto``."""
    if not isinstance(step, dict):
        raise ScheduleError(f"schedule step is not a dict: {step!r}")
    op = step.get("op")
    fields = STEP_FIELDS.get(op) if isinstance(op, str) else None
    if fields is None:
        raise ScheduleError(f"unknown schedule op {op!r}")
    for name, typ in fields.items():
        value = step.get(name)
        if not (type(value) is typ or name in step and _typed(value, typ)):
            raise ScheduleError(f"{op} step needs {typ.__name__} {name!r}, "
                                f"got {value!r}")
    for name, typ in OPTIONAL_FIELDS.items():
        if name in step and not _typed(step[name], typ):
            raise ScheduleError(f"{op} step's {name!r} must be "
                                f"{typ.__name__}, got {step[name]!r}")
    if op == "input":
        _check_entry(proto, step.get("entry"))
    elif op == "raw-trigger":
        _serializable(step["payload"], "raw-trigger payload")
    return op


def apply_schedule(run, schedule):
    """Run ``schedule`` step by step; every step is checked first.

    Besides its form, an input, corrupt or menu step must name a party of
    the run's cast (``party_roles``; an input names a client), and a menu
    step a party that the run has corrupted already or an earlier corrupt
    step names, and an action of that party's ``menu``.
    """
    cast = {(role, pid) for role, pids, _ in run.proto.party_roles(run.scn)
            for pid in pids}
    corrupted = set()
    for step in schedule:
        op = _check_step(run.proto, step)
        if op not in ("input", "corrupt", "menu"):
            continue
        party = (CLIENT if op == "input" else step["role"], step["pid"])
        if party not in cast:
            raise ScheduleError(f"{op} step for {party[0]} {party[1]}, "
                                "which the run does not have")
        if op == "corrupt":
            corrupted.add(party)
        elif op == "menu":
            if party not in corrupted and not run.corrupted(*party):
                raise ScheduleError(f"menu step for {party[0]} {party[1]}, "
                                    "which is not corrupted")
            if step["action"] not in run.menu(*party):
                raise ScheduleError(f"{party[0]} {party[1]} has no menu "
                                    f"action {step['action']!r}")
    for step in schedule:
        op = step["op"]
        if op == "input":
            run.input(step["pid"], step["entry"])
        elif op == "advance":
            run.advance()
        elif op == "pump":
            run.pump(step.get("seed"))
        elif op == "corrupt":
            run.corrupt(step["role"], step["pid"], step.get("force", False))
        elif op == "menu":
            run.menu_act(step["role"], step["pid"], step["action"])
        else:
            run.raw_trigger(step["payload"])
    return run


# garbage triggers are rejected by every bundle, so they exercise the
# interface's refusal paths without disturbing real/ideal parity
GARBAGE_TRIGGERS = (
    {"kind": "update", "state": None},
    {"kind": "open", "body": {}},
    {"kind": "settlement", "body": {}},
)


def lifecycle_schedule(name, scn, seed, pays=4, adversarial=False):
    """Deterministic open/traffic/settle schedule for seeded suites."""
    proto = protocol(name)
    rng = random.Random(seed)
    clients = list(scn["clients"])
    steps = []

    def pump():
        steps.append({"op": "pump", "seed": rng.randrange(1 << 30)})

    def advance(k=1):
        for _ in range(k):
            steps.append({"op": "advance"})
            pump()
            for c in clients:
                steps.append({"op": "input", "pid": c,
                              "entry": {"kind": "read"}})

    for c in clients:
        steps.append({"op": "input", "pid": c, "entry": {"kind": "open"}})
    advance(4)

    corrupted = []
    if adversarial:
        pool = [(role, pid) for role, pids, budget in proto.party_roles(scn)
                if role != CLIENT
                for pid in rng.sample(list(pids), min(budget, len(pids)))]
        rng.shuffle(pool)
        for role, pid in pool[:rng.randint(0, len(pool))]:
            steps.append({"op": "corrupt", "role": role, "pid": pid})
            corrupted.append((role, pid))

    # a fixed table, not menu(): it would add the rollup client's
    # spam-overdraft, shift the rng draws and so change every adversarial
    # rollup schedule
    menu_names = {
        ("brick", "warden"): ["publish-stale", "ack-garbage"],
        ("brick", "client"): ["stale-settle"],
        ("liquid", "operator"): ["stale-push", "garbage-propose"],
        ("liquid", "client"): ["spam-overdraft"],
        ("arbitrum", "operator"): ["publish-wrong"],
        ("arbitrum", "validator"): ["false-accuse"],
    }
    has_deposit = name in ("liquid", "arbitrum")
    for i in range(pays):
        actor = clients[i % len(clients)]
        peer = clients[(i + 1) % len(clients)]
        if has_deposit and rng.random() < 0.3:
            entry = {"kind": "deposit", "amt": rng.randint(1, 3)}
        else:
            entry = {"kind": "pay", "to": peer, "amt": rng.randint(1, 2)}
        steps.append({"op": "input", "pid": actor, "entry": entry})
        if corrupted and rng.random() < 0.5:
            role, pid = rng.choice(corrupted)
            names = menu_names.get((name, role), [])
            if names:
                steps.append({"op": "menu", "role": role, "pid": pid,
                              "action": rng.choice(names)})
        if adversarial and rng.random() < 0.3:
            steps.append({"op": "raw-trigger",
                          "payload": dict(rng.choice(GARBAGE_TRIGGERS))})
        advance(2)

    if name == "brick":
        entry = {"kind": "settle", "type": "collab"}
    else:
        entry = {"kind": "settle", "amt": 1}
    steps.append({"op": "input", "pid": clients[0], "entry": entry})
    advance(6)
    return steps


def scripted_schedules(name, scn):
    """Named differential scenarios; every protocol gets at least twelve.

    The common block covers the happy path, delivery races, read pressure,
    refusals, and settlement timing; the per-protocol block adds corruption
    at each phase plus the protocol's own adversary moves.
    """
    clients = list(scn["clients"])
    c1, c2 = clients[0], clients[1]
    settle = ({"kind": "settle", "type": "collab"} if name == "brick"
              else {"kind": "settle", "amt": 1})
    # rollup traffic finalizes through periodic batches and chain burial, so
    # its scenarios breathe on a slower cadence than the channel protocols
    lag = 10 if name == "arbitrum" else 4
    wind = 12 if name == "arbitrum" else 6

    def inp(pid, entry):
        return [{"op": "input", "pid": pid, "entry": dict(entry)}]

    def opens():
        return [s for c in clients for s in inp(c, {"kind": "open"})]

    def reads():
        return [s for c in clients for s in inp(c, {"kind": "read"})]

    def adv(k=1, seed=None):
        out = []
        for i in range(k):
            out.append({"op": "advance"})
            p = {"op": "pump"}
            if seed is not None:
                p["seed"] = seed + i
            out.append(p)
        return out

    def pay(frm, to, amt):
        return inp(frm, {"kind": "pay", "to": to, "amt": amt})

    def corrupt(role, pid, force=False):
        step = {"op": "corrupt", "role": role, "pid": pid}
        if force:
            step["force"] = True
        return [step]

    def menu(role, pid, action):
        return [{"op": "menu", "role": role, "pid": pid, "action": action}]

    garbage = [{"op": "raw-trigger", "payload": dict(g)}
               for g in GARBAGE_TRIGGERS]

    base = opens() + adv(4) + reads()
    single = base + pay(c1, c2, 3) + adv(lag) + reads()
    out = {
        "open-only": base,
        "single-pay": single,
        "pay-both-directions": (base + pay(c1, c2, 2) + pay(c2, c1, 1)
                                + adv(lag) + reads()),
        "pay-race-same-step": (base + pay(c1, c2, 2) + pay(c2, c1, 2)
                               + adv(lag, seed=7) + reads()),
        "pay-pipeline": (base + pay(c1, c2, 1) + adv(2) + pay(c1, c2, 1)
                         + adv(2) + pay(c2, c1, 2) + adv(lag) + reads()),
        "read-heavy": opens() + [s for _ in range(8)
                                 for s in adv(1) + reads()],
        "shuffled-delivery": (base + pay(c1, c2, 3) + adv(lag, seed=11)
                              + reads() + pay(c2, c1, 1) + adv(lag, seed=23)
                              + reads()),
        "no-pump-delta-flush": (opens() + [{"op": "advance"}] * 5
                                + [{"op": "pump"}] + reads()
                                + pay(c1, c2, 2) + [{"op": "advance"}] * (lag + 1)
                                + [{"op": "pump"}] + adv(1) + reads()),
        "overdraft-refused": (base + pay(c1, c2, 99) + adv(2) + reads()
                              + pay(c1, c2, 2) + adv(lag) + reads()),
        "settle-fresh": base + inp(c1, settle) + adv(wind) + reads(),
        "settle-after-traffic": single + inp(c1, settle) + adv(wind) + reads(),
        "garbage-triggers": (base + garbage + pay(c1, c2, 1) + adv(2)
                             + garbage + adv(3) + reads()),
    }
    if name == "brick":
        out["corrupt-warden-noise"] = (
            base + corrupt("warden", "w1") + menu("warden", "w1", "publish-stale")
            + pay(c1, c2, 2) + menu("warden", "w1", "ack-garbage")
            + adv(4) + reads())
        out["stale-settle-attempt"] = (
            single + corrupt("client", c2) + menu("client", c2, "stale-settle")
            + adv(6) + reads())
        out["unilateral-exit"] = (
            single + corrupt("client", c2)
            + inp(c1, {"kind": "settle", "type": "unilateral"})
            + adv(6) + reads())
    elif name == "liquid":
        out["corrupt-operator-rotation"] = (
            base + corrupt("operator", "op1") + pay(c1, c2, 2) + adv(4)
            + reads() + pay(c2, c1, 1) + adv(4) + reads())
        out["deposit-mint"] = (base + inp(c1, {"kind": "deposit", "amt": 4})
                               + adv(6) + reads() + pay(c1, c2, 2) + adv(3)
                               + reads())
        out["deposit-then-withdraw"] = (
            base + inp(c1, {"kind": "deposit", "amt": 4}) + adv(6)
            + inp(c1, {"kind": "settle", "amt": 2}) + adv(8) + reads())
        out["operator-menu-noise"] = (
            base + corrupt("operator", "op2") + pay(c1, c2, 1)
            + menu("operator", "op2", "stale-push") + adv(2)
            + menu("operator", "op2", "garbage-propose") + adv(3) + reads())
        out["client-spam"] = (
            base + corrupt("client", c2) + menu("client", c2, "spam-overdraft")
            + pay(c1, c2, 2) + adv(4) + reads())
    else:
        out["fraud-struck"] = (
            base + corrupt("operator", "p1") + menu("operator", "p1", "publish-wrong")
            + pay(c1, c2, 2) + adv(8) + reads())
        out["self-publish-rescue"] = (
            base + corrupt("operator", "p1") + corrupt("operator", "p2")
            + pay(c1, c2, 3) + adv(12) + reads())
        out["deposit-mint"] = (base + inp(c1, {"kind": "deposit", "amt": 4})
                               + adv(8) + reads() + pay(c1, c2, 2) + adv(6)
                               + reads())
        out["withdraw-exit"] = (single + inp(c2, {"kind": "settle", "amt": 2})
                                + adv(10) + reads())
        out["false-accuse-noise"] = (
            single + corrupt("validator", "v1", force=True)
            + menu("validator", "v1", "false-accuse") + adv(4) + reads())
    return out


# -- output comparison -----------------------------------------------------


def output_projection(trace, texts=None):
    """Per-party ordered view of what the environment saw, corrupted
    parties' reads included: a read keeps its ``base``, ``settled`` and
    entry keys.  ``texts`` is the canonical state-text memo of
    ``properties.entry_keys``, shared by every read and by any projection
    handed the same dict."""
    per = {}
    texts = {} if texts is None else texts
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        p = ev["payload"]
        kind = p.get("kind")
        if kind == "read-result":
            base, executed, settled = read_fields(p)
            item = {"kind": kind, "base": base, "settled": settled,
                    "executed": entry_keys(executed, texts)}
        elif kind in ("open-ok", "settle-ok"):
            item = {"kind": kind, "state": p.get("state")}
        else:
            item = {"kind": kind, "raw": canon(p)}
        per.setdefault(ev["party"], []).append(item)
    return per


def diff_outputs(real_trace, ideal_trace):
    """Element-for-element mismatches between the two output streams; the
    projections share one memo, as the runs' reads share state objects."""
    texts = {}
    a = output_projection(real_trace, texts)
    b = output_projection(ideal_trace, texts)
    out = []
    for party in sorted(set(a) | set(b)):
        xs, ys = a.get(party, []), b.get(party, [])
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x != y:
                out.append({"party": party, "index": i,
                            "real": x, "ideal": y})
        if len(xs) != len(ys):
            out.append({"party": party, "index": min(len(xs), len(ys)),
                        "real": f"{len(xs)} outputs",
                        "ideal": f"{len(ys)} outputs"})
    return out


def run_differential(name, scn=None, schedule=()):
    """Drive one schedule through both flavors and diff the outputs.  The
    real run is the ideal run's inner world, not to be driven further,
    unless the ideal run refused a round: then it is a separate run."""
    ideal = apply_schedule(IdealRun(name, scn), schedule)
    real = (apply_schedule(RealRun(name, scn), schedule) if ideal.refused
            else RealRun(name, ideal.scn, ideal.sim.inner))
    return real, ideal, diff_outputs(real.trace, ideal.trace)
