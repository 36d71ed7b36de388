"""Real-versus-ideal differential driving for the three protocols.

A real run hosts the protocol machines alone.  An ideal run stacks three
pieces: an outer world holding the interface machine plus inert stand-ins
for the non-client cast, an inner world running the very same protocol
machines, and a scripted simulator that replays inner progress as interface
triggers.  The inner world shares the outer world's ledger and signature
registry and advances in lockstep right after every outer round, which
keeps envelope numbering, block timing, and therefore client-visible
outputs identical between the two runs.

Schedules are plain data (lists of step dicts), so they serialize into
scenario files and replay bit-exactly; ``apply_schedule`` checks every
environment entry against ``ENTRY_FIELDS`` before the first step and
raises ScheduleError for a malformed one.  Both run flavors expose the
same driving surface (input / corrupt / menu_act / pump / advance), and
``run_differential`` executes one schedule against both and diffs the
per-party output streams.  Both flavors build read results with
``core.read_result``: a read carries ``base``, the length of the longest
common prefix of its reader's previous view and this one, the executed
entries after that prefix, and ``settled``, the settled state or None.
``output_projection`` keeps ``base``, ``settled`` and the keys of those
entries; the prefix rule fixes ``base`` from the views alone, so the
outputs of two runs are equal exactly when their readers' whole views
are.  A run's trace is only ever appended to: the
property checks share one ``properties.summarize`` summary per trace
object and event count, so an event must never be edited in place.

A protocol is a module registered in ``PROTOCOLS``; the module itself is
the contract, and it provides:

- ``canonical_scenario(**kw)``: the default scenario dict;
- ``liveness_params(scn)``: {request class: {"f", "t_l2", "t_l1"}};
- ``party_roles(scn)``: (role, pids, corruption budget) rows of the cast;
- ``build_real(world, scn)``: declares roles and registers the machines;
- ``make_bundle(world, scn)``: the SubroutineBundle of the ideal run;
- ``EnvTracker(scn).ideal_request(pid, entry)``: the interface request
  an environment input becomes, or None;
- ``Hooks(scn)`` with ``triggers_for(inner, ev)`` and
  ``read_delay(inner, pid)``: the simulator's view of the inner run;
- ``menu(world, entity)``: {action name: callable} of moves in a corrupted
  party's name.

The benchmark under ``perfbench/`` resolves names by hand, so these keep
their names and signatures:

- here: ``protocol``, ``scripted_schedules``, ``lifecycle_schedule``,
  ``run_differential``, ``output_projection`` and ``diff_outputs``; it
  wraps ``make_real``, ``build_ideal``, ``Simulator.sync`` and
  ``apply_schedule``;
- per protocol: ``canonical_scenario``, ``party_roles`` and
  ``liveness_params``; it wraps ``Hooks.triggers_for``, ``Hooks.read_delay``
  and ``EnvTracker.ideal_request`` (each in the class's own ``__dict__``)
  and the machine classes' ``on_message``/``on_round``/``on_ledger_block``;
- it wraps ``liquid.cert_valid``, ``arbitrum.chain_view``,
  ``arbitrum.batch_digest`` and public functions of ``accounts``, ``trace``
  and ``properties``, which callers look up through the module global so
  that the wrapper sees every call;
- it wraps ``World`` delivery, rounds, ``corrupt``, ``emit`` and
  ``queue_net`` in ``runtime``; ``Ledger.find``/``validate``/``submit``/
  ``tick``/``read``, ``CertRegistry.sign``/``verify``/``verify_any`` and
  ``make_tx`` in ``base``; ``InterfaceMachine.on_message`` and every
  bundle entry point in ``core``.

Its ``find(ledger, pred)`` shim fixes the signature of ``Ledger.find``, so
the ledger's kind index has its own accessor, ``Ledger.records(kind)``, which
the polling parties read and the benchmark does not wrap.
"""

from __future__ import annotations

import random

from . import arbitrum, brick, liquid
from .base import CertRegistry, Ledger
from .core import CLIENT, INTERFACE_ROLE, InterfaceMachine, attach_round_gate
from .properties import entry_keys
from .runtime import EntityId, Machine, ScheduleError, World
from .trace import canon

PROTOCOLS = {"brick": brick, "liquid": liquid, "arbitrum": arbitrum}

DESK_TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2,
               "t_period": 4}

SIM_ENTITY = ("sim", "adv")


def protocol(name):
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}") from None


def desk_timing(overrides=None):
    t = dict(DESK_TIMING)
    t.update(overrides or {})
    return t


def make_real(name, scn=None, timing=None):
    """Stand-alone real world: ledger, certificates, protocol machines."""
    proto = protocol(name)
    scn = scn or proto.canonical_scenario()
    world = World(name, desk_timing(timing))
    world.certs = CertRegistry()
    world.ledger = Ledger(world.timing)
    world.ledger.bind(world)
    proto.build_real(world, scn)
    return world, scn


class DummyParty(Machine):
    """Inert stand-in so the outer world can name and corrupt the party."""

    def on_message(self, ctx, env):
        pass


def build_ideal(name, scn=None, timing=None):
    """Outer interface world plus the simulator running the inner twin."""
    proto = protocol(name)
    scn = scn or proto.canonical_scenario()
    outer = World(name, desk_timing(timing))
    outer.certs = CertRegistry()
    outer.ledger = Ledger(outer.timing)
    outer.ledger.bind(outer)
    outer.declare_role(INTERFACE_ROLE, subroutine=True)
    identities = {}
    client_pids = []
    for role, pids, budget in proto.party_roles(scn):
        identities[role] = list(pids)
        outer.declare_role(role, budget=budget)
        if role == CLIENT:
            client_pids = list(pids)
            continue
        for pid in pids:
            outer.register(DummyParty(outer.entity(role, pid)))
    bundle = proto.make_bundle(outer, scn)
    clients = [outer.entity(CLIENT, p) for p in client_pids]
    fm = InterfaceMachine(outer.entity(INTERFACE_ROLE, "F"), bundle,
                          clients, identities)
    outer.register(fm)
    attach_round_gate(outer, fm)
    sim = Simulator(outer, proto, scn)
    return outer, sim, scn


class Simulator:
    """Scripted adversary-side program for the ideal run.

    Keeps a private copy of the protocol running against the shared ledger,
    forwards environment inputs to it, watches its trace, and turns progress
    notes into open/update/settlement triggers on the interface machine.
    Read-delay hints are answered from the inner clients' positions.
    """

    def __init__(self, outer, proto, scn):
        self.outer = outer
        self.proto = proto
        self.scn = scn
        self.hooks = proto.Hooks(scn)
        self.funct = outer.roles[INTERFACE_ROLE][0]
        pid, role = SIM_ENTITY
        self.adv = EntityId(pid, outer.sid, role)
        self.inner = World(outer.sid, dict(outer.timing), ledger=outer.ledger,
                           certs=outer.certs, ticks_ledger=False)
        proto.build_real(self.inner, scn)
        self.cursor = 0
        outer.hints = self._answer
        self.sync()

    def _answer(self, kind, **kw):
        if kind == "read-delay":
            return self.hooks.read_delay(self.inner, kw["pid"])
        return None

    def sync(self):
        """Flush new inner progress into interface triggers."""
        evs = self.inner.trace.events
        while self.cursor < len(evs):
            ev = evs[self.cursor]
            self.cursor += 1
            for trig in self.hooks.triggers_for(self.inner, ev):
                self.outer.queue_net(self.adv, self.funct, trig)
                self.outer.deliver_net(self.outer.net[-1].eid)

    def feed_env(self, pid, entry):
        ent = self.inner.entity(CLIENT, pid)
        self.inner.inject_input(ent, dict(entry))
        self.sync()

    def corrupt(self, role, pid, force=False):
        self.inner.corrupt(self.inner.entity(role, pid),
                           allow_over_budget=force)
        self.sync()

    def flush(self):
        self.inner.flush_overdue()
        self.sync()

    def advance(self):
        ok = self.inner.advance_round()
        self.sync()
        return ok


def _deliverable(world):
    return sorted(e.eid for e in world.pending_net()
                  if e.hold_until is None or world.round_no >= e.hold_until)


def _pump_world(world, rng=None, after=None):
    """Deliver every unheld NET envelope, batch by batch, until quiescent."""
    while world.halted is None:
        batch = _deliverable(world)
        if not batch:
            break
        if rng is not None:
            rng.shuffle(batch)
        for eid in batch:
            world.deliver_net(eid)
            if after is not None:
                after()


class RealRun:
    """Schedule facade over a stand-alone real world."""

    flavor = "real"

    def __init__(self, name, scn=None, timing=None):
        self.proto = protocol(name)
        self.world, self.scn = make_real(name, scn, timing)

    @property
    def trace(self):
        return self.world.trace

    def input(self, pid, entry):
        self.world.inject_input(self.world.entity(CLIENT, pid), dict(entry))

    def corrupt(self, role, pid, force=False):
        self.world.corrupt(self.world.entity(role, pid),
                           allow_over_budget=force)

    def menu_act(self, role, pid, action):
        ent = self.world.entity(role, pid)
        fn = self.proto.menu(self.world, ent).get(action)
        if fn is not None:
            fn()

    def raw_trigger(self, payload):
        pass

    def pump(self, rng=None):
        _pump_world(self.world, rng)

    def advance(self):
        return self.world.advance_round()


class IdealRun:
    """Schedule facade over the interface machine plus its simulator."""

    flavor = "ideal"

    def __init__(self, name, scn=None, timing=None):
        self.proto = protocol(name)
        self.outer, self.sim, self.scn = build_ideal(name, scn, timing)
        self.tracker = self.proto.EnvTracker(self.scn)

    @property
    def trace(self):
        return self.outer.trace

    def input(self, pid, entry):
        ent = self.outer.entity(CLIENT, pid)
        if entry["kind"] == "read":
            self.sim.feed_env(pid, entry)
            self.outer.inject_input(ent, {"kind": "read"})
            return
        if ent in self.outer.corruption:
            # both worlds absorb requests to a corrupted client; keep the
            # environment-side bookkeeping untouched
            self.sim.feed_env(pid, entry)
            self.outer.inject_input(ent, {"kind": "submit", "entry": dict(entry)})
            return
        req = self.tracker.ideal_request(pid, entry)
        self.sim.feed_env(pid, entry)
        if req is not None:
            self.outer.inject_input(ent, {"kind": "submit", "req": req})

    def corrupt(self, role, pid, force=False):
        self.outer.corrupt(self.outer.entity(role, pid),
                           allow_over_budget=force)
        self.sim.corrupt(role, pid, force)

    def menu_act(self, role, pid, action):
        ent = self.sim.inner.entity(role, pid)
        fn = self.proto.menu(self.sim.inner, ent).get(action)
        if fn is None:
            return
        mirrored = fn()
        self.sim.sync()
        if isinstance(mirrored, dict):
            self.outer.inject_input(self.outer.entity(CLIENT, pid),
                                    {"kind": "submit", "req": mirrored},
                                    force=True)

    def raw_trigger(self, payload):
        self.outer.queue_net(self.sim.adv, self.sim.funct, payload)
        self.outer.deliver_net(self.outer.net[-1].eid)

    def pump(self, rng=None):
        _pump_world(self.sim.inner, rng, after=self.sim.sync)

    def advance(self):
        # the protocol machines must see their overdue deliveries before
        # the shared chain extends, exactly as one real advance interleaves
        # its flush and its tick; only then does the clock move on both
        # sides of the stack
        self.sim.flush()
        ok = self.outer.advance_round()
        if ok:
            self.sim.advance()
        return ok


# -- schedules -------------------------------------------------------------


_PAY = {"to": str, "amt": int}
_ACCOUNT_ENTRIES = {"pay": _PAY, "deposit": {"amt": int},
                    "settle": {"amt": int}}
# the fields each kind of environment entry must carry, with their types,
# per protocol; brick closes the whole channel, so its settle names no
# amount.  A kind not listed here is one no client acts on.
ENTRY_FIELDS = {brick: {"pay": _PAY}, liquid: _ACCOUNT_ENTRIES,
                arbitrum: _ACCOUNT_ENTRIES}


def _check_entry(proto, entry):
    """Raise ScheduleError unless ``entry`` is a well-formed environment
    entry for protocol module ``proto``."""
    if not isinstance(entry, dict) or not isinstance(entry.get("kind"), str):
        raise ScheduleError(f"malformed environment entry {entry!r}")
    for name, typ in ENTRY_FIELDS[proto].get(entry["kind"], {}).items():
        value = entry.get(name)
        if not isinstance(value, typ) or isinstance(value, bool):
            raise ScheduleError(f"{entry['kind']} entry needs {typ.__name__} "
                                f"{name!r}, got {value!r}")


def apply_schedule(run, schedule):
    """Run ``schedule`` step by step; every input entry is checked first."""
    for step in schedule:
        if step.get("op") == "input":
            _check_entry(run.proto, step.get("entry"))
    for step in schedule:
        op = step["op"]
        if op == "input":
            run.input(step["pid"], step["entry"])
        elif op == "advance":
            run.advance()
        elif op == "pump":
            rng = random.Random(step["seed"]) if "seed" in step else None
            run.pump(rng)
        elif op == "corrupt":
            run.corrupt(step["role"], step["pid"], step.get("force", False))
        elif op == "menu":
            run.menu_act(step["role"], step["pid"], step["action"])
        elif op == "raw-trigger":
            run.raw_trigger(step["payload"])
        else:
            raise ValueError(f"unknown schedule op {op!r}")
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
    # rollup traffic finalizes through the batch clock and chain burial, so
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


def output_projection(trace):
    """Per-party ordered view of what the environment saw; a read keeps
    its ``base``, its ``settled`` state and the keys of its entries."""
    per = {}
    texts = {}              # canonical state texts, shared by every read
    for ev in trace.events:
        if ev.get("t") != "output":
            continue
        p = ev["payload"]
        kind = p.get("kind")
        if kind == "read-result":
            item = {"kind": kind, "state": p.get("state"),
                    "pointer": p.get("pointer"), "base": p.get("base", 0),
                    "settled": p.get("settled"),
                    "executed": entry_keys(p.get("executed", ()), texts)}
        elif kind == "open-ok":
            item = {"kind": kind, "state": p.get("state")}
        elif kind == "settle-ok":
            item = {"kind": kind, "success": p.get("success", True),
                    "state": p.get("state")}
        else:
            item = {"kind": kind, "raw": canon(p)}
        per.setdefault(ev["party"], []).append(item)
    return per


def diff_outputs(real_trace, ideal_trace):
    """Element-for-element mismatches between the two output streams."""
    a = output_projection(real_trace)
    b = output_projection(ideal_trace)
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


def run_differential(name, scn=None, schedule=(), timing=None):
    """Drive one schedule through both flavors and diff the outputs."""
    real = RealRun(name, scn, timing)
    ideal = IdealRun(name, scn, timing)
    apply_schedule(real, schedule)
    apply_schedule(ideal, schedule)
    return real, ideal, diff_outputs(real.trace, ideal.trace)
