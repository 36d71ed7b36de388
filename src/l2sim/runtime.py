"""Deterministic machine runtime.

Machines are registered under (pid, sid, role) identities and exchange
envelopes over two channels: IO envelopes deliver immediately in FIFO order
(a cascade drains before the adversary gets control back), NET envelopes sit
in a pending pool until an adversary directive delivers them.  A single step
counter numbers every event; logical rounds advance only through an explicit
round directive, which also mints one ledger block and runs clock hooks.

Invariants the tests lean on:
  - identical (scenario, scripts, seed) inputs produce identical traces;
  - NET envelopes are never dropped: each is pending, delivered, or absorbed
    by a corrupted recipient's knowledge log;
  - an IO send between roles that were never wired is an error;
  - corruption is monotone and budget-checked per role, and subroutine roles
    are not corruptible;
  - once a round advance is refused by a gate, state is unchanged.

Partial synchrony: on a round advance, pending NET envelopes from honest
senders older than `delta` rounds are force-delivered in send order.  Within
a round, delivery order is fully adversarial.  Corrupted senders' envelopes
are exempt (silence is a legal corrupted behavior).
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

from .trace import Trace, canon, canon_loose

IO = "io"
NET = "net"
ENV_ROLE = "env"


class SimError(Exception):
    pass


class RegistrationError(SimError):
    pass


class RoutingError(SimError):
    pass


class ScheduleError(SimError):
    pass


class CorruptionError(SimError):
    pass


@dataclass(frozen=True, order=True)
class EntityId:
    pid: str
    sid: str
    role: str

    def short(self) -> str:
        return f"{self.role}:{self.pid}"


def env_entity(sid: str) -> EntityId:
    return EntityId("env", sid, ENV_ROLE)


@dataclass
class Envelope:
    eid: int
    src: EntityId
    dst: EntityId
    channel: str
    payload: dict
    step: int
    round: int
    hold_until: int | None = None  # adversary hold, in rounds


class Machine:
    """Base protocol machine: owns one entity, reacts to envelopes and hooks."""

    def __init__(self, me: EntityId):
        self.me = me

    def on_start(self, ctx):
        pass

    def on_message(self, ctx, env: Envelope):
        raise NotImplementedError

    def on_round(self, ctx):
        """Called after every round advance (stands in for clock polling)."""

    def on_ledger_block(self, ctx, height: int):
        """Called after every ledger block (stands in for ledger polling)."""

    def entities(self):
        return [self.me]

    def on_corrupt(self, entity: EntityId):
        return self.state()

    def state(self) -> dict:
        """Public attributes as a plain JSON snapshot (see ``plain``)."""
        return {k: plain(v) for k, v in sorted(vars(self).items())
                if not k.startswith("_") and k != "me"}


def plain(obj):
    """JSON form of machine state that does not depend on hash order.

    Sets become lists sorted by their canonical text, entities become their
    short names, and non-string dict keys become strings (tuples as their
    canonical JSON), so a corruption leak serializes into the trace.
    """
    if isinstance(obj, EntityId):
        return obj.short()
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else _plain_key(k): plain(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(v) for v in obj), key=canon)
    return obj


def _plain_key(key) -> str:
    return key.short() if isinstance(key, EntityId) else canon(plain(key))


class Ctx:
    """Capabilities handed to a machine while it handles one activation."""

    def __init__(self, world: "World", me: EntityId):
        self.world = world
        self.me = me

    @property
    def round(self):
        return self.world.round_no

    @property
    def certs(self):
        return self.world.certs

    @property
    def ledger(self):
        return self.world.ledger

    @property
    def timing(self):
        return self.world.timing

    def send_net(self, dst: EntityId, payload: dict):
        self.world.queue_net(self.me, dst, payload)

    def output(self, payload: dict):
        self.world.queue_io(self.me, env_entity(self.me.sid), payload)

    def note(self, kind: str, **fields):
        self.world.note(kind, party=self.me.short(), **fields)


class CorruptionSet:
    """Monotone per-role-budgeted record of corrupted entities."""

    def __init__(self):
        self.budgets: dict[str, int] = {}
        self.members: list[EntityId] = []

    def count(self, role: str) -> int:
        return sum(1 for e in self.members if e.role == role)

    def add(self, entity: EntityId, allow_over_budget=False) -> bool:
        """Returns True if adding exceeded the declared budget."""
        if entity in self.members:
            raise CorruptionError(f"{entity.short()} already corrupted")
        budget = self.budgets.get(entity.role, 0)
        over = self.count(entity.role) + 1 > budget
        if over and not allow_over_budget:
            raise CorruptionError(
                f"corrupting {entity.short()} exceeds budget {budget} for role {entity.role}")
        self.members.append(entity)
        return over

    def __contains__(self, entity: EntityId):
        return entity in self.members


class World:
    def __init__(self, sid: str, timing: dict, *, ledger=None, certs=None,
                 ticks_ledger=True):
        self.sid = sid
        self.timing = dict(timing)
        self.machines: dict[EntityId, Machine] = {}
        self.owners: dict[EntityId, Machine] = {}   # entity -> owning machine
        self.roles: dict[str, list[EntityId]] = {}
        self.declared: dict[str, dict] = {}          # role -> {subroutine: bool}
        self.wiring: set[tuple[str, str]] = set()    # allowed IO (src_role, dst_role)
        self.io_q: deque[Envelope] = deque()
        self.net: list[Envelope] = []
        self.eid_counter = 0
        self.step_no = 0
        self.round_no = 0
        self.corruption = CorruptionSet()
        self.shells: dict[EntityId, list] = {}       # corrupted entity -> knowledge log
        self.ledger = ledger
        self.certs = certs
        self.trace = Trace()
        self.max_steps = 10000
        self.halted = None
        self.round_gates = []    # callables() -> (ok, reason)
        self.round_hooks = []    # callables() run after a successful advance
        self.hints = None        # adversary oracle: fn(kind, **kw) -> value
        self.ticks_ledger = ticks_ledger

    # -- registration ------------------------------------------------------

    def declare_role(self, role: str, budget: int = 0, subroutine: bool = False):
        if role in self.declared:
            raise RegistrationError(f"role {role} already declared")
        self.declared[role] = {"subroutine": subroutine}
        self.roles[role] = []
        if budget:
            self.corruption.budgets[role] = budget
        self.wire(role, ENV_ROLE)

    def wire(self, a: str, b: str):
        self.wiring.add((a, b))
        self.wiring.add((b, a))

    def register(self, machine: Machine):
        for ent in machine.entities():
            if ent.role not in self.declared:
                raise RegistrationError(f"unknown role {ent.role}")
            if ent.sid != self.sid:
                raise RegistrationError(f"session mismatch for {ent.short()}")
            if ent in self.owners:
                raise RegistrationError(f"{ent.short()} already registered")
            self.owners[ent] = machine
            self.roles[ent.role].append(ent)
        self.machines[machine.me] = machine
        machine.on_start(Ctx(self, machine.me))

    def entity(self, role: str, pid: str) -> EntityId:
        return EntityId(pid, self.sid, role)

    def machines_sorted(self):
        return [self.machines[k] for k in sorted(self.machines)]

    # -- event plumbing ----------------------------------------------------

    def _bump(self) -> int:
        self.step_no += 1
        if self.step_no > self.max_steps:
            self.halted = "max-steps"
            self.trace.complete = False
        return self.step_no

    def emit(self, t: str, **fields):
        ev = {"t": t, "step": self.step_no, "round": self.round_no}
        ev.update(fields)
        self.trace.emit(ev)
        return ev

    def note(self, kind: str, **fields):
        self._bump()
        self.emit("note", kind=kind, **fields)

    def queue_io(self, src: EntityId, dst: EntityId, payload: dict):
        if dst.role != ENV_ROLE and (src.role, dst.role) not in self.wiring:
            raise RoutingError(f"no IO wiring {src.role} -> {dst.role}")
        self.eid_counter += 1
        self.io_q.append(Envelope(self.eid_counter, src, dst, IO, payload,
                                  self.step_no, self.round_no))

    def queue_net(self, src: EntityId, dst: EntityId, payload: dict):
        if dst not in self.owners and dst.role != ENV_ROLE:
            raise RoutingError(f"NET send to unregistered {dst.short()}")
        self.eid_counter += 1
        self.net.append(Envelope(self.eid_counter, src, dst, NET, payload,
                                 self.step_no, self.round_no))

    def hint(self, kind: str, **kw):
        if self.hints is None:
            return None
        return self.hints(kind, **kw)

    # -- delivery ----------------------------------------------------------

    def drain_io(self):
        while self.io_q and self.halted is None:
            env = self.io_q.popleft()
            self._deliver(env)

    def _deliver(self, env: Envelope):
        self._bump()
        if self.halted:
            return
        if env.dst.role == ENV_ROLE:
            self.emit("output", party=env.src.short(), payload=env.payload)
            return
        if env.dst in self.corruption:
            self.shells.setdefault(env.dst, []).append(
                {"src": env.src.short(), "channel": env.channel, "payload": env.payload})
            self.emit("absorb", dst=env.dst.short(), src=env.src.short(),
                      channel=env.channel, payload=env.payload)
            return
        self.emit("deliver", eid=env.eid, src=env.src.short(), dst=env.dst.short(),
                  channel=env.channel, payload=env.payload, sent=env.step)
        machine = self.owners[env.dst]
        machine.on_message(Ctx(self, env.dst), env)

    def pending_net(self):
        return list(self.net)

    def deliver_net(self, eid: int):
        for i, env in enumerate(self.net):
            if env.eid == eid:
                self.net.pop(i)
                self._deliver(env)
                self.drain_io()
                return
        raise ScheduleError(f"no pending NET envelope {eid}")

    def hold_net(self, eid: int, until_round: int):
        for env in self.net:
            if env.eid == eid:
                if until_round > env.round + self.timing["delta"]:
                    raise ScheduleError(
                        f"hold beyond delta={self.timing['delta']} rounds for envelope {eid}")
                env.hold_until = until_round
                return
        raise ScheduleError(f"no pending NET envelope {eid}")

    # -- adversary-facing actions ------------------------------------------

    def inject_input(self, party: EntityId, payload: dict, force=False):
        """Environment hands `party` a request over IO.

        Inputs to corrupted parties are absorbed into their knowledge log,
        mirroring a corrupted machine that ignores its environment; `force`
        is the adversary acting in the corrupted party's name.
        """
        self._bump()
        self.emit("input", party=party.short(), payload=payload, forced=force)
        if self.halted:
            return
        if party in self.corruption and not force:
            self.shells.setdefault(party, []).append(
                {"src": "env", "channel": IO, "payload": payload})
            return
        machine = self.owners.get(party)
        if machine is None:
            raise ScheduleError(f"input to unregistered {party.short()}")
        machine.on_message(Ctx(self, party),
                           Envelope(0, env_entity(self.sid), party, IO, payload,
                                    self.step_no, self.round_no))
        self.drain_io()

    def corrupt(self, entity: EntityId, allow_over_budget=False):
        if entity not in self.owners:
            raise CorruptionError(f"cannot corrupt unregistered {entity.short()}")
        if self.declared[entity.role].get("subroutine"):
            raise CorruptionError(f"subroutine role {entity.role} is not corruptible")
        over = self.corruption.add(entity, allow_over_budget=allow_over_budget)
        machine = self.owners[entity]
        leak = machine.on_corrupt(entity)
        self.shells.setdefault(entity, [])
        self._bump()
        self.emit("corrupt", party=entity.short(), over_budget=over, leak=leak)
        self.drain_io()
        return over

    def advance_round(self) -> bool:
        for gate in self.round_gates:
            ok, reason = gate()
            if not ok:
                self._bump()
                self.emit("round-refused", reason=reason)
                return False
        self.flush_overdue()
        if self.halted:
            return False
        self.round_no += 1
        self._bump()
        self.emit("round", now=self.round_no)
        if self.ledger is not None:
            if self.ticks_ledger:
                self.ledger.tick(self)
            else:
                # a shared ledger is ticked by its owning world; observers
                # still get their block notifications at the same point
                self.ledger_block_hooks(self.ledger.height)
        for hook in self.round_hooks:
            hook()
        for m in self.machines_sorted():
            if m.me not in self.corruption:
                m.on_round(Ctx(self, m.me))
        self.drain_io()
        return True

    def flush_overdue(self):
        """Deliver honest NET sends that have hit the synchrony bound.

        This is the first phase of a round advance; it runs before the
        clock moves so deliveries are stamped with the round the message
        actually waited through.
        """
        delta = self.timing["delta"]
        overdue = [e for e in self.net
                   if e.src not in self.corruption and self.round_no - e.round >= delta]
        for env in overdue:
            self.net.remove(env)
            self._deliver(env)
            self.drain_io()

    def ledger_block_hooks(self, height: int):
        for m in self.machines_sorted():
            if m.me not in self.corruption:
                m.on_ledger_block(Ctx(self, m.me), height)

    # -- snapshots for state-space search ----------------------------------

    def fingerprint(self) -> int:
        """Hash of the state a search deduplicates on; kept, with ``clone``
        and ``hold_net``, for the planned adversary search (ROADMAP.md)."""
        parts = [self.round_no, tuple(sorted(e.short() for e in self.corruption.members))]
        for key in sorted(self.machines):
            parts.append((key.short(), canon_loose(self.machines[key].state())))
        parts.append(tuple((e.src.short(), e.dst.short(), canon_loose(e.payload))
                           for e in self.net))
        if self.ledger is not None:
            parts.append(self.ledger.fingerprint())
        return hash(tuple(parts))

    def clone(self) -> "World":
        """Copy for search: trace is replaced by a fresh, unobserved one."""
        trace, observers = self.trace, self.trace.observers
        hints = self.hints
        self.trace = Trace()
        self.hints = None
        try:
            twin = copy.deepcopy(self)
        finally:
            self.trace = trace
            self.trace.observers = observers
            self.hints = hints
        return twin
