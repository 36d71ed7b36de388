"""Deterministic machine runtime.

Machines are registered under (pid, sid, role) identities.  The environment
reaches a party through ``World.inject_input``, which calls the owning
machine's ``on_input`` at once; outputs become ``output`` events in FIFO
order (a cascade drains before the adversary gets control back), and an
output takes no envelope and no eid: eids count NET envelopes alone.
Machines reach each other by NET envelopes, which sit in a pending pool,
keyed by eid in send order, until an adversary directive delivers them to
``on_message``.  A single step counter numbers every event; logical rounds
advance only through an explicit round directive.  Every world is built
on a ledger: it joins the ledger, signs with the ledger's registry and
reads the ledger's timing, the run's one timing value.  An advance mints
the round's block if no world on the ledger has yet, emits that block's
events right after the world's ``round`` event, then calls ``on_round``
once on every uncorrupted machine in entity order, which ``register``
fixes: ledger events are the one source of time, each party polls the
chain once per block, and whatever a party does on a schedule (a leader's
proposal, a periodic publication) it does from ``on_round``.
``register`` also builds one ``Ctx`` per entity, and every activation of
that entity (start, delivery, input, round) is handed it.  A world keeps no
simulator state: an ideal run's simulator watches its inner world through
``Trace.observers``, which a clone keeps on each world's fresh trace.

Invariants the tests lean on:
  - identical (scenario, scripts, seed) inputs produce identical traces;
  - NET envelopes are never dropped: each is pending, delivered, or absorbed
    by a corrupted recipient, which leaves an ``absorb`` event;
  - outputs go only to the environment, and NET only to a registered
    machine: ``queue_net`` refuses any other destination;
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
from typing import NamedTuple

from .trace import Trace, canon, canon_loose


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


class EntityId(NamedTuple):
    """A machine identity; a tuple, so hashing, equality and ordering run
    in C (``plain`` tests for it before it tests for tuples)."""

    pid: str
    sid: str
    role: str

    def short(self) -> str:
        return _SHORT[self]


class _ShortNames(dict):
    """EntityId -> ``role:pid``, built on first use; a name depends on the
    id alone, so one table serves every world."""
    def __missing__(self, ent):
        name = self[ent] = f"{ent.role}:{ent.pid}"
        return name


_SHORT = _ShortNames()


@dataclass(slots=True)
class Envelope:
    eid: int
    src: EntityId
    dst: EntityId
    payload: dict
    step: int
    round: int
    hold_until: int | None = None  # adversary hold, in rounds


class Machine:
    """Base protocol machine: owns its entities; each handler is a no-op
    default, so a bare ``Machine`` is an inert party with an empty leak."""

    def __init__(self, me: EntityId):
        self.me = me

    def on_start(self, ctx):
        pass

    def on_input(self, ctx, payload: dict):
        """An input from the environment to the entity ``ctx.me``."""

    def on_message(self, ctx, env: Envelope):
        """A NET envelope delivered to ``env.dst``."""

    def on_round(self, ctx):
        """Called once per round advance, after the round's block: the
        party's one clock and its ledger poll."""

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
    """One entity's capabilities; ``World.register`` builds it once and
    every activation of the entity is handed it, so it holds no
    per-activation state."""

    def __init__(self, world: "World", me: EntityId):
        self.world = world
        self.me = me
        self.party = _SHORT[me]
        self.certs = world.certs
        self.ledger = world.ledger
        self.timing = world.timing

    @property
    def round(self):
        return self.world.round_no

    def send_net(self, dst: EntityId, payload: dict):
        self.world.queue_net(self.me, dst, payload)

    def output(self, payload: dict):
        self.world.queue_io(self.me, payload)

    def note(self, kind: str, **fields):
        world = self.world
        world.trace.emit({"t": "note", "step": world._bump(),
                          "round": world.round_no, "kind": kind,
                          "party": self.party, **fields})


class CorruptionSet:
    """Monotone per-role-budgeted record of corrupted entities."""

    def __init__(self):
        self.budgets: dict[str, int] = {}
        self.members: dict[EntityId, None] = {}   # an ordered set

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
        self.members[entity] = None
        return over

    def __contains__(self, entity: EntityId):
        return entity in self.members


class World:
    def __init__(self, sid: str, ledger):
        self.sid = sid
        self.ledger = ledger
        self.timing = ledger.timing
        self.certs = ledger.certs
        ledger.worlds.append(self)
        self.machines: dict[EntityId, Machine] = {}  # in entity order
        self.owners: dict[EntityId, Machine] = {}   # entity -> owning machine
        self.ctxs: dict[EntityId, Ctx] = {}         # entity -> its one Ctx
        self.roles: dict[str, list[EntityId]] = {}
        self.subroutines: set[str] = set()           # roles not corruptible
        self.io_q: deque[tuple] = deque()   # (src, payload) outputs
        self.net: dict[int, Envelope] = {}         # eid -> pending, in eid order
        self.eid_counter = 0
        self.step_no = 0
        self.round_no = 0
        self.corruption = CorruptionSet()
        self.trace = Trace()
        self.max_steps = 10000
        self.halted = None
        self.round_gates = []    # callables() -> (ok, reason)

    # -- registration ------------------------------------------------------

    def declare_role(self, role: str, budget: int = 0, subroutine: bool = False):
        if role in self.roles:
            raise RegistrationError(f"role {role} already declared")
        self.roles[role] = []
        if subroutine:
            self.subroutines.add(role)
        if budget:
            self.corruption.budgets[role] = budget

    def register(self, machine: Machine):
        for ent in machine.entities():
            if ent.role not in self.roles:
                raise RegistrationError(f"unknown role {ent.role}")
            if ent.sid != self.sid:
                raise RegistrationError(f"session mismatch for {ent.short()}")
            if ent in self.owners:
                raise RegistrationError(f"{ent.short()} already registered")
            self.owners[ent] = machine
            self.ctxs[ent] = Ctx(self, ent)
            self.roles[ent.role].append(ent)
        self.machines = dict(sorted({**self.machines, machine.me: machine}.items()))
        machine.on_start(self.ctxs[machine.me])

    def entity(self, role: str, pid: str) -> EntityId:
        return EntityId(pid, self.sid, role)

    # -- event plumbing ----------------------------------------------------

    def _bump(self) -> int:
        self.step_no += 1
        if self.step_no > self.max_steps:
            self.halted = "max-steps"
            self.trace.complete = False
        return self.step_no

    def emit(self, t: str, **fields):
        ev = {"t": t, "step": self.step_no, "round": self.round_no, **fields}
        self.trace.emit(ev)
        return ev

    def queue_io(self, src: EntityId, payload: dict):
        """Queue an output; only NET envelopes draw eids."""
        self.io_q.append((src, payload))

    def queue_net(self, src: EntityId, dst: EntityId, payload: dict):
        if dst not in self.owners:
            raise RoutingError(f"NET send to unregistered {dst.short()}")
        self.eid_counter += 1
        self.net[self.eid_counter] = Envelope(self.eid_counter, src, dst,
                                              payload, self.step_no, self.round_no)

    # -- delivery ----------------------------------------------------------

    def drain_io(self):
        """One ``output`` event per queued output; none once a step halts."""
        while self.io_q and self.halted is None:
            src, payload = self.io_q.popleft()
            step = self._bump()
            if self.halted:
                return
            self.trace.emit({"t": "output", "step": step, "round": self.round_no,
                             "party": _SHORT[src], "payload": payload})

    def pending_net(self):
        return list(self.net.values())

    def deliver_net(self, eid: int):
        env = self.net.pop(eid, None)
        if env is None:
            raise ScheduleError(f"no pending NET envelope {eid}")
        step = self._bump()
        if self.halted:
            return
        dst = env.dst
        if dst in self.corruption.members:
            self.trace.emit({"t": "absorb", "step": step, "round": self.round_no,
                             "dst": _SHORT[dst], "src": _SHORT[env.src],
                             "payload": env.payload})
        else:
            self.trace.emit({"t": "deliver", "step": step, "round": self.round_no,
                             "eid": eid, "src": _SHORT[env.src],
                             "dst": _SHORT[dst], "payload": env.payload,
                             "sent": env.step})
            self.owners[dst].on_message(self.ctxs[dst], env)
        if self.io_q:
            self.drain_io()

    def hold_net(self, eid: int, until_round: int):
        env = self.net.get(eid)
        if env is None:
            raise ScheduleError(f"no pending NET envelope {eid}")
        if until_round > env.round + self.timing["delta"]:
            raise ScheduleError(
                f"hold beyond delta={self.timing['delta']} rounds for envelope {eid}")
        env.hold_until = until_round

    # -- adversary-facing actions ------------------------------------------

    def inject_input(self, party: EntityId, payload: dict, force=False):
        """The environment hands `party` an input: its machine's
        ``on_input``, with the party's ``Ctx``.

        An input to a corrupted party is absorbed, leaving only its
        ``input`` event, as a corrupted machine ignores its environment;
        `force` is the adversary acting in the corrupted party's name.
        """
        step = self._bump()
        self.trace.emit({"t": "input", "step": step, "round": self.round_no,
                         "party": _SHORT[party], "payload": payload,
                         "forced": force})
        if self.halted:
            return
        if party in self.corruption.members and not force:
            return
        machine = self.owners.get(party)
        if machine is None:
            raise ScheduleError(f"input to unregistered {party.short()}")
        machine.on_input(self.ctxs[party], payload)
        if self.io_q:
            self.drain_io()

    def corrupt(self, entity: EntityId, allow_over_budget=False):
        if entity not in self.owners:
            raise CorruptionError(f"cannot corrupt unregistered {entity.short()}")
        if entity.role in self.subroutines:
            raise CorruptionError(f"subroutine role {entity.role} is not corruptible")
        over = self.corruption.add(entity, allow_over_budget=allow_over_budget)
        leak = self.owners[entity].on_corrupt(entity)
        self._bump()
        self.emit("corrupt", party=entity.short(), over_budget=over, leak=leak)
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
        if self.ledger.round < self.round_no:
            self.ledger.tick()
        for t, fields in self.ledger.block:
            self.emit(t, **fields)
        members = self.corruption.members
        for m in self.machines.values():
            if m.me not in members:
                m.on_round(self.ctxs[m.me])
        if self.io_q:
            self.drain_io()
        return True

    def flush_overdue(self):
        """Deliver honest NET sends that have hit the synchrony bound.

        This is the first phase of a round advance; it runs before the
        clock moves so deliveries are stamped with the round the message
        actually waited through.
        """
        delta = self.timing["delta"]
        members = self.corruption.members
        overdue = [e for e in self.net.values()
                   if e.src not in members and self.round_no - e.round >= delta]
        for env in overdue:
            self.deliver_net(env.eid)

    # -- snapshots for state-space search ----------------------------------

    def fingerprint(self) -> int:
        """Hash of the state a search deduplicates on; kept, with ``clone``
        and ``hold_net``, for the planned adversary search (ROADMAP.md)."""
        parts = [self.round_no, tuple(sorted(e.short() for e in self.corruption.members))]
        for key in sorted(self.machines):
            parts.append((key.short(), canon_loose(self.machines[key].state())))
        parts.append(tuple((e.src.short(), e.dst.short(), canon_loose(e.payload))
                           for e in self.net.values()))
        parts.append(self.ledger.fingerprint())
        return hash(tuple(parts))

    def __getstate__(self):
        trace = Trace()
        trace.observers = self.trace.observers
        return dict(self.__dict__, trace=trace)

    def clone(self) -> "World":
        """Copy for search, with the ledger and all its worlds, each with a
        fresh trace that keeps its observers (see ``__getstate__``)."""
        return copy.deepcopy(self)
