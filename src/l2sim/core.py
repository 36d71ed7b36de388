"""Client-facing interface machine and the subroutine bundle contract.

One InterfaceMachine instance implements the client role for every party in
a session and holds the shared internal state: round counter, request queue,
executed-request evidence, the state list, per-party read pointers, the
on-chain anchor state, and the participant identities.  All protocol-specific
judgement lives in a SubroutineBundle with six entry points (submit, open,
update, read, settlement, round advance) that answer and never write that
state.  Each entry point gets the ``Ctx`` the interface machine holds for
the activation and only reads it.  The interface machine is the state's
only writer: it sequences the entry points, records what accepted answers
return, notifies the uncorrupted clients (``honest``), and leaks its whole
internal state when a client is corrupted.
A read's position is the interface's own: it clamps the simulator's
read-delay hint into [the party's pointer, the top state] and serves the
records behind that state if the bundle says they reconstruct it.

``read_result`` builds every read-result payload (this machine's, the real
clients' and the property witnesses').  A read carries only what its
reader has not seen: ``base`` is the length of the longest common prefix
of the reader's previous view and this one (0 on the party's first read),
``executed`` the entries after it, and ``settled`` the settled state or
None.  The reader's whole view is the first ``base`` entries of its
previous view, then ``executed``, then the entry ``settled_entry`` builds
when ``settled`` is set.  Every history a reader is shown only grows, so
``base`` is the length of its previous read's entries; a witness read
carries its whole view from ``base`` 0.

Requests arrive from the environment over IO; open/update/settlement
triggers arrive over NET from the adversary side (in differential runs, from
the simulator program), and one whose payload is not a dict is ignored.
Every subroutine consultation is recorded as a sub-call/sub-reply event
pair, and every accepted update leaves an "exec" event carrying the
evidence summary, which is what the trace predicates key on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from .runtime import Ctx, Machine, EntityId, env_entity

OPEN = "open"
UPDATE = "update"
SETTLEMENT = "settlement"

INTERFACE_ROLE = "funct"
CLIENT = "client"

HALT_PREFIX = "halt:"


def settled_entry(state) -> dict:
    """The executed entry that records a settled state."""
    return {"kind": SETTLEMENT, "seq": None, "state": state}


def read_result(state, base, executed, pointer, settled) -> dict:
    """A read-result payload: ``executed`` follows the first ``base``
    entries of the reader's previous view; ``settled`` is the settled state
    or None."""
    return {"kind": "read-result", "state": state, "base": base,
            "executed": executed, "pointer": pointer, "settled": settled}


def open_record(state, attachment, ctx) -> dict:
    """The executed record of an accepted open of ``state``."""
    return {"kind": OPEN, "state": state, "seq": 0, "evidence": attachment,
            "round": ctx.round}


def read_entries(records) -> list:
    """Open and update records as a read serves them."""
    out = []
    for r in records:
        entry = {"kind": r["kind"], "seq": r["seq"], "state": r["state"]}
        if "txs" in r:
            entry["txs"] = r["txs"]
        out.append(entry)
    return out


@dataclass
class InternalState:
    round: int = 0
    queue: list = field(default_factory=list)
    executed: list = field(default_factory=list)
    states: list = field(default_factory=list)
    read_ptr: dict = field(default_factory=dict)
    onchain: dict | None = None
    identities: dict = field(default_factory=dict)
    rejected: list = field(default_factory=list)
    settled: dict | None = None
    halted: str | None = None
    rid_counter: int = 0

    def latest(self):
        return self.states[-1] if self.states else None

    def phase(self) -> str:
        if self.halted:
            return "halted"
        if self.settled is not None:
            return "settled"
        return "open" if self.states else "init"

    def new_rid(self) -> int:
        self.rid_counter += 1
        return self.rid_counter


def honest(ctx, ist: InternalState, role: str) -> list[str]:
    """The pids of ``role`` in the session that are not corrupted."""
    corrupted = ctx.world.corruption
    return [p for p in ist.identities.get(role, ())
            if ctx.world.entity(role, p) not in corrupted]


class SubroutineBundle:
    """The protocol-specific entry points the interface machine consults.

    Each takes the internal state ``ist`` and the interface's own ``Ctx``
    and only answers: it reads the ledger, the certificates, the timing
    and the round through ``ctx``, and sends, outputs and writes nothing
    (``tests/test_owners.py`` holds the bundles to that).  The interface
    machine records what an accepted answer returns.

    - ``submit(ist, req, ctx)`` -> (ok, reason): may ``req`` join the queue;
    - ``open(ist, body, attachment, ctx)`` -> (ok, reason, record): the
      executed record of the open, its "state" the initial state
      (``open_record`` builds the common one);
    - ``update(ist, state, attachment, ctx)`` -> (ok, reason, record): the
      executed record of the update, carrying the post-state under "state"
      and the queue rids it executes under "rids"; a reason starting with
      ``HALT_PREFIX`` halts the session;
    - ``read(ist, idx, ctx)`` -> bool: whether the executed records
      reconstruct ``ist.states[idx]``;
    - ``settlement(ist, body, attachment, ctx)`` -> (ok, reason, state):
      the settled state;
    - ``upd_rnd(ist, ctx)`` -> (ok, reason): may the round advance.

    The interface checks the phase and the trigger's shape first: ``body``
    and an update's ``state`` are dicts, ``attachment`` a dict or None.
    """

    name = "?"

    def submit(self, ist, req, ctx):
        raise NotImplementedError

    def open(self, ist, body, attachment, ctx):
        raise NotImplementedError

    def update(self, ist, new_state, attachment, ctx):
        raise NotImplementedError

    def read(self, ist, idx, ctx):
        raise NotImplementedError

    def settlement(self, ist, body, attachment, ctx):
        raise NotImplementedError

    def upd_rnd(self, ist, ctx):
        return True, None


def _refused(ist, phase, body, attachment):
    """The interface's own refusal of a trigger, answered as a bundle
    would, or None to ask the bundle."""
    if ist.phase() != phase:
        return False, "phase", None
    if not isinstance(body, dict) or not isinstance(attachment, (dict, type(None))):
        return False, "malformed", None
    return None


class InterfaceMachine(Machine):
    """Shared-state machine over all client entities of one session."""

    def __init__(self, me: EntityId, bundle: SubroutineBundle,
                 clients: list[EntityId], identities: dict):
        super().__init__(me)
        self._bundle = bundle
        self._clients = {c.pid: c for c in clients}
        self.ist = InternalState(identities=identities)

    def entities(self):
        return [self.me] + list(self._clients.values())

    def state(self):
        return {"ist": asdict(self.ist)}

    def on_corrupt(self, entity):
        return asdict(self.ist)

    def on_round(self, ctx):
        self.ist.round = ctx.round

    # -- dispatch ----------------------------------------------------------

    def on_message(self, ctx, env):
        p = env.payload
        if not isinstance(p, dict):
            return
        kind = p.get("kind")
        if env.dst in self._clients.values():
            if kind == "submit":
                self._submit(ctx, env.dst.pid, p["req"])
            elif kind == "read":
                self._read(ctx, env.dst.pid)
            return
        # triggers on the functionality entity, from the adversary side
        if kind == OPEN:
            self._open(ctx, p.get("body", {}), p.get("attachment"))
        elif kind == UPDATE:
            self._update(ctx, p.get("state"), p.get("attachment"))
        elif kind == SETTLEMENT:
            self._settle(ctx, p.get("body", {}), p.get("attachment"))

    def _call(self, ctx, name, args, result):
        ctx.world.emit("sub-call", bundle=self._bundle.name, sub=name, args=args)
        ctx.world.emit("sub-reply", bundle=self._bundle.name, sub=name, result=result)

    # -- handlers ----------------------------------------------------------

    def _submit(self, ctx, pid, req):
        ist = self.ist
        request = {"kind": req.get("kind"), "body": req.get("body", {}),
                   "by": pid, "round": ctx.round}
        if ist.halted:
            ok, reason = False, "halted"
        else:
            ok, reason = self._bundle.submit(ist, request, ctx)
        self._call(ctx, "submit", {"by": pid, "kind": request["kind"]},
                   {"ok": ok, "reason": reason})
        if ok:
            request["rid"] = ist.new_rid()
            ist.queue.append(request)
            ctx.world.emit("leak", to="adversary",
                           data={"kind": "submit", "req": request})
        else:
            ist.rejected.append({"req": request, "reason": reason})
        ctx.world.emit("submit-result", party=f"{CLIENT}:{pid}",
                       kind=request["kind"], accepted=ok, reason=reason)

    def _read(self, ctx, pid):
        ist = self.ist
        idx = None
        if not ist.halted and ist.states:
            top = len(ist.states) - 1
            delay = ctx.world.hint("read-delay", pid=pid)
            idx = max(ist.read_ptr.get(pid, 0),
                      top if delay is None else min(top, delay))
            if not self._bundle.read(ist, idx, ctx):
                idx = None
        self._call(ctx, "read", {"by": pid}, {"empty": idx is None, "pointer": idx})
        if idx is None:
            ctx.world.emit("read-empty", party=f"{CLIENT}:{pid}")
            return
        # one open or update record per state, so these are the records
        # behind states[idx]; the settlement record, if any, comes after.
        # The party was last shown the records up to its pointer.
        base = ist.read_ptr[pid] + 1 if pid in ist.read_ptr else 0
        executed = read_entries(ist.executed[base:idx + 1])
        settled = None if ist.settled is None else ist.settled["state"]
        ist.read_ptr[pid] = idx
        ctx.world.queue_io(self._clients[pid], env_entity(self.me.sid),
                           read_result(ist.states[idx], base, executed, idx,
                                       settled))

    def _open(self, ctx, body, attachment):
        ist = self.ist
        ok, reason, record = (_refused(ist, "init", body, attachment)
                              or self._bundle.open(ist, body, attachment, ctx))
        self._call(ctx, "open", {}, {"ok": ok, "reason": reason})
        if not ok:
            return
        ist.states.append(record["state"])
        ist.onchain = record["state"]
        ist.executed.append(record)
        ist.queue = [r for r in ist.queue if r["kind"] != OPEN]
        ctx.world.emit("exec", kind=OPEN, seq=0, state=ist.states[0])
        for pid in honest(ctx, ist, CLIENT):
            ctx.world.queue_io(self._clients[pid], env_entity(self.me.sid),
                               {"kind": "open-ok", "state": ist.states[0]})

    def _update(self, ctx, new_state, attachment):
        ist = self.ist
        ok, reason, record = (
            _refused(ist, "open", new_state, attachment)
            or self._bundle.update(ist, new_state, attachment, ctx))
        self._call(ctx, "update", {"state": new_state}, {"ok": ok, "reason": reason})
        if reason and str(reason).startswith(HALT_PREFIX):
            ist.halted = str(reason)[len(HALT_PREFIX):]
            ctx.world.halted = f"protocol-halt:{ist.halted}"
            ctx.world.emit("halt", reason=ist.halted)
            return
        if not ok:
            return
        ist.states.append(record["state"])
        ist.executed.append(record)
        ctx.world.emit("exec", kind=UPDATE, seq=record["seq"],
                       state=record["state"], rids=sorted(record["rids"]))
        if record["rids"]:
            done = set(record["rids"])
            ist.queue = [r for r in ist.queue if r.get("rid") not in done]

    def _settle(self, ctx, body, attachment):
        ist = self.ist
        stype = body.get("type") if isinstance(body, dict) else None
        ok, reason, sstate = (
            _refused(ist, "open", body, attachment)
            or self._bundle.settlement(ist, body, attachment, ctx))
        self._call(ctx, "settlement", {"type": stype}, {"ok": ok, "reason": reason})
        if not ok:
            return
        ist.settled = {"state": sstate, "type": stype}
        ist.onchain = sstate
        ist.executed.append({"kind": SETTLEMENT, "state": sstate,
                             "type": stype, "round": ctx.round})
        ist.queue = [r for r in ist.queue if r["kind"] != SETTLEMENT]
        ctx.world.emit("exec", kind=SETTLEMENT, state=sstate, type=stype)
        for pid in honest(ctx, ist, CLIENT):
            ctx.world.queue_io(self._clients[pid], env_entity(self.me.sid),
                               {"kind": "settle-ok", "success": True, "state": sstate})


def attach_round_gate(world, interface: InterfaceMachine):
    """Round advances consult the bundle's round subroutine."""

    ctx = Ctx(world, interface.me)

    def gate():
        if interface.ist.halted:
            return False, "halted"
        return interface._bundle.upd_rnd(interface.ist, ctx)

    world.round_gates.append(gate)
