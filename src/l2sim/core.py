"""Client-facing interface machine and the subroutine bundle contract.

One InterfaceMachine instance implements the client role for every party in
a session and holds the shared internal state: round counter, request queue,
executed-request evidence, the state list, per-party read pointers, the
on-chain anchor state, and the participant identities.  All protocol-specific
judgement lives in a SubroutineBundle with six entry points (submit, open,
update, read, settlement, round advance); the interface machine only
sequences them, mutates state on True answers, notifies the uncorrupted
clients, and leaks its whole internal state when a client is corrupted.
A read's position is the interface's own: it clamps the simulator's
read-delay hint into [the party's pointer, the top state], asks the bundle
only for the executed entries behind that state, and appends the settled
entry.

Requests arrive from the environment over IO; open/update/settlement
triggers arrive over NET from the adversary side (in differential runs, from
the simulator program).  Every subroutine consultation is recorded as a
sub-call/sub-reply event pair, and every accepted update leaves an "exec"
event carrying the evidence summary, which is what the trace predicates key
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from .runtime import Machine, EntityId, env_entity

OPEN = "open"
UPDATE = "update"
SETTLEMENT = "settlement"

INTERFACE_ROLE = "funct"
CLIENT = "client"

HALT_PREFIX = "halt:"


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


class BundleEnv:
    """Read-only facilities a subroutine may consult."""

    def __init__(self, world):
        self.world = world

    @property
    def ledger(self):
        return self.world.ledger

    @property
    def certs(self):
        return self.world.certs

    @property
    def timing(self):
        return self.world.timing

    @property
    def round(self):
        return self.world.round_no

    def corrupted(self) -> set[str]:
        return {e.short() for e in self.world.corruption.members}

    def is_corrupt_pid(self, role: str, pid: str) -> bool:
        return f"{role}:{pid}" in self.corrupted()

    def honest(self, ist: InternalState, role: str) -> list[str]:
        return [p for p in ist.identities.get(role, ())
                if not self.is_corrupt_pid(role, p)]

    def hint(self, kind, **kw):
        return self.world.hint(kind, **kw)


class SubroutineBundle:
    """Protocol-specific checks.  Subclasses override everything meaningful."""

    name = "?"

    def submit(self, ist, req, env):
        raise NotImplementedError

    def check_open(self, ist, body, attachment, env):
        raise NotImplementedError

    def apply_open(self, ist, body, attachment, env):
        """Default: initial state from the open body, open evidence recorded."""
        s0 = body["state"]
        ist.states.append(s0)
        ist.onchain = s0
        ist.executed.append({"kind": OPEN, "state": s0, "seq": 0,
                             "evidence": attachment, "round": env.round})

    def check_update(self, ist, new_state, attachment, env):
        raise NotImplementedError

    def state_from_update(self, ist, new_state, attachment, env):
        """What actually lands in the state list (e.g. a block's post-state)."""
        return new_state

    def executed_by_update(self, ist, new_state, attachment, env):
        """Evidence entries an accepted update contributes (queue rids optional)."""
        raise NotImplementedError

    def read(self, ist, idx, env):
        """Executed entries behind ``ist.states[idx]``, or None when they
        do not reconstruct that state.  The interface machine picks idx and
        appends the settled entry."""
        raise NotImplementedError

    def check_settlement(self, ist, body, attachment, env):
        raise NotImplementedError

    def upd_rnd(self, ist, env):
        return True, None


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
        kind = env.payload.get("kind")
        if env.dst in self._clients.values():
            if kind == "submit":
                self._submit(ctx, env.dst.pid, env.payload["req"])
            elif kind == "read":
                self._read(ctx, env.dst.pid)
            return
        # triggers on the functionality entity, from the adversary side
        if kind == OPEN:
            self._open(ctx, env.payload.get("body", {}), env.payload.get("attachment"))
        elif kind == UPDATE:
            self._update(ctx, env.payload.get("state"), env.payload.get("attachment"))
        elif kind == SETTLEMENT:
            self._settle(ctx, env.payload.get("body", {}), env.payload.get("attachment"))

    def _call(self, ctx, name, args, result):
        ctx.world.emit("sub-call", bundle=self._bundle.name, sub=name, args=args)
        ctx.world.emit("sub-reply", bundle=self._bundle.name, sub=name, result=result)
        return result

    def _benv(self, ctx):
        return BundleEnv(ctx.world)

    # -- handlers ----------------------------------------------------------

    def _submit(self, ctx, pid, req):
        ist = self.ist
        request = {"kind": req.get("kind"), "body": req.get("body", {}),
                   "by": pid, "round": ctx.round}
        if ist.halted:
            ok, reason = False, "halted"
        else:
            ok, reason = self._bundle.submit(ist, request, self._benv(ctx))
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
        executed = idx = None
        if not ist.halted and ist.states:
            env = self._benv(ctx)
            top = len(ist.states) - 1
            delay = env.hint("read-delay", pid=pid)
            idx = max(ist.read_ptr.get(pid, 0),
                      top if delay is None else min(top, delay))
            executed = self._bundle.read(ist, idx, env)
        self._call(ctx, "read", {"by": pid},
                   {"empty": executed is None,
                    "pointer": None if executed is None else idx})
        if executed is None:
            ctx.world.emit("read-empty", party=f"{CLIENT}:{pid}")
            return
        if ist.settled is not None:
            executed.append({"kind": SETTLEMENT, "seq": None,
                             "state": ist.settled["state"]})
        ist.read_ptr[pid] = idx
        ctx.world.queue_io(self._clients[pid], env_entity(self.me.sid),
                           {"kind": "read-result", "state": ist.states[idx],
                            "executed": executed, "pointer": idx})

    def _open(self, ctx, body, attachment):
        ist = self.ist
        env = self._benv(ctx)
        if ist.phase() != "init":
            ok, reason = False, "phase"
        else:
            ok, reason = self._bundle.check_open(ist, body, attachment, env)
        self._call(ctx, "open", {}, {"ok": ok, "reason": reason})
        if not ok:
            return
        self._bundle.apply_open(ist, body, attachment, env)
        ist.queue = [r for r in ist.queue if r["kind"] != OPEN]
        ctx.world.emit("exec", kind=OPEN, seq=0, state=ist.states[0])
        for pid in ist.identities.get(CLIENT, ()):
            if not env.is_corrupt_pid(CLIENT, pid):
                ctx.world.queue_io(self._clients[pid], env_entity(self.me.sid),
                                   {"kind": "open-ok", "state": ist.states[0]})

    def _update(self, ctx, new_state, attachment):
        ist = self.ist
        env = self._benv(ctx)
        if ist.phase() != "open":
            ok, reason = False, "phase"
        else:
            ok, reason = self._bundle.check_update(ist, new_state, attachment, env)
        self._call(ctx, "update", {"state": new_state}, {"ok": ok, "reason": reason})
        if reason and str(reason).startswith(HALT_PREFIX):
            ist.halted = str(reason)[len(HALT_PREFIX):]
            ctx.world.halted = f"protocol-halt:{ist.halted}"
            ctx.world.emit("halt", reason=ist.halted)
            return
        if not ok:
            return
        entries = self._bundle.executed_by_update(ist, new_state, attachment, env)
        ist.states.append(self._bundle.state_from_update(ist, new_state, attachment, env))
        done_rids = set()
        for entry in entries:
            done_rids.update(entry.get("rids", ()))
            ist.executed.append(entry)
            ctx.world.emit("exec", kind=UPDATE, seq=entry.get("seq"),
                           state=entry.get("state"), rids=sorted(entry.get("rids", ())))
        if done_rids:
            ist.queue = [r for r in ist.queue if r.get("rid") not in done_rids]

    def _settle(self, ctx, body, attachment):
        ist = self.ist
        env = self._benv(ctx)
        if ist.phase() != "open":
            ok, reason, sstate = False, "phase", None
        else:
            ok, reason, sstate = self._bundle.check_settlement(ist, body, attachment, env)
        self._call(ctx, "settlement", {"type": body.get("type")},
                   {"ok": ok, "reason": reason})
        if not ok:
            return
        ist.settled = {"state": sstate, "type": body.get("type")}
        ist.onchain = sstate
        ist.executed.append({"kind": SETTLEMENT, "state": sstate,
                             "type": body.get("type"), "round": env.round})
        ist.queue = [r for r in ist.queue if r["kind"] != SETTLEMENT]
        ctx.world.emit("exec", kind=SETTLEMENT, state=sstate, type=body.get("type"))
        for pid in ist.identities.get(CLIENT, ()):
            if not env.is_corrupt_pid(CLIENT, pid):
                ctx.world.queue_io(self._clients[pid], env_entity(self.me.sid),
                                   {"kind": "settle-ok", "success": True, "state": sstate})


def attach_round_gate(world, interface: InterfaceMachine):
    """Round advances consult the bundle's round subroutine."""

    def gate():
        if interface.ist.halted:
            return False, "halted"
        ok, reason = interface._bundle.upd_rnd(interface.ist, BundleEnv(world))
        return ok, reason

    world.round_gates.append(gate)
