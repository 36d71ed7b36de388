"""Interface machine semantics, exercised through a tiny counter protocol.

The toy bundle accepts states {"n": k, "seq": k} where each update increments
the counter by one; a state tagged "poison" makes the update check demand a
halt.  The toy tracker turns the environment's ``open``, ``inc`` and
``settle`` entries into requests whose body is the entry's other fields.
This keeps every code path of the interface machine observable without any
real protocol machinery.
"""

import pytest

from l2sim import properties
from l2sim.runtime import World, EntityId
from l2sim.core import (
    InterfaceMachine, SubroutineBundle, attach_round_gate, open_record,
    settled_entry, OPEN, UPDATE, SETTLEMENT, INTERFACE_ROLE, CLIENT,
)
from l2sim.base import Ledger

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def s(n):
    return {"n": n, "seq": n}


class CounterBundle(SubroutineBundle):
    name = "counter"

    def __init__(self):
        self.refuse_rounds = False

    def submit(self, ist, req, ctx):
        if req["kind"] == OPEN:
            return (ist.phase() == "init", None if ist.phase() == "init" else "phase")
        if ist.phase() != "open":
            return False, "phase"
        if req["kind"] == UPDATE:
            return True, None
        if req["kind"] == SETTLEMENT:
            return True, None
        return False, "unknown-kind"

    def open(self, ist, body, attachment, ctx):
        if body.get("state") != s(0):
            return False, "bad-genesis", None
        return True, None, open_record(body["state"], attachment, ctx)

    def update(self, ist, new_state, attachment, ctx):
        if new_state.get("poison"):
            return False, "halt:poisoned", None
        if new_state != s(ist.latest()["n"] + 1):
            return False, "not-successor", None
        rids = [r["rid"] for r in ist.queue if r["kind"] == UPDATE
                and r["body"].get("n") == new_state["n"]]
        return True, None, {"kind": UPDATE, "seq": new_state["seq"],
                            "state": new_state, "evidence": attachment,
                            "rids": rids, "round": ctx.round}

    def read(self, ist, idx, ctx):
        return [e["state"] for e in ist.executed[:idx + 1]] == ist.states[:idx + 1]

    def settlement(self, ist, body, attachment, ctx):
        if not any(r["kind"] == SETTLEMENT for r in ist.queue):
            return False, "no-request", None
        return True, None, ist.latest()

    def upd_rnd(self, ist, ctx):
        if self.refuse_rounds:
            return False, "pending-work"
        return True, None


class CounterTracker:
    """Entry word -> request class; the entry's other fields are the body."""

    CLASSES = {"open": OPEN, "inc": UPDATE, "settle": SETTLEMENT}

    def ideal_request(self, pid, entry):
        cls = self.CLASSES.get(entry.get("kind"))
        if cls is None:
            return None
        return {"kind": cls,
                "body": {k: v for k, v in entry.items() if k != "kind"}}


def build():
    world = World("sess", Ledger(TIMING))
    world.declare_role(INTERFACE_ROLE, subroutine=True)
    world.declare_role(CLIENT, budget=1)
    funct = world.entity(INTERFACE_ROLE, "F")
    clients = [world.entity(CLIENT, "a"), world.entity(CLIENT, "b")]
    bundle = CounterBundle()
    machine = InterfaceMachine(funct, bundle, CounterTracker(), clients,
                               {CLIENT: ["a", "b"]})
    world.register(machine)
    adv = EntityId("adv", "sess", "adv")
    world.declare_role("adv", budget=0)

    def trigger(payload):
        world.queue_net(adv, funct, payload)
        world.deliver_net(world.pending_net()[-1].eid)

    return world, machine, bundle, clients, trigger


def submit(world, client, word, **fields):
    """The environment hands ``client`` the entry ``word`` with ``fields``."""
    world.inject_input(client, {"kind": word, **fields})


def events(world, t):
    return [e for e in world.trace.events if e.get("t") == t]


def outputs(world):
    return events(world, "output")


def test_submit_respects_phase():
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "inc", n=1)
    assert machine.ist.queue == []
    res = events(world, "note")[-1]
    assert (res["kind"], res["party"], res["req"], res["why"]) == \
        ("request-refused", "client:a", "inc", "phase")
    # the answer takes the step of the input it answers
    assert res["step"] == events(world, "input")[-1]["step"]


def test_submit_queues_and_leaks():
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "open", state=s(0))
    assert len(machine.ist.queue) == 1
    assert machine.ist.queue[0]["by"] == "a"
    assert machine.ist.queue[0]["rid"] == 1
    assert machine.ist.queue[0]["body"] == {"state": s(0)}
    leaks = events(world, "leak")
    assert leaks and leaks[0]["data"]["req"]["kind"] == OPEN
    res = events(world, "note")[-1]
    assert (res["kind"], res["party"], res["req"]) == \
        ("request-queued", "client:a", "open")
    assert "why" not in res and world.trace.events[-1] is res


def test_an_entry_the_tracker_does_not_translate_does_nothing():
    """The input is the environment's entry itself: one the tracker
    returns None for leaves only its ``input`` event."""
    world, machine, bundle, (a, b), trigger = build()
    before = len(world.trace.events)
    submit(world, a, "withdraw", amt=1)
    assert [ev["t"] for ev in world.trace.events[before:]] == ["input"]
    assert world.trace.events[-1]["payload"] == {"kind": "withdraw", "amt": 1}
    assert machine.ist.queue == []


def test_open_trigger_checks_then_executes():
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "open", state=s(0))
    trigger({"kind": OPEN, "body": {"state": s(7)}})
    assert machine.ist.states == []
    trigger({"kind": OPEN, "body": {"state": s(0)}})
    assert machine.ist.states == [s(0)]
    assert machine.ist.onchain == s(0)
    assert machine.ist.queue == []          # open requests consumed
    got = outputs(world)
    assert [o["party"] for o in got] == ["client:a", "client:b"]
    assert all(o["payload"]["kind"] == "open-ok" for o in got)
    ex = events(world, "exec")
    assert ex[0]["kind"] == OPEN and ex[0]["seq"] == 0


def opened(trigger, world, a):
    submit(world, a, "open", state=s(0))
    trigger({"kind": OPEN, "body": {"state": s(0)}})


def test_update_executes_and_clears_queue():
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    submit(world, a, "inc", n=1)
    rid = machine.ist.queue[-1]["rid"]
    trigger({"kind": UPDATE, "state": s(1)})
    assert machine.ist.states == [s(0), s(1)]
    assert all(r.get("rid") != rid for r in machine.ist.queue)
    ex = [e for e in events(world, "exec") if e["kind"] == UPDATE]
    assert ex[0]["seq"] == 1 and ex[0]["rids"] == [rid]


def test_stale_update_is_refused():
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    trigger({"kind": UPDATE, "state": s(1)})
    trigger({"kind": UPDATE, "state": s(1)})
    assert machine.ist.states == [s(0), s(1)]


def test_halt_is_terminal():
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    trigger({"kind": UPDATE, "state": {"n": 9, "seq": 9, "poison": True}})
    assert machine.ist.phase() == "halted"
    assert world.halted == "protocol-halt:poisoned"
    assert events(world, "halt")
    # nothing reaches the interface after the halt
    before = len(machine.ist.queue), len(events(world, "note"))
    submit(world, a, "inc", n=1)
    world.inject_input(a, {"kind": "read"})
    assert (len(machine.ist.queue), len(events(world, "note"))) == before
    assert not events(world, "read-empty")


def test_settlement_requires_request_then_notifies():
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    trigger({"kind": UPDATE, "state": s(1)})
    trigger({"kind": SETTLEMENT, "body": {"type": "final"}})
    assert machine.ist.settled is None
    submit(world, b, "settle", type="final")
    trigger({"kind": SETTLEMENT, "body": {"type": "final"}})
    assert machine.ist.settled == {"state": s(1), "type": "final"}
    assert machine.ist.phase() == "settled"
    settles = [o for o in outputs(world) if o["payload"]["kind"] == "settle-ok"]
    assert {o["party"] for o in settles} == {"client:a", "client:b"}
    trigger({"kind": UPDATE, "state": s(2)})
    assert machine.ist.states == [s(0), s(1)]


def tip(world):
    """The party and tip state of the last read's whole view: the state of
    its last entry before the settled one."""
    view = properties.summarize(world.trace).views[-1]
    whole = view.executed
    return view.party, whole[-1 if view.settled is None else -2]["state"]


def test_read_empty_then_latest_then_pointer_monotone():
    world, machine, bundle, (a, b), trigger = build()
    world.inject_input(a, {"kind": "read"})
    assert events(world, "read-empty")
    opened(trigger, world, a)
    trigger({"kind": UPDATE, "state": s(1)})
    world.inject_input(a, {"kind": "read"})
    assert tip(world) == ("client:a", s(1))
    assert machine.ist.read_ptr["a"] == 1
    # a delayed answer may not rewind below the pointer
    machine.read_delay = lambda pid: 0
    world.inject_input(a, {"kind": "read"})
    assert tip(world) == ("client:a", s(1))
    assert machine.ist.read_ptr["a"] == 1
    # a fresh party may still be served the older state
    world.inject_input(b, {"kind": "read"})
    assert tip(world) == ("client:b", s(0))


def read_with_delay(world, client, delay):
    """The client's read under a read-delay answer: the pointer in the
    interface's ``read`` sub-reply, the tip state of the client's whole
    view and the payload, or None when the read is empty."""
    world.owners[client].read_delay = (None if delay is None
                                       else lambda pid: delay)
    before = len(world.trace.events)
    world.inject_input(client, {"kind": "read"})
    new = world.trace.events[before:]
    pointer = next(ev["result"]["pointer"] for ev in new
                   if ev["t"] == "sub-reply" and ev["sub"] == "read")
    for ev in new:
        if ev["t"] == "output":
            return pointer, tip(world)[1], ev["payload"]
        if ev["t"] == "read-empty":
            return None
    raise AssertionError("the read left no result")


def test_read_clamps_delay_hint_between_pointer_and_top():
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    for n in (1, 2, 3):
        trigger({"kind": UPDATE, "state": s(n)})
    pointer, state, got = read_with_delay(world, a, 1)
    assert (pointer, state) == (1, s(1))
    assert (got["base"], [e["seq"] for e in got["executed"]]) == (0, [0, 1])
    # below the pointer: raised
    pointer, state, got = read_with_delay(world, a, 0)
    assert (pointer, state) == (1, s(1))
    assert (got["base"], got["executed"]) == (2, [])
    # above the top: lowered
    pointer, state, got = read_with_delay(world, a, 99)
    assert (pointer, state) == (3, s(3))
    assert (got["base"], [e["seq"] for e in got["executed"]]) == (2, [2, 3])
    # the pointer never moves back
    pointer, _, _ = read_with_delay(world, a, 2)
    assert pointer == 3 and machine.ist.read_ptr["a"] == 3
    pointer, state, _ = read_with_delay(world, b, -5)
    assert (pointer, state) == (0, s(0))
    assert machine.ist.read_ptr == {"a": 3, "b": 0}
    # an index whose entries do not reconstruct its state reads empty
    machine.ist.executed = [e for e in machine.ist.executed if e["seq"] != 2]
    assert read_with_delay(world, b, 3) is None
    assert read_with_delay(world, b, 1)[0] == 1
    assert machine.ist.read_ptr == {"a": 3, "b": 1}
    replies = [e["result"] for e in events(world, "sub-reply")
               if e["sub"] == "read"]
    assert [r["pointer"] for r in replies] == [1, 1, 3, 3, 0, None, 1]
    assert [r["empty"] for r in replies].count(True) == 1


def test_read_appends_the_settled_entry():
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    trigger({"kind": UPDATE, "state": s(1)})
    submit(world, b, "settle", type="final")
    trigger({"kind": SETTLEMENT, "body": {"type": "final"}})
    records = len(machine.ist.executed)
    pointer, state, got = read_with_delay(world, a, 0)
    assert (pointer, state, got["base"], got["settled"]) == (0, s(0), 0, s(1))
    assert got["executed"] == [{"kind": OPEN, "seq": 0, "state": s(0)}]
    _, _, got = read_with_delay(world, a, None)
    assert (got["base"], got["settled"]) == (1, s(1))
    assert [e["kind"] for e in got["executed"]] == [UPDATE]
    assert len(machine.ist.executed) == records     # reads record nothing
    whole = properties.summarize(world.trace).views[-1].executed
    assert whole[-1] == settled_entry(s(1))
    assert [e["kind"] for e in whole] == [OPEN, UPDATE, SETTLEMENT]


def test_corrupted_client_gets_no_notification():
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "open", state=s(0))
    world.corrupt(b)
    trigger({"kind": OPEN, "body": {"state": s(0)}})
    got = outputs(world)
    assert [o["party"] for o in got] == ["client:a"]


def test_corruption_leaks_internal_state():
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "open", state=s(0))
    world.corrupt(a)
    ev = events(world, "corrupt")[-1]
    assert ev["leak"]["queue"][0]["kind"] == OPEN


def test_round_gate_consults_bundle():
    world, machine, bundle, (a, b), trigger = build()
    attach_round_gate(world, machine)
    bundle.refuse_rounds = True
    assert world.advance_round() is False
    assert world.round_no == 0
    assert events(world, "round-refused")[-1]["reason"] == "pending-work"
    bundle.refuse_rounds = False
    assert world.advance_round() is True
    assert world.round_no == 1
    assert machine.ist.round == 1


def test_halted_world_blocks_rounds():
    world, machine, bundle, (a, b), trigger = build()
    attach_round_gate(world, machine)
    opened(trigger, world, a)
    trigger({"kind": UPDATE, "state": {"n": 3, "seq": 3, "poison": True}})
    assert world.advance_round() is False
    assert events(world, "round-refused")[-1]["reason"] == "halted"


# -- the two interfaces: inputs on client entities, triggers over NET --------


def net_to(world, dst, payload):
    """The events of one NET delivery of ``payload`` to ``dst``."""
    before = len(world.trace.events)
    world.queue_net(EntityId("adv", "sess", "adv"), dst, payload)
    world.deliver_net(world.eid_counter)
    return world.trace.events[before:]


@pytest.mark.parametrize("kind", ["read", "submit"])
def test_a_request_over_net_to_a_client_entity_serves_nothing(kind):
    """Requests are inputs: a NET message shaped like one reaches the
    client entity and is delivered, and nothing serves it."""
    world, machine, bundle, (a, b), trigger = build()
    opened(trigger, world, a)
    got = net_to(world, a, {"kind": kind,
                            "req": {"kind": UPDATE, "body": {"n": 1}}})
    assert [ev["t"] for ev in got] == ["deliver"]
    assert machine.ist.queue == [] and machine.ist.read_ptr == {}


def test_a_trigger_over_net_to_a_client_entity_is_not_executed():
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "open", state=s(0))
    got = net_to(world, a, {"kind": OPEN, "body": {"state": s(0)}})
    assert [ev["t"] for ev in got] == ["deliver"]
    assert machine.ist.phase() == "init"


def test_an_input_to_the_functionality_entity_is_ignored():
    """The environment reaches the interface only on client entities: an
    input shaped like a trigger or a request, handed to the functionality
    entity, leaves only its ``input`` event."""
    world, machine, bundle, (a, b), trigger = build()
    submit(world, a, "open", state=s(0))
    funct = machine.me
    before = len(world.trace.events)
    for payload in ({"kind": OPEN, "body": {"state": s(0)}},
                    {"kind": "read"},
                    {"kind": "submit", "req": {"kind": OPEN, "body": {}}}):
        world.inject_input(funct, payload)
    assert [ev["t"] for ev in world.trace.events[before:]] == ["input"] * 3
    assert machine.ist.phase() == "init" and len(machine.ist.queue) == 1
