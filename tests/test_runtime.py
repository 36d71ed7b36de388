"""Runtime contracts: registration, routing, determinism, corruption, rounds."""

import pytest

from l2sim.runtime import (
    World, Machine, EntityId, env_entity,
    RegistrationError, RoutingError, ScheduleError, CorruptionError,
)
from l2sim.trace import Trace

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


class Echo(Machine):
    """Replies over NET to whatever it receives; outputs on IO pings."""

    def __init__(self, me, peer=None):
        super().__init__(me)
        self.peer = peer
        self.seen = []

    def on_message(self, ctx, env):
        self.seen.append(env.payload.get("n"))
        if env.channel == "io" and env.src.role == "env":
            ctx.output({"kind": "pong", "n": env.payload.get("n")})
            if self.peer is not None:
                ctx.send_net(self.peer, {"kind": "fwd", "n": env.payload.get("n")})


def small_world():
    w = World("s1", TIMING)
    w.declare_role("client", budget=1)
    w.declare_role("warden", budget=1)
    a = w.entity("client", "a")
    b = w.entity("warden", "b")
    w.register(Echo(a, peer=b))
    w.register(Echo(b))
    return w, a, b


def test_register_rejects_duplicates_and_unknown_roles():
    w, a, b = small_world()
    with pytest.raises(RegistrationError):
        w.register(Echo(a))
    with pytest.raises(RegistrationError):
        w.register(Echo(EntityId("x", "s1", "nobody")))
    with pytest.raises(RegistrationError):
        w.register(Echo(EntityId("x", "other-session", "client")))


def test_io_needs_wiring():
    w, a, b = small_world()
    with pytest.raises(RoutingError):
        w.queue_io(a, b, {"kind": "x"})   # client and warden were never wired
    w.wire("client", "warden")
    w.queue_io(a, b, {"kind": "x"})
    w.drain_io()
    assert w.machines[b].seen == [None]


def test_net_send_requires_registered_destination():
    w, a, b = small_world()
    with pytest.raises(RoutingError):
        w.queue_net(a, EntityId("ghost", "s1", "warden"), {})


def test_env_input_and_output_events():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 7})
    kinds = [e["t"] for e in w.trace.events]
    assert "input" in kinds and "output" in kinds
    out = [e for e in w.trace.events if e["t"] == "output"][0]
    assert out["party"] == "client:a" and out["payload"]["n"] == 7
    # the NET leg is pending, not delivered
    assert len(w.pending_net()) == 1


def test_net_delivery_by_eid_and_missing_eid_errors():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 1})
    eid = w.pending_net()[0].eid
    w.deliver_net(eid)
    assert w.machines[b].seen == [1]
    with pytest.raises(ScheduleError):
        w.deliver_net(eid)


def test_determinism_identical_runs():
    def run():
        w, a, b = small_world()
        for n in range(5):
            w.inject_input(a, {"kind": "ping", "n": n})
        for env in list(w.pending_net()):
            w.deliver_net(env.eid)
        w.advance_round()
        return w.trace.digest()

    assert run() == run()


def test_net_reorder_changes_order_not_set():
    def run(order):
        w, a, b = small_world()
        w.inject_input(a, {"kind": "ping", "n": 0})
        w.inject_input(a, {"kind": "ping", "n": 1})
        eids = [e.eid for e in w.pending_net()]
        for i in order:
            w.deliver_net(eids[i])
        seen = w.machines[b].seen
        return seen

    assert run([0, 1]) == [0, 1]
    assert run([1, 0]) == [1, 0]


def test_corruption_budget_and_monotonicity():
    w, a, b = small_world()
    w.corrupt(b)
    assert b in w.corruption
    with pytest.raises(CorruptionError):
        w.corrupt(b)                       # monotone: no double corruption
    a2 = w.entity("client", "a")
    w.corrupt(a2)                          # budget 1 for clients
    w2, _, b2 = small_world()
    w2.corrupt(b2)
    extra = EntityId("c", "s1", "warden")
    w2.register(Echo(extra))
    with pytest.raises(CorruptionError):
        w2.corrupt(extra)                  # over budget without the flag
    assert w2.corrupt(extra, allow_over_budget=True) is True
    over = [e for e in w2.trace.events if e["t"] == "corrupt"][-1]
    assert over["over_budget"] is True


def test_subroutine_role_not_corruptible():
    w = World("s1", TIMING)
    w.declare_role("funct", subroutine=True)
    f = w.entity("funct", "F")
    w.register(Echo(f))
    with pytest.raises(CorruptionError):
        w.corrupt(f)


def test_corrupted_recipient_absorbs_delivery():
    w, a, b = small_world()
    w.corrupt(b)
    w.inject_input(a, {"kind": "ping", "n": 3})
    eid = w.pending_net()[0].eid
    w.deliver_net(eid)
    assert w.machines[b].seen == []        # machine never ran
    assert w.shells[b][0]["payload"]["n"] == 3
    absorbed = [e for e in w.trace.events if e["t"] == "absorb"]
    assert len(absorbed) == 1


def test_round_advance_force_delivers_overdue_honest_net():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 9})
    assert len(w.pending_net()) == 1
    w.advance_round()                      # age 0 < delta
    assert len(w.pending_net()) == 1
    w.advance_round()
    w.advance_round()                      # age reached delta: flushed
    assert len(w.pending_net()) == 0
    assert w.machines[b].seen == [9]


def test_corrupted_sender_is_never_force_delivered():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 9})
    w.corrupt(a)
    for _ in range(5):
        w.advance_round()
    assert len(w.pending_net()) == 1


def test_hold_respects_delta_cap():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 1})
    eid = w.pending_net()[0].eid
    w.hold_net(eid, until_round=2)
    with pytest.raises(ScheduleError):
        w.hold_net(eid, until_round=5)     # past delta=2


def test_round_gate_refusal_leaves_state_unchanged():
    w, a, b = small_world()
    w.round_gates.append(lambda: (False, "blocked"))
    before = w.round_no
    assert w.advance_round() is False
    assert w.round_no == before
    assert w.trace.events[-1]["t"] == "round-refused"


def test_max_steps_truncates_and_flags():
    w, a, b = small_world()
    w.max_steps = 3
    for n in range(10):
        w.inject_input(a, {"kind": "ping", "n": n})
    assert w.halted == "max-steps"
    assert w.trace.complete is False


def test_trace_roundtrip_and_integrity():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 0})
    text = w.trace.to_text()
    again = Trace.from_text(text)
    assert again.digest() == w.trace.digest()
    broken = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(Exception):
        Trace.from_text(broken)


def test_clone_is_independent():
    w, a, b = small_world()
    w.inject_input(a, {"kind": "ping", "n": 1})
    twin = w.clone()
    eid = twin.pending_net()[0].eid
    twin.deliver_net(eid)
    assert w.machines[b].seen == []
    assert twin.fingerprint() != w.fingerprint()


def test_corruption_leak_is_plain_json():
    w, a, b = small_world()
    m = w.machines[a]
    m.voted = {(2, 1), (1, 3)}
    m.store = {(1, 0, "d"): {b: 1}, 4: "x"}
    w.corrupt(a)
    leak = [ev for ev in w.trace.events if ev["t"] == "corrupt"][0]["leak"]
    assert leak["peer"] == "warden:b"
    assert leak["voted"] == [[1, 3], [2, 1]]
    assert leak["store"] == {'[1,0,"d"]': {"warden:b": 1}, "4": "x"}
    Trace.from_text(w.trace.to_text())
