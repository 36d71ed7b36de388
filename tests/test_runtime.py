"""Runtime contracts: registration, routing, determinism, corruption, rounds."""

import random

import pytest

from l2sim import harness
from l2sim.base import Ledger, signed_tx
from l2sim.runtime import (
    World, Machine, EntityId, plain,
    RegistrationError, RoutingError, ScheduleError, CorruptionError,
)
from l2sim.trace import IntegrityError, Trace

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


class Echo(Machine):
    """Records what it receives; answers an input with an output and a NET
    forward to its peer."""

    def __init__(self, me, peer=None):
        super().__init__(me)
        self.peer = peer
        self.seen = []

    def on_input(self, ctx, payload):
        self.seen.append(payload.get("n"))
        ctx.output({"kind": "pong", "n": payload.get("n")})
        if self.peer is not None:
            ctx.send_net(self.peer, {"kind": "fwd", "n": payload.get("n")})

    def on_message(self, ctx, env):
        self.seen.append(env.payload.get("n"))


def small_world():
    w = World("s1", Ledger(TIMING))
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


def test_io_goes_only_to_the_environment():
    """A machine's output is one ``output`` event for the environment."""
    w, a, b = small_world()
    w.queue_io(a, {"kind": "x"})
    w.drain_io()
    assert w.machines[b].seen == []
    assert [(e["t"], e["party"], e["payload"]) for e in w.trace.events] == [
        ("output", "client:a", {"kind": "x"})]


def test_net_eids_are_dense():
    """Only NET envelopes draw eids: each input's output comes between two
    sends, which still take consecutive eids, and a delivery names its
    envelope's eid, its sender and its receiver, and no channel."""
    w, a, b = small_world()
    for n in (1, 2):
        w.inject_input(a, {"n": n})
    assert [t["t"] for t in w.trace.events] == ["input", "output"] * 2
    assert list(w.net) == [1, 2] and [e.eid for e in w.net.values()] == [1, 2]
    w.deliver_net(1)
    w.deliver_net(2)
    got = [e for e in w.trace.events if e["t"] == "deliver"]
    assert [(e["eid"], e["src"], e["dst"]) for e in got] == \
        [(1, "client:a", "warden:b"), (2, "client:a", "warden:b")]
    assert all("channel" not in e for e in got)


def test_no_output_once_the_step_limit_halts_a_drain():
    """Each output takes a step of its own; the one whose step passes
    ``max_steps`` halts the world and is not written, nor is any after it."""
    w, a, b = small_world()
    w.max_steps = 1
    for n in (1, 2, 3):
        w.queue_io(a, {"kind": "x", "n": n})
    w.drain_io()
    assert [(e["t"], e["step"], e["payload"]["n"]) for e in w.trace.events] \
        == [("output", 1, 1)]
    assert w.halted == "max-steps" and w.step_no == 2
    assert w.trace.complete is False


def test_net_send_requires_registered_destination():
    w, a, b = small_world()
    with pytest.raises(RoutingError):
        w.queue_net(a, EntityId("ghost", "s1", "warden"), {})


def test_the_environment_is_no_net_destination():
    """The environment is no registered entity: it takes outputs through
    ``queue_io`` only.  A NET send addressed to it would be an output in the
    sender's name outside ``queue_io``; it is refused and queues nothing."""
    w, a, b = small_world()
    assert all(e.role != "env" for e in w.owners)
    with pytest.raises(RoutingError):
        w.ctxs[a].send_net(EntityId("env", "s1", "env"), {"kind": "pong", "n": 1})
    assert not w.net and w.eid_counter == 0 and w.trace.events == []


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
    w = World("s1", Ledger(TIMING))
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
    absorbed = [e for e in w.trace.events if e["t"] == "absorb"]
    assert len(absorbed) == 1
    assert absorbed[0]["payload"]["n"] == 3


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


class Poller(Machine):
    """Logs each ``on_round`` with the round and ledger height it sees."""

    def __init__(self, me, log):
        super().__init__(me)
        self.log = log

    def on_round(self, ctx):
        self.log.append(("poll", self.me.pid, ctx.round, ctx.ledger.height))


@pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
def test_on_round_runs_once_per_advance_after_the_block(shared):
    """Each uncorrupted machine polls once per advance, in entity order,
    and sees that round's block; a second world on the ledger (the first
    mints each block) polls the same way."""
    ledger = Ledger(TIMING)
    owner = World("s1", ledger)
    w = World("s1", ledger) if shared else owner
    w.declare_role("client", budget=1)
    log = []
    for pid in ("a", "b"):
        w.register(Poller(w.entity("client", pid), log))
    want = []
    for rnd in (1, 2, 3):
        if rnd == 3:
            w.corrupt(w.entity("client", "b"))
        if shared:
            owner.advance_round()
        assert w.advance_round()
        want += [("poll", pid, rnd, rnd) for pid in ("a", "b")
                 if rnd < 3 or pid == "a"]
    assert log == want


class Submitter(Machine):
    """Submits a signed deposit holding the input's ``n`` and ``conflict``."""

    def on_input(self, ctx, payload):
        ctx.ledger.submit(signed_tx(ctx.certs, "deposit", dict(payload), "a"))


def ledger_worlds(*inputs, worlds=3):
    """``worlds`` worlds on one ledger, each with a ``Submitter``; each
    input ``(i, n, conflict)`` goes to world ``i``, then every world
    advances once, in order."""
    ledger = Ledger(TIMING)
    ws = [World("s1", ledger) for _ in range(worlds)]
    for w in ws:
        w.declare_role("client")
        w.register(Submitter(w.entity("client", "a")))
    for i, n, conflict in inputs:
        ws[i].inject_input(ws[i].entity("client", "a"),
                           {"n": n, "conflict": conflict})
    for w in ws:
        assert w.advance_round()
    return ws


def test_every_world_on_a_ledger_gets_its_events():
    """Every world on a ledger gets each ``ledger-submit`` as it is made,
    whoever made it, and the block's events right after its own ``round``
    event, with its own step and round; the first world's trace is the
    one it has alone."""
    # the first two conflict, so the block rejects the second
    first, second, third = ledger_worlds((1, 1, "k"), (1, 2, "k"),
                                         (2, 3, None))

    def got(w):
        return [(ev["t"], ev["step"], ev["round"], ev.get("accepted"),
                 ev.get("reason"), ev.get("payload", ev.get("body", {})).get("n"))
                for ev in w.trace.events]

    assert got(second) == [
        ("input", 1, 0, None, None, 1), ("ledger-submit", 1, 0, True, None, 1),
        ("input", 2, 0, None, None, 2), ("ledger-submit", 2, 0, True, None, 2),
        ("ledger-submit", 2, 0, True, None, 3),
        ("round", 3, 1, None, None, None),
        ("ledger-reject", 3, 1, None, "conflict", None),
        ("ledger-commit", 3, 1, None, None, None)]
    assert got(third)[:4] == [
        ("ledger-submit", 0, 0, True, None, 1),
        ("ledger-submit", 0, 0, True, None, 2),
        ("input", 1, 0, None, None, 3), ("ledger-submit", 1, 0, True, None, 3)]
    submits = [ev["txid"] for ev in second.trace.events
               if ev["t"] == "ledger-submit"]
    assert second.trace.events[-2]["txid"] == submits[1]
    assert second.trace.events[-1]["txids"] == [submits[0], submits[2]]
    for w in (first, second, third):
        assert w.ledger.round == w.ledger.height == w.round_no == 1
        assert [ev["t"] for ev in w.trace.events][-3:] == [
            "round", "ledger-reject", "ledger-commit"]
        assert [dict(ev, step=0) for ev in w.trace.events
                if ev["t"].startswith("ledger-")] == [
            dict(ev, step=0) for ev in second.trace.events
            if ev["t"].startswith("ledger-")]
    alone = ledger_worlds((0, 1, "k"), (0, 2, "k"), worlds=1)[0]
    joined = ledger_worlds((0, 1, "k"), (0, 2, "k"))[0]
    assert joined.trace.events == alone.trace.events


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


@pytest.mark.parametrize("line", ["header", "event", "integrity"])
def test_a_trace_file_line_that_is_no_object_is_an_integrity_error(line):
    trace = Trace()
    trace.events = [{"t": "note"}, [1] if line == "event" else {"t": "note"}]
    lines = trace.to_text().splitlines()
    if line != "event":
        lines[0 if line == "header" else -1] = "[1]"
    with pytest.raises(IntegrityError):
        Trace.from_text("\n".join(lines) + "\n")


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


def test_entity_ids_hash_order_and_print_by_their_fields():
    # (pid, sid, role) is the sort key and the hash, as it was when the id
    # was a frozen dataclass; plain() prints an id as its short name, even
    # though an id is now a tuple
    ids = [EntityId("b", "s1", "client"), EntityId("a", "s2", "warden"),
           EntityId("a", "s1", "zz"), EntityId("a", "s1", "client")]
    assert sorted(ids) == sorted(ids, key=lambda e: (e.pid, e.sid, e.role))
    assert hash(ids[0]) == hash(("b", "s1", "client"))
    assert EntityId("a", "s1", "zz") == ids[2] != ids[3]
    assert len({*ids, EntityId("b", "s1", "client")}) == 4
    assert plain(ids[0]) == "client:b"
    assert plain({ids[0]: [ids[1]], "k": (ids[2],)}) == {
        "client:b": ["warden:a"], "k": ["zz:a"]}


def test_each_entity_is_handed_one_ctx():
    # start, delivery, input and round all reuse the Ctx that register built
    handed = []

    class Recorder(Echo):
        def on_start(self, ctx):
            handed.append((self.me, ctx))

        def on_input(self, ctx, payload):
            handed.append((self.me, ctx))
            super().on_input(ctx, payload)

        def on_message(self, ctx, env):
            handed.append((env.dst, ctx))
            super().on_message(ctx, env)

        def on_round(self, ctx):
            handed.append((self.me, ctx))

    w = World("s1", Ledger(TIMING))
    w.declare_role("client")
    w.declare_role("warden")
    a, b = w.entity("client", "a"), w.entity("warden", "b")
    w.register(Recorder(a, peer=b))
    w.register(Recorder(b))
    w.inject_input(a, {"kind": "ping", "n": 1})
    w.deliver_net(w.pending_net()[0].eid)
    w.advance_round()
    assert len(handed) == 6
    assert all(ctx is w.ctxs[ent] and ctx.me == ent for ent, ctx in handed)
    assert w.machines[a].seen == [1]
    outputs = [ev for ev in w.trace.events if ev["t"] == "output"]
    assert [ev["party"] for ev in outputs] == ["client:a"]


class Bounce(Machine):
    """Sends ``fan`` copies of what it gets to its peer, one hop fewer,
    until the hops run out; an input starts a bounce like a delivery."""

    def __init__(self, me, peer, fan=1):
        super().__init__(me)
        self.peer = peer
        self.fan = fan

    def on_input(self, ctx, payload):
        hops = payload["hops"]
        for _ in range(self.fan if hops else 0):
            ctx.send_net(self.peer, {"n": payload["n"], "hops": hops - 1})

    def on_message(self, ctx, env):
        self.on_input(ctx, env.payload)


def bounce_world(fan=1):
    w = World("s1", Ledger(TIMING))
    w.declare_role("client")
    w.declare_role("warden")
    a, b = w.entity("client", "a"), w.entity("warden", "b")
    w.register(Bounce(a, peer=b))
    w.register(Bounce(b, peer=a, fan=fan))
    return w, a, b


def pool(w):
    return [(e.eid, e.hold_until) for e in w.pending_net()]


def test_an_unknown_or_delivered_eid_leaves_the_pool_unchanged():
    w, a, b = bounce_world()
    for n in range(3):
        w.inject_input(a, {"n": n, "hops": 2})
    first = w.pending_net()[0].eid
    w.deliver_net(first)
    w.hold_net(w.pending_net()[0].eid, until_round=1)
    before = (pool(w), w.step_no, len(w.trace.events), w.eid_counter)
    for eid in (first, 0, w.eid_counter + 1):
        with pytest.raises(ScheduleError):
            w.deliver_net(eid)
        with pytest.raises(ScheduleError):
            w.hold_net(eid, until_round=1)
        assert (pool(w), w.step_no, len(w.trace.events), w.eid_counter) == before


def test_the_pool_stays_in_eid_order():
    # holds, deliveries out of order and the round flush (which sends
    # again) never reorder what is pending
    w, a, b = bounce_world()
    for n in range(4):
        w.inject_input(a, {"n": n, "hops": 3})
    eids = [e.eid for e in w.pending_net()]
    w.hold_net(eids[0], until_round=2)
    w.deliver_net(eids[2])
    w.deliver_net(eids[1])
    while w.pending_net() and w.round_no < 12:
        order = [e.eid for e in w.pending_net()]
        assert order == sorted(order) and len(set(order)) == len(order)
        w.advance_round()
    assert not w.pending_net()
    delivered = [ev["eid"] for ev in w.trace.events if ev["t"] == "deliver"]
    assert sorted(delivered) == list(range(1, w.eid_counter + 1))


def reference_pump(w, seed):
    """One eagerly seeded Random shuffles each batch of the unheld pending
    eids, taken in eid order."""
    rng = random.Random(seed)
    sizes = []
    while True:
        batch = sorted(e.eid for e in w.pending_net()
                       if e.hold_until is None or w.round_no >= e.hold_until)
        if not batch:
            return sizes
        sizes.append(len(batch))
        rng.shuffle(batch)
        for eid in batch:
            w.deliver_net(eid)


def delivered(w):
    return [ev["eid"] for ev in w.trace.events if ev["t"] == "deliver"]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_a_seeded_pump_shuffles_each_batch_with_one_random(seed):
    # a lone first envelope fans out into a batch of three, and each of
    # those into one more; envelope 2 is held out of every batch until
    # round 1, so the first batch draws nothing from the Random
    def world():
        w, a, b = bounce_world(fan=3)
        w.inject_input(a, {"n": 0, "hops": 3})
        w.inject_input(a, {"n": 1, "hops": 1})
        w.hold_net(2, until_round=1)
        return w

    ref, run = world(), world()
    sizes = reference_pump(ref, seed)
    harness._pump_world(run, seed)
    assert sizes == [1, 3, 3]
    assert 2 not in delivered(run)
    assert delivered(run) == delivered(ref)
    assert run.trace.digest() == ref.trace.digest()
    ref.advance_round()
    run.advance_round()
    reference_pump(ref, seed)
    harness._pump_world(run, seed)
    assert 2 in delivered(run) and delivered(run) == delivered(ref)

