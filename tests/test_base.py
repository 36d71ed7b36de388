"""Ledger, signature registry, and clock behavior."""

import pytest

from l2sim.base import (
    CertRegistry, Ledger, make_tx, tx_signable,
    attach_leader_clock, attach_periodic_clock,
)
from l2sim.runtime import World, Machine, SimError

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


class Sink(Machine):
    def __init__(self, me):
        super().__init__(me)
        self.got = []

    def on_message(self, ctx, env):
        self.got.append(env.payload)


def ledger_world(n_ops=0, n_vals=0):
    w = World("s", TIMING)
    w.certs = CertRegistry()
    w.ledger = Ledger(TIMING)
    w.ledger.bind(w)
    w.declare_role("client")
    w.declare_role("operator")
    w.declare_role("validator")
    w.declare_role("clock")
    w.wire("operator", "clock")
    w.wire("validator", "clock")
    ops = []
    for i in range(n_ops):
        e = w.entity("operator", f"op{i+1}")
        w.register(Sink(e))
        ops.append(e)
    vals = []
    for i in range(n_vals):
        e = w.entity("validator", f"v{i+1}")
        w.register(Sink(e))
        vals.append(e)
    return w, ops, vals


def signed_tx(w, kind, body, author):
    tx = make_tx(kind, body, author)
    tx["sigs"] = [w.certs.sign(author, tx_signable(tx))]
    return tx


def test_cert_sign_verify_and_forgery():
    certs = CertRegistry()
    ref = certs.sign("client:a", {"m": 1})
    assert certs.verify(ref, {"m": 1}, "client:a")
    assert not certs.verify(ref, {"m": 2}, "client:a")
    assert not certs.verify(ref, {"m": 1}, "client:b")
    forged = {"sig": 999, "by": "client:a", "over": ref["over"]}
    assert not certs.verify(forged, {"m": 1}, "client:a")
    assert not certs.verify({"nonsense": True}, {"m": 1}, "client:a")


@pytest.mark.parametrize("handle", [[1], {"h": 1}, "1", None, 1.5])
def test_a_non_int_handle_is_invalid(handle):
    certs = CertRegistry()
    ref = dict(certs.sign("client:a", {"m": 1}), sig=handle)
    assert certs.verify(ref, {"m": 1}, "client:a") is False
    assert certs.verify_any(ref, {"m": 1}) is None


@pytest.mark.parametrize("handle", [0, -1, 2])
def test_a_handle_outside_the_log_is_invalid(handle):
    certs = CertRegistry()
    ref = dict(certs.sign("client:a", {"m": 1}), sig=handle)
    assert certs.verify(ref, {"m": 1}, "client:a") is False
    assert certs.verify_any(ref, {"m": 1}) is None


def test_every_true_verify_has_a_prior_sign_record():
    certs = CertRegistry()
    refs = [certs.sign(f"client:{i}", {"n": i}) for i in range(20)]
    for i, ref in enumerate(refs):
        assert certs.verify(ref, {"n": i}, f"client:{i}")
        assert certs.log[ref["sig"] - 1] == (f"client:{i}", ref["over"])


def test_ledger_rejects_malformed_and_unsigned():
    w, _, _ = ledger_world()
    bad = make_tx("teleport", {"x": 1}, "client:a")
    assert w.ledger.submit(bad)["accepted"] is False
    unsigned = make_tx("deposit", {"x": 1}, "client:a")
    r = w.ledger.submit(unsigned)
    assert r["accepted"] is False and r["reason"] == "unsigned"
    forged = make_tx("deposit", {"x": 1}, "client:a")
    forged["sigs"] = [{"sig": 123, "by": "client:a", "over": "zz"}]
    assert w.ledger.submit(forged)["reason"] == "bad-signature"
    other = make_tx("deposit", {"x": 1}, "client:a")
    other["sigs"] = [w.certs.sign("client:b", tx_signable(other))]
    assert w.ledger.submit(other)["reason"] == "unauthorized"


def test_ledger_commit_within_liveness_bound():
    w, _, _ = ledger_world()
    tx = signed_tx(w, "deposit", {"amt": 5, "conflict": "dep/a"}, "client:a")
    assert w.ledger.submit(tx)["accepted"]
    assert w.ledger.committed == []
    w.advance_round()
    assert [t["txid"] for t in w.ledger.committed] == [tx["txid"]]
    committed = w.ledger.committed[0]
    assert committed["commit_round"] - committed["submit_round"] <= TIMING["liveness_bound"]


def test_ledger_hold_capped_and_forced():
    w, _, _ = ledger_world()
    tx = signed_tx(w, "deposit", {"amt": 5}, "client:a")
    w.ledger.submit(tx)
    w.ledger.hold(tx["txid"], 2)
    with pytest.raises(SimError):
        w.ledger.hold(tx["txid"], 3)       # past bound 2
    w.advance_round()                      # round 1: held
    assert w.ledger.committed == []
    w.advance_round()                      # round 2: due
    assert len(w.ledger.committed) == 1
    assert w.ledger.committed[0]["commit_round"] == 2


def test_conflicting_settles_first_wins_either_order():
    def run(order):
        w, _, _ = ledger_world()
        t1 = signed_tx(w, "settle", {"conflict": "close/ch", "v": 1}, "client:a")
        t2 = signed_tx(w, "settle", {"conflict": "close/ch", "v": 2}, "client:b")
        pair = [t1, t2] if order == 0 else [t2, t1]
        assert w.ledger.submit(pair[0])["accepted"]
        assert w.ledger.submit(pair[1])["accepted"]   # conflict surfaces at commit
        w.advance_round()
        wins = [t["body"]["v"] for t in w.ledger.committed]
        rejects = [e for e in w.trace.events if e["t"] == "ledger-reject"]
        return wins, len(rejects)

    assert run(0) == ([1], 1)
    assert run(1) == ([2], 1)


def test_conflict_rejected_at_submit_after_commit():
    w, _, _ = ledger_world()
    t1 = signed_tx(w, "settle", {"conflict": "k"}, "client:a")
    w.ledger.submit(t1)
    w.advance_round()
    t2 = signed_tx(w, "settle", {"conflict": "k"}, "client:b")
    assert w.ledger.submit(t2)["reason"] == "conflict"


def test_get_returns_committed_entries_only():
    w, _, _ = ledger_world()
    first = signed_tx(w, "settle", {"v": 1, "conflict": "k"}, "client:a")
    loser = signed_tx(w, "settle", {"v": 2, "conflict": "k"}, "client:a")
    assert w.ledger.submit(first)["accepted"]
    assert w.ledger.submit(loser)["accepted"]
    assert w.ledger.get(first["txid"]) is None            # pending
    w.advance_round()
    assert w.ledger.get(first["txid"]) is w.ledger.committed[0]
    assert w.ledger.get(first["txid"])["height"] == 1
    assert w.ledger.get(loser["txid"]) is None            # rejected at commit
    late = signed_tx(w, "settle", {"v": 3, "conflict": "k"}, "client:a")
    assert not w.ledger.submit(late)["accepted"]
    assert w.ledger.get(late["txid"]) is None             # rejected at submit
    assert w.ledger.get("no-such-txid") is None
    assert w.ledger.get(["not", "a", "txid"]) is None


def test_depth_counts_blocks_since_inclusion():
    w, _, _ = ledger_world()
    tx = signed_tx(w, "deposit", {"amt": 1}, "client:a")
    w.ledger.submit(tx)
    w.advance_round()
    committed = w.ledger.committed[0]
    assert w.ledger.depth(committed) == 1
    w.advance_round()
    assert w.ledger.depth(committed) == 2   # confirm_depth reached
    assert w.ledger.height == 2


def test_reads_are_prefixes_and_frontier_monotone():
    w, _, _ = ledger_world()
    for i in range(4):
        w.ledger.submit(signed_tx(w, "deposit", {"n": i}, "client:a"))
        w.advance_round()
    full = w.ledger.read("client:b")["txs"]
    lagged = w.ledger.read("client:c", lag=2)["txs"]
    assert [t["txid"] for t in lagged] == [t["txid"] for t in full[:2]]
    again = w.ledger.read("client:c", lag=3)["txs"]   # frontier never shrinks
    assert len(again) == 2
    later = w.ledger.read("client:c")["txs"]
    assert [t["txid"] for t in later] == [t["txid"] for t in full]


def test_kind_check_hook_runs():
    w, _, _ = ledger_world()
    w.ledger.kind_checks["fraud-proof"] = lambda tx, led: (False, "no-mismatch")
    tx = signed_tx(w, "fraud-proof", {"target": "t"}, "validator:v1")
    assert w.ledger.submit(tx)["reason"] == "no-mismatch"


def test_leader_clock_round_robin():
    w, ops, _ = ledger_world(n_ops=3)
    attach_leader_clock(w, ops)
    for _ in range(4):
        w.advance_round()
    # leader for round r is ops[r % 3]; rounds 1..4 -> op2, op3, op1, op2
    got = [(i, m.got) for i, m in enumerate(w.machines.values())]
    leaders = []
    for e in w.trace.events:
        if e["t"] == "deliver" and e["payload"].get("kind") == "update-leader":
            leaders.append(e["dst"])
    assert leaders == ["operator:op2", "operator:op3", "operator:op1", "operator:op2"]


def test_periodic_clock_fires_every_t_period():
    w, ops, vals = ledger_world(n_ops=2, n_vals=1)
    attach_periodic_clock(w, TIMING["t_period"], ops, vals)
    for _ in range(8):
        w.advance_round()
    fires = [e["round"] for e in w.trace.events
             if e["t"] == "deliver" and e["payload"].get("kind") == "update-request"]
    assert fires == [4, 4, 8, 8]           # both operators, rounds 4 and 8
    checks = [e for e in w.trace.events
              if e["t"] == "deliver" and e["payload"].get("kind") == "update-check"]
    assert len(checks) == 2

