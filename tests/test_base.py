"""Ledger and signature registry behavior."""

import pytest

from l2sim import base
from l2sim.base import CertRegistry, Ledger, make_tx, tx_signable
from l2sim.runtime import World, SimError
from l2sim.trace import digest

TIMING = {"delta": 2, "liveness_bound": 2, "confirm_depth": 2, "t_period": 4}


def ledger_world():
    w = World("s", Ledger(TIMING))
    return w


def signed_tx(w, kind, body, author):
    tx = make_tx(kind, body, author)
    tx["sigs"] = [w.certs.sign(author, digest(tx_signable(tx)))]
    return tx


def test_cert_sign_verify_and_forgery():
    certs = CertRegistry()
    ref = certs.sign("client:a", digest({"m": 1}))
    assert certs.verify(ref, digest({"m": 1}), "client:a")
    assert not certs.verify(ref, digest({"m": 2}), "client:a")
    assert not certs.verify(ref, digest({"m": 1}), "client:b")
    forged = {"sig": 999, "by": "client:a", "over": ref["over"]}
    assert not certs.verify(forged, digest({"m": 1}), "client:a")
    assert not certs.verify({"nonsense": True}, digest({"m": 1}), "client:a")


@pytest.mark.parametrize("handle", [[1], {"h": 1}, "1", None, 1.5, True,
                                    False])
def test_a_non_int_handle_is_invalid(handle):
    certs = CertRegistry()
    ref = dict(certs.sign("client:a", digest({"m": 1})), sig=handle)
    assert certs.verify(ref, digest({"m": 1}), "client:a") is False
    assert certs.verify_any(ref, digest({"m": 1})) is None


def test_a_record_verifies_only_over_the_digest_it_names():
    certs = CertRegistry()
    d = digest({"m": 1})
    ref = certs.sign("client:a", d)
    for bad in (dict(ref, over="zz"), dict(ref, over=digest({"m": 2})),
                {k: v for k, v in ref.items() if k != "over"},
                {k: v for k, v in ref.items() if k != "by"},
                [ref["sig"], "client:a", d], "client:a", None):
        assert certs.verify(bad, d, "client:a") is False
        assert certs.verify_any(bad, d) is None
    assert certs.verify_any(dict(ref, extra=1), d) == "client:a"
    assert certs.verify(ref, d, "client:a") and certs.verify_any(ref, d)


@pytest.mark.parametrize("handle", [0, -1, 2])
def test_a_handle_outside_the_log_is_invalid(handle):
    certs = CertRegistry()
    ref = dict(certs.sign("client:a", digest({"m": 1})), sig=handle)
    assert certs.verify(ref, digest({"m": 1}), "client:a") is False
    assert certs.verify_any(ref, digest({"m": 1})) is None


def test_every_true_verify_has_a_prior_sign_record():
    certs = CertRegistry()
    refs = [certs.sign(f"client:{i}", digest({"n": i})) for i in range(20)]
    for i, ref in enumerate(refs):
        assert certs.verify(ref, digest({"n": i}), f"client:{i}")
        assert certs.log[ref["sig"] - 1] == (f"client:{i}", ref["over"])


def test_ledger_rejects_malformed_and_unsigned():
    w = ledger_world()
    bad = make_tx("teleport", {"x": 1}, "client:a")
    assert w.ledger.submit(bad)["accepted"] is False
    unsigned = make_tx("deposit", {"x": 1}, "client:a")
    r = w.ledger.submit(unsigned)
    assert r["accepted"] is False and r["reason"] == "unsigned"
    forged = make_tx("deposit", {"x": 1}, "client:a")
    forged["sigs"] = [{"sig": 123, "by": "client:a", "over": "zz"}]
    assert w.ledger.submit(forged)["reason"] == "bad-signature"
    other = make_tx("deposit", {"x": 1}, "client:a")
    other["sigs"] = [w.certs.sign("client:b", digest(tx_signable(other)))]
    assert w.ledger.submit(other)["reason"] == "unauthorized"


def test_ledger_rejects_a_forged_txid():
    # the rollup fold strikes by txid and Ledger.get finds the entry with
    # one, so a tx carrying another's txid must not commit even when its
    # author really signed it
    w = ledger_world()
    honest = signed_tx(w, "deposit", {"amt": 1, "conflict": "dep/1"}, "client:a")
    assert honest["sigs"][0]["over"] == honest["txid"]
    forged = signed_tx(w, "deposit", {"amt": 2, "conflict": "dep/2"}, "client:a")
    assert w.ledger.validate(forged) == (True, None)
    forged["txid"] = honest["txid"]
    r = w.ledger.submit(forged)
    assert r["accepted"] is False and r["reason"] == "bad-txid"
    del forged["txid"]
    assert w.ledger.validate(forged) == (False, "bad-txid")
    assert w.ledger.submit(honest)["accepted"]


def test_message_is_the_digest_of_its_parts():
    certs = CertRegistry()
    for parts in (("pre", "side", 1, 2, "ab"), ("pegout", "side", None, 3),
                  ("fin", "side", [1, 2], {"k": 1}, "ab")):
        assert certs.message(*parts) == digest(list(parts))
        assert certs.message(*parts) == digest(list(parts))    # again
    # exact str and int parts are keyed by value, any other by identity
    assert [key[:2] for key in certs.memo] == [
        ("pre", "side"), ("pegout", "side"), ("fin", "side")]
    assert list(certs.memo)[0] == ("pre", "side", 1, 2, "ab")


@pytest.mark.parametrize("first", [1, True, 1.0])
def test_message_keeps_true_one_and_one_point_zero_apart(first):
    certs = CertRegistry()
    certs.message("pre", "side", first)
    digests = {certs.message("pre", "side", part) for part in (1, True, 1.0)}
    assert len(digests) == 3
    assert certs.message("pre", "side", 1) == digest(["pre", "side", 1])
    assert [key for key in certs.memo if key[2] == 1] == [("pre", "side", 1)]


def test_a_fresh_registry_starts_empty():
    used = CertRegistry()
    used.message("pre", "side", 1)
    used.sign("client:a", used.message("pre", "side", 1))
    fresh = CertRegistry()
    assert fresh.memo == {} and fresh.log == []


def test_registry_digest_is_the_digest():
    certs = CertRegistry()
    block = {"height": 1, "txs": []}
    for value in (block, ["l2tx", block], None, "ab", 3, [], [None, True]):
        assert certs.digest(value) == digest(value)
        assert certs.digest(value) == digest(value)           # again
    assert certs.message("l2tx", block) == digest(["l2tx", block])
    # the list and its one item are distinct values with distinct keys
    assert certs.digest([block]) != certs.digest(block)


def test_a_cloned_world_starts_with_an_empty_memo():
    # memo keys are identities, and a deep copy's objects have new ones
    w = ledger_world()
    state = {"bal": {"a": 1}}
    dig = w.certs.message("chan-state", "s", state, 1)
    w.certs.sign("client:a", dig)
    twin = w.clone()
    assert twin.certs.memo == {} and twin.certs.log == w.certs.log
    assert twin.certs.message("chan-state", "s", state, 1) == dig
    assert len(w.certs.memo) == 1


def test_the_ledger_check_reads_no_memo():
    # a body changed in place after signing keeps its memo key, so a memo
    # would still answer the signed digest; the ledger digests afresh
    w = ledger_world()
    tx = base.signed_tx(w.certs, "deposit", {"amt": 1, "conflict": "d/1"},
                        "client:a")
    assert w.certs.digest(tx_signable(tx)) == tx["txid"]
    tx["body"]["amt"] = 1000
    assert w.certs.digest(tx_signable(tx)) == tx["txid"]          # stale
    r = w.ledger.submit(tx)
    assert r["accepted"] is False
    assert r["reason"] in ("bad-signature", "bad-txid")


def ledger_rejects(w):
    return [(e["txid"], e["reason"]) for e in w.trace.events
            if e["t"] == "ledger-reject"]


def test_submit_refuses_a_replayed_txid():
    w = ledger_world()
    tx = signed_tx(w, "deposit", {"amt": 1}, "client:a")
    assert w.ledger.submit(tx)["accepted"]
    assert w.ledger.submit(dict(tx))["reason"] == "replay"     # pending
    w.advance_round()
    assert w.ledger.submit(dict(tx))["reason"] == "replay"     # committed
    w.advance_round()
    assert [t["txid"] for t in w.ledger.committed] == [tx["txid"]]
    assert w.ledger.pending == []


def test_txid_and_signatures_are_checked_once_at_submit(monkeypatch):
    w = ledger_world()
    validated = []
    validate = Ledger.validate

    def counted(ledger, tx):
        validated.append(tx["txid"])
        return validate(ledger, tx)

    monkeypatch.setattr(Ledger, "validate", counted)
    txs = [signed_tx(w, "deposit", {"n": i}, "client:a") for i in range(3)]
    for tx in txs:
        assert w.ledger.submit(tx)["accepted"]
    bad_txid = signed_tx(w, "deposit", {"n": 9}, "client:a")
    bad_txid["txid"] = txs[0]["txid"][::-1]
    bad_sig = make_tx("deposit", {"n": 8}, "client:a")
    bad_sig["sigs"] = [w.certs.sign("client:a", txs[0]["txid"])]
    assert w.ledger.submit(bad_txid)["reason"] == "bad-txid"
    assert w.ledger.submit(bad_sig)["reason"] == "bad-signature"
    assert len(w.ledger.pending) == 3
    w.advance_round()
    assert [t["txid"] for t in w.ledger.committed] == [tx["txid"] for tx in txs]
    assert len(validated) == 5                   # the block validates none


def test_a_conflict_key_taken_while_pending_is_refused_at_tick():
    w = ledger_world()
    first = signed_tx(w, "settle", {"conflict": "k", "v": 1}, "client:a")
    second = signed_tx(w, "settle", {"conflict": "k", "v": 2}, "client:b")
    assert w.ledger.submit(first)["accepted"]
    assert w.ledger.submit(second)["accepted"]
    w.ledger.hold(second["txid"], 2)
    w.advance_round()                      # round 1 commits first, takes "k"
    assert ledger_rejects(w) == []
    w.advance_round()                      # round 2: second is due
    assert [t["body"]["v"] for t in w.ledger.committed] == [1]
    assert ledger_rejects(w) == [(second["txid"], "conflict")]


def test_a_kind_check_that_fails_only_at_tick_refuses():
    w = ledger_world()
    window = {"open": True}
    w.ledger.kind_checks["fraud-proof"] = lambda tx, led: (
        (True, None) if window["open"] else (False, "window-closed"))
    tx = signed_tx(w, "fraud-proof", {"target": "t"}, "validator:v1")
    assert w.ledger.submit(tx)["accepted"]
    window["open"] = False
    w.advance_round()
    assert w.ledger.committed == []
    assert ledger_rejects(w) == [(tx["txid"], "window-closed")]


def test_ledger_commit_within_liveness_bound():
    w = ledger_world()
    tx = signed_tx(w, "deposit", {"amt": 5, "conflict": "dep/a"}, "client:a")
    assert w.ledger.submit(tx)["accepted"]
    assert w.ledger.committed == []
    w.advance_round()
    assert [t["txid"] for t in w.ledger.committed] == [tx["txid"]]
    committed = w.ledger.committed[0]
    assert committed["commit_round"] - committed["submit_round"] <= TIMING["liveness_bound"]


def test_ledger_hold_capped_and_forced():
    w = ledger_world()
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
        w = ledger_world()
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
    w = ledger_world()
    t1 = signed_tx(w, "settle", {"conflict": "k"}, "client:a")
    w.ledger.submit(t1)
    w.advance_round()
    t2 = signed_tx(w, "settle", {"conflict": "k"}, "client:b")
    assert w.ledger.submit(t2)["reason"] == "conflict"


def test_get_returns_committed_entries_only():
    w = ledger_world()
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
    w = ledger_world()
    tx = signed_tx(w, "deposit", {"amt": 1}, "client:a")
    w.ledger.submit(tx)
    w.advance_round()
    committed = w.ledger.committed[0]
    assert not w.ledger.buried(committed)   # depth 1
    w.advance_round()
    assert w.ledger.buried(committed)       # depth 2: confirm_depth reached
    assert w.ledger.height == 2


def test_reads_are_prefixes_and_frontier_monotone():
    w = ledger_world()
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
    w = ledger_world()
    w.ledger.kind_checks["fraud-proof"] = lambda tx, led: (False, "no-mismatch")
    tx = signed_tx(w, "fraud-proof", {"target": "t"}, "validator:v1")
    assert w.ledger.submit(tx)["reason"] == "no-mismatch"
