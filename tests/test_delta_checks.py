"""The property checks walk read deltas, not whole views.

``check_safety``, ``check_liveness`` and ``check_correct_settlement`` keep
running values per reader and walk only the entries after each read's
``base``.  The whole-view versions they replaced are kept here as
references: ``reference_check_liveness`` (update kind) and
``reference_check_correct_settlement``, next to ``reference_check_safety``
in ``test_properties.py``.  Random traces of delta reads, whose bases
truncate, whose views settle and whose readers interleave out of
(round, step) order while each keeps its own reads in order, must
get the same records and witnesses from both, and a failing witness must
fail again on its own.  A count of the evidence keys and state heights
the checks build bounds their work by the size of the read deltas.
"""

import pytest
from hypothesis import given, settings, strategies as st

from l2sim import harness, properties
from l2sim.core import CLIENT, OPEN, SETTLEMENT, UPDATE, read_result
from l2sim.properties import (
    SETTLE_TX_KINDS,
    Verdict,
    as_trace,
    check_correct_settlement,
    check_liveness,
    check_safety,
    summarize,
)

from test_properties import (
    all_checks,
    assert_same_verdict,
    reference_check_safety,
)


# -- the whole-view checks, kept as references -------------------------------


def reference_first_seen(trace) -> dict:
    """Earliest round of each (what, pid, k) update key, every view whole:
    a view shows ("pay", pid, k) when it holds k pays from pid, and
    ("deposit", pid, k) when it holds k mints to pid.  A pay is a ``pay``
    transaction, or an update entry without ``txs`` that lowers pid's
    balance against the entry before it."""
    first = {}
    for v in summarize(trace).views:
        counts, before = {}, None
        for e in v.executed:
            marks = []
            if e.get("txs") is not None:
                for tx in e["txs"]:
                    if tx.get("op") == "pay":
                        marks.append(("pay", tx.get("from")))
                    elif tx.get("op") == "mint":
                        marks.append(("deposit", tx.get("to")))
            elif e.get("kind") == UPDATE and before is not None:
                old = (before.get("state") or {}).get("bal")
                new = (e.get("state") or {}).get("bal")
                if isinstance(old, dict) and isinstance(new, dict):
                    marks += [("pay", pid) for pid in new
                              if pid in old and new[pid] < old[pid]]
            for mark in marks:
                counts[mark] = counts.get(mark, 0) + 1
            before = e
        for (what, pid), n in counts.items():
            for k in range(1, n + 1):
                key = (what, pid, k)
                first[key] = min(first.get(key, v.round), v.round)
    return first


def horizon_of(trace):
    return max((ev.get("round", 0) for ev in trace.events), default=0)


def role_counts(trace):
    out = {}
    for party in summarize(trace).corrupted:
        role = str(party).split(":", 1)[0]
        out[role] = out.get(role, 0) + 1
    return out


def reference_check_liveness(trace, params) -> Verdict:
    """``check_liveness`` for kind ``update`` over whole views."""
    kind, name = UPDATE, f"liveness-{UPDATE}"
    f, t_l2, t_l1 = params.get("f", {}), params["t_l2"], params["t_l1"]
    counts = role_counts(trace)
    if not properties._within(f, counts):
        return Verdict(name, True, vacuous=True,
                       params={"kind": kind, "f": f, "corrupted": counts,
                               "reason": "corruptions-exceed-f"})
    seen = reference_first_seen(trace)
    views, horizon = summarize(trace).views, horizon_of(trace)
    judged = unresolved = 0
    asked = {}
    for r in summarize(trace).requests:
        if r["cls"] != kind or r["refused"]:
            continue
        mine = asked[r["pid"], r["what"]] = \
            asked.get((r["pid"], r["what"]), []) + [r]
        deadline = r["round"] + t_l2 + t_l1
        if deadline > horizon:
            unresolved += 1
            continue
        judged += 1
        if seen.get((r["what"], r["pid"], len(mine)), deadline + 1) > deadline:
            shown = [e for q in mine for e in (q["event"], q["note"]) if e]
            witness = shown + [properties._view_event(v) for v in views
                               if v.round <= deadline]
            witness.append({"t": "horizon", "round": horizon})
            return Verdict(name, False, witness=witness,
                           params={"kind": kind, "pid": r["pid"],
                                   "submit_round": r["round"],
                                   "deadline": deadline,
                                   "t_l2": t_l2, "t_l1": t_l1})
    return Verdict(name, True, vacuous=judged == 0,
                   params={"kind": kind, "judged": judged,
                           "beyond_horizon": unresolved, "f": f})


def reference_heights(views) -> list:
    """The highest state height in each whole view, or None."""
    return [max((properties._state_height(e.get("state") or {})
                 for e in v.executed), default=None) for v in views]


def reference_check_correct_settlement(trace) -> Verdict:
    """``check_correct_settlement`` with every view's height taken whole."""
    name = "correct-settlement"
    bad = summarize(trace).corrupted
    views = summarize(trace).views
    explicit = {(r["pid"], r["entry"]["seq"]) for r in summarize(trace).requests
                if r["cls"] == SETTLEMENT
                and r["entry"].get("seq") is not None}
    heights = reference_heights(views)
    closed = any(t.get("kind") in SETTLE_TX_KINDS
                 for t in summarize(trace).commits)
    settle_oks = [ev for ev in trace.events if ev.get("t") == "output"
                  and ev.get("payload", {}).get("kind") == "settle-ok"
                  and ev.get("party") not in bad]
    for ev in settle_oks:
        got = properties._state_height(ev["payload"].get("state") or {})
        rnd = ev.get("round", 0)
        best = max([got] + [h for v, h in zip(views, heights)
                            if h is not None and v.round <= rnd])
        pid = ev["party"].split(":", 1)[1]
        if got < best and (pid, got) not in explicit:
            witness = [ev] + [properties._view_event(v) for v in views
                              if v.round <= rnd]
            return Verdict(name, False, witness=witness,
                           params={"settled_at": got, "latest_known": best})
        if not closed:
            return Verdict(name, False, witness=[ev],
                           params={"reason": "no-close-record-on-chain"})
    return Verdict(name, True, params={"settlements": len(settle_oks)},
                   vacuous=not settle_oks)


# -- random traces of delta reads -------------------------------------------

PIDS = ["A", "B", "C"]
LIVE = {"f": {CLIENT: 1}, "t_l2": 2, "t_l1": 1}      # deadline: round + 3
STATES = [None, {}, {"seq": 0}, {"seq": 1}, {"seq": 2}, {"seq": 3},
          {"height": 1}, {"height": 3}]
TXS = ([{"op": "mint", "to": p, "amt": 1, "ref": f"dep-{p}"} for p in PIDS]
       + [{"op": "pay", "from": p, "to": "A", "amt": 1, "nonce": n}
          for p in PIDS for n in (1, 2)])
ENTRIES = [{"kind": kind, "seq": seq, "state": STATES[st_], "txs": txs}
           for kind, seq, st_, txs in [
               (OPEN, 0, 2, []), (UPDATE, 1, 3, [TXS[0]]),
               (UPDATE, 1, 3, [TXS[3]]), (UPDATE, 2, 4, [TXS[1], TXS[4]]),
               (UPDATE, 2, 6, [TXS[0], TXS[0]]), (UPDATE, 3, 5, [TXS[5]]),
               (UPDATE, 3, 7, []), (UPDATE, 4, 0, [TXS[2], TXS[7]]),
               (OPEN, 0, 1, [TXS[6]])]]
# channel entries: update entries without txs, whose balances fall and rise
BALANCES = [{"A": 5, "B": 5}, {"A": 4, "B": 6}, {"A": 3, "B": 7}]
CHANNEL = [{"kind": kind, "seq": seq, "state": {"seq": seq, "bal": bal}}
           for kind, seq, bal in [
               (OPEN, 0, BALANCES[0]), (UPDATE, 1, BALANCES[1]),
               (UPDATE, 2, BALANCES[0]), (UPDATE, 2, BALANCES[2]),
               (UPDATE, 3, BALANCES[1])]]


def party(pid):
    return f"{CLIENT}:{pid}"


def event(t, who, rnd, **fields):
    return {"t": t, "party": who, "round": rnd, **fields}


@st.composite
def delta_traces(draw):
    """Reads, requests and settlements of three clients in trace order.

    Each read carries a base up to its reader's previous view (so it may
    truncate it) and a delta, and sometimes a settled state.  Rounds grow
    along the trace, except that the reads may deal out their (round,
    step) labels anew, each reader taking the ones it is dealt in order:
    the readers then interleave out of time order, each in its own.
    """
    events, shown, rnd = [], {}, 0
    for _ in range(draw(st.integers(1, 14))):
        rnd += draw(st.integers(0, 2))
        pid = draw(st.sampled_from(PIDS))
        what = draw(st.sampled_from(["read"] * 4 + ["pay", "deposit",
                                                    "settle", "submit"]))
        if what == "read":
            prev = shown.get(pid, 0)
            base = prev if draw(st.booleans()) else \
                draw(st.integers(0, prev))
            delta = draw(st.lists(st.sampled_from(ENTRIES + CHANNEL),
                                  max_size=3))
            shown[pid] = base + len(delta)
            settled = draw(st.sampled_from([None, None] + STATES[2:]))
            events.append(event("output", party(pid), rnd,
                                payload=read_result(base, delta, settled)))
        elif what == "pay":
            events.append(event("input", party(pid), rnd,
                                payload={"kind": "pay", "to": "A", "amt": 1}))
            queued = draw(st.sampled_from([
                None, {"nonce": 1}, {"nonce": 2}, {"seq": 1}, "refused"]))
            if queued == "refused":
                events.append(event("note", party(pid), rnd,
                                    kind="request-refused", req="pay"))
            elif queued is not None:
                events.append(event("note", party(pid), rnd,
                                    kind="request-queued", req="pay",
                                    **queued))
        elif what == "deposit":
            events.append(event("input", party(pid), rnd,
                                payload={"kind": "deposit", "amt": 1}))
        elif what == "settle":
            if draw(st.booleans()):
                seq = draw(st.sampled_from([None, 1, 2]))
                events.append(event("input", party(pid), rnd,
                                    payload={"kind": "settle", "seq": seq}))
            events.append(event("output", party(pid), rnd, payload={
                "kind": "settle-ok", "state": draw(st.sampled_from(STATES))}))
            if draw(st.booleans()):
                kind = draw(st.sampled_from(["settle", "peg-out", "deposit"]))
                txid = f"tx-{len(events)}"
                events += [event("ledger-submit", "chain", rnd, accepted=True,
                                 txid=txid, kind=kind, author=party(pid),
                                 body={}),
                           event("ledger-commit", "chain", rnd, height=1,
                                 txids=[txid])]
        else:
            # an interface run's request: the input, its answer note
            word = draw(st.sampled_from(["pay", "deposit", "settle"]))
            events.append(event("input", party(pid), rnd,
                                payload={"kind": word, "amt": 1}))
            accepted = draw(st.booleans())
            events.append(
                event("note", party(pid), rnd, req=word, kind="request-queued")
                if accepted else event("note", party(pid), rnd, req=word,
                                       kind="request-refused", why="phase"))
            # an exec record clearing the request's rid serves nothing
            if accepted and draw(st.booleans()):
                events.append(event("exec", "funct", rnd + draw(
                    st.integers(0, 4)), kind=UPDATE,
                    rids=[draw(st.integers(1, 3))]))
    for step, e in enumerate(events):
        e["step"] = step
    reads = {}
    for e in events:
        if e["t"] == "output" and e["payload"]["kind"] == "read-result":
            reads.setdefault(e["party"], []).append(e)
    if reads and draw(st.booleans()):
        every = [e for mine in reads.values() for e in mine]
        labels = draw(st.permutations([(e["round"], e["step"])
                                       for e in every]))
        dealt = {}
        for e, label in zip(every, labels):
            dealt.setdefault(e["party"], []).append(label)
        for e in every:
            mine = dealt[e["party"]]
            e["round"], e["step"] = mine.pop(mine.index(min(mine)))
    if draw(st.integers(0, 3)) == 0:
        bad = party(draw(st.sampled_from(PIDS)))
        events.insert(0, event("corrupt", bad, 0, step=-1))
    events.append(event("note", "env", rnd + draw(st.integers(0, 4)),
                        step=len(events), kind="tick"))
    return events


def fails_again(check, verdict, *args):
    return not check(as_trace(verdict.witness), *args).passed


@settings(max_examples=400, deadline=None)
@given(delta_traces())
def test_liveness_matches_reference_on_delta_reads(events):
    trace = as_trace(events)
    summary = properties.summarize(trace)
    assert properties._first_seen(summary) == reference_first_seen(trace)
    got = check_liveness(trace, UPDATE, LIVE)
    assert_same_verdict(got, reference_check_liveness(trace, LIVE))
    if not got.passed:
        assert fails_again(check_liveness, got, UPDATE, LIVE)


@settings(max_examples=400, deadline=None)
@given(delta_traces())
def test_settlement_matches_reference_on_delta_reads(events):
    trace = as_trace(events)
    assert properties._heights(properties.summarize(trace)) == \
        reference_heights(summarize(trace).views)
    got = check_correct_settlement(trace)
    assert_same_verdict(got, reference_check_correct_settlement(trace))
    if not got.passed:
        assert fails_again(check_correct_settlement, got)


@settings(max_examples=400, deadline=None)
@given(delta_traces(), st.integers(0, 1))
def test_safety_matches_reference_on_delta_reads(events, f):
    trace = as_trace(events)
    got = check_safety(trace, {CLIENT: f})
    assert_same_verdict(got, reference_check_safety(trace, {CLIENT: f}))
    if not got.passed:
        assert fails_again(check_safety, got, {CLIENT: f})


# -- the work the checks do ------------------------------------------------


@pytest.mark.parametrize("name", sorted(harness.PROTOCOLS))
def test_checks_build_each_read_entry_a_bounded_number_of_times(
        name, monkeypatch):
    # evidence-key rows plus state heights, against the entries the reads
    # carry; judging every whole view makes it grow with reads x length
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, 1, pays=40)
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    built = [0]

    def entry_keys(executed, texts, _fn=properties.entry_keys):
        rows = _fn(executed, texts)
        built[0] += len(rows)
        return rows

    def state_height(state, _fn=properties._state_height):
        built[0] += 1
        return _fn(state)

    monkeypatch.setattr(properties, "entry_keys", entry_keys)
    monkeypatch.setattr(properties, "_state_height", state_height)
    for run in (real, ideal):
        reads = [e["payload"] for e in run.trace.events
                 if e["t"] == "output"
                 and e["payload"]["kind"] == "read-result"]
        carried = sum(len(p["executed"]) for p in reads) + len(reads)
        built[0] = 0
        all_checks(name, scn, run.trace)
        assert 0 < built[0] <= 4 * carried
