"""Property checks across the two runs, on hand-built traces, and on files.

Verdict parity: for every scripted schedule each check's ``passed`` is the
same on the real and the ideal trace, every failing verdict's witness
fails again with the same parameters on its own, and no check's record
moves when the ideal trace loses its exec records.  Initialization and data
availability get hand-built and tampered traces, with every record pinned
and every failing witness re-checked on its own.  A trace written with
``Trace.dump`` and read back with ``Trace.load`` gets the same digest and
the same verdicts.  The checks run on one trace share one summary of it,
and none of them changes that summary.  Counting guards pin the cost of
the checks without timing them: data availability replays each distinct
view once, and safety canonicalizes each state object at most once.  A
malformed event is refused with IntegrityError where it enters, wrapped by
``as_trace`` or loaded by ``Trace.from_text``, so it fails every check;
so is a read that goes back in (round, step) before its reader's previous
read.
"""

import copy
import json
from functools import lru_cache

import pytest

from l2sim import harness, properties
from l2sim.core import CLIENT, OPEN, UPDATE, read_result
from l2sim.properties import as_trace, check_correct_initialization
from l2sim.trace import IntegrityError, Trace, canon

from test_summary import CASES, lifecycle, trace_of


def checks(name, scn, trace):
    """(check name, verdict) of every check with a pass/fail outcome."""
    proto = harness.protocol(name)
    f = {role: budget for role, _, budget in proto.party_roles(scn)}
    out = [check_correct_initialization(trace), properties.check_safety(trace, f)]
    out += [properties.check_liveness(trace, kind, params)
            for kind, params in proto.liveness_params(scn).items()]
    out.append(properties.check_correct_settlement(trace))
    return {v.name: v for v in out}


@lru_cache(maxsize=None)
def scripted_traces(name, label):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.scripted_schedules(name, scn)[label]
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    return real.trace, ideal.trace


@lru_cache(maxsize=None)
def scripted_verdicts(name, label):
    scn = harness.protocol(name).canonical_scenario()
    return tuple(checks(name, scn, trace)
                 for trace in scripted_traces(name, label))


SCRIPTED = [(name, label) for name, proto in harness.PROTOCOLS.items()
            for label in harness.scripted_schedules(
                name, proto.canonical_scenario())]


def parity_cases():
    for name, proto in harness.PROTOCOLS.items():
        scn = proto.canonical_scenario()
        kinds = [f"liveness-{k}" for k in proto.liveness_params(scn)]
        for label in harness.scripted_schedules(name, scn):
            for check in ["correct-initialization", "safety", *kinds,
                          "correct-settlement"]:
                yield pytest.param(name, label, check,
                                   id=f"{name}-{label}-{check}")


@pytest.mark.parametrize("name, label, check", parity_cases())
def test_real_and_ideal_verdicts_agree(name, label, check):
    real, ideal = scripted_verdicts(name, label)
    assert real[check].passed == ideal[check].passed


@pytest.mark.parametrize("name, label", SCRIPTED)
def test_failing_witnesses_replay_on_scripted(name, label):
    scn = harness.protocol(name).canonical_scenario()
    for verdicts in scripted_verdicts(name, label):
        for v in verdicts.values():
            if not v.passed:
                again = checks(name, scn, as_trace(v.witness))[v.name]
                assert not again.passed and again.params == v.params


def test_a_real_deposit_is_answered_as_the_ideal_one_is():
    """The failing deposit's witness carries its answer in both runs: the
    same ``request-queued`` note, which the real client and the interface
    both write."""
    real, ideal = (v["liveness-update"] for v in
                   scripted_verdicts("liquid", "deposit-then-withdraw"))
    assert not real.passed and not ideal.passed
    assert len(real.witness) == len(ideal.witness)
    for witness in (real.witness, ideal.witness):
        assert [ev["t"] for ev in witness[:2]] == ["input", "note"]
        assert witness[1]["kind"] == "request-queued"
    assert real.witness[1]["req"] == ideal.witness[1]["req"] == "deposit"


@pytest.mark.parametrize("name, label", SCRIPTED)
def test_verdicts_ignore_exec_records(name, label):
    # an ideal run is judged by what the environment sees, as a real run
    # is: the interface's exec records serve no request
    scn = harness.protocol(name).canonical_scenario()
    trace = scripted_traces(name, label)[1]
    stripped = as_trace(ev for ev in trace.events if ev.get("t") != "exec")
    assert len(stripped.events) < len(trace.events)
    assert [v.to_record() for v in checks(name, scn, stripped).values()] == \
        [v.to_record() for v in scripted_verdicts(name, label)[1].values()]


@pytest.mark.parametrize("stype", ["bogus", 5, None])
def test_an_unknown_brick_settle_type_is_refused_in_both_runs(stype):
    scn = harness.protocol("brick").canonical_scenario()
    schedule = copy.deepcopy(
        harness.scripted_schedules("brick", scn)["settle-fresh"])
    for step in schedule:
        if step["op"] == "input" and step["entry"]["kind"] == "settle":
            step["entry"]["type"] = stype
    real, ideal, diffs = harness.run_differential("brick", scn, schedule)
    assert diffs == []
    assert [ev["why"] for ev in real.trace.events if ev["t"] == "note"
            and ev["kind"] == "request-refused"] == ["malformed"]
    verdicts = [{k: v.passed for k, v in checks("brick", scn, run.trace).items()}
                for run in (real, ideal)]
    assert verdicts[0] == verdicts[1]


# -- correct initialization on hand-built traces -----------------------------

A, B = f"{CLIENT}:A", f"{CLIENT}:B"
INITIAL = {"bal": {"A": 5, "B": 5}, "seq": 0}


def event(t, party, rnd, step, **fields):
    return {"t": t, "party": party, "round": rnd, "step": step, **fields}


def open_input(party, rnd, step):
    return event("input", party, rnd, step, payload={"kind": "open"})


def open_ok(party, rnd, step):
    return event("output", party, rnd, step,
                 payload={"kind": "open-ok", "state": INITIAL})


def committed(rnd, step, kind, author, body):
    txid = f"tx-{kind}-{author}"
    return [event("ledger-submit", "chain", rnd, step, accepted=True,
                  txid=txid, kind=kind, author=author, body=body),
            event("ledger-commit", "chain", rnd, step, height=1,
                  txids=[txid])]


EMBEDDED = committed(1, 2, "open", A, {"chain": "ch", "state": INITIAL})
JOINED_A = committed(1, 2, "open-commit", A, {"chain": "sc"})
JOINED_B = committed(1, 3, "open-commit", B, {"chain": "sc"})

# label -> (events, indexes of the witness events or None)
INITIALIZATION_CASES = {
    "no-honest-open-request": (
        [*EMBEDDED, open_ok(A, 2, 3)], [2]),
    "request-after-confirmation": (
        [*EMBEDDED, open_ok(A, 2, 3), open_input(A, 3, 4)], [2]),
    "only-a-corrupted-party-requested": (
        [event("corrupt", B, 0, 0), open_input(B, 1, 1), *EMBEDDED,
         open_ok(A, 2, 3)], [4]),
    "initial-state-not-on-chain": (
        [open_input(A, 1, 1), open_ok(A, 2, 2)], [0, 1]),
    "joining-record-missing": (
        [open_input(A, 1, 1), *JOINED_A, open_ok(A, 2, 4)], [0, 3]),
    "anchored-by-embedding": (
        [open_input(A, 1, 1), *EMBEDDED, open_ok(A, 2, 3)], None),
    "anchored-through-joining-records-only": (
        [open_input(A, 1, 1), *JOINED_A, *JOINED_B, open_ok(A, 2, 4)], None),
    # an interface run gets the same input and answers it with a
    # request-queued note, which stands for no request of its own
    "interface-submit-request": (
        [open_input(A, 1, 1),
         event("note", A, 1, 1, kind="request-queued", req="open"),
         *EMBEDDED, open_ok(A, 2, 3)], None),
    "corrupted-confirmation-not-judged": (
        [event("corrupt", A, 0, 0), open_ok(A, 2, 1)], None),
    "vacuous": (
        [open_input(A, 1, 1), *EMBEDDED], None),
}


def failed(reason, witness_len=1):
    return {"record": "verdict", "property": "correct-initialization",
            "pass": False, "vacuous": False, "params": {"reason": reason},
            "witness_len": witness_len}


def passed(n):
    return {"record": "verdict", "property": "correct-initialization",
            "pass": True, "vacuous": n == 0, "params": {"open_outputs": n},
            "witness_len": 0}


# label -> (record, reason the witness fails with on its own, or None)
INITIALIZATION_EXPECTED = {
    "no-honest-open-request": (
        failed("no-honest-open-request"), "no-honest-open-request"),
    "request-after-confirmation": (
        failed("no-honest-open-request"), "no-honest-open-request"),
    "only-a-corrupted-party-requested": (
        failed("no-honest-open-request"), "no-honest-open-request"),
    # the witness carries the request with the confirmation, so on its
    # own it fails for the same reason
    "initial-state-not-on-chain": (
        failed("initial-state-not-on-chain", 2), "initial-state-not-on-chain"),
    "joining-record-missing": (
        failed("initial-state-not-on-chain", 2), "initial-state-not-on-chain"),
    "anchored-by-embedding": (passed(1), None),
    "anchored-through-joining-records-only": (passed(1), None),
    "interface-submit-request": (passed(1), None),
    # a corrupted party's confirmation is neither judged nor counted
    "corrupted-confirmation-not-judged": (passed(0), None),
    "vacuous": (passed(0), None),
}


def test_an_open_is_confirmed_only_on_its_own_partys_request():
    # the liquid open-only run without c2's open input: c1's request does
    # not stand for c2's confirmation
    events = [ev for ev in real_trace("liquid", "open-only").events
              if not (ev["t"] == "input" and ev["party"] == f"{CLIENT}:c2"
                      and ev["payload"]["kind"] == "open")]
    v = check_correct_initialization(as_trace(events))
    assert v.to_record() == failed("no-honest-open-request")
    assert [ev["party"] for ev in v.witness] == [f"{CLIENT}:c2"]
    assert check_correct_initialization(
        real_trace("liquid", "open-only")).to_record() == passed(2)


@pytest.mark.parametrize("label", list(INITIALIZATION_CASES))
def test_correct_initialization_on_hand_built_traces(label):
    events, bad = INITIALIZATION_CASES[label]
    record, replay_reason = INITIALIZATION_EXPECTED[label]
    v = check_correct_initialization(as_trace(events))
    assert v.to_record() == record
    if bad is None:
        assert v.witness == []
        return
    assert v.witness == [events[i] for i in bad]
    again = check_correct_initialization(as_trace(v.witness))
    assert not again.passed
    assert again.params["reason"] == replay_reason


# -- data availability ---------------------------------------------------------


@lru_cache(maxsize=None)
def real_trace(name, label="single-pay"):
    run = harness.RealRun(name)
    harness.apply_schedule(run, harness.scripted_schedules(name, run.scn)[label])
    return run.trace


def tampered(trace):
    """A copy whose last honest read shows a changed last update state."""
    events = copy.deepcopy(trace.events)
    last = [ev for ev in events if ev.get("t") == "output"
            and ev["payload"].get("kind") == "read-result"][-1]
    entry = [e for e in last["payload"]["executed"]
             if e["kind"] == "update"][-1]
    bal = dict(entry["state"]["bal"])
    first = sorted(bal)[0]
    bal[first] += 1
    entry["state"] = dict(entry["state"], bal=bal)
    return as_trace(events)


@pytest.mark.parametrize("name", list(harness.PROTOCOLS))
def test_real_runs_reconstruct(name):
    da = properties.measure_data_availability(real_trace(name))
    assert da.reconstruction_ok
    assert da.detail["per_party_l2"]
    assert da.detail["history_on_chain"] == (name == "arbitrum")
    if name == "arbitrum":
        assert da.g_l2 == 1


@pytest.mark.parametrize("name", list(harness.PROTOCOLS))
def test_a_tampered_state_breaks_reconstruction(name):
    assert not properties.measure_data_availability(
        tampered(real_trace(name))).reconstruction_ok


def spy_replay(monkeypatch) -> list:
    """The views ``properties._replay`` is called on from now on."""
    replayed = []

    def spy(executed, ledger, _fn=properties._replay):
        replayed.append(executed)
        return _fn(executed, ledger)
    monkeypatch.setattr(properties, "_replay", spy)
    return replayed


@pytest.mark.parametrize("name, flavor", CASES)
def test_equal_latest_views_are_replayed_once(name, flavor, monkeypatch):
    replayed = spy_replay(monkeypatch)
    da = properties.measure_data_availability(trace_of(name, flavor))
    assert da.reconstruction_ok
    # both honest clients end on the same whole view
    assert len(replayed) == 1 < len(da.detail["per_party_l2"])


@pytest.mark.parametrize("name", list(harness.PROTOCOLS))
def test_a_tampered_copy_of_an_equal_view_is_replayed(name, monkeypatch):
    replayed = spy_replay(monkeypatch)
    assert properties.measure_data_availability(
        real_trace(name)).reconstruction_ok
    assert len(replayed) == 1
    # the second client's view no longer equals the first's
    del replayed[:]
    assert not properties.measure_data_availability(
        tampered(real_trace(name))).reconstruction_ok
    assert len(replayed) == 2 and replayed[0] != replayed[1]


@pytest.mark.parametrize("name, flavor", CASES)
def test_safety_canonicalizes_each_state_object_once(name, flavor,
                                                      monkeypatch):
    scn, _, _ = lifecycle(name)
    trace = trace_of(name, flavor)
    states = {id(e.get("state")) for v in properties.summarize(trace).views
              for e in v.executed}
    texts = []
    monkeypatch.setattr(properties, "canon",
                        lambda obj, _fn=canon: texts.append(obj) or _fn(obj))
    f = {role: budget for role, _, budget
         in harness.protocol(name).party_roles(scn)}
    assert properties.check_safety(trace, f).passed
    assert 0 < len(texts) <= len(states)
    assert len({id(obj) for obj in texts}) == len(texts)


def test_an_update_of_no_state_does_not_reconstruct():
    # found by tests/test_schema.py: a channel update whose state is null
    # (the table allows it) once ended the replay in a TypeError
    v = opened_read({"kind": UPDATE, "seq": 1, "state": None})
    assert not properties.measure_data_availability(
        as_trace([v])).reconstruction_ok


@pytest.mark.parametrize("entry", [
    {"kind": UPDATE, "seq": 1, "state": {}},
    {"kind": UPDATE, "seq": 1, "state": INITIAL,
     "txs": [{"op": "pay", "from": "A", "to": "B", "amt": 1, "nonce": 1}]},
], ids=["channel-state-without-bal", "txs-on-a-state-without-nonce"])
def test_a_state_lacking_what_its_transition_reads_does_not_reconstruct(entry):
    """A well-formed state that lacks a field its transition reads (a
    channel's ``bal``, an account state's ``nonce``) once ended the replay
    in a KeyError; the replay fails instead."""
    assert not properties.measure_data_availability(
        as_trace([opened_read(entry)])).reconstruction_ok


def test_no_views_means_no_reconstruction():
    da = properties.measure_data_availability(as_trace([]))
    assert not da.reconstruction_ok
    assert (da.g_l2, da.g_l1, da.detail["per_party_l2"]) == (0, 0, {})


# -- trace files ----------------------------------------------------------------


def records(name, trace):
    scn = harness.protocol(name).canonical_scenario()
    out = [[v.to_record(), v.witness] for v in checks(name, scn, trace).values()]
    return canon(out + [properties.measure_data_availability(trace).to_record()])


@pytest.mark.parametrize("name", list(harness.PROTOCOLS))
def test_a_dumped_trace_loads_with_the_same_verdicts(name, tmp_path):
    trace = real_trace(name, "settle-after-traffic")
    path = tmp_path / "run.jsonl"
    trace.dump(path)
    again = Trace.load(path)
    assert again.digest() == trace.digest()
    assert (again.header, again.events, again.complete) == \
        (trace.header, trace.events, trace.complete)
    assert records(name, again) == records(name, trace)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(path.read_text().splitlines(True)[:-1]))
    with pytest.raises(IntegrityError):
        Trace.load(cut)


@pytest.mark.parametrize("field, value", [
    ("complete", "no"), ("complete", 1), ("end", 1.0), ("end", True)])
def test_an_integrity_line_of_the_wrong_types_is_refused(field, value):
    """The digest hashes only whether the trace is complete, and ``1.0 ==
    1``: a loaded trace is complete only when the file says ``true``."""
    trace = Trace()
    trace.events = [event("note", A, 0, 0, kind="tick")]
    *lines, tail = trace.to_text().splitlines()
    tail = canon(dict(json.loads(tail), **{field: value}))
    with pytest.raises(IntegrityError):
        Trace.from_text("\n".join(lines + [tail]) + "\n")


# -- malformed requests ----------------------------------------------------------

def answer(**fields):
    """The note answering A's open submit, with ``fields`` changed."""
    return event("note", A, 0, 0, kind="request-queued", req="open") | fields


# label -> the one event of a trace whose request cannot be decoded
MALFORMED_REQUESTS = {
    "input-payload-int": event("input", A, 0, 0, payload=5),
    "submit-req-int": answer(req=5),
    "submit-req-no-by": {k: v for k, v in answer().items() if k != "party"},
}


@pytest.mark.parametrize("ev", list(MALFORMED_REQUESTS.values()),
                         ids=list(MALFORMED_REQUESTS))
def test_a_malformed_request_is_an_integrity_error(ev):
    with pytest.raises(IntegrityError):
        properties.summarize(as_trace([ev]))
    with pytest.raises(IntegrityError):
        properties.check_correct_settlement(as_trace([ev]))


def opened_read(*entries):
    """A read of A's view: the open of INITIAL, then ``entries``."""
    return event("output", A, 0, 0, payload=read_result(
        0, [{"kind": OPEN, "seq": 0, "state": INITIAL}, *entries], None))


# label -> the one event of a trace that no check can read
MALFORMED_EVENTS = {
    "input-without-party": {"t": "input", "round": 0, "step": 0,
                            "payload": {"kind": "open"}},
    "read-without-party": {"t": "output", "round": 0, "step": 0,
                           "payload": read_result(0, [], None)},
    "confirmation-party-int": event("output", 5, 0, 0,
                                    payload={"kind": "open-ok",
                                             "state": INITIAL}),
    "corrupt-without-party": {"t": "corrupt", "round": 0, "step": 0},
    "request-note-without-party": {"t": "note", "round": 0, "step": 0,
                                   "kind": "request-queued", "req": "pay"},
    "submit-without-txid": event("ledger-submit", "chain", 0, 0,
                                 accepted=True, kind="open", author=A,
                                 body={}),
    "commit-txids-string": event("ledger-commit", "chain", 0, 0, height=1,
                                 txids="tx-open-A"),
    "round-string": event("note", A, "3", 0, kind="tick"),
    "round-none": event("round", "world", None, 0),
    # these once ended a check in a TypeError or AttributeError:
    # diff_outputs sorting party 5 with client:A, update liveness and data
    # availability on the transactions, and settlement on the states
    "submit-req-list": answer(req=[1]),
    "output-party-int": event("output", 5, 0, 0,
                              payload={"kind": "request-result"}),
    "read-txs-int": opened_read({"kind": UPDATE, "seq": 1, "state": INITIAL,
                                 "txs": 5}),
    "read-tx-int": opened_read({"kind": UPDATE, "seq": 1, "state": INITIAL,
                                "txs": [1]}),
    "read-entry-state-list": opened_read({"kind": UPDATE, "seq": 1,
                                          "state": [1]}),
    "settle-ok-state-list": event("output", A, 0, 0,
                                  payload={"kind": "settle-ok", "state": [1]}),
    # these passed the table while it held only a state's type: a string
    # seq ended settlement in a TypeError, and so did an unhashable sender
    # update liveness; a balance holds ints, as the replay sums them
    "read-state-seq-string": opened_read({"kind": UPDATE, "seq": 1,
                                          "state": {"seq": "x"}}),
    "read-tx-from-list": opened_read({"kind": UPDATE, "seq": 1,
                                      "state": INITIAL,
                                      "txs": [{"op": "pay", "from": [1]}]}),
    "settled-bal-string": event("output", A, 0, 0, payload=read_result(
        0, [], {"bal": {"A": "5"}, "seq": 1})),
}

EVERY_CHECK = {
    "correct-initialization": check_correct_initialization,
    "safety": lambda trace: properties.check_safety(trace, 0),
    "liveness": lambda trace: properties.check_liveness(
        trace, UPDATE, {"t_l2": 1, "t_l1": 1}),
    "correct-settlement": properties.check_correct_settlement,
    "data-availability": properties.measure_data_availability,
}


@pytest.mark.parametrize("ev", list(MALFORMED_EVENTS.values()),
                         ids=list(MALFORMED_EVENTS))
@pytest.mark.parametrize("check", list(EVERY_CHECK.values()),
                         ids=list(EVERY_CHECK))
def test_a_malformed_event_is_an_integrity_error(ev, check):
    with pytest.raises(IntegrityError):
        check(as_trace([ev]))


@pytest.mark.parametrize("ev", list(MALFORMED_EVENTS.values()),
                         ids=list(MALFORMED_EVENTS))
def test_a_malformed_event_is_refused_where_it_enters(ev):
    """Wrapped or loaded, the event is refused with its step; the checks
    and the output projection never see it."""
    with pytest.raises(IntegrityError, match="step 0"):
        as_trace([ev])
    trace = Trace()
    trace.events = [ev]
    with pytest.raises(IntegrityError, match="step 0"):
        Trace.from_text(trace.to_text())


def reads_of_a(*at):
    """Reads of A at each (round, step) of ``at``, each showing one more
    update than the one before."""
    return [event("output", A, rnd, step, payload=read_result(
        i, [{"kind": UPDATE, "seq": i + 1, "state": {"seq": i + 1}}], None))
        for i, (rnd, step) in enumerate(at)]


@pytest.mark.parametrize("at", [[(2, 1), (1, 2)], [(1, 5), (1, 3)]],
                         ids=["lower-round", "same-round-lower-step"])
def test_a_read_that_goes_back_in_time_is_refused_where_it_enters(at):
    """A reader's second read before its first, by round or by step within
    a round, is refused with the second read's step, wrapped or loaded."""
    events = reads_of_a(*at)
    step = f"step {at[1][1]}:"
    with pytest.raises(IntegrityError, match=step):
        as_trace(events)
    trace = Trace()
    trace.events = events
    with pytest.raises(IntegrityError, match=step):
        Trace.from_text(trace.to_text())


def test_reads_at_one_time_and_readers_interleaved_still_load():
    """Two reads of one reader may share their (round, step), and the rule
    holds per reader: another reader's read may come earlier in time."""
    events = reads_of_a((1, 4), (1, 4)) + [event(
        "output", B, 0, 0, payload=read_result(0, [], None))]
    trace = Trace()
    trace.events = events
    for loaded in (as_trace(events), Trace.from_text(trace.to_text())):
        views = properties.summarize(loaded).views
        assert [v.party for v in views] == [A, A, B]


@pytest.mark.parametrize("name", sorted(harness.PROTOCOLS))
def test_a_view_holds_its_payloads_own_executed_list(name):
    for label in harness.scripted_schedules(
            name, harness.protocol(name).canonical_scenario()):
        for trace in scripted_traces(name, label):
            s = properties.summarize(trace)
            payloads = [ev["payload"] for ev in trace.events
                        if ev["t"] == "output"
                        and ev["payload"]["kind"] == "read-result"
                        and ev["party"] not in s.corrupted]
            assert len(payloads) == len(s.views)
            assert all(v.delta is p["executed"]
                       for v, p in zip(s.views, payloads))


# an event of each type whose party a walk looks up, without its party
PARTY_EVENTS = {
    "input": {"t": "input", "round": 0, "step": 7, "payload": {"kind": "open"}},
    "read": {"t": "output", "round": 0, "step": 7,
             "payload": read_result(0, [], None)},
    "corrupt": {"t": "corrupt", "round": 0, "step": 7},
    "open-ok": {"t": "output", "round": 0, "step": 7,
                "payload": {"kind": "open-ok", "state": INITIAL}},
}

# entry point -> the events of PARTY_EVENTS it reads the party of
PARTY_READERS = {
    "read_views": (lambda t: properties.summarize(t).views,
                   ("read", "corrupt")),
    "requests": (lambda t: properties.summarize(t).requests,
                 ("input", "corrupt")),
    "corrupted_parties": (lambda t: properties.summarize(t).corrupted,
                          ("corrupt",)),
    "check_correct_initialization": (
        check_correct_initialization, tuple(PARTY_EVENTS)),
    "output_projection": (harness.output_projection, ("read", "open-ok")),
}


@pytest.mark.parametrize("party", [["client:A"], {"client": "A"}],
                         ids=["list", "dict"])
@pytest.mark.parametrize("entry,kind", [
    (entry, kind) for entry, (_, kinds) in PARTY_READERS.items()
    for kind in kinds])
def test_an_unhashable_party_is_an_integrity_error(entry, kind, party):
    """A party that is a list or an object is refused with the step of its
    event, not a ``TypeError``: ``as_trace`` refuses it before the reader
    runs."""
    with pytest.raises(IntegrityError, match="step 7"):
        PARTY_READERS[entry][0](
            as_trace([dict(PARTY_EVENTS[kind], party=party)]))


# -- one summary per trace ----------------------------------------------------------


def test_checks_on_one_trace_share_one_summary(monkeypatch):
    trace = Trace()
    trace.events = copy.deepcopy(real_trace("liquid").events)
    calls = []
    for fn in ("read_views", "requests", "committed_txs"):
        def counted(*args, _fn=getattr(properties, fn), _name=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(properties, fn, counted)
    scn = harness.protocol("liquid").canonical_scenario()
    checks("liquid", scn, trace)
    properties.measure_data_availability(trace)
    assert sorted(calls) == ["committed_txs", "read_views", "requests"]
    # traces are append-only: a longer trace is summarized again
    trace.emit({"t": "note", "party": A, "round": 99, "step": 10 ** 6,
                "kind": "tick"})
    checks("liquid", scn, trace)
    assert len(calls) == 6


def test_a_replaced_events_list_is_summarized_again():
    # same trace object, same event count, other events: the summary of
    # the old list must not be served for the new one
    trace = Trace()
    trace.events = list(real_trace("liquid").events)
    old = properties.summarize(trace)
    trace.events = real_trace("liquid", "client-spam").events[
        :len(trace.events)]
    got = properties.summarize(trace)
    cold = properties.summarize(as_trace(trace.events))
    assert got is not old and got == cold
    assert (got.views, got.corrupted) != (old.views, old.corrupted)


@pytest.mark.parametrize("name", list(harness.PROTOCOLS))
def test_checks_leave_the_summary_unchanged(name):
    trace = real_trace(name, "settle-after-traffic")
    before = copy.deepcopy(properties.summarize(trace))
    checks(name, harness.protocol(name).canonical_scenario(), trace)
    properties.measure_data_availability(trace)
    assert properties.summarize(trace) == before
