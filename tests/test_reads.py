"""Delta reads: each read-result carries only what its reader has not seen.

A read's ``base`` is the longest common prefix of its reader's previous
view and this one, ``executed`` the entries after it and ``settled`` the
settled state or None.  Random per-party view sequences (extended,
repeated, truncated, forked and settled) are encoded by that rule:
``properties.read_views`` must rebuild every whole view, and two
encodings must project equal exactly when their whole views are equal.
On honest lifecycles each party receives each executed entry once.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from l2sim import harness
from l2sim.core import CLIENT, OPEN, UPDATE, read_result, settled_entry
from l2sim.properties import (as_trace, check_correct_settlement,
                              check_safety, measure_data_availability,
                              summarize)
from l2sim.trace import IntegrityError

PARTIES = [f"{CLIENT}:p{i}" for i in range(3)]
ENTRIES = [{"kind": OPEN if i == 0 else UPDATE, "seq": i,
            "state": {"seq": i, "tag": tag}}
           for i in range(3) for tag in "ab"]
SETTLED = [{"seq": 9, "tag": tag} for tag in "ab"]

entry = st.sampled_from(ENTRIES)


@st.composite
def view_sequences(draw):
    """One party's whole views: (entries, settled state or None) pairs."""
    views, entries, settled = [], [], None
    for op in draw(st.lists(st.sampled_from(
            ["extend", "repeat", "truncate", "fork", "settle"]),
            min_size=1, max_size=6)):
        if op == "extend":
            entries = entries + draw(st.lists(entry, min_size=1, max_size=3))
        elif op == "truncate":
            entries = entries[:draw(st.integers(0, len(entries)))]
        elif op == "fork":
            entries = (entries[:draw(st.integers(0, len(entries)))]
                       + draw(st.lists(entry, min_size=1, max_size=2)))
        elif op == "settle":
            settled = draw(st.sampled_from(SETTLED))
        views.append((entries, settled))
    return views


@st.composite
def histories(draw):
    """{party: whole views} for 1-3 parties."""
    parties = PARTIES[:draw(st.integers(1, len(PARTIES)))]
    return {p: draw(view_sequences()) for p in parties}


def common_prefix(a, b):
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


def encode(history, order):
    """Read events for ``history``, parties interleaved as ``order`` says."""
    queues = {p: list(vs) for p, vs in history.items()}
    shown, events = {}, []
    for step, party in enumerate(order):
        entries, settled = queues[party].pop(0)
        base = common_prefix(shown.get(party, []), entries)
        shown[party] = entries
        events.append({"t": "output", "party": party, "round": step,
                       "step": step,
                       "payload": read_result(base, entries[base:], settled)})
    return as_trace(events)


def whole(entries, settled):
    return entries + ([settled_entry(settled)] if settled is not None else [])


@st.composite
def encoded(draw, history=None):
    if history is None:
        history = draw(histories())
    order = draw(st.permutations([p for p, vs in history.items() for _ in vs]))
    return history, order, encode(history, order)


@settings(max_examples=300, deadline=None)
@given(encoded())
def test_read_views_rebuild_every_whole_view(case):
    history, order, trace = case
    queues = {p: list(vs) for p, vs in history.items()}
    want = [(p, whole(*queues[p].pop(0))) for p in order]
    assert [(v.party, v.executed) for v in summarize(trace).views] == want
    # a party's first read starts from nothing known
    firsts = {}
    for ev in trace.events:
        firsts.setdefault(ev["party"], ev["payload"])
    assert all(p["base"] == 0 for p in firsts.values())


@st.composite
def history_pairs(draw):
    """Two histories over the same parties: equal, or one view changed.

    A change drops the first entries of a view and of every later view of
    its party (often the same deltas on other bases), swaps the view's
    settled state, or redraws the view."""
    a = draw(histories())
    b = {p: list(vs) for p, vs in a.items()}
    change = draw(st.sampled_from([None, "drop", "settle", "redraw"]))
    if change is not None:
        views = b[draw(st.sampled_from(sorted(b)))]
        i = draw(st.integers(0, len(views) - 1))
        entries, settled = views[i]
        if change == "drop":
            k = draw(st.integers(0, len(entries)))
            views[i:] = [(e[k:], s) for e, s in views[i:]]
        elif change == "settle":
            views[i] = (entries, draw(st.sampled_from([None] + SETTLED)))
        else:
            views[i] = (draw(st.lists(entry, max_size=3)), settled)
    return a, b


@settings(max_examples=300, deadline=None)
@given(history_pairs(), st.data())
def test_projections_equal_exactly_when_whole_views_are(pair, data):
    a, b = pair
    _, _, ta = data.draw(encoded(a))
    _, _, tb = data.draw(encoded(b))
    same = ({p: [whole(*v) for v in vs] for p, vs in a.items()}
            == {p: [whole(*v) for v in vs] for p, vs in b.items()})
    assert (harness.output_projection(ta)
            == harness.output_projection(tb)) == same


def test_a_base_beyond_the_previous_view_is_an_integrity_error():
    events = encode({PARTIES[0]: [(ENTRIES[:2], None)]}, [PARTIES[0]]).events
    events[0]["payload"]["base"] = 1          # nothing was shown before
    with pytest.raises(IntegrityError):
        summarize(as_trace(events)).views
    with pytest.raises(IntegrityError):
        check_safety(as_trace(events), {CLIENT: 0})


# label -> (payload field, value) that no read may carry; field None for
# a payload that is not an object
MALFORMED = {"base-str": ("base", "x"), "base-bool": ("base", True),
             "executed-int": ("executed", 5),
             "executed-str-entry": ("executed", ["x"]),
             "settled-str": ("settled", "x"), "payload-list": (None, ["x"])}


@pytest.mark.parametrize("field, value", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_a_malformed_read_is_an_integrity_error(field, value):
    history = {PARTIES[0]: [(ENTRIES[:2], None), (ENTRIES[:4], None)]}
    events = encode(history, [PARTIES[0]] * 2).events
    if field is None:
        events[1]["payload"] = value
    else:
        events[1]["payload"][field] = value
    for check in (summarize, check_correct_settlement,
                  measure_data_availability):
        with pytest.raises(IntegrityError):
            check(as_trace(events))


@pytest.mark.parametrize("name", sorted(harness.PROTOCOLS))
def test_each_party_receives_each_entry_once(name):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, 1, pays=40)
    real, ideal, diff = harness.run_differential(name, scn, schedule)
    assert diff == []
    for run in (real, ideal):
        last = {v.party: v.executed for v in summarize(run.trace).views}
        received = Counter()
        for ev in run.trace.events:
            if ev["t"] == "output" and ev["payload"]["kind"] == "read-result":
                received[ev["party"]] += len(ev["payload"]["executed"])
        assert set(received) == set(last) == {f"{CLIENT}:{c}"
                                              for c in scn["clients"]}
        for party, n in received.items():
            assert 10 <= n <= len(last[party])
