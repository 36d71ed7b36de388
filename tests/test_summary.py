"""The trace summary: one walk over the events, views that keep deltas.

``properties.summarize`` walks a trace's events once and hands each
helper the events of its type, so the walk count does not grow with the
number of helpers.  Each read view holds only the entries its read carried
after ``base`` (plus the settled entry); its whole ``executed`` list is
rebuilt on demand and must equal the whole view the reader was shown,
rebuilt here the old way, by copying the kept prefix into every view.
"""

import copy
from functools import lru_cache
from types import SimpleNamespace

import pytest

from l2sim import harness, properties
from l2sim.core import CLIENT, UPDATE, read_result, settled_entry
from l2sim.properties import as_trace
from l2sim.trace import IntegrityError

from test_properties import all_checks


class CountedEvents(list):
    """An events list that counts the walks over it that reach its end."""

    def __init__(self, events):
        super().__init__(events)
        self.walks = 0

    def __iter__(self):
        yield from super().__iter__()
        self.walks += 1


@lru_cache(maxsize=None)
def lifecycle(name):
    """(scenario, real trace, ideal trace) of the seed-1 pays=40 lifecycle."""
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, 1, pays=40)
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    return scn, real.trace, ideal.trace


CASES = [(name, flavor) for name in sorted(harness.PROTOCOLS)
         for flavor in ("real", "ideal")]


def trace_of(name, flavor):
    _, real, ideal = lifecycle(name)
    return real if flavor == "real" else ideal


def reference_whole_views(trace) -> list:
    """Each honest read's whole view: its reader's kept prefix copied
    before the delta, then the settled entry."""
    bad = properties.summarize(trace).corrupted
    shown, out = {}, []
    for ev in trace.events:
        p = ev.get("payload", {})
        if ev.get("t") != "output" or p.get("kind") != "read-result" \
                or ev.get("party") in bad:
            continue
        prev, base = shown.get(ev["party"], []), p.get("base", 0)
        if not 0 <= base <= len(prev):
            raise IntegrityError(f"base {base} of {len(prev)}")
        entries = shown[ev["party"]] = prev[:base] + list(p["executed"])
        if p.get("settled") is not None:
            entries = entries + [settled_entry(p["settled"])]
        out.append(entries)
    return out


@pytest.mark.parametrize("name, flavor", CASES)
def test_one_summary_walks_the_events_once(name, flavor):
    scn, _, _ = lifecycle(name)
    events = CountedEvents(trace_of(name, flavor).events)
    trace = SimpleNamespace(events=events)
    properties.summarize(trace)
    assert events.walks == 1
    # the checks read the summary, never the events
    all_checks(name, scn, trace)
    assert events.walks == 1


@pytest.mark.parametrize("name, flavor", CASES)
def test_views_hold_only_their_deltas(name, flavor):
    trace = trace_of(name, flavor)
    s = properties.summarize(as_trace(trace.events))
    reads = [ev["payload"] for ev in trace.events if ev["t"] == "output"
             and ev["payload"]["kind"] == "read-result"
             and ev["party"] not in s.corrupted]
    carried = sum(len(p["executed"]) + (p["settled"] is not None)
                  for p in reads)
    assert len(s.views) == len(reads)
    assert all("executed" not in vars(v) for v in s.views)
    assert sum(len(v.delta) + (v.settled is not None)
               for v in s.views) == carried
    whole = [v.executed for v in s.views]
    assert whole == reference_whole_views(trace)
    # a whole view is far larger than what its read carried
    assert sum(map(len, whole)) > 4 * carried


def long_reader_trace(reads):
    """One reader shown one more update on each of ``reads`` reads, the
    last read settled."""
    events = []
    for i in range(reads):
        entry = {"kind": UPDATE, "seq": i + 1, "state": {"seq": i + 1}}
        settled = {"seq": i + 1} if i == reads - 1 else None
        events.append({"t": "output", "party": f"{CLIENT}:A", "round": i,
                       "step": i, "payload": read_result(i, [entry], settled)})
    return as_trace(events)


def test_a_long_reader_copies_and_compares_without_recursing_per_read():
    reads = 3000                       # beyond the default recursion limit
    s = properties.summarize(long_reader_trace(reads))
    again = copy.deepcopy(s)
    assert again == s
    assert again.views[-1].executed == s.views[-1].executed
    assert [e["seq"] for e in s.views[-1].executed] == \
        list(range(1, reads + 1)) + [None]
    assert s.views[-2].after() == s.views[-2].delta
