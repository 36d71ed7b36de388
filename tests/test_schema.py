"""The event schema: what a run emits fits ``trace.EVENT``, and what the
table refuses is what a check could not read.

The guard holds every event of the scripted schedules and of the golden
lifecycles, real and ideal, and every failing verdict's witness, to the
table, and each reader's reads there to ``validate_events``' rule that a
read's ``base`` and (round, step) follow its reader's previous read: a
field that a check starts to read has to join the table.  (The
hand-built liveness tables of ``tests/test_properties.py`` replay
witnesses that end in the ``horizon`` marker.)  The mutation
test takes one small scripted real trace per protocol and replaces one
field (of an event, of its payload, of a read's entry, or of an entry's
or a confirmation's state or transaction) by a JSON value of another
type, or deletes it.  Then wrapping and
loading the trace both refuse it, or every check, the output projection
and the diff against the unmutated trace run without an exception.
"""

import copy
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from l2sim import harness
from l2sim.properties import as_trace
from l2sim.trace import IntegrityError, Trace, validate_events

from test_checks import scripted_traces, scripted_verdicts
from test_properties import LIFECYCLE_WITNESSES, SCRIPTED_WITNESSES, all_checks


@lru_cache(maxsize=None)
def lifecycle_runs(name, seed, adversarial):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, seed, pays=10,
                                          adversarial=adversarial)
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    return scn, (real.trace, ideal.trace)


@pytest.mark.parametrize("name, label", list(SCRIPTED_WITNESSES))
def test_scripted_runs_fit_the_table(name, label):
    for trace, verdicts in zip(scripted_traces(name, label),
                               scripted_verdicts(name, label)):
        validate_events(trace.events)
        for v in verdicts.values():
            validate_events(v.witness)


@pytest.mark.parametrize("name, seed, adversarial", list(LIFECYCLE_WITNESSES))
def test_golden_lifecycles_fit_the_table(name, seed, adversarial):
    scn, traces = lifecycle_runs(name, seed, adversarial)
    for trace in traces:
        validate_events(trace.events)
        for v in all_checks(name, scn, trace):
            validate_events(getattr(v, "witness", []))


# -- one field changed ----------------------------------------------------------

MUTATED = {"brick": "unilateral-exit", "liquid": "deposit-then-withdraw",
           "arbitrum": "withdraw-exit"}
VALUES = [None, False, 0, 2.5, "x", [], [1], {}, {"x": 1}]
GONE = object()          # the field is deleted


def field_paths(ev):
    """The paths of the fields of ``ev`` at the table's depth."""
    for key in ev:
        yield (key,)
    p = ev.get("payload")
    if not isinstance(p, dict):
        return
    for field in p:
        yield "payload", field
    for key in ("state", "settled"):
        for field in p.get(key) or {}:
            yield "payload", key, field
    for i, entry in enumerate(p.get("executed", ())):
        for field in entry:
            yield "payload", "executed", i, field
        for field in entry.get("state") or {}:
            yield "payload", "executed", i, "state", field
        for j, tx in enumerate(entry.get("txs", ())):
            for field in tx:
                yield "payload", "executed", i, "txs", j, field


@lru_cache(maxsize=None)
def mutable(name):
    """The trace, and its field paths grouped by event type, payload kind
    and path, read entries' indexes left out: each group is drawn as
    often as any other, so a rare field is drawn as often as a common
    one."""
    scn = harness.protocol(name).canonical_scenario()
    trace = scripted_traces(name, MUTATED[name])[0]
    groups = {}
    for i, ev in enumerate(trace.events):
        for path in field_paths(ev):
            p = ev[path[0]] if len(path) > 1 else {}
            key = (ev["t"], p.get("kind"), *(
                "#" if isinstance(x, int) else x for x in path))
            groups.setdefault(key, []).append((i, path))
    return scn, trace, list(groups.values())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(MUTATED)), st.data())
def test_a_field_of_another_type_is_refused_or_harmless(name, data):
    scn, trace, groups = mutable(name)
    i, path = data.draw(st.sampled_from(data.draw(st.sampled_from(groups))))
    events = list(trace.events)
    events[i] = copy.deepcopy(events[i])
    *way, key = path
    holder = events[i]
    for step in way:
        holder = holder[step]
    value = data.draw(st.sampled_from(
        [GONE] + [v for v in VALUES if type(v) is not type(holder[key])]))
    if value is GONE:
        del holder[key]
    else:
        holder[key] = value
    loaded = Trace()
    loaded.events = events
    try:
        mutated = as_trace(events)
    except IntegrityError:
        with pytest.raises(IntegrityError):
            Trace.from_text(loaded.to_text())
        return
    assert Trace.from_text(loaded.to_text()).events == events
    all_checks(name, scn, mutated)
    harness.output_projection(mutated)
    harness.diff_outputs(mutated, trace)
