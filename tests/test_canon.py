"""``trace.canon`` is the text of ``json.JSONEncoder(sort_keys=True,
separators=(",", ":")).encode``, from a C encoder built once at import.

The texts are compared on every event, real and ideal, of every table
schedule (the scripted suite and the golden lifecycles of
``tests/test_golden.py``) and on edge values.  The encoder keeps one
circular-reference guard across calls, so an encoding error must leave it
empty: a later call must give the right text.  Without the C encoder the
module falls back to ``JSONEncoder.encode``, decided at import.
"""

import importlib.util
import json
from collections import OrderedDict

import pytest

from l2sim import harness, trace
from l2sim.harness import ScheduleError, lifecycle_schedule, scripted_schedules
from l2sim.trace import canon

REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Sub(dict):
    pass


EDGES = [
    "plain", "héllo ☃ \U0001F600", "\x00\n\"\\/\t", "", 1, True,
    False, None, 0, -7, 2 ** 80, [1, True, 1.0], {"a": 1, "b": True},
    -0.0, 0.1, 1e300, 5e-324, float("nan"), float("inf"), float("-inf"),
    {2: "b", 1: "a", -3: "c"}, {True: 1, False: 2, 3: 0}, (1, (2, [3])), (),
    {"z": (), "a": ("x",)}, Sub(b=Sub(), a=[Sub(c=1)]),
    OrderedDict([("b", 1), ("a", 2)]), [[]], {}, [{}, [{}]],
    {"é": 1, "e": 2, "\U0001F600": 3},
]


@pytest.mark.parametrize("name", list(harness.PROTOCOLS))
def test_canon_is_the_reference_text_of_every_table_event(name):
    scn = harness.protocol(name).canonical_scenario()
    schedules = list(scripted_schedules(name, scn).values()) + [
        lifecycle_schedule(name, scn, seed, pays=10, adversarial=adversarial)
        for seed in (1, 2, 3) for adversarial in (False, True)]
    for schedule in schedules:
        real, ideal, _ = harness.run_differential(name, scn, schedule)
        for run in (real, ideal):
            for ev in [run.trace.header, *run.trace.events]:
                assert canon(ev) == REFERENCE(ev)


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_canon_is_the_reference_text_of_an_edge_value(value):
    assert canon(value) == REFERENCE(value)
    assert canon([value, {"k": value}]) == REFERENCE([value, {"k": value}])


def test_a_bool_is_no_int():
    assert (canon(1), canon(True), canon([1]), canon([True])) == \
        ("1", "true", "[1]", "[true]")


def test_the_c_encoder_is_built_once():
    assert isinstance(trace._CHUNKS, json.encoder.c_make_encoder)


def test_an_error_leaves_the_guard_empty():
    bad = [[1], {"x": object()}]
    for _ in range(2):        # a guard left dirty would say "circular" now
        with pytest.raises(TypeError):
            canon(bad)
        assert trace._MARKERS == {}
    assert canon(bad[:1]) == "[[1]]" and canon(bad[0]) == "[1]"
    loop = {"a": [1]}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular"):
        canon(loop)
    assert trace._MARKERS == {}
    loop["a"].pop()
    assert canon(loop) == '{"a":[1]}'


def test_an_unencodable_input_is_still_a_schedule_error():
    scn = harness.protocol("brick").canonical_scenario()
    loop = {}
    loop["self"] = loop
    for payload in ({"kind": "open", "body": [object()]}, loop):
        with pytest.raises(ScheduleError, match="cannot go into a trace"):
            harness.run_differential("brick", scn, [
                {"op": "raw-trigger", "payload": payload}])
        assert trace._MARKERS == {}


def test_without_the_c_encoder_canon_is_json_encode(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    spec = importlib.util.spec_from_file_location("trace_without_c",
                                                  trace.__file__)
    bare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bare)
    assert not isinstance(bare._CHUNKS, type(trace._CHUNKS))
    for value in EDGES:
        assert bare.canon(value) == REFERENCE(value)
    with pytest.raises(TypeError):
        bare.canon([object()])
    assert bare.digest({"a": [1]}) == trace.digest({"a": [1]})
