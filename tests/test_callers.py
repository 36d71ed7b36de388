"""Every function, class and method under src/l2sim has a caller.

An ``ast`` walk, like ``tests/test_imports.py``: a top-level function or
class, or a method of a top-level class, is dead when its name appears in
``src/`` and ``perfbench/`` nowhere but in its own definition.  A name
counts wherever it is read as a name or an attribute, imported, or
written as a string constant that is a dotted name (the benchmark's
tracer names what it wraps as ``"Class.method"`` strings).  Names resolve
by name alone, so a name used anywhere keeps every definition of it.  Dunder methods are called
by Python itself and are not checked.

``TEST_ONLY`` lists what only the tests call, each with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "l2sim"

# name -> why it stays although only tests call it
TEST_ONLY = {
    "clone": "World.clone: the planned bounded adversary search copies "
             "worlds (ROADMAP.md); tests check the copy is independent",
    "hold_net": "World.hold_net: an adversary hold, for the planned search; "
                "tests check the delta cap",
    "hold": "Ledger.hold: the adversary's hold on a pending transaction, "
            "for the planned search; tests check the liveness cap",
    "dump": "Trace.dump: trace files for the planned CLI; tests round-trip "
            "a trace through it",
    "load": "Trace.load: the reading side of Trace.dump",
    "as_trace": "properties.as_trace: wraps a witness so it can be checked "
                "again, as the properties docstring promises",
    "equivocate": "liquid.equivocate: the below-quorum attack that "
                  "tests/test_liquid.py runs to show what quorum=2 breaks",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def identifiers(tree) -> Counter:
    """Every name, attribute and imported name under ``tree``, and each
    part of a string constant that is a dotted name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            out.update(node.value.split("."))
    return out


def definitions(tree):
    """(name, node) of each top-level function and class, and of each
    method of a top-level class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield node.name, node


def dead_names(defined_sources, using_sources) -> set:
    """Names defined in ``defined_sources`` that no source names outside
    their own definitions."""
    uses = Counter()
    for source in using_sources:
        uses += identifiers(ast.parse(source))
    own = Counter()
    defs = set()
    for source in defined_sources:
        for name, node in definitions(ast.parse(source)):
            if name.startswith("__") and name.endswith("__"):
                continue
            defs.add(name)
            own[name] += identifiers(node)[name]
    return {name for name in defs if uses[name] - own[name] <= 0}


def sources(*dirs):
    return [p.read_text() for d in dirs for p in sorted(d.rglob("*.py"))]


def test_the_caller_check_sees_what_it_looks_for():
    lib = ("def used():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "def named_in_a_string():\n    pass\n"
           "class C:\n"
           "    def method(self):\n        return used()\n"
           "    def __repr__(self):\n        return ''\n")
    user = lib + "SPANS = {'x': ['C.named_in_a_string']}\nC().method()\n"
    assert dead_names([lib], [user]) == {"recursive"}
    assert dead_names([lib], [lib]) == {"recursive", "named_in_a_string",
                                        "C", "method"}


def test_every_definition_has_a_caller_outside_the_tests():
    dead = dead_names(sources(SRC), sources(ROOT / "src", ROOT / "perfbench"))
    assert dead == set(TEST_ONLY)


@pytest.mark.parametrize("name", sorted(TEST_ONLY))
def test_a_test_only_name_is_still_defined_and_tested(name):
    assert name in set().union(*(
        {n for n, _ in definitions(ast.parse(s))} for s in sources(SRC)))
    assert any(identifiers(ast.parse(s))[name]
               for s in sources(ROOT / "tests"))
