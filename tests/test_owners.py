"""Each shared trace rule is written in one place.

An ``ast`` walk over the sources, like ``tests/test_imports.py``: in
``properties`` only the builders of the trace summary read a trace's
``.events``, and under ``src/l2sim`` one function builds the settled entry
``{"kind": SETTLEMENT, "seq": None, "state": ...}`` of read results.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "l2sim"

SUMMARY_BUILDERS = {"summarize", "corrupted_parties", "read_views",
                    "requests", "committed_txs"}


def functions_where(source, found) -> set:
    """Names of the top-level functions (or classes) holding a node for
    which ``found`` is true."""
    out = set()
    for top in ast.parse(source).body:
        if any(found(node) for node in ast.walk(top)):
            out.add(getattr(top, "name", "<module>"))
    return out


def reads_events(node):
    return isinstance(node, ast.Attribute) and node.attr == "events"


def is_settled_entry(node):
    if not isinstance(node, ast.Dict):
        return False
    fields = {k.value: v for k, v in zip(node.keys, node.values)
              if isinstance(k, ast.Constant)}
    kind = fields.get("kind")
    return set(fields) == {"kind", "seq", "state"} \
        and isinstance(fields["seq"], ast.Constant) \
        and fields["seq"].value is None \
        and (isinstance(kind, ast.Name) and kind.id == "SETTLEMENT"
             or isinstance(kind, ast.Constant) and kind.value == "settlement")


def test_the_guards_see_what_they_look_for():
    source = ("def a(t):\n    return t.events\n"
              "def b(s):\n    return {'kind': SETTLEMENT, 'seq': None, "
              "'state': s}\n"
              "def c(s):\n    return {'kind': 'update', 'seq': None, "
              "'state': s}\n")
    assert functions_where(source, reads_events) == {"a"}
    assert functions_where(source, is_settled_entry) == {"b"}


def test_only_the_summary_builders_read_events():
    source = (SRC / "properties.py").read_text()
    assert functions_where(source, reads_events) <= SUMMARY_BUILDERS


def test_one_function_builds_the_settled_entry():
    owners = [(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in functions_where(path.read_text(), is_settled_entry)]
    assert owners == [("core.py", "settled_entry")]
