"""Every module under src/l2sim uses each name it imports at top level.

No linter is a dependency, so an ``ast`` walk stands in for one: a name
bound by a top-level import must appear as a name somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "l2sim"


def unused_imports(source) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_an_unused_import_is_reported():
    source = ("import json, random\nfrom .accounts import apply_tx, l2_txid\n"
              "l2_txid(random.random())\n")
    assert unused_imports(source) == ["apply_tx", "json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
