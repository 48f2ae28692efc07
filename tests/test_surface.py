"""The public surface is what production reaches: every name a production
module exports is used somewhere in production code.  Read from the source
with ast, so nothing is imported.  heisharm.oracles is exempt; it holds the
references the tests compare against."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heisharm"


def _production_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _used(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_reached_by_production_code():
    trees = _production_trees()
    used = _used(trees)
    unreached = sorted(f"{module}:{name}" for module, tree in trees.items()
                       for name in _exported(tree) if name not in used)
    assert unreached == []
