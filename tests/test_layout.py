"""Package layout: every top-level definition in ``src/ris_skg`` has a
caller outside the tests, or is exported.

A name counts as used when it appears as a bare name, an attribute, an
imported name or a string constant anywhere in ``src/``, ``perfbench/`` or
``scripts/``; the string case covers the perfbench tracer, which wraps
functions by attribute name.  Code that only the tests call belongs in
``tests/oracles.py``.
"""

import ast
import pathlib

import ris_skg

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _names(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_every_package_definition_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in ("src", "perfbench", "scripts")
             for path in sorted((ROOT / top).rglob("*.py"))}
    used = {_names(node) for tree in trees.values() for node in ast.walk(tree)}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    orphans = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in trees.items() if path.parent.name == "ris_skg"
        for node in tree.body if isinstance(node, defs)
        and node.name not in used and node.name not in ris_skg.__all__)
    assert not orphans, ("defined in src/ris_skg but used only by tests; "
                         f"move them to tests/oracles.py: {orphans}")
