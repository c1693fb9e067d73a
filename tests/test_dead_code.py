"""Every public function and method of the package has a caller."""

import ast
from collections import Counter
from pathlib import Path

import microloc

SRC = Path(microloc.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
# public entry points that no experiment calls
ENTRY_POINTS = {"load_array"}


def _names(tree) -> Counter:
    """Identifiers read in a tree: bare names and attribute names."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_defs(tree):
    """Public module-level functions and public methods of module classes."""
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                yield d


def test_every_public_function_is_named_outside_its_def():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    named = sum((_names(t) for t in trees.values()), Counter())
    acceptance = set(_names(ast.parse(ACCEPTANCE.read_text())))
    defined, uncalled = set(), []
    for fname, tree in trees.items():
        for d in _public_defs(tree):
            defined.add(d.name)
            outside = named[d.name] - _names(d)[d.name]
            if outside <= 0 and d.name not in acceptance | ENTRY_POINTS:
                uncalled.append(f"{fname}:{d.lineno} {d.name}")
    assert not uncalled
    assert ENTRY_POINTS <= defined
