"""Every public function and method of the package has a caller, and reads
every parameter it takes."""

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


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_named_outside_its_def():
    trees = _trees()
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


def test_every_public_function_reads_each_parameter():
    unread = []
    for fname, tree in _trees().items():
        for d in _public_defs(tree):
            a = d.args
            params = a.posonlyargs + a.args + a.kwonlyargs \
                + [v for v in (a.vararg, a.kwarg) if v]
            read = {n.id for n in ast.walk(d) if isinstance(n, ast.Name)}
            unread += [f"{fname}:{d.lineno} {d.name}({p.arg})"
                       for p in params if p.arg not in read]
    assert not unread


def _dataclass_fields(tree):
    """(class, field) of every annotated field of a module's dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            yield from ((node.name, f.target.id) for f in node.body
                        if isinstance(f, ast.AnnAssign))


def test_every_dataclass_field_is_read():
    # a field that no module or test reads as an attribute is state that
    # is built and carried for nothing
    src = _trees()
    trees = list(src.values()) + [
        ast.parse(p.read_text())
        for p in sorted(Path(__file__).parent.glob("*.py"))]
    read = {n.attr for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{fname}: {cls}.{name}"
              for fname, tree in src.items()
              for cls, name in _dataclass_fields(tree) if name not in read]
    assert not unread
