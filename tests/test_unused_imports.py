"""Every name a module of the package, of its tests or of its scripts
imports is used in that module, every module-level private name, and
every public function and class, of the package is referenced somewhere,
and no module of the package uses the builtin ``sum``.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  ``__init__.py`` re-imports nothing: it maps
each export to its module and loads it on first read, and
``tests/test_lazy_import.py`` checks that map, so the import check skips
it.  Names in string annotations count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ammlab"
#: Where every import must be used: the package, its tests and the scripts.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    p for d in ("tests", "scripts") for p in (ROOT / d).glob("*.py")
)
#: Where a private name of the package may be referenced: the package, its
#: tests, the scripts and the benchmark harness.
SOURCES = sorted(
    p for d in ("src", "tests", "scripts", "ammbench") for p in (ROOT / d).rglob("*.py")
)


def _imported(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _module_id(path):
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused


def test_an_unused_import_is_found():
    tree = ast.parse("from typing import Optional, Tuple\n\ndef f(a: 'Tuple[int]'): pass\n")
    assert set(_imported(tree)) - _used(tree) == {"Optional"}


def _private_definitions(tree):
    """``(name, line)`` of each private, non-dunder name a module defines at
    its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """Every name a module reads: loaded names, attributes, imported names,
    and string constants (``monkeypatch`` targets, tracing sites)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_private_name_is_referenced():
    referenced = set().union(*(_references(ast.parse(p.read_text())) for p in SOURCES))
    unreferenced = sorted(
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _private_definitions(ast.parse(path.read_text()))
        if name not in referenced
    )
    assert not unreferenced


def _public_definitions(tree):
    """``(index, name, line)`` of each public function and class a module
    defines at its top level."""
    for k, node in enumerate(tree.body):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield k, node.name, node.lineno


def test_every_public_name_is_referenced():
    # a reference inside the name's own definition (a recursive call, a
    # method's annotation of its class) does not count
    trees = {p: ast.parse(p.read_text()) for p in SOURCES}
    refs = {p: _references(tree) for p, tree in trees.items()}
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        parts = [_references(node) for node in trees[path].body]
        for k, name, line in _public_definitions(trees[path]):
            if name not in elsewhere and not any(
                    name in refs for j, refs in enumerate(parts) if j != k):
                unreferenced.append(f"{path.name}:{line} {name}")
    assert not unreferenced


def _sum_uses(tree):
    """Lines that read the name ``sum``: a call of the builtin, or the builtin
    passed on as a function."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)]


def test_no_builtin_sum():
    # since Python 3.12 sum() compensates float rounding, so a float total
    # built with it would differ from one interpreter to the next; the
    # package adds floats left to right in loops (core._totals)
    uses = sorted(
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _sum_uses(ast.parse(path.read_text()))
    )
    assert not uses


def test_a_builtin_sum_is_found():
    tree = ast.parse("t = 0\nfor v in vs:\n    t += v\nu = sum(vs)\nw = map(sum, vss)\nm = math.fsum(vs)\n")
    assert _sum_uses(tree) == [4, 5]
