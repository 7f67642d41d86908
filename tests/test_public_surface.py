"""Every public module-level name of the package is used by the package.

The scan is static: each module of src/hexcover is parsed with ast, and a
public function, class or assigned name (no leading underscore) counts as
used when some module loads it other than inside the statement that defines
it; from another module that means importing it with ``from .m import name``
and loading it, or loading ``m.name`` after ``from . import m``.  A name
only the tests need belongs in the tests.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hexcover"


def _defined_names(stmt):
    """Public names bound by one top-level statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [n.id for t in stmt.targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _loaded_names(node):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


def _scan():
    """(definitions, uses): module-qualified public names, and the
    module-qualified names some module loads."""
    trees = {p.stem: ast.parse(p.read_text("utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    definitions = set()
    uses = set()
    for module, tree in trees.items():
        imported = {}  # local name -> (module, name)
        module_aliases = {}  # local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        module_aliases[local] = alias.name
                    else:
                        imported[local] = (node.module, alias.name)
        for stmt in tree.body:
            own = _defined_names(stmt)
            definitions.update((module, name) for name in own)
            for n in _loaded_names(stmt):
                if n.id in imported:
                    uses.add(imported[n.id])
                elif n.id not in own:
                    uses.add((module, n.id))
            for n in ast.walk(stmt):
                if (isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id in module_aliases):
                    uses.add((module_aliases[n.value.id], n.attr))
    return definitions, uses


def test_every_public_name_is_used_by_the_package():
    definitions, uses = _scan()
    unused = sorted(f"{m}.{name}" for m, name in definitions - uses)
    assert not unused, f"public names no package code uses: {unused}"


def test_scan_sees_definitions_and_cross_module_uses():
    definitions, uses = _scan()
    # a class, a function and a constant, each used from another module
    for name in (("eisenstein", "EisRat"), ("lattice", "coords_in"),
                 ("catalog", "COVER_LATTICE")):
        assert name in definitions and name in uses
