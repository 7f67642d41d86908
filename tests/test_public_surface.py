"""Every public name of the package is used by the package.

The scan is static: each module of src/hexcover is parsed with ast, and a
public function, class or assigned name (no leading underscore) counts as
used when some module loads it other than inside the statement that defines
it; from another module that means importing it with ``from .m import name``
and loading it, or loading ``m.name`` after ``from . import m``.  A name
only the tests need belongs in the tests.

Methods are held to the same rule, by name: a public method, property,
classmethod or staticmethod of a class at module level counts as used when
an attribute of that name is loaded somewhere in the package outside the
method's own def, or in tests/test_acceptance.py, whose tests replay the
published claims.  Dunders are exempt; Python calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hexcover"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


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


def _attribute_loads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load))


def _method_scan():
    """(methods, package_uses, claim_uses): the public methods as
    (module, class, name) with the number of loads of their name inside
    their own def, and the attribute names loaded in the package and in
    the acceptance tests."""
    methods = {}
    package_uses = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        package_uses += _attribute_loads(tree)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("_")):
                    methods[(path.stem, cls.name, stmt.name)] = \
                        _attribute_loads(stmt)[stmt.name]
    claim_uses = _attribute_loads(ast.parse(ACCEPTANCE.read_text("utf-8")))
    return methods, package_uses, claim_uses


def test_every_public_method_is_used_by_the_package_or_a_claim():
    methods, package_uses, claim_uses = _method_scan()
    unused = sorted(f"{m}.{c}.{name}"
                    for (m, c, name), own in methods.items()
                    if package_uses[name] == own and not claim_uses[name])
    assert not unused, f"public methods neither the package nor an " \
        f"acceptance test uses: {unused}"


def test_method_scan_sees_methods_properties_and_claim_uses():
    methods, package_uses, claim_uses = _method_scan()
    # a method, a property and a classmethod the package calls
    for key in (("permgroup", "Permutation", "cycles"),
                ("lattice", "LatticeBasis", "rank"),
                ("permgroup", "Permutation", "identity")):
        assert key in methods and package_uses[key[2]] > methods[key]
    # a classmethod only the published claims call
    assert ("permgroup", "Permutation", "from_cycles") in methods
    assert not package_uses["from_cycles"] and claim_uses["from_cycles"]
