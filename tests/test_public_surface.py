"""Every public name of the package is used by the package.

The scan is static: each module of src/hexcover is parsed with ast, and a
public function, class or assigned name (no leading underscore) counts as
used when some module loads it other than inside the statement that defines
it; from another module that means importing it with ``from .m import name``
and loading it, or loading ``m.name`` after ``from . import m``.  A name
only the tests need belongs in the tests.

Methods are held to the same rule: a public method, property, classmethod
or staticmethod of a class C at module level counts as used when an
attribute of its name is loaded somewhere in the package outside the
method's own def, or in tests/test_acceptance.py, whose tests replay the
published claims.  A load whose receiver is a package class, ``D.name``,
counts for D's method only; any other receiver, ``x.name``, counts for
every method of that name.  Dunders are exempt; Python calls them.
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


def _attribute_loads(node, classes) -> Counter:
    """Attribute loads in node, keyed (D, name) when the receiver is the
    name of a class D in classes, and (None, name) otherwise."""
    return Counter(
        (n.value.id if isinstance(n.value, ast.Name)
         and n.value.id in classes else None, n.attr)
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _loads(counter, cls, name) -> int:
    """The loads in counter that can reach method name of class cls."""
    return counter[(cls, name)] + counter[(None, name)]


def _method_scan(sources=None, claims=None):
    """(methods, package_uses, claim_uses): the public methods as
    (module, class, name) with the attribute loads inside their own def,
    and the attribute loads in the package and in the acceptance tests,
    keyed as _attribute_loads keys them.  sources maps module names to
    their text and claims is the text of the claim tests; they default to
    src/hexcover and tests/test_acceptance.py."""
    if sources is None:
        sources = {p.stem: p.read_text("utf-8")
                   for p in sorted(PACKAGE.glob("*.py"))}
    if claims is None:
        claims = ACCEPTANCE.read_text("utf-8")
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = {cls.name for tree in trees.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef)}
    methods = {}
    package_uses = Counter()
    for module, tree in trees.items():
        package_uses += _attribute_loads(tree, classes)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("_")):
                    methods[(module, cls.name, stmt.name)] = \
                        _attribute_loads(stmt, classes)
    claim_uses = _attribute_loads(ast.parse(claims), classes)
    return methods, package_uses, claim_uses


def _unused_methods(methods, package_uses, claim_uses):
    return sorted(f"{m}.{c}.{name}"
                  for (m, c, name), own in methods.items()
                  if _loads(package_uses, c, name) == _loads(own, c, name)
                  and not _loads(claim_uses, c, name))


def test_every_public_method_is_used_by_the_package_or_a_claim():
    unused = _unused_methods(*_method_scan())
    assert not unused, f"public methods neither the package nor an " \
        f"acceptance test uses: {unused}"


def test_method_scan_sees_methods_properties_and_claim_uses():
    methods, package_uses, claim_uses = _method_scan()
    # a method, a property and a classmethod the package calls
    for key in (("permgroup", "Permutation", "cycles"),
                ("appell_humbert", "LineBundleClass", "lattice"),
                ("permgroup", "Permutation", "identity")):
        _, cls, name = key
        assert key in methods
        assert _loads(package_uses, cls, name) > _loads(methods[key], cls,
                                                        name)
    # a method only the published claims call
    assert ("appell_humbert", "Semicharacter", "eval") in methods
    assert not _loads(package_uses, "Semicharacter", "eval")
    assert _loads(claim_uses, "Semicharacter", "eval")


def test_method_scan_resolves_class_receivers():
    # Permutation.identity is loaded; AffineSymmetry.identity shares the
    # name but is never loaded, and only the class receiver tells them apart
    sources = {
        "permgroup": (
            "class Permutation:\n"
            "    @classmethod\n"
            "    def identity(cls, degree):\n"
            "        return cls(range(1, degree + 1))\n"
            "\n"
            "def trivial(degree):\n"
            "    return Permutation.identity(degree)\n"),
        "symmetry": (
            "class AffineSymmetry:\n"
            "    @classmethod\n"
            "    def identity(cls):\n"
            "        return cls()\n"
            "\n"
            "    def apply(self, v):\n"
            "        return v\n"
            "\n"
            "def move(g, v):\n"
            "    return g.apply(v)\n"),
    }
    scan = _method_scan(sources, claims="")
    assert _unused_methods(*scan) == ["symmetry.AffineSymmetry.identity"]
    # the same load through an instance reaches both, as before
    sources["permgroup"] = sources["permgroup"].replace(
        "Permutation.identity(degree)", "p.identity(degree)")
    assert _unused_methods(*_method_scan(sources, claims="")) == []


def test_only_the_immutable_base_defines_setattr():
    # the value types share one __setattr__, eisenstein._Immutable's
    defining = sorted(
        f"{path.stem}.{cls.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__setattr__")
    assert defining == ["eisenstein._Immutable"]


def test_value_types_compare_by_their_key():
    # equality and hashing are eisenstein._Immutable's, by the _key each
    # value type declares; only EisRat, equal to ints and Fractions too,
    # and AmbientVector, the key of the coords_in memo, keep their own
    defining, keyed, unkeyed = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            name = f"{path.stem}.{cls.name}"
            if any(isinstance(stmt, ast.FunctionDef)
                   and stmt.name in ("__eq__", "__hash__")
                   for stmt in cls.body):
                defining.append(name)
            elif any(isinstance(base, ast.Name) and base.id == "_Immutable"
                     for base in cls.bases):
                sets_key = any(
                    isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "_key"
                            for t in stmt.targets)
                    for stmt in cls.body)
                (keyed if sets_key else unkeyed).append(name)
    assert sorted(defining) == ["eisenstein.EisRat",
                                     "eisenstein._Immutable",
                                     "lattice.AmbientVector"]
    assert unkeyed == []
    # the thirteen value types, less EisRat and AmbientVector
    assert len(keyed) == 11
