"""The package computes in exact arithmetic only: no floating point.

A static scan of src/hexcover with ast.  It rejects float and complex
literals, calls to float, complex and round, imports of cmath and decimal,
and math.isclose, math.sqrt and math.pi, whether loaded as ``math.name`` or
imported with ``from math import name``.  Strings and docstrings are not
literals of a number, so prose about floats passes.

The scan cannot see a float made at run time, such as int / int, so a
second test walks every value verify-all computes, and the catalog's
objects with the caches the run fills, and finds only ints, Fractions,
bools, strings and None.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

from hexcover import catalog, cli
from hexcover.eisenstein import EisRat, _Immutable

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hexcover"

FLOAT_CALLS = {"float", "complex", "round"}
FLOAT_MODULES = {"cmath", "decimal"}
FLOAT_MATH = {"isclose", "sqrt", "pi"}


def _float_uses(tree):
    """(line, what) for each floating-point construct in the tree."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and type(node.value) in (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in FLOAT_CALLS):
            found.append((node.lineno, f"call to {node.func.id}"))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, f"import {a.name}") for a in node.names
                         if a.name.split(".")[0] in FLOAT_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in FLOAT_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
            elif node.module == "math":
                found.extend((node.lineno, f"math.{a.name}")
                             for a in node.names if a.name in FLOAT_MATH)
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math" and node.attr in FLOAT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_package_has_no_floating_point():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _float_uses(ast.parse(path.read_text("utf-8")))]
    assert not found, f"floating point in the package: {found}"


def test_scan_sees_each_kind_of_floating_point():
    source = "\n".join([
        "x = 0.5", "y = 2j", "z = float(1)", "w = round(x)",
        "import cmath", "from decimal import Decimal",
        "import math", "r = math.sqrt(2)", "from math import pi",
        "from math import lcm", "s = 'no float 0.5 here'",
    ])
    found = _float_uses(ast.parse(source))
    assert sorted(line for line, _ in found) == [1, 2, 3, 4, 5, 6, 8, 9]


EXACT = (int, Fraction, bool, str, type(None))


def _leaves(value, seen):
    """Every value reachable from value that is not a list, tuple, set or
    dict, or one of the package's value types, whose slots are walked;
    each object is visited once."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        for x in value:
            yield from _leaves(x, seen)
    elif isinstance(value, dict):
        for k, x in value.items():
            yield from _leaves(k, seen)
            yield from _leaves(x, seen)
    elif isinstance(value, _Immutable):
        for cls in type(value).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                yield from _leaves(getattr(value, slot), seen)
    else:
        yield value


def _inexact(*values):
    seen = set()
    return [x for v in values for x in _leaves(v, seen)
            if type(x) not in EXACT]


def test_verify_all_computes_no_float(capsys):
    sections = cli._COMMANDS["verify-all"][1]
    rows = cli._build_rows(sections, 3)
    assert cli.main(["verify-all", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["checks"]
    assert len(report) == len(rows)
    # the run has filled the catalog lattices' coords_in, im_on_lattice and
    # pullback caches, so walking the catalog reaches their values too
    package = [v for v in vars(catalog).values()
               if isinstance(v, (_Immutable, tuple))]
    assert _inexact(rows, report, package) == []
    kinds = {type(x) for x in _leaves(package, set())}
    assert {int, Fraction} <= kinds


def test_walk_finds_a_float_in_a_value_type():
    x = EisRat(1, Fraction(1, 2))
    object.__setattr__(x, "b", 0.5)
    assert _inexact([(EisRat(3), {"k": x})]) == [0.5]
    assert _inexact({"k": [1, Fraction(1, 3), 2j]}) == [2j]
