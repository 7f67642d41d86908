"""The package computes in exact arithmetic only: no floating point.

A static scan of src/hexcover with ast.  It rejects float and complex
literals, calls to float, complex and round, imports of cmath and decimal,
and math.isclose, math.sqrt and math.pi, whether loaded as ``math.name`` or
imported with ``from math import name``.  Strings and docstrings are not
literals of a number, so prose about floats passes.
"""

import ast
from pathlib import Path

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
