"""Independent cross-checks used by the test suite.

Everything here is deliberately written without the package under test:
floating-point embeddings, sympy linear algebra, and brute-force loops.
"""

import cmath
import math
from fractions import Fraction

import sympy

ZETA_C = complex(0.5, math.sqrt(3) / 2)
ROOT3 = math.sqrt(3)


def to_complex(x) -> complex:
    """Numeric embedding of an (a, b) pair or EisRat-like object."""
    return float(x.a) + float(x.b) * ZETA_C


def reim_to_complex(r) -> complex:
    return complex(float(r.re_coeff) / ROOT3, float(r.im))


def close(x: complex, y: complex, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * (1 + abs(x) + abs(y))


def sympy_det(rows) -> Fraction:
    """Exact determinant of a rational matrix via sympy."""
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return Fraction(str(m.det()))


def sympy_solve_integral(basis_rows, target) -> bool:
    """True iff target is an integer combination of the basis rows."""
    a = sympy.Matrix([[sympy.Rational(x) for x in row] for row in basis_rows]).T
    b = sympy.Matrix([sympy.Rational(x) for x in target])
    sol = a.solve(b)
    return all(s.is_integer for s in sol)


def sympy_coords(basis_rows, target):
    """Coordinates of target in the span of the (independent) basis rows,
    or None when target lies outside that span."""
    a = sympy.Matrix([[sympy.Rational(x) for x in row] for row in basis_rows]).T
    b = sympy.Matrix([sympy.Rational(x) for x in target])
    try:
        sol, _ = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    return tuple(Fraction(str(x)) for x in sol)


def pfaffian4_from_upper(upper):
    """Three-term pfaffian of a 4x4 alternating matrix given its upper
    triangle (E12, E13, E14, E23, E24, E34)."""
    e12, e13, e14, e23, e24, e34 = upper
    return e12 * e34 - e13 * e24 + e14 * e23


def alternating_value(upper, n, m):
    """Bilinear extension of the alternating form with the given upper
    triangle to integer coordinate vectors n, m (length 4)."""
    mat = [[0] * 4 for _ in range(4)]
    idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (i, j), e in zip(idx, upper):
        mat[i][j] = e
        mat[j][i] = -e
    return sum(n[i] * mat[i][j] * m[j] for i in range(4) for j in range(4))


def cocycle_eval_left(basis_exponents, alt_upper, coords):
    """Semicharacter value at sum(coords[j] * basis[j]) as an exponent in
    Q/Z, expanded by peeling one basis vector at a time from the left.

    Uses chi(x + y) = chi(x) chi(y) exp(pi*i*E(x, y)), i.e. exponents add
    and pick up E(x, y)/2.
    """
    terms = []
    for j, c in enumerate(coords):
        step = 1 if c >= 0 else -1
        for _ in range(abs(c)):
            terms.append((j, step))
    expo = Fraction(0)
    acc = [0, 0, 0, 0]  # coordinates accumulated so far
    for j, step in terms:
        one = [0, 0, 0, 0]
        one[j] = step
        q = basis_exponents[j] if step > 0 else -basis_exponents[j]
        # chi(-b) = conj(chi(b)) for unitary chi with chi(b)=e^{2 pi i q}:
        # exponent -q; the alternating correction handles the rest.
        expo = expo + q + Fraction(alternating_value(alt_upper, acc, one), 2)
        acc = [x + y for x, y in zip(acc, one)]
    return expo % 1


def cocycle_eval_right(basis_exponents, alt_upper, coords):
    """Same as cocycle_eval_left but peeling from the right."""
    terms = []
    for j, c in enumerate(coords):
        step = 1 if c >= 0 else -1
        for _ in range(abs(c)):
            terms.append((j, step))
    expo = Fraction(0)
    acc = [0, 0, 0, 0]
    for j, step in reversed(terms):
        one = [0, 0, 0, 0]
        one[j] = step
        q = basis_exponents[j] if step > 0 else -basis_exponents[j]
        expo = expo + q + Fraction(alternating_value(alt_upper, one, acc), 2)
        acc = [x + y for x, y in zip(acc, one)]
    return expo % 1


def gf3_matrices(det_one: bool):
    """All invertible 2x2 matrices over the 3-element field, optionally
    restricted to determinant 1."""
    out = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    det = (a * d - b * c) % 3
                    if det == 0:
                        continue
                    if det_one and det != 1:
                        continue
                    out.append((a, b, c, d))
    return out


def gf3_order(m) -> int:
    """Multiplicative order of a 2x2 matrix over the 3-element field."""

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    ident = (1, 0, 0, 1)
    p = m
    k = 1
    while p != ident:
        p = mul(p, m)
        k += 1
        if k > 100:
            raise RuntimeError("order computation ran away")
    return k


def gf3_fingerprint(det_one: bool):
    """Multiset of element orders as an {order: count} dict."""
    fp = {}
    for m in gf3_matrices(det_one):
        k = gf3_order(m)
        fp[k] = fp.get(k, 0) + 1
    return fp
