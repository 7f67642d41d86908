"""Expected values shared by the test suite.

The rule: a value that a CLI check carries is read from EXPECTED, the
packaged expected_values.json, and is entered nowhere else in the tests.
This module holds, besides that loader, only published data that no check
carries: the lattice bases, the published kernel bases, the curve lattices
and directions, the pfaffians, the order-2 signs, the torsion parity sets,
the semicharacter signs and closed forms, the square-root exponents, the
rational representations, the tangent data and the product-quotient cases
beyond the one the CLI checks.

Conventions used throughout:

* Elements of Q(zeta) are written as (a, b) pairs meaning a + b*zeta,
  zeta = exp(pi*i/3).
* The ambient real 4-space underlying V = C^2 carries the fixed reference
  basis (u1, zeta*u1, u2, zeta*u2), where (u1, u2) is the standard complex
  basis of V.  "Ambient coordinates" are coordinates in that basis.
* The product abelian surface is C^2 / PRODUCT_BASIS (self-product of the
  hexagonal elliptic curve); the cover surface is C^2 / COVER_BASIS, an
  index-2 sublattice quotient on which the branch divisor becomes
  2-divisible.
* Lattice vectors of the product surface are usually written in the
  ordered basis (l1, l2, u1, u2) with l1 = zeta*u1, l2 = zeta*u2.
"""

import json
from fractions import Fraction as F
from importlib import resources

# The expected-values file the CLI diffs against, and its check_id ->
# expected map.  JSON values: lists for tuples, cycle notation for
# permutations, sorted lists for orbit partitions.
EXPECTED_FILE = json.loads(resources.files("hexcover").joinpath(
    "expected_values.json").read_text("utf-8"))
EXPECTED = {r["check_id"]: r["expected"] for r in EXPECTED_FILE["checks"]}

# --- lattice bases, in ambient coordinates (rows are basis vectors) --------

# (l1, l2, u1, u2)
PRODUCT_BASIS = (
    (0, 1, 0, 0),
    (0, 0, 0, 1),
    (1, 0, 0, 0),
    (0, 0, 1, 0),
)

# (u1, l1+u2, l2+u2, 2*u2)
COVER_BASIS = (
    (1, 0, 0, 0),
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (0, 0, 2, 0),
)

# Index-2 kernel sublattices of the product lattice for the three selected
# order-2 characters, exactly as published.
KERNEL_BASIS_PUBLISHED = {
    1: ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 2, 0)),
    2: ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (2, 0, 0, 0)),
    3: ((0, 1, 1, 0), (0, 0, 0, 1), (0, 0, 2, 0), (1, 0, 1, 0)),
}

# Rank-2 period lattices of the four elliptic curves through the origin of
# the product surface, in ambient coordinates.
CURVE_LATTICES = (
    ((0, 1, 0, 0), (1, 0, 0, 0)),              # span{l1, u1}
    ((0, 0, 0, 1), (0, 0, 1, 0)),              # span{l2, u2}
    ((0, 1, 0, 1), (1, 0, 1, 0)),              # span{l1+l2, u1+u2}
    ((0, 1, -1, 1), (1, 0, 0, 1)),             # span{l1+l2-u2, l2+u1}
)

# Complex tangent directions of the four curves in the standard frame
# (u1, u2), as pairs of (a, b) elements.
CURVE_DIRECTIONS = (
    ((1, 0), (0, 0)),
    ((0, 0), (1, 0)),
    ((1, 0), (1, 0)),
    ((1, 0), (0, 1)),
)

# --- pfaffians --------------------------------------------------------------

# Oriented pfaffians of Im h: the branch form on the product and the cover
# lattice, and the principal polarization on the product lattice; and the
# branch self-intersection on the product surface.
PF_PRODUCT = 6
PF_COVER = 12
PF_PRINCIPAL_PRODUCT = 1
SELF_INT_PRODUCT = 12

# --- order-2 characters of the product lattice ----------------------------

# Sign tuples on the ordered basis (l1, l2, u1, u2); index 0 is trivial.
ORDER_TWO_SIGNS = (
    (1, 1, 1, 1),
    (-1, -1, 1, -1),
    (1, -1, -1, 1),
    (-1, 1, -1, -1),
    (1, 1, -1, 1),
    (-1, 1, 1, 1),
    (-1, 1, -1, 1),
    (1, 1, 1, -1),
    (1, -1, 1, -1),
    (-1, 1, 1, -1),
    (1, 1, -1, -1),
    (-1, -1, -1, 1),
    (1, -1, 1, 1),
    (1, -1, -1, -1),
    (-1, -1, 1, 1),
    (-1, -1, -1, -1),
)

# Nonzero 2-torsion points on each curve, as parity vectors of half lattice
# vectors in the basis (l1, l2, u1, u2).
CURVE_TORSION_PARITIES = (
    {(1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0)},
    {(0, 1, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)},
    {(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)},
    {(1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1)},
)

# --- semicharacters --------------------------------------------------------

# Genus-1 theta semicharacter on Z[zeta]: nu(a+b*zeta) = (-1)**(a+b+ab).
# Values of the branch semicharacter on PRODUCT_BASIS.
BRANCH_CHAR_PRODUCT_SIGNS = (-1, -1, -1, -1)


def branch_char_closed_form(a1: int, a2: int, a3: int, a4: int) -> int:
    """Published closed form for the branch semicharacter of the product
    surface at the lattice vector (a1 + zeta*a2, a3 + zeta*a4)."""
    e = a1 + a2 + a3 + a4 + a1 * (a2 + a3 + a4) + (a2 + a3) * a4
    return -1 if e % 2 else 1


def curve_char_closed_forms(a1: int, a2: int, a3: int, a4: int):
    """Published closed forms for the four curve-bundle semicharacters at
    (a1 + zeta*a2, a3 + zeta*a4)."""
    exps = (
        a3 + a4 + a3 * a4,
        a1 + a2 + a1 * a2,
        a1 + a2 + a3 + a4 + (a1 + a3) * (a2 + a4),
        a1 + a2 + a3 + a4 + (a1 + a4) * (a2 + a3) + a2 * a3,
    )
    return tuple(-1 if e % 2 else 1 for e in exps)


# Values of the branch semicharacter of the cover surface on COVER_BASIS.
BRANCH_CHAR_COVER_SIGNS = (-1, 1, -1, 1)

# --- square roots on the cover surface -------------------------------------

# The sixteen square roots of the cover branch bundle: semicharacter values
# on COVER_BASIS are fourth roots of unity, stored as exponents q in Q/Z
# (value = exp(2*pi*i*q)).  Listed in the published order.
SQUARE_ROOT_EXPONENTS = (
    (F(1, 4), F(0), F(1, 4), F(0)),
    (F(3, 4), F(1, 2), F(1, 4), F(1, 2)),
    (F(1, 4), F(1, 2), F(3, 4), F(0)),
    (F(3, 4), F(0), F(3, 4), F(1, 2)),
    (F(1, 4), F(0), F(3, 4), F(0)),
    (F(3, 4), F(0), F(1, 4), F(0)),
    (F(3, 4), F(0), F(3, 4), F(0)),
    (F(1, 4), F(0), F(1, 4), F(1, 2)),
    (F(1, 4), F(1, 2), F(1, 4), F(1, 2)),
    (F(3, 4), F(0), F(1, 4), F(1, 2)),
    (F(1, 4), F(0), F(3, 4), F(1, 2)),
    (F(3, 4), F(1, 2), F(3, 4), F(0)),
    (F(1, 4), F(1, 2), F(1, 4), F(0)),
    (F(1, 4), F(1, 2), F(3, 4), F(1, 2)),
    (F(3, 4), F(1, 2), F(1, 4), F(0)),
    (F(3, 4), F(1, 2), F(3, 4), F(1, 2)),
)

# --- symmetries of the cover surface ---------------------------------------

# Matrices whose columns are the images of the cover basis vectors under
# the order-4 generator and the anti-holomorphic generator, written in
# cover-basis coordinates.
RATIONAL_REP_ORDER4 = (
    (0, -2, -1, -2),
    (1, 1, -1, 0),
    (1, 0, -2, -2),
    (-1, -1, 2, 1),
)
RATIONAL_REP_SIGMA = (
    (0, -1, -1, -2),
    (0, 1, 2, 2),
    (1, 1, 0, 0),
    (-1, -1, -1, -1),
)

# Tangent directions of the four curves in the cover frame, as projective
# points.
TANGENT_POINTS_COVER_FRAME = (
    ((1, 0), (0, 0)),
    ((0, -1), (1, 0)),
    ((1, -1), (1, 0)),
    ((1, -2), (1, 0)),
)

# Permutation induced on the four tangent directions (cycles, 1-indexed).
TANGENT_PERM_ORDER4 = ((1, 3), (2, 4))
TANGENT_PERM_ORDER6 = ((1, 2, 3),)
TANGENT_PERM_SIGMA = ((1, 2),)

# --- numerical invariants --------------------------------------------------

# Product-quotient cases beyond the CLI's (genus 3, group order 4):
# (genus, group order) -> (chi, K^2).
PRODUCT_QUOTIENT_INVARIANTS = {(2, 1): (1, 8), (5, 16): (1, 8)}
