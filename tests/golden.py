"""Frozen expected values shared by the test suite.

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

from fractions import Fraction as F

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

# --- hermitian forms -------------------------------------------------------

# Scaled matrices M = sqrt(3)*H for the four curve bundles and their sum.
# Entries are (a, b) pairs.
CURVE_FORM_MATRICES = (
    (((0, 0), (0, 0)), ((0, 0), (2, 0))),
    (((2, 0), (0, 0)), ((0, 0), (0, 0))),
    (((2, 0), (-2, 0)), ((-2, 0), (2, 0))),
    (((2, 0), (0, -2)), ((-2, 2), (2, 0))),
)
SUM_FORM_MATRIX = (((6, 0), (-2, -2)), ((-4, 2), (6, 0)))
PRINCIPAL_FORM_MATRIX = (((2, 0), (0, 0)), ((0, 0), (2, 0)))

# Upper triangle (E12, E13, E14, E23, E24, E34) of Im h on the stated basis.
BRANCH_ALT_UPPER_PRODUCT = (-1, 3, -2, -1, 3, -1)   # sum form on PRODUCT_BASIS
BRANCH_ALT_UPPER_COVER = (-4, 0, -2, -6, -4, 6)     # sum form on COVER_BASIS

# Oriented pfaffians and self-intersection numbers.
PF_PRODUCT = 6
SELF_INT_PRODUCT = 12
PF_COVER = 12
SELF_INT_COVER = 24
PF_PRINCIPAL_PRODUCT = 1

# Witness for 2-divisibility on the first kernel lattice: the value of
# Im h at (l1+u2, l2+u2) is even.
TWO_DIVISIBILITY_WITNESS = -6

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

# Indices of the characters that restrict nontrivially to every curve
# lattice and whose kernel makes the branch class 2-divisible.
SELECTED_CHARACTERS = (1, 2, 3)

# Number of 2-torsion points of the product surface lying on no curve.
TORSION_LEFTOVER = 3

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

# Analytic matrices in the standard frame (u1, u2); entries are (a, b) pairs.
ORDER4_GEN = (((0, 1), (-1, 0)), ((0, 1), (0, -1)))          # order-4 generator
ORDER6_GEN = (((0, 0), (-1, 1)), ((1, -1), (-1, 1)))         # order-6 generator
GAMMA_GEN = (((0, -1), (1, 0)), ((0, 0), (1, 0)))            # order-3, product surface

# Anti-holomorphic generator v -> S * conj(v) in the standard frame.
SIGMA_LINEAR = (((0, 0), (-1, 1)), ((-1, 1), (0, 0)))

# The same map written in the cover frame (w1, w2) = (u1, zeta*u1 + u2).
SIGMA_LINEAR_COVER_FRAME = (((1, 0), (0, 0)), ((-1, 1), (0, 1)))

# Base change N from the cover frame to the standard frame, and the search
# normal forms of the two generators in the cover frame.
FRAME_SHEAR = (((1, 0), (0, 1)), ((0, 0), (1, 0)))
TILTED_ORDER4 = (((1, 0), (-2, 2)), ((0, 1), (-1, 0)))
TILTED_ORDER6 = (((-1, 0), (0, 0)), ((1, -1), (0, 1)))

# Nonzero base point of the branch divisor: zeta*u1, in ambient coordinates.
BRANCH_BASE_POINT = (0, 1, 0, 0)

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
# points, and their cross-ratio.
TANGENT_POINTS_COVER_FRAME = (
    ((1, 0), (0, 0)),
    ((0, -1), (1, 0)),
    ((1, -1), (1, 0)),
    ((1, -2), (1, 0)),
)
CROSS_RATIO = (1, -1)  # 1 - zeta = zeta**-1

# Permutation induced on the four tangent directions (cycles, 1-indexed).
TANGENT_PERM_ORDER4 = ((1, 3), (2, 4))
TANGENT_PERM_ORDER6 = ((1, 2, 3),)
TANGENT_PERM_SIGMA = ((1, 2),)

# --- permutation action on the sixteen square roots ------------------------

PERM_ORDER4 = ((1, 13, 7, 12), (2, 9, 14, 16), (3, 5, 15, 6), (4, 11, 8, 10))
PERM_ORDER6 = ((1, 13, 5, 7, 12, 6), (2, 4, 11, 14, 8, 10), (3, 15), (9, 16))
PERM_NEGATION = ((1, 7), (2, 14), (3, 15), (4, 8), (5, 6), (9, 16), (10, 11),
                 (12, 13))
PERM_SIGMA = ((1, 14), (2, 7), (3, 16), (4, 5), (6, 8), (9, 15), (10, 12),
              (11, 13))

HOLO_ORBIT_PARTITION = (
    frozenset({1, 3, 5, 6, 7, 12, 13, 15}),
    frozenset({2, 4, 8, 9, 10, 11, 14, 16}),
)
FULL_ORBIT_PARTITION = (frozenset(range(1, 17)),)

HOLO_GROUP_ORDER = 24
FULL_GROUP_ORDER = 48

# Cycle induced on the three selected characters by the order-3 symmetry
# of the product surface (1 -> 3 -> 2 -> 1).
GAMMA_CHARACTER_CYCLE = (1, 3, 2)

# --- numerical invariants --------------------------------------------------

RESOLUTION_INVARIANTS = {
    (8, (3,)): (1, 8),
    (6, (2, 2)): (1, 8),
    (2, ()): (1, 4),
}
DOUBLE_COVER_INVARIANTS = {(24, 2): (1, 8), (8, 0): (1, 4)}
PRODUCT_QUOTIENT_INVARIANTS = {(3, 4): (1, 8), (2, 1): (1, 8), (5, 16): (1, 8)}
BALL_QUOTIENT_IDENTITY = 12
