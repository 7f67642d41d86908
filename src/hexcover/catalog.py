"""The concrete geometry this package is about, assembled once.

The product abelian surface is C^2 modulo the self-product of the
hexagonal lattice; four elliptic curves through the origin sum to a
branch divisor whose bundle is not 2-divisible there.  The cover surface
is the quotient by an index-2 sublattice on which the pulled-back bundle
acquires sixteen square roots.  Everything downstream (torsion analysis,
symmetry action, orbit count) consumes the objects defined here.
"""

from __future__ import annotations

from .appell_humbert import (
    HermitianForm,
    LineBundleClass,
    pullback_hom,
    tensor,
)
from .eisenstein import ZETA, mat, mat_identity
from .lattice import AmbientVector, LatticeBasis

# --- lattices ---------------------------------------------------------------

# Ordered basis (l1, l2, u1, u2) with l1 = zeta*u1, l2 = zeta*u2.
PRODUCT_LATTICE = LatticeBasis.from_rows(
    [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)])

# Index-2 sublattice on which the branch bundle becomes 2-divisible,
# ordered basis (u1, l1+u2, l2+u2, 2*u2).
COVER_LATTICE = LatticeBasis.from_rows(
    [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 2, 0)])

# --- the four elliptic curves ----------------------------------------------

# Linear forms cutting out the curves, written as analytic maps from C^2
# into the second factor: (z1, z2) -> (0, F_k(z1, z2)) for
# F_k = z2, z1, z1 - z2, zeta*z1 - z2.  Each curve is the image of ker F_k,
# and everything else about the curves is derived from these four forms.
CURVE_MAPS = (
    mat([[0, 0], [0, 1]]),
    mat([[0, 0], [1, 0]]),
    mat([[0, 0], [1, -1]]),
    mat([[0, 0], [ZETA, -1]]),
)

# Tangent directions of the curves in the standard frame (u1, u2), as the
# Z[zeta] pairs of a direction vector: the kernel of F = a*z1 + b*z2 is the
# line through (b, -a).  A direction is defined up to scaling, so only
# proportionality between two of them means anything, and the pairs of F
# serve without its denominator.
CURVE_LINES = tuple((b, (-a0, -a1)) for _, (_, ((a0, a1), b)) in CURVE_MAPS)

# --- bundles ----------------------------------------------------------------

# Theta bundle of the second-factor curve at the origin, pulled back to
# the product surface by the second projection: degenerate form with
# semicharacter -1 on l2 and u2 and trivial on the first factor.  A
# curve map lands in the second factor, so its bundle is the pullback of
# this one (f^*(pr_2^* Theta) = (pr_2 . f)^* Theta).
GENUS1_THETA = LineBundleClass._from_numerators(
    HermitianForm([[0, 0], [0, 2]]), PRODUCT_LATTICE, 2, (0, 1, 0, 1))

# Bundles of the four curves on the product surface, by pullback.
CURVE_BUNDLES = tuple(
    pullback_hom(GENUS1_THETA, f, PRODUCT_LATTICE) for f in CURVE_MAPS)

# Branch bundle on the product surface, its hermitian form and its pullback
# to the cover.
BRANCH_PRODUCT = tensor(tensor(CURVE_BUNDLES[0], CURVE_BUNDLES[1]),
                        tensor(CURVE_BUNDLES[2], CURVE_BUNDLES[3]))
SUM_FORM = BRANCH_PRODUCT.form
BRANCH_COVER = pullback_hom(BRANCH_PRODUCT, mat_identity(2), COVER_LATTICE)

# --- symmetries -------------------------------------------------------------

# Analytic matrices in the standard frame (u1, u2).
ORDER4_GEN = mat([[ZETA, -1], [ZETA, -ZETA]])
ORDER6_GEN = mat([[0, ZETA - 1], [1 - ZETA, ZETA - 1]])
GAMMA_ORDER3 = mat([[-ZETA, 1], [0, 1]])

# Anti-holomorphic involution v -> SIGMA_LINEAR . conj(v).
SIGMA_LINEAR = mat([[0, ZETA - 1], [ZETA - 1, 0]])

# Base change from the cover frame (w1, w2) = (u1, zeta*u1 + u2) to the
# standard frame.
FRAME_SHEAR = mat([[1, ZETA], [0, 1]])

# On the cover surface the branch divisor has two quadruple points: the
# origin and this representative of the kernel of the degree-2 isogeny
# back to the product surface, zeta*u1 (a 2-torsion point of the cover).
BRANCH_BASE_POINT = AmbientVector((0, 1, 0, 0))
