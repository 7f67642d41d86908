"""Order-2 characters of the product lattice and the covers they cut out.

Each nontrivial {+1,-1}-valued character of the rank-4 period lattice has an
index-2 kernel, hence determines a degree-2 isogeny onto the product surface
whose analytic representation is the identity.  The branch divisor pulls back
along such an isogeny, and the pulled-back bundle admits square roots exactly
when the restricted intersection form becomes 2-divisible.  This module
enumerates the sixteen characters, builds their kernel lattices, and runs the
divisibility and restriction tests that single out the three good covers.
The restriction test reads the 2-torsion points on each curve off the
curve's linear form in the catalog.
"""
from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter

from . import catalog
from .appell_humbert import ORDER_TWO_SIGN_PATTERNS, _all_even, im_on_lattice
from .eisenstein import _Immutable
from .lattice import AmbientVector, LatticeBasis, _ambient_matrix, _int_product


class TrivialCharacter(ValueError):
    """Raised when an operation needs a nontrivial character."""


class NotOnto(ValueError):
    """Raised when a curve's linear form does not map the product lattice
    onto Z[zeta]."""


class CharacterMod2(_Immutable):
    """A homomorphism from the product lattice to {+1, -1}.

    Stored as the four values on the ordered product-lattice basis; values
    elsewhere follow by multiplicativity, so evaluation reduces to the parity
    of integer coordinates.
    """

    __slots__ = ("values",)
    _key = attrgetter("values")

    def __init__(self, values) -> None:
        vals = tuple(values)
        # a bool is an int to Python but not a sign
        if not all(type(v) is int for v in vals):
            raise TypeError(f"signs must be ints, got {vals!r}")
        if len(vals) != 4 or any(v not in (1, -1) for v in vals):
            raise ValueError("expected four signs")
        object.__setattr__(self, "values", vals)

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def value_on_coords(self, coords) -> int:
        """chi at four int coordinates; a Fraction raises TypeError."""
        sign = 1
        for n, v in zip(coords, self.values, strict=True):
            if n & 1:
                sign *= v
        return sign

    def __mul__(self, other: "CharacterMod2") -> "CharacterMod2":
        if not isinstance(other, CharacterMod2):
            return NotImplemented
        return CharacterMod2(a * b for a, b in zip(self.values, other.values))

    def __repr__(self) -> str:
        return f"CharacterMod2({self.values})"


def all_characters() -> list[CharacterMod2]:
    """The sixteen characters, trivial one first, in the published order."""
    return [CharacterMod2(signs) for signs in ORDER_TWO_SIGN_PATTERNS]


def _kernel_coordinates(chi: CharacterMod2) -> tuple:
    """Product coordinates, as rows, of a basis of the index-2 sublattice
    on which chi is +1, in Hermite normal form relative to the product
    basis b.

    With l the last index where chi(b_l) = -1, generator j is b_j + b_l
    when chi(b_j) = -1, so 2 b_l at l, and b_j otherwise.  As columns the
    rows are lower triangular with diagonal 1 except a 2 at l, and row l
    holds the residue 1 left of that 2 in each column j with
    chi(b_j) = -1: the normal form (Cohen, GTM 138, 2.4.2).
    """
    if chi.is_trivial:
        raise TrivialCharacter("the trivial character has full kernel")
    last = max(i for i, v in enumerate(chi.values) if v == -1)
    return tuple(tuple([(i == j) + (v == -1 and i == last) for i in range(4)])
                 for j, v in enumerate(chi.values))


def kernel_lattice(chi: CharacterMod2) -> LatticeBasis:
    """The index-2 sublattice on which chi is +1, on _kernel_coordinates."""
    den, rows = catalog.PRODUCT_LATTICE._integer
    return LatticeBasis([AmbientVector._from_integers(den, image) for image
                         in _int_product(_kernel_coordinates(chi), rows)])


def check_2divisible(chi: CharacterMod2) -> bool:
    """Whether the intersection form halves on the kernel of chi: Im h of
    the branch form restricted from the product lattice, M E M^T with M
    the kernel's product coordinates, has even entries."""
    m = _kernel_coordinates(chi)
    e = im_on_lattice(catalog.SUM_FORM, catalog.PRODUCT_LATTICE).matrix
    return _all_even(_int_product(_int_product(m, e), tuple(zip(*m))))


class CharacterClassification(_Immutable):
    """Outcome of testing all fifteen nontrivial characters.

    selected: indices (into all_characters) of the characters restricting
       nontrivially to every curve lattice.
    curve_incidence: for each curve, the nonzero 2-torsion classes lying on
       it, as parity vectors in product-basis coordinates.
    leftover: the nonzero 2-torsion classes lying on no curve.
    """

    __slots__ = ("selected", "curve_incidence", "leftover")
    _key = attrgetter("selected", "curve_incidence", "leftover")

    def __init__(self, selected, curve_incidence, leftover) -> None:
        object.__setattr__(self, "selected", tuple(selected))
        object.__setattr__(self, "curve_incidence", tuple(curve_incidence))
        object.__setattr__(self, "leftover", frozenset(leftover))

    @property
    def leftover_count(self) -> int:
        return len(self.leftover)


def _torsion_on_curve(curve_map) -> frozenset:
    """Nonzero 2-torsion classes on the curve ker F, as parity vectors.

    F = a*z1 + b*z2 is the second row of the curve map.  The half-lattice
    point p = 1/2 sum e_i b_i lies on the curve exactly when F(p) is in
    F(L), L the product lattice.  F(L) must be Z[zeta], which holds when
    the 2x2 minors of the values F(b_i), as integer pairs, have gcd 1;
    then p lies on the curve exactly when the sum of F(b_i) over e_i = 1 is
    in 2 Z[zeta].  F(b_i) is the second block of the image of b_i under the
    curve map: the product of the basis coordinates with the transposed
    last two rows of its ambient matrix.
    """
    basis = catalog.PRODUCT_LATTICE
    den, rows = _ambient_matrix(curve_map)
    d, coords = basis._integer
    den *= d
    values = []
    for b, (x, y) in zip(basis.vectors,
                         _int_product(coords, tuple(zip(*rows[2:])))):
        if x % den or y % den:
            raise NotOnto(f"F({b!r}) = ({x} + {y}*zeta)/{den} is not in "
                          f"Z[zeta]")
        values.append((x // den, y // den))
    minors = (x1 * y2 - x2 * y1
              for (x1, y1), (x2, y2) in itertools.combinations(values, 2))
    if math.gcd(*minors) != 1:
        raise NotOnto("the product lattice maps onto a proper sublattice "
                      "of Z[zeta]")
    parities = tuple(itertools.product((0, 1), repeat=4))
    return frozenset(
        e for e, (x, y) in zip(parities, _int_product(parities, values))
        if any(e) and x % 2 == 0 and y % 2 == 0)


def classify_characters() -> CharacterClassification:
    """Partition the nontrivial characters by their restriction behaviour.

    Its inputs are the immutable catalog, so the classification is computed
    once per process."""
    return _classification()


# The memo sits on a private function so that classify_characters stays a
# plain function, which perfbench's tracer wraps and counts.
@functools.lru_cache(maxsize=None)
def _classification() -> CharacterClassification:
    # chi is trivial on a curve lattice exactly when it is +1 on that
    # lattice mod 2, which is the origin and the curve's 2-torsion classes
    incidence = tuple(_torsion_on_curve(f) for f in catalog.CURVE_MAPS)
    trivial_on = [tuple(k for k, points in enumerate(incidence)
                        if all(chi.value_on_coords(p) == 1 for p in points))
                  for chi in all_characters()]
    selected = tuple(i for i in range(1, 16) if not trivial_on[i])
    covered = set().union(*incidence)
    leftover = {p for p in itertools.product((0, 1), repeat=4)
                if any(p) and p not in covered}
    return CharacterClassification(selected, incidence, leftover)
