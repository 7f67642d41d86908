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

from . import catalog
from .appell_humbert import ORDER_TWO_SIGN_PATTERNS, im_on_lattice
from .lattice import LatticeBasis


class TrivialCharacter(ValueError):
    """Raised when an operation needs a nontrivial character."""


class NotOnto(ValueError):
    """Raised when a curve's linear form does not map the product lattice
    onto Z[zeta]."""


class CharacterMod2:
    """A homomorphism from the product lattice to {+1, -1}.

    Stored as the four values on the ordered product-lattice basis; values
    elsewhere follow by multiplicativity, so evaluation reduces to the parity
    of integer coordinates.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        vals = tuple(values)
        if not all(isinstance(v, int) for v in vals):
            raise TypeError(f"signs must be ints, got {vals!r}")
        if len(vals) != 4 or any(v not in (1, -1) for v in vals):
            raise ValueError("expected four signs")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CharacterMod2 is immutable")

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def value_on_coords(self, coords) -> int:
        sign = 1
        for n, v in zip(coords, self.values):
            if n % 2:
                sign *= v
        return sign

    def __mul__(self, other: "CharacterMod2") -> "CharacterMod2":
        return CharacterMod2(a * b for a, b in zip(self.values, other.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharacterMod2):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(("CharacterMod2", self.values))

    def __repr__(self) -> str:
        return f"CharacterMod2({self.values})"


def all_characters() -> list[CharacterMod2]:
    """The sixteen characters, trivial one first, in the published order."""
    return [CharacterMod2(signs) for signs in ORDER_TWO_SIGN_PATTERNS]


def kernel_lattice(chi: CharacterMod2) -> LatticeBasis:
    """A basis of the index-2 sublattice on which chi is identically +1.

    Doubling the first basis vector with value -1 and adding it to every
    other -1 vector yields four independent kernel generators.
    """
    if chi.is_trivial:
        raise TrivialCharacter("the trivial character has full kernel")
    basis = catalog.PRODUCT_LATTICE.vectors
    first_neg = min(i for i, v in enumerate(chi.values) if v == -1)
    gens = [2 * basis[first_neg]]
    for i, v in enumerate(chi.values):
        if i == first_neg:
            continue
        gens.append(basis[i] if v == 1 else basis[i] + basis[first_neg])
    return LatticeBasis(gens)


def check_2divisible(chi: CharacterMod2) -> bool:
    """Whether the intersection form halves on the kernel of chi.

    Restricts the imaginary part of the branch form to ker(chi) and asks for
    every entry to be even.
    """
    if chi.is_trivial:
        raise TrivialCharacter("divisibility test needs a nontrivial character")
    alt = im_on_lattice(catalog.SUM_FORM, kernel_lattice(chi))
    return all(x % 2 == 0 for x in alt.upper_triangle())


class CharacterClassification:
    """Outcome of testing all fifteen nontrivial characters.

    selected: indices (into all_characters) of the characters restricting
       nontrivially to every curve lattice.
    trivial_on: for each of the sixteen characters, the tuple of curve
       indices (0-based) on which it restricts trivially.
    curve_incidence: for each curve, the nonzero 2-torsion classes lying on
       it, as parity vectors in product-basis coordinates.
    leftover: the nonzero 2-torsion classes lying on no curve.
    """

    __slots__ = ("selected", "trivial_on", "curve_incidence", "leftover")

    def __init__(self, selected, trivial_on, curve_incidence, leftover) -> None:
        object.__setattr__(self, "selected", tuple(selected))
        object.__setattr__(self, "trivial_on", tuple(trivial_on))
        object.__setattr__(self, "curve_incidence", tuple(curve_incidence))
        object.__setattr__(self, "leftover", frozenset(leftover))

    def __setattr__(self, name, value):
        raise AttributeError("CharacterClassification is immutable")

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
    in 2 Z[zeta].
    """
    (_, _), (a, b) = curve_map
    values = []
    for v in catalog.PRODUCT_LATTICE.vectors:
        z1, z2 = v.to_pair()
        w = a * z1 + b * z2
        if not w.is_integral():
            raise NotOnto(f"F({v!r}) = {w} is not in Z[zeta]")
        values.append((w.a.numerator, w.b.numerator))
    minors = (x1 * y2 - x2 * y1
              for (x1, y1), (x2, y2) in itertools.combinations(values, 2))
    if math.gcd(*minors) != 1:
        raise NotOnto("the product lattice maps onto a proper sublattice "
                      "of Z[zeta]")
    return frozenset(
        e for e in itertools.product((0, 1), repeat=4) if any(e)
        and all(sum(w[j] for w, bit in zip(values, e) if bit) % 2 == 0
                for j in (0, 1)))


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
    return CharacterClassification(selected, trivial_on, incidence, leftover)
