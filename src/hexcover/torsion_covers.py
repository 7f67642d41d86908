"""Order-2 characters of the product lattice and the covers they cut out.

Each nontrivial {+1,-1}-valued character of the rank-4 period lattice has an
index-2 kernel, hence determines a degree-2 isogeny onto the product surface
whose analytic representation is the identity.  The branch divisor pulls back
along such an isogeny, and the pulled-back bundle admits square roots exactly
when the restricted intersection form becomes 2-divisible.  This module
enumerates the sixteen characters, builds their kernel lattices, and runs the
divisibility and restriction tests that single out the three good covers.
"""
from __future__ import annotations

import itertools

from . import catalog
from .appell_humbert import (
    NotInLattice,
    ORDER_TWO_SIGN_PATTERNS,
    im_on_lattice,
)
from .lattice import (
    AmbientVector,
    LatticeBasis,
    NotContained,
    _lattice_coordinates,
    line_membership_rank2,
)


class TrivialCharacter(ValueError):
    """Raised when an operation needs a nontrivial character."""


class CharacterMod2:
    """A homomorphism from the product lattice to {+1, -1}.

    Stored as the four values on the ordered product-lattice basis; values
    elsewhere follow by multiplicativity, so evaluation reduces to the parity
    of integer coordinates.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        vals = tuple(int(v) for v in values)
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

    def value(self, v: AmbientVector) -> int:
        coords = _lattice_coordinates(catalog.PRODUCT_LATTICE, v)
        if coords is None:
            raise NotInLattice(f"{v!r} is not in the product lattice")
        return self.value_on_coords(coords)

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


def restricts_nontrivially(chi: CharacterMod2, sub: LatticeBasis) -> bool:
    """Whether chi takes the value -1 somewhere on the given sublattice."""
    for v in sub.vectors:
        coords = _lattice_coordinates(catalog.PRODUCT_LATTICE, v)
        if coords is None:
            raise NotContained(f"{v!r} is not in the product lattice")
        if chi.value_on_coords(coords) == -1:
            return True
    return False


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


def _torsion_on_curve(line) -> frozenset:
    """Nonzero 2-torsion classes on one curve, as parity vectors.

    A half-lattice point lies on the curve exactly when its parity vector is
    in the mod-2 span of the curve lattice's coordinates.
    """
    member = line_membership_rank2(line, catalog.PRODUCT_LATTICE)
    rows = []
    for v in member.vectors:
        coords = _lattice_coordinates(catalog.PRODUCT_LATTICE, v)
        rows.append(tuple(c % 2 for c in coords))
    span = set()
    for bits in itertools.product((0, 1), repeat=len(rows)):
        combined = [0, 0, 0, 0]
        for b, row in zip(bits, rows):
            if b:
                combined = [(x + y) % 2 for x, y in zip(combined, row)]
        span.add(tuple(combined))
    span.discard((0, 0, 0, 0))
    return frozenset(span)


def classify_characters() -> CharacterClassification:
    """Partition the nontrivial characters by their restriction behaviour."""
    chars = all_characters()
    trivial_on = []
    for chi in chars:
        bad = tuple(k for k, sub in enumerate(catalog.CURVE_LATTICES)
                    if not restricts_nontrivially(chi, sub))
        trivial_on.append(bad)
    selected = tuple(i for i in range(1, 16) if not trivial_on[i])
    incidence = tuple(_torsion_on_curve(line) for line in catalog.CURVE_LINES)
    covered = set().union(*incidence)
    leftover = {p for p in itertools.product((0, 1), repeat=4)
                if any(p) and p not in covered}
    return CharacterClassification(selected, trivial_on, incidence, leftover)
