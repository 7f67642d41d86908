"""Integer invariants of double covers and their resolved models.

Pure arithmetic, no lattice data: holomorphic Euler characteristic and
canonical degree of a double cover of an abelian surface, computed from the
branch class and the multiplicities of its singular points, together with the
classifier that pins down which branch configurations can produce a minimal
cover with canonical degree 8, and the Euler-number identities satisfied by
the complement of the contracted elliptic curves.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class NonIntegral(ValueError):
    """Raised when an invariant that must be an integer comes out fractional."""


class SingularityProfile:
    """Branch data of a double cover of an abelian surface.

    The branch divisor is twice a class L; ``l2`` records the
    self-intersection of L.  ``multiplicities`` lists one entry m per
    non-negligible singular point of the branch curve, an ordinary point of
    even multiplicity 2m.  Negligible double points (m = 1) do not affect
    the resolved invariants and are rejected rather than silently dropped.
    """

    __slots__ = ("l2", "multiplicities")

    def __init__(self, l2, multiplicities=()) -> None:
        mults = tuple(multiplicities)
        if not all(isinstance(x, int) for x in (l2, *mults)):
            raise TypeError(f"l2 and the multiplicities must be ints, "
                            f"got {l2!r} and {mults!r}")
        if any(m < 2 for m in mults):
            raise ValueError("negligible multiplicities (m < 2) are not tracked")
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "multiplicities", mults)

    def __setattr__(self, name, value):
        raise AttributeError("SingularityProfile is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SingularityProfile):
            return NotImplemented
        return (self.l2, self.multiplicities) == (other.l2, other.multiplicities)

    def __repr__(self) -> str:
        return f"SingularityProfile(l2={self.l2}, multiplicities={self.multiplicities})"


class BranchCase:
    """One admissible branch configuration for a canonical-degree-8 cover."""

    __slots__ = ("label", "d2", "singularities", "profile")

    def __init__(self, label: str, d2: int, singularities: str,
                 profile: SingularityProfile) -> None:
        if label not in ("I", "II"):
            raise ValueError("label must be 'I' or 'II'")
        if not isinstance(d2, int):
            raise TypeError(f"d2 must be an int, got {d2!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "singularities", singularities)
        object.__setattr__(self, "profile", profile)

    def __setattr__(self, name, value):
        raise AttributeError("BranchCase is immutable")

    def __repr__(self) -> str:
        return (f"BranchCase({self.label!r}, d2={self.d2}, "
                f"singularities={self.singularities!r})")


class ResolutionInvariants(NamedTuple):
    chi: Fraction
    k2: int


def resolution_invariants(profile: SingularityProfile) -> ResolutionInvariants:
    """Invariants of the canonical resolution of the double cover.

    chi = (L^2 - sum m_i(m_i - 1)) / 2 and K^2 = 2 L^2 - 2 sum (m_i - 1)^2.
    A fractional chi is returned as-is, as a Fraction; it marks profiles
    that cannot come from an actual cover.
    """
    mults = profile.multiplicities
    chi = Fraction(profile.l2 - sum(m * (m - 1) for m in mults), 2)
    k2 = 2 * profile.l2 - 2 * sum((m - 1) ** 2 for m in mults)
    if chi.denominator == 1:
        chi = int(chi)
    return ResolutionInvariants(chi, k2)


def enumerate_branch_profiles() -> list[BranchCase]:
    """The branch configurations that give a minimal cover with K^2 = 8.

    With chi = 1 the resolved canonical degree is 4 + 2 sum (m_i - 1), so the
    multiplicity sum is bounded and the profiles can be listed outright.  Two
    survivors of the bound are discarded: a single m = 2 point only reaches
    canonical degree 6, and a pair of quadruple points with one infinitely
    near the other would leave rational curves on the resolution, which the
    minimal cover cannot contain.  Each remaining singular point is ordinary.
    """
    cases = []
    # mult profiles with sum (m_i - 1) <= 2, each m_i >= 2: (), (2,), (3,), (2, 2)
    for mults in ((), (2,), (3,), (2, 2)):
        excess = sum(m - 1 for m in mults)
        if 4 + 2 * excess != 8:
            continue
        l2 = 2 + sum(m * (m - 1) for m in mults)  # forces chi = 1
        profile = SingularityProfile(l2, mults)
        if mults == (3,):
            cases.append(BranchCase(
                "I", 4 * l2,
                "one ordinary singular point of multiplicity 6", profile))
        elif mults == (2, 2):
            cases.append(BranchCase(
                "II", 4 * l2,
                "two ordinary singular points of multiplicity 4", profile))
    return cases


def product_quotient_invariants(g: int, group_order: int) -> tuple[int, int]:
    """Invariants of a free quotient of a product of two genus-g curves.

    chi = (g - 1)^2 / |G| and K^2 = 8 chi.
    """
    if g < 2:
        raise ValueError("the curve must have genus at least 2")
    if group_order < 1:
        raise ValueError("group order must be positive")
    chi = Fraction((g - 1) ** 2, group_order)
    if chi.denominator != 1:
        raise NonIntegral(f"(g - 1)^2 = {(g - 1) ** 2} is not divisible by {group_order}")
    return int(chi), 8 * int(chi)


def ball_quotient_check(k2: int = 8, chi: int = 1) -> bool:
    """Whether both logarithmic Chern-number identities come out at 12.

    The surface carries four disjoint elliptic curves of self-intersection -1
    and, on its singular model's resolution, two disjoint elliptic curves of
    self-intersection -2.  For each configuration the check compares
    (K + sum C_i)^2 with three times the Euler number of the complement of
    the C_i; equality at 12 on both is the numerical criterion for the two
    open ball-quotient structures.
    """
    c2 = 12 * chi - k2
    for self_ints in ((-1, -1, -1, -1), (-2, -2)):
        # adjunction for a smooth elliptic curve: K.C = -C^2
        log_k2 = k2 + sum(2 * (-s) + s for s in self_ints)
        # elliptic curves have Euler number 0, so removing them keeps c2
        log_c2 = 3 * c2
        if log_k2 != 12 or log_c2 != 12:
            return False
    return True
