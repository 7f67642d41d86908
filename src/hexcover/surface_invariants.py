"""Integer invariants of double covers and their resolved models.

Pure arithmetic, no lattice data: holomorphic Euler characteristic and
canonical degree of a double cover of an abelian surface, computed from the
branch class and the multiplicities of its singular points, together with the
classifier that pins down which branch configurations can produce a minimal
cover with canonical degree 8, and the Euler-number identities satisfied by
the complement of the contracted elliptic curves.
"""
from __future__ import annotations

import itertools
from operator import attrgetter
from typing import NamedTuple

from .eisenstein import Rat, _Immutable, _ratio


class NonIntegral(ValueError):
    """Raised when an invariant that must be an integer comes out fractional."""


class SingularityProfile(_Immutable):
    """Branch data of a double cover of an abelian surface.

    The branch divisor is twice a class L; ``l2`` records the
    self-intersection of L.  ``multiplicities`` lists one entry m per
    non-negligible singular point of the branch curve, an ordinary point of
    even multiplicity 2m.  Negligible double points (m = 1) do not affect
    the resolved invariants and are rejected rather than silently dropped.
    """

    __slots__ = ("l2", "multiplicities")
    _key = attrgetter("l2", "multiplicities")

    def __init__(self, l2, multiplicities=()) -> None:
        mults = tuple(multiplicities)
        # a bool is an int to Python but not a count
        if not all(type(x) is int for x in (l2, *mults)):
            raise TypeError(f"l2 and the multiplicities must be ints, "
                            f"got {l2!r} and {mults!r}")
        if any(m < 2 for m in mults):
            raise ValueError("negligible multiplicities (m < 2) are not tracked")
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "multiplicities", mults)

    def __repr__(self) -> str:
        return f"SingularityProfile(l2={self.l2}, multiplicities={self.multiplicities})"


class ResolutionInvariants(NamedTuple):
    chi: Rat
    k2: int


def resolution_invariants(profile: SingularityProfile) -> ResolutionInvariants:
    """Invariants of the canonical resolution of the double cover.

    chi = (L^2 - sum m_i(m_i - 1)) / 2 and K^2 = 2 L^2 - 2 sum (m_i - 1)^2.
    A fractional chi is returned as a Fraction (eisenstein._ratio); it
    marks profiles that cannot come from an actual cover.
    """
    mults = profile.multiplicities
    chi = _ratio(profile.l2 - sum(m * (m - 1) for m in mults), 2)
    k2 = 2 * profile.l2 - 2 * sum((m - 1) ** 2 for m in mults)
    return ResolutionInvariants(chi, k2)


def enumerate_branch_profiles() -> list[SingularityProfile]:
    """The branch profiles that give a minimal cover with chi = 1 and
    K^2 = 8, the sextuple point first.

    With chi = 1, L^2 = 2 + sum m_i(m_i - 1) and the resolved canonical
    degree is 4 + 2 sum (m_i - 1), so K^2 = 8 bounds sum (m_i - 1) by 2.
    Every non-increasing tuple of multiplicities m_i >= 2 within that bound
    is tried, and kept when the resolution formula gives chi = 1 and
    K^2 = 8: a single m = 2 point only reaches canonical degree 6.  A pair
    of quadruple points with one infinitely near the other would leave
    rational curves on the resolution, which the minimal cover cannot
    contain, so each singular point of a kept profile is ordinary.
    """
    bound = 2
    profiles = []
    for count in range(bound + 1):
        # multiplicities drawn from a descending range come out non-increasing
        for mults in itertools.combinations_with_replacement(
                range(bound + 1, 1, -1), count):
            if sum(m - 1 for m in mults) > bound:
                continue
            profile = SingularityProfile(
                2 + sum(m * (m - 1) for m in mults), mults)
            if resolution_invariants(profile) == (1, 8):
                profiles.append(profile)
    return profiles


def product_quotient_invariants(g: int, group_order: int) -> tuple[int, int]:
    """Invariants of a free quotient of a product of two genus-g curves.

    chi = (g - 1)^2 / |G| and K^2 = 8 chi; g and |G| must be ints.
    """
    if type(g) is not int or type(group_order) is not int:
        raise TypeError(f"g and the group order must be ints, got {g!r} "
                        f"and {group_order!r}")
    if g < 2:
        raise ValueError("the curve must have genus at least 2")
    if group_order < 1:
        raise ValueError("group order must be positive")
    chi, rest = divmod((g - 1) ** 2, group_order)
    if rest:
        raise NonIntegral(f"(g - 1)^2 = {(g - 1) ** 2} is not divisible by {group_order}")
    return chi, 8 * chi


def ball_quotient_check(k2: int, chi: int) -> bool:
    """Whether both logarithmic Chern-number identities come out at 12 for
    a surface with these invariants; they must be ints.

    The surface carries four disjoint elliptic curves of self-intersection -1
    and, on its singular model's resolution, two disjoint elliptic curves of
    self-intersection -2.  For each configuration the check compares
    (K + sum C_i)^2 with three times the Euler number of the complement of
    the C_i; equality at 12 on both is the numerical criterion for the two
    open ball-quotient structures.
    """
    if type(k2) is not int or type(chi) is not int:
        raise TypeError(f"k2 and chi must be ints, got {k2!r} and {chi!r}")
    c2 = 12 * chi - k2
    for self_ints in ((-1, -1, -1, -1), (-2, -2)):
        # adjunction for a smooth elliptic curve: K.C = -C^2
        log_k2 = k2 + sum(2 * (-s) + s for s in self_ints)
        # elliptic curves have Euler number 0, so removing them keeps c2
        log_c2 = 3 * c2
        if log_k2 != 12 or log_c2 != 12:
            return False
    return True
