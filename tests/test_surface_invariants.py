from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hexcover import catalog
from hexcover.appell_humbert import intersection_number
from hexcover.cli import _double_cover
from hexcover.surface_invariants import (
    BranchCase,
    NonIntegral,
    SingularityProfile,
    ball_quotient_check,
    enumerate_branch_profiles,
    product_quotient_invariants,
    resolution_invariants,
)

import golden


def test_resolution_published_cases():
    for (l2, mults), expected in golden.RESOLUTION_INVARIANTS.items():
        result = resolution_invariants(SingularityProfile(l2, mults))
        assert tuple(result) == expected
        assert Fraction(result.chi).denominator == 1


def test_resolution_fractional_chi_is_flagged_not_raised():
    result = resolution_invariants(SingularityProfile(7))
    assert result.chi == Fraction(7, 2)
    assert Fraction(result.chi).denominator == 2
    assert result.k2 == 14


def test_profile_rejects_negligible_points():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            SingularityProfile(8, [3, bad])
    with pytest.raises(AttributeError):
        SingularityProfile(8, [3]).l2 = 9


def test_branch_enumeration_for_degree_eight():
    cases = enumerate_branch_profiles()
    assert [c.label for c in cases] == ["I", "II"]
    first, second = cases
    assert first.d2 == 32
    assert first.profile == SingularityProfile(8, [3])
    assert "multiplicity 6" in first.singularities
    assert second.d2 == 24
    assert second.profile == SingularityProfile(6, [2, 2])
    assert second.singularities == "two ordinary singular points of multiplicity 4"
    for case in cases:
        assert tuple(resolution_invariants(case.profile)) == (1, 8)


def test_branch_case_validates_label():
    with pytest.raises(ValueError):
        BranchCase("III", 32, "anything", SingularityProfile(8, [3]))


def test_double_cover_published_cases():
    # a branch curve 2L of square d2 with quads ordinary quadruple points
    # is the resolution profile (d2 / 4, [2] * quads)
    for (d2, quads), expected in golden.DOUBLE_COVER_INVARIANTS.items():
        assert d2 % 4 == 0
        profile = SingularityProfile(d2 // 4, [2] * quads)
        assert tuple(resolution_invariants(profile)) == expected
        assert tuple(_double_cover(d2, quads)) == expected


def test_double_cover_errors():
    # the branch curve is 2L, so its square is 4 L^2
    for d2 in (2, 10, 25, -3):
        with pytest.raises(NonIntegral):
            _double_cover(d2, 0)
    with pytest.raises(NonIntegral):
        _double_cover(26, 2)


def test_product_quotient_published_cases():
    for (g, order), expected in golden.PRODUCT_QUOTIENT_INVARIANTS.items():
        assert product_quotient_invariants(g, order) == expected
        # arithmetic oracle, avoiding the library's Fraction path
        assert (g - 1) ** 2 % order == 0
        assert expected == ((g - 1) ** 2 // order, 8 * (g - 1) ** 2 // order)


def test_product_quotient_errors():
    with pytest.raises(NonIntegral):
        product_quotient_invariants(3, 3)
    with pytest.raises(ValueError):
        product_quotient_invariants(1, 4)
    with pytest.raises(ValueError):
        product_quotient_invariants(3, 0)


def test_ball_quotient_identities():
    assert ball_quotient_check()
    assert ball_quotient_check(k2=8, chi=1)
    assert not ball_quotient_check(k2=9)
    assert not ball_quotient_check(k2=7)
    assert not ball_quotient_check(chi=2)


def test_cover_self_intersection_feeds_double_cover_formula():
    d2 = intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                             catalog.COVER_LATTICE)
    assert d2 == golden.SELF_INT_COVER
    assert _double_cover(d2, 2) == [1, 8]


@st.composite
def unit_chi_profiles(draw):
    mults = draw(st.lists(st.integers(min_value=2, max_value=7), max_size=5))
    l2 = 2 + sum(m * (m - 1) for m in mults)
    return SingularityProfile(l2, mults)


@given(unit_chi_profiles())
def test_degree_formula_on_unit_chi_profiles(profile):
    # whenever chi = 1 the canonical degree collapses to 4 + 2 sum (m - 1)
    result = resolution_invariants(profile)
    assert result.chi == 1
    assert result.k2 == 4 + 2 * sum(m - 1 for m in profile.multiplicities)


@given(st.integers(min_value=-20, max_value=40),
       st.lists(st.integers(min_value=2, max_value=7), max_size=5))
def test_resolution_parity(l2, mults):
    result = resolution_invariants(SingularityProfile(l2, mults))
    assert result.k2 % 2 == 0
    assert (Fraction(result.chi).denominator != 1) == \
        ((l2 - sum(m * (m - 1) for m in mults)) % 2 != 0)
