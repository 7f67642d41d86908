from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hexcover import catalog
from hexcover.appell_humbert import intersection_number
from hexcover.cli import _double_cover, _invariants_rows
from hexcover.surface_invariants import (
    NonIntegral,
    SingularityProfile,
    ball_quotient_check,
    enumerate_branch_profiles,
    product_quotient_invariants,
    resolution_invariants,
)

import golden
from golden import EXPECTED
from oracles import brute_force_branch_profiles


def test_resolution_published_cases():
    for check_id, profile in (
            ("invariants.resolution_sextuple", SingularityProfile(8, [3])),
            ("invariants.resolution_quadruples",
             SingularityProfile(6, [2, 2])),
            ("invariants.smooth_baseline", SingularityProfile(2))):
        result = resolution_invariants(profile)
        assert list(result) == EXPECTED[check_id]
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
    # l2 and the multiplicities are ints: nothing is truncated or parsed,
    # and a bool is not a count
    for l2, mults in ((6.9, [2.5, 2.2]), (6, [2.0, 2]), (8.0, [3]),
                      (Fraction(8), [3]), ("8", [3]), (8, ["3"]),
                      (True, [2]), (8, [3, True])):
        with pytest.raises(TypeError):
            SingularityProfile(l2, mults)


def test_branch_enumeration_for_degree_eight():
    profiles = enumerate_branch_profiles()
    assert profiles == [SingularityProfile(8, [3]),
                        SingularityProfile(6, [2, 2])]
    for profile, check_id in zip(profiles, (
            "invariants.resolution_sextuple",
            "invariants.resolution_quadruples")):
        assert list(resolution_invariants(profile)) == EXPECTED[check_id]
    # the labels, the branch squares D^2 = 4 L^2 and the descriptions are
    # derived from the profiles
    rows = dict(_invariants_rows())
    for check_id in ("invariants.branch_labels", "invariants.branch_degrees",
                     "invariants.branch_descriptions"):
        assert rows[check_id] == EXPECTED[check_id]


def test_branch_enumeration_matches_brute_force():
    profiles = enumerate_branch_profiles()
    found = [(p.l2, p.multiplicities) for p in profiles]
    assert len(set(found)) == len(found)
    assert set(found) == brute_force_branch_profiles()


def test_double_cover_published_cases():
    # a branch curve 2L of square d2 with quads ordinary quadruple points
    # is the resolution profile (d2 / 4, [2] * quads)
    for d2, quads, check_id in (
            (EXPECTED["invariants.cover_branch_square"], 2,
             "invariants.double_cover"),
            (8, 0, "invariants.smooth_double_cover")):
        assert d2 % 4 == 0
        profile = SingularityProfile(d2 // 4, [2] * quads)
        assert list(resolution_invariants(profile)) == EXPECTED[check_id]
        assert _double_cover(d2, quads) == EXPECTED[check_id]


def test_double_cover_errors():
    # the branch curve is 2L, so its square is 4 L^2
    for d2 in (2, 10, 25, -3):
        with pytest.raises(NonIntegral):
            _double_cover(d2, 0)
    with pytest.raises(NonIntegral):
        _double_cover(26, 2)


def test_product_quotient_published_cases():
    cases = {(3, 4): tuple(EXPECTED["invariants.product_quotient"]),
             **golden.PRODUCT_QUOTIENT_INVARIANTS}
    for (g, order), expected in cases.items():
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
    # g and the group order are ints, as ball_quotient_check's arguments are
    for g, order in ((3, True), (True, 4), (3.0, 4), (3, 4.0),
                     (3, Fraction(4)), ("3", 4)):
        with pytest.raises(TypeError):
            product_quotient_invariants(g, order)


def test_ball_quotient_identities():
    assert ball_quotient_check(8, 1)
    assert ball_quotient_check(k2=8, chi=1)
    assert not ball_quotient_check(k2=9, chi=1)
    assert not ball_quotient_check(k2=7, chi=1)
    assert not ball_quotient_check(k2=8, chi=2)
    # k2 and chi are ints: nothing is truncated or parsed
    for k2, chi in ((8.0, 1.0), (8.0, 1), (8, 1.0), ("8", 1), (8, "1"),
                    (8, Fraction(1)), (True, 1), (8, True)):
        with pytest.raises(TypeError):
            ball_quotient_check(k2, chi)


def test_cover_self_intersection_feeds_double_cover_formula():
    d2 = intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                             catalog.COVER_LATTICE)
    assert d2 == EXPECTED["invariants.cover_branch_square"]
    assert _double_cover(d2, 2) == EXPECTED["invariants.double_cover"]


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
