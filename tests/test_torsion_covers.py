import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcover import catalog, torsion_covers
from hexcover.appell_humbert import (
    NotInLattice,
    im_on_lattice,
    pullback_hom,
    square_roots,
)
from hexcover.eisenstein import ZETA, EisRat, mat, mat_identity
from hexcover.lattice import (
    AmbientVector,
    LatticeBasis,
    ComplexLine,
    coords_in,
    hnf,
)
from hexcover.symmetry import cross_ratio
from hexcover.torsion_covers import (
    CharacterMod2,
    NotOnto,
    TrivialCharacter,
    _torsion_on_curve,
    all_characters,
    check_2divisible,
    classify_characters,
    kernel_lattice,
)

import golden
from golden import EXPECTED
from oracles import (character_value, hnf_index, mat_scale,
                     restricts_nontrivially)


CHARS = all_characters()
# the published period lattices of the four curves
CURVE_LATTICES = tuple(LatticeBasis.from_rows(rows)
                       for rows in golden.CURVE_LATTICES)
ONE = EisRat(1)
# the characters that restrict nontrivially to every curve
SELECTED = EXPECTED["characters.selected"]
UNITS = (ONE, -ONE, ZETA, -ZETA, ZETA - 1, 1 - ZETA)


def test_character_list_matches_published_order():
    assert len(CHARS) == 16
    assert CHARS[0].is_trivial
    assert CHARS[1].values == (-1, -1, 1, -1)
    assert CHARS[15].values == (-1, -1, -1, -1)
    assert tuple(c.values for c in CHARS) == golden.ORDER_TWO_SIGNS


def test_characters_form_an_elementary_group():
    seen = set(CHARS)
    assert len(seen) == 16
    for a, b in itertools.product(CHARS, repeat=2):
        assert a * b in seen
    for a in CHARS:
        assert (a * a).is_trivial


def test_character_rejects_bad_values():
    with pytest.raises(ValueError):
        CharacterMod2((1, 1, 1))
    with pytest.raises(ValueError):
        CharacterMod2((1, 0, 1, 1))
    # signs are ints: no float is truncated and no string parsed
    for bad in ((1.7, -1.2, 1, 1), (1, -1.0, 1, 1), ("1", -1, 1, 1)):
        with pytest.raises(TypeError):
            CharacterMod2(bad)


def test_character_value_by_parity():
    chi = CHARS[1]
    for v, want in zip(catalog.PRODUCT_LATTICE.vectors, chi.values):
        assert character_value(chi, v) == want
    rng = random.Random(314)
    basis = catalog.PRODUCT_LATTICE.vectors
    for _ in range(200):
        n = [rng.randint(-5, 5) for _ in range(4)]
        m = [rng.randint(-5, 5) for _ in range(4)]
        v = sum((a * b for a, b in zip(n, basis)), AmbientVector((0, 0, 0, 0)))
        w = sum((a * b for a, b in zip(m, basis)), AmbientVector((0, 0, 0, 0)))
        chi = CHARS[rng.randrange(16)]
        assert character_value(chi, v + w) == \
            character_value(chi, v) * character_value(chi, w)


def test_kernel_lattices_match_published_bases():
    for k, rows in golden.KERNEL_BASIS_PUBLISHED.items():
        published = LatticeBasis.from_rows(rows)
        got = kernel_lattice(CHARS[k])
        assert hnf(got, catalog.PRODUCT_LATTICE) == hnf(
            published, catalog.PRODUCT_LATTICE)
    assert hnf(kernel_lattice(CHARS[1]), catalog.PRODUCT_LATTICE) == hnf(
        catalog.COVER_LATTICE, catalog.PRODUCT_LATTICE)


def test_kernel_lattice_properties_all_characters():
    for k in range(1, 16):
        chi = CHARS[k]
        kernel = kernel_lattice(chi)
        assert hnf_index(kernel, catalog.PRODUCT_LATTICE) == 2
        for v in kernel.vectors:
            assert character_value(chi, v) == 1
        # doubling any lattice vector lands in the kernel
        for v in catalog.PRODUCT_LATTICE.vectors:
            coords = coords_in(kernel, 2 * v)
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)


def test_kernel_lattice_rejects_trivial():
    with pytest.raises(TrivialCharacter):
        kernel_lattice(CHARS[0])
    with pytest.raises(TrivialCharacter):
        check_2divisible(CHARS[0])


def test_restriction_examples():
    lam = CURVE_LATTICES
    trivial_on = classify_characters().trivial_on
    # fourth curve lattice contains l1+l2-u2, on which chi_1 is -1
    v = lam[3].vectors[0]
    assert character_value(CHARS[1], v) == -1
    assert restricts_nontrivially(CHARS[1], lam[3])
    assert 3 not in trivial_on[1]
    # chi_4 is +1 on both generators of the second curve lattice
    assert CHARS[4].value_on_coords([0, 1, 0, 0]) == 1
    assert CHARS[4].value_on_coords([0, 0, 0, 1]) == 1
    assert not restricts_nontrivially(CHARS[4], lam[1])
    assert trivial_on[4] == (1,)
    for sub in lam:
        assert not restricts_nontrivially(CHARS[0], sub)


def test_restriction_requires_sublattice():
    shrunk = LatticeBasis([Fraction(1, 3) * v
                           for v in CURVE_LATTICES[0].vectors])
    with pytest.raises(NotInLattice):
        restricts_nontrivially(CHARS[1], shrunk)


def test_classification_selects_three_characters():
    result = classify_characters()
    assert list(result.selected) == SELECTED
    # the trivial character restricts trivially everywhere
    assert result.trivial_on[0] == (0, 1, 2, 3)
    # every nontrivial character fails on at most one curve
    for k in range(1, 16):
        assert len(result.trivial_on[k]) <= 1
    excluded = [k for k in range(1, 16) if k not in result.selected]
    assert len(excluded) == 12
    for k in excluded:
        assert len(result.trivial_on[k]) == 1


def test_classification_incidence_table():
    result = classify_characters()
    assert len(result.curve_incidence) == 4
    for got, want in zip(result.curve_incidence,
                         golden.CURVE_TORSION_PARITIES):
        assert got == frozenset(want)
    assert [len(got) for got in result.curve_incidence] == \
        EXPECTED["characters.curve_torsion_counts"]
    union = set().union(*result.curve_incidence)
    # curves meet pairwise only at the origin
    assert len(union) == EXPECTED["characters.covered_torsion"]
    assert result.leftover_count == EXPECTED["characters.leftover_torsion"]
    assert result.leftover == {p for p in itertools.product((0, 1), repeat=4)
                               if any(p)} - union


def test_trivial_on_matches_generator_oracle():
    # the incidence read off the curve maps agrees with chi evaluated on
    # the generators of the published curve lattices
    result = classify_characters()
    for chi, trivial in zip(CHARS, result.trivial_on):
        assert trivial == tuple(
            k for k, sub in enumerate(CURVE_LATTICES)
            if not restricts_nontrivially(chi, sub))


@pytest.mark.parametrize("form", [
    (0, ZETA + 1),                      # onto the index-3 ideal (1 + zeta)
    (2, 0),                             # onto 2 Z[zeta]
    (0, EisRat(Fraction(1, 2))),        # off Z[zeta]
    (0, 0),                             # the zero map
])
def test_curve_map_not_onto_raises(form):
    with pytest.raises(NotOnto):
        _torsion_on_curve(mat([[0, 0], list(form)]))


def _kernel_line(f):
    """The line killed by F = a*z1 + b*z2, the second row of the curve map
    f, solved for z2 when b is nonzero."""
    (_, _), (a, b) = f
    return ComplexLine((ONE, -a / b) if b else (EisRat(0), ONE))


@given(st.tuples(*[st.sampled_from(UNITS)] * 4))
def test_unit_multiples_of_the_curve_maps_change_nothing(units):
    scaled = tuple(mat_scale(u, f) for u, f in zip(units, catalog.CURVE_MAPS))
    lines = tuple(map(_kernel_line, scaled))
    assert lines == catalog.CURVE_LINES
    assert cross_ratio(*lines) == cross_ratio(*catalog.CURVE_LINES)
    result = classify_characters()
    assert tuple(map(_torsion_on_curve, scaled)) == result.curve_incidence
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog, "CURVE_MAPS", scaled)
        again = torsion_covers._classification.__wrapped__()
    assert again.selected == result.selected
    assert again.trivial_on == result.trivial_on
    assert again.curve_incidence == result.curve_incidence


def test_excluded_witness_curves_match_incidence():
    # a character kills a curve lattice exactly when its -1 locus misses the
    # curve's parity classes
    result = classify_characters()
    for k in range(1, 16):
        chi = CHARS[k]
        for c, parities in enumerate(result.curve_incidence):
            trivial = all(chi.value_on_coords(p) == 1 for p in parities)
            assert trivial == (c in result.trivial_on[k])


def test_2divisibility_selects_same_characters():
    for k in range(1, 16):
        want = k in SELECTED
        assert check_2divisible(CHARS[k]) == want
        all_restrict = all(restricts_nontrivially(CHARS[k], sub)
                           for sub in CURVE_LATTICES)
        assert all_restrict == want


def test_2divisibility_witness_entry():
    # Im h(l1+u2, l2+u2) on the first kernel basis
    v = catalog.COVER_LATTICE.vectors[1]
    w = catalog.COVER_LATTICE.vectors[2]
    witness = EXPECTED["characters.witness_parity"]
    assert catalog.SUM_FORM.im_value(v, w) == witness
    alt = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    assert alt.matrix[1][2] == witness


def test_excluded_characters_have_odd_entry():
    for k in range(1, 16):
        alt = im_on_lattice(catalog.SUM_FORM, kernel_lattice(CHARS[k]))
        odd = [x for x in alt.upper_triangle() if x % 2]
        if k in SELECTED:
            assert not odd
        else:
            assert odd


def test_square_root_count_per_character():
    for k in range(1, 16):
        pulled = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2),
                              kernel_lattice(CHARS[k]))
        n = len(square_roots(pulled))
        assert n == (16 if k in SELECTED else 0)


def test_cover_base_point_is_2torsion_on_cover():
    a = catalog.BRANCH_BASE_POINT
    inside = coords_in(catalog.PRODUCT_LATTICE, a)
    assert inside is not None and all(c.denominator == 1 for c in inside)
    on_cover = coords_in(catalog.COVER_LATTICE, a)
    assert any(c.denominator != 1 for c in on_cover)
    doubled = coords_in(catalog.COVER_LATTICE, 2 * a)
    assert all(c.denominator == 1 for c in doubled)
