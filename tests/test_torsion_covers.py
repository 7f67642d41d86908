import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
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
    coords_in,
)
from hexcover.symmetry import cross_ratio
from hexcover.torsion_covers import (
    CharacterMod2,
    NotOnto,
    TrivialCharacter,
    _kernel_coordinates,
    _torsion_on_curve,
    all_characters,
    check_2divisible,
    classify_characters,
    kernel_lattice,
)

import golden
from golden import EXPECTED
from oracles import (ComplexLine, character_value, complex_line, eisrat_rows,
                     first_doubled_kernel, hermitian_value, hnf_index,
                     kernel_restricted_form, mat_scale,
                     q_zeta_torsion_on_curve, restricts_nontrivially,
                     sympy_det, sympy_product, sympy_hnf)
from strategies import eis_rationals


CHARS = all_characters()
# generators of the published period lattices of the four curves
CURVE_LATTICES = tuple(tuple(map(AmbientVector, rows))
                       for rows in golden.CURVE_LATTICES)
ONE = EisRat(1)
# the characters that restrict nontrivially to every curve
SELECTED = EXPECTED["characters.selected"]
UNITS = (ONE, -ONE, ZETA, -ZETA, ZETA - 1, 1 - ZETA)


def trivial_curves(chi, incidence):
    """The curves (0-based) on which chi restricts trivially: those whose
    2-torsion classes, as parity vectors in incidence, chi sends to +1."""
    return tuple(c for c, points in enumerate(incidence)
                 if all(chi.value_on_coords(p) == 1 for p in points))


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
    # __mul__ returns NotImplemented for anything else: a TypeError
    for other in (3, 1.5, None):
        with pytest.raises(TypeError, match="unsupported operand"):
            CharacterMod2([1, 1, 1, -1]) * other


def test_character_rejects_bad_values():
    with pytest.raises(ValueError):
        CharacterMod2((1, 1, 1))
    with pytest.raises(ValueError):
        CharacterMod2((1, 0, 1, 1))
    # signs are ints: no float is truncated, no string parsed and no bool
    # read as 1
    for bad in ((1.7, -1.2, 1, 1), (1, -1.0, 1, 1), ("1", -1, 1, 1),
                (True, 1, 1, 1), (1, -1, 1, True)):
        with pytest.raises(TypeError):
            CharacterMod2(bad)


def test_character_value_refuses_non_lattice_coordinates():
    chi = CharacterMod2([1, -1, 1, 1])
    # a half-lattice point is no lattice vector, and a float is no
    # coordinate: neither is read by parity
    for bad in ((0, Fraction(1, 2), 0, 0), (0, Fraction(3, 2), 0, 0),
                (0, 0.5, 0, 0), (0, 1.0, 0, 0)):
        with pytest.raises(TypeError):
            chi.value_on_coords(bad)
    # four coordinates exactly: none is dropped or left unread
    for bad in ((0, 1), (0, 1, 0), (0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0)):
        with pytest.raises(ValueError):
            chi.value_on_coords(bad)
    assert chi.value_on_coords((0, 1, 0, 0)) == -1
    assert chi.value_on_coords((3, -3, 2, -2)) == -1
    # a bool coordinate is still read as its int
    assert chi.value_on_coords((0, True, 0, 0)) == -1


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
    product = catalog.PRODUCT_LATTICE
    for k, rows in golden.KERNEL_BASIS_PUBLISHED.items():
        published = LatticeBasis.from_rows(rows)
        assert sympy_hnf(kernel_lattice(CHARS[k]), product) == \
            sympy_hnf(published, product)
    assert sympy_hnf(kernel_lattice(CHARS[1]), product) == \
        sympy_hnf(catalog.COVER_LATTICE, product)


@pytest.mark.parametrize("k", range(1, 16))
def test_kernel_lattice_is_its_hermite_normal_form(k):
    # lower triangular, positive diagonal, each row's entries left of the
    # diagonal reduced into [0, diagonal): with the same lattice as another
    # kernel basis, the normal form is unique, so this is it
    product = catalog.PRODUCT_LATTICE
    kernel = kernel_lattice(CHARS[k])
    dens, columns = zip(*(coords_in(product, v) for v in kernel.vectors))
    assert dens == (1, 1, 1, 1)
    h = list(zip(*columns))
    for i in range(4):
        assert h[i][i] > 0
        assert all(h[i][j] == 0 for j in range(i + 1, 4))
        assert all(0 <= h[i][j] < h[i][i] for j in range(i))
    assert sympy_hnf(kernel, product) == \
        sympy_hnf(first_doubled_kernel(CHARS[k]), product)


def test_kernel_lattice_properties_all_characters():
    for k in range(1, 16):
        chi = CHARS[k]
        kernel = kernel_lattice(chi)
        assert hnf_index(kernel, catalog.PRODUCT_LATTICE) == 2
        for v in kernel.vectors:
            assert character_value(chi, v) == 1
        # doubling any lattice vector lands in the kernel
        for v in catalog.PRODUCT_LATTICE.vectors:
            den, _ = coords_in(kernel, 2 * v)
            assert den == 1


def test_kernel_lattice_rejects_trivial():
    with pytest.raises(TrivialCharacter):
        kernel_lattice(CHARS[0])
    with pytest.raises(TrivialCharacter):
        check_2divisible(CHARS[0])
    with pytest.raises(TrivialCharacter):
        _kernel_coordinates(CHARS[0])


@pytest.mark.parametrize("k", range(1, 16))
def test_restricted_2divisibility_matches_kernel_lattice_route(k):
    chi = CHARS[k]
    kernel = kernel_lattice(chi)
    assert check_2divisible(chi) == \
        im_on_lattice(catalog.SUM_FORM, kernel).is_even()
    assert tuple((1, row) for row in _kernel_coordinates(chi)) == tuple(
        coords_in(catalog.PRODUCT_LATTICE, v) for v in kernel.vectors)


@st.composite
def nonsingular_integer_matrices(draw):
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=4,
                                  max_size=4), min_size=4, max_size=4))
    assume(sympy_det(rows) != 0)
    return rows


@given(nonsingular_integer_matrices())
def test_restriction_of_the_product_form_is_im_h_on_the_sublattice(m):
    # Im h on the lattice with product coordinates M is M E M^T, E the
    # form on the product basis
    e = im_on_lattice(catalog.SUM_FORM, catalog.PRODUCT_LATTICE).matrix
    restricted = sympy_product(sympy_product(m, e), list(zip(*m)))
    assert restricted == [list(row)
                          for row in kernel_restricted_form(m).matrix]


def test_restriction_examples():
    lam = CURVE_LATTICES
    incidence = classify_characters().curve_incidence
    # fourth curve lattice contains l1+l2-u2, on which chi_1 is -1
    v = lam[3][0]
    assert character_value(CHARS[1], v) == -1
    assert restricts_nontrivially(CHARS[1], lam[3])
    assert 3 not in trivial_curves(CHARS[1], incidence)
    # chi_4 is +1 on both generators of the second curve lattice
    assert CHARS[4].value_on_coords([0, 1, 0, 0]) == 1
    assert CHARS[4].value_on_coords([0, 0, 0, 1]) == 1
    assert not restricts_nontrivially(CHARS[4], lam[1])
    assert trivial_curves(CHARS[4], incidence) == (1,)
    for sub in lam:
        assert not restricts_nontrivially(CHARS[0], sub)


def test_restriction_requires_sublattice():
    shrunk = tuple(Fraction(1, 3) * v for v in CURVE_LATTICES[0])
    with pytest.raises(NotInLattice):
        restricts_nontrivially(CHARS[1], shrunk)


def test_classification_selects_three_characters():
    result = classify_characters()
    assert list(result.selected) == SELECTED
    trivial_on = [trivial_curves(chi, result.curve_incidence) for chi in CHARS]
    # the trivial character restricts trivially everywhere
    assert trivial_on[0] == (0, 1, 2, 3)
    # every nontrivial character fails on at most one curve
    for k in range(1, 16):
        assert len(trivial_on[k]) <= 1
    excluded = [k for k in range(1, 16) if k not in result.selected]
    assert len(excluded) == 12
    for k in excluded:
        assert len(trivial_on[k]) == 1


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
    for chi in CHARS:
        assert trivial_curves(chi, result.curve_incidence) == tuple(
            k for k, sub in enumerate(CURVE_LATTICES)
            if not restricts_nontrivially(chi, sub))


@pytest.mark.parametrize("form", [
    (0, EisRat(1, 1)),                  # onto the index-3 ideal (1 + zeta)
    (2, 0),                             # onto 2 Z[zeta]
    (0, EisRat(Fraction(1, 2))),        # off Z[zeta]
    (0, 0),                             # the zero map
])
def test_curve_map_not_onto_raises(form):
    curve_map = mat([[0, 0], list(form)])
    with pytest.raises(NotOnto):
        _torsion_on_curve(curve_map)
    with pytest.raises(NotOnto):
        q_zeta_torsion_on_curve(curve_map)


def _kernel_line(f):
    """The line killed by F = a*z1 + b*z2, the second row of the curve map
    f, solved for z2 when b is nonzero."""
    (_, _), (a, b) = eisrat_rows(f)
    return ComplexLine((ONE, -a / b) if b != 0 else (EisRat(0), ONE))


_form_entries = st.one_of(
    st.builds(EisRat, st.integers(-3, 3), st.integers(-3, 3)), eis_rationals)


@given(st.tuples(eis_rationals, eis_rationals),
       st.tuples(_form_entries, _form_entries))
def test_torsion_on_curve_matches_q_zeta_oracle(first_row, form):
    # only the second row is F, so a fractional first row changes nothing
    for f in (*catalog.CURVE_MAPS, mat([first_row, form])):
        try:
            want = q_zeta_torsion_on_curve(f)
        except NotOnto:
            with pytest.raises(NotOnto):
                _torsion_on_curve(f)
        else:
            assert _torsion_on_curve(f) == want


@given(st.tuples(*[st.sampled_from(UNITS)] * 4))
def test_unit_multiples_of_the_curve_maps_change_nothing(units):
    scaled = tuple(mat(mat_scale(u, f))
                   for u, f in zip(units, catalog.CURVE_MAPS))
    lines = tuple(map(_kernel_line, scaled))
    assert lines == tuple(map(complex_line, catalog.CURVE_LINES))
    # the directions catalog.CURVE_LINES would read off the scaled maps
    directions = tuple((b, (-a0, -a1))
                       for _, (_, ((a0, a1), b)) in scaled)
    assert tuple(map(complex_line, directions)) == lines
    assert cross_ratio(*directions) == cross_ratio(*catalog.CURVE_LINES)
    result = classify_characters()
    assert tuple(map(_torsion_on_curve, scaled)) == result.curve_incidence
    assert tuple(map(q_zeta_torsion_on_curve, scaled)) == \
        result.curve_incidence
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog, "CURVE_MAPS", scaled)
        again = torsion_covers._classification.__wrapped__()
    assert again.selected == result.selected
    assert again.curve_incidence == result.curve_incidence


def test_excluded_witness_curves_match_incidence():
    # a character kills a curve lattice exactly when its -1 locus misses the
    # curve's parity classes, so the selected characters are those whose -1
    # locus meets every curve's classes
    result = classify_characters()
    for k in range(1, 16):
        chi = CHARS[k]
        meets_every_curve = all(
            any(chi.value_on_coords(p) == -1 for p in parities)
            for parities in result.curve_incidence)
        assert meets_every_curve == (k in result.selected)


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
    assert hermitian_value(catalog.SUM_FORM, v, w).im == witness
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
    # the characters section's 2-divisibility test and the orbits section's
    # square roots agree on every cover: 16 roots where the form halves,
    # none elsewhere
    for k in range(1, 16):
        pulled = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2),
                              kernel_lattice(CHARS[k]))
        n = len(square_roots(pulled))
        assert n == (16 if check_2divisible(CHARS[k]) else 0)
        assert n == (16 if k in SELECTED else 0)


def test_cover_base_point_is_2torsion_on_cover():
    a = catalog.BRANCH_BASE_POINT
    inside, _ = coords_in(catalog.PRODUCT_LATTICE, a)
    assert inside == 1
    # off the cover lattice, and on it when doubled
    on_cover, _ = coords_in(catalog.COVER_LATTICE, a)
    assert on_cover == 2
    doubled, _ = coords_in(catalog.COVER_LATTICE, 2 * a)
    assert doubled == 1
