import functools
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexcover import catalog, symmetry
from hexcover.eisenstein import (ZETA, EisRat, _gf3_residues, _zeta_mul,
                                 mat, mat_identity)
from hexcover.lattice import AmbientVector, LatticeBasis, _int_product
from hexcover.permgroup import PermGroup, Permutation
from hexcover.symmetry import (
    ANTIHOLO_REFLECTION,
    AffineSymmetry,
    BASE_POINT_SWAP,
    DegenerateQuadruple,
    NEGATION,
    NotDivisorPreserving,
    NotLatticePreserving,
    NotOfOrderThree,
    ORDER4_SYMMETRY,
    ORDER6_SYMMETRY,
    PRODUCT_ORDER3,
    RootNotFound,
    _SEARCH_TARGETS,
    _TILTED_TANGENT_PAIRS,
    _UNITS,
    _entry_domains,
    _first_tangent_pairs,
    _lattice_map,
    _same_map,
    _shear_inverse,
    _tangent_permutation,
    _unit_det_walk,
    action_on_square_roots,
    antiholomorphic_in_sheared_frame,
    cross_ratio,
    from_sheared_frame,
    gamma_action_on_sigma,
    preserves_divisor,
    pull_back,
    rational_rep,
    search_generators,
    verify_presentation,
)
from hexcover.appell_humbert import pullback_hom, square_roots, translate

import golden
from golden import EXPECTED
from oracles import (ComplexLine, bundle_with_exponents, complex_line,
                     eisrat_conj, eisrat_det2, eisrat_inv2, eisrat_mat_mul,
                     eisrat_rows,
                     formula_compose, formula_inverse, is_unit,
                     line_permutation, maps_equal, mat_scale, parse_cycles,
                     perm_inverse, q_zeta_cross_ratio, q_zeta_pull_back,
                     q_zeta_push_vector, scan_search_generators,
                     scan_unit_det_candidates)
from strategies import eis_matrices, eis_rationals, unimodular_matrices


ROOTS = square_roots(catalog.BRANCH_COVER)

# The five symmetries behind the orbits.perm_* checks.
PERM_SYMMETRIES = {
    "order4": ORDER4_SYMMETRY,
    "order6": ORDER6_SYMMETRY,
    "negation": NEGATION,
    "translation": BASE_POINT_SWAP,
    "reflection": ANTIHOLO_REFLECTION,
}


IDENTITY = AffineSymmetry(mat_identity(2))


def unit_det_candidates(bound):
    """The search's unit-determinant entry quadruples, flattened from one
    pass of _unit_det_walk."""
    return [(a11, a12, a21, a22)
            for a11, a22, hits in _unit_det_walk(_entry_domains(bound))
            for a12, a21 in hits]


def first_tangent_pairs(domains):
    """The (a11, a21) pairs that pass the search's prefilter, flattened
    from the a21 sets of _first_tangent_pairs."""
    return {(a11, a21) for a11, a21s in
            _first_tangent_pairs(domains[0], domains[2]).items()
            for a21 in a21s}


def eis_matrix(pairs):
    return mat([[EisRat(*entry) for entry in row] for row in pairs])


# the four generator candidates in the sheared frame of the search: the two
# published generators and their negatives
TILTED = tuple(eis_matrix(m) for m in EXPECTED["search.tilted_matrices"])


def ambient_tangent_permutation(linear, antiholomorphic):
    """_tangent_permutation of a Q(zeta) matrix on the ambient tangents, as
    preserves_divisor calls it, on the pairs of its EisMat."""
    return _tangent_permutation(mat(linear)[1], antiholomorphic,
                                catalog.CURVE_LINES)


def tilted_tangent_permutation(quad):
    """_tangent_permutation of an entry quadruple (a11, a12, a21, a22) on
    the tilted tangents, as search_generators calls it."""
    a11, a12, a21, a22 = quad
    return _tangent_permutation(((a11, a12), (a21, a22)), False,
                                _TILTED_TANGENT_PAIRS)


def tangent_line_permutation(g):
    """The permutation of the four tangent lines induced by g, which must
    preserve the branch divisor."""
    assert preserves_divisor(g)
    return Permutation(ambient_tangent_permutation(g.linear,
                                                   g.antiholomorphic))


def test_projective_point_equality_is_scale_invariant():
    # the oracle's projective points, ComplexLines, against which the
    # package's tangent directions are checked
    zeta = EisRat(0, 1)
    p = ComplexLine((1, zeta))
    q = ComplexLine((zeta, zeta * zeta))
    assert p == q and hash(p) == hash(q)
    assert p != ComplexLine((1, 0))
    with pytest.raises(ValueError):
        ComplexLine((0, 0))


def test_affine_symmetry_validation():
    with pytest.raises(ValueError):
        AffineSymmetry([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        AffineSymmetry([[1, 0, 0], [0, 1, 0]])


def test_affine_symmetry_rejects_untyped_translation():
    for bad in ((Fraction(1, 2), 0, 0, 0), (0.5, 0, 0, 0), None):
        with pytest.raises(TypeError, match="AmbientVector"):
            AffineSymmetry(mat_identity(2), translation=bad)


def test_affine_symmetry_rejects_non_bool_antiholomorphic():
    for bad in ("no", 0, 1, None):
        with pytest.raises(TypeError, match="must be a bool"):
            AffineSymmetry(mat_identity(2), bad)
    assert AffineSymmetry(mat_identity(2), False) == IDENTITY


def test_anti_flag_composition():
    anti2 = formula_compose(ANTIHOLO_REFLECTION, ANTIHOLO_REFLECTION)
    assert not anti2.antiholomorphic
    assert maps_equal(anti2, IDENTITY, catalog.COVER_LATTICE)
    mixed = formula_compose(ANTIHOLO_REFLECTION, ORDER4_SYMMETRY)
    assert mixed.antiholomorphic


def test_rational_rep_examples():
    got = rational_rep(ORDER4_SYMMETRY, catalog.COVER_LATTICE)
    assert got == golden.RATIONAL_REP_ORDER4
    ident = rational_rep(IDENTITY, catalog.COVER_LATTICE)
    assert ident == tuple(tuple(int(i == j) for j in range(4))
                          for i in range(4))
    got_sigma = rational_rep(ANTIHOLO_REFLECTION, catalog.COVER_LATTICE)
    assert got_sigma == golden.RATIONAL_REP_SIGMA


def test_rational_rep_rejects_nonpreserving():
    with pytest.raises(NotLatticePreserving):
        rational_rep(AffineSymmetry([[Fraction(1, 2), 0], [0, 1]]),
                     catalog.COVER_LATTICE)
    with pytest.raises(NotLatticePreserving):
        rational_rep(AffineSymmetry([[2, 0], [0, 1]]), catalog.COVER_LATTICE)


def test_maps_equal_up_to_lattice_translation():
    tau = BASE_POINT_SWAP
    conjugated = formula_compose(formula_compose(tau, NEGATION),
                                 formula_inverse(tau))
    assert maps_equal(conjugated, NEGATION, catalog.COVER_LATTICE)
    assert not maps_equal(NEGATION, IDENTITY,
                          catalog.COVER_LATTICE)
    assert not maps_equal(BASE_POINT_SWAP, IDENTITY,
                          catalog.COVER_LATTICE)


def test_preserves_divisor_on_generators():
    for g in (ORDER4_SYMMETRY, ORDER6_SYMMETRY, BASE_POINT_SWAP,
              ANTIHOLO_REFLECTION, NEGATION):
        assert preserves_divisor(g)


def test_preserves_divisor_rejects_generic_torsion_translation():
    half = AmbientVector([Fraction(c, 2)
                          for c in catalog.COVER_LATTICE.vectors[2].coordinates])
    g = AffineSymmetry([[1, 0], [0, 1]], translation=half)
    assert not preserves_divisor(g)
    # translating by a full lattice vector is fine
    g0 = AffineSymmetry([[1, 0], [0, 1]],
                        translation=catalog.COVER_LATTICE.vectors[2])
    assert preserves_divisor(g0)


def test_preserves_divisor_rejects_line_breaking_map():
    shear2 = AffineSymmetry(eisrat_mat_mul(catalog.FRAME_SHEAR,
                                           catalog.FRAME_SHEAR))
    rational_rep(shear2, catalog.COVER_LATTICE)  # lattice is preserved
    assert not preserves_divisor(shear2)
    assert ambient_tangent_permutation(shear2.linear, False) is None


def test_tangent_line_permutations():
    assert tangent_line_permutation(ORDER4_SYMMETRY).cycles() == \
        golden.TANGENT_PERM_ORDER4
    assert tangent_line_permutation(ORDER6_SYMMETRY).cycles() == \
        golden.TANGENT_PERM_ORDER6
    assert tangent_line_permutation(ANTIHOLO_REFLECTION).cycles() == \
        golden.TANGENT_PERM_SIGMA
    assert tangent_line_permutation(NEGATION) == Permutation.identity(4)


def test_tilted_tangent_points_match_published():
    # the published points (num : den) and the search's directions are the
    # same four points of the projective line, up to a unit per point
    published = [ComplexLine((EisRat(*num), EisRat(*den)))
                 for num, den in golden.TANGENT_POINTS_COVER_FRAME]
    assert list(map(complex_line, _TILTED_TANGENT_PAIRS)) == published


def test_cross_ratio_of_tangent_quadruple():
    value = cross_ratio(*_TILTED_TANGENT_PAIRS)
    assert value == EisRat(*EXPECTED["search.cross_ratio"])
    # the value is the inverse of the primitive sixth root of unity
    assert EisRat(0, 1) * value == EisRat(1)
    # same quadruple written in the standard frame
    assert cross_ratio(*catalog.CURVE_LINES) == value
    assert q_zeta_cross_ratio(*map(complex_line, catalog.CURVE_LINES)) == \
        value


def rational_point(x, y):
    """The direction (x, y) of rational integers, as Z[zeta] pairs."""
    return ((x, 0), (y, 0))


def test_cross_ratio_convention_anchor():
    zero = rational_point(0, 1)
    one = rational_point(1, 1)
    inf = rational_point(1, 0)
    x = rational_point(3, 1)
    assert cross_ratio(zero, one, inf, x) == EisRat(Fraction(2, 3))


def test_cross_ratio_klein_invariance():
    points = (rational_point(0, 1), rational_point(1, 1),
              rational_point(1, 0), rational_point(5, 1))
    base = cross_ratio(*points)
    klein = {(), ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}
    for images in itertools.permutations(range(4)):
        perm = Permutation(i + 1 for i in images)
        rearranged = [points[perm(k) - 1] for k in range(1, 5)]
        value = cross_ratio(*rearranged)
        if perm.cycles() in klein:
            assert value == base
        else:
            assert value != base


def test_cross_ratio_degenerate():
    p = rational_point(1, 1)
    inf, zero = rational_point(1, 0), rational_point(0, 1)
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(p, p, inf, zero)
    # (1, zeta) and (zeta, zeta^2) are the same point, and a zero direction
    # is no point at all
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(((1, 0), (0, 1)), inf, zero, ((0, 1), (-1, 1)))
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(p, inf, zero, ((0, 0), (0, 0)))


zeta_integers = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@st.composite
def direction_quadruples(draw):
    """Four integral directions, each a Z[zeta] pair (x, y); often one is
    a Z[zeta] multiple of another, or zero."""
    points = [draw(st.tuples(zeta_integers, zeta_integers))
              for _ in range(4)]
    kind = draw(st.sampled_from(("any", "proportional", "zero")))
    i, j = draw(st.permutations(range(4)))[:2]
    if kind == "proportional":
        c = draw(zeta_integers)
        points[j] = tuple(_zeta_mul(c, x) for x in points[i])
    elif kind == "zero":
        points[j] = ((0, 0), (0, 0))
    return tuple(points)


@given(direction_quadruples())
@example((((1, 0), (0, 1)), ((0, 1), (-1, 1)), ((1, 0), (0, 0)),
          ((0, 0), (1, 0))))
@example((((1, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 0)),
          ((0, 0), (0, 0))))
def test_cross_ratio_matches_q_zeta_oracle(points):
    # the oracle's ComplexLine refuses a zero direction, and compares the
    # others projectively
    if any(x == y == (0, 0) for x, y in points):
        with pytest.raises(DegenerateQuadruple):
            cross_ratio(*points)
        return
    try:
        want = q_zeta_cross_ratio(*map(complex_line, points))
    except DegenerateQuadruple:
        with pytest.raises(DegenerateQuadruple):
            cross_ratio(*points)
    else:
        assert cross_ratio(*points) == want


def test_search_recovers_tilted_generators():
    found = search_generators(3)
    assert len(found) == EXPECTED["search.candidate_count"]
    want = set(TILTED)
    assert {g.linear for g in found} == want
    for g in found:
        assert not g.antiholomorphic
        assert is_unit(eisrat_det2(g.linear))
    # the same four already appear at the minimal bound
    assert {g.linear for g in search_generators(2)} == want
    with pytest.raises(ValueError):
        search_generators(1)


@pytest.mark.parametrize("bound, count", [(2, 1364), (3, 4196)])
def test_search_matches_plain_scan(bound, count):
    candidates = unit_det_candidates(bound)
    assert candidates == scan_unit_det_candidates(bound)
    assert len(candidates) == count
    assert search_generators(bound) == scan_search_generators(bound)


@pytest.mark.parametrize("bound", [2, 3])
def test_search_calls_mat_through_the_module_once_per_candidate(
        monkeypatch, bound):
    # perfbench/selftest.py counts the calls of symmetry.mat inside
    # search_generators(3), one per unit-determinant candidate and two per
    # generator found, and pins them at 4204; a call made through another
    # binding than the module global would go uncounted there and here.
    # Goes with that pin when the self-test is re-pinned.
    candidates = len(scan_unit_det_candidates(bound))
    calls = []
    build = symmetry.mat
    monkeypatch.setattr(symmetry, "mat",
                        lambda rows: calls.append(rows) or build(rows))
    found = search_generators(bound)
    assert len(found) == EXPECTED["search.candidate_count"]
    assert len(calls) == candidates + 2 * len(found)
    if bound == 3:
        assert len(calls) == 4204


def test_first_tangent_equation_reads_only_a11_and_a21():
    # the first tilted tangent is (1, 0), so its image is (a11, a21): on
    # that tangent alone the test reads only the first column
    assert _TILTED_TANGENT_PAIRS[0] == ((1, 0), (0, 0))
    first = _TILTED_TANGENT_PAIRS[:1]
    small = [(x, y) for x in (-1, 0, 2) for y in (-1, 0, 1)]
    for a11, a12, a21, a22 in itertools.product(small, repeat=4):
        fixed = _tangent_permutation(((a11, a12), (a21, a22)), False, first)
        assert fixed == ((1,) if a21 == (0, 0) else None)


@pytest.mark.parametrize("bound", [2, 3])
def test_first_tangent_filter_is_the_first_cross_multiplication(bound):
    domains = _entry_domains(bound)
    passing = first_tangent_pairs(domains)
    x, _ = _TILTED_TANGENT_PAIRS[0]
    want = set()
    for a11, a21 in itertools.product(domains[0], domains[2]):
        # the image of the first tilted tangent under [[a11, 0], [a21, 0]]
        qx, qy = _zeta_mul(a11, x), _zeta_mul(a21, x)
        for target in _SEARCH_TARGETS:
            px, py = _TILTED_TANGENT_PAIRS[target[0] - 1]
            if _zeta_mul(qx, py) == _zeta_mul(px, qy):
                want.add((a11, a21))
    assert passing == want


def test_first_tangent_filter_keeps_every_accepted_candidate():
    passing = first_tangent_pairs(_entry_domains(3))
    candidates = unit_det_candidates(3)
    assert len(candidates) == 4196
    accepted = [c for c in candidates
                if tilted_tangent_permutation(c) in _SEARCH_TARGETS]
    # the four candidates that pass are the four generators the search finds
    assert len(accepted) == EXPECTED["search.candidate_count"]
    assert all((a11, a21) in passing for a11, _, a21, _ in accepted)
    # and it is a filter: most candidates fail it
    assert sum((a11, a21) in passing for a11, _, a21, _ in candidates) < \
        len(candidates) // 10


def test_search_result_does_not_depend_on_bound():
    at3 = search_generators(3)
    for bound in (4, 5, 6):
        assert search_generators(bound) == at3


@given(zeta_integers, zeta_integers)
def test_zeta_pair_product_matches_eisrat(x, y):
    assert EisRat(*_zeta_mul(x, y)) == EisRat(*x) * EisRat(*y)


@st.composite
def unit_det_matrices(draw):
    """Integral 2x2 matrices of unit determinant: a unit multiple of either
    a tilted generator, which the tangent test accepts, or a product of
    elementary and diagonal unit matrices, which it mostly rejects."""
    if draw(st.booleans()):
        m = draw(st.sampled_from(TILTED))
    else:
        m = mat_identity(2)
        for _ in range(draw(st.integers(0, 3))):
            t = EisRat(*draw(zeta_integers))
            step = [[1, t], [0, 1]] if draw(st.booleans()) else [[1, 0], [t, 1]]
            m = eisrat_mat_mul(m, mat(step))
        u = EisRat(*draw(st.sampled_from(_UNITS)))
        m = eisrat_mat_mul(m, mat([[1, 0], [0, u]]))
    return mat_scale(EisRat(*draw(st.sampled_from(_UNITS))), m)


def integer_tangent_test(linear):
    den, ((a11, a12), (a21, a22)) = mat(linear)
    assert den == 1
    return tilted_tangent_permutation((a11, a12, a21, a22)) in _SEARCH_TARGETS


@given(unit_det_matrices())
def test_integer_tangent_test_matches_q_zeta_permutation(linear):
    assert is_unit(eisrat_det2(linear))
    assert integer_tangent_test(linear) == \
        (line_permutation(linear, False, _TILTED_TANGENT_PAIRS)
         in _SEARCH_TARGETS)


def test_integer_tangent_test_accepts_and_rejects():
    for u in _UNITS:
        scale = EisRat(*u)
        for m in TILTED:
            assert integer_tangent_test(mat_scale(scale, m))
        # unit scalars fix every tangent, which is neither target
        assert not integer_tangent_test(mat_scale(scale, mat_identity(2)))
    for u in set(_UNITS) - {(1, 0)}:
        # diag(1, u), u != 1, moves the fourth tangent off the quadruple
        off = mat([[1, 0], [0, EisRat(*u)]])
        for m in TILTED:
            assert not integer_tangent_test(eisrat_mat_mul(m, off))


@pytest.mark.parametrize("tangents", [catalog.CURVE_LINES,
                                      _TILTED_TANGENT_PAIRS],
                         ids=["ambient", "tilted"])
@pytest.mark.parametrize("antiholomorphic", [False, True])
def test_tangent_test_matches_q_zeta_permutation_on_a_box(antiholomorphic,
                                                          tangents):
    # all 2401 matrices with entries 0 or a unit of Z[zeta], singular ones
    # included, against the Q(zeta) oracle
    entries = ((0, 0),) + _UNITS
    kept = 0
    for a11, a12, a21, a22 in itertools.product(entries, repeat=4):
        pairs = ((a11, a12), (a21, a22))
        linear = tuple(tuple(EisRat(*x) for x in row) for row in pairs)
        got = _tangent_permutation(pairs, antiholomorphic, tangents)
        assert got == line_permutation(linear, antiholomorphic, tangents)
        # a singular matrix permutes no quadruple
        assert got is None or _zeta_mul(a11, a22) != _zeta_mul(a12, a21)
        kept += got is not None
    # the box holds maps that permute the quadruple, not only rejections
    assert kept
    # rows (y, -x), (y, -x), conjugated first when antiholomorphic, for the
    # second direction (x, y): it goes to zero, which lies on every
    # tangent, and the others to one line (on the ambient tangents without
    # the distinctness test this gave (3, 1, 3, 3))
    x, y = tangents[1]
    row = (y, tuple(-c for c in x))
    if antiholomorphic:
        row = tuple((a + b, -b) for a, b in row)
    linear = tuple(tuple(EisRat(*e) for e in r) for r in (row, row))
    assert line_permutation(linear, antiholomorphic, tangents) is None
    assert _tangent_permutation((row, row), antiholomorphic, tangents) is None


def test_shear_conjugation_recovers_standard_generators():
    shear = catalog.FRAME_SHEAR
    unshear = eisrat_inv2(shear)
    conjugates = {mat(eisrat_mat_mul(eisrat_mat_mul(shear, m), unshear))
                  for m in TILTED}
    assert conjugates == {eis_matrix(m)
                          for m in EXPECTED["search.ambient_conjugates"]}
    assert {catalog.ORDER4_GEN, catalog.ORDER6_GEN} <= conjugates
    assert {from_sheared_frame(m) for m in TILTED} == conjugates
    # the anti-holomorphic reflection moves to the sheared frame the same way
    tilted_refl = eisrat_mat_mul(eisrat_mat_mul(unshear,
                                                catalog.SIGMA_LINEAR),
                                 eisrat_conj(shear))
    assert tilted_refl == \
        eisrat_rows(eis_matrix(EXPECTED["search.reflection_in_sheared_frame"]))
    assert eisrat_rows(antiholomorphic_in_sheared_frame(
        catalog.SIGMA_LINEAR)) == tilted_refl


@given(eis_matrices)
def test_frame_changes_match_eisrat_oracle(m):
    # eisrat_rows also checks that the results are canonical EisMats
    shear = catalog.FRAME_SHEAR
    unshear = eisrat_inv2(shear)
    assert eisrat_rows(from_sheared_frame(mat(m))) == \
        eisrat_mat_mul(eisrat_mat_mul(shear, m), unshear)
    assert eisrat_rows(antiholomorphic_in_sheared_frame(mat(m))) == \
        eisrat_mat_mul(eisrat_mat_mul(unshear, m), eisrat_conj(shear))


def test_tilted_tangents_are_the_ambient_ones_in_the_sheared_frame():
    # the columns of S^-1 D, D the tangent directions as columns; the
    # inverse of the shear is integral, so the pairs are exact
    directions = tuple(tuple(EisRat(*p) for p in row)
                       for row in zip(*catalog.CURVE_LINES))
    tilted = eisrat_mat_mul(eisrat_inv2(catalog.FRAME_SHEAR), directions)
    assert _TILTED_TANGENT_PAIRS == tuple(
        tuple((x.a, x.b) for x in column) for column in zip(*tilted))


@given(eis_matrices)
@example(catalog.FRAME_SHEAR)
# a unit determinant other than 1, 1 - zeta, so conj(d) / N(d) is not 1
@example(mat([[1, ZETA], [1, 1]]))
def test_cleared_inverse_inverts(m):
    # S . S^-1 = I on the cleared inverse, for the frame shear S and others
    assume(eisrat_det2(m))
    inverse = _shear_inverse(mat(m))
    assert eisrat_rows(inverse) == eisrat_inv2(m)
    identity = eisrat_rows(mat_identity(2))
    assert eisrat_mat_mul(m, inverse) == identity
    assert eisrat_mat_mul(inverse, m) == identity


@pytest.mark.parametrize("singular", [
    [[0, ZETA], [0, 1]], [[1, ZETA], [0, 0]], [[1, ZETA], [ZETA, ZETA - 1]]])
def test_singular_shear_raises_a_typed_error(singular):
    # a singular frame shear raised ZeroDivisionError from the EisRat
    # division of the 2x2 inverse
    with pytest.raises(NotLatticePreserving, match="singular"):
        _shear_inverse(mat(singular))


def test_presentation_relations():
    assert verify_presentation(ORDER4_SYMMETRY, ORDER6_SYMMETRY)
    assert not verify_presentation(IDENTITY, ORDER6_SYMMETRY)
    # g3^2 is not the negation map, nor g2^3 (g2 has order 4)
    assert not verify_presentation(ORDER6_SYMMETRY, ORDER4_SYMMETRY)


def test_presentation_is_false_for_a_generator_off_the_lattice():
    doubling = AffineSymmetry([[2, 0], [0, 1]])
    with pytest.raises(NotLatticePreserving):
        rational_rep(doubling, catalog.COVER_LATTICE)
    assert verify_presentation(doubling, ORDER6_SYMMETRY) is False
    assert verify_presentation(ORDER4_SYMMETRY, doubling) is False


def test_negated_generator():
    # squares are unaffected by the sign, but the triple product flips:
    # (-g . g')^3 = -(g g')^3 = +1, so the literal relation list fails even
    # though the two elements generate the same order-24 group
    negated = AffineSymmetry(mat_scale(-1, catalog.ORDER4_GEN))
    assert maps_equal(formula_compose(negated, negated), NEGATION,
                      catalog.COVER_LATTICE)
    prod = formula_compose(negated, ORDER6_SYMMETRY)
    triple = formula_compose(formula_compose(prod, prod), prod)
    assert maps_equal(triple, IDENTITY,
                      catalog.COVER_LATTICE)
    assert not verify_presentation(negated, ORDER6_SYMMETRY)
    pneg = action_on_square_roots(negated, ROOTS)
    pg3 = action_on_square_roots(ORDER6_SYMMETRY, ROOTS)
    pg2 = action_on_square_roots(ORDER4_SYMMETRY, ROOTS)
    assert PermGroup([pneg, pg3]).elements() == \
        PermGroup([pg2, pg3]).elements()


def test_action_matches_published_cycles():
    for name, g in PERM_SYMMETRIES.items():
        assert str(action_on_square_roots(g, ROOTS)) == \
            EXPECTED[f"orbits.perm_{name}"]
    neg = action_on_square_roots(NEGATION, ROOTS)
    assert action_on_square_roots(BASE_POINT_SWAP, ROOTS) == neg


def test_action_is_a_homomorphism():
    pairs = [(ORDER4_SYMMETRY, ORDER6_SYMMETRY),
             (ORDER6_SYMMETRY, ANTIHOLO_REFLECTION),
             (ANTIHOLO_REFLECTION, BASE_POINT_SWAP),
             (ANTIHOLO_REFLECTION, ANTIHOLO_REFLECTION)]
    for g, h in pairs:
        lhs = action_on_square_roots(formula_compose(g, h), ROOTS)
        rhs = action_on_square_roots(g, ROOTS) * action_on_square_roots(h, ROOTS)
        assert lhs == rhs


def test_commutator_square_is_negation():
    pg2 = action_on_square_roots(ORDER4_SYMMETRY, ROOTS)
    pg3 = action_on_square_roots(ORDER6_SYMMETRY, ROOTS)
    c = pg2 * pg3 * perm_inverse(pg2) * perm_inverse(pg3)
    assert str(c * c) == EXPECTED["orbits.perm_negation"]
    # and at the level of maps on the surface
    g2, g3 = ORDER4_SYMMETRY, ORDER6_SYMMETRY
    comm = functools.reduce(formula_compose, (g2, g3, formula_inverse(g2),
                                              formula_inverse(g3)))
    assert maps_equal(formula_compose(comm, comm), NEGATION,
                      catalog.COVER_LATTICE)


def test_action_errors():
    shear2 = AffineSymmetry(eisrat_mat_mul(catalog.FRAME_SHEAR,
                                           catalog.FRAME_SHEAR))
    with pytest.raises(NotDivisorPreserving):
        action_on_square_roots(shear2, ROOTS)
    broken = list(ROOTS)
    off = AmbientVector((Fraction(1, 3), 0, 0, 0))
    broken[6] = translate(broken[6], off)
    with pytest.raises(RootNotFound):
        action_on_square_roots(BASE_POINT_SWAP, broken)


def test_holomorphic_group_structure():
    pg2 = action_on_square_roots(ORDER4_SYMMETRY, ROOTS)
    pg3 = action_on_square_roots(ORDER6_SYMMETRY, ROOTS)
    group = PermGroup([pg2, pg3])
    assert group.order == EXPECTED["orbits.holo_order"]
    matrices = [_gf3_residues(g.linear)
                for g in (ORDER4_SYMMETRY, ORDER6_SYMMETRY)]
    assert group.matrix_group_name(matrices) == EXPECTED["orbits.holo_group"]
    order2 = [str(p) for p in group.elements() if p.order() == 2]
    assert order2 == [EXPECTED["orbits.perm_negation"]]
    assert sorted(sorted(o) for o in group.orbits()) == \
        EXPECTED["orbits.holo_partition"]


def test_full_group_structure():
    pg2 = action_on_square_roots(ORDER4_SYMMETRY, ROOTS)
    pg3 = action_on_square_roots(ORDER6_SYMMETRY, ROOTS)
    psigma = action_on_square_roots(ANTIHOLO_REFLECTION, ROOTS)
    group = PermGroup([pg2, pg3, psigma])
    assert group.order == EXPECTED["orbits.full_order"]
    matrices = [_gf3_residues(g.linear) for g in
                (ORDER4_SYMMETRY, ORDER6_SYMMETRY, ANTIHOLO_REFLECTION)]
    assert group.matrix_group_name(matrices) == EXPECTED["orbits.full_group"]
    assert sorted(sorted(o) for o in group.orbits()) == \
        EXPECTED["orbits.full_partition"]


def test_pull_back_translation_only():
    moved = pull_back(BASE_POINT_SWAP, ROOTS[0])
    assert moved == ROOTS[6]


def test_gamma_character_cycle():
    got = gamma_action_on_sigma()
    assert str(got) == EXPECTED["search.rotation_cycle"]
    assert got.order() == EXPECTED["search.rotation_order"]


def test_gamma_lattice_images():
    rep = rational_rep(PRODUCT_ORDER3, catalog.PRODUCT_LATTICE)
    # columns: images of (l1, l2, u1, u2) are e1-l1, l1+l2, -l1, e1+e2
    assert rep == ((-1, 1, -1, 0),
                   (0, 1, 0, 0),
                   (1, 0, 0, 1),
                   (0, 0, 0, 1))
    cubed = functools.reduce(formula_compose, [PRODUCT_ORDER3] * 3)
    assert maps_equal(cubed, IDENTITY,
                      catalog.PRODUCT_LATTICE)
    assert ambient_tangent_permutation(PRODUCT_ORDER3.linear, False) \
        is not None


def test_gamma_action_rejects_a_symmetry_not_of_order_three(monkeypatch):
    monkeypatch.setattr(symmetry, "PRODUCT_ORDER3", NEGATION)
    with pytest.raises(NotOfOrderThree, match="not of order 3"):
        gamma_action_on_sigma()


def _cycle_type(text):
    return sorted(len(c) for c in parse_cycles(text))


def _rebased_cover_roots(u):
    """The sixteen square roots of the branch bundle on COVER_LATTICE with
    basis vector j replaced by sum_k u[k][j] b_k."""
    old = catalog.COVER_LATTICE.vectors
    lattice = LatticeBasis([
        sum((u[k][j] * b for k, b in enumerate(old)), AmbientVector((0,) * 4))
        for j in range(4)])
    return square_roots(pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2),
                                     lattice))


@settings(max_examples=5, deadline=None)
@given(unimodular_matrices())
def test_orbits_invariant_under_rebasing(u):
    roots = _rebased_cover_roots(u)
    assert len(roots) == EXPECTED["orbits.root_count"]
    perms = {name: action_on_square_roots(g, roots)
             for name, g in PERM_SYMMETRIES.items()}
    holo = PermGroup([perms["order4"], perms["order6"]])
    full = PermGroup([perms["order4"], perms["order6"], perms["reflection"]])
    assert holo.order == EXPECTED["orbits.holo_order"]
    assert full.order == EXPECTED["orbits.full_order"]
    for group, key in ((holo, "orbits.holo_partition"),
                       (full, "orbits.full_partition")):
        assert sorted(len(o) for o in group.orbits()) == \
            sorted(len(block) for block in EXPECTED[key])
    for name, perm in perms.items():
        assert sorted(len(c) for c in perm.cycles()) == \
            _cycle_type(EXPECTED[f"orbits.perm_{name}"])


@settings(max_examples=4, deadline=None)
@given(unimodular_matrices())
@example([[int(i == j) for j in range(4)] for i in range(4)])
def test_pull_back_matches_q_zeta_oracle_under_rebasing(u):
    roots = _rebased_cover_roots(u)
    for g in PERM_SYMMETRIES.values():
        for root in roots:
            assert pull_back(g, root) == q_zeta_pull_back(g, root)


CANONICAL_SYMMETRIES = (ORDER4_SYMMETRY, ORDER6_SYMMETRY, NEGATION,
                        BASE_POINT_SWAP, ANTIHOLO_REFLECTION)


# Words that are the identity map of the torus.  The last two compose to
# translations by nonzero cover-lattice vectors, so equality must allow for
# a lattice shift.
COVER_RELATIONS = ([NEGATION, NEGATION], [ORDER4_SYMMETRY] * 4,
                   [ORDER6_SYMMETRY] * 6,
                   [ANTIHOLO_REFLECTION, ANTIHOLO_REFLECTION],
                   [BASE_POINT_SWAP, BASE_POINT_SWAP],
                   [BASE_POINT_SWAP, ANTIHOLO_REFLECTION, BASE_POINT_SWAP,
                    ANTIHOLO_REFLECTION])
PRODUCT_RELATIONS = ([NEGATION, NEGATION], [PRODUCT_ORDER3] * 3)


@st.composite
def symmetry_words(draw, letters, relations):
    """Two nonempty words in the given symmetries; half the time the second
    is the first with a relation inserted, the same map of the torus."""
    word = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=5))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(word)))
        return word, word[:at] + draw(st.sampled_from(relations)) + word[at:]
    return word, draw(st.lists(st.sampled_from(letters), min_size=1,
                               max_size=5))


def _word_maps(word, basis):
    """The word composed as AffineSymmetry objects, by the Q(zeta)
    formula, and as lattice maps."""
    return (functools.reduce(formula_compose, word),
            functools.reduce(_int_product,
                             [_lattice_map(g, basis) for g in word]))


def _augmented(lattice_map):
    """The augmented matrix [[R, t], [0, 1]] of a lattice map in Fractions,
    after checking that it is an integer matrix whose last row is
    (0, 0, 0, 0, d) for a d > 0."""
    d = lattice_map[4][4]
    assert all(type(x) is int for row in lattice_map for x in row)
    assert d > 0 and lattice_map[4] == (0, 0, 0, 0, d)
    return [[Fraction(x, d) for x in row] for row in lattice_map]


@pytest.mark.parametrize("letters, relations, basis", [
    (CANONICAL_SYMMETRIES, COVER_RELATIONS, catalog.COVER_LATTICE),
    ((PRODUCT_ORDER3, NEGATION), PRODUCT_RELATIONS, catalog.PRODUCT_LATTICE),
], ids=["cover", "product"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_maps_match_affine_composition(letters, relations, basis,
                                               data):
    word, other = data.draw(symmetry_words(letters, relations))
    g, composed = _word_maps(word, basis)
    assert _augmented(composed) == _augmented(_lattice_map(g, basis))
    h, other_composed = _word_maps(other, basis)
    assert _same_map(composed, other_composed) == maps_equal(g, h, basis)


def test_rational_rep_rejection_names_the_basis_vector():
    # fixes u1 = b_1 and sends b_2 = zeta*u1 + u2 outside the lattice; the
    # message names b_2, not its conjugate
    halving = AffineSymmetry([[1, 0], [0, Fraction(1, 2)]],
                             antiholomorphic=True)
    second = catalog.COVER_LATTICE.vectors[1]
    assert q_zeta_push_vector(halving.linear, second, True) != second
    with pytest.raises(NotLatticePreserving,
                       match=re.escape(f"image of {second!r} ")):
        rational_rep(halving, catalog.COVER_LATTICE)


def test_action_raises_when_a_root_is_dropped():
    for dropped in (0, 6, 15):
        short = ROOTS[:dropped] + ROOTS[dropped + 1:]
        with pytest.raises(RootNotFound):
            action_on_square_roots(ORDER4_SYMMETRY, short)
    # same exponents on another form: found by the lookup, rejected by ==
    decoy = list(ROOTS)
    decoy[3] = bundle_with_exponents(catalog.SUM_FORM, ROOTS[3].lattice,
                                     ROOTS[3].character.exponents)
    with pytest.raises(RootNotFound):
        action_on_square_roots(NEGATION, decoy)


@pytest.mark.parametrize("g", [ORDER6_SYMMETRY, BASE_POINT_SWAP,
                               ANTIHOLO_REFLECTION])
def test_action_gives_first_index_of_a_duplicate(g, monkeypatch):
    # a list with a duplicate has no permutation; read the raw images
    monkeypatch.setattr(symmetry, "Permutation", tuple)
    for roots in ([ROOTS[5]] + ROOTS, ROOTS + [ROOTS[2]],
                  ROOTS[:9] + [ROOTS[12]] + ROOTS[9:]):
        want = tuple(roots.index(pull_back(g, r)) + 1 for r in roots)
        assert action_on_square_roots(g, roots) == want


@st.composite
def tangent_permuting_maps(draw):
    """A nonzero Q(zeta) multiple of the (anti)linear part of a word in the
    canonical symmetries, which permutes the four tangents."""
    g = IDENTITY
    for _ in range(draw(st.integers(0, 4))):
        g = formula_compose(g, draw(st.sampled_from(
            (ORDER4_SYMMETRY, ORDER6_SYMMETRY, ANTIHOLO_REFLECTION))))
    c = draw(eis_rationals)
    assume(c)
    return mat_scale(c, g.linear), g.antiholomorphic


# w -> M R conj(w) in the sheared frame, M the identity or a tilted
# generator and R the anti-holomorphic reflection there: anti-holomorphic
# maps that permute the tilted tangents
tilted_reflections = st.tuples(
    st.sampled_from((mat_identity(2),) + TILTED).map(
        lambda m: eisrat_mat_mul(m, eis_matrix(
            EXPECTED["search.reflection_in_sheared_frame"]))),
    st.just(True))
# sheared-frame cases: unit-determinant matrices, of which the tilted
# generators' multiples permute the tilted tangents, and the reflections
tilted_cases = st.one_of(st.tuples(unit_det_matrices(), st.booleans()),
                         tilted_reflections)
AMBIENT_FRAME = catalog.CURVE_LINES
TILTED_FRAME = _TILTED_TANGENT_PAIRS


@given(st.one_of(
    st.tuples(eis_matrices, st.booleans(),
              st.sampled_from((AMBIENT_FRAME, TILTED_FRAME))),
    tangent_permuting_maps().map(lambda case: (*case, AMBIENT_FRAME)),
    tilted_cases.map(lambda case: (*case, TILTED_FRAME))))
def test_tangent_permutation_matches_q_zeta_oracle(case):
    # the ambient tangents, as preserves_divisor asks, and the tilted ones,
    # as the search asks
    linear, antiholomorphic, tangents = case
    assume(eisrat_det2(linear))
    assert _tangent_permutation(mat(linear)[1], antiholomorphic,
                                tangents) == \
        line_permutation(linear, antiholomorphic, tangents)


@given(st.one_of(st.tuples(eis_matrices, st.booleans()), tilted_cases))
def test_tangent_permutation_is_the_same_in_both_frames(case):
    # the tilted tangents are the ambient ones in the sheared frame w with
    # z = S w, so a map w -> M w (or M conj(w)) and its ambient form
    # S M S^-1 (or S M conj(S)^-1) permute the two quadruples alike
    linear, anti = case
    assume(eisrat_det2(linear))
    shear = catalog.FRAME_SHEAR
    back = eisrat_inv2(eisrat_conj(shear) if anti else shear)
    ambient = eisrat_mat_mul(eisrat_mat_mul(shear, linear), back)
    assert _tangent_permutation(mat(linear)[1], anti,
                                _TILTED_TANGENT_PAIRS) == \
        ambient_tangent_permutation(ambient, anti)


@st.composite
def maybe_singular_matrices(draw):
    """2x2 Q(zeta) matrices, fractional entries included; in two draws of
    three the matrix is singular, with proportional rows or columns."""
    kind = draw(st.sampled_from(("any", "rows", "columns")))
    if kind == "any":
        return draw(eis_matrices)
    a, b, c = draw(eis_rationals), draw(eis_rationals), draw(eis_rationals)
    if kind == "rows":
        return ((a, b), (c * a, c * b))
    return ((a, c * a), (b, c * b))


@given(maybe_singular_matrices(), st.booleans())
def test_invertibility_check_matches_det2(linear, anti):
    if eisrat_det2(linear):
        assert AffineSymmetry(linear, anti).linear == mat(linear)
    else:
        with pytest.raises(ValueError, match="must be invertible"):
            AffineSymmetry(linear, anti)
