import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hexcover import catalog
from hexcover.appell_humbert import LineBundleClass, square_roots
from hexcover.eisenstein import (
    EisMat,
    EisRat,
    ZETA,
    _canonical,
    _Immutable,
    _gf3_residues,
    _pair_product,
    _ratio,
    _rational,
    _zeta_det,
    mat,
    mat_identity,
)

from oracles import (ReIm, close, eis_sum, eisrat_det2, eisrat_mat_mul,
                     eisrat_rows, exact, fraction_eval_coords, in_z_zeta,
                     is_unit, mat_apply, mat_scale, reim_to_complex,
                     scaled_form, sympy_coords, sympy_det, to_complex)
from strategies import hermitian_forms

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
eisrats = st.builds(EisRat, rationals, rationals)


def test_zeta_square_reduces():
    assert ZETA * ZETA == ZETA - 1
    assert ZETA * ZETA - ZETA == EisRat(-1)


def test_multiplicative_identity():
    x = EisRat(Fraction(3, 7), -2)
    assert EisRat(1) * x == x


def test_unit_product_reduces_to_minus_one():
    # (zeta - 1) * (1 - conj(zeta)) = (zeta - 1) * zeta = -1
    left = ZETA - 1
    right = EisRat(1) - ZETA.conjugate()
    assert left * right == EisRat(-1)


def test_conjugation_values():
    assert ZETA.conjugate() == EisRat(1, -1)
    assert EisRat(Fraction(5, 3)).conjugate() == EisRat(Fraction(5, 3))
    x = ZETA - 1
    assert x * x.conjugate() == EisRat(1)


def test_unit_detection():
    assert is_unit(ZETA * ZETA)
    assert not is_unit(EisRat(2))
    assert not is_unit(EisRat(1, 1))


def test_exactly_six_units_in_small_box():
    units = [
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if is_unit(EisRat(a, b))
    ]
    assert len(units) == 6


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", "3", True, 2.0, False])
def test_eisrat_rejects_non_rationals(bad):
    # a float would be rounded into a 53-bit Fraction, a string parsed
    with pytest.raises(TypeError):
        EisRat(bad)
    with pytest.raises(TypeError):
        EisRat(1, bad)


def test_bool_is_not_a_rational():
    # bool is a subclass of int, but True is not the number 1 here
    x = EisRat(1)
    assert x.__eq__(True) is NotImplemented
    assert x != True  # noqa: E712  (the comparison under test)
    for op in (lambda: x - True, lambda: False * x, lambda: x / True):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        mat([[1, True], [0, 1]])


IDENTITY_PAIRS = (((1, 0), (0, 0)), ((0, 0), (1, 0)))


@pytest.mark.parametrize("rows", [
    [[1, 0], [0, 1]],
    ((1, 0), (0, 1)),
    [(EisRat(1), 0), [0, EisRat(1)]],
    ((EisRat(1), EisRat(0)), (EisRat(0), EisRat(1))),
    # a generator of rows, which mat reads once
    (row for row in ((EisRat(1), 0), [0, EisRat(1)])),
    (row for row in ([Fraction(2, 2), 0], (0, EisRat(Fraction(3, 3))))),
])
def test_mat_builds_equal_tuple_matrices(rows):
    # every spelling of the identity gives the one EisMat (1, pairs)
    m = mat(rows)
    assert m == mat_identity(2) == (1, IDENTITY_PAIRS)
    assert type(m) is EisMat and hash(m) == hash((1, IDENTITY_PAIRS))


def test_mat_builds_mixed_rows_entry_by_entry():
    m = mat(((ZETA, EisRat(1)), [ZETA, 1]))
    assert m == (1, (((0, 1), (1, 0)), ((0, 1), (1, 0))))
    assert mat(m) is m
    for bad in ([[1.0, 0], [0, 1]], ((ZETA, 0.5), (0, 1)), [["1", 0], [0, 1]]):
        with pytest.raises(TypeError):
            mat(bad)
    # mat checks the one shape there is, 2x2, as it parses
    for shape in ([], [[1]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]],
                  [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError, match="2x2"):
            mat(shape)
    with pytest.raises(ValueError, match="2x2"):
        mat_identity(3)


# An EisMat, the one canonical matrix, is what mat returns as it is; the
# test keeps the name it had when mat did so for tuples of EisRat tuples.
@pytest.mark.parametrize("m", [mat_identity(2), catalog.FRAME_SHEAR,
                               catalog.ORDER6_GEN, catalog.SIGMA_LINEAR,
                               catalog.GAMMA_ORDER3, catalog.SUM_FORM.matrix,
                               mat([[Fraction(1, 2), ZETA],
                                    [0, Fraction(2, 3)]])])
def test_mat_returns_a_tuple_of_eisrat_tuples_as_it_is(m):
    assert type(m) is EisMat
    assert mat(m) is m


@pytest.mark.parametrize("bad", [True, 0.5, "1"])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_mat_scans_every_entry_of_a_tuple_of_tuples(bad, where):
    # a tuple of tuples with one entry that is not an int, a Fraction or
    # an EisRat is not a matrix, wherever that entry is
    rows = [[1, 0], [0, 1]]
    i, j = where
    rows[i][j] = bad
    with pytest.raises(TypeError):
        mat(tuple(map(tuple, rows)))


@given(eisrats, eisrats)
def test_mul_matches_complex_oracle(x, y):
    got = to_complex(x * y)
    want = to_complex(x) * to_complex(y)
    assert close(got, want)


@given(eisrats)
def test_conj_matches_complex_oracle(x):
    assert close(to_complex(x.conjugate()), to_complex(x).conjugate())
    assert x.conjugate().conjugate() == x


@given(eisrats)
def test_norm_is_squared_modulus(x):
    assert close(float(x.norm()), abs(to_complex(x)) ** 2)


@given(eisrats, eisrats, eisrats)
@settings(max_examples=50)
def test_ring_axioms(x, y, z):
    # EisRat has no addition, so the additive laws are stated on
    # subtraction
    assert x * (y - z) == x * y - x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x - (y - z) == (x - y) - -z
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x - y).conjugate() == x.conjugate() - y.conjugate()


@given(st.one_of(st.integers(-30, 30), rationals), eisrats)
def test_rational_minus_eisrat_anticommutes(x, e):
    assert x - e == -(e - x) == EisRat(x) - e


def test_ring_axioms_bulk_random():
    rng = random.Random(20260822)
    for _ in range(10_000):
        x = EisRat(rng.randint(-9, 9), rng.randint(-9, 9))
        y = EisRat(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(eisrats)
def test_division_inverts_multiplication(x):
    if x == 0:
        return
    y = EisRat(Fraction(7, 2), -3)
    assert (y * x) / x == y
    with pytest.raises(ZeroDivisionError):
        y / EisRat(0)


def test_reim_decomposition():
    # (2 + 4*zeta)/sqrt(3) = 4/sqrt(3) + 2i
    r = ReIm.from_scaled(EisRat(2, 4))
    assert r == ReIm(4, 2)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, "1"])
def test_exact_oracles_reject_non_rationals(bad):
    # Fraction(0.5) and sympy.Rational(0.5) would each take the float
    # silently; the oracles compare exact values only
    assert exact(3) == 3 and exact(Fraction(1, 2)) == Fraction(1, 2)
    for build in (exact, ReIm, lambda x: ReIm(0, x),
                  lambda x: sympy_det([[x]]),
                  lambda x: sympy_coords([[1]], [x]),
                  lambda x: fraction_eval_coords((0,), ((0,),), (x,))):
        with pytest.raises(TypeError):
            build(bad)


@given(eisrats)
def test_reim_round_trip(x):
    r = ReIm.from_scaled(x)
    assert r.to_scaled() == x
    want = to_complex(x) / math.sqrt(3)
    assert close(reim_to_complex(r), want)


def pair_mul(*factors):
    """The product of the EisMats factors, multiplied on their Z[zeta]
    pairs over the product of their denominators and reduced by
    _canonical, as the package computes its matrix products."""
    den, pairs = factors[0]
    for d, p in factors[1:]:
        den, pairs = den * d, _pair_product(pairs, p)
    return _canonical(den, pairs)


def test_matrix_helpers():
    a = mat([[1, ZETA], [0, 1]])
    b = mat([[ZETA, 0], [EisRat(1, -1), 2]])
    ab = pair_mul(a, b)
    # check one entry by hand: (1*zeta + zeta*(1-zeta)) = zeta + zeta - zeta^2
    assert eisrat_rows(ab)[0][0] == 2 * ZETA - ZETA * ZETA
    assert pair_mul(a, mat_identity(2)) == a
    v = (EisRat(1), ZETA)
    assert mat_apply(mat_identity(2), v) == v
    assert mat([[Fraction(1, 2), 0], [0, 0]]) == (2, (((1, 0), (0, 0)),
                                                      ((0, 0), (0, 0))))


zeta_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(st.tuples(zeta_pairs, zeta_pairs), st.tuples(zeta_pairs, zeta_pairs))
def test_zeta_det_matches_eisrat_determinant(x, y):
    rows = tuple(tuple(EisRat(*p) for p in row) for row in (x, y))
    assert EisRat(*_zeta_det(x, y)) == eisrat_det2(rows)
    # rows or columns: the transpose has the same determinant
    assert _zeta_det(x, y) == _zeta_det(*zip(x, y))


@st.composite
def matrix_chains(draw):
    """Two to four arrays of Z[zeta] pairs whose shapes chain, each
    dimension from 1 to 4, so non-square factors such as a 2x2 times a 2x4
    occur."""
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    return [tuple(tuple(draw(zeta_pairs) for _ in range(k)) for _ in range(n))
            for n, k in zip(dims, dims[1:])]


def _eisrat_array(pairs):
    """An array of Z[zeta] pairs as rows of EisRat."""
    return tuple(tuple(EisRat(*p) for p in row) for row in pairs)


# the directions of the four tangents as the columns of a 2x4 array
TANGENT_DIRECTIONS = tuple(zip(*catalog.CURVE_LINES))


@given(matrix_chains())
# the 2x2 . 2x4 product behind symmetry._TILTED_TANGENT_PAIRS, and a chain
# back to a 2x2 through the 4x2 transpose
@example([(((1, 0), (0, -1)), ((0, 0), (1, 0))), TANGENT_DIRECTIONS])
@example([(((1, 2), (0, 1)), ((0, 0), (3, -1))), TANGENT_DIRECTIONS,
          tuple(zip(*TANGENT_DIRECTIONS))])
def test_pair_product_matches_eisrat_oracle(chain):
    product = chain[0]
    for p in chain[1:]:
        product = _pair_product(product, p)
    want = _eisrat_array(chain[0])
    for p in chain[1:]:
        want = eisrat_mat_mul(want, _eisrat_array(p))
    assert _eisrat_array(product) == want


mixed_entries = st.one_of(st.integers(-30, 30), rationals, eisrats)
literal_rows = st.tuples(st.tuples(mixed_entries, mixed_entries),
                         st.tuples(mixed_entries, mixed_entries))


def _respelled(x):
    """The entry x written another way: a rational as an EisRat, an EisRat
    with no zeta part as its rational part, any other EisRat rebuilt from
    Fractions."""
    if not isinstance(x, EisRat):
        return EisRat(x)
    return x.a if not x.b else EisRat(Fraction(x.a), Fraction(x.b))


@given(literal_rows)
@example(((Fraction(2, 4), 0), (0, 1)))
@example(((EisRat(1, 0), ZETA), (EisRat(Fraction(-3, 6), 2), 5)))
def test_cleared_round_trips(rows):
    # mat parses ints, Fractions and EisRats, mixed, into the one canonical
    # EisMat; eisrat_rows checks den > 0 and gcd 1 before it reads it back
    m = mat(rows)
    assert type(m) is EisMat
    assert eisrat_rows(m) == eisrat_rows(rows)
    # den is the least common denominator of the entries' parts
    want = math.lcm(*(Fraction(q).denominator for row in eisrat_rows(rows)
                      for x in row for q in (x.a, x.b)))
    assert m[0] == want
    # another spelling of every entry is the same matrix and the same key
    other = mat([[_respelled(x) for x in row] for row in rows])
    assert other == m and hash(other) == hash(m)


def test_equal_eisrats_built_differently_hash_equal():
    half = Fraction(1, 2)
    built = [EisRat(1, half),
             EisRat(Fraction(2, 2), Fraction(2, 4)),
             EisRat(Fraction(3, 2), half) - EisRat(half),
             EisRat(2, 1) * EisRat(half),
             -EisRat(-1, -half),
             eisrat_rows(mat([[EisRat(1, half), 0], [0, 0]]))[0][0]]
    want = hash((Fraction(1), half))
    for x in built:
        assert x == built[0]
        # the first call fills the cached hash, the second reads it
        assert hash(x) == want and hash(x) == want
    # equal matrices built from them are one dict key, as the pullback
    # plans need
    plans = {mat([[x, ZETA], [0, x]]): x for x in built}
    assert len(plans) == 1


@given(eisrats, eisrats)
def test_hash_after_arithmetic_matches_a_fresh_eisrat(x, y):
    z = (x - y) - -y
    fresh = EisRat(x.a, x.b)
    assert z == x == fresh
    # a rational hashes as its one coordinate, so that it hashes like the
    # int or Fraction it equals
    want = hash((x.a, x.b)) if x.b else hash(x.a)
    assert hash(z) == hash(x) == hash(fresh) == want


@pytest.mark.parametrize("value", [0, 3, -7, Fraction(3), Fraction(-5, 6)])
def test_rational_eisrat_hashes_as_the_rational_it_equals(value):
    x = EisRat(value)
    assert x == value and hash(x) == hash(value)
    assert {value: "x"}.get(x) == "x" and {x: "x"}.get(value) == "x"
    assert len({value, x}) == 1 and x in {value} and value in {x}


@pytest.mark.parametrize("value, want", [
    (3, 3), (-7, -7), (0, 0),
    (Fraction(6, 3), 2), (Fraction(0), 0),
    (Fraction(-5, 6), Fraction(-5, 6)),
])
def test_rational_is_an_int_exactly_when_integral(value, want):
    got = _rational(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("n, den, want", [
    (6, 3, 2), (-6, 3, -2), (0, 5, 0), (6, -3, -2),
    (1, 2, Fraction(1, 2)), (-4, 6, Fraction(-2, 3)), (3, -6, Fraction(-1, 2)),
])
def test_ratio_is_an_int_exactly_when_den_divides(n, den, want):
    got = _ratio(n, den)
    assert got == want and type(got) is type(want)


def _is_canonical(q) -> bool:
    """q is an int when integral, else a Fraction; never a float or bool."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def _check_parts(x, a, b):
    """x is a + b*zeta for the Fractions a, b, with canonical parts, and it
    hashes as the value with Fraction parts does."""
    assert type(x) is EisRat
    assert _is_canonical(x.a) and _is_canonical(x.b)
    assert x.a == a and x.b == b
    assert hash(x) == (hash((a, b)) if b else hash(a))


mixed_rationals = st.one_of(st.integers(-30, 30), rationals)
mixed_eisrats = st.builds(EisRat, mixed_rationals, mixed_rationals)
mixed_matrices = st.tuples(st.tuples(mixed_eisrats, mixed_eisrats),
                           st.tuples(mixed_eisrats, mixed_eisrats))


@given(mixed_eisrats, mixed_eisrats)
def test_arithmetic_keeps_parts_canonical(x, y):
    # the oracle: the same operations on the parts as Fractions
    a, b, c, d = (Fraction(q) for q in (x.a, x.b, y.a, y.b))
    _check_parts(x, a, b)
    _check_parts(EisRat(a, b), a, b)
    _check_parts(x - y, a - c, b - d)
    _check_parts(x * y, a * c - b * d, a * d + b * c + b * d)
    _check_parts(x.conjugate(), a + b, -b)
    if y != 0:
        # x / y = x * conj(y) / norm(y)
        n = c * c + c * d + d * d
        _check_parts(x / y, (a * c + a * d + b * d) / n, (b * c - a * d) / n)


@given(mixed_matrices, mixed_matrices)
def test_matrix_entries_keep_parts_canonical(m, n):
    product = eisrat_rows(pair_mul(mat(m), mat(n)))
    for row in product:
        for x in row:
            _check_parts(x, Fraction(x.a), Fraction(x.b))
    assert product == eisrat_mat_mul(m, n)


small_pairs = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
pair_arrays = st.tuples(st.tuples(small_pairs, small_pairs),
                        st.tuples(small_pairs, small_pairs))


@given(st.integers(1, 12), pair_arrays, st.integers(1, 6),
       hermitian_forms(), hermitian_forms())
def test_from_pairs_keeps_parts_canonical(den, pairs, k, h1, h2):
    # _canonical reduces (den, pairs) by their gcd, so a common factor k
    # gives the same EisMat; eisrat_rows checks the canonical form
    m = _canonical(den, pairs)
    assert _canonical(k * den, tuple(tuple((k * a, k * b) for a, b in row)
                                     for row in pairs)) == m
    for got, row in zip(eisrat_rows(m), pairs):
        for x, (a, b) in zip(got, row):
            _check_parts(x, Fraction(a, den), Fraction(b, den))
    # the matrices the hermitian forms compute are reduced by it too: the
    # sum of two forms, and the half form of a square root
    assert eisrat_rows((h1 + h2).matrix) == tuple(
        tuple(eis_sum((x, y)) for x, y in zip(r, s))
        for r, s in zip(eisrat_rows(h1.matrix), eisrat_rows(h2.matrix)))
    # 8 h1 has entries in 4 Z[zeta], so Im of it is even on the product
    # lattice and the bundle has square roots
    form = scaled_form(h1, 8)
    bundle = LineBundleClass._from_numerators(
        form, catalog.PRODUCT_LATTICE, 1, (0, 0, 0, 0))
    (half,) = {root.form for root in square_roots(bundle)}
    assert eisrat_rows(half.matrix) == mat_scale(EisRat(Fraction(1, 2)),
                                                 form.matrix)


integers = st.integers(-50, 50)
integral_eisrats = st.builds(EisRat, integers, integers)


@given(integral_eisrats, integral_eisrats)
def test_gf3_residue_is_a_ring_map_fixed_by_conjugation(x, y):
    def residue(z):
        return _gf3_residues(mat([[z, 0], [0, 0]]))[0]

    assert residue(x * y) == residue(x) * residue(y) % 3
    assert residue(x - y) == (residue(x) - residue(y)) % 3
    assert residue(x.conjugate()) == residue(x)
    # 1 + zeta generates the kernel: its multiples, and only they, go to 0
    assert (residue(x) == 0) == in_z_zeta(x / EisRat(1, 1))


def test_gf3_residues_read_rows_and_reject_fractions():
    assert _gf3_residues(mat([[ZETA, -1], [1 - ZETA, 3]])) == (2, 2, 2, 0)
    with pytest.raises(ValueError, match="not an integer"):
        _gf3_residues(mat([[1, Fraction(1, 2)], [0, 1]]))


def _value_cases():
    """For each of the package's value types, by class name: an instance,
    the same value rebuilt from its own data, and instances that differ
    from it in one key slot each (one per slot that can change alone);
    imported here so that the eisenstein tests above need none of it."""
    from hexcover import catalog, symmetry
    from hexcover.appell_humbert import (AltFormOnLattice, HermitianForm,
                                         Semicharacter, im_on_lattice)
    from hexcover.lattice import AmbientVector, LatticeBasis
    from hexcover.permgroup import PermGroup, Permutation
    from oracles import bundle_with_exponents, scaled_form
    from hexcover.surface_invariants import SingularityProfile
    from hexcover.torsion_covers import (CharacterClassification,
                                         CharacterMod2, all_characters,
                                         classify_characters)

    half = Fraction(1, 2)
    rows = [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)]
    bundle = catalog.GENUS1_THETA
    alt = im_on_lattice(bundle.form, bundle.lattice)
    other_alt = im_on_lattice(HermitianForm([[0, 0], [0, 4]]), bundle.lattice)
    negation = [[-1, 0], [0, -1]]
    classes = classify_characters()
    cases = (
        (EisRat(1, 2), EisRat(Fraction(2, 2), 2), EisRat(2, 2), EisRat(1, 3)),
        (AmbientVector((0, 1, 0, 0)), AmbientVector((0, Fraction(2, 2), 0, 0)),
         AmbientVector((0, half, 0, 0)), AmbientVector((0, 1, 0, 1))),
        (catalog.PRODUCT_LATTICE, LatticeBasis.from_rows(rows),
         catalog.COVER_LATTICE),
        (bundle.form, HermitianForm([[0, 0], [0, 2]]),
         HermitianForm([[0, 0], [0, 4]])),
        (alt, AltFormOnLattice(LatticeBasis.from_rows(rows),
                               [list(row) for row in alt.matrix]),
         AltFormOnLattice(catalog.COVER_LATTICE, alt.matrix),
         im_on_lattice(scaled_form(bundle.form, 2), bundle.lattice)),
        # (1/4, ...) has the numerators of (1/2, ...) over another
        # denominator
        (bundle.character, Semicharacter((0, half, 0, half), alt),
         Semicharacter((0, Fraction(1, 4), 0, Fraction(1, 4)), alt),
         Semicharacter((half, half, 0, half), alt),
         Semicharacter((0, half, 0, half), other_alt)),
        # the form is fixed by the character's, so only the character can
        # change alone
        (bundle, bundle_with_exponents(HermitianForm([[0, 0], [0, 2]]),
                                       LatticeBasis.from_rows(rows),
                                       (0, half, 0, half)),
         bundle_with_exponents(bundle.form, bundle.lattice,
                               (half, half, 0, half))),
        (Permutation(range(1, 4)), Permutation([1, 2, 3]),
         Permutation([2, 1, 3])),
        (PermGroup([Permutation(range(1, 4))]),
         PermGroup([Permutation([1, 2, 3])]),
         PermGroup([Permutation([2, 1, 3])])),
        (SingularityProfile(2), SingularityProfile(2, []),
         SingularityProfile(3), SingularityProfile(2, [2])),
        (symmetry.NEGATION,
         symmetry.AffineSymmetry(negation, False, AmbientVector((0,) * 4)),
         symmetry.AffineSymmetry([[1, 0], [0, -1]]),
         symmetry.AffineSymmetry(negation, True),
         symmetry.AffineSymmetry(negation,
                                 translation=AmbientVector((0, 1, 0, 0)))),
        (all_characters()[1], CharacterMod2(list(all_characters()[1].values)),
         all_characters()[2]),
        (classes,
         CharacterClassification(list(classes.selected),
                                 list(classes.curve_incidence),
                                 set(classes.leftover)),
         CharacterClassification(classes.selected[1:],
                                 classes.curve_incidence, classes.leftover),
         CharacterClassification(classes.selected,
                                 classes.curve_incidence[::-1],
                                 classes.leftover),
         CharacterClassification(classes.selected,
                                 classes.curve_incidence, ())),
    )
    return {type(value).__name__: (value, rebuilt, variants)
            for value, rebuilt, *variants in cases}


def _value_types():
    """One instance of each of the package's value types, by class name."""
    return {name: case[0] for name, case in _value_cases().items()}


VALUE_TYPES = ("EisRat", "AmbientVector", "LatticeBasis", "HermitianForm",
               "AltFormOnLattice", "Semicharacter", "LineBundleClass",
               "Permutation", "PermGroup", "SingularityProfile",
               "AffineSymmetry", "CharacterMod2", "CharacterClassification")


def test_value_types_are_the_immutable_subclasses():
    # importing the package's modules defines every subclass
    instances = _value_types()
    assert sorted(VALUE_TYPES) == sorted(instances) == sorted(
        cls.__name__ for cls in _Immutable.__subclasses__())


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable(name):
    value = _value_types()[name]
    assert isinstance(value, _Immutable)
    assert not hasattr(value, "__dict__")
    # neither a slot nor a new attribute can be assigned, and the message
    # names the value's own class
    for attr in (type(value).__slots__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_compare_by_value(name):
    cases = _value_cases()
    value, rebuilt, variants = cases[name]
    assert rebuilt is not value
    assert rebuilt == value and not rebuilt != value
    assert hash(rebuilt) == hash(value)
    assert value.__eq__(object()) is NotImplemented
    for other, (other_value, _, _) in cases.items():
        if other != name:
            assert value != other_value and not value == other_value
    assert variants
    for variant in variants:
        assert variant != value and not variant == value
