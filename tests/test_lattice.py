import fractions
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexcover import catalog, lattice
from hexcover.eisenstein import EisRat, ZETA, mat
from hexcover.lattice import (
    AmbientVector,
    LatticeBasis,
    _ambient_matrix,
    _gauss_jordan,
    _int_product,
    _lattice_coordinates,
    _map_coordinates,
    coords_in,
    integer_coordinates,
    orientation,
)

import golden
from oracles import (ZETA_C, ComplexLine, FractionAmbientVector,
                     ambient_from_pair, close, complex_line, coords_fractions,
                     eisrat_rows, fraction_integer_coordinates,
                     fraction_map_coordinates, hnf_index, q_zeta_push_vector,
                     sympy_coords, sympy_det, sympy_product, sympy_rref,
                     to_complex, to_pair)
from strategies import (ambient_vectors, eis_matrices, eis_rationals,
                        lattice_bases, rationals)

PRODUCT = LatticeBasis.from_rows(golden.PRODUCT_BASIS)
COVER = LatticeBasis.from_rows(golden.COVER_BASIS)

small_ints = st.integers(min_value=-8, max_value=8)
eis_small = st.builds(EisRat, small_ints, small_ints)


def _vec_complex(v):
    z1, z2 = to_pair(v)
    return to_complex(z1), to_complex(z2)


def _map_vectors(ambient, vectors):
    """The images of vectors under an _ambient_matrix map, by the integer
    product rational_rep runs on a lattice basis."""
    return _map_coordinates(ambient, integer_coordinates(vectors))


def _scale(c, v):
    """c * v for c in Q(zeta), through the ambient-matrix kernel."""
    return _map_vectors(_ambient_matrix(mat([[c, 0], [0, c]])), (v,))[0]


def test_pair_round_trip():
    v = AmbientVector((1, Fraction(1, 2), -3, 0))
    z1, z2 = to_pair(v)
    assert z1 == EisRat(1, Fraction(1, 2))
    assert z2 == EisRat(-3)
    assert ambient_from_pair(z1, z2) == v


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_ambient_vector_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        AmbientVector((1, 0, bad, 0))


# Rationals with denominators up to 12, so that the four coordinates of a
# vector, and two vectors, have mixed denominators.
mixed_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
mixed_coordinates = st.tuples(*[mixed_rationals] * 4)
scalars = st.one_of(st.integers(-6, 6), mixed_rationals)


def _check_canonical(v, coordinates):
    """v holds the given coordinates as integers over one positive
    denominator in lowest terms, and no Fraction."""
    den, nums = v._den, v._nums
    assert type(den) is int and all(type(n) is int for n in nums)
    assert den >= 1 and gcd(den, *nums) == 1
    assert tuple(Fraction(n, den) for n in nums) == tuple(coordinates)
    assert v.coordinates == tuple(coordinates)


@given(mixed_coordinates)
def test_ambient_vector_is_canonical(coords):
    v = AmbientVector(coords)
    _check_canonical(v, coords)
    assert v == AmbientVector(v.coordinates)
    # the same vector over a multiple of its denominator reduces to it
    for k in (2, 6, v._den):
        w = AmbientVector._from_integers(k * v._den,
                                         [k * n for n in v._nums])
        assert (w._den, w._nums) == (v._den, v._nums)
        assert w == v and hash(w) == hash(v)


def test_ambient_vector_rejects_bool_scalars():
    v = AmbientVector((1, Fraction(1, 2), 0, 3))
    assert v.__mul__(True) is NotImplemented
    with pytest.raises(TypeError):
        v * True


@given(mixed_coordinates, mixed_coordinates)
def test_ambient_vector_equality_and_hash_follow_coordinates(x, y):
    v, w = AmbientVector(x), AmbientVector(y)
    assert (v == w) == (FractionAmbientVector(x) == FractionAmbientVector(y))
    # equal vectors reached by different arithmetic hash alike
    again = (v + w) - w
    assert again == v and hash(again) == hash(v)
    assert ((v - w) == AmbientVector((0, 0, 0, 0))) == (x == y)


@given(mixed_coordinates, mixed_coordinates, scalars)
def test_ambient_vector_arithmetic_matches_fraction_oracle(x, y, c):
    v, w = AmbientVector(x), AmbientVector(y)
    fv, fw = FractionAmbientVector(x), FractionAmbientVector(y)
    for got, want in ((v + w, fv + fw), (v - w, fv - fw), (-v, -fv),
                      (v * c, fv * c), (c * v, fv * c)):
        assert type(got) is AmbientVector
        _check_canonical(got, want.coordinates)


@given(st.lists(mixed_coordinates, min_size=1, max_size=4))
def test_integer_coordinates_match_fraction_oracle(rows):
    got = integer_coordinates([AmbientVector(r) for r in rows])
    assert got == fraction_integer_coordinates(
        [FractionAmbientVector(r) for r in rows])


@given(st.integers(1, 12),
       st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=4, max_size=4),
       st.lists(mixed_coordinates, min_size=1, max_size=4))
def test_map_coordinates_matches_fraction_oracle(den, rows, vectors):
    ambient = (den, tuple(map(tuple, rows)))
    coordinates = integer_coordinates([AmbientVector(v) for v in vectors])
    got = _map_coordinates(ambient, coordinates)
    want = fraction_map_coordinates(ambient, coordinates)
    assert len(got) == len(want)
    for v, f in zip(got, want):
        _check_canonical(v, f.coordinates)


@st.composite
def _product_factors(draw):
    """Two matrices of matching shapes with int entries, or with int and
    Fraction entries mixed; the shapes include the row-times-square
    product of translate and a square-times-column product."""
    n, k, m = draw(st.one_of(st.sampled_from([(1, 4, 4), (4, 4, 1),
                                              (4, 4, 4), (16, 4, 2)]),
                             st.tuples(*[st.integers(1, 5)] * 3)))
    entries = draw(st.sampled_from([st.integers(-30, 30),
                                    st.one_of(st.integers(-30, 30),
                                              rationals)]))
    return tuple(tuple(tuple(draw(entries) for _ in range(cols))
                       for _ in range(rows))
                 for rows, cols in ((n, k), (k, m)))


@st.composite
def _augmented_maps(draw):
    """Two 5x5 lattice maps, integer matrices d [[R, t], [0, 1]] with int
    R, a last column d t of ints and a last row (0, 0, 0, 0, d), as
    symmetry composes them."""
    def augmented():
        d = draw(st.integers(1, 3))
        return tuple([tuple(d * draw(st.integers(-5, 5)) for _ in range(4))
                      + (draw(st.integers(-5, 5)),)
                      for _ in range(4)]) + ((0, 0, 0, 0, d),)
    return augmented(), augmented()


@given(st.one_of(_product_factors(), _augmented_maps()))
def test_int_product_matches_sympy(factors):
    a, b = factors
    got = _int_product(a, b)
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert [list(row) for row in got] == sympy_product(a, b)
    # int factors keep the product on ints
    if all(type(x) is int for m in factors for row in m for x in row):
        assert all(type(x) is int for row in got for x in row)


def test_integer_vector_paths_build_no_fraction(monkeypatch):
    vectors = COVER.vectors + (
        AmbientVector((Fraction(1, 3), 0, Fraction(-1, 2), 2)),)
    ambient = _ambient_matrix(mat([[ZETA, Fraction(1, 2)], [0, 1]]))
    want = fraction_map_coordinates(
        ambient, fraction_integer_coordinates(
            [FractionAmbientVector(v.coordinates) for v in vectors]))

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    # the package imports Fraction from fractions where it builds one
    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    images = _map_coordinates(ambient, integer_coordinates(vectors))
    doubled = [-(v + w - v) - w for v, w in zip(vectors, images)]
    assert doubled == [-(w + w) for w in images]
    assert [hash(d) for d in doubled] == [hash(-(w + w)) for w in images]
    monkeypatch.undo()
    assert [v.coordinates for v in images] == [f.coordinates for f in want]
    assert [v.coordinates for v in doubled] == [(f * -2).coordinates
                                                for f in want]


@given(st.tuples(small_ints, small_ints, small_ints, small_ints))
def test_mul_zeta_is_complex_multiplication(coords):
    v = AmbientVector(coords)
    got = _vec_complex(_scale(ZETA, v))
    want = tuple(ZETA_C * z for z in _vec_complex(v))
    assert close(got[0], want[0]) and close(got[1], want[1])


@given(st.tuples(small_ints, small_ints, small_ints, small_ints))
def test_complex_structure_quadratic_relation(coords):
    v = AmbientVector(coords)
    zv = _scale(ZETA, v)
    assert _scale(ZETA, zv) == zv - v


@given(st.tuples(small_ints, small_ints, small_ints, small_ints), eis_small)
def test_scale_eis_matches_oracle(coords, c):
    v = AmbientVector(coords)
    got = _vec_complex(_scale(c, v))
    want = tuple(to_complex(c) * z for z in _vec_complex(v))
    assert close(got[0], want[0]) and close(got[1], want[1])


# directions with a zero component drawn often, and never both zero
directions = st.tuples(st.one_of(st.just(EisRat(0)), eis_rationals),
                       st.one_of(st.just(EisRat(0)), eis_rationals)
                       ).filter(lambda d: d[0] != 0 or d[1] != 0)


@given(directions, directions, eis_rationals.filter(lambda c: c != 0))
@example((EisRat(1, 2), EisRat(0, -1)), (EisRat(1), EisRat(0)), EisRat(3, -5))
@example((EisRat(1), ZETA), (EisRat(1), EisRat(0)), ZETA)
def test_complex_line_scale_invariance(d, e, c):
    line = ComplexLine(d)
    scaled = ComplexLine((d[0] * c, d[1] * c))
    assert line == scaled and hash(line) == hash(scaled)
    other = ComplexLine(e)
    crossed = d[0] * e[1] - e[0] * d[1] != 0
    assert (line != other) == crossed
    assert (scaled != other) == crossed
    with pytest.raises(ValueError):
        ComplexLine((0, 0))


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        LatticeBasis.from_rows([(1, 0, 0, 0), (2, 0, 0, 0)])


def test_index_examples():
    kernel1 = LatticeBasis.from_rows(golden.KERNEL_BASIS_PUBLISHED[1])
    assert hnf_index(kernel1, PRODUCT) == 2
    assert hnf_index(PRODUCT, PRODUCT) == 1


def test_index_matches_sympy_determinant():
    for k, rows in golden.KERNEL_BASIS_PUBLISHED.items():
        kernel = LatticeBasis.from_rows(rows)
        det = sympy_det(rows)  # product basis is a permutation of the axes
        assert hnf_index(kernel, PRODUCT) == abs(int(det)) == 2


def test_curve_lattices_are_kernels_of_curve_maps():
    # each published curve lattice is killed by its linear form F and is
    # saturated in the product lattice (the 2x2 minors of its generators'
    # product coordinates have gcd 1), so it is all of L cap ker F
    for k, rows in enumerate(golden.CURVE_LATTICES):
        (_, _), (a, b) = eisrat_rows(catalog.CURVE_MAPS[k])
        generators = tuple(map(AmbientVector, rows))
        for v in generators:
            z1, z2 = to_pair(v)
            assert a * z1 == -(b * z2)
        x, y = (_lattice_coordinates(PRODUCT, v) for v in generators)
        assert gcd(*(x[i] * y[j] - x[j] * y[i]
                     for i, j in combinations(range(4), 2))) == 1
        # the same line, perhaps through another direction
        assert complex_line(catalog.CURVE_LINES[k]) == \
            complex_line(golden.CURVE_DIRECTIONS[k])


def test_index_multiplicativity_random_chains():
    rng = random.Random(8)
    for _ in range(25):
        t1 = _random_triangular(rng)
        t2 = _random_triangular(rng)
        mid = _apply(t1, PRODUCT)
        low = _apply(t2, mid)
        assert hnf_index(mid, PRODUCT) == _abs_det4(t1)
        assert hnf_index(low, PRODUCT) == \
            hnf_index(low, mid) * hnf_index(mid, PRODUCT)


def _random_triangular(rng):
    m = [[0] * 4 for _ in range(4)]
    for i in range(4):
        m[i][i] = rng.choice([1, 1, 1, 2, 2])
        for j in range(i):
            m[i][j] = rng.randint(-2, 2)
    return m


def _apply(t, basis):
    vectors = []
    for i in range(4):
        acc = AmbientVector((0, 0, 0, 0))
        for j in range(4):
            acc = acc + t[i][j] * basis.vectors[j]
        vectors.append(acc)
    return LatticeBasis(vectors)


def _abs_det4(t):
    d = 1
    for i in range(4):
        d *= t[i][i]
    return abs(d)


def _rows(basis):
    return [v.coordinates for v in basis.vectors]


@given(lattice_bases(), ambient_vectors)
def test_coords_in_matches_sympy_rank4(basis, v):
    got = coords_in(basis, v)
    assert coords_fractions(got) == sympy_coords(_rows(basis), v.coordinates)
    again = LatticeBasis.from_rows(_rows(basis))
    assert coords_in(basis, v) == coords_in(again, v) == got


@settings(deadline=None)
@given(lattice_bases(),
       st.lists(ambient_vectors, min_size=1, max_size=3))
def test_coords_in_memo_matches_cold_basis_and_sympy(basis, vectors):
    # half a basis vector lies in the span but is not a lattice vector
    half = Fraction(1, 2) * basis.vectors[0]
    queries = vectors + [half, basis.vectors[-1]]
    first = [coords_in(basis, v) for v in queries]
    # equal but distinct vectors, answered from the memo
    again = [coords_in(basis, AmbientVector(v.coordinates)) for v in queries]
    assert again == first
    for v, got in zip(queries, first):
        cold = LatticeBasis(basis.vectors)
        assert coords_in(cold, v) == got
        assert coords_fractions(got) == sympy_coords(_rows(basis),
                                                     v.coordinates)
    assert _lattice_coordinates(basis, half) is None
    assert _lattice_coordinates(basis, basis.vectors[-1]) == (0, 0, 0, 1)


@given(lattice_bases(), st.tuples(*[st.integers(-5, 5)] * 4),
       st.integers(0, 3))
def test_coords_in_is_an_int_tuple_at_lattice_vectors(basis, n, k):
    v = AmbientVector((0, 0, 0, 0))
    for nj, b in zip(n, basis.vectors):
        v = v + nj * b
    got = coords_in(basis, v)
    assert got == (1, n) and all(type(c) is int for c in got[1])
    # the one integer tuple is also the memo's lattice coordinates
    assert _lattice_coordinates(basis, v) is got[1]
    # half a basis vector off: over 2, an odd numerator at that entry only
    den, off = coords_in(basis, v + Fraction(1, 2) * basis.vectors[k])
    assert den == 2 and off[k] == 2 * n[k] + 1
    assert all(type(c) is int and c == 2 * nj
               for j, (c, nj) in enumerate(zip(off, n)) if j != k)


def test_coords_in_memo_keeps_none_and_fractional_points(monkeypatch):
    basis = COVER
    inside = basis.vectors[0] + basis.vectors[2]
    half = Fraction(1, 2) * basis.vectors[1]
    # fractional entries that add up to an integer
    halves = Fraction(1, 2) * (basis.vectors[1] + basis.vectors[3])
    solved = []
    solve = lattice._solve
    monkeypatch.setattr(lattice, "_solve",
                        lambda b, v: solved.append(v) or solve(b, v))
    for _ in range(3):
        assert coords_in(basis, inside) == (1, (1, 0, 1, 0))
        assert _lattice_coordinates(basis, AmbientVector(
            inside.coordinates)) == (1, 0, 1, 0)
        assert coords_in(basis, half) == (2, (0, 1, 0, 0))
        assert _lattice_coordinates(basis, half) is None
        assert _lattice_coordinates(basis, halves) is None
    # each vector is solved once, the fractional points (lattice
    # coordinates None) included
    assert solved == [inside, half, halves]


@st.composite
def integer_matrices(draw):
    """Integer matrices of a drawn shape and rank: square of full rank,
    square and singular, or 2x4 and 3x4 of rank 1 to 3.  A matrix of rank
    r < n is the product of an n x r and an r x width matrix."""
    kind = draw(st.sampled_from(["full", "singular", "wide"]))
    n = draw(st.integers(2, 3) if kind == "wide" else st.integers(2, 4))
    width = 4 if kind == "wide" else n
    rank = {"full": n, "singular": n - 1}.get(kind) or draw(st.integers(1, n))
    entries = st.integers(-5, 5)
    left = [[draw(entries) for _ in range(rank)] for _ in range(n)]
    if rank == width:
        rows = left
    else:
        right = [[draw(entries) for _ in range(width)] for _ in range(rank)]
        rows = [[sum(left[i][k] * right[k][j] for k in range(rank))
                 for j in range(width)] for i in range(n)]
    assume(len(sympy_rref(rows)[1]) == rank)
    return rows


def _elimination_det(rows):
    """The determinant _gauss_jordan's last pivot gives a square matrix:
    d at full rank, else 0."""
    pivots, _, _, d = _gauss_jordan(rows)
    return d if len(pivots) == len(rows) else 0


def _check_elimination(rows):
    pivots, reduced, transform, d = _gauss_jordan(rows)
    width = len(rows[0])
    assert all(type(x) is int for m in (reduced, transform)
               for row in m for x in row) and type(d) is int
    assert [[sum(t * a[j] for t, a in zip(trow, rows)) for j in range(width)]
            for trow in transform] == reduced
    rref, sympy_pivots = sympy_rref(rows)
    assert pivots == sympy_pivots
    for i in range(len(rows)):
        want = [d * x for x in rref[i]] if i < len(pivots) else [0] * width
        assert reduced[i] == want
    if len(rows) == width:
        assert _elimination_det(rows) == sympy_det(rows)


@given(integer_matrices())
def test_gauss_jordan_matches_sympy(rows):
    _check_elimination(rows)


@pytest.mark.parametrize("rows, det", [
    ([[0, 1], [1, 0]], -1),
    ([[0, 2, 1], [3, 1, 0], [1, 0, 4]], -25),
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    ([[0, 3], [0, 5]], 0),
    ([[2, 0, 1, 3], [0, 0, 4, 1], [4, 0, 2, 6]], None),
])
def test_gauss_jordan_on_row_swaps_and_zero_columns(rows, det):
    _check_elimination(rows)
    if det is not None:
        assert _elimination_det(rows) == det


@given(lattice_bases())
def test_orientation_is_the_sign_of_the_determinant(basis):
    det = sympy_det([v.coordinates for v in basis.vectors])
    assert orientation(basis) == (1 if det > 0 else -1)


def test_one_elimination_per_basis(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return _gauss_jordan(rows)

    monkeypatch.setattr(lattice, "_gauss_jordan", counting)
    basis = LatticeBasis.from_rows(golden.COVER_BASIS)
    assert len(calls) == 1
    for v in ((1, 2, 3, 4), (Fraction(1, 2), 0, 1, 0), (0, 0, 5, 0)):
        coords_in(basis, AmbientVector(v))
    orientation(basis)
    assert len(calls) == 1
    # a rank-2 basis cannot be built: it is refused before any elimination
    with pytest.raises(ValueError, match="four vectors"):
        LatticeBasis.from_rows([(1, 0, 0, 0), (0, 0, 1, 0)])
    assert len(calls) == 1


@pytest.mark.parametrize("count", [0, 2, 3, 5])
def test_basis_needs_four_vectors(count):
    rows = golden.PRODUCT_BASIS + ((1, 1, 0, 0),)
    with pytest.raises(ValueError, match="four vectors"):
        LatticeBasis.from_rows(rows[:count])


def test_basis_needs_independent_ambient_vectors():
    v = PRODUCT.vectors
    with pytest.raises(ValueError, match="independent"):
        LatticeBasis([v[0], v[1], v[2], v[0] - 2 * v[2]])
    with pytest.raises(TypeError, match="AmbientVector"):
        LatticeBasis(golden.PRODUCT_BASIS)
    with pytest.raises(TypeError, match="AmbientVector"):
        LatticeBasis([v[0], v[1], v[2], v[3].coordinates])


@given(eis_matrices, st.booleans(),
       st.lists(ambient_vectors, min_size=1, max_size=4))
def test_ambient_matrix_maps_like_mat_apply(f, conjugate_first, vectors):
    images = _map_vectors(_ambient_matrix(mat(f), conjugate_first), vectors)
    assert images == [q_zeta_push_vector(f, v, conjugate_first)
                      for v in vectors]


def test_ambient_matrix_blocks():
    # p + q*zeta = 2 + 3*zeta on the (1, 2) block only
    f = mat(((0, EisRat(2, 3)), (0, 0)))
    den, rows = _ambient_matrix(f)
    assert den == 1
    assert [r[2:] for r in rows[:2]] == [(2, -3), (3, 5)]
    den, rows = _ambient_matrix(f, conjugate_first=True)
    assert [r[2:] for r in rows[:2]] == [(2, 5), (3, -2)]
    assert all(x == 0 for r in rows for x in r[:2]) and \
        all(x == 0 for r in rows[2:] for x in r)
