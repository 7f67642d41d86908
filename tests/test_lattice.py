import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hexcover import catalog, lattice
from hexcover.eisenstein import EisRat, ZETA, mat
from hexcover.lattice import (
    AmbientVector,
    ComplexLine,
    LatticeBasis,
    NotCommensurable,
    _ambient_matrix,
    _det,
    _gauss_jordan,
    _lattice_coordinates,
    _map_coordinates,
    coords_in,
    hnf,
    integer_coordinates,
)

import golden
from oracles import (ZETA_C, ambient_from_pair, close, hnf_index,
                     q_zeta_push_vector, sympy_coords, sympy_det, sympy_rref,
                     to_complex)
from strategies import (ambient_vectors, eis_matrices, eis_rationals,
                        lattice_bases, rationals)

PRODUCT = LatticeBasis.from_rows(golden.PRODUCT_BASIS)
COVER = LatticeBasis.from_rows(golden.COVER_BASIS)

small_ints = st.integers(min_value=-8, max_value=8)
eis_small = st.builds(EisRat, small_ints, small_ints)


def _vec_complex(v):
    z1, z2 = v.to_pair()
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
    z1, z2 = v.to_pair()
    assert z1 == EisRat(1, Fraction(1, 2))
    assert z2 == EisRat(-3)
    assert ambient_from_pair(z1, z2) == v


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_ambient_vector_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        AmbientVector((1, 0, bad, 0))


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
                       ).filter(any)


@given(directions, directions, eis_rationals.filter(bool))
@example((EisRat(1, 2), EisRat(0, -1)), (EisRat(1), EisRat(0)), EisRat(3, -5))
@example((EisRat(1), ZETA), (EisRat(1), EisRat(0)), ZETA)
def test_complex_line_scale_invariance(d, e, c):
    line = ComplexLine(d)
    scaled = ComplexLine((d[0] * c, d[1] * c))
    assert line == scaled and hash(line) == hash(scaled)
    other = ComplexLine(e)
    crossed = bool(d[0] * e[1] - e[0] * d[1])
    assert (line != other) == crossed
    assert (scaled != other) == crossed
    with pytest.raises(ValueError):
        ComplexLine((0, 0))


def test_dependent_basis_rejected():
    with pytest.raises(ValueError):
        LatticeBasis.from_rows([(1, 0, 0, 0), (2, 0, 0, 0)])


def test_hnf_identity_and_scaling():
    ident = tuple(tuple(Fraction(1 if i == j else 0) for j in range(4))
                  for i in range(4))
    assert hnf(PRODUCT, PRODUCT) == ident
    doubled = LatticeBasis([2 * v for v in PRODUCT.vectors])
    assert hnf(doubled, PRODUCT) == tuple(tuple(2 * x for x in row)
                                          for row in ident)


def test_hnf_is_a_lattice_invariant():
    # rebase the cover lattice by a unimodular shuffle
    v = COVER.vectors
    rebased = LatticeBasis([v[1], v[0] + 3 * v[1], v[3], v[2] - v[3] + v[0]])
    assert hnf(rebased, PRODUCT) == hnf(COVER, PRODUCT)
    assert hnf(rebased, COVER) == hnf(COVER, COVER)


def test_hnf_idempotence():
    h = hnf(COVER, PRODUCT)
    # interpret the normal form rows as product-basis coordinates again
    vectors = []
    for j in range(4):
        acc = AmbientVector((0, 0, 0, 0))
        for i in range(4):
            acc = acc + h[i][j] * PRODUCT.vectors[i]
        vectors.append(acc)
    again = LatticeBasis(vectors)
    assert hnf(again, PRODUCT) == h


def test_hnf_shape_convention():
    h = hnf(COVER, PRODUCT)
    for i in range(4):
        assert h[i][i] > 0
        for j in range(i + 1, 4):
            assert h[i][j] == 0
        for j in range(i):
            assert 0 <= h[i][j] < h[i][i]


def test_index_examples():
    kernel1 = LatticeBasis.from_rows(golden.KERNEL_BASIS_PUBLISHED[1])
    assert hnf_index(kernel1, PRODUCT) == 2
    assert hnf_index(PRODUCT, PRODUCT) == 1
    # a lattice outside the other has a fractional normal form
    doubled = LatticeBasis([2 * v for v in PRODUCT.vectors])
    assert any(x.denominator != 1 for row in hnf(PRODUCT, doubled)
               for x in row)


def test_index_matches_sympy_determinant():
    for k, rows in golden.KERNEL_BASIS_PUBLISHED.items():
        kernel = LatticeBasis.from_rows(rows)
        det = sympy_det(rows)  # product basis is a permutation of the axes
        assert hnf_index(kernel, PRODUCT) == abs(int(det)) == 2


def test_base_change_unimodular():
    # equal normal forms against a common reference mean the same lattice
    w1, w2 = COVER.vectors[0], COVER.vectors[1]
    alt = LatticeBasis([w1, w2, 2 * _scale(ZETA, w1), _scale(ZETA, w2)])
    assert hnf(alt, PRODUCT) == hnf(COVER, PRODUCT)
    assert hnf(COVER, PRODUCT) != hnf(PRODUCT, PRODUCT)


def test_curve_lattices_are_kernels_of_curve_maps():
    # each published curve lattice is killed by its linear form F and is
    # saturated in the product lattice (hnf pivots 1), so it is all of
    # L cap ker F
    for k, rows in enumerate(golden.CURVE_LATTICES):
        (_, _), (a, b) = catalog.CURVE_MAPS[k]
        curve = LatticeBasis.from_rows(rows)
        for v in curve.vectors:
            z1, z2 = v.to_pair()
            assert not a * z1 + b * z2
        h = hnf(curve, PRODUCT)
        pivots = [next(x for x in col if x) for col in zip(*h)]
        assert pivots == [1, 1]
        direction = golden.CURVE_DIRECTIONS[k]
        assert catalog.CURVE_LINES[k] == ComplexLine(
            tuple(EisRat(*x) for x in direction))


def test_not_commensurable():
    rank2 = LatticeBasis.from_rows(golden.CURVE_LATTICES[0])
    with pytest.raises(NotCommensurable):
        hnf(PRODUCT, rank2)


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


def test_coords_in_outside_span():
    rank2 = LatticeBasis.from_rows(golden.CURVE_LATTICES[0])
    assert coords_in(rank2, AmbientVector((0, 0, 1, 0))) is None


def _rows(basis):
    return [v.coordinates for v in basis.vectors]


@given(lattice_bases(4), ambient_vectors)
def test_coords_in_matches_sympy_rank4(basis, v):
    got = coords_in(basis, v)
    assert got == sympy_coords(_rows(basis), v.coordinates)
    again = LatticeBasis.from_rows(_rows(basis))
    assert coords_in(basis, v) == coords_in(again, v) == got


@given(lattice_bases(2), st.tuples(rationals, rationals), ambient_vectors)
def test_coords_in_rank2_inside_and_outside_span(basis, coeffs, v):
    inside = coeffs[0] * basis.vectors[0] + coeffs[1] * basis.vectors[1]
    assert coords_in(basis, inside) == coeffs
    assert coords_in(basis, v) == sympy_coords(_rows(basis), v.coordinates)
    units = [AmbientVector([int(i == j) for j in range(4)]) for i in range(4)]
    off = next(e for e in units if sympy_coords(_rows(basis), e.coordinates)
               is None)
    assert coords_in(basis, inside + off) is None
    again = LatticeBasis.from_rows(_rows(basis))
    assert coords_in(again, inside) == coeffs
    assert coords_in(again, inside + off) is None


@settings(deadline=None)
@given(st.sampled_from((2, 4)).flatmap(lattice_bases),
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
        assert got == sympy_coords(_rows(basis), v.coordinates)
    assert _lattice_coordinates(basis, half) is None
    unit = tuple(int(i == basis.rank - 1) for i in range(basis.rank))
    assert _lattice_coordinates(basis, basis.vectors[-1]) == unit


def test_coords_in_memo_keeps_none_and_fractional_points(monkeypatch):
    basis = LatticeBasis.from_rows(golden.CURVE_LATTICES[0])
    outside = AmbientVector((0, 0, 1, 0))
    half = Fraction(1, 2) * basis.vectors[1]
    solved = []
    solve = lattice._solve
    monkeypatch.setattr(lattice, "_solve",
                        lambda b, v: solved.append(v) or solve(b, v))
    for _ in range(3):
        assert coords_in(basis, outside) is None
        assert coords_in(basis, AmbientVector(outside.coordinates)) is None
        assert coords_in(basis, half) == (0, Fraction(1, 2))
        assert _lattice_coordinates(basis, half) is None
    # each vector is solved once, the one outside the span included
    assert solved == [outside, half]


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
        assert _det(rows) == sympy_det(rows)


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
        assert _det(rows) == det


@given(eis_matrices, st.booleans(),
       st.lists(ambient_vectors, min_size=1, max_size=4))
def test_ambient_matrix_maps_like_mat_apply(f, conjugate_first, vectors):
    images = _map_vectors(_ambient_matrix(f, conjugate_first), vectors)
    assert images == [q_zeta_push_vector(f, v, conjugate_first)
                      for v in vectors]


def test_ambient_matrix_blocks():
    # p + q*zeta = 2 + 3*zeta on the (1, 2) block only
    f = ((EisRat(0), EisRat(2, 3)), (EisRat(0), EisRat(0)))
    den, rows = _ambient_matrix(f)
    assert den == 1
    assert [r[2:] for r in rows[:2]] == [(2, -3), (3, 5)]
    den, rows = _ambient_matrix(f, conjugate_first=True)
    assert [r[2:] for r in rows[:2]] == [(2, 5), (3, -2)]
    assert all(x == 0 for r in rows for x in r[:2]) and \
        all(x == 0 for r in rows[2:] for x in r)
