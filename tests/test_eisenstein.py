import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcover.eisenstein import (
    EisRat,
    ZETA,
    _gf3_residues,
    _integer_matrix,
    as_eis,
    det2,
    inv2,
    mat,
    mat_conj,
    mat_identity,
    mat_mul,
    mat_transpose,
)

from oracles import (ReIm, close, eisrat_mat_mul, is_unit, mat_apply,
                     reim_to_complex, to_complex)
from strategies import eis_matrices

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
eisrats = st.builds(EisRat, rationals, rationals)


def test_zeta_square_reduces():
    assert ZETA * ZETA == ZETA - 1
    assert ZETA * ZETA - ZETA + 1 == EisRat(0)


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


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", "3"])
def test_eisrat_rejects_non_rationals(bad):
    # a float would be rounded into a 53-bit Fraction, a string parsed
    with pytest.raises(TypeError):
        EisRat(bad)
    with pytest.raises(TypeError):
        EisRat(1, bad)


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
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(st.one_of(st.integers(-30, 30), rationals), eisrats)
def test_rational_plus_eisrat_commutes(x, e):
    assert x + e == e + x == EisRat(x) + e


def test_ring_axioms_bulk_random():
    rng = random.Random(20260822)
    for _ in range(10_000):
        x = EisRat(rng.randint(-9, 9), rng.randint(-9, 9))
        y = EisRat(rng.randint(-9, 9), rng.randint(-9, 9))
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(eisrats)
def test_division_inverts_multiplication(x):
    if not x:
        return
    y = EisRat(Fraction(7, 2), -3)
    assert (y * x) / x == y
    with pytest.raises(ZeroDivisionError):
        y / EisRat(0)


def test_reim_decomposition():
    # (2 + 4*zeta)/sqrt(3) = 4/sqrt(3) + 2i
    r = ReIm.from_scaled(EisRat(2, 4))
    assert r == ReIm(4, 2)


@given(eisrats)
def test_reim_round_trip(x):
    r = ReIm.from_scaled(x)
    assert r.to_scaled() == x
    want = to_complex(x) / math.sqrt(3)
    assert close(reim_to_complex(r), want)


def test_matrix_helpers():
    a = mat([[1, ZETA], [0, 1]])
    b = mat([[ZETA, 0], [EisRat(1, -1), 2]])
    ab = mat_mul(a, b)
    # check one entry by hand: (1*zeta + zeta*(1-zeta)) = zeta + zeta - zeta^2
    assert ab[0][0] == ZETA + ZETA - ZETA * ZETA
    assert mat_mul(a, mat_identity(2)) == a
    assert mat_transpose(mat_transpose(a)) == a
    assert mat_conj(mat_conj(b)) == b
    assert det2(mat_mul(a, b)) == det2(a) * det2(b)
    assert mat_mul(a, inv2(a)) == mat_identity(2)
    v = (EisRat(1), ZETA)
    assert mat_apply(mat_identity(2), v) == v
    assert as_eis(Fraction(1, 2)) == EisRat(Fraction(1, 2))


def test_rectangular_shapes():
    f = mat([[ZETA, -1]])           # 1x2 row
    col = mat_transpose(f)          # 2x1
    prod = mat_mul(col, f)          # 2x2
    assert prod[0][1] == ZETA * EisRat(-1)
    assert mat_apply(f, (EisRat(1), EisRat(1))) == (ZETA - 1,)


@st.composite
def multipliable_matrices(draw):
    """A pair of matrices with fractional entries whose shapes are
    2x2 and 2x2, 2x1 and 1x2, or 1x2 and 2x1."""
    n, k, m = draw(st.sampled_from([(2, 2, 2), (2, 1, 2), (1, 2, 1)]))
    a = tuple(tuple(draw(eisrats) for _ in range(k)) for _ in range(n))
    b = tuple(tuple(draw(eisrats) for _ in range(m)) for _ in range(k))
    return a, b


@given(multipliable_matrices())
def test_mat_mul_matches_eisrat_oracle(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product == eisrat_mat_mul(a, b)
    assert all(type(x) is EisRat for row in product for x in row)


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(mat([[1, 0]]), mat([[1, 0]]))


@given(eis_matrices)
def test_integer_matrix_round_trips(m):
    den, pairs = _integer_matrix(m)
    assert den >= 1
    assert tuple(tuple(EisRat(Fraction(a, den), Fraction(b, den))
                       for a, b in row) for row in pairs) == m
    # den is the least common denominator
    assert math.gcd(den, *(x for row in pairs for p in row for x in p)) == 1


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]],
                                  [[1, 0], [0, 1], [1, 1]],
                                  [[1, 0]]])
def test_integer_matrix_rejects_non_square_shapes(rows):
    with pytest.raises(ValueError, match="shape mismatch"):
        _integer_matrix(mat(rows))


def test_equal_eisrats_built_differently_hash_equal():
    half = Fraction(1, 2)
    built = [EisRat(1, half),
             EisRat(Fraction(2, 2), Fraction(2, 4)),
             EisRat(Fraction(3, 2), half) - EisRat(half),
             EisRat(2, 1) * EisRat(half),
             as_eis(EisRat(1, half)),
             mat([[EisRat(1, half)]])[0][0]]
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
    z = (x + y) - y
    fresh = EisRat(x.a, x.b)
    assert z == x == fresh
    assert hash(z) == hash(x) == hash(fresh) == hash((x.a, x.b))


integers = st.integers(-50, 50)
integral_eisrats = st.builds(EisRat, integers, integers)


@given(integral_eisrats, integral_eisrats)
def test_gf3_residue_is_a_ring_map_fixed_by_conjugation(x, y):
    def residue(z):
        (r,) = _gf3_residues(((z,),))
        return r

    assert residue(x * y) == residue(x) * residue(y) % 3
    assert residue(x + y) == (residue(x) + residue(y)) % 3
    assert residue(x.conjugate()) == residue(x)
    # 1 + zeta generates the kernel: its multiples, and only they, go to 0
    assert (residue(x) == 0) == ((x / (ZETA + 1)).is_integral())


def test_gf3_residues_read_rows_and_reject_fractions():
    assert _gf3_residues(mat([[ZETA, -1], [1 - ZETA, 3]])) == (2, 2, 2, 0)
    with pytest.raises(ValueError, match="not an integer"):
        _gf3_residues(mat([[1, Fraction(1, 2)], [0, 1]]))
