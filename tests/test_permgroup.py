import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcover.permgroup import (
    CLOSURE_BOUND,
    OrderBoundExceeded,
    PermGroup,
    Permutation,
    matrix_fingerprint_gf3,
)

import golden
from oracles import gf3_fingerprint, gf3_matrices, gf3_mul, perm_inverse


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    # images are ints: no string is parsed and no float truncated
    for bad in (["2", "1"], [2.0, 1], [1.5, 2]):
        with pytest.raises(TypeError):
            Permutation(bad)
    assert Permutation.identity(5)(3) == 3


@pytest.mark.parametrize("images", [[1, 1], [0, 1], [2, 3], [1, 3, 3]])
def test_public_constructor_still_validates(images):
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(images)

@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(1, 9))
    images = st.permutations(range(1, n + 1))
    return Permutation(draw(images)), Permutation(draw(images))


@given(permutation_pairs())
def test_product_equals_validated_permutation(pair):
    p, q = pair
    prod = p * q
    want = Permutation([q(p(x)) for x in range(1, p.degree + 1)])
    assert prod == want and hash(prod) == hash(want)
    assert prod.images == want.images
    assert all(type(i) is int for i in prod.images)
    assert prod.order() == want.order() and prod.cycles() == want.cycles()


def test_str_is_cycle_notation():
    p = Permutation.from_cycles([(3, 1), (2, 5, 4)], 6)
    assert str(p) == "(1 3)(2 5 4)"
    assert repr(p) == "Permutation[(1 3)(2 5 4)]"
    assert str(Permutation.identity(4)) == "()"


def test_product_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation.identity(2) * Permutation.identity(3)


def test_left_to_right_product():
    # (1 2)(1 3) = (1 2 3) under left-to-right composition
    p = Permutation.from_cycles([(1, 2)], 3)
    q = Permutation.from_cycles([(1, 3)], 3)
    assert (p * q).cycles() == ((1, 2, 3),)
    assert (q * p).cycles() == ((1, 3, 2),)


def test_cycles_and_order():
    p = Permutation.from_cycles([(1, 13, 7, 12), (2, 9, 14, 16),
                                 (3, 5, 15, 6), (4, 11, 8, 10)], 16)
    assert p.order() == 4
    assert p.cycles() == ((1, 13, 7, 12), (2, 9, 14, 16),
                          (3, 5, 15, 6), (4, 11, 8, 10))


def test_from_cycles_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        images = list(range(1, 11))
        rng.shuffle(images)
        p = Permutation(images)
        assert Permutation.from_cycles(p.cycles(), 10) == p


def test_closure_trivial_and_small():
    trivial = PermGroup([], degree=4)
    assert trivial.order == 1
    assert trivial.orbits() == ((1,), (2,), (3,), (4,))
    swap = PermGroup([Permutation.from_cycles([(1, 2)], 4)])
    assert swap.order == 2
    fp = swap.fingerprint()
    assert fp.orders == {1: 1, 2: 1}
    assert fp.name is None


def test_closure_generator_order_independent():
    a = Permutation.from_cycles([(1, 2, 3, 4)], 5)
    b = Permutation.from_cycles([(1, 2)], 5)
    g1 = PermGroup([a, b])
    g2 = PermGroup([b, a])
    assert g1.elements() == g2.elements()
    assert g1.order == 24


def test_closure_bound_guard():
    # symmetric group on 9 points has 362880 elements
    a = Permutation.from_cycles([tuple(range(1, 10))], 9)
    b = Permutation.from_cycles([(1, 2)], 9)
    with pytest.raises(OrderBoundExceeded):
        PermGroup([a, b]).elements()
    assert CLOSURE_BOUND == 10_000


def test_orbit_sizes_divide_order():
    rng = random.Random(11)
    for _ in range(10):
        gens = []
        for _ in range(2):
            images = list(range(1, 8))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermGroup(gens)
        for orbit in group.orbits():
            assert group.order % len(orbit) == 0


def test_commutator_convention():
    # products read left to right: x * y applies x first, so
    # x * y = (1 3 2) and the commutator x y x^-1 y^-1 = (x y)^2 = (1 2 3)
    x = Permutation.from_cycles([(1, 2)], 3)
    y = Permutation.from_cycles([(2, 3)], 3)
    assert (x * y).cycles() == ((1, 3, 2),)
    got = x * y * perm_inverse(x) * perm_inverse(y)
    assert got.cycles() == ((1, 2, 3),)
    assert got.order() == 3


def regular_representation(det_one):
    """The group of invertible 2x2 matrices over GF(3), determinant 1 only
    when det_one, acting on itself by right multiplication."""
    elements = gf3_matrices(det_one)
    index = {m: k for k, m in enumerate(elements, start=1)}
    return PermGroup([Permutation([index[gf3_mul(x, g)] for x in elements])
                      for g in elements])


def test_reference_fingerprints_from_matrix_oracle():
    special = matrix_fingerprint_gf3(det_one=True)
    full = matrix_fingerprint_gf3(det_one=False)
    assert sum(special.values()) == 24
    assert sum(full.values()) == 48
    # independent enumeration in the test oracle agrees
    assert special == gf3_fingerprint(det_one=True)
    assert full == gf3_fingerprint(det_one=False)
    assert special == golden.SL23_FINGERPRINT
    # the regular representations carry the reference names; a group in
    # neither table gets none
    assert regular_representation(det_one=True).fingerprint().name == \
        "SL(2,3)"
    assert regular_representation(det_one=False).fingerprint().name == \
        "GL(2,3)"
    swap = PermGroup([Permutation.from_cycles([(1, 2)], 2)])
    assert swap.fingerprint().orders == {1: 1, 2: 1}
    assert swap.fingerprint().name is None


def test_fingerprint_identifies_permutation_models():
    # a permutation model of the 24-element reference group: the action of
    # the unit quaternions extended by an order-3 element, realized here by
    # two explicit generators of the published square-root action
    g2 = Permutation.from_cycles(golden.PERM_ORDER4, 16)
    g3 = Permutation.from_cycles(golden.PERM_ORDER6, 16)
    group = PermGroup([g2, g3])
    assert group.order == 24
    fp = group.fingerprint()
    assert fp.name == "SL(2,3)"
    assert fp.orders == matrix_fingerprint_gf3(det_one=True)
