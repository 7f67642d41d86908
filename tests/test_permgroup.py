import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sympy.combinatorics import Permutation as SymPermutation
from sympy.combinatorics import PermutationGroup
from sympy.combinatorics.homomorphisms import group_isomorphism

from hexcover import catalog
from hexcover.eisenstein import _gf3_residues
from hexcover.permgroup import (
    CLOSURE_BOUND,
    OrderBoundExceeded,
    PermGroup,
    Permutation,
)

from golden import EXPECTED
from oracles import (gf3_matrices, gf3_mul, gf3_vector_action, parse_cycles,
                     perm_from_cycles, perm_inverse)


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
    p = perm_from_cycles([(3, 1), (2, 5, 4)], 6)
    assert str(p) == "(1 3)(2 5 4)"
    assert repr(p) == "Permutation[(1 3)(2 5 4)]"
    assert str(Permutation.identity(4)) == "()"


def test_product_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation.identity(2) * Permutation.identity(3)


def test_left_to_right_product():
    # (1 2)(1 3) = (1 2 3) under left-to-right composition
    p = perm_from_cycles([(1, 2)], 3)
    q = perm_from_cycles([(1, 3)], 3)
    assert (p * q).cycles() == ((1, 2, 3),)
    assert (q * p).cycles() == ((1, 3, 2),)


def test_cycles_and_order():
    text = EXPECTED["orbits.perm_order4"]
    cycles = parse_cycles(text)
    p = perm_from_cycles(cycles, 16)
    assert p.order() == 4
    assert p.cycles() == cycles
    assert str(p) == text


def test_from_cycles_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        images = list(range(1, 11))
        rng.shuffle(images)
        p = Permutation(images)
        assert perm_from_cycles(p.cycles(), 10) == p


def test_closure_trivial_and_small():
    trivial = PermGroup([], degree=4)
    assert trivial.order == 1
    assert trivial.orbits() == ((1,), (2,), (3,), (4,))
    swap = PermGroup([perm_from_cycles([(1, 2)], 4)])
    assert swap.order == 2
    # -1 pairs with the swap isomorphically, onto neither named group
    assert swap.matrix_group_name([(2, 0, 0, 2)]) is None


def test_closure_generator_order_independent():
    a = perm_from_cycles([(1, 2, 3, 4)], 5)
    b = perm_from_cycles([(1, 2)], 5)
    g1 = PermGroup([a, b])
    g2 = PermGroup([b, a])
    assert g1.elements() == g2.elements()
    assert g1.order == 24


def test_closure_bound_guard():
    # symmetric group on 9 points has 362880 elements
    a = perm_from_cycles([tuple(range(1, 10))], 9)
    b = perm_from_cycles([(1, 2)], 9)
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
    x = perm_from_cycles([(1, 2)], 3)
    y = perm_from_cycles([(2, 3)], 3)
    assert (x * y).cycles() == ((1, 3, 2),)
    got = x * y * perm_inverse(x) * perm_inverse(y)
    assert got.cycles() == ((1, 2, 3),)
    assert got.order() == 3


def test_group_rejects_non_permutation_generators():
    for bad in ([1, 2], [Permutation.identity(2), (2, 1)], ["(1 2)"]):
        with pytest.raises(TypeError, match="must be Permutations"):
            PermGroup(bad)


def test_matrix_group_name_validates_matrices():
    swap = PermGroup([perm_from_cycles([(1, 2)], 2)])
    for bad in ([(1, 0, 0)], [(1, 0, 0, 1, 0)], [(1.0, 0, 0, 1)],
                [(True, 0, 0, 1)], [("1", 0, 0, 1)], [1]):
        with pytest.raises(TypeError):
            swap.matrix_group_name(bad)
    for bad in ([(3, 0, 0, 1)], [(1, 0, 0, -1)]):
        with pytest.raises(ValueError, match="range"):
            swap.matrix_group_name(bad)
    for count in ([], [(1, 0, 0, 1)] * 2):
        with pytest.raises(ValueError, match="generators"):
            swap.matrix_group_name(count)
    # a singular matrix is no element of GL(2,3)
    assert swap.matrix_group_name([(1, 1, 1, 1)]) is None


def regular_representation(det_one):
    """The group of invertible 2x2 matrices over GF(3), determinant 1 only
    when det_one, acting on itself by right multiplication, and the matrix
    each generator multiplies by."""
    elements = gf3_matrices(det_one)
    index = {m: k for k, m in enumerate(elements, start=1)}
    group = PermGroup([Permutation([index[gf3_mul(x, g)] for x in elements])
                       for g in elements])
    return group, elements


def test_regular_representations_are_named():
    special, special_matrices = regular_representation(det_one=True)
    full, full_matrices = regular_representation(det_one=False)
    assert special.order == 24 and full.order == 48
    assert special.matrix_group_name(special_matrices) == "SL(2,3)"
    assert full.matrix_group_name(full_matrices) == "GL(2,3)"
    # right multiplication by g^-1 is a bijection too, but an
    # anti-isomorphism: the pairing with inverses is no homomorphism
    inverse = {m: n for m in full_matrices for n in full_matrices
               if gf3_mul(m, n) == (1, 0, 0, 1)}
    assert full.matrix_group_name([inverse[m] for m in full_matrices]) is None


# the published root permutations of the two generators and the reflection
ROOT_GENERATORS = tuple(
    perm_from_cycles(parse_cycles(EXPECTED[f"orbits.perm_{name}"]), 16)
    for name in ("order4", "order6", "reflection"))
ROOT_MATRICES = tuple(_gf3_residues(m) for m in (
    catalog.ORDER4_GEN, catalog.ORDER6_GEN, catalog.SIGMA_LINEAR))


def test_root_action_is_named_by_an_isomorphism():
    holo = PermGroup(ROOT_GENERATORS[:2])
    full = PermGroup(ROOT_GENERATORS)
    assert holo.order == EXPECTED["orbits.holo_order"]
    assert full.order == EXPECTED["orbits.full_order"]
    assert holo.matrix_group_name(ROOT_MATRICES[:2]) == \
        EXPECTED["orbits.holo_group"]
    assert full.matrix_group_name(ROOT_MATRICES) == EXPECTED["orbits.full_group"]
    # the same two matrices the other way round pair no isomorphism
    swapped = ROOT_MATRICES[1::-1]
    assert holo.matrix_group_name(swapped) is None


def _graph_order(perms, actions) -> int:
    degree = perms[0].degree
    return PermGroup([Permutation(p.images + tuple(k + degree
                                                   for k in a.images))
                      for p, a in zip(perms, actions)]).order


def test_column_action_convention_fails_the_full_group():
    # v -> m.v composes matrices in the opposite order to the permutation
    # products; on columns the holomorphic pairing survives, but the full
    # pair group grows past the group's order, so no isomorphism is claimed
    order = EXPECTED["orbits.full_order"]
    rows = [gf3_vector_action(m) for m in ROOT_MATRICES]
    columns = [gf3_vector_action(m, column=True) for m in ROOT_MATRICES]
    assert _graph_order(ROOT_GENERATORS, rows) == order
    assert _graph_order(ROOT_GENERATORS, columns) > order
    # m acts on columns as its transpose does on rows
    transposed = [(a, c, b, d) for a, b, c, d in ROOT_MATRICES]
    assert [gf3_vector_action(m) for m in transposed] == columns
    full = PermGroup(ROOT_GENERATORS)
    assert full.matrix_group_name(transposed) is None
    holo = PermGroup(ROOT_GENERATORS[:2])
    assert holo.matrix_group_name(transposed[:2]) == \
        EXPECTED["orbits.holo_group"]


def _sympy_group(perms):
    return PermutationGroup([SymPermutation([k - 1 for k in p.images])
                             for p in perms])


def test_root_groups_match_sympy_isomorphism_oracle():
    special = _sympy_group([gf3_vector_action(m)
                            for m in gf3_matrices(det_one=True)])
    general = _sympy_group([gf3_vector_action(m)
                            for m in gf3_matrices(det_one=False)])
    assert special.order() == 24 and general.order() == 48
    assert group_isomorphism(_sympy_group(ROOT_GENERATORS[:2]), special,
                             isomorphism=False)
    assert group_isomorphism(_sympy_group(ROOT_GENERATORS), general,
                             isomorphism=False)
