import random

import pytest
from hypothesis import example, given
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
from oracles import (closure_orbits, gf3_matrices, gf3_mul, gf3_vector_action,
                     parse_cycles, perm_from_cycles, perm_inverse,
                     permutation_closure, three_closure_group_name)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    # images are ints: no string is parsed, no float truncated and no bool
    # read as 0 or 1
    for bad in (["2", "1"], [2.0, 1], [1.5, 2], [True, 2], [2, True]):
        with pytest.raises(TypeError):
            Permutation(bad)
    assert Permutation(range(1, 6))(3) == 3


@pytest.mark.parametrize("images", [[1, 1], [0, 1], [2, 3], [1, 3, 3]])
def test_public_constructor_still_validates(images):
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(images)

@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(1, 9))
    images = st.permutations(range(1, n + 1))
    return Permutation(draw(images)), Permutation(draw(images))


def test_product_with_a_non_permutation_is_a_type_error():
    # __mul__ returns NotImplemented, so Python raises the TypeError
    p = Permutation([2, 1, 3])
    for other in (3, 1.5, None):
        with pytest.raises(TypeError, match="unsupported operand"):
            p * other


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
    assert str(Permutation((1, 2, 3, 4))) == "()"


def test_product_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation((1, 2)) * Permutation((1, 2, 3))


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
    trivial = PermGroup([Permutation((1, 2, 3, 4))])
    assert trivial.order == 1
    assert trivial.orbits() == ((1,), (2,), (3,), (4,))
    swap = PermGroup([perm_from_cycles([(1, 2)], 4)])
    assert swap.order == 2
    # -1 pairs with the swap isomorphically, onto neither named group
    assert swap.matrix_group_name([(2, 0, 0, 2)]) is None


def test_group_needs_a_generator():
    with pytest.raises(ValueError):
        PermGroup([])


@st.composite
def small_groups(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1,
                         max_size=3))
    return PermGroup([Permutation(g) for g in gens])


# degree 1, where an itemgetter step would give a bare int, and degree 2,
# the least degree with a step: drawn only by chance otherwise
TRIVIAL_GROUP = PermGroup([Permutation((1,))])
SWAP_GROUP = PermGroup([Permutation((2, 1))])


@given(small_groups())
@example(TRIVIAL_GROUP)
@example(SWAP_GROUP)
def test_orbits_match_sympy(group):
    want = sorted(tuple(sorted(k + 1 for k in orbit))
                  for orbit in _sympy_group(group.generators).orbits())
    assert group.orbits() == tuple(want)


@given(small_groups())
@example(TRIVIAL_GROUP)
@example(SWAP_GROUP)
def test_closure_matches_permutation_product_oracle(group):
    gens = group.generators
    elements = group.elements()
    # the closure is kept as the elements' image tuples
    assert elements == {p.images for p in permutation_closure(gens)}
    assert type(elements) is frozenset
    assert all(type(g) is tuple and all(type(i) is int for i in g)
               for g in elements)
    assert group.order == len(elements) == _sympy_group(gens).order()
    assert group.orbits() == closure_orbits(gens)
    # the closure is kept: a second call returns the same set
    assert group.elements() is elements


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


def test_group_is_immutable():
    # the closure is memoized, so new generators would leave a stale order
    p, q = Permutation([2, 1, 3]), Permutation([1, 3, 2])
    g = PermGroup([p])
    assert g.order == 2
    with pytest.raises(AttributeError, match="^PermGroup is immutable$"):
        g.generators = (p, q)
    assert g.generators == (p,) and g.order == 2
    assert PermGroup([p, q]).order == 6


def test_group_rejects_non_permutation_generators():
    for bad in ([1, 2], [Permutation((1, 2)), (2, 1)], ["(1 2)"]):
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


def _named_like_the_oracle(group, matrices):
    got = group.matrix_group_name(matrices)
    assert got == three_closure_group_name(group.generators, matrices)
    return got


def test_group_name_matches_three_closure_oracle_on_root_groups():
    holo = PermGroup(ROOT_GENERATORS[:2])
    full = PermGroup(ROOT_GENERATORS)
    transposed = [(a, c, b, d) for a, b, c, d in ROOT_MATRICES]
    assert _named_like_the_oracle(holo, ROOT_MATRICES[:2]) == "SL(2,3)"
    assert _named_like_the_oracle(full, ROOT_MATRICES) == "GL(2,3)"
    assert _named_like_the_oracle(holo, transposed[:2]) == "SL(2,3)"
    assert _named_like_the_oracle(full, transposed) is None
    assert _named_like_the_oracle(holo, ROOT_MATRICES[1::-1]) is None
    assert _named_like_the_oracle(full, ROOT_MATRICES[::-1]) is None
    for det_one in (True, False):
        group, matrices = regular_representation(det_one)
        assert _named_like_the_oracle(group, matrices) is not None


def test_group_name_refuses_a_homomorphism_onto_a_smaller_group():
    # the pairs close to the group's own order, but the matrices generate
    # only {I} or {I, -I}: the image order is read off the pairs' matrix
    # halves, and reading it off their permutation halves would name these
    identity, minus = (1, 0, 0, 1), (2, 0, 0, 2)
    holo = PermGroup(ROOT_GENERATORS[:2])
    full = PermGroup(ROOT_GENERATORS)
    assert _named_like_the_oracle(holo, [identity, identity]) is None
    assert _named_like_the_oracle(full, [identity, identity, minus]) is None
    assert _named_like_the_oracle(full, [minus, minus, minus]) is None


def test_group_name_of_a_large_group_closes_no_pair_group():
    # S_7 has 5040 elements and its pairs with two matrices up to 48 times
    # as many, past CLOSURE_BOUND; no group of that order is named, so the
    # pairs are never closed
    big = PermGroup([perm_from_cycles([tuple(range(1, 8))], 7),
                     perm_from_cycles([(1, 2)], 7)])
    assert big.order == 5040
    assert big.matrix_group_name([(1, 1, 0, 1), (0, 1, 2, 0)]) is None


gf3_assignments = st.tuples(*[st.integers(0, 2)] * 4)


@given(st.data())
def test_group_name_matches_three_closure_oracle_on_random_matrices(data):
    k = data.draw(st.sampled_from((2, 3)))
    group = PermGroup(ROOT_GENERATORS[:k])
    matrices = data.draw(st.lists(gf3_assignments, min_size=k, max_size=k))
    _named_like_the_oracle(group, matrices)


@given(small_groups(), st.data())
def test_group_name_matches_three_closure_oracle_on_small_groups(group,
                                                                 data):
    count = len(group.generators)
    matrices = data.draw(st.lists(gf3_assignments, min_size=count,
                                  max_size=count))
    _named_like_the_oracle(group, matrices)
