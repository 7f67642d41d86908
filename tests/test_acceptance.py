"""End-to-end acceptance checks, one test per published claim block.

Run ``python3 -m pytest tests/test_acceptance.py -v`` to get exactly one
pass/fail line per block.  Every comparison is exact integer or rational
arithmetic; there are no tolerances anywhere.
"""
import itertools
import random
from fractions import Fraction

from hexcover import catalog
from hexcover.appell_humbert import (
    HermitianForm,
    im_on_lattice,
    intersection_number,
    pfaffian,
    pullback_hom,
    square_roots,
    tensor,
)
from hexcover.eisenstein import ZETA, EisRat, _gf3_residues, inv2, mat, mat_mul
from hexcover.lattice import AmbientVector, LatticeBasis, hnf
from hexcover.permgroup import PermGroup, Permutation
from hexcover.surface_invariants import (
    SingularityProfile,
    ball_quotient_check,
    enumerate_branch_profiles,
    resolution_invariants,
)
from hexcover.symmetry import (
    ANTIHOLO_REFLECTION,
    BASE_POINT_SWAP,
    NEGATION,
    ORDER4_SYMMETRY,
    ORDER6_SYMMETRY,
    action_on_square_roots,
    cross_ratio,
    gamma_action_on_sigma,
    preserves_divisor,
    rational_rep,
    search_generators,
    verify_presentation,
)
from hexcover.torsion_covers import (
    all_characters,
    check_2divisible,
    classify_characters,
    kernel_lattice,
)

import golden
import oracles

# the hermitian forms of the four curve bundles
CURVE_FORMS = tuple(bundle.form for bundle in catalog.CURVE_BUNDLES)


def _pairs(matrix):
    return tuple(tuple((x.a, x.b) for x in row) for row in matrix)


def _eis_matrix(pairs):
    return mat([[EisRat(*entry) for entry in row] for row in pairs])


def _sign_of(exponent: Fraction) -> int:
    q = exponent % 1
    assert q in (Fraction(0), Fraction(1, 2))
    return 1 if q == 0 else -1


def test_criterion_1_intersection_tables():
    product = im_on_lattice(catalog.SUM_FORM, catalog.PRODUCT_LATTICE)
    assert product.upper_triangle() == golden.BRANCH_ALT_UPPER_PRODUCT
    cover = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    assert cover.upper_triangle() == golden.BRANCH_ALT_UPPER_COVER
    print("criterion 1: PASS")


def test_criterion_2_hermitian_classes():
    for form, expected in zip(CURVE_FORMS, golden.CURVE_FORM_MATRICES):
        assert _pairs(form.matrix) == expected
    assert _pairs(catalog.SUM_FORM.matrix) == golden.SUM_FORM_MATRIX
    for a1, a2, a3, a4 in itertools.product((0, 1), repeat=4):
        v = AmbientVector((a1, a2, a3, a4))
        branch_sign = _sign_of(catalog.BRANCH_PRODUCT.character.eval(v))
        assert branch_sign == golden.branch_char_closed_form(a1, a2, a3, a4)
        curve_signs = golden.curve_char_closed_forms(a1, a2, a3, a4)
        for bundle, expected_sign in zip(catalog.CURVE_BUNDLES, curve_signs):
            assert _sign_of(bundle.character.eval(v)) == expected_sign
    print("criterion 2: PASS")


def test_criterion_3_character_classification():
    outcome = classify_characters()
    chars = all_characters()
    assert outcome.selected == golden.SELECTED_CHARACTERS
    curves = [LatticeBasis.from_rows(rows) for rows in golden.CURVE_LATTICES]
    for k in range(1, 16):
        wanted = k in golden.SELECTED_CHARACTERS
        assert check_2divisible(chars[k]) == wanted
        assert all(oracles.restricts_nontrivially(chars[k], c)
                   for c in curves) == wanted
    for k, rows in golden.KERNEL_BASIS_PUBLISHED.items():
        computed = hnf(kernel_lattice(chars[k]), catalog.PRODUCT_LATTICE)
        published = hnf(LatticeBasis.from_rows(rows), catalog.PRODUCT_LATTICE)
        assert computed == published
    witness = catalog.SUM_FORM.im_value(AmbientVector((0, 1, 1, 0)),
                                        AmbientVector((0, 0, 1, 1)))
    assert witness == golden.TWO_DIVISIBILITY_WITNESS
    assert outcome.leftover_count == golden.TORSION_LEFTOVER
    print("criterion 3: PASS")


def test_criterion_4_square_roots():
    roots = square_roots(catalog.BRANCH_COVER)
    assert len(roots) == 16
    assert [root.character.exponents for root in roots] == \
        list(golden.SQUARE_ROOT_EXPONENTS)
    for root in roots:
        assert tensor(root, root) == catalog.BRANCH_COVER
    assert square_roots(catalog.BRANCH_PRODUCT) == []
    print("criterion 4: PASS")


def test_criterion_5_symmetry_group():
    assert preserves_divisor(ORDER4_SYMMETRY)
    assert preserves_divisor(ORDER6_SYMMETRY)
    # raises if either generator moved the cover lattice
    rational_rep(ORDER4_SYMMETRY, catalog.COVER_LATTICE)
    rational_rep(ORDER6_SYMMETRY, catalog.COVER_LATTICE)
    assert verify_presentation(ORDER4_SYMMETRY, ORDER6_SYMMETRY)
    ratio = cross_ratio(*catalog.CURVE_LINES)
    assert (ratio.a, ratio.b) == golden.CROSS_RATIO
    assert ratio * ZETA == 1
    found = search_generators(3)
    assert len(found) == 4
    tilted4 = _eis_matrix(golden.TILTED_ORDER4)
    tilted6 = _eis_matrix(golden.TILTED_ORDER6)
    wanted = set()
    for m in (tilted4, tilted6):
        wanted.add(_pairs(m))
        wanted.add(_pairs(oracles.mat_scale(-1, m)))
    assert {_pairs(g.linear) for g in found} == wanted
    shear = catalog.FRAME_SHEAR
    shear_inv = inv2(shear)
    assert mat_mul(mat_mul(shear, tilted4), shear_inv) == catalog.ORDER4_GEN
    assert mat_mul(mat_mul(shear, tilted6), shear_inv) == catalog.ORDER6_GEN
    print("criterion 5: PASS")


def test_criterion_6_root_permutations():
    roots = square_roots(catalog.BRANCH_COVER)
    for symmetry, cycles in (
            (ORDER4_SYMMETRY, golden.PERM_ORDER4),
            (ORDER6_SYMMETRY, golden.PERM_ORDER6),
            (NEGATION, golden.PERM_NEGATION),
            (BASE_POINT_SWAP, golden.PERM_NEGATION),
            (ANTIHOLO_REFLECTION, golden.PERM_SIGMA)):
        computed = action_on_square_roots(symmetry, roots)
        assert computed == Permutation.from_cycles(cycles, 16)
    print("criterion 6: PASS")


def test_criterion_7_orbit_theorem():
    roots = square_roots(catalog.BRANCH_COVER)
    p_order4 = action_on_square_roots(ORDER4_SYMMETRY, roots)
    p_order6 = action_on_square_roots(ORDER6_SYMMETRY, roots)
    p_reflection = action_on_square_roots(ANTIHOLO_REFLECTION, roots)
    holo = PermGroup([p_order4, p_order6])
    full = PermGroup([p_order4, p_order6, p_reflection])
    assert holo.order == golden.HOLO_GROUP_ORDER
    assert full.order == golden.FULL_GROUP_ORDER
    # the linear parts modulo 1 + zeta give an explicit isomorphism onto
    # the matrix groups over the 3-element field
    matrices = [_gf3_residues(g.linear) for g in
                (ORDER4_SYMMETRY, ORDER6_SYMMETRY, ANTIHOLO_REFLECTION)]
    assert holo.matrix_group_name(matrices[:2]) == "SL(2,3)"
    assert full.matrix_group_name(matrices) == "GL(2,3)"
    assert tuple(frozenset(o) for o in holo.orbits()) == \
        golden.HOLO_ORBIT_PARTITION
    assert tuple(frozenset(o) for o in full.orbits()) == \
        golden.FULL_ORBIT_PARTITION
    print("criterion 7: PASS")


def test_criterion_8_numerical_invariants():
    assert tuple(resolution_invariants(SingularityProfile(8, [3]))) == (1, 8)
    assert tuple(resolution_invariants(SingularityProfile(6, [2, 2]))) == (1, 8)
    cases = [(c.label, c.d2) for c in enumerate_branch_profiles()]
    assert cases == [("I", 32), ("II", 24)]
    cover_branch = SingularityProfile(golden.SELF_INT_COVER // 4, [2, 2])
    assert tuple(resolution_invariants(cover_branch)) == (1, 8)
    assert ball_quotient_check()
    assert not ball_quotient_check(k2=9)
    rotation = gamma_action_on_sigma()
    assert rotation.order() == 3
    assert rotation == Permutation.from_cycles((golden.GAMMA_CHARACTER_CYCLE,), 3)
    print("criterion 8: PASS")


def test_criterion_9_cross_module_consistency():
    gram = [[intersection_number(CURVE_FORMS[i], CURVE_FORMS[j],
                                 catalog.PRODUCT_LATTICE)
             for j in range(4)] for i in range(4)]
    assert gram == [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    assert oracles.sympy_det(gram) == -3
    for i in range(4):
        for j in range(4):
            pairing = intersection_number(CURVE_FORMS[i], CURVE_FORMS[j],
                                          catalog.COVER_LATTICE)
            assert pairing == (0 if i == j else 2)
    assert intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                               catalog.COVER_LATTICE) == golden.SELF_INT_COVER
    principal = HermitianForm([[2, 0], [0, 2]])
    assert pfaffian(im_on_lattice(principal, catalog.PRODUCT_LATTICE)) == \
        golden.PF_PRINCIPAL_PRODUCT
    character = catalog.BRANCH_PRODUCT.character
    upper = [int(x) for x in character.form.upper_triangle()]
    for n in itertools.product(range(-2, 3), repeat=4):
        closed = character.eval_coords(list(n)) % 1
        assert closed == oracles.cocycle_eval_left(character.exponents, upper,
                                                   list(n))
        assert closed == oracles.cocycle_eval_right(character.exponents, upper,
                                                    list(n))
    rng = random.Random(20240817)
    lat = catalog.PRODUCT_LATTICE
    bundle = catalog.BRANCH_PRODUCT
    for _ in range(100):
        f = mat([[EisRat(rng.randint(-1, 1), rng.randint(-1, 1))
                  for _ in range(2)] for _ in range(2)])
        g = mat([[EisRat(rng.randint(-1, 1), rng.randint(-1, 1))
                  for _ in range(2)] for _ in range(2)])
        fg = mat([[sum((f[i][k] * g[k][j] for k in range(2)), EisRat(0))
                   for j in range(2)] for i in range(2)])
        assert pullback_hom(pullback_hom(bundle, f, lat), g, lat) == \
            pullback_hom(bundle, fg, lat)
    print("criterion 9: PASS")
