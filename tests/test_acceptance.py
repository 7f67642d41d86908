"""End-to-end acceptance checks, one test per published claim block.

Run ``python3 -m pytest tests/test_acceptance.py -v`` to get exactly one
pass/fail line per block.  Every comparison is exact integer or rational
arithmetic; there are no tolerances anywhere.
"""
import itertools
import random
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form

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
from hexcover.cli import _invariants_rows
from hexcover.eisenstein import ZETA, EisRat, _gf3_residues, mat
from hexcover.lattice import AmbientVector, LatticeBasis
from hexcover.permgroup import PermGroup
from hexcover.surface_invariants import (
    SingularityProfile,
    ball_quotient_check,
    enumerate_branch_profiles,
    resolution_invariants,
)
from hexcover.symmetry import (
    ANTIHOLO_REFLECTION,
    AffineSymmetry,
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
from golden import EXPECTED

# the hermitian forms of the four curve bundles
CURVE_FORMS = tuple(bundle.form for bundle in catalog.CURVE_BUNDLES)


def _pairs(matrix):
    """A Q(zeta) matrix as the expected values are written: [a, b] lists."""
    return [[[x.a, x.b] for x in row] for row in oracles.eisrat_rows(matrix)]


def _sign_of(exponent: Fraction) -> int:
    q = exponent % 1
    assert q in (Fraction(0), Fraction(1, 2))
    return 1 if q == 0 else -1


def test_criterion_1_intersection_tables():
    product = im_on_lattice(catalog.SUM_FORM, catalog.PRODUCT_LATTICE)
    assert list(product.upper_triangle()) == \
        EXPECTED["tables.branch_alt_product"]
    cover = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    assert list(cover.upper_triangle()) == EXPECTED["tables.branch_alt_cover"]
    print("criterion 1: PASS")


def test_criterion_2_hermitian_classes():
    for k, form in enumerate(CURVE_FORMS, start=1):
        assert _pairs(form.matrix) == EXPECTED[f"tables.curve_form_{k}"]
    assert _pairs(catalog.SUM_FORM.matrix) == EXPECTED["tables.branch_form_sum"]
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
    selected = EXPECTED["characters.selected"]
    assert list(outcome.selected) == selected
    curves = [tuple(map(AmbientVector, rows))
              for rows in golden.CURVE_LATTICES]
    for k in range(1, 16):
        wanted = k in selected
        assert check_2divisible(chars[k]) == wanted
        assert all(oracles.restricts_nontrivially(chars[k], c)
                   for c in curves) == wanted
    for k, rows in golden.KERNEL_BASIS_PUBLISHED.items():
        computed = oracles.sympy_hnf(kernel_lattice(chars[k]),
                                     catalog.PRODUCT_LATTICE)
        published = oracles.sympy_hnf(LatticeBasis.from_rows(rows),
                                      catalog.PRODUCT_LATTICE)
        assert computed == published
    # Im h on the cover generators (0, 1, 1, 0) and (0, 0, 1, 1)
    assert catalog.COVER_LATTICE.vectors[1:3] == (
        AmbientVector((0, 1, 1, 0)), AmbientVector((0, 0, 1, 1)))
    witness = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    assert witness.matrix[1][2] == EXPECTED["characters.witness_parity"]
    assert outcome.leftover_count == EXPECTED["characters.leftover_torsion"]
    print("criterion 3: PASS")


def test_criterion_4_square_roots():
    roots = square_roots(catalog.BRANCH_COVER)
    assert len(roots) == EXPECTED["orbits.root_count"]
    assert [root.character.exponents for root in roots] == \
        list(golden.SQUARE_ROOT_EXPONENTS)
    for root in roots:
        assert tensor(root, root) == catalog.BRANCH_COVER
    assert len(square_roots(catalog.BRANCH_PRODUCT)) == \
        EXPECTED["orbits.product_root_count"]
    print("criterion 4: PASS")


def test_criterion_5_symmetry_group():
    assert preserves_divisor(ORDER4_SYMMETRY)
    assert preserves_divisor(ORDER6_SYMMETRY)
    # raises if either generator moved the cover lattice
    rational_rep(ORDER4_SYMMETRY, catalog.COVER_LATTICE)
    rational_rep(ORDER6_SYMMETRY, catalog.COVER_LATTICE)
    assert verify_presentation(ORDER4_SYMMETRY, ORDER6_SYMMETRY)
    ratio = cross_ratio(*catalog.CURVE_LINES)
    assert [ratio.a, ratio.b] == EXPECTED["search.cross_ratio"]
    assert ratio * ZETA == 1
    found = search_generators(3)
    assert len(found) == EXPECTED["search.candidate_count"]
    assert sorted(_pairs(g.linear) for g in found) == \
        EXPECTED["search.tilted_matrices"]
    shear = catalog.FRAME_SHEAR
    shear_inv = oracles.eisrat_inv2(shear)
    conjugates = [_pairs(oracles.eisrat_mat_mul(
        oracles.eisrat_mat_mul(shear, g.linear), shear_inv)) for g in found]
    assert sorted(conjugates) == EXPECTED["search.ambient_conjugates"]
    # back in the standard frame, the candidates include both generators
    assert _pairs(catalog.ORDER4_GEN) in conjugates
    assert _pairs(catalog.ORDER6_GEN) in conjugates
    print("criterion 5: PASS")


def test_criterion_6_root_permutations():
    roots = square_roots(catalog.BRANCH_COVER)
    for symmetry, name in ((ORDER4_SYMMETRY, "order4"),
                           (ORDER6_SYMMETRY, "order6"),
                           (NEGATION, "negation"),
                           (BASE_POINT_SWAP, "translation"),
                           (ANTIHOLO_REFLECTION, "reflection")):
        computed = action_on_square_roots(symmetry, roots)
        assert str(computed) == EXPECTED[f"orbits.perm_{name}"]
    print("criterion 6: PASS")


def test_criterion_7_orbit_theorem():
    roots = square_roots(catalog.BRANCH_COVER)
    p_order4 = action_on_square_roots(ORDER4_SYMMETRY, roots)
    p_order6 = action_on_square_roots(ORDER6_SYMMETRY, roots)
    p_reflection = action_on_square_roots(ANTIHOLO_REFLECTION, roots)
    holo = PermGroup([p_order4, p_order6])
    full = PermGroup([p_order4, p_order6, p_reflection])
    assert holo.order == EXPECTED["orbits.holo_order"]
    assert full.order == EXPECTED["orbits.full_order"]
    # the linear parts modulo 1 + zeta give an explicit isomorphism onto
    # the matrix groups over the 3-element field
    matrices = [_gf3_residues(g.linear) for g in
                (ORDER4_SYMMETRY, ORDER6_SYMMETRY, ANTIHOLO_REFLECTION)]
    assert holo.matrix_group_name(matrices[:2]) == EXPECTED["orbits.holo_group"]
    assert full.matrix_group_name(matrices) == EXPECTED["orbits.full_group"]
    assert sorted(sorted(o) for o in holo.orbits()) == \
        EXPECTED["orbits.holo_partition"]
    assert sorted(sorted(o) for o in full.orbits()) == \
        EXPECTED["orbits.full_partition"]
    print("criterion 7: PASS")


def test_criterion_8_numerical_invariants():
    for check_id, profile in (
            ("invariants.resolution_sextuple", SingularityProfile(8, [3])),
            ("invariants.resolution_quadruples",
             SingularityProfile(6, [2, 2]))):
        assert list(resolution_invariants(profile)) == EXPECTED[check_id]
    cases = enumerate_branch_profiles()
    assert cases == [SingularityProfile(8, [3]), SingularityProfile(6, [2, 2])]
    assert len(cases) == len(EXPECTED["invariants.branch_labels"])
    assert [4 * c.l2 for c in cases] == EXPECTED["invariants.branch_degrees"]
    square = EXPECTED["invariants.cover_branch_square"]
    cover_branch = SingularityProfile(square // 4, [2, 2])
    chi, k2 = resolution_invariants(cover_branch)
    assert [chi, k2] == EXPECTED["invariants.double_cover"]
    assert ball_quotient_check(k2, chi)
    assert not ball_quotient_check(k2 + 1, chi)
    rotation = gamma_action_on_sigma()
    assert rotation.order() == EXPECTED["search.rotation_order"]
    assert str(rotation) == EXPECTED["search.rotation_cycle"]
    print("criterion 8: PASS")


def test_headline_claim_needs_a_witness():
    # (chi, K^2) of the double cover as verify-all computes it.  With
    # e = 12 chi - K^2 (Noether), K^2 = 2e is the Chern ratio of every
    # compact quotient of H x H, so these invariants alone cannot show
    # that the universal cover is not H x H.
    chi, k2 = dict(_invariants_rows())["invariants.double_cover"]
    assert (chi, k2) == (1, 8)
    e = 12 * chi - k2
    assert e == 4 and k2 == 2 * e


def test_rigidity_the_curves_span_neron_severi():
    # NS(A) is the integral alternating forms E on the product lattice with
    # E(zeta v, zeta w) = E(v, w), that is Z^T E Z = E for Z the lattice map
    # of multiplication by zeta: a kernel in the six entries above the
    # diagonal (Birkenhake-Lange, 2.2)
    z = sympy.Matrix(rational_rep(AffineSymmetry([[ZETA, 0], [0, ZETA]]),
                                  catalog.PRODUCT_LATTICE))
    pairs = list(itertools.combinations(range(4), 2))

    def alternating(upper):
        e = sympy.zeros(4, 4)
        for (i, j), x in zip(pairs, upper):
            e[i, j], e[j, i] = x, -x
        return e

    columns = []
    for k in range(6):
        e = alternating([int(i == k) for i in range(6)])
        moved = z.T * e * z - e
        columns.append([moved[i, j] for i, j in pairs])
    system = sympy.Matrix(columns).T
    # rho(A) = 4, the largest Picard number of an abelian surface
    assert len(system.nullspace()) == 4
    # the four curve forms lie in NS(A), and their Smith normal form is
    # diag(1, 1, 1, 1), so they span a saturated rank-4 sublattice of the
    # integral points of the kernel: a Z-basis of NS(A)
    curves = sympy.Matrix([im_on_lattice(h, catalog.PRODUCT_LATTICE)
                           .upper_triangle() for h in CURVE_FORMS])
    assert (system * curves.T).is_zero_matrix
    assert smith_normal_form(curves, domain=sympy.ZZ) == \
        sympy.Matrix.hstack(sympy.eye(4), sympy.zeros(4, 2))


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
                               catalog.COVER_LATTICE) == \
        EXPECTED["invariants.cover_branch_square"]
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
        f = [[EisRat(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(2)] for _ in range(2)]
        g = [[EisRat(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(2)] for _ in range(2)]
        fg = [[sum(f[i][k] * g[k][j] for k in range(2))
               for j in range(2)] for i in range(2)]
        assert pullback_hom(pullback_hom(bundle, f, lat), g, lat) == \
            pullback_hom(bundle, fg, lat)
    print("criterion 9: PASS")
