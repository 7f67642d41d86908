import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcover import appell_humbert, catalog
from hexcover.appell_humbert import (
    AltFormOnLattice,
    HermitianForm,
    LatticeMismatch,
    LineBundleClass,
    NotIntegral,
    NotInLattice,
    NotLatticeMap,
    ORDER_TWO_SIGN_PATTERNS,
    Semicharacter,
    _pulled_form,
    im_on_lattice,
    intersection_number,
    pfaffian,
    pullback_antihom,
    pullback_hom,
    square_roots,
    tensor,
    translate,
)
from hexcover.eisenstein import ZETA, EisRat, _zeta_det, mat, mat_identity
from hexcover.lattice import AmbientVector, LatticeBasis, coords_in

import golden
from golden import EXPECTED
from oracles import (
    FractionSemicharacter,
    bundle_with_exponents,
    cocycle_eval_left,
    cocycle_eval_right,
    eisrat_rows,
    fraction_eval_coords,
    halves_integrally,
    hermitian_value,
    is_conjugate_symmetric,
    pfaffian4_from_upper,
    q_zeta_pulled_form,
    scaled_form,
    symmetric_semichar_from_multiplicities,
    sympy_det,
)
from strategies import (ambient_vectors, eis_matrices, eis_rationals,
                        hermitian_forms, lattice_bases, rationals)

# the sixteen square roots of the cover branch bundle, in canonical order
ROOTS = square_roots(catalog.BRANCH_COVER)
# the hermitian forms of the four curve bundles
CURVE_FORMS = tuple(bundle.form for bundle in catalog.CURVE_BUNDLES)
# the zero form, the first Chern class of the trivial bundle
ZERO_FORM = HermitianForm(((0, 0), (0, 0)))


def _signs(bundle):
    out = []
    for q in bundle.character.exponents:
        assert q in (Fraction(0), Fraction(1, 2))
        out.append(-1 if q == Fraction(1, 2) else 1)
    return tuple(out)


def _form_matrix(pairs):
    return HermitianForm([[EisRat(*p) for p in row] for row in pairs])


def test_sign_patterns_match_golden():
    assert ORDER_TWO_SIGN_PATTERNS == golden.ORDER_TWO_SIGNS


def test_hermitian_constructor_rejects_asymmetric():
    with pytest.raises(ValueError):
        HermitianForm([[0, 1], [0, 0]])
    # conjugate-symmetric with zeta entries is accepted
    HermitianForm([[2, EisRat(0, -2)], [EisRat(-2, 2), 2]])


@st.composite
def _nearly_hermitian(draw):
    """A 2x2 matrix over Q(zeta): a third of the draws conjugate-symmetric,
    a third conjugate-symmetric but for one entry moved by a nonzero
    amount (which a real amount on the diagonal keeps symmetric), and a
    third arbitrary."""
    kind = draw(st.sampled_from(("hermitian", "moved", "arbitrary")))
    if kind == "arbitrary":
        return draw(eis_matrices)
    off = draw(eis_rationals)
    m = [[EisRat(draw(rationals)), off],
         [off.conjugate(), EisRat(draw(rationals))]]
    if kind == "moved":
        i, j = draw(st.sampled_from(((0, 0), (0, 1), (1, 0), (1, 1))))
        m[i][j] += draw(eis_rationals.filter(bool))
    return m


@given(_nearly_hermitian())
def test_hermitian_test_matches_conjugate_transpose(m):
    # the constructor tests that the integer Gram of Im h is skew
    if is_conjugate_symmetric(m):
        assert HermitianForm(m).matrix == mat(m)
    else:
        with pytest.raises(ValueError, match="not conjugate-symmetric"):
            HermitianForm(m)


def test_curve_bundle_forms_match_published_matrices():
    for k, bundle in enumerate(catalog.CURVE_BUNDLES, start=1):
        assert bundle.form == _form_matrix(EXPECTED[f"tables.curve_form_{k}"])
    assert catalog.BRANCH_PRODUCT.form == \
        _form_matrix(EXPECTED["tables.branch_form_sum"])


def test_first_curve_bundle_is_the_theta_bundle():
    # the first curve map is the second projection, and the theta bundle
    # is carried on the product lattice as its pullback along it
    assert catalog.CURVE_MAPS[0] == mat([[0, 0], [0, 1]])
    assert catalog.CURVE_BUNDLES[0] == catalog.GENUS1_THETA
    assert catalog.GENUS1_THETA.lattice == catalog.PRODUCT_LATTICE


def test_curve_characters_match_closed_forms():
    # lattice vector a1*u1 + a2*l1 + a3*u2 + a4*l2, product-basis coords
    # (a2, a4, a1, a3)
    for a in itertools.product((0, 1), repeat=4):
        a1, a2, a3, a4 = a
        coords = [a2, a4, a1, a3]
        want = golden.curve_char_closed_forms(a1, a2, a3, a4)
        for bundle, w in zip(catalog.CURVE_BUNDLES, want):
            q = bundle.character.eval_coords(coords)
            got = -1 if q == Fraction(1, 2) else 1
            assert q in (Fraction(0), Fraction(1, 2))
            assert got == w


def test_branch_character_matches_closed_form_on_16_parities():
    for a in itertools.product((0, 1), repeat=4):
        a1, a2, a3, a4 = a
        coords = [a2, a4, a1, a3]
        q = catalog.BRANCH_PRODUCT.character.eval_coords(coords)
        got = -1 if q == Fraction(1, 2) else 1
        assert got == golden.branch_char_closed_form(a1, a2, a3, a4)
    assert _signs(catalog.BRANCH_PRODUCT) == golden.BRANCH_CHAR_PRODUCT_SIGNS


def test_branch_alt_form_tables():
    alt = catalog.BRANCH_PRODUCT.character.form
    assert list(alt.upper_triangle()) == EXPECTED["tables.branch_alt_product"]
    alt_cover = catalog.BRANCH_COVER.character.form
    assert list(alt_cover.upper_triangle()) == \
        EXPECTED["tables.branch_alt_cover"]


def _alt_rows(upper):
    """The 4x4 alternating matrix with the given entries above the
    diagonal, row by row."""
    m = [[0] * 4 for _ in range(4)]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for (i, j), x in zip(pairs, upper):
        m[i][j], m[j][i] = x, -x
    return m


def test_alt_form_constructor_validates_skewness():
    lattice = catalog.PRODUCT_LATTICE
    half = Fraction(1, 2)
    rows = _alt_rows((half, 0, 0, 0, 0, 1))
    alt = AltFormOnLattice(lattice, rows)
    assert alt.matrix == tuple(map(tuple, rows))
    assert alt.upper_triangle() == (half, 0, 0, 0, 0, 1)
    with pytest.raises(TypeError):
        AltFormOnLattice(lattice, [[str(x) for x in row] for row in rows])
    with pytest.raises(ValueError, match="alternating matrix must be skew"):
        AltFormOnLattice(lattice, [[int(i == j) for j in range(4)]
                                   for i in range(4)])
    with pytest.raises(ValueError, match="alternating matrix must be skew"):
        AltFormOnLattice(lattice, [[abs(x) for x in row] for row in rows])
    for shape in ([[0, half], [-half, 0]], [row[:3] for row in rows],
                  rows[:3]):
        with pytest.raises(ValueError, match="must be 4x4"):
            AltFormOnLattice(lattice, shape)


def test_pfaffians_and_self_intersections():
    alt = catalog.BRANCH_PRODUCT.character.form
    assert pfaffian(alt) == golden.PF_PRODUCT
    alt_cover = catalog.BRANCH_COVER.character.form
    assert pfaffian(alt_cover) == golden.PF_COVER
    # principal polarization of product type
    principal = im_on_lattice(HermitianForm([[2, 0], [0, 2]]),
                              catalog.PRODUCT_LATTICE)
    assert pfaffian(principal) == golden.PF_PRINCIPAL_PRODUCT
    zero = im_on_lattice(ZERO_FORM, catalog.PRODUCT_LATTICE)
    assert pfaffian(zero) == 0
    # self-intersection via the intersection pairing
    assert intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                               catalog.PRODUCT_LATTICE) == golden.SELF_INT_PRODUCT
    assert intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                               catalog.COVER_LATTICE) == \
        EXPECTED["invariants.cover_branch_square"]


def test_pfaffian_oracle_cross_check():
    # the raw three-term expansion of the frozen table, oriented by the
    # sign of the ambient coordinate determinant (computed via sympy)
    raw = pfaffian4_from_upper(EXPECTED["tables.branch_alt_product"])
    det = sympy_det(golden.PRODUCT_BASIS)
    sign = 1 if det > 0 else -1
    assert sign * raw == golden.PF_PRODUCT
    raw_cover = pfaffian4_from_upper(EXPECTED["tables.branch_alt_cover"])
    det_cover = sympy_det(golden.COVER_BASIS)
    sign_cover = 1 if det_cover > 0 else -1
    assert sign_cover * raw_cover == golden.PF_COVER


def test_pfaffian_invariant_under_rebasing():
    v = catalog.PRODUCT_LATTICE.vectors
    shuffled = LatticeBasis([v[2], v[0], v[3], v[1] + v[2]])
    alt = im_on_lattice(catalog.SUM_FORM, shuffled)
    assert pfaffian(alt) == golden.PF_PRODUCT


def test_pfaffian_requires_rank4():
    # the theta form of the genus-1 curve, on the product lattice, is
    # degenerate: the curve has self-intersection 0
    alt = im_on_lattice(HermitianForm([[0, 0], [0, 2]]),
                        catalog.PRODUCT_LATTICE)
    assert alt == catalog.GENUS1_THETA.character.form
    assert pfaffian(alt) == 0
    # a form on a rank-2 lattice cannot be built, so every pfaffian is of
    # a 4x4 matrix
    with pytest.raises(ValueError, match="must be 4x4"):
        AltFormOnLattice(catalog.PRODUCT_LATTICE, [[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="four vectors"):
        LatticeBasis.from_rows([(0, 0, 1, 0), (0, 0, 0, 1)])


def test_intersection_gram_matrices():
    gram = [[intersection_number(hi, hj, catalog.PRODUCT_LATTICE)
             for hj in CURVE_FORMS] for hi in CURVE_FORMS]
    for i in range(4):
        for j in range(4):
            assert gram[i][j] == (0 if i == j else 1)
    assert sympy_det(gram) == -3
    for i in range(4):
        for j in range(4):
            if i != j:
                assert intersection_number(CURVE_FORMS[i], CURVE_FORMS[j],
                                           catalog.COVER_LATTICE) == 2
    assert intersection_number(catalog.SUM_FORM, ZERO_FORM,
                               catalog.PRODUCT_LATTICE) == 0


def _curve_form(direction):
    """The form of the elliptic curve through 0 with tangent direction
    (u, v), given as Z[zeta] pairs: GENUS1_THETA pulled back along
    (z1, z2) -> (0, v*z1 - u*z2), whose kernel is that curve."""
    u, v = (EisRat(*x) for x in direction)
    return pullback_hom(catalog.GENUS1_THETA, mat([[0, 0], [v, -u]]),
                        catalog.PRODUCT_LATTICE).form


def _kani(p, q):
    """N(ad - bc) for the directions p = (a, b) and q = (c, d)."""
    return EisRat(*_zeta_det(p, q)).norm()


def test_kani_formula_on_the_four_curves():
    # E_(a:b) . E_(c:d) = N(ad - bc) (Kani, Manuscripta Math. 84, 1994):
    # pairwise unit determinants, so the Gram is J - I
    lines = catalog.CURVE_LINES
    assert tuple(map(_curve_form, lines)) == CURVE_FORMS
    gram = [[_kani(p, q) for q in lines] for p in lines]
    assert gram == [[int(i != j) for j in range(4)] for i in range(4)]
    assert gram == [[intersection_number(hi, hj, catalog.PRODUCT_LATTICE)
                     for hj in CURVE_FORMS] for hi in CURVE_FORMS]


_small_integers = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
# the primitive directions (1 : x) and (x : 1)
_primitive_directions = st.builds(
    lambda x, first: (x, (1, 0)) if first else ((1, 0), x),
    _small_integers, st.booleans())


@given(_primitive_directions, _primitive_directions)
def test_kani_formula_on_primitive_directions(p, q):
    assert intersection_number(_curve_form(p), _curve_form(q),
                               catalog.PRODUCT_LATTICE) == _kani(p, q)


def test_intersection_rejects_nonintegral():
    half = scaled_form(catalog.SUM_FORM, Fraction(1, 2))
    with pytest.raises(NotIntegral):
        intersection_number(half, half, catalog.PRODUCT_LATTICE)


def test_intersection_rejects_fractional_pfaffian_difference(monkeypatch):
    # Integral forms always give an integer difference, so only a broken
    # pfaffian reaches this branch; it must raise, not return int(1/2).
    single = im_on_lattice(catalog.SUM_FORM, catalog.PRODUCT_LATTICE)

    def stub(e):
        return Fraction(0) if e == single else Fraction(1, 2)

    monkeypatch.setattr(appell_humbert, "pfaffian", stub)
    with pytest.raises(NotIntegral):
        intersection_number(catalog.SUM_FORM, catalog.SUM_FORM,
                            catalog.PRODUCT_LATTICE)


@given(hermitian_forms(), lattice_bases())
def test_im_on_lattice_matches_q_zeta_values(h, lattice):
    alt = im_on_lattice(h, lattice)
    vs = lattice.vectors
    for i, vi in enumerate(vs):
        for j, vj in enumerate(vs):
            value = hermitian_value(h, vi, vj).im
            assert alt.matrix[i][j] == value
            # integral entries are ints, the others Fractions
            assert type(alt.matrix[i][j]) is (
                int if value.denominator == 1 else Fraction)


def _gram_value(h, v, w) -> Fraction:
    """v . E . w / den for h.gram = (den, E), on Fraction coordinates."""
    den, e = h.gram
    x, y = v.coordinates, w.coordinates
    return sum(x[i] * e[i][j] * y[j]
               for i in range(4) for j in range(4)) / den


@given(hermitian_forms(), ambient_vectors, ambient_vectors)
def test_gram_matches_q_zeta_value(h, v, w):
    assert _gram_value(h, v, w) == hermitian_value(h, v, w).im
    half = scaled_form(h, Fraction(1, 2))
    assert _gram_value(half, v, w) == hermitian_value(half, v, w).im


def test_semichar_eval_examples():
    chi = catalog.BRANCH_PRODUCT.character
    assert chi.eval_coords([1, 0, 0, 0]) == Fraction(1, 2)   # value -1
    assert chi.eval_coords([0, 0, 0, 0]) == Fraction(0)
    v = AmbientVector((0, 1, 0, 0))
    assert chi.eval(v) == Fraction(1, 2)
    with pytest.raises(NotInLattice):
        chi.eval(AmbientVector((Fraction(1, 2), 0, 0, 0)))


@pytest.mark.parametrize("coords", [(1, 0, 0), (1, 0, 0, 0, 7)])
def test_eval_coords_refuses_other_lengths(coords):
    with pytest.raises(ValueError, match="four coordinates"):
        catalog.BRANCH_COVER.character.eval_coords(coords)


def test_semichar_cocycle_well_defined():
    chis = [catalog.BRANCH_PRODUCT.character,
            catalog.BRANCH_COVER.character,
            ROOTS[0].character,
            ROOTS[7].character]
    for chi in chis:
        qs = chi.exponents
        upper = chi.form.upper_triangle()
        for n in itertools.product(range(-2, 3), repeat=4):
            closed = chi.eval_coords(list(n))
            left = cocycle_eval_left(qs, upper, list(n))
            right = cocycle_eval_right(qs, upper, list(n))
            assert closed == left == right


def test_tensor_reproduces_branch_bundle():
    acc = catalog.CURVE_BUNDLES[0]
    for b in catalog.CURVE_BUNDLES[1:]:
        acc = tensor(acc, b)
    assert acc == catalog.BRANCH_PRODUCT
    trivial = bundle_with_exponents(ZERO_FORM,
                                    catalog.PRODUCT_LATTICE, [0, 0, 0, 0])
    assert tensor(catalog.BRANCH_PRODUCT, trivial) == catalog.BRANCH_PRODUCT


def test_tensor_lattice_mismatch():
    with pytest.raises(LatticeMismatch):
        tensor(catalog.BRANCH_PRODUCT, catalog.BRANCH_COVER)


def test_square_of_root_is_branch_bundle():
    psi1 = ROOTS[0]
    assert tensor(psi1, psi1) == catalog.BRANCH_COVER
    assert _signs(catalog.BRANCH_COVER) == golden.BRANCH_CHAR_COVER_SIGNS


def test_pullback_identity_gives_cover_branch_character():
    got = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2),
                       catalog.COVER_LATTICE)
    assert got == catalog.BRANCH_COVER
    assert _signs(got) == golden.BRANCH_CHAR_COVER_SIGNS
    same = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2),
                        catalog.PRODUCT_LATTICE)
    assert same == catalog.BRANCH_PRODUCT


def test_pullback_not_lattice_map():
    shrunk = LatticeBasis([Fraction(1, 3) * v
                           for v in catalog.PRODUCT_LATTICE.vectors])
    with pytest.raises(NotLatticeMap):
        pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2), shrunk)


def test_pullback_functoriality_random_pairs():
    rng = random.Random(4711)
    lat = catalog.PRODUCT_LATTICE
    bundle = catalog.BRANCH_PRODUCT
    checked = 0
    while checked < 100:
        # literal rows, which the pullbacks read through mat
        f = [[EisRat(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(2)] for _ in range(2)]
        g = [[EisRat(rng.randint(-1, 1), rng.randint(-1, 1))
              for _ in range(2)] for _ in range(2)]
        fg = [[sum((f[i][k] * g[k][j] for k in range(2)), EisRat(0))
               for j in range(2)] for i in range(2)]
        lf = pullback_hom(bundle, f, lat)
        lfg = pullback_hom(lf, g, lat)
        direct = pullback_hom(bundle, fg, lat)
        assert lfg == direct
        checked += 1


def test_translate_by_lattice_vector_is_identity():
    bundle = catalog.BRANCH_COVER
    for v in catalog.COVER_LATTICE.vectors:
        assert translate(bundle, v) == bundle


@pytest.mark.parametrize("solve", [
    lambda v: coords_in(catalog.COVER_LATTICE, v),
    lambda v: translate(catalog.BRANCH_COVER, v),
], ids=["coords_in", "translate"])
@pytest.mark.parametrize("bad", [(0, 1, 0, 0), None], ids=["tuple", "none"])
def test_vector_arguments_must_be_ambient_vectors(solve, bad):
    with pytest.raises(TypeError, match="expected an AmbientVector"):
        solve(bad)


def test_translate_composes():
    rng = random.Random(99)
    bundle = ROOTS[0]
    for _ in range(20):
        v = AmbientVector([Fraction(rng.randint(-4, 4), 2) for _ in range(4)])
        w = AmbientVector([Fraction(rng.randint(-4, 4), 2) for _ in range(4)])
        assert translate(translate(bundle, v), w) == translate(bundle, v + w)


def test_translate_moves_psi1_to_psi7():
    moved = translate(ROOTS[0], catalog.BRANCH_BASE_POINT)
    assert moved == ROOTS[6]
    moved4 = translate(ROOTS[3], catalog.BRANCH_BASE_POINT)
    assert moved4 == ROOTS[7]


def test_antihom_pullback_examples():
    sigma = catalog.SIGMA_LINEAR
    got = pullback_antihom(ROOTS[0], sigma, catalog.COVER_LATTICE)
    assert got == ROOTS[13]
    got3 = pullback_antihom(ROOTS[2], sigma, catalog.COVER_LATTICE)
    assert got3 == ROOTS[15]


def test_antihom_applied_twice_is_identity():
    sigma = catalog.SIGMA_LINEAR
    for k in (0, 4, 9):
        bundle = ROOTS[k]
        once = pullback_antihom(bundle, sigma, catalog.COVER_LATTICE)
        twice = pullback_antihom(once, sigma, catalog.COVER_LATTICE)
        assert twice == bundle


def test_is_symmetric():
    # a symmetric bundle's semicharacter is +-1 on the basis
    def is_symmetric(bundle):
        return set(bundle.character.exponents) <= {0, Fraction(1, 2)}

    assert is_symmetric(catalog.BRANCH_PRODUCT)
    assert is_symmetric(catalog.BRANCH_COVER)
    assert not is_symmetric(ROOTS[0])
    trivial = bundle_with_exponents(ZERO_FORM,
                                    catalog.PRODUCT_LATTICE, [0, 0, 0, 0])
    assert is_symmetric(trivial)


def test_multiplicity_rule_genus1():
    # theta divisor of the genus-1 curve: multiplicity 1 at the origin only
    pred = symmetric_semichar_from_multiplicities(2, {(0, 0): 1})
    assert pred[(1, 0)] == -1 and pred[(0, 1)] == -1 and pred[(1, 1)] == -1
    assert pred[(0, 0)] == 1
    even = symmetric_semichar_from_multiplicities(2, {(0, 0): 2, (1, 0): 4})
    assert set(even.values()) == {1}


def test_multiplicity_rule_reproduces_branch_character():
    # multiplicities of the branch divisor at the sixteen 2-torsion points
    # of the product surface, counted through curve membership
    mults = {(0, 0, 0, 0): 4}
    for points in golden.CURVE_TORSION_PARITIES:
        for p in points:
            mults[p] = mults.get(p, 0) + 1
    pred = symmetric_semichar_from_multiplicities(4, mults)
    chi = catalog.BRANCH_PRODUCT.character
    for parity in itertools.product((0, 1), repeat=4):
        q = chi.eval_coords(list(parity))
        got = -1 if q == Fraction(1, 2) else 1
        assert got == pred[parity]


def test_square_roots_of_cover_branch_match_printed_list():
    roots = ROOTS
    assert len(roots) == EXPECTED["orbits.root_count"]
    for root, expected in zip(roots, golden.SQUARE_ROOT_EXPONENTS):
        assert root.character.exponents == expected
        assert root.form == scaled_form(catalog.SUM_FORM, Fraction(1, 2))
    # pairwise distinct, squares agree, quotients are +-1 characters
    assert len(set(roots)) == len(roots)
    for root in roots:
        assert tensor(root, root) == catalog.BRANCH_COVER
    base = roots[0]
    for root in roots[1:]:
        diff = [a - b for a, b in zip(root.character.exponents,
                                      base.character.exponents)]
        assert all(d % 1 in (Fraction(0), Fraction(1, 2)) for d in diff)


def test_square_roots_empty_on_product_surface():
    assert square_roots(catalog.BRANCH_PRODUCT) == []
    assert any(x % 2 for x in EXPECTED["tables.branch_alt_product"])


def test_square_roots_of_trivial_bundle():
    trivial = bundle_with_exponents(ZERO_FORM,
                                    catalog.PRODUCT_LATTICE, [0, 0, 0, 0])
    roots = square_roots(trivial)
    assert len(roots) == 16
    assert roots[0].character.exponents == (0, 0, 0, 0)
    for root, pattern in zip(roots, ORDER_TWO_SIGN_PATTERNS):
        assert root.form == ZERO_FORM
        got = tuple(-1 if q == Fraction(1, 2) else 1
                    for q in root.character.exponents)
        assert got == pattern


def test_square_roots_require_rank_4():
    # the sign patterns are the sixteen of rank 4, and every lattice has
    # rank 4: the genus-1 theta bundle lives on the product lattice, where
    # its square has the sixteen roots, itself among them
    theta = catalog.GENUS1_THETA
    assert square_roots(theta) == []
    square = tensor(theta, theta)
    roots = square_roots(square)
    assert len(roots) == 16 and len(set(roots)) == 16
    assert theta in roots
    assert all(tensor(root, root) == square for root in roots)
    # a rank-2 basis cannot be built
    with pytest.raises(ValueError, match="four vectors"):
        LatticeBasis(theta.lattice.vectors[1::2])


def test_semicharacter_requires_integral_form():
    bundle = catalog.BRANCH_PRODUCT
    alt = im_on_lattice(scaled_form(bundle.form, Fraction(1, 2)),
                        bundle.lattice)
    with pytest.raises(NotIntegral):
        Semicharacter([0, 0, 0, 0], alt)


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_semicharacter_rejects_non_rational_exponents(bad):
    alt = catalog.BRANCH_PRODUCT.character.form
    with pytest.raises(TypeError):
        Semicharacter([0, bad, 0, 0], alt)


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_forms_reject_non_rational_entries(bad):
    with pytest.raises(TypeError):
        AltFormOnLattice(catalog.PRODUCT_LATTICE,
                         [[0, bad, 0, 0], [-1, 0, 0, 0], [0] * 4, [0] * 4])
    with pytest.raises(TypeError):
        HermitianForm([[bad, 0], [0, 0]])


def test_intersection_bilinear_on_curve_forms():
    rng = random.Random(5)
    for _ in range(10):
        c = [rng.randint(0, 2) for _ in range(4)]
        d = [rng.randint(0, 2) for _ in range(4)]
        hc = ZERO_FORM
        hd = ZERO_FORM
        for k in range(4):
            for _ in range(c[k]):
                hc = hc + CURVE_FORMS[k]
            for _ in range(d[k]):
                hd = hd + CURVE_FORMS[k]
        got = intersection_number(hc, hd, catalog.PRODUCT_LATTICE)
        want = sum(c[i] * d[j] * (0 if i == j else 1)
                   for i in range(4) for j in range(4))
        assert got == want
        assert got == intersection_number(hd, hc, catalog.PRODUCT_LATTICE)


@given(hermitian_forms(), eis_matrices, st.booleans())
def test_pulled_form_matches_q_zeta_oracle(h, f, conjugate):
    # eisrat_rows also checks that the pulled form is a canonical EisMat
    assert eisrat_rows(_pulled_form(h.matrix, mat(f), conjugate)) == \
        q_zeta_pulled_form(h.matrix, f, conjugate)


@pytest.mark.parametrize("pullback", [pullback_hom, pullback_antihom])
@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]],
                                  [[1, 0], [0, 1], [0, 0]]])
def test_pullback_rejects_non_square_matrix(pullback, rows):
    # the one shape check, mat's
    with pytest.raises(ValueError, match="2x2"):
        pullback(catalog.BRANCH_PRODUCT, rows, catalog.PRODUCT_LATTICE)


@settings(deadline=None)
@given(hermitian_forms(), lattice_bases(), ambient_vectors, st.data())
def test_translate_shift_matches_q_zeta_value(h, lattice, t, data):
    # scale h so that Im h is integral on the lattice, as a bundle needs
    den = lcm(*(x.denominator
                for row in im_on_lattice(h, lattice).matrix for x in row))
    h = scaled_form(h, den)
    exps = data.draw(st.lists(st.fractions(0, 1, max_denominator=6),
                              min_size=4, max_size=4))
    bundle = bundle_with_exponents(h, lattice, exps)
    moved = translate(bundle, t)
    assert moved.form == bundle.form
    assert moved.character.form == bundle.character.form
    assert moved.character.exponents == tuple(
        (q + hermitian_value(h, t, b).im) % 1
        for q, b in zip(bundle.character.exponents, lattice.vectors))


def test_im_on_lattice_is_int_on_the_cover():
    alt = im_on_lattice(catalog.SUM_FORM, catalog.COVER_LATTICE)
    assert all(type(x) is int for row in alt.matrix for x in row)


def test_alt_form_from_fractions_equals_int_form():
    roots = ROOTS
    for bundle in (catalog.BRANCH_COVER, roots[0]):
        alt = bundle.character.form
        as_fractions = AltFormOnLattice(
            alt.lattice, [[Fraction(x) for x in row] for row in alt.matrix])
        assert as_fractions == alt
        assert hash(as_fractions) == hash(alt)
    # a root rebuilt on an all-Fraction form still validates and is found
    root = roots[5]
    form = root.character.form
    rebuilt = LineBundleClass(root.form, Semicharacter(
        root.character.exponents,
        AltFormOnLattice(form.lattice,
                         [[Fraction(x) for x in row] for row in form.matrix])))
    assert roots.index(rebuilt) == 5
    rows = _alt_rows((Fraction(1, 2), 0, 0, 0, 0, 1))
    half = AltFormOnLattice(catalog.PRODUCT_LATTICE, rows)
    assert half == AltFormOnLattice(catalog.PRODUCT_LATTICE,
                                    [[Fraction(x) for x in row]
                                     for row in rows])


# exponents with denominators up to 12, negative and above 1 included, and
# lattice coordinates, one per basis vector
_EXPONENT_LISTS = st.lists(st.fractions(-2, 2, max_denominator=12),
                           min_size=4, max_size=4)
_COORDINATES = st.lists(st.integers(-7, 7), min_size=4, max_size=4)


@st.composite
def integral_alt_forms(draw):
    """Integral alternating forms on a random basis, with int or
    denominator-1 Fraction entries."""
    lattice = draw(lattice_bases())
    wrap = Fraction if draw(st.booleans()) else int
    m = [[wrap(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            x = draw(st.integers(-6, 6))
            m[i][j], m[j][i] = wrap(x), wrap(-x)
    return AltFormOnLattice(lattice, m)


@st.composite
def alt_forms_even_or_not(draw):
    """Alternating forms on the product basis with int and Fraction
    entries; in about half of the draws every entry is even."""
    even = draw(st.booleans())
    m = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            if even:
                wrap = draw(st.sampled_from((int, Fraction)))
                x = wrap(2 * draw(st.integers(-3, 3)))
            else:
                x = Fraction(draw(st.integers(-6, 6)),
                             draw(st.sampled_from((1, 2, 3))))
            m[i][j], m[j][i] = x, -x
    return AltFormOnLattice(catalog.PRODUCT_LATTICE, m)


@given(alt_forms_even_or_not())
def test_is_even_matches_halving_oracle(alt):
    assert alt.is_even() == halves_integrally(alt.matrix)


@given(integral_alt_forms(), st.data())
def test_eval_coords_matches_fraction_oracle(alt, data):
    exps = data.draw(_EXPONENT_LISTS)
    n = data.draw(_COORDINATES)
    chi = Semicharacter(exps, alt)
    got = chi.eval_coords(n)
    assert got == fraction_eval_coords(chi.exponents, alt.matrix, n)
    assert 0 <= got < 1


@settings(deadline=None)
@given(hermitian_forms(), hermitian_forms(), lattice_bases())
def test_im_on_lattice_cache_matches_fresh_basis(h1, h2, lattice):
    warm = [im_on_lattice(h, lattice) for h in (h1, h2, h1, h2)]
    assert warm[2] is warm[0] and warm[3] is warm[1]
    for h, alt in zip((h1, h2), warm):
        fresh = LatticeBasis(lattice.vectors)
        assert fresh is not lattice and fresh == lattice
        assert im_on_lattice(h, fresh) == alt


def test_equal_grams_share_one_cache_entry():
    lattice = LatticeBasis(catalog.COVER_LATTICE.vectors)
    h1 = _form_matrix([[(2, 0), (1, 1)], [(2, -1), (4, 0)]])
    h2 = _form_matrix([[(2, 0), (1, 1)], [(2, -1), (4, 0)]])
    assert h1 is not h2 and h1.gram == h2.gram
    assert im_on_lattice(h2, lattice) is im_on_lattice(h1, lattice)
    assert len(lattice._im_forms) == 1
    im_on_lattice(scaled_form(h1, 2), lattice)
    assert len(lattice._im_forms) == 2


def test_validation_still_runs_on_a_warm_cache():
    lattice = LatticeBasis(catalog.COVER_LATTICE.vectors)
    form = catalog.SUM_FORM
    right = im_on_lattice(form, lattice)
    LineBundleClass(form, Semicharacter([0, 0, 0, 0], right))
    wrong = im_on_lattice(scaled_form(form, 2), lattice)
    with pytest.raises(LatticeMismatch):
        LineBundleClass(form, Semicharacter([0, 0, 0, 0], wrong))


# Z[zeta]^2 on a non-reduced basis.  Conjugation preserves it, so a linear
# part in GL2(Z[zeta]) is a lattice map both holomorphically and
# anti-holomorphically.
_STANDARD_ROWS = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1))


def test_pullback_plan_on_a_warm_lattice_matches_fresh_lattices():
    warm = LatticeBasis.from_rows(_STANDARD_ROWS)
    bundle = bundle_with_exponents(scaled_form(catalog.SUM_FORM, 2), warm,
                                   [0, Fraction(1, 3), 0, Fraction(1, 2)])
    roots = square_roots(bundle)
    assert len(roots) == 16 and roots[0].form != bundle.form
    f = mat([[1, 1], [0, ZETA]])
    results = {}
    # the holomorphic map first, so that the anti-holomorphic one meets a
    # warm cache with the same linear part; the bundle before its roots, so
    # that the roots meet a warm cache holding another form
    for pullback in (pullback_hom, pullback_antihom):
        for source in [bundle] + roots:
            got = results[pullback, source] = pullback(source, f, warm)
            fresh = LatticeBasis(warm.vectors)
            cold = bundle_with_exponents(source.form, fresh,
                                         source.character.exponents)
            assert got == pullback(cold, f, fresh)
    assert len(warm._pullbacks) == 4  # one plan per (flag, form)
    assert any(results[pullback_hom, r] != results[pullback_antihom, r]
               for r in roots)


def test_not_lattice_map_raises_on_a_warm_plan():
    lattice = LatticeBasis(catalog.PRODUCT_LATTICE.vectors)
    bundle = pullback_hom(catalog.BRANCH_PRODUCT, mat_identity(2), lattice)
    halving = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    for _ in range(2):
        with pytest.raises(NotLatticeMap):
            pullback_hom(bundle, halving, lattice)
    assert len(lattice._pullbacks) == 2


def test_semicharacter_checks_run_on_a_warm_cache():
    lattice = LatticeBasis(catalog.PRODUCT_LATTICE.vectors)
    form = catalog.BRANCH_PRODUCT.form
    alt = im_on_lattice(form, lattice)
    half = im_on_lattice(scaled_form(form, Fraction(1, 2)), lattice)
    assert alt.is_integral() and not half.is_integral()
    for _ in range(2):
        assert im_on_lattice(form, lattice) is alt
        chi = Semicharacter([Fraction(-1, 3), Fraction(5, 2), 1,
                             Fraction(1, 4)], alt)
        assert chi.exponents == (Fraction(2, 3), Fraction(1, 2), 0,
                                 Fraction(1, 4))
        assert all(type(q) is Fraction for q in chi.exponents)
        for bad in (0.5, "1/2"):
            with pytest.raises(TypeError):
                Semicharacter([0, bad, 0, 0], alt)
        with pytest.raises(NotIntegral):
            Semicharacter([0, 0, 0, 0], half)


@settings(deadline=None)
@given(integral_alt_forms(), st.data())
def test_semicharacter_matches_fraction_oracle(alt, data):
    lattice = alt.lattice
    e1 = data.draw(_EXPONENT_LISTS)
    if data.draw(st.booleans()):
        # the same character written with other representatives
        e2 = [q + data.draw(st.integers(-2, 2)) for q in e1]
    else:
        e2 = data.draw(_EXPONENT_LISTS)
    n = data.draw(_COORDINATES)
    chi1, chi2 = (Semicharacter(e, alt) for e in (e1, e2))
    o1, o2 = (FractionSemicharacter(lattice, e, alt) for e in (e1, e2))
    for chi, o in ((chi1, o1), (chi2, o2)):
        assert chi.exponents == o.exponents
        assert all(type(q) is Fraction for q in chi.exponents)
        assert chi.eval_coords(n) == o.eval_coords(n)
    prod, oprod = chi1 * chi2, o1 * o2
    assert prod.exponents == oprod.exponents and prod.form == oprod.form
    reduced = Semicharacter(oprod.exponents, oprod.form)
    assert prod == reduced and hash(prod) == hash(reduced)
    assert prod.eval_coords(n) == oprod.eval_coords(n)
    assert (chi1 == chi2) == (o1 == o2)
    if o1 == o2:
        assert hash(chi1) == hash(chi2)
    again = Semicharacter(o1.exponents, alt)
    assert again == chi1 and hash(again) == hash(chi1)


@settings(deadline=None)
@given(integral_alt_forms(), st.data())
def test_unreduced_numerators_give_equal_characters(alt, data):
    exps = data.draw(_EXPONENT_LISTS)
    chi = Semicharacter(exps, alt)
    den = lcm(*(q.denominator for q in exps))
    nums = [q.numerator * (den // q.denominator) for q in exps]
    # a common factor and whole turns, negative ones included
    k = data.draw(st.integers(1, 6))
    turns = data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    other = Semicharacter._from_numerators(
        den * k, [(n + t * den) * k for n, t in zip(nums, turns)], alt)
    assert other == chi and hash(other) == hash(chi)
    assert other.exponents == chi.exponents
    assert (other._den, other._nums) == (chi._den, chi._nums)


def test_unreduced_exponent_examples():
    lattice = catalog.PRODUCT_LATTICE
    alt = catalog.BRANCH_PRODUCT.character.form
    quarter = Fraction(1, 4)
    chi = Semicharacter([Fraction(1, 2), quarter, quarter, 0], alt)
    for other in (
            Semicharacter([Fraction(2, 4), Fraction(5, 4), Fraction(-3, 4),
                           3], alt),
            Semicharacter._from_numerators(4, [2, 5, -3, 0], alt),
            Semicharacter._from_numerators(8, [-4, 2, 10, 16], alt)):
        assert other == chi and hash(other) == hash(chi)
        assert other.exponents == (Fraction(1, 2), quarter, quarter, 0)
    # 1/4 + 1/4 reduces to 1/2 over the denominator 2
    trivial = im_on_lattice(ZERO_FORM, lattice)
    fourth = Semicharacter([quarter, 0, quarter, 0], trivial)
    square = fourth * fourth
    want = Semicharacter([Fraction(1, 2), 0, Fraction(1, 2), 0], trivial)
    assert square == want and hash(square) == hash(want)
    assert (square._den, square._nums) == (2, (1, 0, 1, 0))
    zero = Semicharacter._from_numerators(6, [6, -12, 0, 18], trivial)
    assert (zero._den, zero._nums) == (1, (0, 0, 0, 0))
    assert zero.exponents == (0, 0, 0, 0)


@pytest.mark.parametrize("make", [
    Semicharacter,
    pytest.param(lambda exps, form: FractionSemicharacter(form.lattice, exps,
                                                          form),
                 id="FractionSemicharacter"),
    lambda exps, form: Semicharacter._from_numerators(1, exps, form)])
def test_semicharacter_errors_match_fraction_oracle(make):
    lattice = catalog.PRODUCT_LATTICE
    alt = catalog.BRANCH_PRODUCT.character.form
    reordered = LatticeBasis(reversed(lattice.vectors))
    alt_reordered = AltFormOnLattice(reordered, alt.matrix)
    with pytest.raises(NotIntegral):
        make([0, 0, 0, 0], im_on_lattice(
            scaled_form(catalog.BRANCH_PRODUCT.form, Fraction(1, 2)), lattice))
    with pytest.raises(ValueError, match="one exponent per basis vector"):
        make([0, 0, 0], alt)
    chi = make([0, 1, 0, 0], alt)
    # the character's lattice is its form's: a product across lattices
    # fails where the forms are added
    with pytest.raises(LatticeMismatch):
        chi * make([0, 0, 0, 0], alt_reordered)


@settings(deadline=None)
@given(hermitian_forms(), lattice_bases(), ambient_vectors, ambient_vectors,
       st.data())
def test_translate_on_a_warm_lattice_matches_fresh_lattices(h, lattice, t1,
                                                            t2, data):
    den = lcm(*(x.denominator
                for row in im_on_lattice(h, lattice).matrix for x in row))
    h = scaled_form(h, den)
    bundles = [bundle_with_exponents(h, lattice,
                                     data.draw(_EXPONENT_LISTS))
               for _ in range(2)]
    # both bundles share the form, so the second one and the repeated
    # vector meet a warm cache
    for t in (t1, t2, t1):
        for bundle in bundles:
            warm = translate(bundle, t)
            fresh = LatticeBasis(lattice.vectors)
            cold = translate(bundle_with_exponents(
                h, fresh, bundle.character.exponents), t)
            assert warm == cold and hash(warm) == hash(cold)
            assert warm.character.exponents == tuple(
                (q + hermitian_value(h, t, b).im) % 1
                for q, b in zip(bundle.character.exponents, lattice.vectors))
    assert len(lattice._shifts) == len({t1, t2})
