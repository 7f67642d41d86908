"""Independent cross-checks used by the test suite.

Most of this is deliberately written without the package under test:
floating-point embeddings, sympy linear algebra, and brute-force loops.
Some run on the package's Q(zeta) and Fraction arithmetic instead, as the
references for code that replaced them with integer kernels:
scan_search_generators is the plain scan that the generator search's
lookup replaced, ComplexLine is the Q(zeta) point of the projective line
that the package's Z[zeta] direction pairs replaced (complex_line builds
one from such a pair), q_zeta_cross_ratio is the cross-ratio of four
ComplexLines that the determinants of cross_ratio on the pairs replaced,
line_permutation is the Q(zeta) tangent permutation that the Z[zeta]
cross-multiplication of _tangent_permutation replaced, on the ambient
tangents and on the search's tilted ones, eisrat_mat_mul, eisrat_det2,
eisrat_inv2 and eisrat_conj are the EisRat matrix product, determinant,
inverse and conjugate that the package's Z[zeta] pair products and
cleared adjugate replaced (they, like every matrix oracle here, read a
package matrix through eisrat_rows, the one converter from an EisMat to
rows of EisRat, which checks its canonical form first), the q_zeta_*
functions are the EisRat pullbacks that the integer ambient-matrix kernel
replaced (with mat_apply, ambient_from_pair and to_pair, the Q(zeta)
matrix-vector product and the conversions between an ambient vector and its
Q(zeta) pair that they push vectors with), q_zeta_torsion_on_curve is the
Q(zeta) evaluation of a curve's linear form on the product basis that the
ambient-matrix kernel replaced, hermitian_value and ReIm are
the Q(zeta) evaluation of a hermitian form that the integer Gram matrix
replaced, fraction_eval_coords is the term-by-term semicharacter
evaluation that the single integer sum replaced, FractionSemicharacter is
the semicharacter with Fraction exponents that the one-denominator integer
numerators replaced, and FractionAmbientVector, fraction_integer_coordinates
and fraction_map_coordinates are the ambient vector with Fraction
coordinates and the two integer conversions that the ambient vector's
integers over one denominator replaced.  formula_compose and
formula_inverse are the only composition and inverse of AffineSymmetry
objects: the package checks its group facts on integer lattice maps and
has neither.  maps_equal is the equality of two AffineSymmetry objects as
maps of a torus, which the symmetry checks replaced by integer lattice
maps.  character_value evaluates an order-2 character at an ambient
vector of the product lattice, which the package never does: it
evaluates characters on integer lattice coordinates.
symmetric_semichar_from_multiplicities is the paper's rule for the
semicharacter of a symmetric divisor, checked against the branch bundle.
hnf_index is the index of one lattice in another, the absolute sympy
determinant of the coordinates the package's coords_in solves for.
sympy_hnf is sympy's Hermite normal form of a basis' coordinates, solved
by sympy, which the tests compare lattices by, and first_doubled_kernel
is the character kernel basis that kernel_lattice's normal form replaced,
and kernel_restricted_form is Im h on a sublattice of the product lattice
by its own im_on_lattice, the route that check_2divisible's restriction of
the product lattice's form replaced.
permutation_closure is the closure by Permutation products that
PermGroup's closure on image tuples replaced, closure_orbits reads orbits
off it, and three_closure_group_name is matrix_group_name as it ran with
three closures, before it read the matrix group's order off the pair
group.  is_unit, mat_scale, perm_inverse and perm_from_cycles are short
stand-ins for package helpers that only the tests called, and eis_sum and
in_z_zeta are the addition of EisRats and the test that one lies in
Z[zeta], which the package does on Z[zeta] pairs instead; parse_cycles
reads a permutation's cycle notation, as the expected values file writes
it, back into cycles.  restricts_nontrivially is the
restriction test on the generators of a curve lattice, which the
classification replaced by the 2-torsion incidence it reads off the curve
maps.  brute_force_branch_profiles tries every small branch profile
against the chi and K^2 formulas written out again, as the reference for
the bounded enumeration of the branch profiles.  _build_parser is the
argparse parser of the command line, which the CLI's own parser of its
one grammar replaced.  exact is the one way a value enters the exact
oracles: Fraction(x) and sympy.Rational(x) would each take a float
silently, rounded to its 53 bits.
"""

import argparse
import itertools
import math
import re
from fractions import Fraction
from typing import Tuple

import sympy

ZETA_C = complex(0.5, math.sqrt(3) / 2)
ROOT3 = math.sqrt(3)


def exact(x) -> Fraction:
    """x as a Fraction, for x an int (not a bool) or a Fraction; anything
    else, a float, a bool or a string, raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {x!r}")
    return Fraction(x)


def eis_sum(terms):
    """The sum of EisRats, added part by part: the package adds Z[zeta]
    pairs, so EisRat itself has no addition."""
    from hexcover.eisenstein import EisRat

    terms = list(terms)
    return EisRat(sum(x.a for x in terms), sum(x.b for x in terms))


def in_z_zeta(x) -> bool:
    """Whether the EisRat x lies in Z[zeta]: both its parts are integers."""
    return all(Fraction(q).denominator == 1 for q in (x.a, x.b))


def halves_integrally(matrix) -> bool:
    """Whether x / 2 is an integer for every entry x of matrix, computed
    in Fractions: the 2-divisibility of a form on a lattice."""
    return all((exact(x) / 2).denominator == 1 for row in matrix for x in row)


def to_complex(x) -> complex:
    """Numeric embedding of an (a, b) pair or EisRat-like object."""
    return float(x.a) + float(x.b) * ZETA_C


def reim_to_complex(r) -> complex:
    return complex(float(r.re_coeff) / ROOT3, float(r.im))


def close(x: complex, y: complex, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * (1 + abs(x) + abs(y))


def coords_fractions(coords) -> Tuple[Fraction, ...]:
    """coords_in's (den, nums) as Fractions, after checking its form: four
    int numerators over an int den > 0, in lowest terms."""
    den, nums = coords
    assert type(den) is int and den > 0 and len(nums) == 4
    assert all(type(n) is int for n in nums) and math.gcd(den, *nums) == 1
    return tuple(Fraction(n, den) for n in nums)


def sympy_det(rows) -> Fraction:
    """Exact determinant of a rational matrix via sympy."""
    m = sympy.Matrix([[sympy.Rational(exact(x)) for x in row]
                      for row in rows])
    return Fraction(str(m.det()))


def sympy_rref(rows):
    """Reduced row echelon form of a rational matrix via sympy, as
    (rows of Fractions, pivot columns)."""
    m = sympy.Matrix([[sympy.Rational(exact(x)) for x in row]
                      for row in rows])
    reduced, pivots = m.rref()
    return ([[Fraction(str(x)) for x in reduced.row(i)]
             for i in range(reduced.rows)], list(pivots))


def sympy_product(a_rows, b_rows):
    """The matrix product of two rational matrices via sympy, as rows of
    Fractions."""
    a, b = (sympy.Matrix([[sympy.Rational(exact(x)) for x in row]
                          for row in rows]) for rows in (a_rows, b_rows))
    product = a * b
    return [[Fraction(str(x)) for x in product.row(i)]
            for i in range(product.rows)]


def sympy_coords(basis_rows, target):
    """Coordinates of target in the span of the (independent) basis rows,
    or None when target lies outside that span."""
    a = sympy.Matrix([[sympy.Rational(exact(x)) for x in row]
                      for row in basis_rows]).T
    b = sympy.Matrix([sympy.Rational(exact(x)) for x in target])
    try:
        sol, _ = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    return tuple(Fraction(str(x)) for x in sol)


def pfaffian4_from_upper(upper):
    """Three-term pfaffian of a 4x4 alternating matrix given its upper
    triangle (E12, E13, E14, E23, E24, E34)."""
    e12, e13, e14, e23, e24, e34 = upper
    return e12 * e34 - e13 * e24 + e14 * e23


def alternating_value(upper, n, m):
    """Bilinear extension of the alternating form with the given upper
    triangle to integer coordinate vectors n, m (length 4)."""
    mat = [[0] * 4 for _ in range(4)]
    idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (i, j), e in zip(idx, upper):
        mat[i][j] = e
        mat[j][i] = -e
    return sum(n[i] * mat[i][j] * m[j] for i in range(4) for j in range(4))


def cocycle_eval_left(basis_exponents, alt_upper, coords):
    """Semicharacter value at sum(coords[j] * basis[j]) as an exponent in
    Q/Z, expanded by peeling one basis vector at a time from the left.

    Uses chi(x + y) = chi(x) chi(y) exp(pi*i*E(x, y)), i.e. exponents add
    and pick up E(x, y)/2.
    """
    terms = []
    for j, c in enumerate(coords):
        step = 1 if c >= 0 else -1
        for _ in range(abs(c)):
            terms.append((j, step))
    expo = Fraction(0)
    acc = [0, 0, 0, 0]  # coordinates accumulated so far
    for j, step in terms:
        one = [0, 0, 0, 0]
        one[j] = step
        q = basis_exponents[j] if step > 0 else -basis_exponents[j]
        # chi(-b) = conj(chi(b)) for unitary chi with chi(b)=e^{2 pi i q}:
        # exponent -q; the alternating correction handles the rest.
        expo = expo + q + Fraction(alternating_value(alt_upper, acc, one), 2)
        acc = [x + y for x, y in zip(acc, one)]
    return expo % 1


def cocycle_eval_right(basis_exponents, alt_upper, coords):
    """Same as cocycle_eval_left but peeling from the right."""
    terms = []
    for j, c in enumerate(coords):
        step = 1 if c >= 0 else -1
        for _ in range(abs(c)):
            terms.append((j, step))
    expo = Fraction(0)
    acc = [0, 0, 0, 0]
    for j, step in reversed(terms):
        one = [0, 0, 0, 0]
        one[j] = step
        q = basis_exponents[j] if step > 0 else -basis_exponents[j]
        expo = expo + q + Fraction(alternating_value(alt_upper, one, acc), 2)
        acc = [x + y for x, y in zip(acc, one)]
    return expo % 1


def fraction_eval_coords(exponents, alt_matrix, n):
    """Semicharacter exponent at sum(n[j] * b_j) from the basis exponents
    and the alternating matrix, summed term by term in Fraction."""
    expo = sum((exact(nj) * qj for nj, qj in zip(n, exponents)),
               Fraction(0))
    rank = len(exponents)
    for j in range(rank):
        if not n[j]:
            continue
        for k in range(j + 1, rank):
            if n[k]:
                expo += Fraction(n[j] * n[k], 2) * alt_matrix[j][k]
    return expo % 1


class FractionSemicharacter:
    """Semicharacter with its basis exponents stored as Fractions reduced
    into [0, 1), evaluated by one integer sum over 2 * lcm of their
    denominators."""

    def __init__(self, lattice, exponents, form):
        from hexcover.appell_humbert import LatticeMismatch, NotIntegral
        from hexcover.eisenstein import _rational

        if form.lattice != lattice:
            raise LatticeMismatch("semicharacter form on a different lattice")
        if not form.is_integral():
            raise NotIntegral("semicharacter needs an integral alternating form")
        exps = tuple(_rational(q) % 1 for q in exponents)
        if len(exps) != 4:
            raise ValueError("one exponent per basis vector")
        self.lattice, self.exponents, self.form = lattice, exps, form

    def eval_coords(self, n):
        exps = self.exponents
        den = math.lcm(*(q.denominator for q in exps))
        total = 2 * sum(nj * q.numerator * (den // q.denominator)
                        for nj, q in zip(n, exps))
        rows = self.form.matrix
        rank = len(exps)
        for j in range(rank):
            for k in range(j + 1, rank):
                total += n[j] * n[k] * rows[j][k].numerator * den
        return Fraction(total % (2 * den), 2 * den)

    def __mul__(self, other):
        from hexcover.appell_humbert import LatticeMismatch

        if self.lattice != other.lattice:
            raise LatticeMismatch("semicharacters on different lattices")
        return FractionSemicharacter(
            self.lattice,
            [a + b for a, b in zip(self.exponents, other.exponents)],
            self.form + other.form)

    def __eq__(self, other):
        return (self.lattice == other.lattice
                and self.exponents == other.exponents
                and self.form == other.form)

    def __hash__(self):
        return hash((self.lattice, self.exponents, self.form))


def gf3_matrices(det_one: bool):
    """All invertible 2x2 matrices over the 3-element field, optionally
    restricted to determinant 1."""
    out = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    det = (a * d - b * c) % 3
                    if det == 0:
                        continue
                    if det_one and det != 1:
                        continue
                    out.append((a, b, c, d))
    return out


def gf3_mul(x, y):
    """The product of two 2x2 matrices over the 3-element field, each
    given as its entries (a, b, c, d) row by row."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 3, (a * f + b * h) % 3,
            (c * e + d * g) % 3, (c * f + d * h) % 3)


GF3_VECTORS = [(x, y) for x in range(3) for y in range(3) if x or y]


def gf3_vector_action(m, column=False):
    """The Permutation by which a 2x2 matrix over the 3-element field, its
    entries (a, b, c, d) row by row, moves the eight nonzero vectors,
    numbered from 1 in the order of GF3_VECTORS: v -> v.m on rows, or
    v -> m.v on columns when column."""
    from hexcover.permgroup import Permutation

    a, b, c, d = m
    images = []
    for x, y in GF3_VECTORS:
        if column:
            image = ((a * x + b * y) % 3, (c * x + d * y) % 3)
        else:
            image = ((x * a + y * c) % 3, (x * b + y * d) % 3)
        images.append(GF3_VECTORS.index(image) + 1)
    return Permutation(images)


def permutation_closure(generators) -> frozenset:
    """The group generated by a non-empty list of Permutations of one
    degree, closed by breadth-first Permutation products, the closure
    that PermGroup's itemgetter steps on image tuples replaced."""
    from hexcover.permgroup import Permutation

    found = {Permutation(range(1, generators[0].degree + 1))}
    frontier = list(found)
    while frontier:
        fresh = []
        for p in frontier:
            for g in generators:
                q = p * g
                if q not in found:
                    found.add(q)
                    fresh.append(q)
        frontier = fresh
    return frozenset(found)


def closure_orbits(generators) -> tuple:
    """Orbits of the group generated by the Permutations, each sorted and
    listed by smallest element, read off permutation_closure."""
    elements = permutation_closure(generators)
    orbits = {tuple(sorted({g(k) for g in elements}))
              for k in range(1, generators[0].degree + 1)}
    return tuple(sorted(orbits))


def three_closure_group_name(generators, matrices):
    """PermGroup.matrix_group_name by three closures, the way it ran
    before it read the matrix group's order off the pair group: the
    generators, their matrix actions (gf3_vector_action) and the pairs are
    each closed by permutation_closure, and a name is given only when the
    three orders agree.  The matrices are taken as valid."""
    from hexcover.permgroup import Permutation

    dets = {(a * d - b * c) % 3 for a, b, c, d in matrices}
    if 0 in dets:
        return None
    actions = [gf3_vector_action(m) for m in matrices]
    degree = generators[0].degree
    pairs = [Permutation(g.images + tuple(k + degree for k in a.images))
             for g, a in zip(generators, actions)]
    # as the chained comparison did, the pairs are closed only when the
    # first two orders agree
    image = len(permutation_closure(actions))
    if len(permutation_closure(generators)) != image or \
            len(permutation_closure(pairs)) != image:
        return None
    if image == 48:
        return "GL(2,3)"
    return "SL(2,3)" if image == 24 and dets <= {1} else None


def scan_unit_det_candidates(height_bound):
    """Entry quadruples (a11, a12, a21, a22) of the generator search's
    congruence pattern with unit determinant, by four nested loops over
    a11, a22, a12, a21 and a norm test on each determinant."""
    b = height_bound
    span = range(-b, b + 1)
    even = [k for k in span if k % 2 == 0]
    top_left = [(x, y) for x in span for y in even]
    top_right = [(x, y) for x in even for y in even]
    bottom = [(x, y) for x in span for y in span]
    out = []
    for a11 in top_left:
        for a22 in bottom:
            head = (a11[0] * a22[0] - a11[1] * a22[1],
                    a11[0] * a22[1] + a11[1] * a22[0] + a11[1] * a22[1])
            for a12 in top_right:
                for a21 in bottom:
                    cross = (a12[0] * a21[0] - a12[1] * a21[1],
                             a12[0] * a21[1] + a12[1] * a21[0]
                             + a12[1] * a21[1])
                    da, db = head[0] - cross[0], head[1] - cross[1]
                    if da * da + da * db + db * db == 1:
                        out.append((a11, a12, a21, a22))
    return out


class ComplexLine:
    """Complex line through the origin, a nonzero (z1, z2) up to scaling;
    equally the point (z1 : z2) of the projective line."""

    __slots__ = ("direction",)

    def __init__(self, direction: Tuple[object, object]) -> None:
        from hexcover.eisenstein import EisRat

        d1, d2 = (x if isinstance(x, EisRat) else EisRat(exact(x))
                  for x in direction)
        if d1 == 0 and d2 == 0:
            raise ValueError("a complex line needs a nonzero direction")
        object.__setattr__(self, "direction", (d1, d2))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ComplexLine is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexLine):
            return NotImplemented
        (x1, y1), (x2, y2) = self.direction, other.direction
        return x1 * y2 == x2 * y1

    def __hash__(self) -> int:
        x, y = self.direction
        return hash(x / y if y != 0 else None)

    def __repr__(self) -> str:
        return f"ComplexLine({self.direction!r})"


def complex_line(pairs):
    """The ComplexLine through a direction given as two Z[zeta] pairs, as
    the package writes the tangent directions."""
    from hexcover.eisenstein import EisRat

    x, y = pairs
    return ComplexLine((EisRat(*x), EisRat(*y)))


def q_zeta_cross_ratio(p1, p2, p3, p4):
    """((p1-p3)(p2-p4)) / ((p2-p3)(p1-p4)) for four ComplexLines, computed
    in Q(zeta); a repeated point raises DegenerateQuadruple."""
    from hexcover.symmetry import DegenerateQuadruple

    points = (p1, p2, p3, p4)
    for i in range(4):
        for j in range(i + 1, 4):
            if points[i] == points[j]:
                raise DegenerateQuadruple("repeated point in the quadruple")

    def d(p, q):
        (px, py), (qx, qy) = p.direction, q.direction
        return px * qy - qx * py

    return (d(p1, p3) * d(p2, p4)) / (d(p2, p3) * d(p1, p4))


def line_permutation(linear, antiholomorphic, tangents):
    """Images tuple of the map induced by linear (conjugating first when
    antiholomorphic) on the lines through the tangents, directions given
    as Z[zeta] pairs as _tangent_permutation reads them, or None when it
    is no permutation of them: some image is zero, is not among them, or
    is the image of another tangent too; computed in Q(zeta)."""
    linear = eisrat_rows(linear)
    points = [complex_line(t) for t in tangents]
    images = []
    for p in points:
        x, y = p.direction
        if antiholomorphic:
            x, y = x.conjugate(), y.conjugate()
        image = (eis_sum((linear[0][0] * x, linear[0][1] * y)),
                 eis_sum((linear[1][0] * x, linear[1][1] * y)))
        if image[0] == 0 and image[1] == 0:
            return None
        q = ComplexLine(image)
        for k, target in enumerate(points, start=1):
            if q == target:
                images.append(k)
                break
        else:
            return None
    return tuple(images) if len(set(images)) == len(images) else None


def scan_search_generators(height_bound):
    """The generator search as a plain scan: the candidates of
    scan_unit_det_candidates, the tangent permutation computed in Q(zeta),
    then the cover-lattice test in the standard frame, conjugated back in
    EisRat."""
    from hexcover import catalog
    from hexcover.eisenstein import EisRat, mat
    from hexcover.symmetry import (AffineSymmetry, NotLatticePreserving,
                                   _TILTED_TANGENT_PAIRS, rational_rep)

    targets = ((3, 4, 1, 2), (2, 3, 1, 4))
    shear = catalog.FRAME_SHEAR
    unshear = eisrat_inv2(shear)
    out = []
    for a11, a12, a21, a22 in scan_unit_det_candidates(height_bound):
        linear = mat([[EisRat(*a11), EisRat(*a12)],
                      [EisRat(*a21), EisRat(*a22)]])
        if line_permutation(linear, False,
                            _TILTED_TANGENT_PAIRS) not in targets:
            continue
        ambient = eisrat_mat_mul(eisrat_mat_mul(shear, linear), unshear)
        try:
            rational_rep(AffineSymmetry(ambient), catalog.COVER_LATTICE)
        except NotLatticePreserving:
            continue
        out.append(AffineSymmetry(linear))
    return out


def q_zeta_push_vector(f, v, conjugate_first):
    """Image of the ambient vector v under z -> f . z, or z -> f . conj(z)
    when conjugate_first, by mat_apply on the Q(zeta) pair of v."""
    z1, z2 = to_pair(v)
    if conjugate_first:
        z1, z2 = z1.conjugate(), z2.conjugate()
    return ambient_from_pair(*mat_apply(f, (z1, z2)))


def q_zeta_pulled_form(m, f, conjugate):
    """f^T . m . conj(f) by two eisrat_mat_mul calls, conjugated when
    conjugate."""
    m, f = eisrat_rows(m), eisrat_rows(f)
    t = eisrat_mat_mul(eisrat_mat_mul(tuple(zip(*f)), m), eisrat_conj(f))
    return eisrat_conj(t) if conjugate else t


def is_conjugate_symmetric(m):
    """Whether the Q(zeta) matrix m equals its conjugate transpose, by
    eisrat_conj on the transpose."""
    m = eisrat_rows(m)
    return eisrat_conj(tuple(zip(*m))) == m


def q_zeta_pull_back(g, bundle):
    """Pullback of a bundle class along the affine symmetry g in Q(zeta):
    the translation shifts the exponents by Im h(t, b_j) from
    hermitian_value, then the (anti)linear part pulls back the form
    and pushes each basis vector by q_zeta_push_vector."""
    from hexcover.appell_humbert import HermitianForm, Semicharacter

    lattice = bundle.lattice
    shifted = Semicharacter(
        [q + hermitian_value(bundle.form, g.translation, b).im
         for q, b in zip(bundle.character.exponents, lattice.vectors)],
        bundle.character.form)
    anti = g.antiholomorphic
    sign = -1 if anti else 1
    exps = [sign * shifted.eval(q_zeta_push_vector(g.linear, b, anti))
            for b in lattice.vectors]
    form = HermitianForm(q_zeta_pulled_form(bundle.form.matrix, g.linear,
                                            anti))
    return bundle_with_exponents(form, lattice, exps)


def hnf_index(sub, sup) -> int:
    """The index [sup : sub] of two lattices of equal rank, as the absolute
    determinant of the coordinates of sub's generators in sup's basis,
    found by coords_in; they must be integral."""
    from hexcover.lattice import coords_in

    dens, cols = zip(*(coords_in(sup, v) for v in sub.vectors))
    assert set(dens) == {1}, "sub does not lie in sup"
    return abs(int(sympy_det(cols)))


def sympy_hnf(basis, reference):
    """sympy's Hermite normal form of the integer matrix whose columns are
    the coordinates of basis' generators in reference's, solved by sympy,
    as a tuple of rows.  It depends only on the lattice that basis spans,
    so two bases of one lattice have equal normal forms; basis must lie in
    the lattice of reference."""
    from sympy.matrices.normalforms import hermite_normal_form

    rows = [v.coordinates for v in reference.vectors]
    cols = [sympy_coords(rows, v.coordinates) for v in basis.vectors]
    assert all(x.denominator == 1 for c in cols for x in c), \
        "basis does not lie in the lattice of reference"
    h = hermite_normal_form(sympy.Matrix([[int(x) for x in row]
                                          for row in zip(*cols)]))
    return tuple(tuple(int(x) for x in h.row(i)) for i in range(h.rows))


def first_doubled_kernel(chi):
    """A basis of the kernel of the nontrivial CharacterMod2 chi by the
    construction that kernel_lattice's normal form replaced: with f the
    first index where chi(b_f) = -1 on the product basis b, the generators
    are 2 b_f, then b_j + b_f for the other j with chi(b_j) = -1 and b_j
    for the rest."""
    from hexcover import catalog
    from hexcover.lattice import LatticeBasis

    basis = catalog.PRODUCT_LATTICE.vectors
    first = chi.values.index(-1)
    gens = [2 * basis[first]]
    for j, v in enumerate(chi.values):
        if j != first:
            gens.append(basis[j] if v == 1 else basis[j] + basis[first])
    return LatticeBasis(gens)


def kernel_restricted_form(coordinates):
    """Im h of the branch form on the lattice whose basis has these
    product coordinates, rows of ints, computed by im_on_lattice on a
    LatticeBasis built from them."""
    from hexcover import catalog
    from hexcover.appell_humbert import im_on_lattice
    from hexcover.lattice import AmbientVector, LatticeBasis

    basis = catalog.PRODUCT_LATTICE.vectors
    lattice = LatticeBasis([
        sum((n * b for n, b in zip(row, basis)), AmbientVector((0, 0, 0, 0)))
        for row in coordinates])
    return im_on_lattice(catalog.SUM_FORM, lattice)


def character_value(chi, v) -> int:
    """The CharacterMod2 chi at the product-lattice vector v, from the
    parity of v's lattice coordinates; a vector outside the product lattice
    raises NotInLattice."""
    from hexcover import catalog
    from hexcover.appell_humbert import NotInLattice
    from hexcover.lattice import _lattice_coordinates

    coords = _lattice_coordinates(catalog.PRODUCT_LATTICE, v)
    if coords is None:
        raise NotInLattice(f"{v!r} is not in the product lattice")
    return chi.value_on_coords(coords)


def restricts_nontrivially(chi, generators) -> bool:
    """Whether the CharacterMod2 chi takes the value -1 somewhere on the
    sublattice of the product lattice spanned by the AmbientVectors
    generators, by its values on them; a generator outside the product
    lattice raises NotInLattice."""
    return any(character_value(chi, v) == -1 for v in generators)


def is_unit(x) -> bool:
    """True iff the EisRat x is one of the six units of Z[zeta]."""
    return in_z_zeta(x) and x.norm() == 1


def mat_scale(c, m):
    """The Q(zeta) matrix m with every entry multiplied by c."""
    return tuple(tuple(c * x for x in row) for row in eisrat_rows(m))


def scaled_form(h, c):
    """The hermitian form c * h for a rational c, entry by entry in EisRat
    arithmetic."""
    from hexcover.appell_humbert import HermitianForm

    return HermitianForm(mat_scale(exact(c), h.matrix))


def bundle_with_exponents(form, lattice, exponents):
    """The bundle of form on lattice whose semicharacter has the given
    basis exponents, through the public constructors."""
    from hexcover.appell_humbert import (LineBundleClass, Semicharacter,
                                         im_on_lattice)

    return LineBundleClass(
        form, Semicharacter(exponents, im_on_lattice(form, lattice)))


def perm_inverse(p):
    """The inverse of the Permutation p."""
    from hexcover.permgroup import Permutation

    return Permutation(sorted(range(1, p.degree + 1), key=p))


def perm_from_cycles(cycles, degree: int):
    """The Permutation of 1..degree with the given cycles, each a sequence
    of ints; the points in no cycle are fixed."""
    from hexcover.permgroup import Permutation

    images = list(range(1, degree + 1))
    for cycle in cycles:
        c = tuple(cycle)
        for a, b in zip(c, c[1:] + c[:1]):
            images[a - 1] = b
    return Permutation(images)


def parse_cycles(text: str) -> tuple:
    """The cycles of a permutation written in cycle notation, such as
    "(1 13 7 12)(2 9)", as tuples of ints; "()" has none."""
    return tuple(tuple(int(k) for k in body.split())
                 for body in re.findall(r"\(([^()]*)\)", text)
                 if body.strip())


def maps_equal(g, h, basis) -> bool:
    """Equality of the AffineSymmetry objects g and h as maps of the torus
    of basis: the same lattice action and translations in the same coset."""
    from hexcover.lattice import _lattice_coordinates
    from hexcover.symmetry import rational_rep

    if g.antiholomorphic != h.antiholomorphic:
        return False
    if rational_rep(g, basis) != rational_rep(h, basis):
        return False
    shift = g.translation - h.translation
    return _lattice_coordinates(basis, shift) is not None


def formula_compose(g, h):
    """The AffineSymmetry v -> g(h(v)): h's linear part and translation are
    conjugated when g is anti-holomorphic, and the translation is pushed
    through g's linear part in Q(zeta)."""
    from hexcover.eisenstein import mat_identity
    from hexcover.symmetry import AffineSymmetry

    lin = eisrat_conj(h.linear) if g.antiholomorphic else h.linear
    t = h.translation
    if g.antiholomorphic:
        t = q_zeta_push_vector(mat_identity(2), t, True)
    moved = q_zeta_push_vector(g.linear, t, False) + g.translation
    return AffineSymmetry(eisrat_mat_mul(g.linear, lin),
                          g.antiholomorphic != h.antiholomorphic, moved)


def formula_inverse(g):
    """The inverse AffineSymmetry of g: -L^-1(t) for a holomorphic g with
    linear part L, conjugated along with L^-1 for an anti-holomorphic one;
    pushed in Q(zeta)."""
    from hexcover.eisenstein import mat_identity
    from hexcover.symmetry import AffineSymmetry

    inv = eisrat_inv2(g.linear)
    back = -q_zeta_push_vector(inv, g.translation, False)
    if not g.antiholomorphic:
        return AffineSymmetry(inv, False, back)
    return AffineSymmetry(eisrat_conj(inv), True,
                          q_zeta_push_vector(mat_identity(2), back, True))


def eisrat_rows(m):
    """m as a tuple of rows of EisRat.  An EisMat, the package's matrix
    (den, pairs), is checked to be canonical first: den > 0, a 2x2 array
    of int pairs, and no common factor of den and the pairs.  Any other m,
    rows of any shape of ints, Fractions or EisRats, is read entry by
    entry.  The one converter from the package's matrix to the EisRat
    scalars the matrix oracles compute on; each of them reads its matrices
    through it."""
    from hexcover.eisenstein import EisMat, EisRat

    if type(m) is not EisMat:
        return tuple(tuple(x if isinstance(x, EisRat) else EisRat(exact(x))
                           for x in row) for row in m)
    den, pairs = m
    ints = [x for row in pairs for pair in row for x in pair]
    assert type(den) is int and den > 0, m
    assert [len(row) for row in pairs] == [2, 2] and len(ints) == 8, m
    assert all(type(x) is int for x in ints) and math.gcd(den, *ints) == 1, m
    return tuple(tuple(EisRat(Fraction(a, den), Fraction(b, den))
                       for a, b in row) for row in pairs)


def eisrat_mat_mul(a, b):
    """The Q(zeta) matrix product a . b, each entry summed in EisRat."""
    a, b = eisrat_rows(a), eisrat_rows(b)
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(eis_sum(a[i][k] * b[k][j] for k in range(len(b)))
              for j in range(len(b[0])))
        for i in range(len(a)))


def eisrat_det2(m):
    """The determinant of the 2x2 Q(zeta) matrix m, in EisRat."""
    (a, b), (c, d) = eisrat_rows(m)
    return a * d - b * c


def eisrat_inv2(m):
    """The inverse of the invertible 2x2 Q(zeta) matrix m: its adjugate,
    each entry divided by the determinant in EisRat."""
    d = eisrat_det2(m)
    (a, b), (c, e) = eisrat_rows(m)
    return ((e / d, -b / d), (-c / d, a / d))


def eisrat_conj(m):
    """The entrywise conjugate of the Q(zeta) matrix m."""
    return tuple(tuple(x.conjugate() for x in row) for row in eisrat_rows(m))


def mat_apply(m, v):
    """The Q(zeta) matrix m applied to the tuple of EisRat entries v."""
    m = eisrat_rows(m)
    if len(m[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(eis_sum(row[k] * v[k] for k in range(len(v)))
                 for row in m)


class FractionAmbientVector:
    """Ambient vector with its four coordinates stored as Fractions, with
    the coordinate-wise Fraction arithmetic that the integers over one
    denominator replaced."""

    def __init__(self, coordinates):
        from hexcover.eisenstein import _rational

        self.coordinates = tuple(map(_rational, coordinates))
        if len(self.coordinates) != 4:
            raise ValueError("ambient vectors have four coordinates")

    def __add__(self, other):
        return FractionAmbientVector(
            a + b for a, b in zip(self.coordinates, other.coordinates))

    def __sub__(self, other):
        return FractionAmbientVector(
            a - b for a, b in zip(self.coordinates, other.coordinates))

    def __neg__(self):
        return FractionAmbientVector(-a for a in self.coordinates)

    def __mul__(self, scalar):
        return FractionAmbientVector(a * scalar for a in self.coordinates)

    def __eq__(self, other):
        return self.coordinates == other.coordinates

    def __hash__(self):
        return hash(self.coordinates)


def fraction_integer_coordinates(vectors):
    """Common denominator d and integer rows with row[i] / d the Fraction
    coordinates of vectors[i], d the lcm of their denominators."""
    den = math.lcm(*(c.denominator for v in vectors for c in v.coordinates))
    return den, [[c.numerator * (den // c.denominator) for c in v.coordinates]
                 for v in vectors]


def fraction_map_coordinates(ambient, coordinates):
    """The FractionAmbientVectors F . x / (den * d) for the integer map
    (den, F) and each integer row x of coordinates = (d, rows)."""
    den, rows = ambient
    d, ints = coordinates
    return [FractionAmbientVector(
                Fraction(sum(a * b for a, b in zip(r, x)), den * d)
                for r in rows) for x in ints]


def ambient_from_pair(z1, z2):
    """The ambient vector with Q(zeta) coordinates (z1, z2)."""
    from hexcover.lattice import AmbientVector

    return AmbientVector((z1.a, z1.b, z2.a, z2.b))


def to_pair(v):
    """The Q(zeta) coordinates (z1, z2) of the ambient vector v, as two
    EisRat; ambient_from_pair inverts it."""
    from hexcover.eisenstein import EisRat

    x1, x2, x3, x4 = v.coordinates
    return EisRat(x1, x2), EisRat(x3, x4)


def q_zeta_torsion_on_curve(curve_map) -> frozenset:
    """The nonzero 2-torsion classes on ker F, F = a*z1 + b*z2 the second
    row of the curve map, as parity vectors: F(b_i) is summed in Q(zeta) on
    the EisRat pairs of the product basis.  Raises NotOnto as the package
    does: for a value off Z[zeta], and for values whose 2x2 minors are not
    coprime."""
    from hexcover import catalog
    from hexcover.torsion_covers import NotOnto

    (_, _), (a, b) = eisrat_rows(curve_map)
    values = []
    for v in catalog.PRODUCT_LATTICE.vectors:
        z1, z2 = to_pair(v)
        w = eis_sum((a * z1, b * z2))
        if not in_z_zeta(w):
            raise NotOnto(f"F({v!r}) = {w} is not in Z[zeta]")
        values.append((int(w.a), int(w.b)))
    minors = (x1 * y2 - x2 * y1
              for (x1, y1), (x2, y2) in itertools.combinations(values, 2))
    if math.gcd(*minors) != 1:
        raise NotOnto("the product lattice maps onto a proper sublattice "
                      "of Z[zeta]")
    return frozenset(
        e for e in itertools.product((0, 1), repeat=4) if any(e)
        and all(sum(w[j] for w, bit in zip(values, e) if bit) % 2 == 0
                for j in (0, 1)))


class ReIm:
    """Exact real/imaginary decomposition of (a + b*zeta)/sqrt(3).

    The real part is re_coeff/sqrt(3) with re_coeff = a + b/2; the
    imaginary part is rational, im = b/2.  Keeping the 1/sqrt(3) as a
    tagged coefficient lets hermitian-form values round-trip exactly.
    """

    __slots__ = ("re_coeff", "im")

    def __init__(self, re_coeff=0, im=0) -> None:
        self.re_coeff = exact(re_coeff)
        self.im = exact(im)

    @classmethod
    def from_scaled(cls, x) -> "ReIm":
        """Decompose x/sqrt(3)."""
        half = Fraction(x.b, 2)
        return cls(x.a + half, half)

    def to_scaled(self):
        """The EisRat x with x/sqrt(3) equal to this value."""
        from hexcover.eisenstein import EisRat

        return EisRat(self.re_coeff - self.im, 2 * self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReIm):
            return NotImplemented
        return self.re_coeff == other.re_coeff and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re_coeff, self.im))

    def __repr__(self) -> str:
        return f"ReIm({self.re_coeff!r}, {self.im!r})"


def hermitian_value(h, v, w) -> ReIm:
    """h(v, w) for the HermitianForm h and ambient vectors v, w, summed in
    Q(zeta) as t(v).M.conj(w) / sqrt(3)."""
    z = to_pair(v)
    y = to_pair(w)
    m = eisrat_rows(h.matrix)
    return ReIm.from_scaled(eis_sum(z[i] * m[i][j] * y[j].conjugate()
                                    for i in range(2) for j in range(2)))


def symmetric_semichar_from_multiplicities(rank, multiplicities):
    """Semicharacter of a symmetric divisor D from its multiplicities at
    the 2-torsion points.

    Keys of multiplicities are parity vectors of length rank; the vector
    of all zeros is the origin.  The value at a lattice vector with
    parity p is (-1) ** (m(D, 0) + m(D, p/2)); missing keys mean
    multiplicity 0.  Returns {parity: +-1} for all 2**rank classes.
    """
    zero = tuple([0] * rank)
    m0 = multiplicities.get(zero, 0)
    out = {}
    for parity in itertools.product((0, 1), repeat=rank):
        m = m0 if parity == zero else multiplicities.get(parity, 0)
        out[parity] = -1 if (m0 + m) % 2 else 1
    return out


def brute_force_branch_profiles(max_multiplicity=5, max_points=3,
                                max_l2=70):
    """Every (L^2, multiplicities) with 0 <= L^2 <= max_l2, at most
    max_points multiplicities in 2..max_multiplicity listed in
    non-increasing order, and chi = (L^2 - sum m(m - 1)) / 2 = 1 and
    K^2 = 2 L^2 - 2 sum (m - 1)^2 = 8, found by trying them all."""
    found = set()
    for count in range(max_points + 1):
        for mults in itertools.product(range(2, max_multiplicity + 1),
                                       repeat=count):
            mults = tuple(sorted(mults, reverse=True))
            for l2 in range(max_l2 + 1):
                chi = Fraction(l2 - sum(m * (m - 1) for m in mults), 2)
                k2 = 2 * l2 - 2 * sum((m - 1) ** 2 for m in mults)
                if chi == 1 and k2 == 8:
                    found.add((l2, mults))
    return found


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcover",
        description="Recompute the double-cover classification and diff it "
                    "against the shipped expected values.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "tables": "intersection tables and hermitian forms",
        "characters": "order-2 characters, kernels and divisibility",
        "orbits": "square roots, group closures and orbits",
        "invariants": "numeric invariants of the covers",
        "search-aut": "bounded generator search and relations",
        "verify-all": "every section in order",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
        cmd.add_argument("--perturb", metavar="CHECK_ID", default=None,
                         help="corrupt one computed value (test hook)")
        if name in ("search-aut", "verify-all"):
            cmd.add_argument("--bound", type=int, default=3,
                             help="height bound for the generator search "
                                  "(default 3)")
    return parser
