"""Independent cross-checks used by the test suite.

Most of this is deliberately written without the package under test:
floating-point embeddings, sympy linear algebra, and brute-force loops.
Some run on the package's Q(zeta) and Fraction arithmetic instead, as the
references for code that replaced them with integer kernels:
scan_search_generators is the plain scan that the generator search's
lookup replaced, line_permutation is the Q(zeta) tangent permutation that
the Z[zeta] cross-multiplication replaced,
cross_multiplied_moves_tangents is that cross-multiplication, which the
search's precomputed tangent equations replaced, eisrat_mat_mul is the
EisRat matrix product that mat_mul's Z[zeta] sum replaced, the q_zeta_* functions are the
EisRat pullbacks that the integer ambient-matrix kernel replaced (with
mat_apply and ambient_from_pair, the Q(zeta) matrix-vector product and
vector constructor they push vectors with), hermitian_value and ReIm are
the Q(zeta) evaluation of a hermitian form that the integer Gram matrix
replaced, fraction_eval_coords is the term-by-term semicharacter
evaluation that the single integer sum replaced, FractionSemicharacter is
the semicharacter with Fraction exponents that the one-denominator integer
numerators replaced.  formula_compose and
formula_inverse are the only composition and inverse of AffineSymmetry
objects: the package checks its group facts on integer lattice maps and
has neither.  maps_equal is the equality of two AffineSymmetry objects as
maps of a torus, which the symmetry checks replaced by integer lattice
maps.  character_value evaluates an order-2 character at an ambient
vector of the product lattice, which the package never does: it
evaluates characters on integer lattice coordinates.
symmetric_semichar_from_multiplicities is the paper's rule for the
semicharacter of a symmetric divisor, checked against the branch bundle.
hnf_index, is_unit, mat_scale, perm_inverse and perm_from_cycles are short
stand-ins for package helpers that only the tests called; parse_cycles
reads a permutation's cycle notation, as the expected values file writes
it, back into cycles.  restricts_nontrivially is the
restriction test on the generators of a curve lattice, which the
classification replaced by the 2-torsion incidence it reads off the curve
maps.
"""

import itertools
import math
import re
from fractions import Fraction

import sympy

ZETA_C = complex(0.5, math.sqrt(3) / 2)
ROOT3 = math.sqrt(3)


def to_complex(x) -> complex:
    """Numeric embedding of an (a, b) pair or EisRat-like object."""
    return float(x.a) + float(x.b) * ZETA_C


def reim_to_complex(r) -> complex:
    return complex(float(r.re_coeff) / ROOT3, float(r.im))


def close(x: complex, y: complex, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol * (1 + abs(x) + abs(y))


def sympy_det(rows) -> Fraction:
    """Exact determinant of a rational matrix via sympy."""
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return Fraction(str(m.det()))


def sympy_rref(rows):
    """Reduced row echelon form of a rational matrix via sympy, as
    (rows of Fractions, pivot columns)."""
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    reduced, pivots = m.rref()
    return ([[Fraction(str(x)) for x in reduced.row(i)]
             for i in range(reduced.rows)], list(pivots))


def sympy_coords(basis_rows, target):
    """Coordinates of target in the span of the (independent) basis rows,
    or None when target lies outside that span."""
    a = sympy.Matrix([[sympy.Rational(x) for x in row] for row in basis_rows]).T
    b = sympy.Matrix([sympy.Rational(x) for x in target])
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
    expo = sum((Fraction(nj) * qj for nj, qj in zip(n, exponents)),
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
        if len(exps) != lattice.rank:
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


def line_permutation(linear, antiholomorphic, points):
    """Images tuple of the map induced by linear (conjugating first when
    antiholomorphic) on the ComplexLine list points, or None when some
    image is not among them; computed in Q(zeta)."""
    from hexcover.lattice import ComplexLine

    images = []
    for p in points:
        x, y = p.direction
        if antiholomorphic:
            x, y = x.conjugate(), y.conjugate()
        q = ComplexLine((linear[0][0] * x + linear[0][1] * y,
                         linear[1][0] * x + linear[1][1] * y))
        for k, target in enumerate(points, start=1):
            if q == target:
                images.append(k)
                break
        else:
            return None
    return tuple(images)


def cross_multiplied_moves_tangents(a11, a12, a21, a22, target):
    """Whether the integral matrix [[a11, a12], [a21, a22]] of Z[zeta]
    pairs maps the i-th tilted tangent onto the target[i]-th for every i:
    each image is computed and cross-multiplied with its target in
    Z[zeta]."""
    from hexcover.eisenstein import _zeta_mul
    from hexcover.symmetry import _TILTED_TANGENT_PAIRS

    for (x, y), k in zip(_TILTED_TANGENT_PAIRS, target):
        ux, uy = _zeta_mul(a11, x)
        vx, vy = _zeta_mul(a12, y)
        qx = (ux + vx, uy + vy)
        ux, uy = _zeta_mul(a21, x)
        vx, vy = _zeta_mul(a22, y)
        qy = (ux + vx, uy + vy)
        px, py = _TILTED_TANGENT_PAIRS[k - 1]
        if _zeta_mul(qx, py) != _zeta_mul(px, qy):
            return False
    return True


def scan_search_generators(height_bound):
    """The generator search as a plain scan: the candidates of
    scan_unit_det_candidates, the tangent permutation computed in Q(zeta),
    then the cover-lattice test in the standard frame."""
    from hexcover import catalog
    from hexcover.eisenstein import EisRat, inv2, mat, mat_mul
    from hexcover.symmetry import (AffineSymmetry, NotLatticePreserving,
                                   TILTED_TANGENTS, rational_rep)

    targets = ((3, 4, 1, 2), (2, 3, 1, 4))
    shear = catalog.FRAME_SHEAR
    unshear = inv2(shear)
    out = []
    for a11, a12, a21, a22 in scan_unit_det_candidates(height_bound):
        linear = mat([[EisRat(*a11), EisRat(*a12)],
                      [EisRat(*a21), EisRat(*a22)]])
        if line_permutation(linear, False, TILTED_TANGENTS) not in targets:
            continue
        ambient = mat_mul(mat_mul(shear, linear), unshear)
        try:
            rational_rep(AffineSymmetry(ambient), catalog.COVER_LATTICE)
        except NotLatticePreserving:
            continue
        out.append(AffineSymmetry(linear))
    return out


def q_zeta_push_vector(f, v, conjugate_first):
    """Image of the ambient vector v under z -> f . z, or z -> f . conj(z)
    when conjugate_first, by mat_apply on the Q(zeta) pair of v."""
    z1, z2 = v.to_pair()
    if conjugate_first:
        z1, z2 = z1.conjugate(), z2.conjugate()
    return ambient_from_pair(*mat_apply(f, (z1, z2)))


def q_zeta_pulled_form(m, f, conjugate):
    """f^T . m . conj(f) by two mat_mul calls, conjugated when conjugate."""
    from hexcover.eisenstein import mat_conj, mat_mul, mat_transpose

    t = mat_mul(mat_mul(mat_transpose(f), m), mat_conj(f))
    return mat_conj(t) if conjugate else t


def q_zeta_pull_back(g, bundle):
    """Pullback of a bundle class along the affine symmetry g in Q(zeta):
    the translation shifts the exponents by Im h(t, b_j) from
    hermitian_value, then the (anti)linear part pulls back the form
    and pushes each basis vector by q_zeta_push_vector."""
    from hexcover.appell_humbert import (HermitianForm, LineBundleClass,
                                         Semicharacter)

    lattice = bundle.lattice
    shifted = Semicharacter(
        lattice,
        [q + hermitian_value(bundle.form, g.translation, b).im
         for q, b in zip(bundle.character.exponents, lattice.vectors)],
        bundle.character.form)
    anti = g.antiholomorphic
    sign = -1 if anti else 1
    exps = [sign * shifted.eval(q_zeta_push_vector(g.linear, b, anti))
            for b in lattice.vectors]
    form = HermitianForm(q_zeta_pulled_form(bundle.form.matrix, g.linear,
                                            anti))
    return LineBundleClass.build(form, lattice, exps)


def hnf_index(sub, sup) -> int:
    """The index [sup : sub] of two lattices of equal rank, as the product
    of the diagonal of hnf(sub, sup), which must be integral."""
    from hexcover.lattice import hnf

    h = hnf(sub, sup)
    assert all(x.denominator == 1 for row in h for x in row), \
        "sub does not lie in sup"
    return math.prod(h[i][i] for i in range(len(h)))


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


def restricts_nontrivially(chi, sub) -> bool:
    """Whether the CharacterMod2 chi takes the value -1 somewhere on the
    sublattice sub of the product lattice, by its values on the generators
    of sub; a generator outside the product lattice raises NotInLattice."""
    return any(character_value(chi, v) == -1 for v in sub.vectors)


def is_unit(x) -> bool:
    """True iff the EisRat x is one of the six units of Z[zeta]."""
    return x.is_integral() and x.norm() == 1


def mat_scale(c, m):
    """The Q(zeta) matrix m with every entry multiplied by c."""
    return tuple(tuple(c * x for x in row) for row in m)


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
    from hexcover.eisenstein import mat_conj, mat_identity
    from hexcover.symmetry import AffineSymmetry

    lin = mat_conj(h.linear) if g.antiholomorphic else h.linear
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
    from hexcover.eisenstein import inv2, mat_conj, mat_identity
    from hexcover.symmetry import AffineSymmetry

    inv = inv2(g.linear)
    back = -q_zeta_push_vector(inv, g.translation, False)
    if not g.antiholomorphic:
        return AffineSymmetry(inv, False, back)
    return AffineSymmetry(mat_conj(inv), True,
                          q_zeta_push_vector(mat_identity(2), back, True))


def eisrat_mat_mul(a, b):
    """The Q(zeta) matrix product a . b, each entry summed in EisRat."""
    from hexcover.eisenstein import EisRat

    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), EisRat(0))
              for j in range(len(b[0])))
        for i in range(len(a)))


def mat_apply(m, v):
    """The Q(zeta) matrix m applied to the tuple of EisRat entries v."""
    from hexcover.eisenstein import EisRat

    if len(m[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum((row[k] * v[k] for k in range(len(v))), EisRat(0))
                 for row in m)


def ambient_from_pair(z1, z2):
    """The ambient vector with Q(zeta) coordinates (z1, z2)."""
    from hexcover.lattice import AmbientVector

    return AmbientVector((z1.a, z1.b, z2.a, z2.b))


class ReIm:
    """Exact real/imaginary decomposition of (a + b*zeta)/sqrt(3).

    The real part is re_coeff/sqrt(3) with re_coeff = a + b/2; the
    imaginary part is rational, im = b/2.  Keeping the 1/sqrt(3) as a
    tagged coefficient lets hermitian-form values round-trip exactly.
    """

    __slots__ = ("re_coeff", "im")

    def __init__(self, re_coeff=0, im=0) -> None:
        self.re_coeff = Fraction(re_coeff)
        self.im = Fraction(im)

    @classmethod
    def from_scaled(cls, x) -> "ReIm":
        """Decompose x/sqrt(3)."""
        return cls(x.a + x.b / 2, x.b / 2)

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
    from hexcover.eisenstein import EisRat

    z = v.to_pair()
    y = w.to_pair()
    acc = EisRat(0)
    for i in range(2):
        for j in range(2):
            acc = acc + z[i] * h.matrix[i][j] * y[j].conjugate()
    return ReIm.from_scaled(acc)


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
