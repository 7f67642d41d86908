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
    ZetaPair,
    _integer_matrix,
    _zeta_mul,
    inv2,
    mat,
    mat_conj,
    mat_identity,
    mat_mul,
)
from .lattice import (
    AmbientVector,
    ComplexLine,
    LatticeBasis,
    _ambient_matrix,
    _det,
    _lattice_coordinates,
    _map_coordinates,
    _map_vectors,
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


_ZERO_VECTOR = AmbientVector((0, 0, 0, 0))


class AffineSymmetry:
    """Map v |-> linear . v + t, conjugating first when anti-holomorphic."""

    __slots__ = ("linear", "antiholomorphic", "translation")

    def __init__(self, linear, antiholomorphic: bool = False,
                 translation: AmbientVector = _ZERO_VECTOR) -> None:
        linear = mat(linear)
        if len(linear) != 2 or any(len(row) != 2 for row in linear):
            raise ValueError("the linear part must be a 2x2 matrix")
        # invertible exactly when det = a11*a22 - a12*a21 is nonzero, tested
        # on the Z[zeta] pairs of the matrix cleared of denominators
        _, ((a11, a12), (a21, a22)) = _integer_matrix(linear)
        if _zeta_mul(a11, a22) == _zeta_mul(a12, a21):
            raise ValueError("the linear part must be invertible")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "antiholomorphic", bool(antiholomorphic))
        object.__setattr__(self, "translation", translation)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSymmetry is immutable")

    @classmethod
    def identity(cls) -> "AffineSymmetry":
        return cls(mat_identity(2))

    def apply(self, v: AmbientVector) -> AmbientVector:
        ambient = _ambient_matrix(self.linear, self.antiholomorphic)
        return _map_vectors(ambient, (v,))[0] + self.translation

    def compose(self, other: "AffineSymmetry") -> "AffineSymmetry":
        """The map v |-> self(other(v))."""
        lin = mat_conj(other.linear) if self.antiholomorphic else other.linear
        return AffineSymmetry(mat_mul(self.linear, lin),
                              self.antiholomorphic != other.antiholomorphic,
                              self.apply(other.translation))

    def inverse(self) -> "AffineSymmetry":
        """The map w |-> L^-1(w - t), L the (anti)linear part."""
        inv = inv2(self.linear)
        if self.antiholomorphic:
            inv = mat_conj(inv)
        back = AffineSymmetry(inv, self.antiholomorphic).apply(
            -self.translation)
        return AffineSymmetry(inv, self.antiholomorphic, back)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineSymmetry):
            return NotImplemented
        return (self.linear == other.linear
                and self.antiholomorphic == other.antiholomorphic
                and self.translation == other.translation)

    def __hash__(self) -> int:
        return hash((self.linear, self.antiholomorphic, self.translation))

    def __repr__(self) -> str:
        tag = "anti" if self.antiholomorphic else "holo"
        return f"AffineSymmetry({self.linear!r}, {tag}, {self.translation!r})"


def rational_rep(g: AffineSymmetry, basis: LatticeBasis):
    """Integer matrix of the (anti)linear part of g on the lattice basis.

    Column j holds the coordinates of the image of the j-th basis vector; the
    determinant must be a unit for g to map the lattice onto itself.
    """
    images = _map_coordinates(_ambient_matrix(g.linear, g.antiholomorphic),
                              basis._integer)
    columns = []
    for v, w in zip(basis.vectors, images):
        coords = _lattice_coordinates(basis, w)
        if coords is None:
            raise NotLatticePreserving(f"image of {v!r} leaves the lattice")
        columns.append(coords)
    rows = tuple(tuple(col[i] for col in columns)
                 for i in range(len(columns)))
    if _det(rows) not in (1, -1):
        raise NotLatticePreserving("lattice map is not invertible over Z")
    return rows


def maps_equal(g: AffineSymmetry, h: AffineSymmetry,
               basis: LatticeBasis) -> bool:
    """Equality as maps of the torus: same lattice action, same coset shift."""
    if g.antiholomorphic != h.antiholomorphic:
        return False
    if rational_rep(g, basis) != rational_rep(h, basis):
        return False
    shift = g.translation - h.translation
    return _lattice_coordinates(basis, shift) is not None


_SHEAR_INVERSE = inv2(catalog.FRAME_SHEAR)

# The same four tangent directions written in the sheared frame used by the
# generator search.
TILTED_TANGENTS = tuple(
    ComplexLine(tuple(row[0] * x + row[1] * y for row in _SHEAR_INVERSE))
    for x, y in (line.direction for line in catalog.CURVE_LINES))


def _zeta_pair(x: EisRat) -> ZetaPair:
    if not x.is_integral():
        raise ValueError(f"{x} is not an integer of Z[zeta]")
    return (x.a.numerator, x.b.numerator)


_AMBIENT_TANGENT_PAIRS = tuple(tuple(map(_zeta_pair, line.direction))
                               for line in catalog.CURVE_LINES)


def _tangent_permutation(linear: EisMat,
                         antiholomorphic: bool) -> Optional[Tuple[int, ...]]:
    """Images tuple of the map induced by an invertible linear (conjugating
    first when antiholomorphic) on the four ambient tangent lines, or None
    when it moves one of them off the quadruple.

    Scaling linear by its denominator does not change the projective map,
    so the images are integral and proportionality is one
    cross-multiplication in Z[zeta]; conjugation sends (a, b) to
    (a + b, -b).
    """
    _, ((a11, a12), (a21, a22)) = _integer_matrix(linear)
    images = []
    for x, y in _AMBIENT_TANGENT_PAIRS:
        if antiholomorphic:
            x, y = (x[0] + x[1], -x[1]), (y[0] + y[1], -y[1])
        ux, uy = _zeta_mul(a11, x)
        vx, vy = _zeta_mul(a12, y)
        qx = (ux + vx, uy + vy)
        ux, uy = _zeta_mul(a21, x)
        vx, vy = _zeta_mul(a22, y)
        qy = (ux + vx, uy + vy)
        for k, (px, py) in enumerate(_AMBIENT_TANGENT_PAIRS, start=1):
            if _zeta_mul(qx, py) == _zeta_mul(px, qy):
                images.append(k)
                break
        else:
            return None
    return tuple(images)


def preserves_divisor(g: AffineSymmetry) -> bool:
    """Whether g maps the branch divisor of the cover to itself.

    The divisor is four elliptic curves with tangent lines at the two
    quadruple points, so preservation is a line permutation plus
    stabilization of the base set.
    """
    rational_rep(g, catalog.COVER_LATTICE)
    if _tangent_permutation(g.linear, g.antiholomorphic) is None:
        return False
    return any(_lattice_coordinates(catalog.COVER_LATTICE,
                                    g.translation - base) is not None
               for base in (_ZERO_VECTOR, catalog.BRANCH_BASE_POINT))


def cross_ratio(p1: ComplexLine, p2: ComplexLine,
                p3: ComplexLine, p4: ComplexLine) -> EisRat:
    """((p1-p3)(p2-p4)) / ((p2-p3)(p1-p4)), degenerating by cancellation."""
    points = (p1, p2, p3, p4)
    for i in range(4):
        for j in range(i + 1, 4):
            if points[i] == points[j]:
                raise DegenerateQuadruple("repeated point in the quadruple")

    def d(p, q):
        (px, py), (qx, qy) = p.direction, q.direction
        return px * qy - qx * py

    return (d(p1, p3) * d(p2, p4)) / (d(p2, p3) * d(p1, p4))


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


_TILTED_TANGENT_PAIRS = tuple(tuple(map(_zeta_pair, line.direction))
                              for line in TILTED_TANGENTS)


def _tangent_equations(target: Sequence[int]):
    """The tangent test for one target permutation as linear equations in
    the entries (a11, a12, a21, a22), one per tilted tangent.

    Tangent (x, y) goes to the target tangent (px, py) exactly when the
    cross-multiplication (a11*x + a12*y)*py - px*(a21*x + a22*y) vanishes,
    that is a11*(x*py) + a12*(y*py) - a21*(x*px) - a22*(y*px) = 0 in
    Z[zeta].  Each equation lists (entry index, coefficient) pairs with the
    zero coefficients dropped.
    """
    out = []
    for (x, y), k in zip(_TILTED_TANGENT_PAIRS, target):
        px, py = _TILTED_TANGENT_PAIRS[k - 1]
        xpx, ypx = _zeta_mul(x, px), _zeta_mul(y, px)
        coefficients = (_zeta_mul(x, py), _zeta_mul(y, py),
                        (-xpx[0], -xpx[1]), (-ypx[0], -ypx[1]))
        out.append(tuple((i, c) for i, c in enumerate(coefficients)
                         if c != (0, 0)))
    return tuple(out)


_TANGENT_EQUATIONS = {target: _tangent_equations(target)
                      for target in _SEARCH_TARGETS}


def _moves_tangents(a11: ZetaPair, a12: ZetaPair, a21: ZetaPair,
                    a22: ZetaPair, target: Sequence[int]) -> bool:
    """Whether [[a11, a12], [a21, a22]] maps the i-th tilted tangent onto
    the target[i]-th for every i, for an invertible integral matrix and a
    target among _SEARCH_TARGETS.

    Both images and targets have integral coordinates, so each tangent is
    one equation of _tangent_equations; the first tilted tangent is (1, 0),
    so most candidates fail after two products.
    """
    entries = (a11, a12, a21, a22)
    for equation in _TANGENT_EQUATIONS[target]:
        sa = sb = 0
        for i, (c, d) in equation:
            # _zeta_mul(entries[i], (c, d)), inlined in the search's hot loop
            a, b = entries[i]
            sa += a * c - b * d
            sb += a * d + b * c + b * d
        if sa or sb:
            return False
    return True


def _unit_det_candidates(height_bound: int):
    """Entry quadruples (a11, a12, a21, a22) of the search's congruence
    pattern whose matrix has unit determinant.

    Every (a12, a21) pair is indexed once by its product; for each
    (a11, a22) the six products a11*a22 - u, u a unit, are looked up.  Hits
    are sorted by the scan index of their (a12, a21) pair, so the list
    follows a plain scan over a11, a22, a12, a21 (outermost first).
    """
    span = range(-height_bound, height_bound + 1)
    even = [k for k in span if k % 2 == 0]
    top_left = [(x, y) for x in span for y in even]
    top_right = [(x, y) for x in even for y in even]
    bottom = [(x, y) for x in span for y in span]
    by_product = {}
    position = 0
    for a12 in top_right:
        for a21 in bottom:
            by_product.setdefault(_zeta_mul(a12, a21), []).append(
                (position, a12, a21))
            position += 1
    out = []
    for a11 in top_left:
        for a22 in bottom:
            # det = a11*a22 - a12*a21 must be a unit of the ring
            ha, hb = _zeta_mul(a11, a22)
            hits = sorted(hit for ua, ub in _UNITS
                          for hit in by_product.get((ha - ua, hb - ub), ()))
            out.extend((a11, a12, a21, a22) for _, a12, a21 in hits)
    return out


def search_generators(height_bound: int) -> List[AffineSymmetry]:
    """All sheared-frame symmetries with small entries moving the tangent
    quadruple by one of the two target permutations.

    Entries run over a fixed congruence pattern (upper-left with even zeta
    part, upper-right with both parts even, bottom row unrestricted) with
    both parts of absolute value at most height_bound.  The matrices of
    unit determinant come from a lookup by product (_unit_det_candidates);
    each is pruned by the induced tangent permutation, tested in Z[zeta]
    integers, and finally by preservation of the cover lattice after
    conjugating back to the standard frame.  Survivors are listed in the
    order of a plain scan over a11, a22, a12, a21 (outermost first).
    """
    if height_bound < 2:
        raise ValueError("height bound must be at least 2")
    span = range(-height_bound, height_bound + 1)
    entries = {(x, y): EisRat(x, y) for x in span for y in span}
    shear = catalog.FRAME_SHEAR
    first, second = _SEARCH_TARGETS
    out = []
    for a11, a12, a21, a22 in _unit_det_candidates(height_bound):
        # Built for every unit-determinant candidate, though only the
        # tangent test's survivors use it: perfbench counts the mat calls
        # inside the search as its candidates, and its self-test pins them
        # (4204 at bound 3).  The entries are EisRat already, so mat only
        # checks their type.
        linear = mat([[entries[a11], entries[a12]],
                      [entries[a21], entries[a22]]])
        if not (_moves_tangents(a11, a12, a21, a22, first)
                or _moves_tangents(a11, a12, a21, a22, second)):
            continue
        ambient = mat_mul(mat_mul(shear, linear), _SHEAR_INVERSE)
        candidate = AffineSymmetry(ambient)
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
    anti-holomorphic reflection.
    """
    basis = catalog.COVER_LATTICE
    try:
        square = g2.compose(g2)
        cube = g3.compose(g3).compose(g3)
        prod = g2.compose(g3)
        prod3 = prod.compose(prod).compose(prod)
        ok = (maps_equal(square, NEGATION, basis)
              and maps_equal(cube, NEGATION, basis)
              and maps_equal(prod3, NEGATION, basis)
              and maps_equal(NEGATION.compose(NEGATION),
                             AffineSymmetry.identity(), basis))
        swap, refl = BASE_POINT_SWAP, ANTIHOLO_REFLECTION
        comm = swap.compose(refl).compose(swap.inverse()).compose(
            refl.inverse())
        return ok and maps_equal(comm, AffineSymmetry.identity(), basis)
    except NotLatticePreserving:
        return False


def gamma_action_on_sigma() -> Permutation:
    """Permutation of the three selected characters under the order-3
    symmetry of the product surface."""
    g = PRODUCT_ORDER3
    basis = catalog.PRODUCT_LATTICE
    rational_rep(g, basis)
    if not maps_equal(g.compose(g).compose(g), AffineSymmetry.identity(),
                      basis):
        raise ValueError("product symmetry is not of order 3")
    if _tangent_permutation(g.linear, False) is None:
        raise NotDivisorPreserving("product symmetry moves the tangent lines")
    chars = all_characters()
    selected = classify_characters().selected
    images = []
    for k in selected:
        pulled = CharacterMod2(
            chars[k].value(g.apply(v))
            for v in basis.vectors)
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
