"""Rational lattices of rank 2 and 4 in the real 4-space underlying C^2.

The ambient space carries the fixed reference basis (u1, zeta*u1, u2,
zeta*u2), where (u1, u2) is the standard complex basis; a vector is four
rationals against that basis, equivalently a pair (z1, z2) of Q(zeta)
elements.  Multiplication by zeta acts on each 2-block by the integer
matrix J = [[0, -1], [1, 1]], which satisfies J**2 = J - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .eisenstein import EisMat, EisRat, Rat, _integer_matrix, _rational, as_eis


class NotCommensurable(ValueError):
    """The two lattices do not sit in a common rational span."""


class RankMismatch(ValueError):
    """Operation requires lattices of equal rank."""


class AmbientVector:
    """Vector with four rational coordinates in the reference basis."""

    __slots__ = ("coordinates", "_hash")

    def __init__(self, coordinates: Sequence[Rat]) -> None:
        coords = tuple(map(_rational, coordinates))
        if len(coords) != 4:
            raise ValueError("ambient vectors have four coordinates")
        object.__setattr__(self, "coordinates", coords)
        # hash of the coordinates, computed on first use: coords_in looks
        # the same vectors up again and again
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AmbientVector is immutable")

    def to_pair(self) -> Tuple[EisRat, EisRat]:
        x1, x2, x3, x4 = self.coordinates
        return EisRat(x1, x2), EisRat(x3, x4)

    def __add__(self, other: "AmbientVector") -> "AmbientVector":
        if not isinstance(other, AmbientVector):
            return NotImplemented
        return AmbientVector(tuple(a + b for a, b in
                                   zip(self.coordinates, other.coordinates)))

    def __sub__(self, other: "AmbientVector") -> "AmbientVector":
        if not isinstance(other, AmbientVector):
            return NotImplemented
        return AmbientVector(tuple(a - b for a, b in
                                   zip(self.coordinates, other.coordinates)))

    def __neg__(self) -> "AmbientVector":
        return AmbientVector(tuple(-a for a in self.coordinates))

    def __mul__(self, scalar: Rat) -> "AmbientVector":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return AmbientVector(tuple(a * scalar for a in self.coordinates))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmbientVector):
            return NotImplemented
        return self.coordinates == other.coordinates

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.coordinates)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"AmbientVector({list(self.coordinates)!r})"


class ComplexLine:
    """Complex line through the origin, a nonzero (z1, z2) up to scaling;
    equally the point (z1 : z2) of the projective line."""

    __slots__ = ("direction",)

    def __init__(self, direction: Tuple[object, object]) -> None:
        d1, d2 = map(as_eis, direction)
        if not d1 and not d2:
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
        return hash(x / y if y else None)

    def __repr__(self) -> str:
        return f"ComplexLine({self.direction!r})"


class LatticeBasis:
    """Ordered rationally independent generators of a lattice."""

    __slots__ = ("vectors", "_solver", "_integer", "_coords", "_im_forms",
                 "_pullbacks", "_shifts")

    def __init__(self, vectors: Sequence[AmbientVector]) -> None:
        vecs = tuple(vectors)
        den, rows = integer_coordinates(vecs)
        if len(_gauss_jordan(rows)[0]) != len(vecs):
            raise ValueError("basis vectors must be linearly independent")
        object.__setattr__(self, "vectors", vecs)
        # Derived from vectors: _integer holds their integer coordinates
        # (integer_coordinates, computed once here).  The caches are filled
        # on use: _solver by the first coords_in against this basis,
        # _coords by coords_in, which keys by the vector the pair of its
        # rational coordinates and its integer lattice coordinates (each
        # None when there are none), _im_forms by
        # appell_humbert.im_on_lattice, which keys Im h on this basis by the
        # form's integer Gram matrix, _pullbacks by appell_humbert._pull_back,
        # which keys the pulled form and the basis images by (map,
        # anti-holomorphic flag, Gram matrix of the bundle's form), and
        # _shifts by appell_humbert.translate, which keys the integer shifts
        # Im h(v, b_j) over their denominator by (Gram matrix, v).
        object.__setattr__(self, "_integer", (den, tuple(map(tuple, rows))))
        object.__setattr__(self, "_solver", None)
        object.__setattr__(self, "_coords", {})
        object.__setattr__(self, "_im_forms", {})
        object.__setattr__(self, "_pullbacks", {})
        object.__setattr__(self, "_shifts", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LatticeBasis is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rat]]) -> "LatticeBasis":
        return cls([AmbientVector(r) for r in rows])

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeBasis):
            return NotImplemented
        return self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash(self.vectors)

    def __repr__(self) -> str:
        return f"LatticeBasis({list(self.vectors)!r})"


# --- rational linear algebra ------------------------------------------------


def integer_coordinates(vectors: Sequence[AmbientVector]) -> Tuple[int, List[List[int]]]:
    """Common denominator d and integer rows with row[i] / d the ambient
    coordinates of vectors[i]."""
    den = lcm(*(c.denominator for v in vectors for c in v.coordinates))
    return den, [[c.numerator * (den // c.denominator) for c in v.coordinates]
                 for v in vectors]


# An integer 4x4 matrix F over a denominator den, acting as v -> F . v / den.
_AmbientMap = Tuple[int, Tuple[Tuple[int, ...], ...]]


def _ambient_matrix(m: EisMat, conjugate_first: bool = False) -> _AmbientMap:
    """The map v -> m . v, or v -> m . conj(v) when conjugate_first, on
    ambient coordinates, as (den, integer 4x4 rows F): the image of v is
    F . v / den.

    The entry p + q*zeta of m acts on one 2-block as [[p, -q], [q, p + q]]
    (multiplication by zeta is J); with conjugation first, which sends
    (x, y) to (x + y, -y), the block is [[p, p + q], [q, -p]].
    """
    den, pairs = _integer_matrix(m)
    rows = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            p, q = pairs[i][j]
            top, bottom = rows[2 * i], rows[2 * i + 1]
            if conjugate_first:
                top[2 * j], top[2 * j + 1] = p, p + q
                bottom[2 * j], bottom[2 * j + 1] = q, -p
            else:
                top[2 * j], top[2 * j + 1] = p, -q
                bottom[2 * j], bottom[2 * j + 1] = q, p + q
    return den, tuple(map(tuple, rows))


def _map_coordinates(ambient: _AmbientMap, coordinates) -> List[AmbientVector]:
    den, rows = ambient
    d, ints = coordinates
    den *= d
    return [AmbientVector(tuple(Fraction(sum(a * b for a, b in zip(r, x)), den)
                                for r in rows)) for x in ints]


def _gauss_jordan(rows: Sequence[Sequence[int]]):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer
    matrix A.

    Returns (pivot columns, R, T, d), all integers, with T . A = R; the
    number of pivots is the rank, the pivot rows of R are d times the
    reduced row echelon form of A and the other rows are zero.  Each step
    replaces every other row by (p * row - row[col] * pivot row) / d, p the
    new pivot and d the previous one, a division that is exact because
    every entry is, up to sign, a minor of the matrix (A | I).  A row swap
    negates the row moved down, so d is det(A) when A is square of full
    rank.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots: List[int] = []
    d = 1
    for col in range(len(m[0]) if m else 0):
        r0 = len(pivots)
        below = next((r for r in range(r0, n) if m[r][col]), None)
        if below is None:
            continue
        if below != r0:
            m[r0], m[below] = m[below], [-a for a in m[r0]]
            t[r0], t[below] = t[below], [-a for a in t[r0]]
        p, prow, trow = m[r0][col], m[r0], t[r0]
        for r in range(n):
            if r != r0:
                f = m[r][col]
                m[r] = [(p * a - f * b) // d for a, b in zip(m[r], prow)]
                t[r] = [(p * a - f * b) // d for a, b in zip(t[r], trow)]
        d = p
        pivots.append(col)
    return pivots, m, t, d


def _solver(basis: LatticeBasis):
    """The cached data coords_in needs for basis: (pivots, den, inverse,
    checks), all integers.

    For the k basis vectors, the k x k minor on the pivot coordinates is
    invertible; inverse is den times its inverse, so the coordinates of v
    are inverse . v[pivots] / den.  Each (r, row) in checks reconstructs a
    non-pivot coordinate as row . v[pivots] / den, which must equal v[r]
    for v to lie in the span; rank 4 has no checks.

    With V = scale . B the integer coordinates of the basis B, _gauss_jordan
    gives T . V = R with R = d . rref(B) on the pivot rows, so
    inverse = scale . T^t and the checks are the non-pivot columns of R,
    all over den = d.
    """
    solver = basis._solver
    if solver is None:
        scale, rows = basis._integer
        pivots, reduced, transform, d = _gauss_jordan(rows)
        k = len(pivots)
        solver = (tuple(pivots), d,
                  tuple(tuple(scale * transform[j][i] for j in range(k))
                        for i in range(k)),
                  tuple((r, tuple(reduced[j][r] for j in range(k)))
                        for r in range(4) if r not in pivots))
        object.__setattr__(basis, "_solver", solver)
    return solver


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    pivots, _, _, d = _gauss_jordan(rows)
    return d if len(pivots) == len(rows) else 0


def coords_in(reference: LatticeBasis, v: AmbientVector) -> Optional[Tuple[Fraction, ...]]:
    """Coordinates of v in the reference basis, or None if v is outside
    the rational span of the reference.

    Each result, None included, is stored on the reference basis keyed by
    v, together with what _lattice_coordinates returns for v, so asking
    again for an equal vector is one dict lookup."""
    known = reference._coords
    solved = known.get(v)
    if solved is None:
        solved = known[v] = _solve(reference, v)
    return solved[0]


def _solve(reference: LatticeBasis, v: AmbientVector):
    """(coords_in of v, _lattice_coordinates of v), computed with the
    basis' _solver: the coordinates are integers over one denominator, so
    they are a lattice vector's exactly when that denominator divides each
    of them."""
    pivots, den, inverse, checks = _solver(reference)
    d, (ints,) = integer_coordinates((v,))
    at_pivots = [ints[p] for p in pivots]
    for r, row in checks:
        if sum(a * b for a, b in zip(row, at_pivots)) != ints[r] * den:
            return None, None
    den *= d
    nums = [sum(a * b for a, b in zip(row, at_pivots)) for row in inverse]
    integral = all(n % den == 0 for n in nums)
    return (tuple(Fraction(n, den) for n in nums),
            tuple(n // den for n in nums) if integral else None)


def _lattice_coordinates(basis: LatticeBasis,
                         v: AmbientVector) -> Optional[Tuple[int, ...]]:
    """Integer coordinates of v in basis, or None when v is not a vector of
    the lattice: outside its rational span or at a fractional point.

    They are read from the coords_in memo, which stores them next to the
    rational coordinates.  The memo is filled through coords_in itself, so
    that every lookup stays a coords_in call, which perfbench's self-test
    counts."""
    coords_in(basis, v)
    return basis._coords[v][1]


# --- integer column reduction ----------------------------------------------


def _column_reduce(m: List[List[int]]) -> List[List[int]]:
    """Bring the matrix to column echelon form using unimodular column
    operations, and return it."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    c = 0
    for i in range(nrows):
        if c == ncols:
            break
        while True:
            nz = [j for j in range(c, ncols) if m[i][j]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(m[i][j]))
            for j in nz:
                if j == j0:
                    continue
                q = m[i][j] // m[i][j0]
                if q:
                    for r in range(nrows):
                        m[r][j] -= q * m[r][j0]
        nz = [j for j in range(c, ncols) if m[i][j]]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != c:
            for r in range(nrows):
                m[r][c], m[r][j0] = m[r][j0], m[r][c]
        if m[i][c] < 0:
            for r in range(nrows):
                m[r][c] = -m[r][c]
        for j in range(c):
            q = m[i][j] // m[i][c]
            if q:
                for r in range(nrows):
                    m[r][j] -= q * m[r][c]
        c += 1
    return m


# --- lattice operations -----------------------------------------------------


def _coord_matrix(basis: LatticeBasis, reference: LatticeBasis) -> List[List[Fraction]]:
    """Columns are the reference-coordinates of the basis vectors."""
    cols = []
    for v in basis.vectors:
        sol = coords_in(reference, v)
        if sol is None:
            raise NotCommensurable(
                "basis vector outside the rational span of the reference")
        cols.append(list(sol))
    n = reference.rank
    return [[cols[j][i] for j in range(len(cols))] for i in range(n)]


def hnf(basis: LatticeBasis, reference: LatticeBasis) -> Tuple[Tuple[Fraction, ...], ...]:
    """Hermite normal form of the coordinate matrix of basis relative to
    reference (column-style, lower triangular, residues reduced into
    [0, diagonal)).  Two bases generate the same lattice iff their normal
    forms relative to a common reference are equal."""
    mat = _coord_matrix(basis, reference)
    den = lcm(*(x.denominator for row in mat for x in row))
    ints = [[int(x * den) for x in row] for row in mat]
    reduced = _column_reduce(ints)
    return tuple(tuple(Fraction(x, den) for x in row) for row in reduced)


def orientation(basis: LatticeBasis) -> int:
    """Sign of the determinant of the ambient coordinate matrix.

    Fixes the orientation of every rank-4 basis against the reference
    basis once and for all, so pfaffians of alternating forms do not
    depend on the ordering of the generators.
    """
    if basis.rank != 4:
        raise RankMismatch("orientation is defined for rank-4 bases")
    return 1 if _det(basis._integer[1]) > 0 else -1
