"""Rational lattices of rank 4 in the real 4-space underlying C^2.

The ambient space carries the fixed reference basis (u1, zeta*u1, u2,
zeta*u2), where (u1, u2) is the standard complex basis; a vector is four
rationals against that basis, equivalently a pair (z1, z2) of Q(zeta)
elements, stored as four integers over one denominator so that its
arithmetic, hashing and comparison stay on ints.  Multiplication by zeta
acts on each 2-block by the integer matrix J = [[0, -1], [1, 1]], which
satisfies J**2 = J - 1.

_int_product is the package's one integer matrix product; over Z[zeta] the
kernels are eisenstein's _zeta_mul, _zeta_det and _pair_product, which read
a matrix's pairs straight off its EisMat.  Loops stay written out only
where they are hot or over another ring: the elimination steps of
_gauss_jordan, the one matrix-vector product of _solve, the pair loops of
_zeta_mul and _pair_product, the entrywise sum of HermitianForm.__add__
over the product of the denominators, and the generator search's
per-candidate loops _tangent_permutation, _first_tangent_pairs and
_unit_det_walk; Semicharacter._numerator writes its exponent sum out term
by term on the four coordinates.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter, mul
from typing import List, Optional, Sequence, Tuple

from .eisenstein import EisMat, Rat, _Immutable, _rational


class AmbientVector(_Immutable):
    """Vector with four rational coordinates in the reference basis, held
    as four integer numerators over one positive denominator, in lowest
    terms: the coordinates are _nums[i] / _den and gcd(_den, *_nums) == 1,
    so equal vectors have equal (_den, _nums)."""

    __slots__ = ("_den", "_nums")

    def __init__(self, coordinates: Sequence[Rat]) -> None:
        coords = tuple(map(_rational, coordinates))
        if len(coords) != 4:
            raise ValueError("ambient vectors have four coordinates")
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in coords))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple(
            c.numerator * (den // c.denominator) for c in coords))

    @classmethod
    def _from_integers(cls, den: int, nums: Sequence[int]) -> "AmbientVector":
        """The vector with coordinates nums[i] / den, for den > 0."""
        g = gcd(den, *nums)
        v = object.__new__(cls)
        object.__setattr__(v, "_den", den // g)
        object.__setattr__(v, "_nums", tuple(n // g for n in nums))
        return v

    @property
    def coordinates(self) -> Tuple[Rat, ...]:
        from fractions import Fraction
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def _combine(self, other: "AmbientVector", sign: int) -> "AmbientVector":
        """self + sign * other, over the lcm of the two denominators."""
        d1, d2 = self._den, other._den
        den = lcm(d1, d2)
        s, t = den // d1, sign * (den // d2)
        return AmbientVector._from_integers(
            den, [a * s + b * t for a, b in zip(self._nums, other._nums)])

    def __add__(self, other: "AmbientVector") -> "AmbientVector":
        if not isinstance(other, AmbientVector):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "AmbientVector") -> "AmbientVector":
        if not isinstance(other, AmbientVector):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "AmbientVector":
        return AmbientVector._from_integers(self._den,
                                            [-a for a in self._nums])

    def __mul__(self, scalar: Rat) -> "AmbientVector":
        try:
            scalar = _rational(scalar)
        except TypeError:
            return NotImplemented
        return AmbientVector._from_integers(
            self._den * scalar.denominator,
            [a * scalar.numerator for a in self._nums])

    __rmul__ = __mul__

    # not _Immutable's key rule: coords_in hashes a vector on every lookup,
    # and reading the two slots here costs less than calling a key
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmbientVector):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __repr__(self) -> str:
        return f"AmbientVector({list(self.coordinates)!r})"


class LatticeBasis(_Immutable):
    """Four ordered rationally independent generators of a full lattice in
    the ambient space."""

    __slots__ = ("vectors", "_solver", "_integer", "_coords", "_im_forms",
                 "_pullbacks", "_shifts")
    _key = attrgetter("vectors")

    def __init__(self, vectors: Sequence[AmbientVector]) -> None:
        vecs = tuple(vectors)
        if not all(isinstance(v, AmbientVector) for v in vecs):
            raise TypeError("basis vectors must be AmbientVectors")
        if len(vecs) != 4:
            raise ValueError("a basis has four vectors")
        den, rows = integer_coordinates(vecs)
        solver = _solver(den, rows)
        if solver is None:
            raise ValueError("basis vectors must be linearly independent")
        object.__setattr__(self, "vectors", vecs)
        # Derived from vectors, once, here: _integer holds their integer
        # coordinates (integer_coordinates) and _solver the data coords_in
        # and orientation read, built from the one elimination that also
        # checks independence.  The caches are filled on use: _coords by
        # coords_in, which keys by the vector (hashed and compared on its
        # integer numerators and denominator) its coordinates, also read by
        # _lattice_coordinates, _im_forms by appell_humbert.im_on_lattice,
        # which keys Im h on this basis by the form's integer Gram matrix,
        # _pullbacks by appell_humbert._pull_back, which keys the pulled
        # form and the basis images by (map, anti-holomorphic flag, Gram
        # matrix of the bundle's form), and _shifts by
        # appell_humbert.translate, which keys the integer shifts
        # Im h(v, b_j) over their denominator by (Gram matrix, v).
        object.__setattr__(self, "_integer", (den, tuple(map(tuple, rows))))
        object.__setattr__(self, "_solver", solver)
        object.__setattr__(self, "_coords", {})
        object.__setattr__(self, "_im_forms", {})
        object.__setattr__(self, "_pullbacks", {})
        object.__setattr__(self, "_shifts", {})

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Rat]]) -> "LatticeBasis":
        return cls([AmbientVector(r) for r in rows])

    def __repr__(self) -> str:
        return f"LatticeBasis({list(self.vectors)!r})"


# --- rational linear algebra ------------------------------------------------


def integer_coordinates(vectors: Sequence[AmbientVector]) -> Tuple[int, List[List[int]]]:
    """Common denominator d and integer rows with row[i] / d the ambient
    coordinates of vectors[i]."""
    den = lcm(*(v._den for v in vectors))
    return den, [[n * (den // v._den) for n in v._nums] for v in vectors]


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
    den, pairs = m
    rows = []
    # the row (p + q*zeta, r + s*zeta) of m gives two rows of F
    for (p, q), (r, s) in pairs:
        if conjugate_first:
            rows += [(p, p + q, r, r + s), (q, -p, s, -r)]
        else:
            rows += [(p, -q, r, -s), (q, p + q, s, r + s)]
    return den, tuple(rows)


def _int_product(A, B) -> Tuple[Tuple[int, ...], ...]:
    """A . B for integer matrices given as rows, as rows."""
    columns = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) for col in columns])
                  for row in A])


def _map_coordinates(ambient: _AmbientMap, coordinates) -> List[AmbientVector]:
    den, rows = ambient
    d, ints = coordinates
    den *= d
    return [AmbientVector._from_integers(den, image)
            for image in _int_product(ints, tuple(zip(*rows)))]


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
        # written out: an elimination step rewrites rows, it is no product
        for r in range(n):
            if r != r0:
                f = m[r][col]
                m[r] = [(p * a - f * b) // d for a, b in zip(m[r], prow)]
                t[r] = [(p * a - f * b) // d for a, b in zip(t[r], trow)]
        d = p
        pivots.append(col)
    return pivots, m, t, d


def _solver(scale: int, rows: Sequence[Sequence[int]]):
    """The data coords_in needs for the basis B with integer coordinates
    rows = V = scale . B: (det, inverse), integers with det = det(V) and
    inverse = det . (B^t)^-1, so the coordinates of v are
    inverse . v / det.  None when the rows are dependent.

    _gauss_jordan gives T . V = det . I for independent rows, so
    inverse = scale . T^t.
    """
    pivots, _, transform, d = _gauss_jordan(rows)
    if len(pivots) != 4:
        return None
    return d, tuple(tuple(scale * transform[j][i] for j in range(4))
                    for i in range(4))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    pivots, _, _, d = _gauss_jordan(rows)
    return d if len(pivots) == len(rows) else 0


def coords_in(reference: LatticeBasis,
              v: AmbientVector) -> Tuple[int, Tuple[int, ...]]:
    """Rational coordinates of v in the reference basis as (den, nums):
    the coordinates are nums[i] / den, in lowest terms with den > 0, so v
    is a lattice vector exactly when den == 1.

    Each result is stored on the reference basis keyed by v, so asking
    again for an equal vector is one dict lookup."""
    known = reference._coords
    coords = known.get(v)
    if coords is None:
        coords = known[v] = _solve(reference, v)
    return coords


def _solve(reference: LatticeBasis,
           v: AmbientVector) -> Tuple[int, Tuple[int, ...]]:
    """coords_in of v, computed with the basis' _solver: inverse . v over
    det(V) times v's denominator, reduced to a positive denominator."""
    if not isinstance(v, AmbientVector):  # on a miss only: hits stay free
        raise TypeError(f"expected an AmbientVector, got {v!r}")
    den, inverse = reference._solver
    den *= v._den
    # written out: every coords_in miss runs it, and a call would cost more
    nums = [sum(map(mul, row, v._nums)) for row in inverse]
    g = gcd(den, *nums) * (1 if den > 0 else -1)
    return den // g, tuple([n // g for n in nums])


def _lattice_coordinates(basis: LatticeBasis,
                         v: AmbientVector) -> Optional[Tuple[int, ...]]:
    """Integer coordinates of v in basis, or None when v is not a vector of
    the lattice, that is, when its coordinates are fractional.

    They are read off coords_in, so that every lookup stays a coords_in
    call, which perfbench's self-test counts."""
    den, nums = coords_in(basis, v)
    return nums if den == 1 else None


# --- lattice operations -----------------------------------------------------


def orientation(basis: LatticeBasis) -> int:
    """Sign of the determinant of the ambient coordinate matrix.

    Fixes the orientation of every basis against the reference basis once
    and for all, so pfaffians of alternating forms do not depend on the
    ordering of the generators.
    """
    # the solver's denominator is det(V), V = scale . B with scale > 0
    return 1 if basis._solver[0] > 0 else -1
