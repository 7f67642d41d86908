"""Exact arithmetic in Q(zeta) for zeta = exp(pi*i/3).

zeta is a primitive sixth root of unity, so zeta**2 = zeta - 1 and
conj(zeta) = 1 - zeta.  Every element is stored as a + b*zeta with
rational a, b; the hexagonal ring Z[zeta] is the ring of integers.

Inside the package an exact rational is an int, or integers over one
positive denominator (AmbientVector, Semicharacter, coords_in, EisMat),
so its arithmetic stays on ints.  A Fraction appears only at the edges,
handed in by a caller, made by _rational or _ratio for a fractional value,
or returned by a reader; each imports fractions on first use.  A float or
a string raises TypeError rather than being rounded into a Fraction, and so
does a bool, which is an int to Python but not a number here.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Sequence, Tuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

Rat = Union[int, "Fraction"]


def _rational(x: object) -> Rat:
    """x in canonical form, for x an int or a Fraction: an int as it is, a
    Fraction with denominator 1 as its numerator, any other Fraction
    unchanged.  Anything else, floats, strings and bools included, raises
    TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, int) and type(x) is not bool:
        return int(x)
    from fractions import Fraction
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


def _ratio(n: Rat, den: Rat) -> Rat:
    """n / den in canonical form: an int when den divides n, else a
    Fraction."""
    if n % den == 0:
        return n // den
    from fractions import Fraction
    return Fraction(n, den)


class _Immutable:
    """Base of the package's value types.  Each subclass declares its own
    __slots__ and fills them once, in its constructor, through
    object.__setattr__; any later assignment raises AttributeError.

    Each subclass also declares _key, an operator.attrgetter of the slots
    that hold its value: two values are equal when they have one type and
    equal keys, and a value hashes as its key.  EisRat, which also equals
    ints and Fractions, and AmbientVector, hashed on every coords_in lookup,
    define their own __eq__ and __hash__ instead."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class EisRat(_Immutable):
    """a + b*zeta with exact rational a, b, each in the canonical form of
    _rational: an int when it is integral, else a Fraction."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rat = 0, b: Rat = 0) -> None:
        object.__setattr__(self, "a", _rational(a))
        object.__setattr__(self, "b", _rational(b))

    @staticmethod
    def _coerce(x: object) -> "EisRat | None":
        if isinstance(x, EisRat):
            return x
        try:
            return EisRat(x)
        except TypeError:
            return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # a rational hashes as the int or Fraction it equals
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __add__(self, other: object) -> "EisRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisRat(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "EisRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisRat(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "EisRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisRat(o.a - self.a, o.b - self.b)

    def __neg__(self) -> "EisRat":
        return EisRat(-self.a, -self.b)

    def __mul__(self, other: object) -> "EisRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a+b*z)(c+d*z) = ac + (ad+bc)z + bd*z^2, and z^2 = z - 1.
        a, b, c, d = self.a, self.b, o.a, o.b
        return EisRat(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "EisRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        # 1/x = conj(x) / norm(x), through _ratio, as int / int is a float
        num = self * o.conjugate()
        return EisRat(_ratio(num.a, n), _ratio(num.b, n))

    def conjugate(self) -> "EisRat":
        # conj(zeta) = 1 - zeta
        return EisRat(self.a + self.b, -self.b)

    def norm(self) -> Rat:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_integral(self) -> bool:
        # in canonical form exactly the integral parts are ints
        return type(self.a) is int and type(self.b) is int

    def __repr__(self) -> str:
        return f"EisRat({self.a!r}, {self.b!r})"


# Z[zeta] integers as (a, b) pairs for a + b*zeta.  A matrix over Q(zeta)
# is one positive denominator over a 2x2 array of such pairs (EisMat), and
# every matrix product of the package is computed on the pairs: the
# pullbacks, the symmetries, the generator search and its change of frame.
ZetaPair = Tuple[int, int]
PairMat = Tuple[Tuple[ZetaPair, ...], ...]


class EisMat(tuple):
    """A 2x2 matrix over Q(zeta) in its one canonical form, the pair
    (den, pairs): entry (i, j) is (a + b*zeta) / den for (a, b) =
    pairs[i][j], with den > 0 and gcd(den, every a and b) == 1, so equal
    matrices have equal data and hash equal.

    A tuple, so that building one is a single C-level call and equality
    and hashing are tuple's.  Calling EisMat checks nothing: mat parses
    literal rows into one and _canonical reduces computed pairs, and only
    the generator search, whose candidates are integral (den 1), builds
    one directly."""

    __slots__ = ()


def mat(rows: Union[EisMat, Sequence[Sequence[object]]]) -> EisMat:
    """The EisMat of a 2x2 matrix.  An EisMat is returned as it is, after
    one type check; anything else is read as two rows of two entries, each
    an int, a Fraction or an EisRat, and cleared of denominators.  A float,
    a bool or a string raises TypeError, and any other shape ValueError.

    The generator search calls mat once per unit-determinant candidate,
    thousands of times at bound 3, on an EisMat it built."""
    if type(rows) is EisMat:
        return rows
    m = [[x if isinstance(x, EisRat) else EisRat(x) for x in row]
         for row in rows]
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise ValueError("a matrix here is 2x2")
    # the lcm of reduced denominators leaves the numerators coprime to it
    den = lcm(*(q.denominator for row in m for x in row for q in (x.a, x.b)))
    return EisMat((den, tuple(
        tuple((x.a.numerator * (den // x.a.denominator),
               x.b.numerator * (den // x.b.denominator)) for x in row)
        for row in m)))


def mat_identity(n: int) -> EisMat:
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def _canonical(den: int, pairs: PairMat) -> EisMat:
    """The EisMat with entries (a + b*zeta) / den for (a, b) in the 2x2
    array pairs and den > 0: den and the pairs divided by their gcd."""
    g = gcd(den, *(x for row in pairs for p in row for x in p))
    if g > 1:
        den //= g
        pairs = tuple(tuple((a // g, b // g) for a, b in row) for row in pairs)
    return EisMat((den, pairs))


def _zeta_mul(x: ZetaPair, y: ZetaPair) -> ZetaPair:
    # written out: a product in Z[zeta], which lattice._int_product is not
    # (a+b*z)(c+d*z) = ac + (ad+bc)z + bd*z^2, and z^2 = z - 1.
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c + b * d)


def _zeta_det(x, y) -> ZetaPair:
    """x0*y1 - y0*x1, the determinant of the Z[zeta] rows x and y."""
    a, b = _zeta_mul(x[0], y[1])
    c, d = _zeta_mul(y[0], x[1])
    return (a - c, b - d)


def _gf3_residues(m: EisMat) -> Tuple[int, ...]:
    """The entries of an integral matrix, row by row, modulo the prime
    1 + zeta.  Its residue field is GF(3) and zeta goes to -1, so
    a + b*zeta goes to (a - b) mod 3; conjugation, (a + b) - b*zeta, fixes
    every residue.  A non-integral matrix raises ValueError."""
    den, pairs = m
    if den != 1:
        raise ValueError(f"{m!r} is not an integer matrix over Z[zeta]")
    return tuple((a - b) % 3 for row in pairs for a, b in row)


def _pair_conjugate(P: PairMat) -> PairMat:
    """The entrywise conjugate of an array of Z[zeta] pairs:
    conj(a + b*zeta) = (a + b) - b*zeta."""
    return tuple(tuple((a + b, -b) for a, b in row) for row in P)


def _pair_product(P: PairMat, Q: PairMat) -> PairMat:
    """The matrix product P . Q of two arrays of Z[zeta] pairs."""
    columns = tuple(zip(*Q))
    out = []
    for row in P:
        entries = []
        for col in columns:
            a = b = 0
            for (p, q), (r, s) in zip(row, col):
                # _zeta_mul((p, q), (r, s)) inlined: Z[zeta], not Q
                a += p * r - q * s
                b += p * s + q * r + q * s
            entries.append((a, b))
        out.append(tuple(entries))
    return tuple(out)


ZETA = EisRat(0, 1)
