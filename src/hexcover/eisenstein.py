"""Exact arithmetic in Q(zeta) for zeta = exp(pi*i/3).

zeta is a primitive sixth root of unity, so zeta**2 = zeta - 1 and
conj(zeta) = 1 - zeta.  Every element is stored as a + b*zeta with
rational a, b; the hexagonal ring Z[zeta] is the ring of integers.
Rationals are ints or Fractions only: a float or a string raises TypeError
rather than being rounded into a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Tuple, Union

Rat = Union[int, Fraction]


def _rational(x: object) -> Fraction:
    """x as a Fraction, for x an int or a Fraction; anything else, floats
    and strings included, raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {x!r}")


class EisRat:
    """a + b*zeta with exact rational a, b."""

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a: Rat = 0, b: Rat = 0) -> None:
        object.__setattr__(self, "a", _rational(a))
        object.__setattr__(self, "b", _rational(b))
        # hash of (a, b), computed on first use: matrices of EisRat key the
        # pullback plans, which are looked up once per bundle pulled back
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("EisRat is immutable")

    @staticmethod
    def _coerce(x: object) -> "EisRat | None":
        if isinstance(x, EisRat):
            return x
        if isinstance(x, (int, Fraction)):
            return EisRat(x)
        return None

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.a, self.b))
            object.__setattr__(self, "_hash", h)
        return h

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
        # 1/x = conj(x) / norm(x)
        num = self * o.conjugate()
        return EisRat(num.a / n, num.b / n)

    def conjugate(self) -> "EisRat":
        # conj(zeta) = 1 - zeta
        return EisRat(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def __repr__(self) -> str:
        return f"EisRat({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            if self.b == 1:
                zterm = "zeta"
            elif self.b == -1:
                zterm = "-zeta"
            else:
                zterm = f"{self.b}*zeta"
            if parts and not zterm.startswith("-"):
                parts.append(f"+ {zterm}")
            elif parts:
                parts.append(f"- {zterm[1:]}")
            else:
                parts.append(zterm)
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Small matrices over Q(zeta), as tuples of row tuples.  Shapes are
# whatever the caller supplies (2x2, 1x2, ...).

EisMat = Tuple[Tuple[EisRat, ...], ...]


def as_eis(x: object) -> EisRat:
    v = EisRat._coerce(x)
    if v is None:
        raise TypeError(f"cannot interpret {x!r} as an element of Q(zeta)")
    return v


def mat(rows: Sequence[Sequence[object]]) -> EisMat:
    return tuple([tuple([x if type(x) is EisRat else as_eis(x) for x in row])
                  for row in rows])


def mat_mul(A: EisMat, B: EisMat) -> EisMat:
    """The product A . B, summed on Z[zeta] pairs over the product of the
    two factors' common denominators."""
    if len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    da, pa = _cleared(A)
    db, pb = _cleared(B)
    return _from_pairs(da * db, _pair_product(pa, pb))


def mat_add(A: EisMat, B: EisMat) -> EisMat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_conj(A: EisMat) -> EisMat:
    return tuple(tuple(x.conjugate() for x in row) for row in A)


def mat_transpose(A: EisMat) -> EisMat:
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_identity(n: int) -> EisMat:
    return tuple(tuple(EisRat(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def det2(A: EisMat) -> EisRat:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def inv2(A: EisMat) -> EisMat:
    d = det2(A)
    if not d:
        raise ZeroDivisionError("singular 2x2 matrix over Q(zeta)")
    return (
        (A[1][1] / d, -A[0][1] / d),
        (-A[1][0] / d, A[0][0] / d),
    )


# Z[zeta] integers as (a, b) pairs for a + b*zeta.  A matrix over Q(zeta)
# becomes one denominator and an array of such pairs, which is how mat_mul,
# the pullbacks, the symmetries and the generator search compute.
ZetaPair = Tuple[int, int]
PairMat = Tuple[Tuple[ZetaPair, ...], ...]


def _zeta_mul(x: ZetaPair, y: ZetaPair) -> ZetaPair:
    # (a+b*z)(c+d*z) = ac + (ad+bc)z + bd*z^2, and z^2 = z - 1.
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c + b * d)


def _zeta_pair(x: EisRat) -> ZetaPair:
    if not x.is_integral():
        raise ValueError(f"{x} is not an integer of Z[zeta]")
    return (x.a.numerator, x.b.numerator)


def _gf3_residues(m: EisMat) -> Tuple[int, ...]:
    """The entries of an integral matrix, row by row, modulo the prime
    1 + zeta.  Its residue field is GF(3) and zeta goes to -1, so
    a + b*zeta goes to (a - b) mod 3; conjugation, (a + b) - b*zeta, fixes
    every residue.  A non-integral entry raises ValueError."""
    return tuple((a - b) % 3 for a, b in (_zeta_pair(x) for row in m
                                          for x in row))


def _cleared(m: EisMat) -> Tuple[int, PairMat]:
    """(den, P) with m[i][j] = (a + b*zeta) / den for (a, b) = P[i][j] and
    den the least common denominator, for a matrix m of any shape."""
    den = lcm(*(q.denominator for row in m for x in row for q in (x.a, x.b)))
    return den, tuple(
        tuple((x.a.numerator * (den // x.a.denominator),
               x.b.numerator * (den // x.b.denominator)) for x in row)
        for row in m)


def _pair_product(P: PairMat, Q: PairMat) -> PairMat:
    """The matrix product P . Q of two arrays of Z[zeta] pairs."""
    columns = tuple(zip(*Q))
    out = []
    for row in P:
        entries = []
        for col in columns:
            a = b = 0
            for (p, q), (r, s) in zip(row, col):
                # _zeta_mul((p, q), (r, s)), inlined
                a += p * r - q * s
                b += p * s + q * r + q * s
            entries.append((a, b))
        out.append(tuple(entries))
    return tuple(out)


def _from_pairs(den: int, P: PairMat) -> EisMat:
    """The matrix with entries (a + b*zeta) / den for (a, b) in P."""
    return tuple(tuple(EisRat(Fraction(a, den), Fraction(b, den))
                       for a, b in row) for row in P)


def _integer_matrix(m: EisMat) -> Tuple[int, PairMat]:
    """_cleared for a 2x2 matrix; any other shape raises ValueError."""
    if len(m) != 2 or any(len(row) != 2 for row in m):
        raise ValueError("shape mismatch")
    return _cleared(m)


ZETA = EisRat(0, 1)
