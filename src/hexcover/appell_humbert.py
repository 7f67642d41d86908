"""Line bundles on complex tori as hermitian forms plus semicharacters.

A bundle class is a pair (h, chi): a hermitian form h on C^2 whose
imaginary part is integral on the period lattice, and a semicharacter chi
satisfying chi(x + y) = chi(x) chi(y) exp(pi*i*Im h(x, y)).  The whole
calculus (tensor, pullback along holomorphic and anti-holomorphic maps,
translation, square roots) acts on that data.

Conventions:

* Hermitian matrices carry a global 1/sqrt(3) scale: the stored 2x2
  matrix M gives h(v, w) = t(v).M.conj(w) / sqrt(3).  With this scale
  every matrix that occurs here has entries in Z[zeta].
* Semicharacter values are exponents q in Q/Z (value exp(2*pi*i*q)).
  A semicharacter stores its basis exponents as one denominator and
  integer numerators in [0, den) with no common factor, so the calculus
  runs on integers; they read back as Fractions in [0, 1).
* Genus-1 bundles are carried on rank-2 lattices inside C^2 with a
  degenerate 2x2 form, so a single matrix shape serves everywhere.
* Pfaffians are taken in the ambient orientation fixed by
  lattice.orientation, which makes ample classes positive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .eisenstein import (
    EisMat,
    EisRat,
    _cleared,
    _from_pairs,
    _integer_matrix,
    _pair_product,
    _rational,
    mat,
    mat_add,
    mat_conj,
    mat_transpose,
)
from .lattice import (
    AmbientVector,
    LatticeBasis,
    RankMismatch,
    _ambient_matrix,
    _lattice_coordinates,
    _map_coordinates,
    integer_coordinates,
    orientation,
)


class LatticeMismatch(ValueError):
    """Operands live on different lattices."""


class NotLatticeMap(ValueError):
    """The analytic map does not carry the source lattice into the target."""


class NotInLattice(ValueError):
    """Evaluation point is not a lattice vector."""


class NotIntegral(ValueError):
    """The alternating form is not integer-valued on the lattice."""


# The sixteen order-2 characters of a rank-4 lattice in the fixed published
# ordering, as sign tuples on the ordered basis; index 0 is trivial.  This
# ordering is what makes square-root labels and the induced permutations
# reproducible.
ORDER_TWO_SIGN_PATTERNS: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 1, 1, 1),
    (-1, -1, 1, -1),
    (1, -1, -1, 1),
    (-1, 1, -1, -1),
    (1, 1, -1, 1),
    (-1, 1, 1, 1),
    (-1, 1, -1, 1),
    (1, 1, 1, -1),
    (1, -1, 1, -1),
    (-1, 1, 1, -1),
    (1, 1, -1, -1),
    (-1, -1, -1, 1),
    (1, -1, 1, 1),
    (1, -1, -1, -1),
    (-1, -1, 1, 1),
    (-1, -1, -1, -1),
)


def _ambient_gram(m: EisMat) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Im h on the reference basis as (den, E) with integer rows E:
    Im h(v, w) = v . E . w / den for ambient coordinates
    (z1.a, z1.b, z2.a, z2.b).

    Im of (x/sqrt(3)) is half the zeta coefficient of x, so the entry
    a + b*zeta of M contributes b/2 on (1, 1) and (zeta, zeta), (a + b)/2
    on (zeta, 1) and -a/2 on (1, zeta).
    """
    half, pairs = _cleared(m)
    e = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            a, b = pairs[i][j]
            e[2 * i][2 * j] = e[2 * i + 1][2 * j + 1] = b
            e[2 * i + 1][2 * j] = a + b
            e[2 * i][2 * j + 1] = -a
    return 2 * half, tuple(map(tuple, e))


class HermitianForm:
    """Conjugate-symmetric 2x2 matrix over Q(zeta), scaled by 1/sqrt(3).

    im_value and im_on_lattice evaluate Im h through gram, the form's
    integer ambient Gram matrix.
    """

    __slots__ = ("matrix", "gram")

    def __init__(self, matrix: Sequence[Sequence[object]]) -> None:
        m = mat(matrix)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("hermitian forms here are 2x2")
        if mat_conj(mat_transpose(m)) != m:
            raise ValueError("matrix is not conjugate-symmetric")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "gram", _ambient_gram(m))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HermitianForm is immutable")

    def im_value(self, v: AmbientVector, w: AmbientVector) -> Fraction:
        den, e = self.gram
        d, (x, y) = integer_coordinates((v, w))
        return Fraction(_gram_products(e, (x,), (y,))[0][0], den * d * d)

    def scaled(self, c: Fraction) -> "HermitianForm":
        c = _rational(c)
        return HermitianForm(tuple(tuple(EisRat(x.a * c, x.b * c) for x in row)
                                   for row in self.matrix))

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return HermitianForm(mat_add(self.matrix, other.matrix))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"HermitianForm({[[str(x) for x in row] for row in self.matrix]})"


class AltFormOnLattice:
    """Values Im h(b_i, b_j) of a hermitian form on an ordered basis.

    Entries are ints or Fractions; a float or a string raises TypeError.
    """

    __slots__ = ("lattice", "matrix", "_integral")

    def __init__(self, lattice: LatticeBasis,
                 matrix: Sequence[Sequence[Fraction]]) -> None:
        m = tuple(tuple(x if isinstance(x, int) else _rational(x)
                        for x in row) for row in matrix)
        n = lattice.rank
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("matrix shape must match the lattice rank")
        if any(m[i][i] for i in range(n)) or any(
                m[i][j] != -m[j][i] for i in range(n) for j in range(i + 1, n)):
            raise ValueError("alternating matrix must be skew")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_integral",
                           all(x.denominator == 1 for row in m for x in row))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AltFormOnLattice is immutable")

    def is_integral(self) -> bool:
        return self._integral

    def upper_triangle(self) -> Tuple[Fraction, ...]:
        n = self.lattice.rank
        return tuple(self.matrix[i][j]
                     for i in range(n) for j in range(i + 1, n))

    def scaled(self, c: Fraction) -> "AltFormOnLattice":
        c = _rational(c)
        return AltFormOnLattice(self.lattice,
                                tuple(tuple(x * c for x in row)
                                      for row in self.matrix))

    def __add__(self, other: "AltFormOnLattice") -> "AltFormOnLattice":
        if not isinstance(other, AltFormOnLattice):
            return NotImplemented
        if self.lattice != other.lattice:
            raise LatticeMismatch("alternating forms on different lattices")
        return AltFormOnLattice(self.lattice,
                                tuple(tuple(a + b for a, b in zip(ra, rb))
                                      for ra, rb in zip(self.matrix,
                                                        other.matrix)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AltFormOnLattice):
            return NotImplemented
        return self.lattice == other.lattice and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.lattice, self.matrix))


def _gram_products(e, left, right) -> List[List[int]]:
    """The integers x . e . y for x in left (rows) and y in right (columns),
    all integer coordinate rows."""
    out = []
    for x in left:
        xe = [sum(x[p] * e[p][q] for p in range(4)) for q in range(4)]
        out.append([sum(a * b for a, b in zip(xe, y)) for y in right])
    return out


def _ratio(n: int, den: int):
    """n / den as an int when it is one, else as a Fraction."""
    return n // den if n % den == 0 else Fraction(n, den)


def im_on_lattice(h: HermitianForm, lattice: LatticeBasis) -> AltFormOnLattice:
    """Im h(b_i, b_j) as the integer product V . E . V^T over a common
    denominator, V the basis coordinates and E the form's ambient Gram.
    Integral entries are ints, the others Fractions.

    The result depends only on h.gram, so it is stored on the lattice under
    that key and computed once per (Gram matrix, basis)."""
    known = lattice._im_forms
    alt = known.get(h.gram)
    if alt is None:
        den, e = h.gram
        d, rows = lattice._integer
        den *= d * d
        matrix = tuple(tuple(_ratio(n, den) for n in row)
                       for row in _gram_products(e, rows, rows))
        alt = known[h.gram] = AltFormOnLattice(lattice, matrix)
    return alt


def pfaffian(e: AltFormOnLattice) -> Fraction:
    """Oriented pfaffian of a rank-4 alternating form."""
    if e.lattice.rank != 4:
        raise RankMismatch("pfaffian needs a rank-4 lattice")
    m = e.matrix
    raw = m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
    return orientation(e.lattice) * raw


def intersection_number(h1: HermitianForm, h2: HermitianForm,
                        lattice: LatticeBasis) -> int:
    e1 = im_on_lattice(h1, lattice)
    e2 = im_on_lattice(h2, lattice)
    if not e1.is_integral() or not e2.is_integral():
        raise NotIntegral("both forms must be integral on the lattice")
    total = pfaffian(im_on_lattice(h1 + h2, lattice))
    val = total - pfaffian(e1) - pfaffian(e2)
    if val.denominator != 1:
        raise NotIntegral(f"intersection number {val} is not an integer")
    return int(val)


def _reduced(den: int, nums: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """The exponents nums[j] / den in canonical form: numerators reduced
    into [0, den), then numerators and denominator divided by their gcd."""
    nums = tuple(n % den for n in nums)
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = tuple(n // g for n in nums)
    return den, nums


class Semicharacter:
    """Function chi on a lattice with chi(x+y) = chi(x)chi(y)e^{pi i E(x,y)}.

    Stored as exponents in Q/Z on the ordered basis together with the
    alternating form E = Im h restricted to the lattice; the closed
    evaluation formula below extends the basis values to the whole
    lattice, consistently because E is integral.  The exponents are kept as
    one denominator and a tuple of integer numerators in canonical form
    (see _reduced), so equal characters have equal data; exponents returns
    them as Fractions.
    """

    __slots__ = ("lattice", "form", "_den", "_nums")

    def __init__(self, lattice: LatticeBasis, exponents: Sequence[Fraction],
                 form: AltFormOnLattice) -> None:
        exps = tuple(map(_rational, exponents))
        den = lcm(*(q.denominator for q in exps))
        self._fill(lattice, den,
                   [q.numerator * (den // q.denominator) for q in exps], form)

    @classmethod
    def _from_numerators(cls, lattice: LatticeBasis, den: int,
                         nums: Sequence[int],
                         form: AltFormOnLattice) -> "Semicharacter":
        """The character with exponents nums[j] / den, which need not be
        reduced; the checks are those of the constructor."""
        chi = object.__new__(cls)
        chi._fill(lattice, den, nums, form)
        return chi

    def _fill(self, lattice: LatticeBasis, den: int, nums: Sequence[int],
              form: AltFormOnLattice) -> None:
        if form.lattice != lattice:
            raise LatticeMismatch("semicharacter form on a different lattice")
        if not form._integral:
            raise NotIntegral("semicharacter needs an integral alternating form")
        if len(nums) != lattice.rank:
            raise ValueError("one exponent per basis vector")
        den, nums = _reduced(den, nums)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Semicharacter is immutable")

    @property
    def exponents(self) -> Tuple[Fraction, ...]:
        """The exponents on the basis as Fractions in [0, 1)."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def _numerator(self, n: Sequence[int]) -> int:
        """2 * den times the exponent of chi at sum(n[j] * basis[j]), not
        reduced: the sum of n_j q_j and n_j n_k E_jk / 2 over j < k."""
        total = 2 * sum(nj * q for nj, q in zip(n, self._nums))
        rows = self.form.matrix
        rank = len(self._nums)
        cross = 0
        for j in range(rank):
            if not n[j]:
                continue
            for k in range(j + 1, rank):
                if n[k]:
                    # E is integral, so its entries' numerators are their values
                    cross += n[j] * n[k] * rows[j][k].numerator
        return total + self._den * cross

    def eval_coords(self, n: Sequence[int]) -> Fraction:
        """Exponent of chi at sum(n[j] * basis[j]), in [0, 1)."""
        den = 2 * self._den
        return Fraction(self._numerator(n) % den, den)

    def eval(self, v: AmbientVector) -> Fraction:
        coords = _lattice_coordinates(self.lattice, v)
        if coords is None:
            raise NotInLattice("vector is not in the lattice")
        return self.eval_coords(coords)

    def __mul__(self, other: "Semicharacter") -> "Semicharacter":
        if not isinstance(other, Semicharacter):
            return NotImplemented
        if self.lattice != other.lattice:
            raise LatticeMismatch("semicharacters on different lattices")
        d1, d2 = self._den, other._den
        return Semicharacter._from_numerators(
            self.lattice, d1 * d2,
            [a * d2 + b * d1 for a, b in zip(self._nums, other._nums)],
            self.form + other.form)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Semicharacter):
            return NotImplemented
        return (self._den == other._den and self._nums == other._nums
                and self.lattice == other.lattice
                and self.form == other.form)

    def __hash__(self) -> int:
        return hash((self.lattice, self._den, self._nums, self.form))

    def __repr__(self) -> str:
        return f"Semicharacter({[str(q) for q in self.exponents]})"


class LineBundleClass:
    """Pair (hermitian form, semicharacter) on a fixed lattice."""

    __slots__ = ("form", "character")

    def __init__(self, form: HermitianForm, character: Semicharacter) -> None:
        if im_on_lattice(form, character.lattice) != character.form:
            raise LatticeMismatch(
                "semicharacter form is not Im of the hermitian form")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "character", character)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LineBundleClass is immutable")

    @classmethod
    def build(cls, form: HermitianForm, lattice: LatticeBasis,
              exponents: Sequence[Fraction]) -> "LineBundleClass":
        alt = im_on_lattice(form, lattice)
        return cls(form, Semicharacter(lattice, exponents, alt))

    @classmethod
    def _from_numerators(cls, form: HermitianForm, lattice: LatticeBasis,
                         den: int, nums: Sequence[int]) -> "LineBundleClass":
        """build for the exponents nums[j] / den."""
        alt = im_on_lattice(form, lattice)
        return cls(form, Semicharacter._from_numerators(lattice, den, nums,
                                                        alt))

    @property
    def lattice(self) -> LatticeBasis:
        return self.character.lattice

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineBundleClass):
            return NotImplemented
        return self.form == other.form and self.character == other.character

    def __hash__(self) -> int:
        return hash((self.form, self.character))

    def __repr__(self) -> str:
        return f"LineBundleClass({self.form!r}, {self.character!r})"


def tensor(l1: LineBundleClass, l2: LineBundleClass) -> LineBundleClass:
    if l1.lattice != l2.lattice:
        raise LatticeMismatch("tensor product needs a common lattice")
    return LineBundleClass(l1.form + l2.form, l1.character * l2.character)


def _pulled_form(m: EisMat, f: EisMat, conjugate: bool) -> EisMat:
    """f^T . m . conj(f), conjugated when conjugate, as two Z[zeta] pair
    products over one denominator; only the four entries become EisRat."""
    dm, mp = _integer_matrix(m)
    df, fp = _integer_matrix(f)
    fbar = tuple(tuple((a + b, -b) for a, b in row) for row in fp)
    out = _pair_product(_pair_product(tuple(zip(*fp)), mp), fbar)
    if conjugate:
        out = tuple(tuple((a + b, -b) for a, b in row) for row in out)
    return _from_pairs(dm * df * df, out)


def _pull_back(bundle: LineBundleClass, f: EisMat, target: LatticeBasis,
               antiholomorphic: bool) -> LineBundleClass:
    """Pullback along v -> f . v, or v -> f . conj(v) when antiholomorphic;
    the anti-holomorphic case conjugates the form and negates the
    semicharacter exponents."""
    f = mat(f)
    # The pulled form and the images of the target basis do not depend on
    # the semicharacter, so they are computed once per (f, flag, form) and
    # kept on the target; the images stay the same objects, which makes
    # coords_in on them a lookup.
    key = (f, antiholomorphic, bundle.form.gram)
    plan = target._pullbacks.get(key)
    if plan is None:
        m2 = _pulled_form(bundle.form.matrix, f, antiholomorphic)
        # a symmetry of the divisor preserves h, so the form is usually reused
        form = bundle.form if m2 == bundle.form.matrix else HermitianForm(m2)
        images = tuple(_map_coordinates(_ambient_matrix(f, antiholomorphic),
                                        target._integer))
        plan = target._pullbacks[key] = (form, images)
    form, images = plan
    chi = bundle.character
    nums = []
    for b, image in zip(target.vectors, images):
        coords = _lattice_coordinates(chi.lattice, image)
        if coords is None:
            raise NotLatticeMap(f"image of {b!r} is not in the source lattice")
        nums.append(chi._numerator(coords))
    if antiholomorphic:
        nums = [-n for n in nums]
    return LineBundleClass._from_numerators(form, target, 2 * chi._den, nums)


def pullback_hom(bundle: LineBundleClass, f: EisMat,
                 target: LatticeBasis) -> LineBundleClass:
    """Pullback along the holomorphic map with analytic matrix f, viewed
    as a map from the torus on target into the bundle's torus."""
    return _pull_back(bundle, f, target, antiholomorphic=False)


def pullback_antihom(bundle: LineBundleClass, s: EisMat,
                     target: LatticeBasis) -> LineBundleClass:
    """Pullback along the anti-holomorphic map v -> s . conj(v)."""
    return _pull_back(bundle, s, target, antiholomorphic=True)


def translate(bundle: LineBundleClass, v: AmbientVector) -> LineBundleClass:
    """Pullback along translation by v: the form is unchanged and the
    semicharacter picks up the character exp(2*pi*i*Im h(v, .)).

    The shifts Im h(v, b_j) for all basis vectors are the one integer
    product x . E . V^T with the form's ambient Gram matrix E, over one
    denominator; they do not depend on the semicharacter, so they are kept
    on the lattice per (Gram matrix, v).  When all of them are 0 the
    semicharacter is kept as it is."""
    lattice = bundle.lattice
    gram = bundle.form.gram
    key = (gram, v)
    shifted = lattice._shifts.get(key)
    if shifted is None:
        den, e = gram
        d, (x,) = integer_coordinates((v,))
        db, rows = lattice._integer
        shifted = lattice._shifts[key] = (
            den * d * db, tuple(_gram_products(e, (x,), rows)[0]))
    character = bundle.character
    den, shifts = shifted
    if any(shifts):
        dc = character._den
        character = Semicharacter._from_numerators(
            lattice, dc * den,
            [q * den + n * dc for q, n in zip(character._nums, shifts)],
            character.form)
    return LineBundleClass(bundle.form, character)


def square_roots(bundle: LineBundleClass) -> List[LineBundleClass]:
    """All Appell-Humbert square roots (h/2, psi) with psi**2 the bundle's
    semicharacter; empty when Im(h)/2 is not integral on the lattice.

    The order is deterministic: the first root has basis exponents in
    [0, 1/2); the rest multiply it by the nontrivial order-2 characters,
    for rank 4 in the fixed published ordering.
    """
    half_alt = bundle.character.form.scaled(Fraction(1, 2))
    if not half_alt.is_integral():
        return []
    half_form = bundle.form.scaled(Fraction(1, 2))
    # over 2 * den, the first root's numerators are those of the bundle and
    # a sign -1 adds den, that is 1/2
    chi = bundle.character
    den = chi._den
    rank = bundle.lattice.rank
    if rank == 4:
        patterns: Sequence[Tuple[int, ...]] = ORDER_TWO_SIGN_PATTERNS
    else:
        patterns = tuple(itertools.product((1, -1), repeat=rank))
    roots = []
    for pattern in patterns:
        nums = [q + (den if s < 0 else 0) for q, s in zip(chi._nums, pattern)]
        roots.append(LineBundleClass._from_numerators(
            half_form, bundle.lattice, 2 * den, nums))
    return roots
