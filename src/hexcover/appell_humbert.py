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
* Every lattice has rank 4.  A genus-1 bundle is carried on a product
  lattice as the pullback along the projection to its factor, with a
  degenerate form, so a single matrix shape serves everywhere.
* Pfaffians are taken in the ambient orientation fixed by
  lattice.orientation, which makes ample classes positive.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, attrgetter
from typing import List, Sequence, Tuple

from .eisenstein import (
    EisMat,
    Rat,
    _Immutable,
    _cleared,
    _from_pairs,
    _pair_product,
    _ratio,
    _rational,
    mat,
)
from .lattice import (
    AmbientVector,
    LatticeBasis,
    _ambient_matrix,
    _int_product,
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

    h(v, w) = sum of v_i y_i / sqrt(3) for y = m . conj(w), and
    Im(x y / sqrt(3)) = (x.a y.b + x.b (y.a + y.b)) / 2: for rows (a, b)
    of a 2-block of _ambient_matrix(m, conjugate_first=True), E has rows
    (b, a + b) there, over twice its denominator.
    """
    den, rows = _ambient_matrix(m, conjugate_first=True)
    e = []
    for a, b in zip(rows[::2], rows[1::2]):
        e += [b, tuple(map(add, a, b))]
    return 2 * den, tuple(e)


class HermitianForm(_Immutable):
    """Conjugate-symmetric 2x2 matrix over Q(zeta), scaled by 1/sqrt(3).

    gram is its integer ambient Gram matrix (_ambient_gram), through
    which im_on_lattice and translate evaluate Im h.  h is hermitian
    exactly when gram is skew: k = h - h* is sesquilinear, with
    Im k(v, w) = Im h(v, w) + Im h(w, v) and Re k(v, w) = Im k(iv, w).
    """

    __slots__ = ("matrix", "gram")
    _key = attrgetter("matrix")

    def __init__(self, matrix: Sequence[Sequence[object]]) -> None:
        m = mat(matrix)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("hermitian forms here are 2x2")
        gram = _ambient_gram(m)
        if gram[1] != tuple(tuple(-x for x in c) for c in zip(*gram[1])):
            raise ValueError("matrix is not conjugate-symmetric")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "gram", gram)

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return HermitianForm(tuple(tuple(x + y for x, y in zip(r, s))
                                   for r, s in zip(self.matrix, other.matrix)))

    def __repr__(self) -> str:
        return f"HermitianForm({self.matrix!r})"


def _all_even(matrix) -> bool:
    """Whether every entry is an even int: the one 2-divisibility test."""
    return all(type(x) is int and not x % 2 for row in matrix for x in row)


class AltFormOnLattice(_Immutable):
    """Values Im h(b_i, b_j) of a hermitian form on an ordered basis, a
    4x4 matrix.

    Entries are in the canonical form of eisenstein._rational, an int when
    integral, else a Fraction; a float or a string raises TypeError.
    """

    __slots__ = ("lattice", "matrix", "_integral")
    _key = attrgetter("lattice", "matrix")

    def __init__(self, lattice: LatticeBasis,
                 matrix: Sequence[Sequence[Rat]]) -> None:
        m = tuple(tuple(map(_rational, row)) for row in matrix)
        if len(m) != 4 or any(len(r) != 4 for r in m):
            raise ValueError("alternating matrix must be 4x4")
        if any(m[i][i] for i in range(4)) or any(
                m[i][j] != -m[j][i]
                for i in range(4) for j in range(i + 1, 4)):
            raise ValueError("alternating matrix must be skew")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_integral",
                           all(type(x) is int for row in m for x in row))

    def is_integral(self) -> bool:
        return self._integral

    def is_even(self) -> bool:
        """Whether the form halves on the lattice (square_roots)."""
        return _all_even(self.matrix)

    def upper_triangle(self) -> Tuple[Rat, ...]:
        return tuple(self.matrix[i][j]
                     for i in range(4) for j in range(i + 1, 4))

    def __add__(self, other: "AltFormOnLattice") -> "AltFormOnLattice":
        if not isinstance(other, AltFormOnLattice):
            return NotImplemented
        if self.lattice != other.lattice:
            raise LatticeMismatch("alternating forms on different lattices")
        return AltFormOnLattice(self.lattice,
                                tuple(tuple(a + b for a, b in zip(ra, rb))
                                      for ra, rb in zip(self.matrix,
                                                        other.matrix)))


def im_on_lattice(h: HermitianForm, lattice: LatticeBasis) -> AltFormOnLattice:
    """Im h(b_i, b_j) as the integer product V . E . V^T over a common
    denominator, V the basis coordinates and E the form's ambient Gram,
    each entry put in canonical form by eisenstein._ratio.

    The result depends only on h.gram, so it is stored on the lattice under
    that key and computed once per (Gram matrix, basis)."""
    known = lattice._im_forms
    alt = known.get(h.gram)
    if alt is None:
        den, e = h.gram
        d, rows = lattice._integer
        den *= d * d
        matrix = tuple(tuple(_ratio(n, den) for n in row) for row in
                       _int_product(_int_product(rows, e), tuple(zip(*rows))))
        alt = known[h.gram] = AltFormOnLattice(lattice, matrix)
    return alt


def pfaffian(e: AltFormOnLattice) -> Rat:
    """Oriented pfaffian of an alternating form."""
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
    nums = [n % den for n in nums]
    g = gcd(den, *nums)
    if g > 1:
        den //= g
        nums = [n // g for n in nums]
    return den, tuple(nums)


class Semicharacter(_Immutable):
    """Function chi on a lattice with chi(x+y) = chi(x)chi(y)e^{pi i E(x,y)}.

    Stored as exponents in Q/Z on the ordered basis together with the
    alternating form E = Im h restricted to the lattice, which carries the
    lattice; the closed evaluation formula below extends the basis values
    to the whole lattice, consistently because E is integral.  The
    exponents are kept as one denominator and a tuple of integer
    numerators in canonical form (see _reduced), so equal characters have
    equal data; exponents returns them as Fractions.
    """

    __slots__ = ("lattice", "form", "_den", "_nums")
    _key = attrgetter("_den", "_nums", "form")

    def __init__(self, exponents: Sequence[Rat],
                 form: AltFormOnLattice) -> None:
        exps = tuple(map(_rational, exponents))
        den = lcm(*(q.denominator for q in exps))
        self._fill(den, [q.numerator * (den // q.denominator) for q in exps],
                   form)

    @classmethod
    def _from_numerators(cls, den: int, nums: Sequence[int],
                         form: AltFormOnLattice) -> "Semicharacter":
        """The character with exponents nums[j] / den, which need not be
        reduced; the checks are those of the constructor."""
        chi = object.__new__(cls)
        chi._fill(den, nums, form)
        return chi

    def _fill(self, den: int, nums: Sequence[int],
              form: AltFormOnLattice) -> None:
        if not form._integral:
            raise NotIntegral("semicharacter needs an integral alternating form")
        lattice = form.lattice
        if len(nums) != 4:
            raise ValueError("one exponent per basis vector")
        den, nums = _reduced(den, nums)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

    @property
    def exponents(self) -> Tuple[Rat, ...]:
        """The exponents on the basis as Fractions in [0, 1)."""
        from fractions import Fraction
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def _numerator(self, n: Sequence[int]) -> int:
        """2 * den times the exponent of chi at sum(n[j] * basis[j]), not
        reduced: the sum of n_j q_j and n_j n_k E_jk / 2 over j < k."""
        # written out on the four coordinates: it runs per pulled vector
        n0, n1, n2, n3 = n
        q0, q1, q2, q3 = self._nums
        # E is integral, so its entries are ints
        (_, e01, e02, e03), (_, _, e12, e13), (_, _, _, e23), _ = \
            self.form.matrix
        cross = (n0 * (n1 * e01 + n2 * e02 + n3 * e03)
                 + n1 * (n2 * e12 + n3 * e13) + n2 * n3 * e23)
        return 2 * (n0 * q0 + n1 * q1 + n2 * q2 + n3 * q3) + self._den * cross

    def eval_coords(self, n: Sequence[int]) -> Rat:
        """Exponent of chi at sum(n[j] * basis[j]), a Fraction in [0, 1)."""
        if len(n) != 4:
            raise ValueError("a lattice vector has four coordinates")
        from fractions import Fraction
        den = 2 * self._den
        return Fraction(self._numerator(n) % den, den)

    def eval(self, v: AmbientVector) -> Rat:
        coords = _lattice_coordinates(self.lattice, v)
        if coords is None:
            raise NotInLattice("vector is not in the lattice")
        return self.eval_coords(coords)

    def __mul__(self, other: "Semicharacter") -> "Semicharacter":
        if not isinstance(other, Semicharacter):
            return NotImplemented
        d1, d2 = self._den, other._den
        return Semicharacter._from_numerators(
            d1 * d2,
            [a * d2 + b * d1 for a, b in zip(self._nums, other._nums)],
            self.form + other.form)

    def __repr__(self) -> str:
        return f"Semicharacter({[str(q) for q in self.exponents]})"


class LineBundleClass(_Immutable):
    """Pair (hermitian form, semicharacter) on a fixed lattice."""

    __slots__ = ("form", "character")
    _key = attrgetter("form", "character")

    def __init__(self, form: HermitianForm, character: Semicharacter) -> None:
        # im_on_lattice returns its cached form, so identity usually decides
        alt = im_on_lattice(form, character.lattice)
        if alt is not character.form and alt != character.form:
            raise LatticeMismatch(
                "semicharacter form is not Im of the hermitian form")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "character", character)

    @classmethod
    def _from_numerators(cls, form: HermitianForm, lattice: LatticeBasis,
                         den: int, nums: Sequence[int]) -> "LineBundleClass":
        """The bundle of form on lattice with exponents nums[j] / den."""
        alt = im_on_lattice(form, lattice)
        return cls(form, Semicharacter._from_numerators(den, nums, alt))

    @property
    def lattice(self) -> LatticeBasis:
        return self.character.lattice

    def __repr__(self) -> str:
        return f"LineBundleClass({self.form!r}, {self.character!r})"


def tensor(l1: LineBundleClass, l2: LineBundleClass) -> LineBundleClass:
    """The product bundle; on different lattices the sum of the
    semicharacter forms raises LatticeMismatch."""
    return LineBundleClass(l1.form + l2.form, l1.character * l2.character)


def _pulled_form(m: EisMat, f: EisMat, conjugate: bool) -> EisMat:
    """f^T . m . conj(f), conjugated when conjugate, as two Z[zeta] pair
    products over one denominator; only the four entries become EisRat."""
    dm, mp = _cleared(m)
    df, fp = _cleared(f)
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
    # kept on the target.  The images stay vectors, so each root's lookup
    # is a coords_in call that hits its memo after the first root; the hit
    # hashes and compares the image, since the memo's key may be an equal
    # vector stored earlier, by rational_rep for instance.
    key = (f, antiholomorphic, bundle.form.gram)
    plan = target._pullbacks.get(key)
    if plan is None:
        # f comes from the caller, and the kernels below assume it is 2x2
        if len(f) != 2 or any(len(row) != 2 for row in f):
            raise ValueError("shape mismatch")
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
        if not isinstance(v, AmbientVector):
            raise TypeError(f"expected an AmbientVector, got {v!r}")
        den, e = gram
        d, x = integer_coordinates((v,))
        db, rows = lattice._integer
        (shifts,) = _int_product(_int_product(x, e), tuple(zip(*rows)))
        shifted = lattice._shifts[key] = (den * d * db, shifts)
    character = bundle.character
    den, shifts = shifted
    if any(shifts):
        dc = character._den
        character = Semicharacter._from_numerators(
            dc * den,
            [q * den + n * dc for q, n in zip(character._nums, shifts)],
            character.form)
    return LineBundleClass(bundle.form, character)


def square_roots(bundle: LineBundleClass) -> List[LineBundleClass]:
    """All Appell-Humbert square roots (h/2, psi) with psi**2 the bundle's
    semicharacter; empty when Im(h)/2 is not integral on the lattice.

    The order is deterministic: the first root has basis exponents in
    [0, 1/2); the rest multiply it by the nontrivial order-2 characters in
    the fixed published ordering.
    """
    if not bundle.character.form.is_even():
        return []
    form_den, pairs = _cleared(bundle.form.matrix)
    half_form = HermitianForm(_from_pairs(2 * form_den, pairs))
    # over 2 * den, the first root's numerators are those of the bundle and
    # a sign -1 adds den, that is 1/2
    chi = bundle.character
    den = chi._den
    roots = []
    for pattern in ORDER_TWO_SIGN_PATTERNS:
        nums = [q + (den if s < 0 else 0) for q, s in zip(chi._nums, pattern)]
        roots.append(LineBundleClass._from_numerators(
            half_form, bundle.lattice, 2 * den, nums))
    return roots
