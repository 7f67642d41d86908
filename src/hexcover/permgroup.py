"""Small permutation groups by brute force.

Closure from generators, orbits, and identification of the group type by the
multiset of element orders.  The reference fingerprints for the two matrix
groups showing up downstream are computed here by enumerating 2x2 matrices
over the 3-element field, never copied in as literals.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter


CLOSURE_BOUND = 10_000


class OrderBoundExceeded(RuntimeError):
    """Raised when a closure grows past the supported size."""


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images.

    Products read left to right: (p * q)(x) = q(p(x)), so cycle lists compose
    the way they are written.
    """

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        imgs = tuple(images)
        if not all(isinstance(i, int) for i in imgs):
            raise TypeError(f"images must be ints, got {imgs!r}")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images are not a bijection of 1..n")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        """The permutation with this tuple of int images, which the caller
        knows to be a bijection of 1..n."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        images = list(range(1, degree + 1))
        for cycle in cycles:
            c = tuple(cycle)
            for a, b in zip(c, c[1:] + c[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        # a product of two bijections is one
        images = other.images
        return Permutation._unchecked(tuple([images[i - 1]
                                             for i in self.images]))

    def cycles(self) -> tuple:
        """Disjoint cycles, fixed points omitted, ordered by smallest entry."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            k = self(start)
            while k != start:
                cycle.append(k)
                seen.add(k)
                k = self(k)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(("Permutation", self.images))

    def __str__(self) -> str:
        """Cycle notation, "()" for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation[{self}]"


class PermGroup:
    """Group generated by a list of permutations of common degree."""

    __slots__ = ("generators", "degree", "_elements")

    def __init__(self, generators, degree: int | None = None) -> None:
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("need a degree for the empty generator list")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators act on different sets")
        self.generators = gens
        self.degree = degree
        self._elements = None

    def elements(self) -> frozenset:
        """Closure of the generators by breadth-first products, at most
        CLOSURE_BOUND elements."""
        if self._elements is not None:
            return self._elements
        found = {Permutation.identity(self.degree)}
        frontier = list(found)
        while frontier:
            fresh = []
            for p in frontier:
                for g in self.generators:
                    q = p * g
                    if q not in found:
                        found.add(q)
                        fresh.append(q)
                        if len(found) > CLOSURE_BOUND:
                            raise OrderBoundExceeded(
                                f"closure exceeds {CLOSURE_BOUND} elements")
            frontier = fresh
        self._elements = frozenset(found)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def orbits(self) -> tuple:
        """Orbits on {1..degree}, each sorted, listed by smallest element."""
        remaining = set(range(1, self.degree + 1))
        order = self.order
        out = []
        while remaining:
            start = min(remaining)
            orbit = {start}
            frontier = [start]
            while frontier:
                k = frontier.pop()
                for g in self.generators:
                    img = g(k)
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            if order % len(orbit):
                raise RuntimeError("orbit size does not divide group order")
            remaining -= orbit
            out.append(tuple(sorted(orbit)))
        return tuple(out)

    def fingerprint(self) -> "GroupFingerprint":
        orders = Counter(p.order() for p in self.elements())
        return GroupFingerprint(orders,
                                _reference_table().get(_freeze(orders)))


class GroupFingerprint:
    """Multiset of element orders, with a name when it matches a reference."""

    __slots__ = ("orders", "name")

    def __init__(self, orders, name) -> None:
        object.__setattr__(self, "orders", dict(orders))
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("GroupFingerprint is immutable")

    def __repr__(self) -> str:
        return f"GroupFingerprint({self.orders}, name={self.name!r})"


# --- reference fingerprints over the 3-element field ------------------------

def _gf3_units(det_one: bool):
    for a, b, c, d in itertools.product(range(3), repeat=4):
        det = (a * d - b * c) % 3
        if det == 0 or (det_one and det != 1):
            continue
        yield (a, b, c, d)


def _gf3_mul(m, n):
    return ((m[0] * n[0] + m[1] * n[2]) % 3,
            (m[0] * n[1] + m[1] * n[3]) % 3,
            (m[2] * n[0] + m[3] * n[2]) % 3,
            (m[2] * n[1] + m[3] * n[3]) % 3)


def _gf3_order(m) -> int:
    identity = (1, 0, 0, 1)
    power = m
    k = 1
    while power != identity:
        power = _gf3_mul(power, m)
        k += 1
    return k


def matrix_fingerprint_gf3(det_one: bool) -> dict:
    """Element-order multiset of the invertible 2x2 matrices over GF(3).

    With det_one the determinant is restricted to 1.  These two groups are
    the references the identification table is built from.
    """
    return dict(Counter(_gf3_order(m) for m in _gf3_units(det_one)))


@functools.cache
def _reference_table() -> dict:
    """Reference names keyed by their frozen element-order multisets."""
    return {
        _freeze(matrix_fingerprint_gf3(det_one=True)): "SL(2,3)",
        _freeze(matrix_fingerprint_gf3(det_one=False)): "GL(2,3)",
    }


def _freeze(orders) -> tuple:
    return tuple(sorted(orders.items()))
