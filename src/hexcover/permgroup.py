"""Small permutation groups by brute force.

Closure from generators, orbits, and a proof that a group is SL(2,3) or
GL(2,3): pairing each generator with a 2x2 matrix over the 3-element field
is checked to be an isomorphism onto the matrix group, by closing the pairs
and comparing orders.
"""
from __future__ import annotations

import math
from operator import attrgetter, itemgetter

from .eisenstein import _Immutable


CLOSURE_BOUND = 10_000


class OrderBoundExceeded(RuntimeError):
    """Raised when a closure grows past the supported size."""


def _closure(generators, degree: int) -> frozenset:
    """Image tuples of the group generated by the given image tuples of
    permutations of 1..degree, at most CLOSURE_BOUND of them.

    Breadth-first from the identity: the itemgetter of a generator g's
    images less one sends the image tuple of p to that of g * p in one C
    call, and left multiplication by the generators reaches the whole
    group.  An itemgetter of one index gives a bare int, not a tuple, so
    degree 1, whose only group is trivial, gets no steps.
    """
    identity = tuple(range(1, degree + 1))
    steps = ([itemgetter(*[i - 1 for i in g]) for g in generators]
             if degree > 1 else [])
    found = frontier = {identity}
    while frontier:
        frontier = {step(p) for p in frontier for step in steps} - found
        found |= frontier
        if len(found) > CLOSURE_BOUND:
            raise OrderBoundExceeded(
                f"closure exceeds {CLOSURE_BOUND} elements")
    return frozenset(found)


class Permutation(_Immutable):
    """A bijection of {1..n}, stored as the tuple of images.

    Products read left to right: (p * q)(x) = q(p(x)), so cycle lists compose
    the way they are written.
    """

    __slots__ = ("images",)
    _key = attrgetter("images")

    def __init__(self, images) -> None:
        imgs = tuple(images)
        # a bool is an int to Python but not an image
        if not all(type(i) is int for i in imgs):
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

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        # a product of two bijections is one: x -> other(self(x))
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

    def __str__(self) -> str:
        """Cycle notation, "()" for the identity."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation[{self}]"


class PermGroup(_Immutable):
    """Group generated by a non-empty list of permutations of common
    degree, which is the group's degree.  The generators are fixed, so the
    closure is computed once and kept."""

    __slots__ = ("generators", "degree", "_elements")
    _key = attrgetter("generators")

    def __init__(self, generators) -> None:
        gens = tuple(generators)
        if not all(isinstance(g, Permutation) for g in gens):
            raise TypeError(f"generators must be Permutations, got {gens!r}")
        if not gens:
            raise ValueError("need at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators act on different sets")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_elements", None)

    def elements(self) -> frozenset:
        """The closure of the generators, as the frozenset of its elements'
        image tuples, computed on the first call (_closure)."""
        if self._elements is None:
            object.__setattr__(self, "_elements", _closure(
                [g.images for g in self.generators], self.degree))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def orbits(self) -> tuple:
        """Orbits on {1..degree}, each sorted, listed by smallest element;
        the orbit of k is its set of images under the elements."""
        elements = self.elements()
        remaining = set(range(1, self.degree + 1))
        out = []
        while remaining:
            start = min(remaining)
            orbit = {images[start - 1] for images in elements}
            if len(elements) % len(orbit):
                raise RuntimeError("orbit size does not divide group order")
            remaining -= orbit
            out.append(tuple(sorted(orbit)))
        return tuple(out)

    def matrix_group_name(self, matrices) -> str | None:
        """"SL(2,3)" or "GL(2,3)" when sending each generator to the GF(3)
        matrix at its position extends to an isomorphism onto that group,
        else None.  A matrix is four ints (a, b, c, d) in range(3), row by
        row, acting on the nonzero row vectors of GF(3)^2 by v -> v.m so
        that products compose as permutation products do.

        The pairs (generator, matrix action) generate a group that projects
        onto both factors; when the three orders agree, both projections
        are bijective and the pair group is the graph of an isomorphism.
        Only the pair group is closed, and only at order 24 or 48: the
        image group is its projection onto the last 8 points.
        The image lies in GL(2,3), of order 48; generated by matrices of
        determinant 1, it lies in SL(2,3), of order 24.
        """
        matrices = [tuple(m) for m in matrices]
        if any(len(m) != 4 or not all(type(x) is int for x in m)
               for m in matrices):
            raise TypeError(f"GF(3) matrices are four ints, got {matrices!r}")
        if not all(0 <= x < 3 for m in matrices for x in m):
            raise ValueError(f"GF(3) entries are in range(3): {matrices!r}")
        if len(matrices) != len(self.generators):
            raise ValueError(f"{len(matrices)} matrices for "
                             f"{len(self.generators)} generators")
        dets = {(a * d - b * c) % 3 for a, b, c, d in matrices}
        if 0 in dets or self.order not in (24, 48):
            return None
        # pairs of bijections: an invertible matrix permutes the vectors
        pairs = _closure(
            [g.images + tuple(
                [_GF3_LABELS[(x * a + y * c) % 3, (x * b + y * d) % 3]
                 + self.degree for x, y in _GF3_VECTORS])
             for g, (a, b, c, d) in zip(self.generators, matrices)],
            self.degree + len(_GF3_VECTORS))
        image_order = len({images[self.degree:] for images in pairs})
        if not self.order == image_order == len(pairs):
            return None
        if image_order == 48:
            return "GL(2,3)"
        return "SL(2,3)" if image_order == 24 and dets <= {1} else None


_GF3_VECTORS = tuple((x, y) for x in range(3) for y in range(3) if x or y)
_GF3_LABELS = {v: k for k, v in enumerate(_GF3_VECTORS, start=1)}
