"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from hexcover.appell_humbert import HermitianForm
from hexcover.eisenstein import EisRat
from hexcover.lattice import AmbientVector, LatticeBasis

# Rationals with small numerators and denominators 1, 2 or 3.
rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
half_integers = st.builds(Fraction, st.integers(-12, 12), st.just(2))

ambient_vectors = st.builds(AmbientVector, st.tuples(*[rationals] * 4))

# Elements of Q(zeta) and 2x2 matrices over it, integral or not.
eis_rationals = st.builds(EisRat, rationals, rationals)
eis_matrices = st.tuples(st.tuples(eis_rationals, eis_rationals),
                         st.tuples(eis_rationals, eis_rationals))


@st.composite
def hermitian_forms(draw):
    """Conjugate-symmetric forms with integer and half-integer a, b entries,
    so that halved forms (the square-root forms) are covered."""
    off = EisRat(draw(half_integers), draw(half_integers))
    return HermitianForm([[draw(half_integers), off],
                          [off.conjugate(), draw(half_integers)]])


@st.composite
def lattice_bases(draw):
    """Bases whose coordinates may be fractional."""
    rows = draw(st.lists(st.tuples(*[rationals] * 4), min_size=4, max_size=4))
    try:
        return LatticeBasis.from_rows(rows)
    except ValueError:
        assume(False)


@st.composite
def unimodular_matrices(draw):
    """4x4 integer matrix of determinant +-1 built from elementary column
    moves (column j += sign * column k) and an optional column negation."""
    u = [[int(r == c) for c in range(4)] for r in range(4)]
    for _ in range(draw(st.integers(1, 4))):
        j, k = draw(st.permutations(range(4)))[:2]
        sign = draw(st.sampled_from((-1, 1)))
        for row in u:
            row[j] += sign * row[k]
    if draw(st.booleans()):
        for row in u:
            row[0] = -row[0]
    return u
