"""Hypothesis strategies shared by the property tests."""

from itertools import product

from hypothesis import strategies as st
from oracles import minimal_exponents_outside, random_borel_staircase

from boreltangent.monomials import MonomialIdeal, StandardSet

# by number of variables 1..5: the largest Borel staircase drawn, and the
# largest pure power or staircase side drawn otherwise
BOREL_SIZE = (8, 14, 14, 10, 10)
TOP = (8, 5, 4, 3, 2)


def _borel_cells(draw, nvars):
    size = draw(st.integers(1, BOREL_SIZE[nvars - 1]))
    return random_borel_staircase(draw(st.randoms(use_true_random=False)), nvars, size)


@st.composite
def borel_staircases(draw, max_nvars=5):
    """A random Borel staircase in 1..max_nvars variables (at most 5),
    grown by the test oracle."""
    nvars = draw(st.integers(1, max_nvars))
    return StandardSet(nvars, _borel_cells(draw, nvars))


@st.composite
def artinian_ideals(draw, max_nvars=4, min_nvars=1):
    """A random Artinian ideal in min_nvars..max_nvars variables (at most
    5): half of them Borel (grown by the test oracle), half an arbitrary
    antichain with pure powers."""
    nvars = draw(st.integers(min_nvars, max_nvars))
    if draw(st.booleans()):
        cells = _borel_cells(draw, nvars)
        return MonomialIdeal(nvars, tuple(minimal_exponents_outside(cells, nvars)))
    powers = draw(st.lists(st.integers(1, TOP[nvars - 1]), min_size=nvars, max_size=nvars))
    pure = [tuple(p if s == t else 0 for s in range(nvars)) for t, p in enumerate(powers)]
    extra = draw(st.lists(st.tuples(*(st.integers(0, p - 1) for p in powers)), max_size=6))
    return MonomialIdeal.from_generators(nvars, pure + extra)


@st.composite
def staircases(draw, max_nvars=5):
    """A random staircase in 1..max_nvars variables (at most 5): half of
    them Borel, half the divisors of up to four random exponents (possibly
    none, the unit ideal's empty staircase)."""
    nvars = draw(st.integers(1, max_nvars))
    if draw(st.booleans()):
        return StandardSet(nvars, _borel_cells(draw, nvars))
    side = st.integers(0, TOP[nvars - 1])
    tops = draw(st.lists(st.tuples(*[side] * nvars), max_size=4))
    return StandardSet(nvars, frozenset(
        v for u in tops for v in product(*(range(x + 1) for x in u))))
