"""Deterministic enumeration of strongly stable Artinian ideals by colength.

A strongly stable Artinian ideal is identified with its staircase: the
finite set of standard exponents, which is divisor-closed and closed under
moving one unit of exponent from a smaller-indexed variable to a larger one
(the complement of each such move lands back in the ideal).  Staircases of
size l are grown breadth-first from staircases of size l-1 by adding each
minimal generator of the parent's ideal whose Borel moves toward later
variables are cells (both rules live in :mod:`.monomials`); duplicates are
removed via the frozenset itself.  Every admissible staircase has a
removable maximal cell, so the growth is complete.

The per-colength frontier is the scaling bottleneck (all staircases of the
current size are held in memory); measured sizes are tabulated in the
README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .monomials import (
    Exponent,
    MonomialIdeal,
    _borel_moves_in,
    _format_gens,
    _gens_from_cells,
    _m1_of_cells,
    canonical_key,
)


class EnumerationLimitError(RuntimeError):
    """Raised when a result cap is exceeded; carries the count so far."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"enumeration stopped after {count} results (max_results cap)")


@dataclass(frozen=True)
class EnumFilter:
    """Optional restrictions on the enumerated stream.

    m1 fixes the pure x1 exponent, num_generators the size of the minimal
    generating set; max_results caps the stream (exceeding it raises
    EnumerationLimitError).  Filters are applied to the full enumeration,
    never used to prune it.
    """

    m1: int | None = None
    num_generators: int | None = None
    max_results: int | None = None

    def __post_init__(self) -> None:
        if self.m1 is not None and self.m1 < 1:
            raise ValueError("m1 filter must be >= 1")
        if self.num_generators is not None and self.num_generators < 1:
            raise ValueError("num_generators filter must be >= 1")
        if self.max_results is not None and self.max_results < 0:
            raise ValueError("max_results must be >= 0")


def _grow(frontier: list[frozenset[Exponent]], nvars: int) -> list[frozenset[Exponent]]:
    seen: set[frozenset[Exponent]] = set()
    out: list[frozenset[Exponent]] = []
    for cells in frontier:
        for c in _gens_from_cells(nvars, cells):
            if _borel_moves_in(nvars, cells, c):
                grown = cells | {c}
                if grown not in seen:
                    seen.add(grown)
                    out.append(grown)
    return out


def iter_staircase_levels(nvars: int, max_colength: int) -> Iterator[tuple[int, list[frozenset[Exponent]]]]:
    """Yield (l, staircases-of-size-l) for l = 1..max_colength.

    The staircases within a level are in no particular order; callers that
    need the canonical stream should sort (see :func:`sorted_level`).
    """
    if nvars < 1 or max_colength < 1:
        raise ValueError("need nvars >= 1 and max_colength >= 1")
    frontier = [frozenset([(0,) * nvars])]
    yield 1, frontier
    for l in range(2, max_colength + 1):
        frontier = _grow(frontier, nvars)
        yield l, frontier


def sorted_level(nvars: int, staircases) -> list[tuple[str, tuple[Exponent, ...], frozenset[Exponent]]]:
    """Decorate staircases with generators and canonical text, sorted by text.

    The canonical stream order is the lexicographic order of the formatted
    ideal strings; this is the one place in the package that orders
    staircases.  ``gens`` are in the order :class:`MonomialIdeal` stores.

    Trusted internal path: no ideal is built here.  The corners of a
    divisor-closed set are an antichain, and each consumer validates the
    ideal it builds from ``gens``.
    """
    decorated = []
    for cells in staircases:
        gens = tuple(sorted(_gens_from_cells(nvars, cells), key=canonical_key))
        decorated.append((_format_gens(nvars, gens), gens, cells))
    decorated.sort(key=lambda item: item[0])
    return decorated


def enumerate_strongly_stable(nvars: int, l: int,
                              filt: EnumFilter | None = None) -> Iterator[MonomialIdeal]:
    """All strongly stable Artinian ideals of colength l in nvars variables.

    Emission order is the canonical order of the formatted ideal strings;
    two runs produce identical streams.  Filters are applied exactly (the
    stream equals the unfiltered stream post-filtered).
    """
    filt = filt or EnumFilter()
    if filt.num_generators is not None and filt.num_generators < nvars:
        # an Artinian ideal owns a pure-power generator per variable
        raise ValueError(
            f"num_generators filter {filt.num_generators} is below nvars={nvars}")
    for level, staircases in iter_staircase_levels(nvars, l):
        if level < l:
            continue
        emitted = 0
        for _text, gens, cells in sorted_level(nvars, staircases):
            if filt.m1 is not None and _m1_of_cells(cells) != filt.m1:
                continue
            if filt.num_generators is not None and len(gens) != filt.num_generators:
                continue
            if filt.max_results is not None and emitted >= filt.max_results:
                raise EnumerationLimitError(emitted)
            emitted += 1
            yield MonomialIdeal(nvars, gens)


def count_strongly_stable(nvars: int, l: int) -> int:
    """Number of strongly stable Artinian ideals of colength l."""
    for level, staircases in iter_staircase_levels(nvars, l):
        if level == l:
            return len(staircases)
    raise AssertionError("unreachable")
