"""Deterministic enumeration of strongly stable Artinian ideals by colength.

A strongly stable Artinian ideal is identified with its staircase: the
finite set of standard exponents, which is divisor-closed and closed under
moving one unit of exponent from a smaller-indexed variable to a larger one
(the complement of each such move lands back in the ideal).

Staircases are visited by reverse search (Avis and Fukuda, Discrete Appl.
Math. 65, 1996).  A cell c of a staircase is *removable* when deleting it
leaves a staircase: no c + e_t is a cell, and no c + e_s - e_t (s < t,
c_t >= 1) is one.  The parent of a staircase deletes its largest removable
cell in tuple order, which is simply its largest cell m: every m + e_t and
m + e_s - e_t is larger than m, so none is a cell.  For the same reason an
added cell c can make unremovable only cells smaller than c, so S + {c} is
a child of S exactly when c is larger than every cell of S.  The candidates
c are the corners of S (the minimal generators of its ideal) whose Borel
moves toward later variables are cells; both rules live in
:mod:`.monomials`.  Every staircase has one parent, so a depth-first walk
from the one-cell staircase meets each staircase of each size once, with
no frontier and no record of what it has seen.

The walk keeps one mutable cell set and its corners, updated in place as it
steps down and back: adding c drops c from the corners and adds the
c + e_t whose every divisor is a cell.  It holds O(l) state, and each
visited node hands its corners to its consumer, so no consumer has to
rederive them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator

from .monomials import (
    Exponent,
    MonomialIdeal,
    _borel_moves_in,
    _canonical_order,
    _divisors_in,
    _format_gens,
    _gens_from_cells,
    _m1_of_cells,
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


#: a node of the walk as its consumers see it: the cells and their corners
Visit = Callable[[set[Exponent], set[Exponent]], None]


def _walk(nvars: int, cells: set[Exponent], corners: set[Exponent], top: Exponent,
          levels: int, visit: Visit) -> None:
    """Call ``visit(cells, corners)`` at every Borel staircase ``levels``
    cells below the given one (``top`` is its largest cell).

    ``cells`` and ``corners`` are updated in place and restored on return;
    a consumer that keeps them must copy them.
    """
    if levels == 0:
        visit(cells, corners)
        return
    for c in [c for c in corners if c > top and _borel_moves_in(nvars, cells, c)]:
        cells.add(c)
        corners.remove(c)
        new = [w for w in (c[:t] + (c[t] + 1,) + c[t + 1:] for t in range(nvars))
               if _divisors_in(nvars, cells, w)]
        corners.update(new)
        _walk(nvars, cells, corners, c, levels - 1, visit)
        corners.difference_update(new)
        corners.add(c)
        cells.remove(c)


def _descend(nvars: int, cells, corners, l: int, visit: Visit) -> None:
    """Visit every Borel staircase of size ``l`` that contains the given
    one on the walk, its cells and corners given as any collections."""
    _walk(nvars, set(cells), set(corners), max(cells), l - len(cells), visit)


def _walk_level(nvars: int, l: int, visit: Visit) -> None:
    """Visit every Borel staircase of size l, walking from the one cell 0
    whose corners are the unit vectors."""
    if nvars < 1 or l < 1:
        raise ValueError("need nvars >= 1 and l >= 1")
    origin = (0,) * nvars
    units = [origin[:t] + (1,) + origin[t + 1:] for t in range(nvars)]
    _descend(nvars, [origin], units, l, visit)


def _level(nvars: int, l: int) -> list[tuple[frozenset[Exponent], tuple[Exponent, ...]]]:
    """(cells, corners) of every Borel staircase of size l, in walk order."""
    nodes = []
    _walk_level(nvars, l, lambda cells, corners: nodes.append((frozenset(cells), tuple(corners))))
    return nodes


def iter_staircase_levels(nvars: int, max_colength: int) -> Iterator[tuple[int, list[frozenset[Exponent]]]]:
    """Yield (l, staircases-of-size-l) for l = 1..max_colength, a walk each.

    The staircases within a level are in no particular order; callers that
    need the canonical stream should sort (see :func:`sorted_level`).
    """
    if nvars < 1 or max_colength < 1:
        raise ValueError("need nvars >= 1 and max_colength >= 1")
    for l in range(1, max_colength + 1):
        yield l, [cells for cells, _corners in _level(nvars, l)]


def _canonical(nvars: int, nodes) -> list[tuple[str, tuple[Exponent, ...], object]]:
    """Turn (payload, corners) pairs into (text, gens, payload) triples
    sorted by text.

    The canonical stream order is the lexicographic order of the formatted
    ideal strings; this is the one place in the package that orders
    staircases.  ``gens`` are the corners in the order
    :class:`MonomialIdeal` stores.  The payload passes through untouched:
    the cells for :func:`sorted_level`, m1 for the enumeration, None for
    the scan's argmax lists.

    Trusted internal path: no ideal is built here.  The corners of a
    divisor-closed set are an antichain, so a consumer builds its ideal
    from ``gens`` with ``MonomialIdeal._trusted``, which checks nothing.
    """
    decorated = []
    for cells, corners in nodes:
        gens = tuple(_canonical_order(corners))
        decorated.append((_format_gens(nvars, gens), gens, cells))
    decorated.sort(key=itemgetter(0))
    return decorated


def sorted_level(nvars: int, staircases) -> list[tuple[str, tuple[Exponent, ...], frozenset[Exponent]]]:
    """:func:`_canonical` on bare staircases, their corners derived here."""
    return _canonical(nvars, ((cells, _gens_from_cells(nvars, cells)) for cells in staircases))


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
    nodes = []
    _walk_level(nvars, l, lambda cells, corners:
                nodes.append((_m1_of_cells(cells), tuple(corners))))
    emitted = 0
    for _text, gens, m1 in _canonical(nvars, nodes):
        if filt.m1 is not None and m1 != filt.m1:
            continue
        if filt.num_generators is not None and len(gens) != filt.num_generators:
            continue
        if filt.max_results is not None and emitted >= filt.max_results:
            raise EnumerationLimitError(emitted)
        emitted += 1
        yield MonomialIdeal._trusted(nvars, gens)


def count_strongly_stable(nvars: int, l: int) -> int:
    """Number of strongly stable Artinian ideals of colength l, counted on
    the walk without holding any level."""
    count = 0

    def tally(_cells, _corners):
        nonlocal count
        count += 1

    _walk_level(nvars, l, tally)
    return count
