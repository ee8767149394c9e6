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
moves c + e_t - e_s (s < t, c_s >= 1) are all cells.  Every staircase has
one parent, so a depth-first walk from the one-cell staircase meets each
staircase of each size once, with no frontier and no record of what it
has seen.

The walk keeps one staircase's cells and corners, updated in place as it
steps down and back: adding c drops c from the corners and adds the
c + e_t whose every divisor is a cell.  It holds O(l) state, and each
visited staircase hands its cells, its corners and its m1 (one more than
its largest cell's first coordinate) to the visit, so no caller has to
rederive them.

A walk to size l packs every exponent e it forms into the integer
code(e) = sum_t e_t * W_t, W_t = B^(N-1-t), in the single radix B = l + 1,
coordinate 0 most significant.  Every digit it forms lies in [0, l]: a
cell of a staircase of at most l cells has e_t <= l - 1 (its divisors
along x_t are cells), and everything else the walk forms is a cell plus
one unit vector: a corner c is (c - e_s) + e_s, its Borel move is
(c - e_s) + e_t, and a divisor of a new corner c + e_t is (c - e_u) + e_t.
With every digit below B the code is injective, and code order is tuple
order, which the child rule "c above the largest cell" compares.  The
code is linear, so a move or a divisor is one add of a fixed offset to
code(c): W_t - W_s for c + e_t - e_s, W_t - W_u for c + e_t - e_u.  Each
corner carries the bit mask of the variables where it is positive, and two
tables indexed by that mask, built once per radix and shared by every
walk in it, list the offsets that subtract only from those variables.  So
no digit goes below zero and no add carries: every Borel test and every
corner test is a few adds and lookups on the true codes.  The walk keeps
one map from each cell's code to the cell, one add or remove a step, and
hands its visit the map's cells.

A walk is given as a job (cells, corners, l): it visits the staircases of
size l that contain that staircase.  :func:`_origin` makes the job of a
whole level, and :func:`_descend` walks a job; these two are the only
places that make or take a job apart.  Outside this module a job is read
in one way only: :mod:`.scan` reads its colength, ``job[2]``, to label a
job's result and a worker's death.  A budgeted walk, as in the
budgeted subtrees of Avis and Jordan's mts and mplrs (arXiv:1709.07605,
arXiv:1610.07735), enters no more children above size l once it has
visited its budget of staircases, and returns each one instead, as a job
of the same shape.  The scan cuts its work into such jobs as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Callable, Collection, Iterator

from .monomials import (
    Exponent,
    MonomialIdeal,
    _canonical_order,
    _gens_from_cells,
    format_ideal,
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


#: a staircase of the walk as its visit sees it: its cells, as a live view
#: that the walk changes after the visit returns, its corners and its m1,
#: the exponent of its pure x1 power
Visit = Callable[[Collection[Exponent], tuple[Exponent, ...], int], None]

#: a walk to do: the cells and corners of a staircase, and the size l that
#: the walk descends to
Job = tuple[Collection[Exponent], Collection[Exponent], int]


@lru_cache(maxsize=64)
def _tables(nvars: int, base: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                            tuple[tuple, ...]]:
    """The weights of radix ``base`` and the walk's two offset tables, both
    indexed by the support mask of a corner c.

    ``moves[s]`` holds the offsets of the Borel moves of c, W_t - W_u for u
    in the support and t > u.  ``grows[s]`` holds, for each variable t,
    (t, W_t, the support of c + e_t, the offsets W_t - W_u from c to the
    divisors c + e_t - e_u with u != t in that support).  Built once per
    (nvars, base) and shared by every walk of that radix, so all immutable.
    """
    weights = tuple(base ** (nvars - 1 - t) for t in range(nvars))
    moves, grows = [], []
    for support in range(1 << nvars):
        on = [u for u in range(nvars) if support >> u & 1]
        moves.append(tuple(weights[t] - weights[u] for u in on for t in range(u + 1, nvars)))
        grows.append(tuple((t, weights[t], support | 1 << t,
                            tuple(weights[t] - weights[u] for u in on if u != t))
                           for t in range(nvars)))
    return weights, tuple(moves), tuple(grows)


def _support(e: Exponent) -> int:
    """Bit mask of the variables with a positive exponent in e."""
    return sum(1 << t for t, x in enumerate(e) if x)


def _descend(nvars: int, job: Job, visit: Visit, budget: int | None = None) -> list[Job]:
    """Walk a job (cells, corners, l), its cells and corners given as any
    collections: call ``visit`` with the cells, corners and m1 of each
    Borel staircase of size l that contains the job's staircase, and
    return the children handed back as jobs.

    The walk updates two maps in place and restores them on the way back:
    each cell's packed code to the cell, and each corner's code to the
    corner and its support mask.  The visit gets a live view of the cells,
    so a visit that keeps them must copy them.  With a ``budget``, once
    ``budget`` staircases of size l have been visited, a child above size
    l is no longer entered but handed back as the job (cells, corners, l);
    with none, nothing is.
    """
    cells, corners, l = job
    if l < len(cells):
        raise ValueError(f"a staircase of {len(cells)} cells lies below size {l}")
    weights, moves, grows = _tables(nvars, l + 1)
    cells = {sum(map(mul, e, weights)): e for e in cells}
    corners = {sum(map(mul, e, weights)): (e, _support(e)) for e in corners}
    jobs = []
    left = float("inf") if budget is None else budget

    def walk(top: int, last: Exponent, levels: int) -> None:
        # the staircase in hand has its largest cell ``last``, of code
        # ``top``, and lies ``levels`` cells short of size l
        nonlocal left
        if not levels:
            visit(cells.values(), tuple([e for e, _mask in corners.values()]), last[0] + 1)
            left -= 1
            return
        levels -= 1
        children = []
        for c, item in corners.items():
            if c > top:
                # the child rule, then the Borel moves of c
                for d in moves[item[1]]:
                    if c + d not in cells:
                        break
                else:
                    children.append((c, item))
        for c, item in children:
            e, support = item
            cells[c] = e
            del corners[c]
            new = []
            for t, step, grown, offsets in grows[support]:
                # c + e_t is a corner when its other divisors c + e_t - e_u are cells
                for d in offsets:
                    if c + d not in cells:
                        break
                else:
                    new.append(c + step)
                    corners[c + step] = (e[:t] + (e[t] + 1,) + e[t + 1:], grown)
            if levels and left <= 0:
                jobs.append((list(cells.values()), tuple([g for g, _mask in corners.values()]), l))
            else:
                walk(c, e, levels)
            for w in new:
                del corners[w]
            corners[c] = item
            del cells[c]

    try:
        # code order is tuple order, so the largest code is the largest cell's
        top = max(cells)
        walk(top, cells[top], l - len(cells))
    finally:
        # walk reaches itself through its closure; clearing that cell frees
        # the walk's state now, not at some later cyclic collection
        del walk
    return jobs


def _origin(nvars: int, l: int) -> Job:
    """The job of the whole level l: the one-cell staircase, where every
    walk starts, whose one cell 0 has the unit vectors for corners."""
    origin = (0,) * nvars
    return [origin], [origin[:t] + (1,) + origin[t + 1:] for t in range(nvars)], l


def _walk_level(nvars: int, l: int, visit: Visit) -> None:
    """Visit every Borel staircase of size l, walking from the one-cell
    staircase."""
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if l < 1:
        raise ValueError("colength must be >= 1")
    _descend(nvars, _origin(nvars, l), visit)


def iter_staircase_levels(nvars: int, max_colength: int) -> Iterator[tuple[int, list[frozenset[Exponent]]]]:
    """Yield (l, staircases-of-size-l) for l = 1..max_colength, a walk each.

    The staircases within a level are in no particular order; callers that
    need the canonical stream should sort (see :func:`sorted_level`).
    """
    if nvars < 1 or max_colength < 1:
        raise ValueError("need nvars >= 1 and max_colength >= 1")
    for l in range(1, max_colength + 1):
        level: list[frozenset[Exponent]] = []
        _walk_level(nvars, l, lambda cells, _corners, _m1: level.append(frozenset(cells)))
        yield l, level


def _canonical(nvars: int, nodes) -> list[tuple[MonomialIdeal, object]]:
    """Turn (payload, corners) pairs into (ideal, payload) pairs sorted by
    the ideals' text.

    The canonical stream order is the lexicographic order of the formatted
    ideal strings; this is the one place in the package that orders
    staircases.  Each ideal is built once, from its corners in the order
    :class:`MonomialIdeal` stores, with ``MonomialIdeal._trusted``, which
    checks nothing: the corners of a divisor-closed set are an antichain.
    Each ideal is built with its text, which the sort reads and every
    consumer reads again.  The payload passes through untouched: the
    cells for :func:`sorted_level`, m1 for the enumeration, None for the
    scan's argmax lists.
    """
    decorated = [(MonomialIdeal._trusted(nvars, tuple(_canonical_order(corners))), payload)
                 for payload, corners in nodes]
    decorated.sort(key=lambda item: format_ideal(item[0]))
    return decorated


def sorted_level(nvars: int, staircases) -> list[tuple[str, tuple[Exponent, ...], frozenset[Exponent]]]:
    """(text, gens, cells) of bare staircases, their corners derived here,
    in the canonical order of :func:`_canonical`; ``gens`` are the ideal's
    generators in the order :class:`MonomialIdeal` stores."""
    return [(format_ideal(ideal), ideal.gens, cells) for ideal, cells in
            _canonical(nvars, ((cells, _gens_from_cells(nvars, cells)) for cells in staircases))]


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
    _walk_level(nvars, l, lambda _cells, corners, m1: nodes.append((m1, corners)))
    emitted = 0
    for ideal, m1 in _canonical(nvars, nodes):
        if filt.m1 is not None and m1 != filt.m1:
            continue
        if filt.num_generators is not None and len(ideal.gens) != filt.num_generators:
            continue
        if filt.max_results is not None and emitted >= filt.max_results:
            raise EnumerationLimitError(emitted)
        emitted += 1
        yield ideal


def count_strongly_stable(nvars: int, l: int) -> int:
    """Number of strongly stable Artinian ideals of colength l, counted on
    the walk without holding any level."""
    count = 0

    def tally(_cells, _corners, _m1):
        nonlocal count
        count += 1

    _walk_level(nvars, l, tally)
    return count
