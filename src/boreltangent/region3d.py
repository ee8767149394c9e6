"""Grid reading of graded tangent dimensions in three variables.

The procedure, for a degree alpha: shift the ideal region by alpha over
the staircase and keep the standard cells p for which p - alpha either
leaves the nonnegative octant or lands in the ideal; then count
6-connected components of the surviving region, skipping any component
larger than (x_max + y_max + z_max + 3)^2 where the maxima run over the
generator exponents.

This module is deliberately experimental, quirky size filter included,
and is validated empirically
against :func:`boreltangent.tangent.graded_dimension`, which is
authoritative.  The two do not agree everywhere; a known counterexample is
I = (x, y, z) at alpha = (-1, -1, 0), whose region has one component while
the graded dimension is 0 (no generator is active).  Disagreements are
collected into a machine-readable report by :func:`iter_discrepancies`;
nothing in the production pipeline consumes region counts.

Components are found by one breadth-first search on integer codes
(:func:`_code_components`), under one packing (:func:`_weights`).  A cell
p is packed as p_0 W_0 + p_1 W_1 + p_2 with W_1 = r_2 and W_0 = r_1 r_2,
in the radix r_t = m_t + 1, where m_t is the ideal's largest exponent of
x_t.  A standard cell has p_t < m_t, so r_t exceeds every cell's digit at
t by at least 2.  A unit step along x_t is then a step of W_t.  A step
that takes digit t past the cells' largest digit lands, without a carry,
on a digit from that one plus 1 to r_t - 1; a step below 0 borrows,
leaving digit t at r_t - 1 or the code negative.  No cell has such a
digit or code, so a step never aliases a cell it does not reach.  The
code order is the lexicographic order of the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .enumeration import enumerate_strongly_stable
from .monomials import (
    Exponent,
    MonomialIdeal,
    StandardSet,
    format_ideal,
    standard_set,
)
from .tangent import _cells_of, _degree, alpha_support_box, graded_dimension


class UnsupportedDimensionError(ValueError):
    """The region method is defined for exactly three variables."""


@dataclass(frozen=True)
class RegionSlice:
    """The candidate region at one degree: its cells, its 6-connected
    components, and the number of components passing the size filter."""

    alpha: Exponent
    cells: frozenset[Exponent]
    components: tuple[frozenset[Exponent], ...]
    counted: int


def _check_three_vars(ideal: MonomialIdeal, alpha) -> Exponent:
    if ideal.nvars != 3:
        raise UnsupportedDimensionError(
            f"region method needs exactly 3 variables, got {ideal.nvars}")
    return _degree(ideal, alpha)


def _maxima(ideal: MonomialIdeal) -> list[int]:
    """The largest generator exponent of each variable."""
    return list(map(max, zip(*ideal.gens)))


def _threshold(maxima: list[int], size_filter: int | None) -> int:
    """``size_filter``, or the default one from the generator maxima."""
    return (sum(maxima) + 3) ** 2 if size_filter is None else size_filter


def default_size_filter(ideal: MonomialIdeal) -> int:
    """Default component-size threshold, from the generator maxima."""
    return _threshold(_maxima(ideal), None)


def region_cells(ideal: MonomialIdeal, alpha,
                 standard: StandardSet | None = None) -> frozenset[Exponent]:
    """Standard cells p with p - alpha outside the nonnegative octant or
    inside the ideal region.

    Every cell is nonnegative, and a nonnegative exponent lies in the ideal
    iff it is not a cell, so these are the cells p with p - alpha not a
    cell.  ``standard`` follows the contract of :mod:`.tangent`.
    """
    return frozenset(_region(ideal, _check_three_vars(ideal, alpha), standard))


def _region(ideal: MonomialIdeal, alpha: Exponent,
            standard: StandardSet | None) -> list[Exponent]:
    """The cells of :func:`region_cells` at a degree already checked."""
    a0, a1, a2 = alpha
    cells = _cells_of(ideal, standard)
    return [p for p in cells if (p[0] - a0, p[1] - a1, p[2] - a2) not in cells]


def _weights(maxima: list[int]) -> tuple[int, int]:
    """The weights W_0 and W_1 of the module docstring's packing."""
    _m0, m1, m2 = maxima
    return (m1 + 1) * (m2 + 1), m2 + 1


def _code_components(codes, w0: int, w1: int) -> list[list[int]]:
    """6-connected components of a set of cells packed with the weights
    w0 = W_0 and w1 = W_1 of the module docstring, each as a list of
    codes."""
    steps = (-w0, w0, -w1, w1, -1, 1)
    unseen = set(codes)
    comps = []
    while unseen:
        comp = [unseen.pop()]
        for c in comp:  # comp grows while walked: a breadth-first queue
            for step in steps:
                if c + step in unseen:
                    unseen.remove(c + step)
                    comp.append(c + step)
        comps.append(comp)
    return comps


def region_slice(ideal: MonomialIdeal, alpha, size_filter: int | None = None,
                 standard: StandardSet | None = None) -> RegionSlice:
    """Cells, components, and the filtered component count at one degree.
    ``standard`` follows the contract of :mod:`.tangent`.

    The components are ordered by least code, which is their least cell,
    and the codes are read back to cells through a code-to-cell map."""
    alpha = _check_three_vars(ideal, alpha)
    maxima = _maxima(ideal)
    w0, w1 = _weights(maxima)
    cell_of = {a * w0 + b * w1 + c: (a, b, c) for a, b, c in _region(ideal, alpha, standard)}
    comps = _code_components(cell_of, w0, w1)
    comps.sort(key=min)
    components = tuple(frozenset(map(cell_of.__getitem__, comp)) for comp in comps)
    threshold = _threshold(maxima, size_filter)
    counted = sum(1 for comp in components if len(comp) <= threshold)
    return RegionSlice(alpha=alpha, cells=frozenset(cell_of.values()), components=components,
                       counted=counted)


def region_component_count(ideal: MonomialIdeal, alpha, size_filter: int | None = None,
                           standard: StandardSet | None = None) -> int:
    """Number of 6-connected components of the region passing the filter.
    ``standard`` follows the contract of :mod:`.tangent`.

    Only the component sizes are read, so the codes are kept in a plain
    list, with no map back to the cells."""
    alpha = _check_three_vars(ideal, alpha)
    maxima = _maxima(ideal)
    w0, w1 = _weights(maxima)
    codes = [a * w0 + b * w1 + c for a, b, c in _region(ideal, alpha, standard)]
    threshold = _threshold(maxima, size_filter)
    return sum(1 for comp in _code_components(codes, w0, w1) if len(comp) <= threshold)


def region_slice_to_json(slc: RegionSlice) -> dict:
    return {
        "alpha": list(slc.alpha),
        "cells": [list(c) for c in sorted(slc.cells)],
        "components": [[list(c) for c in sorted(comp)] for comp in slc.components],
        "counted": slc.counted,
    }


def iter_discrepancies(max_colength: int = 8):
    """Compare region counts with graded dimensions over every strongly
    stable 3-variable ideal of colength <= max_colength and every alpha in
    the support box; yield one record per disagreement.

    Deterministic order: colength ascending, ideals in canonical order,
    alpha lexicographic.
    """
    for l in range(1, max_colength + 1):
        for ideal in enumerate_strongly_stable(3, l):
            std = standard_set(ideal)
            box = alpha_support_box(ideal)
            for alpha in product(*(range(lo, hi + 1) for lo, hi in box)):
                counted = region_component_count(ideal, alpha, standard=std)
                dim = graded_dimension(ideal, alpha, standard=std)
                if counted != dim:
                    yield {
                        "l": l,
                        "ideal": format_ideal(ideal),
                        "alpha": list(alpha),
                        "region_count": counted,
                        "graded_dim": dim,
                    }


def write_discrepancy_report(path, max_colength: int = 8) -> int:
    """Write the disagreement records as JSONL; returns the record count."""
    import json

    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in iter_discrepancies(max_colength):
            fh.write(json.dumps(record, separators=(", ", ": ")) + "\n")
            count += 1
    return count
