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
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import enumerate_strongly_stable
from .monomials import (
    DimensionMismatchError,
    Exponent,
    MonomialIdeal,
    StandardSet,
    format_ideal,
    standard_set,
)
from .tangent import _cells_of, alpha_support_box, graded_dimension


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
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != 3:
        raise DimensionMismatchError(f"alpha must have length 3, got {len(alpha)}")
    return alpha


def default_size_filter(ideal: MonomialIdeal) -> int:
    """Default component-size threshold, from the generator maxima."""
    maxima = (max(g[t] for g in ideal.gens) for t in range(3))
    return (sum(maxima) + 3) ** 2


def region_cells(ideal: MonomialIdeal, alpha,
                 standard: StandardSet | None = None) -> frozenset[Exponent]:
    """Standard cells p with p - alpha outside the nonnegative octant or
    inside the ideal region."""
    alpha = _check_three_vars(ideal, alpha)
    out = set()
    for p in _cells_of(ideal, standard):
        q = (p[0] - alpha[0], p[1] - alpha[1], p[2] - alpha[2])
        if q[0] < 0 or q[1] < 0 or q[2] < 0 or ideal.contains(q):
            out.add(p)
    return frozenset(out)


def _components(cells) -> tuple[frozenset[Exponent], ...]:
    """6-connected components of a finite cell set (unit step in exactly
    one coordinate), ordered by least cell."""
    unseen = set(cells)
    comps = []
    while unseen:
        comp = [unseen.pop()]
        for a, b, c in comp:  # comp grows while walked: a breadth-first queue
            for q in ((a - 1, b, c), (a + 1, b, c), (a, b - 1, c),
                      (a, b + 1, c), (a, b, c - 1), (a, b, c + 1)):
                if q in unseen:
                    unseen.remove(q)
                    comp.append(q)
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return tuple(comps)


def region_slice(ideal: MonomialIdeal, alpha, size_filter: int | None = None,
                 standard: StandardSet | None = None) -> RegionSlice:
    """Cells, components, and the filtered component count at one degree."""
    alpha = _check_three_vars(ideal, alpha)
    cells = region_cells(ideal, alpha, standard=standard)
    components = _components(cells)
    threshold = default_size_filter(ideal) if size_filter is None else size_filter
    counted = sum(1 for comp in components if len(comp) <= threshold)
    return RegionSlice(alpha=alpha, cells=cells, components=components, counted=counted)


def region_component_count(ideal: MonomialIdeal, alpha, size_filter: int | None = None,
                           standard: StandardSet | None = None) -> int:
    """Number of 6-connected components of the region passing the filter."""
    return region_slice(ideal, alpha, size_filter=size_filter, standard=standard).counted


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
            ranges = [range(lo, hi + 1) for lo, hi in box]
            for a0 in ranges[0]:
                for a1 in ranges[1]:
                    for a2 in ranges[2]:
                        alpha = (a0, a1, a2)
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
