import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import artinian_ideals

from boreltangent import region3d
from boreltangent.monomials import DimensionMismatchError, StandardSet, parse_ideal, standard_set
from boreltangent.region3d import (
    RegionSlice,
    UnsupportedDimensionError,
    _components,
    default_size_filter,
    iter_discrepancies,
    region_cells,
    region_component_count,
    region_slice,
    region_slice_to_json,
)
from boreltangent.tangent import alpha_support_box, graded_dimension

MAXIMAL = parse_ideal("x,y,z")
SQUARE = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")
SESSION = parse_ideal("x^2,y^3,z^3,x*y,x*z,y*z^2,y^2*z")


def test_single_cell_region():
    assert region_cells(MAXIMAL, (-1, 0, 0)) == {(0, 0, 0)}
    assert region_component_count(MAXIMAL, (-1, 0, 0)) == 1


def test_zero_shift_region_is_empty():
    assert region_cells(MAXIMAL, (0, 0, 0)) == frozenset()
    assert region_component_count(MAXIMAL, (0, 0, 0)) == 0


def test_session_pinned_region():
    cells = region_cells(SESSION, (0, 2, -3))
    assert sorted(cells) == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0),
                             (0, 1, 1), (0, 2, 0), (1, 0, 0)]
    slc = region_slice(SESSION, (0, 2, -3))
    assert slc.counted == 1
    assert len(slc.components) == 1
    # at this degree the grid reading agrees with the graded dimension
    assert slc.counted == graded_dimension(SESSION, (0, 2, -3)) == 1


def test_known_counterexample_to_naive_equivalence():
    alpha = (-1, -1, 0)
    assert region_component_count(MAXIMAL, alpha) == 1
    assert graded_dimension(MAXIMAL, alpha) == 0


def test_far_away_shift_covers_whole_staircase():
    # any far shift satisfies one of the two cell conditions at every
    # standard cell, so the region is the full staircase in one component
    std = standard_set(SQUARE)
    for alpha in [(50, 50, 50), (-50, -50, -50), (50, -50, 0)]:
        assert region_cells(SQUARE, alpha) == std.cells
        assert region_component_count(SQUARE, alpha) == 1


def test_region_and_graded_dimension_read_a_degree_alike():
    with pytest.raises(DimensionMismatchError) as region_error:
        region_cells(MAXIMAL, (0, 0))
    with pytest.raises(DimensionMismatchError) as graded_error:
        graded_dimension(SQUARE, (0, 1))
    assert str(region_error.value) == str(graded_error.value) == \
        "alpha has length 2, expected 3"


def test_dimension_guards():
    with pytest.raises(UnsupportedDimensionError):
        region_cells(parse_ideal("x,y^2"), (0, 0))
    with pytest.raises(DimensionMismatchError):
        region_cells(MAXIMAL, (0, 0))
    # a standard set with fewer or more variables than the ideal
    for std in (StandardSet(2, frozenset([(0, 0)])), StandardSet(4, frozenset([(0, 0, 0, 0)]))):
        with pytest.raises(DimensionMismatchError):
            region_cells(MAXIMAL, (-1, 0, 0), standard=std)
        with pytest.raises(DimensionMismatchError):
            region_component_count(MAXIMAL, (-1, 0, 0), standard=std)


def test_region_count_reads_its_degree_once(monkeypatch):
    calls = []

    def spy(ideal, alpha):
        calls.append(alpha)
        return degree(ideal, alpha)

    degree = region3d._degree
    monkeypatch.setattr(region3d, "_degree", spy)
    for alpha in [(0, 0, 0), (-1, 0, 1), (2, -1, 0)]:
        calls.clear()
        region_component_count(SQUARE, alpha)
        assert calls == [alpha]


@pytest.mark.parametrize("alpha", [(0.9, 0.2, -0.7), ("0", "0", "0"), (-1, 0.0, 0)])
def test_region_refuses_a_degree_that_is_not_integer(alpha):
    # int() would round the first two to (0, 0, 0) and answer for it
    for region in (region_cells, region_slice, region_component_count):
        with pytest.raises(TypeError):
            region(SESSION, alpha)
    assert region_slice(SESSION, [True, 0, 0]).alpha == (1, 0, 0)


def test_default_size_filter_value():
    # generator maxima 2, 3, 3 -> (2+3+3+3)^2
    assert default_size_filter(SESSION) == 121
    # a filter of zero suppresses every nonempty component
    assert region_component_count(MAXIMAL, (-1, 0, 0), size_filter=0) == 0


def _six_adjacent(p, q):
    return sum(abs(a - b) for a, b in zip(p, q)) == 1


def _is_six_connected(comp):
    parent = {c: c for c in comp}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for p, q in combinations(comp, 2):
        if _six_adjacent(p, q):
            parent[find(p)] = find(q)
    return len({find(c) for c in comp}) == 1


def _check_labelling(cells):
    comps = _components(cells)
    assert all(comps)
    assert sum(len(comp) for comp in comps) == len(cells)
    assert frozenset().union(*comps) == frozenset(cells)
    for comp in comps:
        assert _is_six_connected(comp)
    for first, second in combinations(comps, 2):
        assert not any(_six_adjacent(p, q) for p in first for q in second)
    least = [min(comp) for comp in comps]
    assert least == sorted(least)
    return comps


@settings(max_examples=200, deadline=None)
@given(artinian_ideals(3, min_nvars=3), st.data())
def test_region_cells_match_the_membership_definition(ideal, data):
    std = standard_set(ideal)
    alpha = tuple(data.draw(st.integers(lo - 1, hi + 1)) for lo, hi in alpha_support_box(ideal))
    shifted = {p: tuple(a - b for a, b in zip(p, alpha)) for p in std.cells}
    expect = {p for p, q in shifted.items() if min(q) < 0 or ideal.contains(q)}
    assert region_cells(ideal, alpha) == expect
    assert region_cells(ideal, alpha, standard=std) == expect


def test_components_by_definition():
    assert _components(frozenset()) == ()
    # diagonal neighbours are not 6-adjacent
    assert len(_check_labelling({(0, 0, 0), (1, 1, 0), (2, 2, 2)})) == 3
    assert len(_check_labelling({(0, 0, 0), (0, 0, 1), (0, 1, 1), (5, 5, 5)})) == 2
    # arbitrary cell sets (not staircases, negative coordinates allowed) in a
    # small box; sparse densities give several components
    rng = random.Random(20250621)
    box = list(product(range(-1, 4), repeat=3))
    multi = 0
    for _ in range(200):
        cells = {c for c in box if rng.random() < rng.choice((0.1, 0.25, 0.5, 0.8))}
        multi += len(_check_labelling(cells)) > 1
    assert multi > 50


def test_import_needs_no_numpy_or_scipy():
    code = ("import boreltangent, sys; "
            "boreltangent.region_component_count(boreltangent.parse_ideal('x,y,z'), (-1, 0, 0)); "
            "assert not {'numpy', 'scipy'} & set(sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_square_box_totals_reconcile():
    # summing the grid counts over the support box need not give T(I) = 36;
    # the graded dimensions do, and every difference shows up as a recorded
    # per-degree disagreement
    box = alpha_support_box(SQUARE)
    std = standard_set(SQUARE)
    graded_total = 0
    disagreements = 0
    for alpha in product(*(range(lo, hi + 1) for lo, hi in box)):
        dim = graded_dimension(SQUARE, alpha, standard=std)
        graded_total += dim
        if region_component_count(SQUARE, alpha, standard=std) != dim:
            disagreements += 1
    assert graded_total == 36
    assert disagreements > 0


def test_discrepancy_iterator_small():
    records = list(iter_discrepancies(max_colength=4))
    again = list(iter_discrepancies(max_colength=4))
    assert records == again
    assert records, "the grid reading is known to overcount somewhere"
    for record in records:
        assert record["region_count"] != record["graded_dim"]
        ideal = parse_ideal(record["ideal"])
        assert region_component_count(ideal, tuple(record["alpha"])) == record["region_count"]
        assert graded_dimension(ideal, tuple(record["alpha"])) == record["graded_dim"]


def test_region_slice_json():
    slc = region_slice(MAXIMAL, (-1, 0, 0))
    obj = region_slice_to_json(slc)
    assert obj == {"alpha": [-1, 0, 0], "cells": [[0, 0, 0]],
                   "components": [[[0, 0, 0]]], "counted": 1}
    assert isinstance(slc, RegionSlice)
