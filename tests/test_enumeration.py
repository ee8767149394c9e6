import os
import random

import pytest
from hypothesis import example, given, settings
from oracles import (
    distinct_partition_count,
    is_borel_staircase,
    is_order_ideal,
    iter_order_ideal_levels,
    largest_removable_cell,
    minimal_exponents_outside,
    one_cell_extensions,
    random_borel_staircase,
)
from strategies import borel_staircases, staircases

from boreltangent.enumeration import (
    EnumerationLimitError,
    EnumFilter,
    _canonical,
    _descend,
    _level,
    _walk_level,
    count_strongly_stable,
    enumerate_strongly_stable,
    iter_staircase_levels,
    sorted_level,
)
from boreltangent.monomials import (
    MonomialIdeal,
    StandardSet,
    _borel_moves_in,
    _gens_from_cells,
    colength,
    format_ideal,
    is_strongly_stable,
    parse_ideal,
    standard_set,
)


def test_single_point():
    ideals = list(enumerate_strongly_stable(3, 1))
    assert ideals == [parse_ideal("x,y,z")]


def test_n2_l5_exactly_three():
    ideals = [format_ideal(i) for i in enumerate_strongly_stable(2, 5)]
    assert ideals == ["x,y^5", "x^2,x*y,y^4", "x^2,x*y^2,y^3"]


@pytest.mark.parametrize("l", range(1, 21))
def test_n2_counts_match_distinct_partitions(l):
    assert count_strongly_stable(2, l) == distinct_partition_count(l)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_l2_is_unique(nvars):
    assert count_strongly_stable(nvars, 2) == 1


def test_n3_l8_includes_square_example():
    square = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")
    ideals = list(enumerate_strongly_stable(3, 8))
    assert square in ideals
    assert len(ideals) >= 1


@pytest.mark.parametrize("nvars,lmax", [(1, 10), (2, 10), (3, 10)])
def test_completeness_against_brute_force(nvars, lmax):
    for l, staircases in iter_order_ideal_levels(nvars, lmax):
        expected = {cells for cells in staircases if is_borel_staircase(cells, nvars)}
        got = list(enumerate_strongly_stable(nvars, l))
        assert len(got) == len(set(got))
        assert {standard_set(ideal).cells for ideal in got} == expected


def _children(nvars, cells):
    """The walk's children of a staircase with their carried corners."""
    found = {}

    def keep(child, corners):
        found[frozenset(child)] = set(corners)

    _descend(nvars, cells, minimal_exponents_outside(cells, nvars), len(cells) + 1, keep)
    return found


def test_growth_step_on_random_large_staircases():
    # the exhaustive check above stops at l = 10; here the growth step and
    # its corner routine meet the definitions on staircases of 20 to 40 cells
    rng = random.Random(20261018)
    for nvars in (3, 4):
        for _ in range(20):
            cells = random_borel_staircase(rng, nvars, rng.randint(20, 40))
            corners = _gens_from_cells(nvars, cells)
            assert corners == minimal_exponents_outside(cells, nvars)
            for c in corners:
                assert _borel_moves_in(nvars, cells, c) == is_borel_staircase(cells | {c}, nvars)
            addable = [c for c in corners if _borel_moves_in(nvars, cells, c)]
            assert {cells | {c} for c in addable} == one_cell_extensions(cells, nvars)
            children = _children(nvars, cells)
            assert set(children) == {cells | {c} for c in addable if c > max(cells)}
            for child, carried in children.items():
                assert carried == minimal_exponents_outside(child, nvars)


# --- the reverse-search walk against the definitions ---

@settings(max_examples=200, deadline=None)
@given(borel_staircases())
def test_walk_child_rule_against_largest_removable_cell(staircase):
    # the walk keeps S + {c} exactly when c is the cell its parent rule
    # would remove again, computed here from the definition
    nvars, cells = staircase.nvars, staircase.cells
    expected = {grown for grown in one_cell_extensions(cells, nvars)
                if largest_removable_cell(grown, nvars) == next(iter(grown - cells))}
    assert set(_children(nvars, cells)) == expected


@settings(max_examples=200, deadline=None)
@given(borel_staircases())
def test_staircase_minus_its_largest_removable_cell_is_borel(staircase):
    nvars, cells = staircase.nvars, staircase.cells
    if len(cells) == 1:
        return
    top = largest_removable_cell(cells, nvars)
    assert top == max(cells)
    parent = cells - {top}
    assert is_order_ideal(parent, nvars) and is_borel_staircase(parent, nvars)
    assert cells in _children(nvars, parent)


@settings(max_examples=100, deadline=None)
@given(borel_staircases())
def test_walk_meets_a_staircase_once_with_its_corners(staircase):
    nvars, cells = staircase.nvars, staircase.cells
    met = []

    def keep(node, corners):
        if node == cells:
            met.append(set(corners))

    _walk_level(nvars, len(cells), keep)
    assert met == [minimal_exponents_outside(cells, nvars)]


@pytest.mark.parametrize("nvars,l", [(3, 12), (4, 10), (5, 8)])
def test_walk_level_carries_the_corners(nvars, l):
    nodes = _level(nvars, l)
    assert len({cells for cells, _corners in nodes}) == len(nodes) == count_strongly_stable(nvars, l)
    for cells, corners in nodes:
        assert is_order_ideal(cells, nvars) and is_borel_staircase(cells, nvars)
        assert len(corners) == len(set(corners))
        assert set(corners) == minimal_exponents_outside(cells, nvars)


# level sizes of the breadth-first growth the walk replaced, l = 1, 2, ...
BFS_LEVEL_COUNTS = {
    3: (1, 1, 2, 3, 4, 6, 9, 12, 17, 24, 32, 44, 60, 80, 107, 143, 188, 248, 326,
        425, 553, 718, 926, 1193, 1533, 1961),
    4: (1, 1, 2, 3, 5, 7, 11, 16, 24, 35, 50, 72, 103, 146, 206, 289, 403, 560, 775,
        1068, 1465, 2004),
}


@pytest.mark.parametrize("nvars", sorted(BFS_LEVEL_COUNTS))
def test_counts_match_breadth_first_growth(nvars):
    counts = BFS_LEVEL_COUNTS[nvars]
    assert tuple(count_strongly_stable(nvars, l) for l in range(1, len(counts) + 1)) == counts


def test_soundness_n3():
    for l in (5, 12, 20):
        for ideal in enumerate_strongly_stable(3, l):
            assert is_strongly_stable(ideal)
            assert colength(ideal) == l


@pytest.mark.parametrize("nvars,lmax", [(3, 12), (4, 8)])
def test_pure_powers_increase_with_variable_index(nvars, lmax):
    for l in range(1, lmax + 1):
        for ideal in enumerate_strongly_stable(nvars, l):
            powers = ideal.pure_powers()
            assert powers == tuple(sorted(powers))


def test_canonical_text_is_idempotent():
    for l in range(1, 11):
        for ideal in enumerate_strongly_stable(3, l):
            text = format_ideal(ideal)
            assert format_ideal(parse_ideal(text)) == text


def test_deterministic_stream():
    first = [format_ideal(i) for i in enumerate_strongly_stable(3, 9)]
    second = [format_ideal(i) for i in enumerate_strongly_stable(3, 9)]
    assert first == second
    assert first == sorted(first)


def _check_decorated(nvars, item):
    """sorted_level builds no ideal: its generators and text must equal
    those of the validated ideal of the definition-level corners."""
    text, gens, cells = item
    ideal = MonomialIdeal(nvars, tuple(minimal_exponents_outside(cells, nvars)))
    assert gens == ideal.gens
    assert text == format_ideal(ideal)


@settings(max_examples=200, deadline=None)
@given(staircases())
@example(StandardSet(1, frozenset()))
@example(StandardSet(5, frozenset()))
def test_sorted_level_matches_validated_ideal(staircase):
    [item] = sorted_level(staircase.nvars, [staircase.cells])
    assert item[2] is staircase.cells
    _check_decorated(staircase.nvars, item)


@pytest.mark.parametrize("nvars,l", [(3, 9), (4, 8)])
def test_sorted_level_whole_level(nvars, l):
    level = dict(iter_staircase_levels(nvars, l))[l]
    decorated = sorted_level(nvars, level)
    assert decorated == _canonical(nvars, _level(nvars, l))
    assert {cells for _t, _g, cells in decorated} == set(level)
    texts = [text for text, _g, _c in decorated]
    assert all(a < b for a, b in zip(texts, texts[1:]))
    for item in decorated:
        _check_decorated(nvars, item)


def test_filters_equal_post_filtering():
    def m1_of(ideal):
        return ideal.pure_powers()[0]

    # N=4 too: the enumeration carries each staircase's m1 beside its corners
    for nvars, l in ((3, 9), (4, 10)):
        everything = list(enumerate_strongly_stable(nvars, l))
        by_m1 = list(enumerate_strongly_stable(nvars, l, EnumFilter(m1=2)))
        assert 0 < len(by_m1) < len(everything)
        assert by_m1 == [i for i in everything if m1_of(i) == 2]
        by_gens = list(enumerate_strongly_stable(nvars, l, EnumFilter(num_generators=6)))
        assert 0 < len(by_gens) < len(everything)
        assert by_gens == [i for i in everything if i.num_generators == 6]
        both = list(enumerate_strongly_stable(nvars, l, EnumFilter(m1=2, num_generators=6)))
        assert both == [i for i in everything if m1_of(i) == 2 and i.num_generators == 6]


def test_max_results_cap_raises_with_count():
    stream = enumerate_strongly_stable(3, 9, EnumFilter(max_results=3))
    got = []
    with pytest.raises(EnumerationLimitError) as err:
        for ideal in stream:
            got.append(ideal)
    assert err.value.count == 3
    assert got == list(enumerate_strongly_stable(3, 9))[:3]


def test_count_matches_enumerate():
    assert count_strongly_stable(3, 7) == len(list(enumerate_strongly_stable(3, 7)))


def test_filter_validation():
    with pytest.raises(ValueError):
        EnumFilter(m1=0)
    with pytest.raises(ValueError):
        EnumFilter(num_generators=0)
    with pytest.raises(ValueError):
        EnumFilter(max_results=-1)
    with pytest.raises(ValueError, match="below nvars"):
        list(enumerate_strongly_stable(3, 5, EnumFilter(num_generators=2)))


# one of the 5776 ideals with 18 generators among the 89756 strongly stable
# ideals of colength 35 in four variables, found by the full enumeration
WITNESS_N4_L35_G18 = ("x,y^4,y^3*z,y^2*z^2,y^3*w^2,y^2*z*w^2,y^2*w^3,y*z^4,"
                      "y*z^3*w,y*z^2*w^2,y*z*w^3,y*w^4,z^5,z^4*w,z^3*w^2,"
                      "z^2*w^3,z*w^4,w^8")


def test_n4_l35_with_18_generators_is_realizable():
    # enumeration is complete (tested above), so one valid witness proves
    # the filtered class is non-empty without replaying the full stream
    ideal = parse_ideal(WITNESS_N4_L35_G18)
    assert ideal.nvars == 4
    assert ideal.num_generators == 18
    assert is_strongly_stable(ideal)
    assert colength(ideal) == 35


@pytest.mark.skipif(not os.environ.get("BORELTANGENT_SLOW_TESTS"),
                    reason="takes about a minute; set BORELTANGENT_SLOW_TESTS=1")
def test_n4_l35_filtered_stream_contains_witness():
    filt = EnumFilter(num_generators=18, max_results=None)
    witness = parse_ideal(WITNESS_N4_L35_G18)
    seen = 0
    found = False
    for ideal in enumerate_strongly_stable(4, 35, filt):
        seen += 1
        if ideal == witness:
            found = True
    assert found
    assert seen == 5776
