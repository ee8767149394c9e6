import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    _origin,
    _support,
    _tables,
    _walk_level,
    count_strongly_stable,
    enumerate_strongly_stable,
    iter_staircase_levels,
    sorted_level,
)
from boreltangent.monomials import (
    MonomialIdeal,
    StandardSet,
    _gens_from_cells,
    colength,
    format_ideal,
    is_strongly_stable,
    parse_ideal,
    standard_set,
)


def _level(nvars, l):
    """(cells, corners) of every Borel staircase of size l, in walk order."""
    nodes = []
    _walk_level(nvars, l, lambda cells, corners, _m1: nodes.append((frozenset(cells), corners)))
    return nodes


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

    def keep(child, corners, m1):
        assert m1 == max(child)[0] + 1
        found[frozenset(child)] = set(corners)

    _descend(nvars, (cells, minimal_exponents_outside(cells, nvars), len(cells) + 1), keep)
    return found


def _packed_extensions(nvars, cells):
    """Every corner c that passes the packed Borel test of the walk's
    tables, not only those above the largest cell, with the corners that
    the tables carry to cells + {c}, in the radix of a walk to size
    len(cells) + 1."""
    weights, moves, grows = _tables(nvars, len(cells) + 2)

    def code(e):
        return sum(x * w for x, w in zip(e, weights))

    codes = {code(e) for e in cells}
    corners = minimal_exponents_outside(cells, nvars)
    found = {}
    for c in corners:
        if any(code(c) + d not in codes for d in moves[_support(c)]):
            continue
        carried = corners - {c}
        for t, step, grown, offsets in grows[_support(c)]:
            corner = c[:t] + (c[t] + 1,) + c[t + 1:]
            assert (step, grown) == (weights[t], _support(corner))
            if all(code(c) + d in codes for d in offsets):
                assert code(c) + step == code(corner)
                carried.add(corner)
        found[c] = (cells | {c}, carried)
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
            extensions = _packed_extensions(nvars, cells)
            assert set(extensions) == {c for c in corners if is_borel_staircase(cells | {c}, nvars)}
            assert {child for child, _carried in extensions.values()} == \
                one_cell_extensions(cells, nvars)
            for c, (child, carried) in extensions.items():
                assert child == cells | {c}
                assert carried == minimal_exponents_outside(child, nvars)
            children = _children(nvars, cells)
            assert set(children) == {cells | {c} for c in extensions if c > max(cells)}
            for child, carried in children.items():
                assert carried == minimal_exponents_outside(child, nvars)


@pytest.mark.parametrize("l", [2, 3, 7, 16])
def test_walk_at_the_edge_of_its_radix(l):
    # a column of l - 1 cells grown to size l: the new corner (0, 0, l) has
    # the digit l = B - 1 of the walk's radix B = l + 1
    nvars = 3
    cells = frozenset((0, 0, k) for k in range(l - 1))
    found = {}

    def keep(child, corners, m1):
        found[frozenset(child)] = (set(corners), m1)

    _descend(nvars, (cells, minimal_exponents_outside(cells, nvars), l), keep)
    expected = {grown for grown in one_cell_extensions(cells, nvars)
                if largest_removable_cell(grown, nvars) == next(iter(grown - cells))}
    assert set(found) == expected
    assert cells | {(0, 0, l - 1)} in found
    for child, (carried, m1) in found.items():
        assert is_order_ideal(child, nvars) and is_borel_staircase(child, nvars)
        assert m1 == max(child)[0] + 1
        assert carried == minimal_exponents_outside(child, nvars)
    assert (0, 0, l) in found[cells | {(0, 0, l - 1)}][0]


def test_descend_refuses_a_target_below_the_staircase():
    # the walk's radix l + 1 holds the digits of staircases of at most l cells
    cells = {(0, 0), (0, 1), (1, 0)}
    with pytest.raises(ValueError):
        _descend(2, (cells, minimal_exponents_outside(cells, 2), 2), print)


def test_descend_calls_share_the_walk_tables():
    # the tables of one radix are built once and shared, so immutable
    _descend(3, _origin(3, 6), lambda *_: None)
    hits = _tables.cache_info().hits
    _descend(3, _origin(3, 6), lambda *_: None)
    assert _tables.cache_info().hits == hits + 1
    tables = _tables(3, 7)
    assert tables is _tables(3, 7)
    weights, moves, grows = tables
    assert all(isinstance(table, tuple) for table in (*tables, *moves, *grows))
    assert all(isinstance(row, tuple) and isinstance(row[3], tuple)
               for level in grows for row in level)


@pytest.mark.parametrize("budget", [1, 3, 20])
def test_budgeted_walk_hands_back_children_with_their_corners(budget):
    # a budgeted walk visits its budget of staircases of the last size (and
    # the rest of the last fan-out it is in), then hands back every child it
    # would have entered above that size, with its corners; walking those
    # children meets exactly the staircases it did not visit
    nvars, l = 3, 12
    visited = []

    def keep(cells, _corners, _m1):
        visited.append(frozenset(cells))

    jobs = _descend(nvars, _origin(nvars, l), keep, budget)
    assert budget <= len(visited) < budget + l
    assert jobs
    rest = []
    for job in jobs:
        cells, corners, size = job
        assert size == l
        assert len(cells) < l and is_borel_staircase(set(cells), nvars)
        assert set(corners) == minimal_exponents_outside(set(cells), nvars)
        assert not _descend(nvars, job, lambda cells, *_: rest.append(frozenset(cells)))
    met = visited + rest
    assert len(met) == len(set(met))
    assert set(met) == {cells for cells, _corners in _level(nvars, l)}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 9), st.integers(0, 30))
@example(3, 9, 0)
@example(5, 9, 0)
def test_job_split_meets_each_staircase_once(nvars, l, budget):
    # the root walk and the walks of the jobs handed back, recursively,
    # meet each staircase of the level once; a walk hands back jobs only
    # once it has visited its budget of staircases
    met = []
    todo = [_origin(nvars, l)]
    while todo:
        visited = []
        jobs = _descend(nvars, todo.pop(), lambda cells, *_: visited.append(frozenset(cells)),
                        budget)
        assert len(visited) >= budget or not jobs
        met += visited
        todo += jobs
    assert len(met) == len(set(met))
    assert set(met) == {cells for cells, _corners in _level(nvars, l)}


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

    def keep(node, corners, _m1):
        if set(node) == cells:
            met.append(set(corners))

    _walk_level(nvars, len(cells), keep)
    assert met == [minimal_exponents_outside(cells, nvars)]


@pytest.mark.parametrize("nvars,l", [(1, 6), (2, 15), (3, 12), (4, 10), (5, 8), (6, 7)])
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


def test_n4_l20_stream_is_pinned():
    # the canonical stream hashed one text and newline per ideal, as the
    # benchmark's enum_n4 workload checks it: a walk that drops, adds or
    # misorders a staircase changes the digest
    digest = hashlib.sha256()
    count = 0
    for ideal in enumerate_strongly_stable(4, 20):
        digest.update(format_ideal(ideal).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (
        1068, "13aa62f93cd0c3f34e302de886a79b74813f3276f81b7e1800e434fdc460de36")


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
    for nvars, lmax in ((3, 10), (4, 8)):
        for l in range(1, lmax + 1):
            for ideal in enumerate_strongly_stable(nvars, l):
                text = format_ideal(ideal)
                assert format_ideal(parse_ideal(text)) == text
                # the text the stream carries is the validated ideal's own
                assert text == format_ideal(MonomialIdeal(ideal.nvars, ideal.gens))


def test_deterministic_stream():
    first = [format_ideal(i) for i in enumerate_strongly_stable(3, 9)]
    second = [format_ideal(i) for i in enumerate_strongly_stable(3, 9)]
    assert first == second
    assert first == sorted(first)


def _validated(nvars, cells):
    """The validated ideal of the definition-level corners of a staircase."""
    return MonomialIdeal(nvars, tuple(minimal_exponents_outside(cells, nvars)))


@settings(max_examples=200, deadline=None)
@given(staircases())
@example(StandardSet(1, frozenset()))
@example(StandardSet(5, frozenset()))
def test_canonical_matches_validated_ideal(staircase):
    # _canonical builds its ideals unchecked: their generators and text
    # must equal those of the validated ideal, and the payload passes through
    nvars, cells = staircase.nvars, staircase.cells
    [(ideal, payload)] = _canonical(nvars, [(cells, _gens_from_cells(nvars, cells))])
    assert payload is cells
    expected = _validated(nvars, cells)
    assert ideal.gens == expected.gens
    assert format_ideal(ideal) == format_ideal(expected)


@pytest.mark.parametrize("nvars,l", [(3, 9), (4, 8)])
def test_stream_is_the_validated_ideals_in_text_order(nvars, l):
    # the stream's generators and texts are those of the validated ideals
    # of every staircase of the level, in strictly increasing text order
    stream = [(format_ideal(ideal), ideal.gens) for ideal in enumerate_strongly_stable(nvars, l)]
    expected = [_validated(nvars, cells) for cells, _corners in _level(nvars, l)]
    assert stream == sorted((format_ideal(ideal), ideal.gens) for ideal in expected)
    texts = [text for text, _gens in stream]
    assert all(a < b for a, b in zip(texts, texts[1:]))


def test_iter_staircase_levels_smoke():
    # the benchmark's level shim yields each level's staircases once, those
    # of the stream
    for l, level in iter_staircase_levels(3, 9):
        assert len(level) == len(set(level))
        assert set(level) == {standard_set(ideal).cells for ideal in enumerate_strongly_stable(3, l)}
    for nvars, max_colength in [(0, 3), (3, 0)]:
        with pytest.raises(ValueError, match="need nvars >= 1 and max_colength >= 1"):
            next(iter_staircase_levels(nvars, max_colength))


def test_sorted_level_smoke():
    # the benchmark's sort shim gives the stream's order, generators and
    # texts, each beside the staircase it was given
    level = [cells for cells, _corners in _level(4, 8)]
    assert sorted_level(4, level[::-1]) == [(format_ideal(ideal), ideal.gens, standard_set(ideal).cells)
                                            for ideal in enumerate_strongly_stable(4, 8)]


@pytest.mark.parametrize("nvars,l", [(3, 12), (4, 9)])
def test_enumerated_ideals_pass_the_validator_they_skip(nvars, l):
    # the stream builds its ideals unchecked from the walk's corners
    for ideal in enumerate_strongly_stable(nvars, l):
        assert MonomialIdeal(nvars, ideal.gens) == ideal


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
