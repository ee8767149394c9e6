import random
import time
from collections import Counter
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_rank, iter_partitions, partition_staircase
from strategies import artinian_ideals, borel_staircases, staircases

import boreltangent.tangent as tangent_module
from boreltangent.enumeration import enumerate_strongly_stable
from boreltangent.monomials import (
    DimensionMismatchError,
    MonomialIdeal,
    NonArtinianIdealError,
    StandardSet,
    _gens_from_cells,
    colength,
    minimal_generators,
    parse_ideal,
    standard_set,
)
from boreltangent.scan import power_ideal
from boreltangent.tangent import (
    ORACLE_SIZE_CAP,
    OracleSizeError,
    VerificationError,
    _degree_ranks,
    _kernel,
    _pack,
    _syzygy_pairs,
    _taylor_pairs,
    _total,
    alpha_support_box,
    bareiss_rank,
    constraint_rank,
    graded_dimension,
    tangent_dimension,
    tangent_dimension_oracle,
    verify_tangent,
)

SQUARE = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")
SESSION = parse_ideal("x^2,y^3,z^3,x*y,x*z,y*z^2,y^2*z")


def _total_of_cells(nvars, cells):
    """The kernel's raw total at a bare cell set, its corners read off the cells."""
    return _total(tuple(_gens_from_cells(nvars, cells)), cells)


def test_maximal_ideal_is_smooth():
    report = tangent_dimension(parse_ideal("x,y,z"))
    assert report.total == 3
    assert report.zero_rank == 0


def test_square_anchor():
    report = tangent_dimension(SQUARE)
    assert (report.total, report.zero_rank, report.g, report.l) == (36, 12, 6, 8)
    assert constraint_rank(SQUARE) == 12
    assert tangent_dimension_oracle(SQUARE) == 36


def test_power_square_n3():
    assert tangent_dimension(power_ideal(3, 2)).total == 18
    assert tangent_dimension_oracle(power_ideal(3, 2)) == 18
    assert constraint_rank(power_ideal(3, 2)) == 6 * 4 - 18


@pytest.mark.parametrize("k", range(1, 7))
def test_single_variable_is_smooth(k):
    ideal = MonomialIdeal(1, ((k,),))
    report = tangent_dimension(ideal)
    assert report.total == k
    # x^k goes to any of 1, x, ..., x^(k-1): one map in each degree -k..-1
    assert report.graded == tuple(((-d,), 1) for d in range(k, 0, -1))
    assert _total_of_cells(1, frozenset((e,) for e in range(k))) == k
    assert tangent_dimension_oracle(ideal) == k
    assert alpha_support_box(ideal) == ((-k, k - 1),)


def test_two_variable_examples():
    ideal = parse_ideal("x,y^2")
    assert tangent_dimension(ideal).total == 4
    assert constraint_rank(ideal) == 0
    assert tangent_dimension_oracle(ideal) == 4


def test_graded_examples():
    assert graded_dimension(parse_ideal("x,y"), (-1, -1)) == 0
    assert graded_dimension(power_ideal(2, 2), (-1, 0)) == 2
    # pinned regression value for the three-variable session example
    assert graded_dimension(SESSION, (0, 2, -3)) == 1
    assert tangent_dimension(SESSION).total == 29
    assert tangent_dimension_oracle(SESSION) == 29


def test_graded_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        graded_dimension(SQUARE, (0, 1))


def test_support_box_examples():
    assert alpha_support_box(parse_ideal("x,y,z")) == ((-1, 0), (-1, 0), (-1, 0))
    assert alpha_support_box(SQUARE) == ((-2, 1), (-2, 1), (-4, 3))
    with pytest.raises(NonArtinianIdealError):
        alpha_support_box(parse_ideal("x,y", nvars=3))


def test_maximal_ideal_nonzero_degrees():
    ideal = parse_ideal("x,y,z")
    box = alpha_support_box(ideal)
    nonzero = {alpha for alpha in product(*(range(lo, hi + 1) for lo, hi in box))
               if graded_dimension(ideal, alpha) > 0}
    assert nonzero == {(-1, 0, 0), (0, -1, 0), (0, 0, -1)}


@pytest.mark.parametrize("ideal", [SQUARE, SESSION, power_ideal(3, 2)])
def test_graded_sum_identity_and_outside_shell(ideal):
    report = tangent_dimension(ideal)
    box = alpha_support_box(ideal)
    total = sum(graded_dimension(ideal, alpha)
                for alpha in product(*(range(lo, hi + 1) for lo, hi in box)))
    assert total == report.total
    assert report.total == sum(dim for _alpha, dim in report.graded)
    for alpha, _dim in report.graded:
        assert all(lo <= a <= hi for a, (lo, hi) in zip(alpha, box))
    # one shell beyond the box: everything vanishes
    for t in range(ideal.nvars):
        for bound, offset in ((box[t][0], -1), (box[t][1], +1)):
            alpha = [0] * ideal.nvars
            alpha[t] = bound + offset
            assert graded_dimension(ideal, tuple(alpha)) == 0


def test_report_invariants_small_enumeration():
    for l in range(1, 9):
        for ideal in enumerate_strongly_stable(3, l):
            report = tangent_dimension(ideal)
            assert report.total == sum(dim for _a, dim in report.graded)
            assert all(dim > 0 for _a, dim in report.graded)
            assert report.zero_rank == report.g * report.l - report.total
            assert report.zero_rank >= 0


def test_oracle_equivalence_quick_sweep():
    for l in range(1, 8):
        for ideal in enumerate_strongly_stable(3, l):
            assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)
    for l in range(1, 6):
        for ideal in enumerate_strongly_stable(4, l):
            assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)


def test_plane_smoothness_quick_sweep():
    for l in range(1, 9):
        for partition in iter_partitions(l):
            staircase = StandardSet(2, partition_staircase(partition))
            ideal = minimal_generators(staircase)
            assert tangent_dimension(ideal, standard=staircase).total == 2 * l


def test_three_variable_lower_bound():
    for l in range(1, 11):
        for ideal in enumerate_strongly_stable(3, l):
            total = tangent_dimension(ideal).total
            assert total >= 3 * l
            if ideal.pure_powers()[0] == 1:
                assert total == 3 * l


def test_generator_order_does_not_matter():
    gens = list(SQUARE.gens)
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(gens)
        assert tangent_dimension(MonomialIdeal(3, tuple(gens))) == tangent_dimension(SQUARE)


def test_precomputed_standard_set_agrees():
    std = standard_set(SQUARE)
    assert tangent_dimension(SQUARE, standard=std) == tangent_dimension(SQUARE)
    with pytest.raises(DimensionMismatchError):
        tangent_dimension(SQUARE, standard=StandardSet(2, frozenset([(0, 0)])))


def test_square_anchor_is_fast():
    start = time.monotonic()
    assert tangent_dimension(SQUARE).total == 36
    assert constraint_rank(SQUARE) == 12
    assert time.monotonic() - start < 1.0


def test_bareiss_rank_basics():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2


def test_bareiss_rank_matches_fraction_elimination():
    rng = random.Random(2024)
    for _trial in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        matrix = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert bareiss_rank(matrix) == fraction_rank(matrix)


def test_oracle_size_cap():
    big = power_ideal(3, 8)  # G*l = 45*120, over the cap
    assert len(big.gens) * colength(big) > ORACLE_SIZE_CAP
    with pytest.raises(OracleSizeError):
        tangent_dimension_oracle(big)
    with pytest.raises(OracleSizeError):
        verify_tangent(big)


def test_verify_tangent():
    report = verify_tangent(SQUARE)
    assert report.total == 36


def test_verify_tangent_raises_on_mismatch(monkeypatch):
    monkeypatch.setattr(tangent_module, "tangent_dimension_oracle",
                        lambda ideal, standard=None: -1)
    with pytest.raises(VerificationError):
        tangent_module.verify_tangent(SQUARE)


def test_report_json_schema():
    report = tangent_dimension(SQUARE)
    obj = report.to_json()
    assert obj["total"] == 36 and obj["zero_rank"] == 12
    assert obj["ideal"] == {"vars": 3, "gens": [list(g) for g in SQUARE.gens]}
    alphas = [tuple(entry["alpha"]) for entry in obj["graded"]]
    assert alphas == sorted(alphas)
    assert sum(entry["dim"] for entry in obj["graded"]) == 36


# --- randomized properties: ideals that are not Borel, sizes not enumerated ---

PROPERTY_ORACLE_CAP = 150


@settings(max_examples=150, deadline=None)
@given(artinian_ideals(), st.data())
def test_kernel_properties_on_random_ideals(ideal, data):
    cells = standard_set(ideal).cells
    report = tangent_dimension(ideal)
    per_alpha = report.per_alpha
    assert report.total == sum(per_alpha.values())
    assert all(dim > 0 for dim in per_alpha.values())
    assert report.zero_rank == report.g * report.l - report.total >= 0
    if report.g * report.l <= PROPERTY_ORACLE_CAP:
        assert report.total == tangent_dimension_oracle(ideal)
    for alpha, dim in report.graded:
        assert graded_dimension(ideal, alpha) == dim
    box = alpha_support_box(ideal)
    for _ in range(8 if all(lo <= hi for lo, hi in box) else 0):
        alpha = tuple(data.draw(st.integers(lo, hi)) for lo, hi in box)
        assert graded_dimension(ideal, alpha) == per_alpha.get(alpha, 0)
    assert _total_of_cells(ideal.nvars, cells) == report.total
    assert constraint_rank(ideal) == report.zero_rank


@settings(max_examples=150, deadline=None)
@given(staircases())
def test_ek_pairs_match_taylor_pairs_per_degree(staircase):
    nvars, cells = staircase.nvars, staircase.cells
    gens = tuple(_gens_from_cells(nvars, cells))
    _, weights, _, cell_codes = _pack(gens, cells)
    ranks, act, _ = _kernel(gens, cells)
    taylor = _degree_ranks(_taylor_pairs(gens, weights), act, cell_codes)
    active = Counter(chain.from_iterable(act))
    assert ({al: n - ranks.get(al, 0) for al, n in active.items()}
            == {al: n - taylor.get(al, 0) for al, n in active.items()})


@settings(max_examples=150, deadline=None)
@given(borel_staircases())
def test_ek_pair_structure(staircase):
    nvars, cells = staircase.nvars, staircase.cells
    gens = tuple(_gens_from_cells(nvars, cells))
    _, weights, codes, cell_codes = _pack(gens, cells)
    pairs = _syzygy_pairs(gens, codes, weights, cell_codes)
    # max(u), variables counted from 1
    last = [max(t + 1 for t in range(nvars) if u[t]) for u in gens]
    assert len(pairs) == sum(m - 1 for m in last) <= (nvars - 1) * len(gens)
    seen = set()
    for i, k, lcm in pairs:
        j = weights.index(lcm - codes[i])  # the packed lcm is x_j * u, u = gens[i]
        assert j < last[i] - 1 and (i, j) not in seen
        seen.add((i, j))
        w = tuple(e + (t == j) for t, e in enumerate(gens[i]))
        assert tuple(map(max, gens[i], gens[k])) == w
        # the partner is g(x_j * u): the generator g with x_j * u = g * v
        # and max(g) <= min(v)
        v = tuple(x - y for x, y in zip(w, gens[k]))
        assert min(v) >= 0 and any(v)
        assert max((t for t in range(nvars) if gens[k][t]), default=0) <= min(
            t for t in range(nvars) if v[t])


def test_non_borel_staircase_falls_back_to_taylor_pairs():
    cells = frozenset({(0, 0), (1, 0)})  # the ideal (y, x^2) is not strongly stable
    ideal = minimal_generators(StandardSet(2, cells))
    assert _total_of_cells(2, cells) == tangent_dimension_oracle(ideal) == 4
    assert constraint_rank(ideal) == 0


def _names_in(code) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_in(const)
    return names


def test_oracle_shares_no_code_with_the_kernel():
    kernel = {"_pack", "_syzygy_pairs", "_taylor_pairs", "_degree_ranks", "_forest_rank",
              "_kernel", "_total", "tangent_dimension", "graded_dimension"}
    assert kernel <= set(vars(tangent_module))
    for trusted in (tangent_dimension_oracle, bareiss_rank):
        assert not _names_in(trusted.__code__) & kernel


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_unit_ideal_has_empty_staircase(nvars):
    unit = MonomialIdeal(nvars, ((0,) * nvars,))
    report = tangent_dimension(unit)
    assert (report.total, report.graded, report.l, report.zero_rank) == (0, (), 0, 0)
    assert tangent_dimension_oracle(unit) == 0
    assert graded_dimension(unit, (0,) * nvars) == 0
    assert graded_dimension(unit, (-1,) * nvars) == 0
    assert _total_of_cells(nvars, frozenset()) == 0

