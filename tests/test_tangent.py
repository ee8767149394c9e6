import inspect
import random
import time
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    canonical_key,
    fraction_rank,
    graded_tangent_dims,
    is_borel_staircase,
    iter_partitions,
    mnop_character,
    partition_staircase,
    standard_exponents_in_box,
)
from strategies import TOP, artinian_ideals, borel_staircases, staircases

import boreltangent.monomials as monomials_module
import boreltangent.tangent as tangent_module
from boreltangent.region3d import region_cells, region_component_count, region_slice
from boreltangent.enumeration import _descend, _origin, enumerate_strongly_stable
from boreltangent.monomials import (
    DimensionMismatchError,
    InvalidStaircaseError,
    MonomialIdeal,
    NonArtinianIdealError,
    StandardSet,
    _gens_from_cells,
    colength,
    is_strongly_stable,
    minimal_generators,
    parse_ideal,
    standard_set,
)
from boreltangent.scan import power_ideal, scan_colength
from boreltangent.tangent import (
    ORACLE_SIZE_CAP,
    OracleSizeError,
    VerificationError,
    _bareiss_rank,
    _bit_sweep,
    _ek_pairs,
    _kernel,
    _pack,
    _set_sweep,
    _syzygy_pairs,
    _taylor_pairs,
    _total,
    alpha_support_box,
    constraint_rank,
    graded_dimension,
    tangent_dimension,
    tangent_dimension_oracle,
    verify_tangent,
)

SQUARE = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")
SESSION = parse_ideal("x^2,y^3,z^3,x*y,x*z,y*z^2,y^2*z")


def _total_of_cells(nvars, cells):
    """The scan's raw total at a bare Borel staircase, its corners read off
    the cells."""
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


@pytest.mark.parametrize("alpha", [(0.9, 0.2, -0.7), ("0", "0", "0"), (0, 2.0, -3)])
def test_graded_dimension_refuses_a_degree_that_is_not_integer(alpha):
    # int() would round the first two to (0, 0, 0) and answer for it
    with pytest.raises(TypeError):
        graded_dimension(SESSION, alpha)
    assert graded_dimension(SESSION, [False, True, 0]) == graded_dimension(SESSION, (0, 1, 0))


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


def _sparse(matrix):
    """A dense matrix as the oracle's sparse rows {column: nonzero entry}."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def test_bareiss_rank_basics():
    assert _bareiss_rank(_sparse([])) == 0
    assert _bareiss_rank(_sparse([[0, 0], [0, 0]])) == 0
    assert _bareiss_rank(_sparse([[1, 0], [0, 1]])) == 2
    assert _bareiss_rank(_sparse([[1, 2], [2, 4]])) == 1
    assert _bareiss_rank(_sparse([[2, 3, 5], [4, 6, 10], [1, 1, 1]])) == 2


def test_bareiss_rank_matches_fraction_elimination():
    rng = random.Random(2024)
    for _trial in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        matrix = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert _bareiss_rank(_sparse(matrix)) == fraction_rank(matrix)


def _sparse_matrix(rng, nrows, ncols):
    """A sparse integer matrix with non-unit entries and a few rows that are
    combinations of others."""
    density = rng.choice((0.15, 0.3, 0.6))
    rows = [[rng.choice((-6, -3, -2, -1, 1, 2, 3, 4, 5, 7)) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 3) if nrows > 2 else 0):
        a, b, dest = rng.sample(range(nrows), 3)
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[dest] = [x * u + y * v for u, v in zip(rows[a], rows[b])]
    return rows


def test_bareiss_rank_matches_fraction_rank_on_sparse_matrices():
    # the oracle's own matrices have entries +-1, so their pivots are +-1 and
    # no row is ever rescaled; general matrices exercise the lazy rescale
    rng = random.Random(1968)
    for _trial in range(400):
        matrix = _sparse_matrix(rng, rng.randint(1, 13), rng.randint(1, 13))
        assert _bareiss_rank(_sparse(matrix)) == fraction_rank(matrix)


def _full_box_total(gens, cells) -> int:
    """The kernel's count over the whole box, on the EK pairs untested."""
    packed = weights, _, codes, cell_codes, _ = _pack(gens, cells)
    return _kernel(packed, _ek_pairs(gens, codes, weights, cell_codes))[0]


def test_every_n3_total_has_the_parity_of_its_colength():
    # T = l (mod 2) in three variables (Maulik, Nekrasov, Okounkov and
    # Pandharipande, arXiv:math/0312059), checked on the full box's count
    # at every staircase the scan's walk reaches.  The scan's half-box
    # total 2x - l has l's parity whatever x is, so it is checked against
    # the full count instead.  Parity fails at N = 4, so N = 3 only
    totals = []
    for l in range(1, 21):
        _descend(3, _origin(3, l), lambda cells, gens, _m1: totals.append(
            (len(cells), _full_box_total(gens, cells), _total(gens, cells), sorted(gens))))
    assert len(totals) == 1732
    assert [t for t in totals if (t[1] - t[0]) % 2 or t[1] != t[2]] == []


def _dual(alpha):
    return tuple(-a - 1 for a in alpha)


def _mnop_failures(ideal) -> list:
    """The degrees where T_alpha - T_alpha* differs from [t^alpha] V, over
    the report's degrees, their duals and the support of V."""
    dims = tangent_dimension(ideal).per_alpha
    character = mnop_character(standard_exponents_in_box(ideal.gens, 3))
    degrees = set(dims) | set(map(_dual, dims)) | set(character)
    return sorted(alpha for alpha in degrees
                  if dims.get(alpha, 0) - dims.get(_dual(alpha), 0) != character.get(alpha, 0))


def _random_non_borel_n3(rng):
    """A seeded Artinian ideal in three variables whose staircase is not Borel."""
    while True:
        powers = [rng.randint(1, 5) for _ in range(3)]
        gens = [tuple(p if s == t else 0 for s in range(3)) for t, p in enumerate(powers)]
        gens += [tuple(rng.randrange(p) for p in powers) for _ in range(rng.randint(0, 6))]
        ideal = MonomialIdeal.from_generators(3, gens)
        if not is_borel_staircase(standard_exponents_in_box(ideal.gens, 3), 3):
            return ideal


def test_graded_pieces_obey_the_mnop_identity():
    # T_alpha - T_alpha* = [t^alpha] V at every degree (arXiv:math/0312059),
    # V from the cells alone: every N=3 Borel staircase with l <= 12 and
    # seeded ideals that are not Borel
    borel = [ideal for l in range(1, 13) for ideal in enumerate_strongly_stable(3, l)]
    rng = random.Random(312)
    others = [_random_non_borel_n3(rng) for _ in range(300)]
    assert len(borel) == 155
    assert [ideal for ideal in borel + others if _mnop_failures(ideal)] == []


@pytest.mark.parametrize("n, total", [(8, 72), (50, 450), (200, 1800)])
def test_half_box_on_the_set_sweep(n, total):
    # no staircase of the N=3 scans reaches BOX_PER_CELL, so the scan never
    # runs the half box on sets: the half must drop the negative positions
    # and keep the others, shifted
    ideal = parse_ideal(f"x^{n},y^{n},z^{n},x*y,x*z,y*z")
    cells = standard_set(ideal).cells
    weights, lo, codes, cell_codes, _ = _pack(ideal.gens, cells)
    pairs = _taylor_pairs(ideal.gens, weights)
    offset = sum(map(mul, lo, weights))
    shift = lo[0] * weights[0]
    for sweep in (_set_sweep, _bit_sweep) if n <= 50 else (_set_sweep,):
        full, full_dims = sweep(pairs, codes, cell_codes, offset)
        half, half_dims = sweep(pairs, codes, cell_codes, offset - shift)
        assert full == 2 * half - len(cells) == total
        assert half_dims() == {p - shift: d for p, d in full_dims().items() if p >= shift}


@pytest.mark.parametrize("nvars, k", [(3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3)])
def test_oracle_agrees_on_power_ideals(nvars, k):
    ideal = power_ideal(nvars, k)
    assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)


@st.composite
def top_heavy_ideals(draw):
    """An Artinian ideal in 1..4 variables whose x1 pure power m_1 is its
    largest exponent, so that the oracle's targets minus shifts reach
    digits down to -m_1."""
    nvars = draw(st.integers(1, 4))
    top = draw(st.integers(1, TOP[nvars - 1]))
    powers = [top] + draw(st.lists(st.integers(1, top), min_size=nvars - 1, max_size=nvars - 1))
    pure = [tuple(p if s == t else 0 for s in range(nvars)) for t, p in enumerate(powers)]
    # an extra generator that is a pure power of x1 would lower m_1
    extra = draw(st.lists(st.tuples(*(st.integers(0, p - 1) for p in powers))
                          .filter(lambda e: any(e[1:])), max_size=6))
    return MonomialIdeal.from_generators(nvars, pure + extra)


@settings(max_examples=200, deadline=None)
@given(top_heavy_ideals())
def test_oracle_agrees_when_m1_is_the_largest_exponent(ideal):
    std = standard_set(ideal)
    assert max(map(max, ideal.gens)) == ideal.pure_powers()[0]
    assert tangent_dimension_oracle(ideal, std) == tangent_dimension(ideal, std).total


def test_oracle_agrees_on_argmax_ideals_at_l16():
    argmax = [ideal for record in scan_colength(3, 16).values() for ideal in record.argmax]
    assert len(argmax) == 34
    for ideal in argmax:
        assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)


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


def test_verify_tangent_builds_the_standard_set_once(monkeypatch):
    calls = []

    def counted(ideal):
        calls.append(ideal)
        return standard_set(ideal)

    monkeypatch.setattr(tangent_module, "standard_set", counted)
    assert verify_tangent(SQUARE).total == 36
    assert calls == [SQUARE]


def test_the_ideals_own_standard_set_is_read_without_a_corner_pass(monkeypatch):
    std = standard_set(SQUARE)

    def refuse(*args):
        raise AssertionError("growth or a corner pass")

    monkeypatch.setattr(tangent_module, "standard_set", refuse)
    monkeypatch.setattr(monomials_module, "_gens_from_cells", refuse)
    assert verify_tangent(SQUARE, std).total == 36


def test_verify_tangent_checks_the_half_boxes_at_n3(monkeypatch):
    # with the last EK pair dropped and the oracle agreeing with the
    # kernel, the three half-box sums alone flag every wrong total
    levels = {l: [(ideal, tangent_dimension(ideal).total)
                  for ideal in enumerate_strongly_stable(3, l)] for l in range(8, 15)}
    ek_pairs = tangent_module._ek_pairs
    monkeypatch.setattr(tangent_module, "_ek_pairs", lambda *args: ek_pairs(*args)[:-1])
    monkeypatch.setattr(tangent_module, "tangent_dimension_oracle",
                        lambda ideal, standard=None: tangent_dimension(ideal, standard).total)
    for l, ideals in levels.items():
        wrong = [ideal for ideal, total in ideals if tangent_dimension(ideal).total != total]
        assert wrong, l
        for ideal in wrong:
            with pytest.raises(VerificationError, match="alpha_"):
                verify_tangent(ideal)


def test_verify_tangent_raises_on_mismatch(monkeypatch):
    monkeypatch.setattr(tangent_module, "tangent_dimension_oracle",
                        lambda ideal, standard=None: -1)
    with pytest.raises(VerificationError):
        tangent_module.verify_tangent(SQUARE)


def test_request_path_scans_no_box(monkeypatch):
    # every layer answers from the cells; none tests membership generator
    # by generator, which is what a box scan would do per cell
    ideals = [SQUARE, SESSION, power_ideal(3, 3), parse_ideal("x^3,y^2,z^2,x*y*z"),
              power_ideal(4, 2), parse_ideal("x^2,x*y,y^2,z^2,w^3,x*w,y*z*w"),
              parse_ideal("x^3,y,z^2,w^2,x*z*w")]

    def refuse(self, e):
        raise AssertionError(f"membership test of {e} in {self}")

    monkeypatch.setattr(MonomialIdeal, "contains", refuse)
    with pytest.raises(AssertionError):
        is_strongly_stable(SQUARE)
    for ideal in ideals:
        std = standard_set(ideal)
        report = tangent_dimension(ideal)
        assert verify_tangent(ideal).total == report.total
        alphas = [alpha for alpha, _dim in report.graded[:6]]
        alphas.append(tuple(lo for lo, _hi in alpha_support_box(ideal)))
        for alpha in alphas:
            graded_dimension(ideal, alpha, std)
            if ideal.nvars == 3:
                region_component_count(ideal, alpha)
                region_component_count(ideal, alpha, standard=std)


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
        assert verify_tangent(ideal).total == report.total
    for alpha, dim in report.graded:
        assert graded_dimension(ideal, alpha) == dim
    box = alpha_support_box(ideal)
    for _ in range(8 if all(lo <= hi for lo, hi in box) else 0):
        alpha = tuple(data.draw(st.integers(lo, hi)) for lo, hi in box)
        assert graded_dimension(ideal, alpha) == per_alpha.get(alpha, 0)
    if is_strongly_stable(ideal):
        # the scan's total takes EK pairs untested: Borel staircases only
        assert _total_of_cells(ideal.nvars, cells) == report.total
    assert constraint_rank(ideal) == report.zero_rank


@settings(max_examples=150, deadline=None)
@given(staircases())
def test_graded_report_matches_the_reference_sweep(staircase):
    ideal = minimal_generators(staircase)
    report = tangent_dimension(ideal, staircase)
    reference = graded_tangent_dims(ideal.gens, staircase.cells)
    assert report.graded == tuple(sorted(reference.items()))
    assert report.total == sum(reference.values())


@settings(max_examples=150, deadline=None)
@given(staircases())
def test_ek_pairs_match_taylor_pairs_per_degree(staircase):
    # both pair rules through both sweeps: one zero rank, one graded report
    nvars, cells = staircase.nvars, staircase.cells
    gens = tuple(_gens_from_cells(nvars, cells))
    weights, lo, codes, cell_codes, _ = _pack(gens, cells)
    offset = sum(a * b for a, b in zip(lo, weights))
    results = set()
    for pairs in (_syzygy_pairs(gens, codes, weights, cell_codes), _taylor_pairs(gens, weights)):
        for sweep in (_bit_sweep, _set_sweep):
            total, dims = sweep(pairs, codes, cell_codes, offset)
            results.add((total, frozenset(dims().items())))
    assert len(results) == 1


THIN = [parse_ideal("x^200,y^200,z^200,x*y,x*z,y*z"),
        parse_ideal(",".join([f"x{i}^10" for i in range(1, 7)]
                             + [f"x{i}*x{j}" for i in range(1, 7) for j in range(i + 1, 7)])),
        parse_ideal("x^1000,x*y,y^1000")]


@pytest.mark.parametrize("ideal", THIN, ids=["xyz200", "n6_power10", "xy1000"])
def test_thin_staircases_are_counted_over_sets(ideal, monkeypatch):
    # the boxes hold 6.4e7, 8.6e7 and 4.0e6 positions against 598, 55 and
    # 1999 cells: masks over them would take seconds, and over the first
    # two hundreds of megabytes
    def refuse(*args):
        raise AssertionError("bit masks over a sparse box")

    monkeypatch.setattr(tangent_module, "_bit_sweep", refuse)
    std = standard_set(ideal)
    start = time.monotonic()
    report = tangent_dimension(ideal, std)
    assert constraint_rank(ideal, std) == report.zero_rank
    assert time.monotonic() - start < 2.0
    assert report.graded == tuple(sorted(graded_tangent_dims(ideal.gens, std.cells).items()))
    # the one-degree query at every reported degree and at seeded degrees
    # of the support box
    per_alpha = report.per_alpha
    rng = random.Random(1301)
    box = alpha_support_box(ideal)
    for alpha in list(per_alpha) + [tuple(rng.randint(lo, hi) for lo, hi in box)
                                    for _ in range(50)]:
        assert graded_dimension(ideal, alpha, std) == per_alpha.get(alpha, 0)


def test_compact_staircases_are_counted_over_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("sets over a dense box")

    monkeypatch.setattr(tangent_module, "_set_sweep", refuse)
    for ideal in (SQUARE, SESSION, power_ideal(4, 3), parse_ideal("x^40,x*y,y^40")):
        assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)


def _entry_points(nvars):
    """Every entry point that takes a standard set, as f(ideal, standard),
    the degree ones at degree 0; the region ones only in three variables."""
    zero = (0,) * nvars
    points = [tangent_dimension, constraint_rank, tangent_dimension_oracle, verify_tangent,
              lambda ideal, std: graded_dimension(ideal, zero, std)]
    if nvars == 3:
        points += [lambda ideal, std, region=region: region(ideal, zero, standard=std)
                   for region in (region_cells, region_slice, region_component_count)]
    return points


def test_kernel_refuses_a_standard_set_past_the_pure_powers():
    std = standard_set(SQUARE)
    wide = StandardSet(3, std.cells | {(2, 0, 0)})  # x^2 is a generator
    wider = StandardSet(3, wide.cells | {(3, 0, 0), (2, 0, 1)})
    # x*y is a generator but no pure power; read as given, this set gives
    # 34 on both paths, against T = 36
    mixed = StandardSet(3, std.cells | {(1, 1, 0)})
    # {1, z, z^2} holds the generator z^2; read as given, the oracle counts
    # 7 for x,y,z^2, whose T is 6
    line = parse_ideal("x,y,z^2")
    column = StandardSet(3, frozenset({(0, 0, 0), (0, 0, 1), (0, 0, 2)}))
    # sets strictly inside the staircase: read as given, the kernel fails
    # with a KeyError and the oracle counts 4 (T = 8), 18 (T = 36) and 6 (T = 8)
    inner = ((parse_ideal("x^2,y^2"), StandardSet(2, frozenset({(0, 0), (1, 0)}))),
             (SQUARE, StandardSet(3, frozenset({(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}))),
             (parse_ideal("x^3,y^2,x*y"), StandardSet(2, frozenset({(0, 0), (1, 0), (0, 1)}))))
    for ideal, cells in ((SQUARE, wide), (SQUARE, wider), (SQUARE, mixed), (line, column),
                         *inner):
        for entry in _entry_points(ideal.nvars):
            with pytest.raises(InvalidStaircaseError):
                entry(ideal, cells)
    for entry in _entry_points(3):
        with pytest.raises(NonArtinianIdealError):
            entry(parse_ideal("x^2,x*y,y^2", nvars=3), std)


@settings(max_examples=60, deadline=None)
@given(artinian_ideals(), st.data())
def test_every_entry_point_refuses_a_standard_set_other_than_the_ideals_own(ideal, data):
    # every proper divisor of a minimal generator is a cell, so the
    # staircase plus one generator is still divisor-closed; a cell of the
    # largest degree divides no other cell, so the staircase without it is
    # divisor-closed too
    cells = standard_set(ideal).cells
    g = data.draw(st.sampled_from(ideal.gens))
    others = [StandardSet(ideal.nvars, cells | {g})]
    if cells:
        others.append(StandardSet(ideal.nvars, cells - {max(cells, key=canonical_key)}))
    for entry in _entry_points(ideal.nvars):
        for std in others:
            with pytest.raises(InvalidStaircaseError):
                entry(ideal, std)


@settings(max_examples=60, deadline=None)
@given(artinian_ideals())
def test_the_ideals_own_standard_set_changes_no_result(ideal):
    std = standard_set(ideal)
    assert tangent_dimension(ideal, std) == tangent_dimension(ideal)
    assert constraint_rank(ideal, std) == constraint_rank(ideal)
    corners = list(product(*alpha_support_box(ideal)))
    for alpha in corners:
        assert graded_dimension(ideal, alpha, std) == graded_dimension(ideal, alpha)
    if len(ideal.gens) * std.size <= ORACLE_SIZE_CAP:
        assert tangent_dimension_oracle(ideal, std) == tangent_dimension_oracle(ideal)
    if ideal.nvars == 3:
        for alpha in corners:
            assert region_component_count(ideal, alpha, standard=std) == \
                region_component_count(ideal, alpha)


@pytest.mark.parametrize("ideal", [SESSION, parse_ideal("x^3,y^2,z^2,x*y*z")],
                         ids=["borel", "taylor"])
def test_a_standard_set_is_packed_once(ideal, monkeypatch):
    calls = []
    for name in ("_pack", "_syzygy_pairs"):
        real = getattr(tangent_module, name)
        monkeypatch.setattr(tangent_module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    std = standard_set(ideal)
    report = tangent_dimension(ideal, std)
    alphas = [alpha for alpha, _dim in report.graded[:3]] + [(-9, 0, 0)]
    assert [graded_dimension(ideal, alpha, std) for alpha in alphas] == \
        [report.per_alpha.get(alpha, 0) for alpha in alphas]
    assert verify_tangent(ideal, std) == report
    assert constraint_rank(ideal, std) == report.zero_rank
    assert calls == ["_pack", "_syzygy_pairs"]
    # the kept data lives on the set a caller holds: a second set of an
    # equal ideal packs again, and so does every call without a set
    assert tangent_dimension(ideal, standard_set(ideal)) == report
    assert calls == ["_pack", "_syzygy_pairs"] * 2
    assert graded_dimension(ideal, alphas[0]) == report.graded[0][1]
    assert calls == ["_pack", "_syzygy_pairs"] * 3


class _WatchedSet(StandardSet):
    """A standard set whose kept packing must not be read."""

    def __getattribute__(self, name):
        if name == "_packing":
            raise AssertionError("kept packing read")
        return super().__getattribute__(name)


def test_a_set_of_another_ideal_is_refused_before_its_kept_data():
    std = standard_set(SQUARE)
    watched = _WatchedSet._trusted(std.nvars, std.cells, std._gens)
    with pytest.raises(AssertionError, match="kept packing"):
        tangent_dimension(SQUARE, watched)
    assert tangent_dimension(SQUARE, std).total == 36
    kept = std._packing
    for entry in _entry_points(3):
        for held in (std, watched):
            with pytest.raises(InvalidStaircaseError):
                entry(SESSION, held)
    assert std._packing is kept
    assert "_packing" not in vars(watched)


@settings(max_examples=100, deadline=None)
@given(st.one_of(artinian_ideals(max_nvars=5), borel_staircases().map(minimal_generators)),
       st.data())
def test_graded_dimension_on_a_kept_set_is_the_reports(ideal, data):
    # one set over many degrees: the support box widened by 2 on each side,
    # its corners, degrees far outside it, and degrees outside it with the
    # code of a supported degree: one more x1 and R_2 = 2 m_2 + 1 fewer x2
    std = standard_set(ideal)
    per_alpha = tangent_dimension(ideal, std).per_alpha
    wide = [(lo - 2, hi + 2) for lo, hi in alpha_support_box(ideal)]
    alphas = data.draw(st.lists(st.tuples(*(st.integers(lo, hi) for lo, hi in wide)),
                                max_size=40))
    supported = list(per_alpha)[:20]
    alphas += supported + list(product(*wide))[:64]
    far = 10**6
    alphas += [(far,) * ideal.nvars, (-far,) * ideal.nvars,
               tuple(far * (-1) ** t for t in range(ideal.nvars))]
    if ideal.nvars > 1:
        carry = (1, 2 * wide[1][0] + 3) + (0,) * (ideal.nvars - 2)
        alphas += [tuple(map(sum, zip(alpha, carry))) for alpha in supported]
    for alpha in alphas:
        assert graded_dimension(ideal, alpha, std) == graded_dimension(ideal, alpha) == \
            per_alpha.get(alpha, 0), alpha


def test_graded_dimension_at_the_corners_of_a_thin_support_box(monkeypatch):
    # x^200, y^200, z^200, xy, xz, yz: the set sweep's staircase, whose
    # pieces at three corners of the support box are 1 and whose pieces one
    # step outside the box are 0
    ideal = THIN[0]
    std = standard_set(ideal)
    assert alpha_support_box(ideal) == ((-200, 199),) * 3

    def refuse(*args):
        raise AssertionError("bit masks over a sparse box")

    monkeypatch.setattr(tangent_module, "_bit_sweep", refuse)
    per_alpha = tangent_dimension(ideal, std).per_alpha
    corners = [(-200, 0, 199), (199, -200, 0), (199, -1, -1)]
    outside = [(-201, 0, 199), (-200, 0, 200), (200, -200, 0), (199, -201, 0), (200, -1, -1)]
    for alpha in corners + outside:
        assert graded_dimension(ideal, alpha, std) == per_alpha.get(alpha, 0) == \
            (1 if alpha in corners else 0), alpha


@settings(max_examples=150, deadline=None)
@given(borel_staircases())
def test_ek_pair_structure(staircase):
    nvars, cells = staircase.nvars, staircase.cells
    gens = tuple(_gens_from_cells(nvars, cells))
    weights, _, codes, cell_codes, _ = _pack(gens, cells)
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


@settings(max_examples=150, deadline=None)
@given(borel_staircases())
def test_ek_pairs_are_the_syzygy_pairs_of_a_borel_staircase(staircase):
    # every Borel staircase passes the pair rule's Borel test, so the scan,
    # which skips the test, builds the same pairs
    nvars, cells = staircase.nvars, staircase.cells
    gens = tuple(_gens_from_cells(nvars, cells))
    weights, _, codes, cell_codes, _ = _pack(gens, cells)
    assert _ek_pairs(gens, codes, weights, cell_codes) == \
        _syzygy_pairs(gens, codes, weights, cell_codes)


def test_non_borel_staircase_falls_back_to_taylor_pairs():
    cells = frozenset({(0, 0), (1, 0)})  # the ideal (y, x^2) is not strongly stable
    ideal = minimal_generators(StandardSet(2, cells))
    assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal) == 4
    assert constraint_rank(ideal) == 0


def _names_in(code) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_in(const)
    return names


KERNEL = {"_weights", "_pack", "_Codes", "_radix", "_syzygy_pairs", "_ek_pairs", "_taylor_pairs",
          "_positions", "_sweep", "_forest_rank", "_bit_sweep", "_set_sweep", "_kernel",
          "_kept_packing", "_degrees", "_total", "tangent_dimension", "graded_dimension"}


def _reached(function) -> set[str]:
    """Names of the tangent module's own functions that a function calls,
    directly or through one another, seen through a cache's wrapper."""
    own = {name for name, value in vars(tangent_module).items()
           if inspect.isfunction(inspect.unwrap(value))
           and value.__module__ == tangent_module.__name__}
    reached, todo = set(), [function]
    while todo:
        names = (_names_in(todo.pop().__code__) & own) - reached
        reached |= names
        todo.extend(inspect.unwrap(getattr(tangent_module, name)) for name in names)
    return reached


def test_kernel_names_cover_the_kernel():
    # _cells_of only validates the caller's standard set; the oracle uses it too
    assert _reached(tangent_dimension) | _reached(_total) <= KERNEL | {"_cells_of"}
    assert KERNEL <= set(vars(tangent_module))


def test_oracle_shares_no_code_with_the_kernel():
    assert not _reached(tangent_dimension_oracle) & KERNEL


def test_sparse_elimination_shares_no_code_with_the_kernel():
    assert not _reached(_bareiss_rank) & KERNEL


def test_graded_dimension_is_the_sweep_at_one_degree():
    # one counting rule: the one-degree query runs the report's sweep, on
    # masks of one bit, over the staircase's kept packing and syzygy pairs;
    # it runs neither the box sweeps nor the report's decoding
    assert _reached(graded_dimension) & KERNEL == {
        "_sweep", "_positions", "_forest_rank", "_kept_packing", "_pack", "_weights",
        "_syzygy_pairs", "_ek_pairs", "_taylor_pairs"}


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_unit_ideal_has_empty_staircase(nvars):
    unit = MonomialIdeal(nvars, ((0,) * nvars,))
    report = tangent_dimension(unit)
    assert (report.total, report.graded, report.l, report.zero_rank) == (0, (), 0, 0)
    assert tangent_dimension_oracle(unit) == 0
    assert graded_dimension(unit, (0,) * nvars) == 0
    assert graded_dimension(unit, (-1,) * nvars) == 0
    assert _total_of_cells(nvars, frozenset()) == 0

