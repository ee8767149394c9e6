"""Acceptance suite: one test per criterion, at its stated tolerance.

Every quantitative comparison here is exact (tolerance zero).  The heavy
colength scan (N=3, l = 10..35, 8 workers) runs once in a session fixture
and is shared through its cache directory by the table, monotonicity, and
necessary-condition criteria.
"""

import time
from pathlib import Path

import pytest
from oracles import (
    distinct_partition_count,
    is_borel_staircase,
    iter_order_ideal_levels,
    iter_partitions,
    partition_staircase,
)

from boreltangent.enumeration import count_strongly_stable, enumerate_strongly_stable
from boreltangent.monomials import (
    StandardSet,
    minimal_generators,
    parse_ideal,
    standard_set,
)
from boreltangent.region3d import write_discrepancy_report
from boreltangent.scan import (
    check_monotonicity,
    check_necessary_condition,
    reproduce_published_table,
    scan_colength,
    scan_colength_range,
)
from boreltangent.tangent import (
    constraint_rank,
    tangent_dimension,
    tangent_dimension_oracle,
)

WORKERS = 8
TABLE_BUDGET_SECONDS = 3600.0
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scan_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("scan-cache"))


@pytest.fixture(scope="session")
def full_table_scan(scan_cache):
    started = time.monotonic()
    records = scan_colength_range(3, 10, 35, workers=WORKERS, cache_dir=scan_cache)
    elapsed = time.monotonic() - started
    return records, elapsed


def test_criterion_1_table_reproduction(full_table_scan, scan_cache):
    """All published cells for N=3, l=10..35, m1=2..k, zero tolerance."""
    _records, elapsed = full_table_scan
    cells = reproduce_published_table(10, 35, cache_dir=scan_cache)
    assert len(cells) == 69
    bad = [c for c in cells if not c.ok]
    assert not bad, f"table mismatches: {bad}"
    anchors = {(c.l, c.m1): c.computed for c in cells}
    assert anchors[(10, 2)] == 46
    assert anchors[(10, 3)] == 60
    assert anchors[(19, 3)] == 123
    assert anchors[(20, 4)] == 150
    assert anchors[(28, 4)] == 190
    assert anchors[(31, 3)] == 207
    assert anchors[(35, 5)] == 315
    assert elapsed < TABLE_BUDGET_SECONDS
    print(f"\nACCEPTANCE 1 PASS: 69/69 table cells exact "
          f"(scan {elapsed:.1f}s with {WORKERS} workers)")


def test_criterion_2_worked_anchor():
    """T((x,y,z^2)^2) = 36 with 12 zero vectors, in under a second."""
    ideal = parse_ideal("x^2,x*y,y^2,x*z^2,y*z^2,z^4")
    started = time.monotonic()
    report = tangent_dimension(ideal)
    rank = constraint_rank(ideal)
    elapsed = time.monotonic() - started
    assert report.total == 36
    assert rank == 12
    assert report.g * report.l == 48
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: T = 6*8 - 12 = 36 in {elapsed * 1000:.0f} ms")


def test_criterion_3_m1_equals_one_law(scan_cache, full_table_scan):
    """T_max at m1 = 1 equals 3l for every colength up to 20."""
    for l in range(1, 21):
        records = scan_colength(3, l, cache_dir=scan_cache)
        assert records[1].t_max == 3 * l, f"l={l}: {records[1].t_max} != {3 * l}"
    print("\nACCEPTANCE 3 PASS: T_max,m1=1(l) = 3l for l = 1..20")


def test_criterion_4_oracle_equivalence():
    """Graded syzygy-graph totals equal the exact matrix oracle,
    exhaustively for N=3 l<=10 and N=4 l<=6."""
    checked = 0
    for l in range(1, 11):
        for ideal in enumerate_strongly_stable(3, l):
            assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)
            checked += 1
    for l in range(1, 7):
        for ideal in enumerate_strongly_stable(4, l):
            assert tangent_dimension(ideal).total == tangent_dimension_oracle(ideal)
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} ideals, zero mismatches")


def test_criterion_5_plane_smoothness():
    """T(I) = 2l for every monomial ideal of the plane, l <= 12."""
    checked = 0
    for l in range(1, 13):
        for partition in iter_partitions(l):
            staircase = StandardSet(2, partition_staircase(partition))
            ideal = minimal_generators(staircase)
            total = tangent_dimension(ideal, standard=staircase).total
            assert total == 2 * l, f"{ideal}: {total} != {2 * l}"
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: {checked} plane ideals, all T = 2l")


def test_criterion_6_enumeration_soundness_completeness():
    """Enumeration equals the brute-force order-ideal oracle for N<=3,
    l<=10; N=2 counts equal the distinct-part partition numbers to l=20."""
    for nvars in (1, 2, 3):
        for l, staircases in iter_order_ideal_levels(nvars, 10):
            expected = {cells for cells in staircases if is_borel_staircase(cells, nvars)}
            got = list(enumerate_strongly_stable(nvars, l))
            assert len(got) == len(set(got)), "duplicate emission"
            assert {standard_set(ideal).cells for ideal in got} == expected, f"N={nvars} l={l}"
    for l in range(1, 21):
        assert count_strongly_stable(2, l) == distinct_partition_count(l)
    print("\nACCEPTANCE 6 PASS: enumeration sound, complete, and counted")


def test_criterion_7_monotonic_and_necessary(full_table_scan, scan_cache):
    """Strict monotonicity in m1 and m1 = k at the global argmax, l=10..35."""
    for l in range(10, 36):
        mono = check_monotonicity(3, l, cache_dir=scan_cache)
        assert mono.strictly_increasing, f"l={l}: {mono.sequence}"
        necessary = check_necessary_condition(3, l, cache_dir=scan_cache)
        assert necessary.holds, f"l={l}: argmax m1 {necessary.argmax_m1} != k={necessary.k}"
    print("\nACCEPTANCE 7 PASS: strictly increasing and m1 = k for l = 10..35")


def test_criterion_8_worker_determinism():
    """Identical records, argmax lists included, for 1, 2, and 8 workers."""
    runs = {w: scan_colength(3, 20, workers=w) for w in (1, 2, 8)}
    assert runs[1] == runs[2] == runs[8]
    for m1 in runs[1]:
        assert runs[1][m1].argmax == runs[2][m1].argmax == runs[8][m1].argmax
    print("\nACCEPTANCE 8 PASS: scan identical for worker counts 1, 2, 8")


def test_criterion_9_region3d_reconciliation(tmp_path):
    """The committed region-vs-graded discrepancy report regenerates
    byte-for-byte; tangent values never depend on region3d."""
    import json

    committed = REPO_ROOT / "reports" / "region3d_discrepancies_n3_l8.jsonl"
    assert committed.is_file(), "discrepancy report must be committed"
    fresh_path = tmp_path / committed.name
    count = write_discrepancy_report(fresh_path, max_colength=8)
    assert fresh_path.read_bytes() == committed.read_bytes()
    fresh = committed.read_text(encoding="utf-8").splitlines()
    assert count == len(fresh)
    for line in fresh:
        record = json.loads(line)
        assert record["region_count"] != record["graded_dim"]
    print(f"\nACCEPTANCE 9 PASS: {len(fresh)} discrepancies regenerate exactly; "
          "criteria 1-5 ran entirely on the tangent module")
