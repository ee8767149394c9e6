import errno
import hashlib
import json
import multiprocessing
import multiprocessing.process
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
from functools import partial
from importlib import resources
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from boreltangent import published_table, scan
from boreltangent.enumeration import (
    _origin,
    _walk_level,
    count_strongly_stable,
    enumerate_strongly_stable,
)
from boreltangent.monomials import (
    MonomialIdeal,
    RedundantGeneratorWarning,
    colength,
    format_ideal,
    parse_ideal,
)
from boreltangent.published_table import TableDataError, expected_table
from boreltangent.scan import (
    CSV_HEADER,
    SCHEMA_VERSION,
    BudgetExceededError,
    MonotonicityVerdict,
    NecessaryVerdict,
    ScanKey,
    ScanRecord,
    TableCell,
    TetrahedralVerdict,
    WorkerLostError,
    check_monotonicity,
    check_necessary_condition,
    check_tetrahedral_max,
    power_ideal,
    reproduce_published_table,
    scan_colength,
    scan_colength_range,
    t_max,
)
from boreltangent.tangent import tangent_dimension


def test_scan_key_validation():
    with pytest.raises(ValueError, match="^colength must be >= 1$"):
        ScanKey(3, 0, 1)
    with pytest.raises(ValueError, match="^m1 must be >= 1$"):
        ScanKey(3, 5, 0)


@pytest.mark.parametrize("nvars", range(1, 6))
@pytest.mark.parametrize("k", range(1, 7))
def test_power_ideal_is_every_monomial_of_degree_k(nvars, k):
    exponents = [e for e in product(range(k + 1), repeat=nvars) if sum(e) == k]
    assert power_ideal(nvars, k) == MonomialIdeal(nvars, tuple(exponents))


@pytest.mark.parametrize("nvars,k", [(0, 2), (3, 0), (-1, 1)])
def test_power_ideal_refuses_nvars_or_k_below_1(nvars, k):
    with pytest.raises(ValueError, match="need nvars >= 1 and k >= 1"):
        power_ideal(nvars, k)


def test_verdict_json_is_plain_json():
    # the JSON text alone cannot tell a tuple from a list, so compare dicts
    cell = TableCell(l=10, k=3, m1=2, expected=46, computed=None, ok=False)
    assert cell.to_json() == {"l": 10, "k": 3, "m1": 2, "expected": 46,
                              "computed": None, "ok": False}
    mono = MonotonicityVerdict(nvars=3, l=13, sequence=((1, 39), (2, 61), (3, 69)),
                               strictly_increasing=True, weakly_increasing=True)
    assert mono.to_json() == {
        "nvars": 3, "l": 13,
        "sequence": [{"m1": 1, "t_max": 39}, {"m1": 2, "t_max": 61}, {"m1": 3, "t_max": 69}],
        "strictly_increasing": True, "weakly_increasing": True}
    nec = NecessaryVerdict(nvars=3, l=4, k=2, t_max=18, argmax_m1=(1, 2),
                           argmax=(parse_ideal("x,y,z^4"), power_ideal(3, 2)),
                           holds=False, unique=False)
    assert nec.to_json() == {
        "nvars": 3, "l": 4, "k": 2, "t_max": 18, "argmax_m1": [1, 2],
        "argmax": ["x,y,z^4", "x^2,x*y,x*z,y^2,y*z,z^2"], "holds": False, "unique": False}
    tet = TetrahedralVerdict(nvars=3, k=2, l=4, t_max=18, power_attains=True,
                             unique=True, n_argmax=1)
    assert tet.to_json() == {"nvars": 3, "k": 2, "l": 4, "t_max": 18,
                             "power_attains": True, "unique": True, "n_argmax": 1}
    for verdict, keys in [(cell, "l k m1 expected computed ok"),
                          (mono, "nvars l sequence strictly_increasing weakly_increasing"),
                          (nec, "nvars l k t_max argmax_m1 argmax holds unique"),
                          (tet, "nvars k l t_max power_attains unique n_argmax")]:
        assert list(verdict.to_json()) == keys.split()


def test_t_max_table_anchors():
    assert t_max(ScanKey(3, 10, 2)).t_max == 46
    assert t_max(ScanKey(3, 10, 3)).t_max == 60
    assert t_max(ScanKey(3, 12, 1)).t_max == 36  # 3l law


def test_t_max_empty_class():
    record = t_max(ScanKey(3, 10, 7))
    assert record.ideal_count == 0
    assert record.t_max is None
    assert record.argmax == ()


def test_argmax_recheck_invariant():
    for l in (11, 12):
        for m1, record in scan_colength(3, l).items():
            assert record.argmax, "nonempty class must carry argmax ideals"
            assert record.ideal_count > 0
            texts = [format_ideal(i) for i in record.argmax]
            assert texts == sorted(texts)
            for ideal, text in zip(record.argmax, texts):
                # the text the record carries is the validated ideal's own
                assert text == format_ideal(MonomialIdeal(ideal.nvars, ideal.gens))
                assert colength(ideal) == l
                assert ideal.pure_powers()[0] == m1
                assert tangent_dimension(ideal).total == record.t_max


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("nvars,lmin,lmax", [(2, 2, 8), (3, 3, 11), (4, 4, 8)])
def test_argmax_lists_against_brute_force(nvars, lmin, lmax, workers):
    records = scan_colength_range(nvars, lmin, lmax, workers=workers)
    for l in range(lmin, lmax + 1):
        ideals = [(ideal, ideal.pure_powers()[0], tangent_dimension(ideal).total)
                  for ideal in enumerate_strongly_stable(nvars, l)]
        assert sorted(records[l]) == sorted({m1 for _ideal, m1, _t in ideals})
        for m1, record in records[l].items():
            members = [(ideal, t) for ideal, m, t in ideals if m == m1]
            assert record.ideal_count == len(members)
            assert record.t_max == max(t for _ideal, t in members)
            assert list(record.argmax) == [ideal for ideal, t in members if t == record.t_max]


def test_partition_consistency():
    records = scan_colength(3, 9)
    global_max = max(r.t_max for r in records.values())
    direct = max(tangent_dimension(i).total for i in enumerate_strongly_stable(3, 9))
    assert global_max == direct
    assert sum(r.ideal_count for r in records.values()) == \
        len(list(enumerate_strongly_stable(3, 9)))


def test_worker_count_determinism():
    one = scan_colength(3, 12, workers=1)
    two = scan_colength(3, 12, workers=2)
    assert multiprocessing.active_children() == []
    assert one == two
    assert all(one[m1].argmax == two[m1].argmax for m1 in one)


def test_check_monotonicity_examples():
    verdict = check_monotonicity(3, 13)
    assert verdict.sequence == ((1, 39), (2, 61), (3, 69))
    assert verdict.strictly_increasing and verdict.weakly_increasing
    short = check_monotonicity(3, 4)
    assert short.sequence == ((1, 12), (2, 18))
    assert short.strictly_increasing


def test_check_necessary_examples():
    verdict = check_necessary_condition(3, 10)
    assert verdict.t_max == 60
    assert verdict.k == 3
    assert verdict.argmax_m1 == (3,)
    assert verdict.holds and verdict.unique
    assert verdict.argmax == (power_ideal(3, 3),)


def test_check_tetrahedral_examples():
    v32 = check_tetrahedral_max(3, 2)
    assert (v32.l, v32.t_max) == (4, 18)
    assert v32.power_attains and v32.unique

    # plane: every colength-6 ideal has T = 12, so m^3 ties with all others
    v23 = check_tetrahedral_max(2, 3)
    assert (v23.l, v23.t_max) == (6, 12)
    assert v23.power_attains
    assert not v23.unique
    assert v23.n_argmax == 4


def test_reproduce_published_table_prefix():
    cells = reproduce_published_table(10, 11)
    assert [(c.l, c.k, c.m1, c.expected, c.computed, c.ok) for c in cells] == [
        (10, 3, 2, 46, 46, True),
        (10, 3, 3, 60, 60, True),
        (11, 3, 2, 49, 49, True),
        (11, 3, 3, 63, 63, True),
    ]


@pytest.mark.parametrize("lmin, lmax", [(5, 8), (36, 40), (12, 11)])
def test_reproduce_published_table_refuses_a_range_outside_it(lmin, lmax):
    with pytest.raises(ValueError, match=rf"l = {lmin}\.\.{lmax} .* range 10\.\.35"):
        reproduce_published_table(lmin, lmax)


def test_reproduce_published_table_clips_a_range_that_overlaps_it(tmp_path):
    # one cache, so that l = 35 is scanned once
    assert reproduce_published_table(5, 12, cache_dir=tmp_path) == \
        reproduce_published_table(10, 12, cache_dir=tmp_path)
    assert reproduce_published_table(35, 40, cache_dir=tmp_path) == \
        reproduce_published_table(35, 35, cache_dir=tmp_path)


BUNDLED_TABLE = resources.files("boreltangent").joinpath("data/tmax_n3.csv").read_bytes()
WRONG_K_TABLE = BUNDLED_TABLE.replace(b"\n11,3,2,49\n", b"\n11,4,2,49\n")
WRONG_M1_TABLE = BUNDLED_TABLE.replace(b"\n11,3,2,49\n", b"\n11,3,1,49\n")
SHORT_TABLE = BUNDLED_TABLE.replace(b"\n11,3,2,49\n", b"\n")


@pytest.mark.parametrize("data, digest, message", [
    (BUNDLED_TABLE, "0" * 64, "does not match the pinned transcription"),
    # a wrong row that its own digest lets through reaches the row check
    (WRONG_K_TABLE, hashlib.sha256(WRONG_K_TABLE).hexdigest(),
     "row l=11 carries k=4, expected 3"),
    (WRONG_M1_TABLE, hashlib.sha256(WRONG_M1_TABLE).hexdigest(), "row l=11 has m1=1 outside 2..k"),
    (SHORT_TABLE, hashlib.sha256(SHORT_TABLE).hexdigest(), "expected 69 table cells, found 68"),
], ids=["digest", "row", "m1", "count"])
def test_the_published_table_refuses_data_it_does_not_pin(monkeypatch, tmp_path, data,
                                                          digest, message):
    assert BUNDLED_TABLE not in (WRONG_K_TABLE, WRONG_M1_TABLE, SHORT_TABLE)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "tmax_n3.csv").write_bytes(data)
    monkeypatch.setattr(published_table, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    monkeypatch.setattr(published_table, "_SHA256", digest)
    # the table is cached: clear it, so that this reads the file above and
    # later tests read the bundled one
    expected_table.cache_clear()
    try:
        with pytest.raises(TableDataError, match=message):
            expected_table()
    finally:
        expected_table.cache_clear()


def test_record_csv_row():
    record = t_max(ScanKey(3, 10, 3))
    row = record.to_csv_row()
    assert row.startswith("3,10,3,0,3,1,60,1,")
    assert CSV_HEADER.count(",") == row.count(",") - row.split('"')[1].count(",")


def test_cache_round_trip(tmp_path):
    fresh = scan_colength(3, 10)
    cached_write = scan_colength(3, 10, cache_dir=tmp_path)
    assert cached_write == fresh
    path = tmp_path / "scan-N3-l10.jsonl"
    assert path.is_file()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(line["schema_version"] == SCHEMA_VERSION for line in lines)
    warm = scan_colength(3, 10, cache_dir=tmp_path)
    assert warm == fresh
    assert all(isinstance(r, ScanRecord) for r in warm.values())


def test_interleaved_stores_of_one_colength_both_land(monkeypatch, tmp_path):
    # both writers reach os.replace before either has replaced: with one
    # temporary name the second found its file already moved
    records = scan_colength(3, 10)
    barrier = threading.Barrier(2, timeout=30)
    replace = os.replace

    def meet_then_replace(src, dst):
        barrier.wait()
        replace(src, dst)

    monkeypatch.setattr(scan.os, "replace", meet_then_replace)
    errors = []

    def store():
        try:
            scan._store_cached(tmp_path, 3, 10, records)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=store) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert scan._load_cached(tmp_path, 3, 10) == records
    assert [p.name for p in tmp_path.iterdir()] == ["scan-N3-l10.jsonl"]


def _half_write(self, data):
    self.write_text("")  # the file exists, then the disk fills
    raise OSError(errno.ENOSPC, "No space left on device")


def _no_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("target, failing", [("Path.write_bytes", _half_write),
                                              ("os.replace", _no_replace)],
                         ids=["write", "replace"])
def test_a_failed_store_leaves_no_temporary_file(monkeypatch, tmp_path, target, failing):
    records = scan_colength(3, 10)
    owner, name = target.split(".")
    monkeypatch.setattr(getattr(scan, owner), name, failing)
    with pytest.raises(OSError):
        scan._store_cached(tmp_path, 3, 10, records)
    assert list(tmp_path.iterdir()) == []


def test_cache_rejects_other_schema(tmp_path):
    scan_colength(3, 8, cache_dir=tmp_path)
    path = tmp_path / "scan-N3-l8.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for line in lines:
        line["schema_version"] = SCHEMA_VERSION + 1
        line["t_max"] = 10 ** 6
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    # stale schema is ignored and the colength is recomputed (and rewritten)
    records = scan_colength(3, 8, cache_dir=tmp_path)
    assert records == scan_colength(3, 8)


ARGMAX_NOT_A_LIST = json.dumps({"schema_version": SCHEMA_VERSION, "nvars": 3, "l": 8, "m1": 2,
                                "ideal_count": 5, "t_max": 30, "argmax": 7, "elapsed": 0.1})


@pytest.mark.parametrize("line", ["this is not json", "[1, 2]", "null", ARGMAX_NOT_A_LIST],
                         ids=["not-json", "array", "null", "argmax-not-a-list"])
def test_cache_rejects_corrupt_file(tmp_path, line):
    path = tmp_path / "scan-N3-l8.jsonl"
    path.write_text(line + "\n")
    records = scan_colength(3, 8, cache_dir=tmp_path)
    assert records == scan_colength(3, 8)


def test_cache_rejects_records_of_another_key(tmp_path):
    scan_colength(3, 8, cache_dir=tmp_path)
    shutil.copy(tmp_path / "scan-N3-l8.jsonl", tmp_path / "scan-N3-l9.jsonl")
    shutil.copy(tmp_path / "scan-N3-l8.jsonl", tmp_path / "scan-N2-l8.jsonl")
    assert scan_colength(3, 9, cache_dir=tmp_path) == scan_colength(3, 9)
    assert scan_colength(2, 8, cache_dir=tmp_path) == scan_colength(2, 8)


def test_cache_rejects_a_file_missing_an_m1_class(tmp_path):
    scan_colength(3, 8, cache_dir=tmp_path)
    path = tmp_path / "scan-N3-l8.jsonl"
    lines = path.read_text().splitlines()
    assert [json.loads(line)["m1"] for line in lines] == [1, 2]
    path.write_text(lines[0] + "\n")
    # half a level is no level: the colength is recomputed and rewritten
    assert scan_colength(3, 8, cache_dir=tmp_path) == scan_colength(3, 8)
    assert [json.loads(line)["m1"] for line in path.read_text().splitlines()] == [1, 2]


def test_cache_rejects_a_repeated_m1_class(tmp_path):
    scan_colength(3, 8, cache_dir=tmp_path)
    path = tmp_path / "scan-N3-l8.jsonl"
    first, second = path.read_text().splitlines()
    bogus = json.loads(second)
    bogus["t_max"] = 10 ** 6
    path.write_text("\n".join([first, second, json.dumps(bogus)]) + "\n")
    assert scan_colength(3, 8, cache_dir=tmp_path) == scan_colength(3, 8)


@pytest.mark.parametrize("nvars,lmax", [(1, 12), (2, 30), (3, 24), (4, 18), (5, 12)])
def test_m1_classes_of_a_level(nvars, lmax):
    # the m1 set a cache file must hold, against uncached scans
    records = scan_colength_range(nvars, 1, lmax)
    for l in range(1, lmax + 1):
        assert set(records[l]) == scan._m1_classes(nvars, l)


def _reverse_and_pad(texts):
    # the same ideal, its generators reversed, plus a redundant multiple
    gens = texts[0].split(",")
    return [",".join(gens[::-1] + [gens[0] + "*z"])] + texts[1:]


@pytest.mark.parametrize("edit", [
    _reverse_and_pad,
    lambda texts: [texts[1], texts[0]] + texts[2:],
    lambda texts: texts[:1] + texts,
], ids=["not-canonical", "out-of-order", "repeated"])
def test_cache_rejects_argmax_texts_out_of_canonical_form(tmp_path, edit):
    scan_colength(3, 9, cache_dir=tmp_path)
    path = tmp_path / "scan-N3-l9.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines[0]["argmax"]) >= 2
    lines[0]["argmax"] = edit(lines[0]["argmax"])
    edited = "".join(json.dumps(line) + "\n" for line in lines)
    path.write_text(edited)
    with warnings.catch_warnings():
        # the edited texts read once before, so their generators are in
        # the text table when the cache reader meets them
        warnings.simplefilter("ignore", RedundantGeneratorWarning)
        for text in lines[0]["argmax"]:
            parse_ideal(text, nvars=3)
    with warnings.catch_warnings():
        # a cache read warns about nothing
        warnings.simplefilter("error")
        records = scan_colength(3, 9, cache_dir=tmp_path)
    assert records == scan_colength(3, 9)
    assert [format_ideal(i) for i in records[1].argmax] == \
        json.loads(path.read_text().splitlines()[0])["argmax"]
    # recomputed and written afresh
    assert path.read_text() != edited


def test_a_cache_read_leaves_the_warning_filters_alone(tmp_path):
    # under the "default" action a warning shows once per call site; a
    # cache read that edited the process's filters would show it again
    scan_colength(3, 9, cache_dir=tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(3):
            parse_ideal("x,x^2,y,z")
            scan_colength(3, 9, cache_dir=tmp_path)
    assert [w.category for w in caught] == [RedundantGeneratorWarning]


# scan-N3-l8.jsonl as the writer of the first schema-1 release wrote it
N3_L8_LINES = [
    '{"schema_version": 1, "nvars": 3, "l": 8, "m1": 1, "ideal_count": 6, "t_max": 24, '
    '"argmax": ["x,y,z^8", "x,y^2,y*z,z^7", "x,y^2,y*z^2,z^6", "x,y^2,y*z^3,z^5", '
    '"x,y^3,y^2*z,y*z^2,z^5", "x,y^3,y^2*z,y*z^3,z^4"], "elapsed": 0.0011092010026914068}',
    '{"schema_version": 1, "nvars": 3, "l": 8, "m1": 2, "ideal_count": 6, "t_max": 36, '
    '"argmax": ["x^2,x*y,y^2,x*z^2,y*z^2,z^4"], "elapsed": 0.0011092010026914068}',
]


def test_cache_serves_a_file_of_the_schema_1_writer(tmp_path):
    path = tmp_path / "scan-N3-l8.jsonl"
    path.write_text("".join(line + "\n" for line in N3_L8_LINES))
    records = scan_colength(3, 8, cache_dir=tmp_path)
    assert records == scan_colength(3, 8)
    # served, not recomputed: the elapsed is the file's, and the file is kept
    assert {r.elapsed for r in records.values()} == {0.0011092010026914068}
    assert path.read_text().splitlines() == N3_L8_LINES


def _file(objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def _with_extra_key(objs):
    objs[0]["note"] = "hand edit"
    return _file(objs)


def _with_keys_reordered(objs):
    return _file(dict(reversed(obj.items())) for obj in objs)


def _with_class_2_argmax_of_class_1(objs):
    # x,y,z^8 has x1 power 1: a canonical text, but of another class
    objs[1]["argmax"] = ["x,y,z^8"]
    return _file(objs)


def _with_first_argmax_respelled(objs):
    # x,y,z^8 as z^8,x^1,y: the same ideal, so only a reader that took the
    # file's text for the ideal's would write it back as it is
    assert objs[0]["argmax"][0] == "x,y,z^8"
    objs[0]["argmax"][0] = "z^8,x^1,y"
    return _file(objs)


@pytest.mark.parametrize("edit", [
    _with_extra_key,
    _with_keys_reordered,
    _with_class_2_argmax_of_class_1,
    _with_first_argmax_respelled,
    lambda objs: _file(objs)[:-1],
    lambda objs: _file(objs).replace("\n", "\r\n"),
], ids=["extra-key", "reordered-keys", "argmax-of-another-class", "argmax-respelled",
        "no-final-newline", "crlf-line-ends"])
def test_cache_serves_only_what_it_writes(tmp_path, edit):
    path = tmp_path / "scan-N3-l8.jsonl"
    path.write_bytes(edit([json.loads(line) for line in N3_L8_LINES]).encode())
    assert path.read_bytes() != "".join(line + "\n" for line in N3_L8_LINES).encode()
    fresh = scan_colength(3, 8)
    assert scan_colength(3, 8, cache_dir=tmp_path) == fresh
    # the colength was recomputed and rewritten as the writer writes it
    rewritten = scan._load_cached(tmp_path, 3, 8)
    assert rewritten == fresh
    assert path.read_bytes() == scan._lines(rewritten).encode()


_job = scan._job


def _slow_job(delay, level, nvars, job, deadline=None):
    if level is None or job[2] == level:
        time.sleep(delay)
    return _job(nvars, job, deadline)


def _slow_jobs(monkeypatch, seconds, level=None):
    """Make every job of one colength (of all, by default) sleep first;
    the walk and the kernel run inside these jobs."""
    monkeypatch.setattr(scan, "_job", partial(_slow_job, seconds, level))


def _slow_pool_job(delay, nvars, job, deadline=None):
    if len(job[0]) > 1:
        time.sleep(delay)
    return _job(nvars, job, deadline)


def _slow_pool_jobs(monkeypatch, seconds):
    """Make every job the root job hands back sleep first; the root, the
    one-cell staircase, runs at full speed in the pool like any other job."""
    monkeypatch.setattr(scan, "_job", partial(_slow_pool_job, seconds))


def _spilled(nvars, l):
    """The jobs the root job of a colength hands back."""
    return _job(nvars, _origin(nvars, l))[2]


def test_budget_breach_does_not_drain_the_pool(monkeypatch):
    # l = 24 (1 193 staircases) outgrows the root job's budget, which starts
    # the pool; every job sent to it sleeps, so that draining the 2 workers
    # would take seconds, and a breach at the first wait must stop them
    # (the budget outlasts the root job, tens of milliseconds)
    outstanding = len(_spilled(3, 24))
    assert outstanding >= 2
    delay = 2.0
    queued = outstanding * delay / 2
    _slow_pool_jobs(monkeypatch, delay)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match=f"N=3 l=24 with {outstanding} jobs outstanding"):
        scan_colength(3, 24, workers=2, budget_seconds=0.5)
    elapsed = time.monotonic() - started
    assert elapsed < queued / 2, f"scan {elapsed:.2f}s, queued work {queued:.2f}s per worker"
    assert multiprocessing.active_children() == []


def test_budget_bounds_a_deep_colength():
    # l = 40 (48 545 staircases) takes seconds at 2 workers; the wait for
    # the pool's jobs ends at the budget, and the pool is torn down with it
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match="N=3 l=40 with"):
        scan_colength(3, 40, workers=2, budget_seconds=0.2)
    assert time.monotonic() - started < 1.0
    assert multiprocessing.active_children() == []


def test_budget_bounds_each_wait(monkeypatch):
    # a pool job that runs past the budget is not waited for
    _slow_pool_jobs(monkeypatch, 2.0)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match="N=3 l=24 with"):
        scan_colength(3, 24, workers=2, budget_seconds=0.3)
    assert time.monotonic() - started < 1.2
    assert multiprocessing.active_children() == []


def _failing_pool_job(nvars, job, deadline=None):
    if len(job[0]) > 1:
        raise ArithmeticError(f"job failed at l={job[2]}")
    return _job(nvars, job, deadline)


def test_pool_job_error_surfaces(monkeypatch):
    # with no budget every wait is unbounded, so the error a pool worker
    # raises must come back through the job's callback and stop the scan
    monkeypatch.setattr(scan, "_job", _failing_pool_job)
    with pytest.raises(ArithmeticError, match="job failed at l=24"):
        scan_colength(3, 24, workers=2)
    assert multiprocessing.active_children() == []


#: a job monkeypatched into the scan reaches its workers only when they fork
needs_fork = pytest.mark.skipif(scan._WORKER_CONTEXT.get_start_method() != "fork",
                                reason="workers do not fork here")


def _first(flag) -> bool:
    """True for the one caller, of any process, that makes the file flag."""
    try:
        os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _exit_at_l12(flag, nvars, job, deadline=None):
    """Kill the worker at the first job of l = 12, or at each one when flag is None."""
    if job[2] == 12 and (flag is None or _first(flag)):
        os._exit(137)
    return _job(nvars, job, deadline)


@needs_fork
def test_a_lost_job_runs_again(monkeypatch, tmp_path):
    # the worker dies mid-job and sends no reply: the job goes to a fresh
    # worker, and the records are a clean scan's
    clean = scan_colength_range(3, 10, 14, workers=2)
    monkeypatch.setattr(scan, "_job", partial(_exit_at_l12, tmp_path / "died"))
    started = time.monotonic()
    assert scan_colength_range(3, 10, 14, workers=2) == clean
    assert time.monotonic() - started < 5.0
    assert (tmp_path / "died").exists()
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("budget_seconds", [None, 60.0])
def test_a_job_that_always_kills_its_worker_stops_the_scan(monkeypatch, budget_seconds):
    # within 5 s, with the budget far off or none at all
    clean = scan_colength_range(3, 10, 14, workers=2)
    monkeypatch.setattr(scan, "_job", partial(_exit_at_l12, None))
    started = time.monotonic()
    with pytest.raises(WorkerLostError, match=f"^{scan.LOST_JOB_RERUNS + 1} workers died mid-job "
                       "scanning N=3, the last at l=12 with exit code 137;") as err:
        scan_colength_range(3, 10, 14, workers=2, budget_seconds=budget_seconds)
    assert time.monotonic() - started < 5.0
    assert 12 not in err.value.completed
    assert all(records == clean[l] for l, records in err.value.completed.items())
    assert multiprocessing.active_children() == []


_KILLED_PARENT = """
import os, time
from boreltangent import scan

job = scan._job

def slow(nvars, task, deadline=None):
    os.write(1, b"%d\\n" % os.getpid())
    time.sleep(2.0 if task[2] == 11 else 0.0)
    return job(nvars, task, deadline)

scan._job = slow
scan.scan_colength_range(3, 10, 11, workers=2)
"""


def _gone(pid) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@needs_fork
def test_workers_exit_once_the_scan_process_is_killed():
    # the scan is SIGKILLed with one worker idle after l = 10 and one in the
    # job of l = 11: the idle one reads end of file at once, and the busy
    # one finds the parent gone when it replies
    env = dict(os.environ, PYTHONPATH=str(Path(scan.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-c", _KILLED_PARENT], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            workers = {int(proc.stdout.readline()) for _ in range(2)}
            time.sleep(0.3)
        finally:
            proc.kill()
        deadline = time.monotonic() + 10.0
        while not all(map(_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if not _gone(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []
        assert proc.stderr.read() == ""


def test_a_job_error_carries_the_worker_traceback(monkeypatch):
    monkeypatch.setattr(scan, "_job", _failing_pool_job)
    with pytest.raises(ArithmeticError) as err:
        scan_colength(3, 24, workers=2)
    assert "in _failing_pool_job" in err.value.__notes__[-1]
    assert multiprocessing.active_children() == []


def test_budget_bounds_the_walk_in_process():
    # at one worker nothing can time out a wait: each job's walk checks the
    # deadline itself, however many jobs l = 30 has spilled by then
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match=r"N=3 l=30 with \d+ jobs outstanding"):
        scan_colength(3, 30, budget_seconds=0.3)
    assert time.monotonic() - started < 1.5


def test_budget_counts_growth(monkeypatch):
    _slow_jobs(monkeypatch, 0.5, level=10)
    with pytest.raises(BudgetExceededError, match="N=3 l=10"):
        scan_colength(3, 10, budget_seconds=0.3)


def test_budget_breach_keeps_finished_colengths(monkeypatch, tmp_path):
    _slow_jobs(monkeypatch, 0.5, level=8)
    with pytest.raises(BudgetExceededError, match="N=3 l=8") as err:
        scan_colength_range(3, 5, 9, budget_seconds=0.3, cache_dir=tmp_path)
    completed = err.value.completed
    assert sorted(completed) == [5, 6, 7]
    for l in (5, 6, 7):
        assert (tmp_path / f"scan-N3-l{l}.jsonl").is_file()
    assert not (tmp_path / "scan-N3-l8.jsonl").exists()
    # a rerun without the budget (or the sleeps) serves the flushed
    # colengths from the cache (their elapsed is the first run's) and scans
    # the rest
    monkeypatch.undo()
    full = scan_colength_range(3, 5, 9, cache_dir=tmp_path)
    assert sorted(full) == [5, 6, 7, 8, 9]
    for l in (5, 6, 7):
        assert full[l] == completed[l]
        assert all(full[l][m1].elapsed == completed[l][m1].elapsed for m1 in full[l])


def test_budget_bounds_the_whole_range(monkeypatch):
    # one deadline for the whole scan: every job sleeps 0.2 s, so l = 5 and
    # 6 finish inside the 0.5 s budget and l = 7 runs past it, though no
    # one colength takes the budget
    _slow_jobs(monkeypatch, 0.2)
    with pytest.raises(BudgetExceededError, match="N=3 l=7") as err:
        scan_colength_range(3, 5, 9, budget_seconds=0.5)
    assert sorted(err.value.completed) == [5, 6]


def test_budget_seconds_zero(monkeypatch):
    # the budget is spent before the first job runs, so the scan must
    # raise without running one; each job here would take a second
    _slow_jobs(monkeypatch, 1.0)
    started = time.monotonic()
    with pytest.raises(BudgetExceededError, match="l=10 with 1 jobs outstanding"):
        scan_colength(3, 10, budget_seconds=0.0)
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget_seconds", [float("inf"), 1e300])
def test_an_infinite_budget_is_no_bound(workers, budget_seconds):
    # l = 24 outgrows one job, so at 2 workers the scan waits on the pool
    assert scan_colength(3, 24, workers=workers, budget_seconds=budget_seconds) == \
        scan_colength(3, 24)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget_seconds", [float("nan"), -1.0, -1e-9])
def test_a_negative_or_nan_budget_is_refused(workers, budget_seconds):
    with pytest.raises(ValueError, match="budget_seconds must be >= 0"):
        scan_colength(3, 24, workers=workers, budget_seconds=budget_seconds)
    assert multiprocessing.active_children() == []


def test_a_bad_range_or_worker_count_is_refused(tmp_path):
    with pytest.raises(ValueError, match="need 1 <= lmin <= lmax"):
        scan_colength_range(3, 9, 8, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="need 1 <= lmin <= lmax"):
        scan_colength_range(3, 0, 8, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        scan_colength_range(3, 8, 8, workers=0, cache_dir=tmp_path)
    # refused before any work: nothing was scanned or cached
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_cache_path_that_is_a_file_is_refused_before_any_walk(monkeypatch, tmp_path, workers):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")

    def no_job(*args, **kwargs):
        pytest.fail("a job ran before the cache path was checked")

    monkeypatch.setattr(scan, "_job", no_job)
    with pytest.raises(FileExistsError):
        scan_colength_range(3, 8, 30, workers=workers, cache_dir=not_a_dir)
    assert not_a_dir.read_text() == ""
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("nvars", [0, -2])
def test_fewer_than_one_variable_is_refused(tmp_path, nvars, workers):
    with pytest.raises(ValueError, match="nvars must be >= 1"):
        scan_colength_range(nvars, 5, 5, workers=workers, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="nvars must be >= 1"):
        check_monotonicity(nvars, 5, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("budget", [1, 2, scan.JOB_BUDGET])
def test_jobs_cover_each_level_once(monkeypatch, budget):
    # run by hand, the jobs of a colength meet each of its staircases once,
    # and a job hands back children only after it has spent its budget
    monkeypatch.setattr(scan, "JOB_BUDGET", budget)
    met = []
    monkeypatch.setattr(scan, "_total", lambda gens, cells: met.append(frozenset(cells)) or 0)
    for l in (5, 9, 20):
        met.clear()
        todo = [_origin(3, l)]
        while todo:
            job = todo.pop()
            assert len(job[0]) < l
            _l, stats, new = _job(3, job)
            scanned = sum(count for count, _t, _a in stats.values())
            assert scanned >= budget or not new
            todo.extend(new)
        assert len(met) == len(set(met))
        level = []
        _walk_level(3, l, lambda cells, _corners, _m1: level.append(frozenset(cells)))
        assert set(met) == set(level)
    monkeypatch.undo()
    # through the scan, at every worker count: the small budgets are what
    # split these levels into several jobs, the default budget never does
    monkeypatch.setattr(scan, "JOB_BUDGET", budget)
    for l in (5, 9, 20):
        one = scan_colength(3, l)
        assert sum(record.ideal_count for record in one.values()) == count_strongly_stable(3, l)
        for workers in (2, 3):
            assert scan_colength(3, l, workers=workers) == one
            assert multiprocessing.active_children() == []


def _no_process(*args, **kwargs):
    pytest.fail("a worker process was started")


def test_one_worker_never_creates_a_pool(monkeypatch):
    # nor any process: neither for levels that fit one job each (l =
    # 10..18) nor for one that spills (l = 24)
    assert not any(_spilled(3, l) for l in range(10, 19)) and _spilled(3, 24)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _no_process)
    assert _records_digest(scan_colength_range(3, 10, 18)) == PINNED_N3_L10_18
    records = scan_colength(3, 24)
    assert sum(record.ideal_count for record in records.values()) == count_strongly_stable(3, 24)


def test_a_colength_of_one_job_starts_one_worker(monkeypatch):
    # workers start on demand, so the one job of l = 15 forks one process
    # however many workers the scan may use
    assert not _spilled(3, 15)
    one = scan_colength(3, 15)
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: started.append(process) or start(process))
    assert scan_colength(3, 15, workers=4) == one
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def _job_outside(parent, nvars, job, deadline=None):
    if os.getpid() == parent:
        raise AssertionError(f"a job of l={job[2]} ran in the parent")
    return _job(nvars, job, deadline)


def test_several_workers_run_every_job_in_the_pool(monkeypatch):
    # even levels that fit one job each: the parent only sends and merges
    monkeypatch.setattr(scan, "_job", partial(_job_outside, os.getpid()))
    assert _records_digest(scan_colength_range(3, 10, 18, workers=2)) == PINNED_N3_L10_18
    assert multiprocessing.active_children() == []


def test_records_agree_at_any_worker_count_n4(monkeypatch):
    # the largest level, l = 16, holds 289 staircases: within the default
    # budget, so budget 1 is what splits these levels into several jobs
    one = _records_digest(scan_colength_range(4, 8, 16, workers=1))
    for budget in (scan.JOB_BUDGET, 1):
        monkeypatch.setattr(scan, "JOB_BUDGET", budget)
        for workers in (2, 3):
            assert _records_digest(scan_colength_range(4, 8, 16, workers=workers)) == one
            assert multiprocessing.active_children() == []


def _records_digest(records):
    """SHA-256 over every record's key, ideal count, t_max and argmax
    texts, as the benchmark's table_n3 workload pins it; elapsed is left out."""
    rows = [[l, m1, rec.ideal_count, rec.t_max, [format_ideal(a) for a in rec.argmax]]
            for l in sorted(records) for m1, rec in sorted(records[l].items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


PINNED_N3_L10_18 = "8f97fd43a4d6b8bd040c36bce680f353d52f7a268884a1f295238c25612d13d0"


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_records_are_pinned(workers):
    records = scan_colength_range(3, 10, 18, workers=workers)
    assert _records_digest(records) == PINNED_N3_L10_18


def test_scan_range_shares_one_pass():
    ranged = scan_colength_range(3, 6, 9)
    assert sorted(ranged) == [6, 7, 8, 9]
    for l in range(6, 10):
        assert ranged[l] == scan_colength(3, l)


def test_record_json_round_trip():
    record = t_max(ScanKey(3, 9, 2))
    obj = record.to_json()
    assert obj["schema_version"] == SCHEMA_VERSION
    assert obj["t_max"] == record.t_max
    assert obj["argmax"] == [format_ideal(i) for i in record.argmax]
    parsed = [parse_ideal(text, nvars=3) for text in obj["argmax"]]
    assert tuple(parsed) == record.argmax
