"""Colength-scale scans: T_max per m1 class, table reproduction, and the
monotonicity / necessary-condition / tetrahedral-maximum checks.

A scan of colength l computes T(I) at every Borel staircase of that
colength and keeps the maximum and *all* attaining ideals per m1 class
(ties carry the scientific content, so they are never discarded).

The work is cut into subtrees of the reverse-search walk of
:mod:`.enumeration`.  The parent walks to a shallow depth d, the first
with at least ``8 * workers`` staircases, and each pending colength l gets
one task per staircase of depth min(l, d).  A task walks its subtree down
to size l and runs the tangent kernel at every staircase there on the
corners the walk carries; it returns, per m1 class, the count, the maximum
and the staircases attaining it.  The tasks of every pending colength go
through one ``imap_unordered`` stream of a pool (a plain ``map`` at one
worker), and a colength is merged, cached and counted as completed as soon
as its last task returns.  The merge ignores the order of the tasks, and
each argmax list is sorted into canonical order, so results are identical
for any worker count.

Completed colengths are cached as JSONL files (``scan-N{N}-l{l}.jsonl``,
one record per m1 class, schema-versioned); reruns skip cached colengths,
which is also how budget-interrupted scans resume.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .enumeration import _canonical, _descend, _level
from .monomials import (
    MonomialIdeal,
    _m1_of_cells,
    format_ideal,
    k_of_l,
    parse_ideal,
    tetrahedral,
)
from .published_table import TABLE_LMAX, TABLE_LMIN, expected_cells
from .tangent import _total

SCHEMA_VERSION = 1

#: environment variable holding the default cache directory
CACHE_ENV_VAR = "BORELTANGENT_CACHE"


class BudgetExceededError(RuntimeError):
    """A per-colength wall-clock budget was exceeded.

    The clock of a colength runs from the end of the previous completed
    colength (or the start of the scan), so it counts the walk and the
    tangent computations.  With a pool every wait for a subtree task is
    bounded by the time left; in process the walk checks the deadline at
    every staircase it scans.

    ``completed`` holds the records of every colength finished before the
    breach (already flushed to the cache when caching is enabled).
    """

    def __init__(self, message: str, completed=None):
        super().__init__(message)
        self.completed = completed or {}


@dataclass(frozen=True)
class ScanKey:
    nvars: int
    l: int
    m1: int

    def __post_init__(self) -> None:
        if self.nvars < 1 or self.l < 1 or self.m1 < 1:
            raise ValueError("ScanKey fields must be >= 1")


@dataclass(frozen=True)
class ScanRecord:
    """Result of maximizing T over one (nvars, l, m1) class.

    ``argmax`` lists every attaining ideal in canonical order.  ``elapsed``
    is the wall time from the end of the previous completed colength (or
    the start of the scan) to the end of this one, and is excluded from
    equality so cached records compare equal to fresh ones.
    """

    key: ScanKey
    ideal_count: int
    t_max: int | None
    argmax: tuple[MonomialIdeal, ...]
    elapsed: float = field(compare=False, default=0.0)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "nvars": self.key.nvars,
            "l": self.key.l,
            "m1": self.key.m1,
            "ideal_count": self.ideal_count,
            "t_max": self.t_max,
            "argmax": [format_ideal(i) for i in self.argmax],
            "elapsed": self.elapsed,
        }

    def to_csv_row(self) -> str:
        k, delta = k_of_l(self.key.nvars, self.key.l)
        first = format_ideal(self.argmax[0]) if self.argmax else ""
        t = "" if self.t_max is None else self.t_max
        return (f"{self.key.nvars},{self.key.l},{k},{delta},{self.key.m1},"
                f"{self.ideal_count},{t},{len(self.argmax)},\"{first}\"")


CSV_HEADER = "N,l,k,delta,m1,ideal_count,t_max,n_argmax,first_argmax"


def _record_from_json(obj) -> ScanRecord | None:
    if not (isinstance(obj, dict) and obj.get("schema_version") == SCHEMA_VERSION
            and all(type(obj.get(k)) is int for k in ("nvars", "l", "m1", "ideal_count", "t_max"))
            and type(obj.get("elapsed")) is float and type(obj.get("argmax")) is list
            and all(type(text) is str for text in obj["argmax"])):
        return None
    key = ScanKey(obj["nvars"], obj["l"], obj["m1"])
    argmax = tuple(parse_ideal(text, nvars=key.nvars) for text in obj["argmax"])
    return ScanRecord(key=key, ideal_count=obj["ideal_count"], t_max=obj["t_max"],
                      argmax=argmax, elapsed=obj["elapsed"])


def _cache_file(cache_dir, nvars: int, l: int) -> Path:
    return Path(cache_dir) / f"scan-N{nvars}-l{l}.jsonl"


def _load_cached(cache_dir, nvars: int, l: int) -> dict[int, ScanRecord] | None:
    records: dict[int, ScanRecord] = {}
    try:
        for line in _cache_file(cache_dir, nvars, l).read_text(encoding="utf-8").splitlines():
            record = _record_from_json(json.loads(line))
            if record is None or (record.key.nvars, record.key.l) != (nvars, l):
                return None
            records[record.key.m1] = record
    except (OSError, ValueError):
        return None
    return records or None


def _store_cached(cache_dir, nvars: int, l: int, records: dict[int, ScanRecord]) -> None:
    path = _cache_file(cache_dir, nvars, l)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".jsonl.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for m1 in sorted(records):
            fh.write(json.dumps(records[m1].to_json()) + "\n")
    os.replace(tmp, path)


def _fold(stats: dict[int, list], m1: int, count: int, total: int, argmax: list) -> None:
    """Fold [count, t_max, argmax] of some staircases into the per-m1 stats."""
    entry = stats.get(m1)
    if entry is None:
        stats[m1] = [count, total, argmax]
        return
    entry[0] += count
    if total > entry[1]:
        entry[1:] = total, argmax
    elif total == entry[1]:
        entry[2].extend(argmax)


def _subtree_task(nvars: int, task, deadline: float | None = None) -> tuple[int, dict[int, list]]:
    """Walk one subtree down to size l and run the kernel at every staircase
    there: (l, {m1: [count, t_max, the argmax staircases' corner tuples]}).
    Raises multiprocessing.TimeoutError past a ``time.monotonic()``
    deadline.  Module-level so that pool workers can unpickle it."""
    (cells, corners), l = task
    stats: dict[int, list] = {}

    def visit(cells, corners):
        if deadline is not None and time.monotonic() > deadline:
            raise multiprocessing.TimeoutError
        gens = tuple(corners)
        _fold(stats, _m1_of_cells(cells), 1, _total(gens, cells), [gens])

    _descend(nvars, cells, corners, l, visit)
    return l, stats


def _records(nvars: int, l: int, merged: dict[int, list], elapsed: float) -> dict[int, ScanRecord]:
    """A colength's records from its merged stats, argmax lists in canonical order."""
    return {m1: ScanRecord(key=ScanKey(nvars, l, m1), ideal_count=count, t_max=total,
                           argmax=tuple(MonomialIdeal(nvars, gens) for _text, gens, _
                                        in _canonical(nvars, ((None, g) for g in argmax))),
                           elapsed=elapsed)
            for m1, (count, total, argmax) in sorted(merged.items())}


def _tasks(nvars: int, pending: list[int], workers: int) -> list:
    """((cells, corners), l) for every subtree of every pending colength:
    the roots of l are its staircases of depth min(l, d), with d the first
    depth holding at least 8 * workers staircases."""
    levels = {1: _level(nvars, 1)}
    depth = 1
    while len(levels[depth]) < 8 * workers and depth < max(pending):
        depth += 1
        levels[depth] = _level(nvars, depth)
    return [(root, l) for l in pending for root in levels[min(l, depth)]]


def scan_colength_range(nvars: int, lmin: int, lmax: int, *, workers: int = 1,
                        cache_dir=None, budget_seconds=None) -> dict[int, dict[int, ScanRecord]]:
    """Scan every colength in lmin..lmax; returns {l: {m1: ScanRecord}}.

    Colengths already in the cache are not recomputed; freshly scanned ones
    are written to the cache as they complete, so an interrupted run
    resumes where it stopped.
    """
    if not 1 <= lmin <= lmax:
        raise ValueError("need 1 <= lmin <= lmax")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    results: dict[int, dict[int, ScanRecord]] = {}
    pending = []
    for l in range(lmin, lmax + 1):
        cached = _load_cached(cache_dir, nvars, l) if cache_dir else None
        if cached is not None:
            results[l] = cached
        else:
            pending.append(l)
    if not pending:
        return results

    # the pool's exit terminates it on every path: once the loop ends no
    # task is outstanding, and after a failure queued tasks are useless
    with multiprocessing.Pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        started = time.monotonic()
        tasks = _tasks(nvars, pending, workers)
        if pool is not None:
            stream = pool.imap_unordered(partial(_subtree_task, nvars), tasks)
        total = Counter(l for _root, l in tasks)
        done = Counter()
        merged: dict[int, dict[int, list]] = {l: {} for l in pending}
        for task in tasks:
            deadline = None if budget_seconds is None else started + budget_seconds
            try:
                if deadline is not None and time.monotonic() >= deadline:
                    raise multiprocessing.TimeoutError
                if pool is None:
                    # in process the walk itself watches the deadline
                    l, stats = _subtree_task(nvars, task, deadline)
                else:
                    left = None if deadline is None else deadline - time.monotonic()
                    l, stats = stream.next(timeout=left)
            except multiprocessing.TimeoutError:
                late = min(l for l in pending if l not in results)
                raise BudgetExceededError(
                    f"budget of {budget_seconds}s exceeded scanning N={nvars} l={late} "
                    f"after {done[late]} of {total[late]} subtrees", completed=results) from None
            for m1, entry in stats.items():
                _fold(merged[l], m1, *entry)
            done[l] += 1
            if done[l] == total[l]:
                now = time.monotonic()
                results[l] = _records(nvars, l, merged.pop(l), now - started)
                if cache_dir:
                    _store_cached(cache_dir, nvars, l, results[l])
                started = now
    return dict(sorted(results.items()))


def scan_colength(nvars: int, l: int, **kwargs) -> dict[int, ScanRecord]:
    """All m1-class records at one colength."""
    return scan_colength_range(nvars, l, l, **kwargs)[l]


def t_max(key: ScanKey, **kwargs) -> ScanRecord:
    """The record for one (nvars, l, m1) class; an empty record (count 0,
    no t_max) when the class is not realized."""
    records = scan_colength(key.nvars, key.l, **kwargs)
    found = records.get(key.m1)
    if found is not None:
        return found
    return ScanRecord(key=key, ideal_count=0, t_max=None, argmax=())


@dataclass(frozen=True)
class TableCell:
    l: int
    k: int
    m1: int
    expected: int
    computed: int | None
    ok: bool

    def to_json(self) -> dict:
        return {"l": self.l, "k": self.k, "m1": self.m1,
                "expected": self.expected, "computed": self.computed, "ok": self.ok}


def reproduce_published_table(lmin: int = TABLE_LMIN, lmax: int = TABLE_LMAX, *,
                          workers: int = 1, cache_dir=None,
                          budget_seconds=None) -> list[TableCell]:
    """Recompute the published T_max table cells and compare exactly.

    A mismatching cell is reported with ok=False, never raised: mismatch is
    data.
    """
    lmin = max(lmin, TABLE_LMIN)
    lmax = min(lmax, TABLE_LMAX)
    records = scan_colength_range(3, lmin, lmax, workers=workers,
                                  cache_dir=cache_dir, budget_seconds=budget_seconds)
    cells = []
    for l in range(lmin, lmax + 1):
        k = k_of_l(3, l)[0]
        per_m1 = records[l]
        for m1, expected in expected_cells(l):
            record = per_m1.get(m1)
            computed = record.t_max if record is not None else None
            cells.append(TableCell(l=l, k=k, m1=m1, expected=expected,
                                   computed=computed, ok=computed == expected))
    return cells


@dataclass(frozen=True)
class MonotonicityVerdict:
    """T_max per realized m1 class at one colength, with both readings of
    "increasing" (the table is strict everywhere, but the conjecture's word
    is checked in both senses)."""

    nvars: int
    l: int
    sequence: tuple[tuple[int, int], ...]
    strictly_increasing: bool
    weakly_increasing: bool

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "l": self.l,
                "sequence": [{"m1": m1, "t_max": t} for m1, t in self.sequence],
                "strictly_increasing": self.strictly_increasing,
                "weakly_increasing": self.weakly_increasing}


def check_monotonicity(nvars: int, l: int, **kwargs) -> MonotonicityVerdict:
    records = scan_colength(nvars, l, **kwargs)
    sequence = tuple((m1, records[m1].t_max) for m1 in sorted(records))
    values = [t for _m1, t in sequence]
    return MonotonicityVerdict(
        nvars=nvars, l=l, sequence=sequence,
        strictly_increasing=all(a < b for a, b in zip(values, values[1:])),
        weakly_increasing=all(a <= b for a, b in zip(values, values[1:])),
    )


@dataclass(frozen=True)
class NecessaryVerdict:
    """Whether every global-maximum ideal at colength l has m1 = k."""

    nvars: int
    l: int
    k: int
    t_max: int
    argmax_m1: tuple[int, ...]
    argmax: tuple[MonomialIdeal, ...]
    holds: bool
    unique: bool

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "l": self.l, "k": self.k, "t_max": self.t_max,
                "argmax_m1": list(self.argmax_m1),
                "argmax": [format_ideal(i) for i in self.argmax],
                "holds": self.holds, "unique": self.unique}


def check_necessary_condition(nvars: int, l: int, **kwargs) -> NecessaryVerdict:
    records = scan_colength(nvars, l, **kwargs)
    k = k_of_l(nvars, l)[0]
    top = max(record.t_max for record in records.values())
    argmax_m1 = tuple(m1 for m1 in sorted(records) if records[m1].t_max == top)
    ideals = []
    for m1 in argmax_m1:
        ideals.extend(records[m1].argmax)
    ideals.sort(key=format_ideal)
    return NecessaryVerdict(nvars=nvars, l=l, k=k, t_max=top,
                            argmax_m1=argmax_m1, argmax=tuple(ideals),
                            holds=all(m1 == k for m1 in argmax_m1),
                            unique=len(ideals) == 1)


@dataclass(frozen=True)
class TetrahedralVerdict:
    """Whether m^k attains the maximum at the tetrahedral colength, and
    whether it is the unique attaining ideal."""

    nvars: int
    k: int
    l: int
    t_max: int
    power_attains: bool
    unique: bool
    n_argmax: int

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "k": self.k, "l": self.l, "t_max": self.t_max,
                "power_attains": self.power_attains, "unique": self.unique,
                "n_argmax": self.n_argmax}


def power_ideal(nvars: int, k: int) -> MonomialIdeal:
    """m^k: generated by every monomial of total degree k."""
    if nvars < 1 or k < 1:
        raise ValueError("need nvars >= 1 and k >= 1")

    def degree_vectors(n, total):
        if n == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in degree_vectors(n - 1, total - first):
                yield (first,) + rest

    return MonomialIdeal(nvars, tuple(degree_vectors(nvars, k)))


def check_tetrahedral_max(nvars: int, k: int, **kwargs) -> TetrahedralVerdict:
    l = tetrahedral(nvars, k)
    verdict = check_necessary_condition(nvars, l, **kwargs)
    power = power_ideal(nvars, k)
    attains = power in verdict.argmax
    return TetrahedralVerdict(nvars=nvars, k=k, l=l, t_max=verdict.t_max,
                              power_attains=attains,
                              unique=attains and len(verdict.argmax) == 1,
                              n_argmax=len(verdict.argmax))
