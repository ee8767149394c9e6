"""Colength-scale scans: T_max per m1 class, table reproduction, and the
monotonicity / necessary-condition / tetrahedral-maximum checks.

A scan of colength l computes T(I) at every Borel staircase of that
colength and keeps the maximum and *all* attaining ideals per m1 class
(ties carry the scientific content, so they are never discarded).

The work goes out as jobs of the reverse-search walk of
:mod:`.enumeration`, in the job model of mts and mplrs (Avis and Jordan,
arXiv:1709.07605 and arXiv:1610.07735); that module alone makes jobs and
takes them apart.  This one reads a job's colength, ``job[2]``, and nothing
else of it: :func:`_job` labels its result with it, and ``_Master.wait`` a
worker death.  Running a job walks its subtree and runs the tangent kernel
at every staircase of its colength, on the corners the walk carries, until
it has run it at ``JOB_BUDGET`` of them.  It returns, per m1 class, the
count, the maximum and the staircases attaining it, and the children the
walk did not enter as new jobs.  Each colength starts as the one job of its
whole level.  The parent counts the jobs outstanding per colength, and a
colength is merged, cached and counted as completed when its count reaches
zero.

Every job is alike, and the worker count alone decides where jobs run.
At one worker the parent runs them itself, in process, and starts no
process.  With several, every job goes to a worker process, as the mplrs
master hands them out: the parent keeps the list of jobs, gives each idle
worker one, and so always knows which job each worker holds.  A worker
starts only when a job waits and no started worker is idle, so a colength
that fits one job starts one worker, whatever the worker count.  Jobs
leave the list from its end, so the jobs a reply hands back go before
the roots still waiting.  With several workers the roots leave largest
colength first: a job's cost grows with its colength, so the longest
starts first and the smaller ones fill the other workers around it,
rather than the longest starting last while the others sit idle
(Graham's longest-processing-time-first rule, SIAM J. Appl. Math. 17,
1969).  In process the order changes no time, and the roots leave in
ascending colength.  So the colengths a budget breach has finished are
the smallest at one worker and mostly the largest at several; the cache
resumes from either.  A worker that dies mid-job sends no reply; its job
goes back on the list for a fresh worker, ``LOST_JOB_RERUNS`` times in a
scan, and the next death raises :class:`WorkerLostError`.  The merge
ignores the order of the jobs, and each argmax list is sorted into
canonical order, so results are identical for any worker count.

Completed colengths are cached as JSONL files (``scan-N{N}-l{l}.jsonl``,
one record per m1 class, schema-versioned); reruns skip cached colengths,
which is also how budget-interrupted scans resume.  A file is served only
if the records rebuilt from it write it back byte for byte.
"""

from __future__ import annotations

import json
import multiprocessing
import operator
import os
import signal
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path

from .enumeration import _canonical, _descend, _origin
from .monomials import MonomialIdeal, _minimal_gens, _read_ideal, format_ideal, k_of_l, tetrahedral
from .published_table import TABLE_LMAX, TABLE_LMIN, expected_cells
from .tangent import _total

SCHEMA_VERSION = 1

#: staircases a job runs the kernel at before it hands back the children
#: it has not entered: tens of milliseconds of kernel work against about a
#: millisecond to send a job and merge it
JOB_BUDGET = 400

#: worker deaths a scan outlives: the job of each dead worker runs again
#: on a fresh one, and one death more raises WorkerLostError
LOST_JOB_RERUNS = 2

#: the workers' start method: fork on Linux, where a worker starts fastest
#: (Python 3.14 makes forkserver the default there) and runs the module's
#: ``_job`` as the parent sees it, the default elsewhere
_WORKER_CONTEXT = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)

#: the longest one wait for the workers, in seconds; a later deadline is
#: waited for in waits of this length: connection.wait counts its timeout
#: in milliseconds in a C int, which threading.TIMEOUT_MAX overflows
_LONGEST_WAIT = 86400.0

#: environment variable holding the default cache directory
CACHE_ENV_VAR = "BORELTANGENT_CACHE"


class _ScanStopped(RuntimeError):
    """A scan stopped before its last colength.  ``completed`` holds the
    records of every colength finished before (already flushed to the
    cache when caching is enabled), in ascending colength as a finished
    scan returns them."""

    def __init__(self, message: str, completed=None):
        super().__init__(message)
        self.completed = dict(sorted((completed or {}).items()))


class BudgetExceededError(_ScanStopped):
    """The wall-clock budget of a scan was exceeded.

    The budget bounds the whole scan, every colength of a range together:
    one deadline is set when the scan starts, before any worker, so it
    counts the walk and the tangent computations of every colength.  At one
    worker each job checks the deadline at every staircase it scans; with
    several, every wait for the workers is bounded by the time left, and
    the workers are killed when it runs out.
    """


class WorkerLostError(_ScanStopped):
    """Workers died mid-job more than ``LOST_JOB_RERUNS`` times in one scan
    (an OOM kill, a segfault, ``os._exit``)."""


@dataclass(frozen=True)
class ScanKey:
    nvars: int
    l: int
    m1: int

    def __post_init__(self) -> None:
        for name, value in (("nvars", self.nvars), ("colength", self.l), ("m1", self.m1)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ScanRecord:
    """Result of maximizing T over one (nvars, l, m1) class.

    ``argmax`` lists every attaining ideal in canonical order.  ``elapsed``
    is the wall time from the start of the scan, the origin of its budget,
    to the completion of this colength (a cached record keeps the one it
    was stored with), and is excluded from equality so cached records
    compare equal to fresh ones.
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


def _cache_file(cache_dir, nvars: int, l: int) -> Path:
    return Path(cache_dir) / f"scan-N{nvars}-l{l}.jsonl"


def _m1_classes(nvars: int, l: int) -> set[int]:
    """The m1 of the Borel staircases of colength l.  A staircase whose x1
    power is m1 holds every monomial of degree below m1, so l >=
    tetrahedral(nvars, m1), that is m1 <= k; for nvars >= 2 every such m1
    is met, by those monomials and a column of powers of the last
    variable.  In one variable the one staircase has m1 = l."""
    return {l} if nvars == 1 else set(range(1, k_of_l(nvars, l)[0] + 1))


def _lines(records: dict[int, ScanRecord]) -> str:
    """The cache file of a colength: one JSON line per m1 class, ascending.
    This is the one definition of the cache format."""
    return "".join(json.dumps(records[m1].to_json()) + "\n" for m1 in sorted(records))


def _load_cached(cache_dir, nvars: int, l: int) -> dict[int, ScanRecord] | None:
    """The cached records of a colength, rebuilt by :func:`_records` as
    fresh ones are; None unless the file is exactly their :func:`_lines`
    and each argmax ideal has its class's x1 power."""
    merged: dict[int, list] = {}
    try:
        text = _cache_file(cache_dir, nvars, l).read_bytes().decode("utf-8")
        for m1, line in zip(sorted(_m1_classes(nvars, l)), text.splitlines(), strict=True):
            obj = json.loads(line)
            # only the generators are kept: the texts written back are
            # formatted afresh by _records' ideals, never taken from the
            # file, so a text that is not minimal does not write back
            merged[m1] = [operator.index(obj["ideal_count"]), operator.index(obj["t_max"]),
                          {_minimal_gens(*_read_ideal(t, nvars))[0] for t in obj["argmax"]}]
            elapsed = float(obj["elapsed"])
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return None
    records = _records(nvars, l, merged, elapsed)
    if _lines(records) != text or any((m1,) + (0,) * (nvars - 1) not in ideal.gens
                                      for m1, record in records.items() for ideal in record.argmax):
        return None
    return records


def _store_cached(cache_dir, nvars: int, l: int, records: dict[int, ScanRecord]) -> None:
    """Write a colength's file whole, through a temporary file of this
    writer's own, so that two stores of one colength may interleave."""
    path = _cache_file(cache_dir, nvars, l)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(_lines(records).encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def _job(nvars: int, job, deadline: float | None = None) -> tuple[int, dict[int, list], list]:
    """Run one job of the walk (see :func:`.enumeration._descend`): run the
    kernel at every staircase of its colength l in its subtree, stopping
    once it has run at ``JOB_BUDGET`` of them.  Returns (l, {m1: [count,
    t_max, the argmax staircases' corner tuples]}, the jobs handed back).
    Raises multiprocessing.TimeoutError past a ``time.monotonic()``
    deadline."""
    stats: dict[int, list] = {}

    def visit(cells, gens, m1):
        if deadline is not None and time.monotonic() > deadline:
            raise multiprocessing.TimeoutError
        _fold(stats, m1, 1, _total(gens, cells), [gens])

    return job[2], stats, _descend(nvars, job, visit, JOB_BUDGET)


def _serve(pipe, parent_ends) -> None:
    """A worker's loop: read (nvars, job) from its pipe, run it and send
    back the result, or the exception it raised, until it is killed or
    the parent is gone.  ``_job`` is looked up at each call, so a forked
    worker runs the one the parent's module held when the worker started.
    An interrupt from the terminal is the parent's to act on: it kills the
    workers."""
    # a forked worker holds a copy of the parent's end of every pipe; once
    # they are closed, a worker whose parent died reads end of file
    for end in parent_ends:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            nvars, job = pipe.recv()
            try:
                reply = _job(nvars, job)
            except Exception as exc:
                import traceback  # only on this path: it is slow to import
                # the worker's traceback goes as a note (PEP 678), which pickles
                # with the exception and prints under its parent's traceback
                exc.__notes__ = [*getattr(exc, "__notes__", ()),
                                 f"raised in a scan worker:\n{traceback.format_exc()}"]
                reply = exc
            pipe.send(reply)
    except (EOFError, BrokenPipeError):
        pass  # the parent is gone


class _Master:
    """The worker processes of a scan and the one job each holds."""

    def __init__(self, nvars: int, workers: int):
        # imported here, not with the package: its few milliseconds would
        # fall on every process that imports it, most of which start no worker
        import multiprocessing.connection
        self.nvars = nvars
        self.workers = workers
        self.processes = {}  # pipe -> process, of every live worker
        self.idle = []       # the pipes of the workers that hold no job
        self.held = {}       # pipe -> the job its worker holds
        self.deaths = []     # (l, exit code) of each job whose worker died

    def send(self, jobs: list) -> None:
        """Give jobs from the end of ``jobs`` to idle workers, starting a
        worker when none is idle, up to the worker count."""
        while jobs and (self.idle or len(self.processes) < self.workers):
            if not self.idle:
                pipe, child = _WORKER_CONTEXT.Pipe()
                process = _WORKER_CONTEXT.Process(target=_serve, daemon=True,
                                                  args=(child, [pipe, *self.processes]))
                process.start()
                child.close()
                self.processes[pipe] = process
                self.idle.append(pipe)
            pipe = self.idle.pop()
            self.held[pipe] = jobs.pop()
            try:
                pipe.send((self.nvars, self.held[pipe]))
            except OSError:
                pass  # the worker died after its last reply; wait() finds it

    def wait(self, jobs: list, deadline: float | None) -> list:
        """The replies received once a worker holding a job replies or dies,
        or at the deadline (None waits for ever).  A dead worker's job goes
        back on ``jobs``, and a job's error is raised here."""
        timeout = None if deadline is None else \
            min(max(0.0, deadline - time.monotonic()), _LONGEST_WAIT)
        pipes = {self.processes[pipe].sentinel: pipe for pipe in self.held}
        pipes.update((pipe, pipe) for pipe in self.held)
        replies = []
        for pipe in dict.fromkeys(pipes[ready] for ready in
                                  multiprocessing.connection.wait(list(pipes), timeout)):
            job = self.held.pop(pipe)
            try:
                # a dead worker's pipe reads end of file, or ends mid-reply
                reply = pipe.recv() if pipe.poll() else None
            except (EOFError, OSError):
                reply = None
            if isinstance(reply, BaseException):
                raise reply
            if reply is not None:
                self.idle.append(pipe)
                replies.append(reply)
                continue
            process = self.processes.pop(pipe)
            process.join(1.0)
            self.deaths.append((job[2], process.exitcode))
            self._stop(pipe, process)
            jobs.append(job)
        return replies

    @staticmethod
    def _stop(pipe, process) -> None:
        process.kill()
        process.join()
        process.close()
        pipe.close()

    def close(self) -> None:
        """Kill every worker and wait for each."""
        for process in self.processes.values():
            process.kill()
        for pipe, process in self.processes.items():
            self._stop(pipe, process)


def _records(nvars: int, l: int, merged: dict[int, list], elapsed: float) -> dict[int, ScanRecord]:
    """A colength's records from its merged stats, argmax lists in canonical order."""
    return {m1: ScanRecord(key=ScanKey(nvars, l, m1), ideal_count=count, t_max=total,
                           argmax=tuple(ideal for ideal, _ in
                                        _canonical(nvars, ((None, g) for g in argmax))),
                           elapsed=elapsed)
            for m1, (count, total, argmax) in sorted(merged.items())}


def scan_colength_range(nvars: int, lmin: int, lmax: int, *, workers: int = 1,
                        cache_dir=None, budget_seconds=None) -> dict[int, dict[int, ScanRecord]]:
    """Scan every colength in lmin..lmax; returns {l: {m1: ScanRecord}}.

    Colengths already in the cache are not recomputed; freshly scanned ones
    are written to the cache as they complete, so an interrupted run
    resumes where it stopped.  The cache directory is made, if missing,
    before any walk, so a path that cannot be a directory (a regular file,
    say) raises OSError before any work; a directory that exists but
    refuses writes still fails only at the first store.
    ``budget_seconds`` (see :class:`BudgetExceededError`) is None or a
    number >= 0; inf bounds nothing.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
    if not 1 <= lmin <= lmax:
        raise ValueError("need 1 <= lmin <= lmax")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget_seconds must be >= 0, not {budget_seconds}")
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
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)

    # the colengths in the order their roots go out (see the module
    # docstring), and the jobs not yet run, popped from the end: the jobs
    # handed back, then the roots
    roots = pending[::-1] if workers > 1 else pending
    jobs = [_origin(nvars, l) for l in reversed(roots)]
    outstanding = Counter(pending)
    merged: dict[int, dict[int, list]] = {l: {} for l in pending}
    started = time.monotonic()
    deadline = None if budget_seconds in (None, float("inf")) else started + budget_seconds
    master = _Master(nvars, workers) if workers > 1 else None
    try:
        while outstanding:
            try:
                if deadline is not None and time.monotonic() >= deadline:
                    raise multiprocessing.TimeoutError
                if master is None:
                    # in process the walk itself watches the deadline
                    replies = [_job(nvars, jobs.pop(), deadline)]
                else:
                    master.send(jobs)
                    replies = master.wait(jobs, deadline)
            except multiprocessing.TimeoutError:
                late = next(l for l in roots if l in outstanding)
                raise BudgetExceededError(
                    f"budget of {budget_seconds}s exceeded scanning N={nvars} l={late} "
                    f"with {outstanding[late]} jobs outstanding", completed=results) from None
            if master is not None and len(master.deaths) > LOST_JOB_RERUNS:
                raise WorkerLostError(
                    f"{len(master.deaths)} workers died mid-job scanning N={nvars}, the last "
                    f"at l={master.deaths[-1][0]} with exit code {master.deaths[-1][1]}; a scan "
                    f"runs a lost job again {LOST_JOB_RERUNS} times at most", completed=results)
            for _l, _stats, new in replies:
                jobs += new
            if master is not None:
                # the workers that replied take their next jobs before the merge
                master.send(jobs)
            for l, stats, new in replies:
                for m1, entry in stats.items():
                    _fold(merged[l], m1, *entry)
                outstanding[l] += len(new) - 1
                if not outstanding[l]:
                    del outstanding[l]
                    results[l] = _records(nvars, l, merged.pop(l), time.monotonic() - started)
                    if cache_dir:
                        _store_cached(cache_dir, nvars, l, results[l])
    finally:
        # jobs still held are useless after a failure, and none is left
        # after success
        if master is not None:
            master.close()
    return dict(sorted(results.items()))


def scan_colength(nvars: int, l: int, **kwargs) -> dict[int, ScanRecord]:
    """All m1-class records at one colength."""
    if l < 1:
        raise ValueError("colength must be >= 1")
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
        return asdict(self)


def reproduce_published_table(lmin: int = TABLE_LMIN, lmax: int = TABLE_LMAX, *,
                          workers: int = 1, cache_dir=None,
                          budget_seconds=None) -> list[TableCell]:
    """Recompute the published T_max table cells and compare exactly.

    The range asked for is clipped to the published one, and a range with
    no colength there raises ValueError.  A mismatching cell is reported
    with ok=False, never raised: mismatch is data.
    """
    lo, hi = max(lmin, TABLE_LMIN), min(lmax, TABLE_LMAX)
    if lo > hi:
        raise ValueError(f"l = {lmin}..{lmax} has no colength in the published "
                         f"table's range {TABLE_LMIN}..{TABLE_LMAX}")
    records = scan_colength_range(3, lo, hi, workers=workers,
                                  cache_dir=cache_dir, budget_seconds=budget_seconds)
    cells = []
    for l in range(lo, hi + 1):
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
        return {**asdict(self), "sequence": [{"m1": m1, "t_max": t} for m1, t in self.sequence]}


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
        return {**asdict(self), "argmax_m1": list(self.argmax_m1),
                "argmax": [format_ideal(i) for i in self.argmax]}


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
        return asdict(self)


def power_ideal(nvars: int, k: int) -> MonomialIdeal:
    """m^k: generated by every monomial of total degree k."""
    if nvars < 1 or k < 1:
        raise ValueError("need nvars >= 1 and k >= 1")
    # a multiset of k variables is a monomial of degree k: count each variable
    monomials = combinations_with_replacement(range(nvars), k)
    return MonomialIdeal(nvars, tuple(tuple(map(m.count, range(nvars))) for m in monomials))


def check_tetrahedral_max(nvars: int, k: int, **kwargs) -> TetrahedralVerdict:
    power = power_ideal(nvars, k)
    l = tetrahedral(nvars, k)
    verdict = check_necessary_condition(nvars, l, **kwargs)
    attains = power in verdict.argmax
    return TetrahedralVerdict(nvars=nvars, k=k, l=l, t_max=verdict.t_max,
                              power_attains=attains,
                              unique=attains and len(verdict.argmax) == 1,
                              n_argmax=len(verdict.argmax))
