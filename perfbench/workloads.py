"""The benchmark's three workloads.

Each workload makes its inputs in ``__init__`` (timed as set-up), runs one
timed pass of its work in :meth:`run_pass` and checks the outputs after
the timed part, returning a :class:`PassResult`.  A pass times its items
on a :class:`refclock.ReferenceClock`, in seconds at the reference host
speed.  :meth:`breakdown` runs
only in traced runs: it drives the same layers one public function at a
time, so that growth, decoration and the tangent kernel get spans of their
own.  Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from boreltangent import (
    MonomialIdeal,
    StandardSet,
    format_ideal,
    graded_dimension,
    parse_ideal,
    region_component_count,
    scan_colength_range,
    standard_set,
    tangent_dimension,
    verify_tangent,
)
from boreltangent.enumeration import (
    enumerate_strongly_stable,
    iter_staircase_levels,
    sorted_level,
)
from boreltangent.published_table import expected_cells

#: pool size of the scans; never more than the CPUs this process may use
NPROC = len(os.sched_getaffinity(0))

#: SHA-256 of the scan records of colengths 10..lmax (see records_digest)
TABLE_DIGESTS = {
    12: "3f0a516f2383dd11a7b5316af8466940929eed3e99f444ed3e5deff5cf728e5b",
    18: "8f97fd43a4d6b8bd040c36bce680f353d52f7a268884a1f295238c25612d13d0",
}

#: colength -> (ideal count, SHA-256 of the canonical stream) for N = 4
ENUM_PINS = {
    8: (16, "9b4977b5d6d8c8388db31a64c84c42b1c09bc86f60e868b9cf6fd2ecea310980"),
    20: (1068, "13aa62f93cd0c3f34e302de886a79b74813f3276f81b7e1800e434fdc460de36"),
}

#: queries only run the Bareiss oracle when G*l is at most this; its cost
#: grows like (G*l)^3, and above ~100 it would dominate the whole pipeline
ORACLE_CAP = 80


@dataclass
class PassResult:
    """One pass: its timed seconds at the reference speed and as measured,
    ideals completed, one message per failed operation, and per-ideal
    latencies in ms at the reference speed."""

    seconds: float
    raw_seconds: float
    ideals: int
    failures: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)


def records_digest(records) -> str:
    """SHA-256 over every record's key, ideal count, t_max and argmax list.

    ``elapsed`` is left out: it is a timing, not a result.
    """
    rows = [[l, m1, rec.ideal_count, rec.t_max, [format_ideal(a) for a in rec.argmax]]
            for l in sorted(records) for m1, rec in sorted(records[l].items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def table_problems(records, expected: dict, digest: str) -> list[str]:
    """Disagreements of a scan with the published cells and the pinned digest."""
    problems = []
    for l, cells in expected.items():
        per_m1 = records.get(l)
        if per_m1 is None:
            problems.append(f"colength {l} missing")
            continue
        for m1, t in cells:
            rec = per_m1.get(m1)
            got = rec.t_max if rec is not None else None
            if got != t:
                problems.append(f"l={l} m1={m1}: t_max {got}, published {t}")
    got_digest = records_digest(records)
    if got_digest != digest:
        problems.append(f"records digest {got_digest} != pinned {digest}")
    return problems


def enum_problems(count: int, digest: str, ordered: bool, pinned: tuple[int, str]) -> list[str]:
    """Disagreements of an enumeration stream with its pinned count and digest."""
    problems = []
    if count != pinned[0]:
        problems.append(f"{count} ideals, pinned {pinned[0]}")
    if digest != pinned[1]:
        problems.append(f"stream digest {digest} != pinned {pinned[1]}")
    if not ordered:
        problems.append("canonical strings not strictly increasing")
    return problems


def _grow_levels(tracer, nvars: int, lmax: int) -> dict:
    """Growth to lmax with one span per level; returns {l: staircases}."""
    levels = {}
    it = iter_staircase_levels(nvars, lmax)
    for _ in range(lmax):
        with tracer.span("enumeration.grow") as sp:
            l, staircases = next(it)
        sp.set(level=l, staircases=len(staircases))
        levels[l] = staircases
    return levels


class TableN3:
    """A cold N=3 scan of colengths 10..lmax into a fresh cache directory
    at one pool worker per CPU, then a warm rerun served from that cache."""

    name = "table_n3"
    nvars = 3
    lmin = 10
    ops_per_pass = 2
    #: CPUs the timed work keeps busy, and so the width of the clock's probe
    cpus = NPROC

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # the table path has no random input; the seed only labels the run
        self.lmax = 12 if smoke else 18
        self.workdir = workdir
        self.expected = {l: expected_cells(l) for l in range(self.lmin, self.lmax + 1)}
        self.digest = TABLE_DIGESTS[self.lmax]

    def describe(self) -> dict:
        return {"nvars": self.nvars, "lmin": self.lmin, "lmax": self.lmax, "workers": NPROC}

    def _scan(self, cache):
        return scan_colength_range(self.nvars, self.lmin, self.lmax,
                                   workers=NPROC, cache_dir=cache)

    def run_pass(self, tracer, clock) -> PassResult:
        cache = tempfile.mkdtemp(prefix="table-", dir=self.workdir)
        try:
            clock.start()
            with tracer.span("scan.cold", workers=NPROC):
                cold = self._scan(cache)
            clock.tick()
            with tracer.span("scan.warm") as warm_span:
                warm = self._scan(cache)
            clock.tick()
            seconds = sum(clock.stop())
            cache_bytes = sum(p.stat().st_size for p in Path(cache).iterdir())
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        # a colength served from the cache carries the cold scan's elapsed
        hits = sum(1 for l, per_m1 in warm.items() if l in cold and all(
            rec.elapsed == cold[l][m1].elapsed for m1, rec in per_m1.items() if m1 in cold[l]))
        warm_span.set(requested=self.lmax - self.lmin + 1, hits=hits, cache_bytes=cache_bytes)
        failures = []
        for label, records in (("cold", cold), ("warm", warm)):
            problems = table_problems(records, self.expected, self.digest)
            if problems:
                failures.append(f"{label} scan: " + "; ".join(problems[:5]))
        ideals = sum(rec.ideal_count for per_m1 in cold.values() for rec in per_m1.values())
        return PassResult(seconds, clock.raw, ideals, failures,
                          [seconds * 1e3 / max(ideals, 1)])

    def breakdown(self, tracer) -> None:
        levels = _grow_levels(tracer, self.nvars, self.lmax)
        for l in range(self.lmin, self.lmax + 1):
            with tracer.span("enumeration.decorate", ideals=len(levels[l])):
                items = sorted_level(self.nvars, levels[l])
            for _text, gens, cells in items:
                ideal = MonomialIdeal(self.nvars, gens)
                std = StandardSet(self.nvars, cells)
                with tracer.span("tangent.kernel", g=len(gens)) as sp:
                    report = tangent_dimension(ideal, std)
                sp.set(degrees=len(report.graded), total=report.total)
        with tracer.span("scan.serial", workers=1):
            scan_colength_range(self.nvars, self.lmin, self.lmax, workers=1)


class EnumN4:
    """Stream every strongly stable N=4 ideal of one colength, hashing the
    canonical strings in emission order."""

    name = "enum_n4"
    nvars = 4
    ops_per_pass = 1
    cpus = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # the stream has no random input; the seed only labels the run
        self.l = 8 if smoke else 20
        self.pinned = ENUM_PINS[self.l]

    def describe(self) -> dict:
        return {"nvars": self.nvars, "l": self.l}

    def run_pass(self, tracer, clock) -> PassResult:
        digest = hashlib.sha256()
        count = 0
        prev = ""
        ordered = True
        clock.start()
        with tracer.span("enumeration.enumerate"):
            for ideal in enumerate_strongly_stable(self.nvars, self.l):
                with tracer.span("monomials.format"):
                    text = format_ideal(ideal)
                ordered = ordered and text > prev
                prev = text
                digest.update(text.encode() + b"\n")
                count += 1
                clock.tick()
        seconds = sum(clock.stop())
        problems = enum_problems(count, digest.hexdigest(), ordered, self.pinned)
        failures = ["enumeration: " + "; ".join(problems)] if problems else []
        return PassResult(seconds, clock.raw, count, failures,
                          [seconds * 1e3 / max(count, 1)])

    def breakdown(self, tracer) -> None:
        levels = _grow_levels(tracer, self.nvars, self.l)
        with tracer.span("enumeration.decorate", ideals=len(levels[self.l])):
            sorted_level(self.nvars, levels[self.l])


@dataclass(frozen=True)
class Query:
    """One caller request: ideal text plus the seeded choices of degrees."""

    nvars: int
    text: str
    support_picks: tuple[int, ...]
    box_alphas: tuple[tuple[int, ...], ...]
    verify: bool


_NAMES = "xyzw"


def _monomial_text(e) -> str:
    return "*".join(_NAMES[t] if x == 1 else f"{_NAMES[t]}^{x}"
                    for t, x in enumerate(e) if x)


def random_staircase(rng: random.Random, nvars: int, l: int, borel: bool) -> frozenset:
    """A staircase of l cells grown one random addable cell at a time.

    A cell is addable when its divisors are present and, for a Borel
    staircase, also every move of one unit of exponent from a variable to a
    later one.
    """
    cells = {(0,) * nvars}
    corners = {(0,) * t + (1,) + (0,) * (nvars - t - 1) for t in range(nvars)}
    while len(cells) < l:
        options = []
        for c in sorted(corners):
            if any(c[t] and c[:t] + (c[t] - 1,) + c[t + 1:] not in cells for t in range(nvars)):
                continue
            if borel and any(
                    c[:s] + (c[s] - 1,) + c[s + 1:t] + (c[t] + 1,) + c[t + 1:] not in cells
                    for s in range(nvars) if c[s] for t in range(s + 1, nvars)):
                continue
            options.append(c)
        c = rng.choice(options)
        cells.add(c)
        corners.discard(c)
        corners.update(c[:t] + (c[t] + 1,) + c[t + 1:] for t in range(nvars))
    return frozenset(cells)


def staircase_generators(nvars: int, cells) -> list[tuple[int, ...]]:
    """Minimal exponents outside a divisor-closed cell set."""
    gens = set()
    for v in cells:
        for t in range(nvars):
            w = v[:t] + (v[t] + 1,) + v[t + 1:]
            if w not in cells and all(
                    not w[u] or w[:u] + (w[u] - 1,) + w[u + 1:] in cells for u in range(nvars)):
                gens.add(w)
    return sorted(gens)


def make_queries(seed: int, count: int, colengths: dict) -> list[Query]:
    """``count`` seeded requests, stratified so that every seed draws the
    same mix: N alternates 3/4, Borel and arbitrary ideals alternate in
    pairs, and the colength cycles through ``colengths[N]``; the seed picks
    which ideal of that kind, its generator order and its degrees."""
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        nvars = 3 if i % 2 == 0 else 4
        lo, hi = colengths[nvars]
        l = lo + (i // 4) % (hi - lo + 1)
        cells = random_staircase(rng, nvars, l, borel=(i // 2) % 2 == 0)
        gens = staircase_generators(nvars, cells)
        rng.shuffle(gens)
        heights = [sum(1 for c in cells if c[t] == sum(c)) for t in range(nvars)]
        box = [(-max(g[t] for g in gens), heights[t] - 1) for t in range(nvars)]
        box_alphas = tuple(tuple(rng.randint(a, b) for a, b in box) for _ in range(2))
        picks = tuple(rng.randrange(1 << 30) for _ in range(2))
        queries.append(Query(nvars, ",".join(map(_monomial_text, gens)), picks, box_alphas,
                             verify=len(gens) * l <= ORACLE_CAP))
    return queries


def query_problems(ideal, again, report, graded: dict) -> list[str]:
    """Disagreements inside one request's outputs.

    ``again`` is parse(format(ideal)); ``graded`` maps each queried degree
    to the dimension graded_dimension returned for it.
    """
    problems = []
    if again != ideal:
        problems.append(f"parse(format(I)) gave {format_ideal(again)}")
    per_alpha = report.per_alpha
    if sum(per_alpha.values()) != report.total:
        problems.append(f"graded pieces sum to {sum(per_alpha.values())}, total {report.total}")
    for alpha, dim in graded.items():
        if dim != per_alpha.get(alpha, 0):
            problems.append(f"graded_dimension at {alpha} is {dim}, "
                            f"decomposition says {per_alpha.get(alpha, 0)}")
    return problems


class Queries:
    """One caller in a closed loop, sending each seeded request after the
    previous one has been answered."""

    name = "queries"
    cpus = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        if smoke:
            self.count, self.colengths = 16, {3: (4, 10), 4: (4, 8)}
        else:
            self.count, self.colengths = 1000, {3: (6, 30), 4: (6, 22)}
        self.queries = make_queries(seed, self.count, self.colengths)
        self.ops_per_pass = self.count

    def describe(self) -> dict:
        return {"ideals": self.count, "colengths": {str(n): list(r) for n, r in self.colengths.items()},
                "verified": sum(q.verify for q in self.queries), "oracle_cap": ORACLE_CAP,
                "callers": 1}

    def run_pass(self, tracer, clock) -> PassResult:
        failures = []
        clock.start()
        for q in self.queries:
            try:
                with tracer.span("query", nvars=q.nvars):
                    problems = self.answer(q, tracer)
            except Exception as exc:  # a failed request is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            clock.tick()
            if problems:
                failures.append(f"{q.text}: " + "; ".join(problems))
        latencies = [s * 1e3 for s in clock.stop()]
        return PassResult(sum(latencies) / 1e3, clock.raw, self.count, failures, latencies)

    @staticmethod
    def answer(q: Query, tracer) -> list[str]:
        with tracer.span("monomials.parse"):
            ideal = parse_ideal(q.text, nvars=q.nvars)
        with tracer.span("monomials.format"):
            text = format_ideal(ideal)
        with tracer.span("monomials.parse"):
            again = parse_ideal(text, nvars=q.nvars)
        with tracer.span("monomials.standard_set"):
            std = standard_set(ideal)
        with tracer.span("tangent.kernel", g=len(ideal.gens)) as sp:
            report = tangent_dimension(ideal, std)
        sp.set(degrees=len(report.graded), total=report.total)
        if not report.graded:
            return ["empty graded decomposition"]
        alphas = [report.graded[p % len(report.graded)][0] for p in q.support_picks]
        alphas.extend(q.box_alphas)
        graded = {}
        for alpha in alphas:
            with tracer.span("tangent.graded"):
                graded[alpha] = graded_dimension(ideal, alpha, std)
            if q.nvars == 3:
                with tracer.span("region3d.count"):
                    region_component_count(ideal, alpha, standard=std)
        problems = query_problems(ideal, again, report, graded)
        if q.verify:
            # raises VerificationError when the oracle disagrees
            with tracer.span("tangent.verify"):
                verified = verify_tangent(ideal, std)
            if verified.total != report.total:
                problems.append(f"verify_tangent total {verified.total} != {report.total}")
        return problems

    def breakdown(self, tracer) -> None:
        """Every layer queries uses already has a span in each pass."""


WORKLOADS = {w.name: w for w in (TableN3, EnumN4, Queries)}
