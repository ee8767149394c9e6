"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {table_n3,enum_n4,queries} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  The workload repeats whole passes until ``--seconds`` have gone
by (three passes at least) and checks every pass's outputs.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics, computed from spans recorded around the benchmark's calls into
the package and written as JSONL under ``.perfbench/``.  ``--smoke``
shrinks every input so that the whole harness runs in seconds.

The end-to-end times are seconds at a reference host speed (see
``refclock.py``); the per-layer times are span times as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import REF_PROBE_S, ParallelProbe, ReferenceClock, probe
from spans import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: fresh-interpreter set-ups per untraced run, besides the run's own
SETUP_PROBES = 4
MIN_PASSES = 3


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation; 0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> list[str]:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


def provenance(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": git_commit(),
            "loadavg_start": loadavg()}


def setup(args):
    """Import the package and make the workload's inputs, timing both.

    ``speed`` scales the set-up to the reference host speed: probes before
    and after bracket it, as they bracket each lap of a pass.
    """
    before = probe()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import_s = time.perf_counter() - t0
    import_rss = rss_mb()
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT / "tmp")
    inputs_s = time.perf_counter() - t1
    speed = 2 * REF_PROBE_S / (before + probe())
    return wl, {"import_s": import_s, "inputs_s": inputs_s, "speed": speed,
                "import_rss_mb": import_rss}


def probe_setup(args) -> dict:
    """Time the set-up once more in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_passes(wl, tracer, clock, seconds: float, min_passes: int, tally: dict) -> list:
    """Repeat passes until ``seconds`` are over; failed operations go to tally."""
    results = []
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < min_passes or time.perf_counter() < deadline:
        attempts += 1
        tally["attempted"] += wl.ops_per_pass
        try:
            with tracer.span("pass"):
                result = wl.run_pass(tracer, clock)
        except Exception:
            traceback.print_exc()
            tally["failed"] += wl.ops_per_pass
            continue
        tally["failed"] += len(result.failures)
        for message in result.failures[:3]:
            print(f"FAILED {wl.name}: {message}", file=sys.stderr)
        results.append(result)
    return results


def end_to_end(results, setups) -> dict:
    latencies = [ms for r in results for ms in r.latencies_ms]
    return {
        "setup_s": median((s["import_s"] + s["inputs_s"]) * s["speed"] for s in setups),
        "wall_s": median(r.seconds for r in results),
        "ideals_per_s": median(r.ideals / r.seconds for r in results),
        "peak_rss_mb": rss_mb(),
        "ideal_p50_ms": median(latencies),
        "ideal_p95_ms": quantile(latencies, 0.95),
    }


def per_layer(tracer: Tracer, setup_info: dict, overhead: float) -> dict:
    """Per-layer metrics from the spans, as self times; 0 for a layer the
    workload does not call."""
    own = tracer.self_times()
    spans = tracer.spans()
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def root(s):
        while s.parent is not None:
            s = spans[s.parent]
        return s.id

    def total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    def us(name, cond=lambda s: True):
        return [own[s.id] * 1e6 for s in by_name.get(name, ()) if cond(s)]

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    def ratio(a, b):
        return a / b if b else 0.0

    grow = by_name.get("enumeration.grow", [])
    decorate = by_name.get("enumeration.decorate", [])
    kernel = by_name.get("tangent.kernel", [])
    warm = by_name.get("scan.warm", [])
    # kernel spans come from one breakdown (table_n3) or from every pass
    # (queries): time is per pass, counts are those of one pass
    kernel_roots = sorted({root(s) for s in kernel})
    kernel_s = ratio(total("tangent.kernel"), len(kernel_roots))
    first = [s for s in kernel if kernel_roots and root(s) == kernel_roots[0]]
    grow_s = total("enumeration.grow")
    decorate_s = total("enumeration.decorate")
    cold_s = median(durations("scan.cold"))
    serial_s = median(durations("scan.serial"))
    nproc = len(os.sched_getaffinity(0))
    return {
        "enumeration.grow_s": grow_s,
        "enumeration.grow_us_per_staircase": ratio(grow_s * 1e6,
                                                   sum(s.attrs["staircases"] for s in grow)),
        "enumeration.frontier_max": max((s.attrs["staircases"] for s in grow), default=0),
        "enumeration.decorate_s": decorate_s,
        "enumeration.decorate_us_per_ideal": ratio(decorate_s * 1e6,
                                                   sum(s.attrs["ideals"] for s in decorate)),
        "tangent.kernel_s": kernel_s,
        "tangent.kernel_us_p50": median(us("tangent.kernel")),
        "tangent.kernel_us_p95": quantile(us("tangent.kernel"), 0.95),
        "tangent.kernel_us_g_le8": median(us("tangent.kernel", lambda s: s.attrs["g"] <= 8)),
        "tangent.kernel_us_g9_12": median(us("tangent.kernel",
                                             lambda s: 9 <= s.attrs["g"] <= 12)),
        "tangent.kernel_us_g_ge13": median(us("tangent.kernel", lambda s: s.attrs["g"] >= 13)),
        "tangent.useful_degrees": sum(s.attrs["degrees"] for s in first),
        "tangent.t_sum": sum(s.attrs["total"] for s in first),
        "tangent.graded_us_p50": median(us("tangent.graded")),
        "tangent.oracle_ms_p50": median(us("tangent.verify")) / 1e3,
        "tangent.oracle_ms_p95": quantile(us("tangent.verify"), 0.95) / 1e3,
        "scan.parallel_speedup": ratio(serial_s, cold_s),
        "scan.dispatch_overhead_s": (cold_s - (grow_s + decorate_s + kernel_s / nproc)
                                     if cold_s and serial_s else 0.0),
        # pool workers are the only children waited for so far in a traced run
        "scan.worker_rss_mb": rss_mb(resource.RUSAGE_CHILDREN) if cold_s else 0.0,
        "scan.cache_read_s": median(durations("scan.warm")),
        "scan.cache_hit_ratio": ratio(sum(s.attrs["hits"] for s in warm),
                                      sum(s.attrs["requested"] for s in warm)),
        "scan.cache_bytes": median(s.attrs["cache_bytes"] for s in warm),
        "monomials.parse_us_p50": median(us("monomials.parse")),
        "monomials.format_us_p50": median(us("monomials.format")),
        "monomials.standard_set_us_p50": median(us("monomials.standard_set")),
        "region3d.count_us_p50": median(us("region3d.count")),
        "region3d.count_us_p95": quantile(us("region3d.count"), 0.95),
        "setup.import_s": setup_info["import_s"] * setup_info["speed"],
        "setup.import_rss_mb": setup_info["import_rss_mb"],
        "trace.overhead_frac": overhead,
    }


def measure(args, wl, clock, own_setup: dict, prov: dict, tally: dict) -> dict | None:
    """Run the passes and compute the metrics; None when no pass completed."""
    if args.trace:
        # alternating untraced and traced passes give the tracing overhead;
        # the breakdown then drives the layers one call at a time
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}-{int(time.time())}")
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds < 2 or time.perf_counter() < deadline:
            rounds += 1
            plain += run_passes(wl, NULL, clock, 0, 1, tally)
            traced += run_passes(wl, tracer, clock, 0, 1, tally)
        tally["attempted"] += 1
        try:
            with tracer.span("breakdown"):
                wl.breakdown(tracer)
        except Exception:
            traceback.print_exc()
            tally["failed"] += 1
        if not plain or not traced:
            print("error: no pass completed", file=sys.stderr)
            return None
        overhead = (median(r.seconds for r in traced) / median(r.seconds for r in plain)) - 1
        metrics = per_layer(tracer, own_setup, overhead)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        prov["spans"] = len(tracer.records)
        prov["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        setups = [own_setup]
        for _ in range(2 if args.smoke else SETUP_PROBES):
            setups.append(probe_setup(args))
        results = run_passes(wl, NULL, clock, args.seconds, MIN_PASSES, tally)
        if not results:
            print("error: no pass completed", file=sys.stderr)
            return None
        metrics = end_to_end(results, setups)
        prov["pass_seconds"] = [r.seconds for r in results]
        prov["raw_pass_seconds"] = [r.raw_seconds for r in results]
        prov["setup_speed"] = [s["speed"] for s in setups]
        prov["latency_samples"] = sum(len(r.latencies_ms) for r in results)
        prov["setup_samples"] = len(setups)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table_n3", "enum_n4", "queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, so that the harness runs in seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boreltangent" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'boreltangent'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    # keep the temporary files of the package and its pool inside the checkout
    os.environ["TMPDIR"] = str(OUT / "tmp")
    prov = provenance(args)
    wl, own_setup = setup(args)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    prov["inputs"] = wl.describe()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally = {"attempted": 0, "failed": 0}
    prov["ref_probe_s"] = REF_PROBE_S
    with ParallelProbe(wl.cpus) as host_probe:
        metrics = measure(args, wl, ReferenceClock(host_probe), own_setup, prov, tally)
    if metrics is None:
        return 1

    prov["failed_frac"] = tally["failed"] / tally["attempted"]
    prov["loadavg_end"] = loadavg()
    result = {"correct": tally["failed"] == 0, "attempted": tally["attempted"],
              "failed": tally["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1) + "\n")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
