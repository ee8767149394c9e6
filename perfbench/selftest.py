"""Tests of the benchmark itself: its output checks, its span arithmetic
and a smoke run of every workload.

    python3 perfbench/selftest.py

Runs in well under a minute; it needs ``src/`` of the same checkout.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from boreltangent import (  # noqa: E402
    MonomialIdeal,
    VerificationError,
    is_strongly_stable,
    parse_ideal,
    scan_colength_range,
    standard_set,
    tangent_dimension,
)
from refclock import ParallelProbe, ReferenceClock  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child"):
                pass
        times = [(0, 10), (1, 5), (2, 4), (6, 7)]
        tracer.records = [s._replace(start=times[s.id][0], end=times[s.id][1])
                          for s in tracer.records]
        self.assertEqual(tracer.self_times(), {0: 5, 1: 2, 2: 2, 3: 1})
        self.assertEqual([(s.name, s.parent) for s in tracer.spans()],
                         [("root", None), ("child", 0), ("grandchild", 1), ("child", 0)])

    def test_jsonl_has_one_line_per_span(self):
        tracer = Tracer("run-7")
        with tracer.span("a", n=1) as sp:
            pass
        sp.set(m=2)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            path = Path(tmp) / "t.jsonl"
            tracer.write_jsonl(path)
            (line,) = path.read_text().splitlines()
        row = json.loads(line)
        self.assertEqual((row["run"], row["name"], row["parent"], row["attrs"]),
                         ("run-7", "a", None, {"n": 1, "m": 2}))
        self.assertLessEqual(row["start"], row["end"])


class ReferenceClockTests(unittest.TestCase):
    @staticmethod
    def clock(probes, lap_s):
        """A clock whose probe returns ``probes`` in turn; also the calls made."""
        calls = []

        def fake_probe():
            calls.append(None)
            return probes[len(calls) - 1]
        return ReferenceClock(fake_probe, lap_s), calls

    def test_a_lap_is_scaled_by_the_mean_of_its_two_probes(self):
        clock, calls = self.clock([0.008, 0.008, 0.004], lap_s=0)
        clock.start()
        clock.tick()
        clock.tick()
        first, second = clock.stop()
        self.assertEqual(len(calls), 3)
        raw = first / 0.5 + second / (2 * 0.004 / 0.012)
        self.assertAlmostEqual(raw, clock.raw)

    def test_items_share_a_lap_until_it_is_long_enough(self):
        clock, calls = self.clock([0.002, 0.006], lap_s=3600)
        clock.start()
        for _ in range(5):
            clock.tick()
        items = clock.stop()
        self.assertEqual((len(items), len(calls)), (5, 2))
        self.assertAlmostEqual(sum(items), clock.raw)  # factor 2*0.004/0.008 = 1

    def test_parallel_probe_stops_its_helpers(self):
        with ParallelProbe(2) as host_probe:
            self.assertGreater(host_probe(), 0)
            helpers = host_probe.helpers
            self.assertTrue(all(h.is_alive() for h in helpers))
        self.assertEqual([h.exitcode for h in helpers], [0])


class TableCheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.records = scan_colength_range(3, 10, 12)
        cls.expected = {l: workloads.expected_cells(l) for l in range(10, 13)}

    def test_seed_records_pass(self):
        self.assertEqual(workloads.table_problems(self.records, self.expected,
                                                  workloads.TABLE_DIGESTS[12]), [])

    def test_wrong_t_max_is_caught(self):
        broken = {l: dict(per_m1) for l, per_m1 in self.records.items()}
        m1, t = self.expected[11][0]
        broken[11][m1] = dataclasses.replace(broken[11][m1], t_max=t + 1)
        problems = workloads.table_problems(broken, self.expected, workloads.TABLE_DIGESTS[12])
        self.assertEqual(len(problems), 2)  # the cell and the digest
        self.assertIn(f"l=11 m1={m1}", problems[0])

    def test_changed_argmax_is_caught_by_digest(self):
        broken = {l: dict(per_m1) for l, per_m1 in self.records.items()}
        rec = broken[12][1]
        broken[12][1] = dataclasses.replace(rec, argmax=rec.argmax[:-1])
        problems = workloads.table_problems(broken, self.expected, workloads.TABLE_DIGESTS[12])
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_missing_colength_is_caught(self):
        broken = {l: per_m1 for l, per_m1 in self.records.items() if l != 10}
        problems = workloads.table_problems(broken, self.expected, workloads.TABLE_DIGESTS[12])
        self.assertIn("colength 10 missing", problems)

    def test_elapsed_does_not_enter_the_digest(self):
        retimed = {l: {m1: dataclasses.replace(rec, elapsed=rec.elapsed + 1)
                       for m1, rec in per_m1.items()} for l, per_m1 in self.records.items()}
        self.assertEqual(workloads.records_digest(retimed),
                         workloads.records_digest(self.records))


class EnumCheckTests(unittest.TestCase):
    pinned = workloads.ENUM_PINS[8]

    def test_pinned_stream_passes(self):
        self.assertEqual(workloads.enum_problems(*self.pinned, True, self.pinned), [])

    def test_each_disagreement_is_caught(self):
        count, digest = self.pinned
        self.assertEqual(len(workloads.enum_problems(count - 1, digest, True, self.pinned)), 1)
        self.assertEqual(len(workloads.enum_problems(count, "0" * 64, True, self.pinned)), 1)
        self.assertEqual(len(workloads.enum_problems(count, digest, False, self.pinned)), 1)

    def test_smoke_pass_detects_a_reordered_stream(self):
        wl = workloads.EnumN4(0, True, ROOT / ".perfbench")
        self.assertEqual(wl.run_pass(NULL, ReferenceClock()).failures, [])
        real = workloads.enumerate_strongly_stable
        workloads.enumerate_strongly_stable = lambda n, l: reversed(list(real(n, l)))
        try:
            (failure,) = wl.run_pass(NULL, ReferenceClock()).failures
        finally:
            workloads.enumerate_strongly_stable = real
        self.assertIn("strictly increasing", failure)
        self.assertIn("digest", failure)


class QueryTests(unittest.TestCase):
    def setUp(self):
        self.ideal = parse_ideal("x^2,x*y,y^3,x*z,y*z,z^2", nvars=3)
        self.report = tangent_dimension(self.ideal, standard_set(self.ideal))
        alpha, dim = self.report.graded[0]
        self.graded = {alpha: dim, (5, 5, 5): 0}

    def test_consistent_outputs_pass(self):
        self.assertEqual(workloads.query_problems(self.ideal, self.ideal, self.report,
                                                  self.graded), [])

    def test_wrong_graded_dimension_is_caught(self):
        graded = dict(self.graded)
        graded[(5, 5, 5)] = 1
        (problem,) = workloads.query_problems(self.ideal, self.ideal, self.report, graded)
        self.assertIn("(5, 5, 5)", problem)

    def test_bad_round_trip_and_total_are_caught(self):
        other = parse_ideal("x,y,z", nvars=3)
        report = dataclasses.replace(self.report, total=self.report.total + 1)
        problems = workloads.query_problems(self.ideal, other, report, self.graded)
        self.assertEqual(len(problems), 2)

    def test_inputs_repeat_per_seed_and_keep_the_mix(self):
        colengths = {3: (4, 12), 4: (4, 9)}
        a = workloads.make_queries(3, 24, colengths)
        self.assertEqual(a, workloads.make_queries(3, 24, colengths))
        b = workloads.make_queries(4, 24, colengths)
        self.assertNotEqual(a, b)
        self.assertEqual([q.nvars for q in a], [q.nvars for q in b])
        for i, q in enumerate(a):
            lo, hi = colengths[q.nvars]
            ideal = parse_ideal(q.text, nvars=q.nvars)
            self.assertEqual(len(standard_set(ideal).cells), lo + (i // 4) % (hi - lo + 1))

    def test_borel_staircases_give_strongly_stable_ideals(self):
        rng = random.Random(9)
        for nvars, l in [(3, 15), (4, 12), (3, 30)]:
            cells = workloads.random_staircase(rng, nvars, l, borel=True)
            ideal = MonomialIdeal(nvars, tuple(workloads.staircase_generators(nvars, cells)))
            self.assertTrue(is_strongly_stable(ideal))
            self.assertEqual(standard_set(ideal).cells, cells)

    def test_smoke_pass_counts_an_oracle_disagreement(self):
        wl = workloads.Queries(1, True, ROOT / ".perfbench")
        self.assertEqual(wl.run_pass(NULL, ReferenceClock()).failures, [])
        real = workloads.verify_tangent

        def disagree(ideal, std):
            raise VerificationError("forced")
        workloads.verify_tangent = disagree
        try:
            failures = wl.run_pass(NULL, ReferenceClock()).failures
        finally:
            workloads.verify_tangent = real
        self.assertEqual(len(failures), sum(q.verify for q in wl.queries))


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeTests(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for name in names:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = run_bench("--workload", name, "--seed", "5", "--seconds", "0.5",
                                     "--trace", trace, "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)

    def test_fails_without_the_package_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = run_bench("--workload", "queries", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    unittest.main()
