import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from boreltangent import scan
from boreltangent.cli import build_parser, main
from boreltangent.monomials import format_ideal
from boreltangent.enumeration import enumerate_strongly_stable
from boreltangent.tangent import VerificationError
from test_scan import N3_L8_LINES, needs_fork

SQUARE_TEXT = "x^2,x*y,y^2,x*z^2,y*z^2,z^4"
SESSION_TEXT = "x^2,y^3,z^3,x*y,x*z,y*z^2,y^2*z"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tangent_text(capsys):
    code, out, _ = run(capsys, "tangent", "--vars", "3", "--ideal", SQUARE_TEXT)
    assert code == 0
    assert "total: 36" in out
    assert "zero_rank: 12" in out


def test_tangent_json_schema(capsys):
    code, out, _ = run(capsys, "tangent", "--ideal", SQUARE_TEXT, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == 36 and obj["zero_rank"] == 12
    assert obj["l"] == 8 and obj["g"] == 6
    alphas = [tuple(e["alpha"]) for e in obj["graded"]]
    assert alphas == sorted(alphas)


def test_tangent_verify_ok(capsys):
    code, out, _ = run(capsys, "tangent", "--ideal", SQUARE_TEXT, "--verify")
    assert code == 0
    assert "total: 36" in out


def test_tangent_verify_mismatch_exit_3(capsys, monkeypatch):
    import boreltangent.cli as cli

    def broken(ideal, standard=None):
        raise VerificationError("forced mismatch")

    monkeypatch.setattr(cli, "verify_tangent", broken)
    code, _, err = run(capsys, "tangent", "--ideal", SQUARE_TEXT, "--verify")
    assert code == 3
    assert "consistency" in err


def test_graded_pinned_value(capsys):
    code, out, _ = run(capsys, "graded", "--vars", "3", "--ideal", SESSION_TEXT,
                       "--alpha", "0,2,-3")
    assert code == 0
    assert out.strip() == "1"


def test_graded_json(capsys):
    code, out, _ = run(capsys, "graded", "--ideal", SESSION_TEXT,
                       "--alpha", "0,2,-3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 1 and obj["alpha"] == [0, 2, -3]


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--ideal", "x,y,z", "--alpha=-1,0,0",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"alpha": [-1, 0, 0], "cells": [[0, 0, 0]],
                   "components": [[[0, 0, 0]]], "counted": 1}


def test_scan_text(capsys):
    code, out, _ = run(capsys, "scan", "--vars", "3", "--l", "10", "--m1", "3")
    assert code == 0
    assert "t_max=60" in out


def test_scan_all_classes_csv(capsys):
    code, out, _ = run(capsys, "scan", "--vars", "3", "--l", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,l,k,delta,m1,ideal_count,t_max,n_argmax,first_argmax"
    assert len(lines) == 4  # classes m1 = 1, 2, 3


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--vars", "3", "--l", "10", "--format", "json")
    assert code == 0
    records = json.loads(out)
    best = {r["m1"]: r["t_max"] for r in records}
    assert best == {1: 30, 2: 46, 3: 60}


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--vars", "2", "--l", "5")
    assert code == 0
    assert out.splitlines() == [format_ideal(i) for i in enumerate_strongly_stable(2, 5)]


def test_enumerate_jsonl(capsys):
    code, out, _ = run(capsys, "enumerate", "--vars", "2", "--l", "5",
                       "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(row["vars"] == 2 for row in rows)
    assert len(rows) == 3


def test_enumerate_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "--vars", "3", "--l", "8", "--m1", "2",
                       "--gens", "6")
    assert code == 0
    assert SQUARE_TEXT in out.splitlines()


def test_enumerate_cap_exit_4(capsys):
    code, out, err = run(capsys, "enumerate", "--vars", "3", "--l", "9",
                         "--max-results", "2")
    assert code == 4
    assert len(out.splitlines()) == 2
    assert "cap" in err


def test_table_small_range(capsys):
    code, out, _ = run(capsys, "table", "--lmin", "10", "--lmax", "11")
    assert code == 0
    assert "4/4 cells match" in out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_table_refuses_a_range_outside_the_published_one(capsys):
    code, out, err = run(capsys, "table", "--lmin", "5", "--lmax", "8", "--no-cache")
    assert (code, out) == (1, "")
    assert err == "error: l = 5..8 has no colength in the published table's range 10..35\n"


def test_table_clips_a_range_that_overlaps_the_published_one(capsys):
    clipped = run(capsys, "table", "--lmin", "5", "--lmax", "10", "--no-cache")
    assert clipped == run(capsys, "table", "--lmin", "10", "--lmax", "10", "--no-cache")
    assert clipped[0] == 0 and "2/2 cells match" in clipped[1]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--lmin", "10", "--lmax", "10",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,k,m1,expected,computed,ok"
    assert lines[1] == "10,3,2,46,46,true"


def test_check_monotonic(capsys):
    code, out, _ = run(capsys, "check-monotonic", "--vars", "3", "--l", "13")
    assert code == 0
    assert "STRICTLY INCREASING" in out
    assert "m1=1:39" in out and "m1=3:69" in out


def test_check_necessary(capsys):
    code, out, _ = run(capsys, "check-necessary", "--vars", "3", "--l", "10")
    assert code == 0
    assert "HOLDS" in out


def test_check_tetrahedral(capsys):
    code, out, _ = run(capsys, "check-tetrahedral", "--vars", "3", "--k", "2")
    assert code == 0
    assert "m^k attains it: True" in out


def test_bad_ideal_exit_2(capsys):
    code, _, err = run(capsys, "tangent", "--ideal", "q^2")
    assert code == 2
    assert "invalid ideal input" in err


def test_non_artinian_exit_2(capsys):
    code, _, err = run(capsys, "tangent", "--vars", "3", "--ideal", "x,y")
    assert code == 2


def test_region_wrong_dimension_exit_2(capsys):
    code, _, err = run(capsys, "region", "--ideal", "x,y^2", "--alpha", "0,0")
    assert code == 2


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "tangent")[0] == 1  # missing --ideal
    assert run(capsys, "graded", "--ideal", "x,y", "--alpha", "a,b")[0] == 1


def test_help_exit_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "enumerate" in out


# each command's options: (required, default, choices)
CLI_SURFACE = {
    "enumerate": {
        "--vars": (True, None, None), "--l": (True, None, None),
        "--m1": (False, None, None), "--gens": (False, None, None),
        "--max-results": (False, None, None),
        "--format": (False, "text", ("text", "jsonl")),
    },
    "tangent": {
        "--vars": (False, None, None), "--ideal": (True, None, None),
        "--verify": (False, False, None),
        "--format": (False, "text", ("text", "json")),
    },
    "graded": {
        "--vars": (False, None, None), "--ideal": (True, None, None),
        "--alpha": (True, None, None),
        "--format": (False, "text", ("text", "json")),
    },
    "region": {
        "--vars": (False, None, None), "--ideal": (True, None, None),
        "--alpha": (True, None, None), "--size-filter": (False, None, None),
        "--format": (False, "text", ("text", "json")),
    },
    "scan": {
        "--vars": (True, None, None), "--l": (True, None, None),
        "--m1": (False, None, None), "--verify": (False, False, None),
        "--workers": (False, 1, None), "--cache": (False, None, None),
        "--no-cache": (False, False, None), "--budget-seconds": (False, None, None),
        "--format": (False, "text", ("text", "json", "csv")),
    },
    "table": {
        "--lmin": (False, 10, None), "--lmax": (False, 35, None),
        "--workers": (False, 1, None), "--cache": (False, None, None),
        "--no-cache": (False, False, None), "--budget-seconds": (False, None, None),
        "--format": (False, "text", ("text", "json", "csv")),
    },
    "check-monotonic": {
        "--vars": (True, None, None), "--l": (True, None, None),
        "--workers": (False, 1, None), "--cache": (False, None, None),
        "--no-cache": (False, False, None), "--budget-seconds": (False, None, None),
        "--format": (False, "text", ("text", "json")),
    },
    "check-necessary": {
        "--vars": (True, None, None), "--l": (True, None, None),
        "--workers": (False, 1, None), "--cache": (False, None, None),
        "--no-cache": (False, False, None), "--budget-seconds": (False, None, None),
        "--format": (False, "text", ("text", "json")),
    },
    "check-tetrahedral": {
        "--vars": (True, None, None), "--k": (True, None, None),
        "--workers": (False, 1, None), "--cache": (False, None, None),
        "--no-cache": (False, False, None), "--budget-seconds": (False, None, None),
        "--format": (False, "text", ("text", "json")),
    },
}


def test_each_command_takes_its_pinned_options():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {a.option_strings[0]: (a.required, a.default,
                                     None if a.choices is None else tuple(a.choices))
               for a in sub._actions if a.dest != "help"}
        for name, sub in commands.choices.items()}
    assert list(surface) == list(CLI_SURFACE)
    assert surface == CLI_SURFACE
    assert all(len(a.option_strings) == 1 for sub in commands.choices.values()
               for a in sub._actions if a.dest != "help")


def test_budget_exit_4(capsys):
    code, _, err = run(capsys, "scan", "--vars", "3", "--l", "12",
                       "--budget-seconds", "0")
    assert code == 4
    assert "budget" in err


def test_infinite_budget_means_no_bound(capsys):
    # l = 24 outgrows one job, so the scan waits on its workers with this budget
    code, out, _ = run(capsys, "scan", "--vars", "3", "--l", "24", "--workers", "2",
                       "--no-cache", "--budget-seconds", "inf")
    assert code == 0
    assert (code, out) == run(capsys, "scan", "--vars", "3", "--l", "24", "--no-cache")[:2]


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_budget_below_zero_or_nan_exit_1(capsys, budget):
    code, out, err = run(capsys, "scan", "--vars", "3", "--l", "24", "--workers", "2",
                         "--no-cache", f"--budget-seconds={budget}")
    assert code == 1
    assert out == "" and "budget_seconds must be >= 0" in err


def test_cache_flag_writes_files(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "scan", "--vars", "3", "--l", "9", "--cache", str(cache))
    assert code == 0
    assert (cache / "scan-N3-l9.jsonl").is_file()


def test_cache_env_var_and_no_cache(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("BORELTANGENT_CACHE", str(env_cache))
    code, _, _ = run(capsys, "scan", "--vars", "3", "--l", "8")
    assert code == 0
    assert (env_cache / "scan-N3-l8.jsonl").is_file()

    other = tmp_path / "other"
    monkeypatch.setenv("BORELTANGENT_CACHE", str(other))
    code, _, _ = run(capsys, "scan", "--vars", "3", "--l", "8", "--no-cache")
    assert code == 0
    assert not other.exists()


def test_scan_verify_flag(capsys):
    code, out, _ = run(capsys, "scan", "--vars", "3", "--l", "8", "--verify")
    assert code == 0
    assert "t_max" in out


def test_scan_verify_at_l16(capsys):
    # 34 argmax ideals, the largest with G*l = 11*16 = 176
    code, out, _ = run(capsys, "scan", "--vars", "3", "--l", "16", "--verify")
    assert code == 0
    assert "N=3 l=16 m1=" in out


# the stdout of each command below is pinned byte for byte


def test_region_text_is_pinned(capsys):
    code, out, err = run(capsys, "region", "--ideal", SQUARE_TEXT, "--alpha=0,1,-2")
    assert (code, err) == (0, "")
    assert out == "alpha: 0,1,-2\ncells: 6\ncomponents: 1\ncounted: 1\n"


def test_table_json_is_pinned(capsys):
    code, out, err = run(capsys, "table", "--lmin", "10", "--lmax", "10",
                         "--no-cache", "--format", "json")
    assert (code, err) == (0, "")
    assert out == """\
[
  {
    "l": 10,
    "k": 3,
    "m1": 2,
    "expected": 46,
    "computed": 46,
    "ok": true
  },
  {
    "l": 10,
    "k": 3,
    "m1": 3,
    "expected": 60,
    "computed": 60,
    "ok": true
  }
]
"""


def test_check_monotonic_json_is_pinned(capsys):
    code, out, err = run(capsys, "check-monotonic", "--vars", "3", "--l", "8",
                         "--no-cache", "--format", "json")
    assert (code, err) == (0, "")
    assert out == """\
{
  "nvars": 3,
  "l": 8,
  "sequence": [
    {
      "m1": 1,
      "t_max": 24
    },
    {
      "m1": 2,
      "t_max": 36
    }
  ],
  "strictly_increasing": true,
  "weakly_increasing": true
}
"""


def test_check_monotonic_weakly_increasing_is_pinned(capsys):
    # in the plane every colength-6 ideal has T = 12
    code, out, err = run(capsys, "check-monotonic", "--vars", "2", "--l", "6", "--no-cache")
    assert (code, err) == (0, "")
    assert out == "N=2 l=6  m1=1:12  m1=2:12  m1=3:12\nWEAKLY INCREASING\n"


def test_check_monotonic_not_increasing_is_pinned(capsys, monkeypatch):
    # no scanned colength decreases, so the verdict is made up
    import boreltangent.cli as cli

    def decreasing(nvars, l, **kwargs):
        return scan.MonotonicityVerdict(nvars=nvars, l=l, sequence=((1, 30), (2, 24)),
                                        strictly_increasing=False, weakly_increasing=False)

    monkeypatch.setattr(cli, "check_monotonicity", decreasing)
    code, out, err = run(capsys, "check-monotonic", "--vars", "3", "--l", "8", "--no-cache")
    assert (code, err) == (0, "")
    assert out == "N=3 l=8  m1=1:30  m1=2:24\nNOT INCREASING\n"


def test_check_necessary_json_is_pinned(capsys):
    code, out, err = run(capsys, "check-necessary", "--vars", "3", "--l", "8",
                         "--no-cache", "--format", "json")
    assert (code, err) == (0, "")
    assert out == """\
{
  "nvars": 3,
  "l": 8,
  "k": 2,
  "t_max": 36,
  "argmax_m1": [
    2
  ],
  "argmax": [
    "x^2,x*y,y^2,x*z^2,y*z^2,z^4"
  ],
  "holds": true,
  "unique": true
}
"""


def test_check_tetrahedral_json_is_pinned(capsys):
    code, out, err = run(capsys, "check-tetrahedral", "--vars", "3", "--k", "2",
                         "--no-cache", "--format", "json")
    assert (code, err) == (0, "")
    assert out == """\
{
  "nvars": 3,
  "k": 2,
  "l": 4,
  "t_max": 18,
  "power_attains": true,
  "unique": true,
  "n_argmax": 1
}
"""


SCAN_N3_L8_TEXT = """\
N=3 l=8 m1=1: ideal_count=6 t_max=24 n_argmax=6
  argmax: x,y,z^8
  argmax: x,y^2,y*z,z^7
  argmax: x,y^2,y*z^2,z^6
  argmax: x,y^2,y*z^3,z^5
  argmax: x,y^3,y^2*z,y*z^2,z^5
  argmax: x,y^3,y^2*z,y*z^3,z^4
N=3 l=8 m1=2: ideal_count=6 t_max=36 n_argmax=1
  argmax: x^2,x*y,y^2,x*z^2,y*z^2,z^4
"""

SCAN_N3_L8_JSON = """\
[
  {
    "schema_version": 1,
    "nvars": 3,
    "l": 8,
    "m1": 1,
    "ideal_count": 6,
    "t_max": 24,
    "argmax": [
      "x,y,z^8",
      "x,y^2,y*z,z^7",
      "x,y^2,y*z^2,z^6",
      "x,y^2,y*z^3,z^5",
      "x,y^3,y^2*z,y*z^2,z^5",
      "x,y^3,y^2*z,y*z^3,z^4"
    ],
    "elapsed": 0.0011092010026914068
  },
  {
    "schema_version": 1,
    "nvars": 3,
    "l": 8,
    "m1": 2,
    "ideal_count": 6,
    "t_max": 36,
    "argmax": [
      "x^2,x*y,y^2,x*z^2,y*z^2,z^4"
    ],
    "elapsed": 0.0011092010026914068
  }
]
"""

# the graded report of SQUARE_TEXT, one (alpha, dim) per piece in order
SQUARE_GRADED = [
    ((-2, 0, 2), 1), ((-2, 0, 3), 1), ((-2, 1, 0), 1), ((-2, 1, 1), 1),
    ((-1, -1, 2), 1), ((-1, -1, 3), 1), ((-1, 0, 0), 3), ((-1, 0, 1), 3),
    ((-1, 1, -2), 1), ((-1, 1, -1), 1), ((0, -2, 2), 1), ((0, -2, 3), 1),
    ((0, -1, 0), 3), ((0, -1, 1), 3), ((0, 0, -2), 3), ((0, 0, -1), 3),
    ((0, 1, -4), 1), ((0, 1, -3), 1), ((1, -2, 0), 1), ((1, -2, 1), 1),
    ((1, -1, -2), 1), ((1, -1, -1), 1), ((1, 0, -4), 1), ((1, 0, -3), 1),
]
SQUARE_GENS = [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 2], [0, 1, 2], [0, 0, 4]]
SQUARE_CELLS = [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3], [1, 0, 0], [1, 0, 1]]


def _indented(value) -> str:
    """A literal value as the CLI prints a JSON document: indented by 2."""
    return json.dumps(value, indent=2) + "\n"


def _case_id(argv) -> str:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return f"{argv[0]}-{fmt}"


@pytest.mark.parametrize("argv, out", [
    (["tangent", "--ideal", SQUARE_TEXT],
     "ideal: x^2,x*y,y^2,x*z^2,y*z^2,z^4\nl: 8\ng: 6\ntotal: 36\nzero_rank: 12\n"),
    (["tangent", "--ideal", SQUARE_TEXT, "--format", "json"],
     _indented({"ideal": {"vars": 3, "gens": SQUARE_GENS}, "l": 8, "g": 6, "total": 36,
                "zero_rank": 12,
                "graded": [{"alpha": list(a), "dim": d} for a, d in SQUARE_GRADED]})),
    (["graded", "--ideal", SESSION_TEXT, "--alpha", "0,2,-3"], "1\n"),
    (["graded", "--ideal", SESSION_TEXT, "--alpha", "0,2,-3", "--format", "json"],
     '{"ideal": {"vars": 3, "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 3, 0], '
     '[0, 2, 1], [0, 1, 2], [0, 0, 3]]}, "alpha": [0, 2, -3], "dim": 1}\n'),
    (["region", "--ideal", SQUARE_TEXT, "--alpha=0,1,-2", "--format", "json"],
     _indented({"alpha": [0, 1, -2], "cells": SQUARE_CELLS, "components": [SQUARE_CELLS],
                "counted": 1})),
    (["scan", "--vars", "3", "--l", "8"], SCAN_N3_L8_TEXT),
    (["scan", "--vars", "3", "--l", "8", "--format", "json"], SCAN_N3_L8_JSON),
    (["scan", "--vars", "3", "--l", "8", "--format", "csv"],
     'N,l,k,delta,m1,ideal_count,t_max,n_argmax,first_argmax\n'
     '3,8,2,4,1,6,24,6,"x,y,z^8"\n'
     '3,8,2,4,2,6,36,1,"x^2,x*y,y^2,x*z^2,y*z^2,z^4"\n'),
    (["table", "--lmin", "10", "--lmax", "10", "--no-cache"],
     "  l  k  m1  expected  computed  status\n"
     " 10  3   2        46        46  PASS\n"
     " 10  3   3        60        60  PASS\n"
     "2/2 cells match\n"),
    (["table", "--lmin", "10", "--lmax", "10", "--no-cache", "--format", "csv"],
     "l,k,m1,expected,computed,ok\n10,3,2,46,46,true\n10,3,3,60,60,true\n"),
    (["check-necessary", "--vars", "3", "--l", "8", "--no-cache"],
     "N=3 l=8 k=2: global max 36 attained at m1 in {2}\nHOLDS (every argmax has m1 = k)\n"),
    (["check-tetrahedral", "--vars", "3", "--k", "2", "--no-cache"],
     "N=3 k=2 l=4: global max 18, m^k attains it: True, unique: True (n_argmax=1)\n"),
    (["enumerate", "--vars", "3", "--l", "5"],
     "x,y,z^5\nx,y^2,y*z,z^4\nx,y^2,y*z^2,z^3\nx^2,x*y,x*z,y^2,y*z,z^3\n"),
    (["enumerate", "--vars", "3", "--l", "5", "--format", "jsonl"],
     '{"vars": 3, "gens": [[1, 0, 0], [0, 1, 0], [0, 0, 5]]}\n'
     '{"vars": 3, "gens": [[1, 0, 0], [0, 2, 0], [0, 1, 1], [0, 0, 4]]}\n'
     '{"vars": 3, "gens": [[1, 0, 0], [0, 2, 0], [0, 1, 2], [0, 0, 3]]}\n'
     '{"vars": 3, "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], '
     '[0, 0, 3]]}\n'),
], ids=lambda v: _case_id(v) if isinstance(v, list) else "stdout")
def test_command_stdout_is_pinned(capsys, tmp_path, argv, out):
    if argv[0] == "scan":
        # served from a file of fixed elapsed, as the schema 1 writer wrote it
        (tmp_path / "scan-N3-l8.jsonl").write_text("".join(line + "\n" for line in N3_L8_LINES))
        argv = [*argv, "--cache", str(tmp_path)]
    assert run(capsys, *argv) == (0, out, "")


def test_check_tetrahedral_refuses_k_below_one_by_its_own_flag(capsys):
    code, out, err = run(capsys, "check-tetrahedral", "--vars", "3", "--k", "0", "--no-cache")
    assert (code, out, err) == (1, "", "error: need nvars >= 1 and k >= 1\n")


@pytest.mark.parametrize("argv", [["scan", "--vars", "3", "--l", "0", "--no-cache"],
                                  ["check-monotonic", "--vars", "3", "--l", "0", "--no-cache"],
                                  ["check-necessary", "--vars", "3", "--l", "0", "--no-cache"],
                                  ["enumerate", "--vars", "3", "--l", "0"]],
                         ids=lambda argv: argv[0])
def test_a_colength_below_one_is_refused_by_its_own_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: colength must be >= 1\n")


def test_budget_breach_names_the_completed_colengths(capsys, monkeypatch):
    # every job of l = 11 sleeps past the budget, so l = 10 completes first
    job = scan._job

    def late_at_11(nvars, task, deadline=None):
        if task[2] == 11:
            time.sleep(0.6)
        return job(nvars, task, deadline)

    monkeypatch.setattr(scan, "_job", late_at_11)
    code, out, err = run(capsys, "table", "--lmin", "10", "--lmax", "11", "--no-cache",
                         "--budget-seconds", "0.3")
    assert (code, out) == (4, "")
    assert err == ("budget exceeded: budget of 0.3s exceeded scanning N=3 l=11 "
                   "with 1 jobs outstanding\ncompleted colengths: [10]\n")


@needs_fork
def test_lost_workers_name_the_completed_colengths(capsys, monkeypatch):
    # every job of l = 11 kills its worker, late enough that l = 10 completes first
    job = scan._job

    def dies_at_11(nvars, task, deadline=None):
        if task[2] == 11:
            time.sleep(0.3)
            os._exit(137)
        return job(nvars, task, deadline)

    monkeypatch.setattr(scan, "_job", dies_at_11)
    code, out, err = run(capsys, "table", "--lmin", "10", "--lmax", "11", "--no-cache",
                         "--workers", "2")
    assert (code, out) == (6, "")
    assert err == (f"worker lost: {scan.LOST_JOB_RERUNS + 1} workers died mid-job scanning "
                   f"N=3, the last at l=11 with exit code 137; a scan runs a lost job again "
                   f"{scan.LOST_JOB_RERUNS} times at most\ncompleted colengths: [10]\n")


@pytest.mark.parametrize("text", ["x^²,y,z", "x^١,y,z", "x²,y,z"])
def test_non_ascii_digits_exit_2(capsys, text):
    code, out, err = run(capsys, "tangent", "--ideal", text)
    assert (code, out) == (2, "")
    assert err.startswith("invalid ideal input: ")


def test_closed_stdout_exits_141_quietly():
    # N=3 l=30 prints about 300 KB, more than a pipe holds, so the command
    # is still writing when its reader goes away after one line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "boreltangent", "enumerate",
                             "--vars", "3", "--l", "30"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert (first, err) == (b"x,y,z^30\n", b"")


@pytest.mark.parametrize("argv", [
    ["graded", "--ideal", SESSION_TEXT, "--alpha", "٠,2,-3"],
    ["graded", "--ideal", SESSION_TEXT, "--alpha", "0_0,2,-3"],
    ["region", "--ideal", SESSION_TEXT, "--alpha", "+0,2,-3"],
    ["enumerate", "--vars", "٣", "--l", "٤"],
    ["check-monotonic", "--vars", "3", "--l", "1_0", "--no-cache"],
    ["scan", "--vars", "3", "--l", "10", "--no-cache", "--budget-seconds", "١٠"],
    ["scan", "--vars", "3", "--l", "10", "--no-cache", "--budget-seconds", "1_0"],
])
def test_numbers_on_the_command_line_are_ascii_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_a_bad_alpha_is_refused_by_the_parser_like_any_number(capsys):
    assert run(capsys, "graded", "--ideal", SESSION_TEXT, "--alpha", "a,b") == \
        (1, "", "error: argument --alpha: invalid int value: 'a'\n")


def test_whitespace_around_an_alpha_part_is_read(capsys):
    assert run(capsys, "graded", "--ideal", SESSION_TEXT, "--alpha", " -0, 2 ,-3 ") == \
        (0, "1\n", "")


@pytest.mark.parametrize("argv, out", [
    (["graded", "--ideal", "x,y", "--alpha", "-1,0"], "1\n"),
    (["region", "--ideal", "x,y,z", "--alpha", "-1,0,0"],
     "alpha: -1,0,0\ncells: 1\ncomponents: 1\ncounted: 1\n"),
], ids=["graded", "region"])
def test_an_alpha_with_a_negative_first_part_is_a_value(capsys, argv, out):
    # a word that starts with '-' and a digit is read as a value, the same
    # as after '='
    assert run(capsys, *argv) == (0, out, "")
    assert run(capsys, *argv[:-2], "--alpha=" + argv[-1]) == (0, out, "")


@pytest.mark.parametrize("argv", [["check-monotonic", "--vars", "0", "--l", "5"],
                                  ["scan", "--vars", "0", "--l", "5"],
                                  ["scan", "--vars", "-2", "--l", "5"],
                                  ["enumerate", "--vars", "0", "--l", "5"],
                                  ["enumerate", "--vars", "-2", "--l", "5"]])
def test_scan_of_fewer_than_one_variable_exits_1(capsys, tmp_path, argv):
    if argv[0] != "enumerate":  # enumerate takes no cache flags
        argv = [*argv, "--cache", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: nvars must be >= 1\n")


@pytest.mark.parametrize("argv,message", [
    (["--vars", "3", "--l", "10", "--m1", "0"], "m1 must be >= 1"),
    (["--vars", "3", "--l", "0", "--m1", "2"], "colength must be >= 1"),
    (["--vars", "0", "--l", "5", "--m1", "1"], "nvars must be >= 1"),
])
def test_scan_of_one_class_refuses_each_field_by_name(capsys, argv, message):
    code, out, err = run(capsys, "scan", *argv, "--no-cache")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["tangent", "--ideal", ""],
                                  ["graded", "--ideal", "", "--alpha", "0"]])
def test_empty_ideal_text_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "invalid ideal input: empty ideal text\n")


def _cli(*argv, stdout=subprocess.DEVNULL):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    # buffered, as stdout is by default, so that a short output fails only
    # when it is flushed
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "boreltangent", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["enumerate", "--vars", "3", "--l", "30", "--format", "jsonl"],
                                  ["table", "--lmin", "10", "--lmax", "10", "--no-cache",
                                   "--format", "json"],
                                  ["graded", "--ideal", "x,y", "--alpha", "0,0"]])
def test_full_disk_under_stdout_exits_5_with_one_line(argv):
    with open("/dev/full", "wb") as full:
        proc = _cli(*argv, stdout=full)
    assert (proc.returncode, proc.stderr) == (5, b"error: [Errno 28] No space left on device\n")


def test_closed_stdout_with_a_short_output_exits_141_quietly():
    # the one line waits in the buffer until the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli("graded", "--ideal", "x,y", "--alpha", "0,0", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_unwritable_cache_exits_5_with_one_line(tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    proc = _cli("scan", "--vars", "3", "--l", "8", "--cache", str(not_a_dir))
    assert proc.returncode == 5
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
