"""Command-line surface.

Subcommands: enumerate, tangent, graded, region, scan, table,
check-monotonic, check-necessary, check-tetrahedral.

Exit codes: 0 success; 1 usage error; 2 invalid ideal input; 3 internal
consistency failure (graded method vs matrix oracle under --verify);
4 budget or size cap exceeded (partial results are flushed to the cache
when caching is enabled).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import EnumerationLimitError, EnumFilter, enumerate_strongly_stable
from .monomials import (
    DimensionMismatchError,
    IdealSyntaxError,
    InvalidStaircaseError,
    MonomialIdeal,
    NonArtinianIdealError,
    format_ideal,
    ideal_to_json,
    parse_ideal,
)
from .region3d import UnsupportedDimensionError, region_slice, region_slice_to_json
from .scan import (
    CACHE_ENV_VAR,
    CSV_HEADER,
    BudgetExceededError,
    ScanKey,
    check_monotonicity,
    check_necessary_condition,
    check_tetrahedral_max,
    reproduce_published_table,
    scan_colength,
    t_max,
)
from .tangent import (
    OracleSizeError,
    VerificationError,
    graded_dimension,
    tangent_dimension,
    verify_tangent,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_IDEAL = 2
EXIT_INCONSISTENT = 3
EXIT_BUDGET = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"bad --alpha {text!r}; expected comma-separated integers")


def _load_ideal(args) -> MonomialIdeal:
    if not args.ideal:
        raise _UsageError("--ideal is required")
    return parse_ideal(args.ideal, nvars=args.vars)


def _cache_dir(args):
    if args.no_cache:
        return None
    return args.cache or os.environ.get(CACHE_ENV_VAR) or None


def _scan_kwargs(args) -> dict:
    return {
        "workers": args.workers,
        "cache_dir": _cache_dir(args),
        "budget_seconds": args.budget_seconds,
    }


def _add_scan_flags(sub) -> None:
    sub.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    sub.add_argument("--cache", metavar="DIR",
                     help=f"results cache directory (default: ${CACHE_ENV_VAR})")
    sub.add_argument("--no-cache", action="store_true", help="disable the cache")
    sub.add_argument("--budget-seconds", type=float, default=None, metavar="S",
                     help="per-colength wall-clock budget, the staircase walk included")


def _add_format_flag(sub, choices=("text", "json")) -> None:
    sub.add_argument("--format", choices=choices, default="text")


def build_parser() -> _Parser:
    parser = _Parser(prog="boreltangent",
                     description="Strongly stable ideals and Hilbert-scheme "
                                 "tangent space dimensions.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="list strongly stable ideals "
                        "of a colength in canonical order")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m1", type=int, default=None, help="restrict to pure x1 exponent")
    p.add_argument("--gens", type=int, default=None, help="restrict to generator count")
    p.add_argument("--max-results", type=int, default=None)
    _add_format_flag(p, choices=("text", "jsonl"))
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("tangent", help="T(I), zero rank, and the graded report")
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--ideal", required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the exact matrix oracle")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_tangent)

    p = subs.add_parser("graded", help="dimension of one graded piece of T(I)")
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--ideal", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated degree, e.g. 0,2,-3")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_graded)

    p = subs.add_parser("region", help="grid-region slice at one degree (N=3)")
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--ideal", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--size-filter", type=int, default=None)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_region)

    p = subs.add_parser("scan", help="T_max and argmax ideals per m1 class")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m1", type=int, default=None, help="single class (default: all)")
    p.add_argument("--verify", action="store_true",
                   help="re-check argmax ideals with the matrix oracle")
    _add_scan_flags(p)
    _add_format_flag(p, choices=("text", "json", "csv"))
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("table", help="recompute the published N=3 T_max table "
                        "and report PASS/FAIL per cell")
    p.add_argument("--lmin", type=int, default=10)
    p.add_argument("--lmax", type=int, default=35)
    _add_scan_flags(p)
    _add_format_flag(p, choices=("text", "json", "csv"))
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("check-monotonic", help="is T_max increasing in m1?")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_scan_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_check_monotonic)

    p = subs.add_parser("check-necessary", help="does the global argmax have m1 = k?")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_scan_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_check_necessary)

    p = subs.add_parser("check-tetrahedral", help="does m^k attain the maximum "
                        "at the tetrahedral colength?")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_scan_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_check_tetrahedral)

    return parser


def _cmd_enumerate(args) -> int:
    filt = EnumFilter(m1=args.m1, num_generators=args.gens,
                      max_results=args.max_results)
    for ideal in enumerate_strongly_stable(args.vars, args.l, filt):
        if args.format == "jsonl":
            print(json.dumps(ideal_to_json(ideal)))
        else:
            print(format_ideal(ideal))
    return EXIT_OK


def _cmd_tangent(args) -> int:
    ideal = _load_ideal(args)
    report = verify_tangent(ideal) if args.verify else tangent_dimension(ideal)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"ideal: {format_ideal(ideal)}")
        print(f"l: {report.l}")
        print(f"g: {report.g}")
        print(f"total: {report.total}")
        print(f"zero_rank: {report.zero_rank}")
    return EXIT_OK


def _cmd_graded(args) -> int:
    ideal = _load_ideal(args)
    alpha = _parse_alpha(args.alpha)
    dim = graded_dimension(ideal, alpha)
    if args.format == "json":
        print(json.dumps({"ideal": ideal_to_json(ideal),
                          "alpha": list(alpha), "dim": dim}))
    else:
        print(dim)
    return EXIT_OK


def _cmd_region(args) -> int:
    ideal = _load_ideal(args)
    alpha = _parse_alpha(args.alpha)
    slc = region_slice(ideal, alpha, size_filter=args.size_filter)
    if args.format == "text":
        print(f"alpha: {','.join(str(a) for a in slc.alpha)}")
        print(f"cells: {len(slc.cells)}")
        print(f"components: {len(slc.components)}")
        print(f"counted: {slc.counted}")
    else:
        print(json.dumps(region_slice_to_json(slc), indent=2))
    return EXIT_OK


def _print_records(records, fmt) -> None:
    if fmt == "csv":
        print(CSV_HEADER)
        for record in records:
            print(record.to_csv_row())
    elif fmt == "json":
        print(json.dumps([r.to_json() for r in records], indent=2))
    else:
        for r in records:
            t = "-" if r.t_max is None else r.t_max
            print(f"N={r.key.nvars} l={r.key.l} m1={r.key.m1}: "
                  f"ideal_count={r.ideal_count} t_max={t} n_argmax={len(r.argmax)}")
            for ideal in r.argmax:
                print(f"  argmax: {format_ideal(ideal)}")


def _cmd_scan(args) -> int:
    kwargs = _scan_kwargs(args)
    if args.m1 is not None:
        records = [t_max(ScanKey(args.vars, args.l, args.m1), **kwargs)]
    else:
        per_m1 = scan_colength(args.vars, args.l, **kwargs)
        records = [per_m1[m1] for m1 in sorted(per_m1)]
    if args.verify:
        for record in records:
            for ideal in record.argmax:
                verify_tangent(ideal)
    _print_records(records, args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    cells = reproduce_published_table(args.lmin, args.lmax, **_scan_kwargs(args))
    if args.format == "json":
        print(json.dumps([c.to_json() for c in cells], indent=2))
    elif args.format == "csv":
        print("l,k,m1,expected,computed,ok")
        for c in cells:
            computed = "" if c.computed is None else c.computed
            print(f"{c.l},{c.k},{c.m1},{c.expected},{computed},{str(c.ok).lower()}")
    else:
        print(f"{'l':>3} {'k':>2} {'m1':>3} {'expected':>9} {'computed':>9}  status")
        for c in cells:
            computed = "-" if c.computed is None else c.computed
            status = "PASS" if c.ok else "FAIL"
            print(f"{c.l:>3} {c.k:>2} {c.m1:>3} {c.expected:>9} {computed:>9}  {status}")
        good = sum(1 for c in cells if c.ok)
        print(f"{good}/{len(cells)} cells match")
    return EXIT_OK


def _cmd_check_monotonic(args) -> int:
    verdict = check_monotonicity(args.vars, args.l, **_scan_kwargs(args))
    if args.format == "json":
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        seq = "  ".join(f"m1={m1}:{t}" for m1, t in verdict.sequence)
        print(f"N={verdict.nvars} l={verdict.l}  {seq}")
        if verdict.strictly_increasing:
            word = "STRICTLY INCREASING"
        elif verdict.weakly_increasing:
            word = "WEAKLY INCREASING"
        else:
            word = "NOT INCREASING"
        print(word)
    return EXIT_OK


def _cmd_check_necessary(args) -> int:
    verdict = check_necessary_condition(args.vars, args.l, **_scan_kwargs(args))
    if args.format == "json":
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        m1s = ",".join(str(m) for m in verdict.argmax_m1)
        print(f"N={verdict.nvars} l={verdict.l} k={verdict.k}: "
              f"global max {verdict.t_max} attained at m1 in {{{m1s}}}")
        print("HOLDS (every argmax has m1 = k)" if verdict.holds
              else "VIOLATED (some argmax has m1 != k)")
    return EXIT_OK


def _cmd_check_tetrahedral(args) -> int:
    verdict = check_tetrahedral_max(args.vars, args.k, **_scan_kwargs(args))
    if args.format == "json":
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        print(f"N={verdict.nvars} k={verdict.k} l={verdict.l}: "
              f"global max {verdict.t_max}, m^k attains it: {verdict.power_attains}, "
              f"unique: {verdict.unique} (n_argmax={verdict.n_argmax})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IdealSyntaxError, NonArtinianIdealError, InvalidStaircaseError,
            DimensionMismatchError, UnsupportedDimensionError) as exc:
        print(f"invalid ideal input: {exc}", file=sys.stderr)
        return EXIT_BAD_IDEAL
    except VerificationError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        if exc.completed:
            print(f"completed colengths: {sorted(exc.completed)}", file=sys.stderr)
        return EXIT_BUDGET
    except (EnumerationLimitError, OracleSizeError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
