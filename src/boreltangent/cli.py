"""Command-line surface.

Subcommands: enumerate, tangent, graded, region, scan, table,
check-monotonic, check-necessary, check-tetrahedral.

Output: a command's handler returns its result as a JSON value and its
text lines, and :func:`main` alone writes stdout: ``--format json``
prints the value as one document indented by 2, and every other format,
or a handler with no value (None), prints the lines.  ``scan`` and
``table`` also take ``--format csv``, for which the lines are the CSV
rows under their header.  ``enumerate`` returns its lines lazily, one
ideal each, as text or as JSON lines (``--format jsonl``), so its output
streams with no bound and a ``--max-results`` prefix is printed before
the cap's exit 4.  ``graded`` returns its JSON document as its one line,
unindented.  Errors go to stderr, one line each, with these exit codes.

Exit codes: 0 success; 1 usage error; 2 invalid ideal input; 3 internal
consistency failure (graded method vs matrix oracle under --verify);
4 budget or size cap exceeded (partial results are flushed to the cache
when caching is enabled); 5 input/output error, such as a full disk under
stdout or a cache that cannot be written; 6 scan workers died mid-job
more often than a scan runs a lost job again (completed colengths are
flushed as under 4); 141 (128 + SIGPIPE) the reader of stdout went away,
as under ``| head``.

Numbers on the command line are ASCII, as in the ideal grammar: an
integer is an optional '-' and ASCII digits.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .enumeration import EnumerationLimitError, EnumFilter, enumerate_strongly_stable
from .monomials import (
    DimensionMismatchError,
    IdealSyntaxError,
    InvalidStaircaseError,
    NonArtinianIdealError,
    _digits,
    format_ideal,
    ideal_to_json,
    parse_ideal,
)
from .published_table import TABLE_LMAX, TABLE_LMIN
from .region3d import UnsupportedDimensionError, region_slice, region_slice_to_json
from .scan import (
    CACHE_ENV_VAR,
    CSV_HEADER,
    BudgetExceededError,
    ScanKey,
    WorkerLostError,
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
EXIT_IO = 5
EXIT_WORKER_LOST = 6
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word like -1 or -1,0 is a value, as in --alpha -1,0: no option
        # looks like a negative number
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _int(text: str) -> int:
    """An optional '-' and ASCII digits, with whitespace around."""
    part = text.strip()
    if not _digits(part.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(part)


def _float(text: str) -> float:
    """float() of ASCII text without '_'; inf and nan keep their meaning."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _alpha(text: str) -> tuple[int, ...]:
    """A degree: comma-separated integers, each read by :func:`_int`."""
    return tuple(map(_int, text.split(",")))


def _stdout_to_devnull() -> None:
    """Point stdout at devnull, so that the interpreter's final flush
    cannot raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _scan_kwargs(args) -> dict:
    cache = None if args.no_cache else args.cache or os.environ.get(CACHE_ENV_VAR) or None
    return {"workers": args.workers, "cache_dir": cache, "budget_seconds": args.budget_seconds}


def build_parser() -> _Parser:
    parser = _Parser(prog="boreltangent",
                     description="Strongly stable ideals and Hilbert-scheme "
                                 "tangent space dimensions.")
    subs = parser.add_subparsers(dest="command", required=True)
    # flag groups, each declared once and shared as argparse parents
    ideal, alpha, colength, scan = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    ideal.add_argument("--vars", type=_int, default=None)
    ideal.add_argument("--ideal", required=True)
    alpha.add_argument("--alpha", type=_alpha, required=True,
                       help="comma-separated degree, e.g. 0,2,-3")
    colength.add_argument("--vars", type=_int, required=True)
    colength.add_argument("--l", type=_int, required=True)
    scan.add_argument("--workers", type=_int, default=1, help="parallel workers (default 1)")
    scan.add_argument("--cache", metavar="DIR",
                      help=f"results cache directory (default: ${CACHE_ENV_VAR})")
    scan.add_argument("--no-cache", action="store_true", help="disable the cache")
    scan.add_argument("--budget-seconds", type=_float, default=None, metavar="S",
                      help="wall-clock budget of the whole scan, every colength and the "
                           "staircase walk included; with several workers each wait for a "
                           "job is bounded by the time left; S >= 0, and inf sets no bound")

    def command(name, func, help, parents, formats=("text", "json")):
        p = subs.add_parser(name, help=help, parents=parents)
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(func=func)
        return p

    p = command("enumerate", _cmd_enumerate, "list strongly stable ideals "
                "of a colength in canonical order", [colength], formats=("text", "jsonl"))
    p.add_argument("--m1", type=_int, default=None, help="restrict to pure x1 exponent")
    p.add_argument("--gens", type=_int, default=None, help="restrict to generator count")
    p.add_argument("--max-results", type=_int, default=None)

    p = command("tangent", _cmd_tangent, "T(I), zero rank, and the graded report", [ideal])
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the exact matrix oracle")

    command("graded", _cmd_graded, "dimension of one graded piece of T(I)", [ideal, alpha])

    p = command("region", _cmd_region, "grid-region slice at one degree (N=3)", [ideal, alpha])
    p.add_argument("--size-filter", type=_int, default=None)

    p = command("scan", _cmd_scan, "T_max and argmax ideals per m1 class",
                [colength, scan], formats=("text", "json", "csv"))
    p.add_argument("--m1", type=_int, default=None, help="single class (default: all)")
    p.add_argument("--verify", action="store_true",
                   help="re-check argmax ideals with the matrix oracle")

    p = command("table", _cmd_table, "recompute the published N=3 T_max table "
                "and report PASS/FAIL per cell", [scan], formats=("text", "json", "csv"))
    p.add_argument("--lmin", type=_int, default=TABLE_LMIN)
    p.add_argument("--lmax", type=_int, default=TABLE_LMAX)

    command("check-monotonic", _cmd_check_monotonic, "is T_max increasing in m1?",
            [colength, scan])
    command("check-necessary", _cmd_check_necessary, "does the global argmax have m1 = k?",
            [colength, scan])
    p = command("check-tetrahedral", _cmd_check_tetrahedral, "does m^k attain the maximum "
                "at the tetrahedral colength?", [scan])
    p.add_argument("--vars", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    return parser


def _cmd_enumerate(args) -> tuple[None, map]:
    # lazy lines, which main prints as the ideals are found: the output has
    # no bound, and a --max-results prefix must reach stdout before the
    # cap's exit 4
    filt = EnumFilter(m1=args.m1, num_generators=args.gens,
                      max_results=args.max_results)
    ideals = enumerate_strongly_stable(args.vars, args.l, filt)
    if args.format == "jsonl":
        return None, map(json.dumps, map(ideal_to_json, ideals))
    return None, map(format_ideal, ideals)


def _cmd_tangent(args) -> tuple[object, list[str]]:
    ideal = parse_ideal(args.ideal, nvars=args.vars)
    report = verify_tangent(ideal) if args.verify else tangent_dimension(ideal)
    return report.to_json(), [f"ideal: {format_ideal(ideal)}",
                              f"l: {report.l}",
                              f"g: {report.g}",
                              f"total: {report.total}",
                              f"zero_rank: {report.zero_rank}"]


def _cmd_graded(args) -> tuple[None, list[str]]:
    # its JSON document is one line, not indented like every other command's
    ideal = parse_ideal(args.ideal, nvars=args.vars)
    dim = graded_dimension(ideal, args.alpha)
    doc = {"ideal": ideal_to_json(ideal), "alpha": list(args.alpha), "dim": dim}
    return None, [json.dumps(doc) if args.format == "json" else str(dim)]


def _cmd_region(args) -> tuple[object, list[str]]:
    ideal = parse_ideal(args.ideal, nvars=args.vars)
    slc = region_slice(ideal, args.alpha, size_filter=args.size_filter)
    return region_slice_to_json(slc), [f"alpha: {','.join(str(a) for a in slc.alpha)}",
                                       f"cells: {len(slc.cells)}",
                                       f"components: {len(slc.components)}",
                                       f"counted: {slc.counted}"]


def _cmd_scan(args) -> tuple[object, list[str]]:
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
    if args.format == "csv":
        lines = [CSV_HEADER, *(r.to_csv_row() for r in records)]
    else:
        lines = []
        for r in records:
            t = "-" if r.t_max is None else r.t_max
            lines.append(f"N={r.key.nvars} l={r.key.l} m1={r.key.m1}: "
                         f"ideal_count={r.ideal_count} t_max={t} n_argmax={len(r.argmax)}")
            lines.extend(f"  argmax: {format_ideal(ideal)}" for ideal in r.argmax)
    return [r.to_json() for r in records], lines


def _cmd_table(args) -> tuple[object, list[str]]:
    cells = reproduce_published_table(args.lmin, args.lmax, **_scan_kwargs(args))
    if args.format == "csv":
        lines = ["l,k,m1,expected,computed,ok"]
        for c in cells:
            computed = "" if c.computed is None else c.computed
            lines.append(f"{c.l},{c.k},{c.m1},{c.expected},{computed},{str(c.ok).lower()}")
    else:
        lines = [f"{'l':>3} {'k':>2} {'m1':>3} {'expected':>9} {'computed':>9}  status"]
        for c in cells:
            computed = "-" if c.computed is None else c.computed
            status = "PASS" if c.ok else "FAIL"
            lines.append(f"{c.l:>3} {c.k:>2} {c.m1:>3} {c.expected:>9} {computed:>9}  {status}")
        good = sum(1 for c in cells if c.ok)
        lines.append(f"{good}/{len(cells)} cells match")
    return [c.to_json() for c in cells], lines


def _cmd_check_monotonic(args) -> tuple[object, list[str]]:
    verdict = check_monotonicity(args.vars, args.l, **_scan_kwargs(args))
    seq = "  ".join(f"m1={m1}:{t}" for m1, t in verdict.sequence)
    if verdict.strictly_increasing:
        word = "STRICTLY INCREASING"
    elif verdict.weakly_increasing:
        word = "WEAKLY INCREASING"
    else:
        word = "NOT INCREASING"
    return verdict.to_json(), [f"N={verdict.nvars} l={verdict.l}  {seq}", word]


def _cmd_check_necessary(args) -> tuple[object, list[str]]:
    verdict = check_necessary_condition(args.vars, args.l, **_scan_kwargs(args))
    m1s = ",".join(str(m) for m in verdict.argmax_m1)
    return verdict.to_json(), [f"N={verdict.nvars} l={verdict.l} k={verdict.k}: "
                               f"global max {verdict.t_max} attained at m1 in {{{m1s}}}",
                               "HOLDS (every argmax has m1 = k)" if verdict.holds
                               else "VIOLATED (some argmax has m1 != k)"]


def _cmd_check_tetrahedral(args) -> tuple[object, list[str]]:
    verdict = check_tetrahedral_max(args.vars, args.k, **_scan_kwargs(args))
    return verdict.to_json(), [f"N={verdict.nvars} k={verdict.k} l={verdict.l}: "
                               f"global max {verdict.t_max}, m^k attains it: "
                               f"{verdict.power_attains}, unique: {verdict.unique} "
                               f"(n_argmax={verdict.n_argmax})"]


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
        value, lines = args.func(args)
        if value is not None and args.format == "json":
            print(json.dumps(value, indent=2))
        else:
            for line in lines:
                print(line)
        # a write error still buffered must surface here, not at exit
        sys.stdout.flush()
        return EXIT_OK
    except (IdealSyntaxError, NonArtinianIdealError, InvalidStaircaseError,
            DimensionMismatchError, UnsupportedDimensionError) as exc:
        print(f"invalid ideal input: {exc}", file=sys.stderr)
        return EXIT_BAD_IDEAL
    except VerificationError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (BudgetExceededError, WorkerLostError) as exc:
        lost = isinstance(exc, WorkerLostError)
        print(f"{'worker lost' if lost else 'budget exceeded'}: {exc}", file=sys.stderr)
        if exc.completed:
            print(f"completed colengths: {sorted(exc.completed)}", file=sys.stderr)
        return EXIT_WORKER_LOST if lost else EXIT_BUDGET
    except (EnumerationLimitError, OracleSizeError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # stdout's reader is gone
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _stdout_to_devnull()
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
