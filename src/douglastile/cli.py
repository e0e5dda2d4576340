"""Command line front end: count, verify, trace, render.

Exit codes: 0 success, 1 at least one verification check failed, 2 the
spec is malformed or does not describe a region, a `--spec` file cannot
be read or parsed or comes with `--a` or `--d`, `--sweep` comes with
`--a`, `--d` or `--spec` or is below 1, an `--out` file cannot be
written or `--matching` lacks `--format svg`, 3 an exact
computation, a `--sweep` total past `SWEEP_LIMIT`, or a `render` of a
region past `render.CELL_LIMIT` cells, was refused for size (a `trace`
Kuo block past the size limit is null instead), 4 an
internal consistency check failed or any other exception escaped (a
bug, not a property of the input), with one `internal error:` line, 141
the reader closed stdout early (128 + SIGPIPE, as a shell reports a
writer killed by that signal), silently.

`verify --sweep` deals its regions out to one forked worker per CPU the
process may run on and prints their reports in order.  A failure in a
worker ends the sweep with the same output, stderr line and exit code
as it would in one process; a worker that dies without its report is an
internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, condensation, regions, shuffle
from .condensation import condensation_count, stats_deltas
from .matching import SizeLimit, count_matchings, dual_graph, perfect_matching
from .regions import InternalError, RegionSpec, SpecInvalid
from .render import CELL_LIMIT, ascii_region, svg_region

__all__ = [
    "SWEEP_LIMIT",
    "main",
    "cmd_count",
    "cmd_verify",
    "cmd_trace",
    "cmd_render",
]

_ENGINES = ("brute", "condense", "shuffle", "formula")

# the largest total `verify --sweep` walks: each step doubles the
# compositions and about doubles the time (totals 11, 12 and 13 take
# 0.5-0.6, 1.0-1.1 and 2.0-2.2 s wall with two workers on two Intel Xeon
# cores under Python 3.11, 0.7, 1.4 and 3.2-3.3 s on one), so 16 takes
# 25-28 s on two cores and 33 s on one
SWEEP_LIMIT = 16

# failures that no input should cause: each one is a bug in an engine
_INTERNAL = (
    condensation.CaseUnreachable,
    condensation.DivisionInexact,
    condensation.CornersNotFound,
    shuffle.FormulaProcedureMismatch,
    InternalError,
)


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=int, help="side length")
    parser.add_argument(
        "--d", type=_comma_ints, help="comma-separated layer distances"
    )
    parser.add_argument("--spec", help="path to a spec JSON file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="douglastile",
        description="Exact domino-tiling counts for layered diagonal regions",
    )
    parser.add_argument(
        "--version", action="version", version=f"douglastile {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one matching count")
    _spec_options(count)
    count.add_argument("--engine", choices=_ENGINES, default="formula")
    count.set_defaults(func=cmd_count)

    verify = sub.add_parser(
        "verify", help="cross-check all engines, one JSON line per spec"
    )
    _spec_options(verify)
    verify.add_argument(
        "--sweep",
        type=int,
        metavar="MAXT",
        help=f"verify every composition with total at most MAXT <= {SWEEP_LIMIT}",
    )
    verify.set_defaults(func=cmd_verify)

    trace = sub.add_parser(
        "trace", help="walk the condensation recurrence, one JSON line per spec"
    )
    _spec_options(trace)
    trace.add_argument(
        "--kuo-max",
        type=int,
        default=8,
        metavar="T",
        help="attach the six deletion counts up to this total",
    )
    trace.set_defaults(func=cmd_trace)

    render = sub.add_parser("render", help="draw a region")
    _spec_options(render)
    render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    render.add_argument(
        "--matching",
        choices=("sample-by-forced-order",),
        help="overlay one perfect matching (svg only)",
    )
    render.add_argument("--out", help="write to a file instead of stdout")
    render.set_defaults(func=cmd_render)
    return parser


def _resolve(args) -> RegionSpec:
    """The command line's spec; a missing side is derived from `--d`."""
    if args.spec is not None:
        if args.a is not None or args.d is not None:
            raise SpecInvalid("--spec cannot be combined with --a or --d")
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecInvalid(f"cannot read spec file: {exc}") from None
        return regions.spec_from_json(text)
    if args.d is None:
        raise SpecInvalid("no distances: give --d or --spec")
    if args.a is None:
        return regions.find_region(args.d)
    return RegionSpec(args.a, args.d)


def cmd_count(args) -> int:
    spec = _resolve(args)
    if args.engine == "brute":
        result = count_matchings(regions.build_region(*spec))
    elif args.engine == "formula":
        result = regions.formula_count(regions.build_region(*spec))
    elif args.engine == "condense":
        result = condensation_count(spec)
    else:
        result = shuffle.shuffle_count(spec)
    print(result)
    return 0


def _verify_one(
    region: regions.Region,
    memo: dict[RegionSpec, int],
    stats_memo: dict[RegionSpec, regions.RegionStats],
) -> dict:
    timings: dict[str, float] = {}

    def timed(name, fn):
        start = time.perf_counter()
        out = fn()
        timings[name] = time.perf_counter() - start
        return out

    spec = region.spec
    stats = regions.structural_stats(region)
    stats_memo[spec] = stats
    total = spec.total

    counts: dict[str, str | None] = {}
    formula = timed("formula", lambda: 2 ** regions.formula_exponent(stats))
    counts["formula"] = str(formula)
    # build_region has checked the spec: the engines take it as it is
    exponent = timed("shuffle", lambda: shuffle._exponent(spec))
    counts["shuffle"] = str(2 ** exponent)
    counts["condense"] = str(
        timed("condense", lambda: condensation._resolve(spec, memo, None))
    )
    kuo = None
    if total <= 8:
        # the Kuo block's "full" count is the brute count of this region
        kuo = timed("kuo", lambda: _kuo(region))
        counts["brute"] = str(kuo["full"])
    else:
        try:
            counts["brute"] = str(timed("brute", lambda: count_matchings(region)))
        except SizeLimit:
            counts["brute"] = None

    checks: dict[str, bool | None] = {
        "line_counts": (
            spec.side
            == stats.black_square_lines + stats.down_triangle_lines
            and stats.width
            == stats.black_square_lines + stats.up_triangle_lines
            and stats.up_triangle_lines + stats.down_triangle_lines
            == len(spec.distances) - 1
            and 2 * stats.black_lines == total + len(spec.distances) - 1
        ),
        "exponent_identity": exponent
        == stats.regular_cells - stats.width * (stats.width + 1) // 2,
        "engines_agree": len(
            {value for value in counts.values() if value is not None}
        )
        == 1,
    }
    checks["kuo"] = None if kuo is None else condensation.kuo_identity(kuo)
    try:
        deltas = stats_deltas(spec, stats_memo)
        checks["case_deltas_balance"] = deltas["balance_ok"]
    except (condensation.BaseCase, condensation.NotCaseOne):
        checks["case_deltas_balance"] = None

    stats_record = stats._asdict()
    stats_record["total"] = total
    report = {
        "tool": f"douglastile {__version__}",
        "spec": spec.to_dict(),
        "stats": stats_record,
        "counts": counts,
        "checks": checks,
        "ok": all(value is not False for value in checks.values()),
        "timings": {name: round(value, 6) for name, value in timings.items()},
    }
    return report


def _kuo(region: regions.Region) -> dict[str, int]:
    """The six Kuo counts of a region at its corners: minors of one signed
    matrix, built from the level runs with no dual graph."""
    return condensation.kuo_counts(region, condensation.pick_corners(region))


def _kuo_block(spec: RegionSpec, kuo_max: int) -> dict | None:
    if spec.total > kuo_max:
        return None
    try:
        counts = _kuo(regions.build_region(spec.side, spec.distances))
    except (condensation.CornersNotFound, SizeLimit):
        return None
    return {
        "counts": {name: str(value) for name, value in counts.items()},
        "identity_ok": condensation.kuo_identity(counts),
    }


def cmd_trace(args) -> int:
    """One JSON line per record of the condensation recurrence.  Its `kuo`
    block holds the six Kuo counts and their check up to `--kuo-max`, and
    is null past it, where the corners are not found, and where the
    region is past `matching.VERTEX_LIMIT` cells, which `verify` reports
    as a null brute count; so no Kuo block makes the trace exit 3."""
    spec = _resolve(args)
    for record in condensation.trace_recurrence(spec):
        node = dict(record)
        node_spec = RegionSpec(node["spec"]["a"], tuple(node["spec"]["d"]))
        node["count"] = str(node["count"])
        if "sub_counts" in node:
            node["sub_counts"] = [str(c) for c in node["sub_counts"]]
        node["kuo"] = _kuo_block(node_spec, args.kuo_max)
        print(json.dumps(node, sort_keys=True))
    return 0


def _report_lines(specs):
    """One line per spec, in order: "+" or "-" for a passed or failed
    report, then the report's JSON; the specs share one pair of memos."""
    memo: dict[RegionSpec, int] = {}
    stats_memo: dict[RegionSpec, regions.RegionStats] = {}
    for spec in specs:
        report = _verify_one(regions.build_region(*spec), memo, stats_memo)
        yield ("+" if report["ok"] else "-") + json.dumps(report, sort_keys=True)


def _worker(specs, fd: int):
    """A forked child's whole life: the `_report_lines` of `specs` on the
    pipe `fd`, or up to the first failure, which ends them with one "!"
    line holding the `_failure` pair.  Writes nothing else and never
    returns: every path ends in `os._exit`, so no buffer or exit handler
    that the child inherited runs twice."""
    try:
        # line buffered: what a child verified reaches the parent even if
        # the child is killed later
        with open(fd, "w", encoding="utf-8", buffering=1) as pipe:
            try:
                for line in _report_lines(specs):
                    pipe.write(line + "\n")
            except Exception as exc:
                pipe.write("!" + json.dumps(_failure(exc)) + "\n")
    finally:
        os._exit(0)


def _forked_lines(specs, workers: int):
    """`_report_lines(specs)` from `workers` forked children, in order.

    Child w verifies `specs[w::workers]`, so line i comes from child
    i mod workers.  A child that ends before one of its lines is an
    internal error.  Closing the generator, or any exception, kills and
    reaps every child.
    """
    import signal

    # a buffer the children inherit must not be printed by them as well
    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _worker(specs[w::workers], write_fd)
            pids.append(pid)
            os.close(write_fd)
            pipes.append(open(read_fd, encoding="utf-8"))
        for i, spec in enumerate(specs):
            line = pipes[i % workers].readline()
            if not line.endswith("\n"):
                raise InternalError(
                    f"sweep worker ended before the report on "
                    f"{spec.side}:{spec.distances}"
                )
            yield line[:-1]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _worker_count(count: int) -> int:
    """One worker per CPU this process may run on, at most one per spec of
    the `count`; 1, in-process, without `os.fork` or `os.sched_getaffinity`."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


class _Reported(Exception):
    """A failure a sweep worker has already turned into its `_failure` pair."""

    def __init__(self, code: int, line: str | None):
        super().__init__(line)
        self.code = code
        self.line = line


def cmd_verify(args) -> int:
    if args.sweep is None:
        lines = _report_lines([_resolve(args)])
    else:
        if args.a is not None or args.d is not None or args.spec is not None:
            raise SpecInvalid("--sweep cannot be combined with --a, --d or --spec")
        if args.sweep < 1:
            raise SpecInvalid(f"sweep total {args.sweep} is below 1")
        if args.sweep > SWEEP_LIMIT:
            raise SizeLimit(f"sweep total {args.sweep} exceeds {SWEEP_LIMIT}")
        compositions = 0
        specs = []
        for total in range(1, args.sweep + 1):
            for distances in regions.compositions(total):
                compositions += 1
                try:
                    specs.append(regions.find_region(distances))
                except SpecInvalid:
                    continue
        workers = _worker_count(len(specs))
        if workers > 1:
            lines = _forked_lines(specs, workers)
        else:
            lines = _report_lines(specs)
    failed = passed = 0
    try:
        for line in lines:
            if line[0] == "!":
                raise _Reported(*json.loads(line[1:]))
            print(line[1:])
            if line[0] == "+":
                passed += 1
            else:
                failed += 1
    finally:
        lines.close()
    summary = {"passed": passed, "failed": failed}
    if args.sweep is not None:
        valid = len(specs)
        summary = {
            "compositions": compositions,
            "valid": valid,
            "invalid": compositions - valid,
            **summary,
        }
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0 if failed == 0 else 1


def cmd_render(args) -> int:
    if args.matching and args.format != "svg":
        print("--matching needs --format svg", file=sys.stderr)
        return 2
    region = regions.build_region(*_resolve(args))
    # the last run's end is the cell count: no cell is made to refuse
    cells = regions._run_end(region.runs[-1])
    if cells > CELL_LIMIT:
        raise SizeLimit(f"{cells} cells exceed {CELL_LIMIT}")
    if args.format == "ascii":
        text = ascii_region(region)
    else:
        matching = None
        if args.matching:
            matching = perfect_matching(dual_graph(region))
        text = svg_region(region, matching)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # counts are exact powers of two with arbitrarily many digits
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a closed stdout must surface here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except Exception as exc:
        code, line = _failure(exc)
        if isinstance(exc, BrokenPipeError):
            # the reader left; devnull takes what the exit flush still holds
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if line is not None:
            print(line, file=sys.stderr)
        return code


def _failure(exc: Exception) -> tuple[int, str | None]:
    """The exit code and the one stderr line (None: none) of a failed command."""
    if isinstance(exc, _Reported):
        return exc.code, exc.line
    if isinstance(exc, SpecInvalid):
        return 2, f"invalid spec: {exc.reason}"
    if isinstance(exc, SizeLimit):
        return 3, f"size limit: {exc}"
    if isinstance(exc, _INTERNAL):
        return 4, f"internal error: {getattr(exc, 'reason', str(exc))}"
    if isinstance(exc, BrokenPipeError):
        return 141, None
    # anything else escaping an engine is a bug as well
    reason = " ".join(f"{type(exc).__name__}: {exc}".split())
    return 4, f"internal error: {reason}"
