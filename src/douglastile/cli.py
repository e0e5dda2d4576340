"""Command line front end: count, verify, trace, render.

Exit codes: 0 success, 1 at least one verification check failed, 2 the
spec is malformed or does not describe a region, a `--spec` file cannot
be read, an `--out` file cannot be written or `--matching` lacks
`--format svg`, 3 an exact computation was refused for size, 4 an
internal consistency check failed (a bug, not a property of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, condensation, regions, shuffle
from .condensation import condensation_count, stats_deltas
from .matching import SizeLimit, count_matchings, dual_graph, perfect_matching
from .regions import InternalError, RegionSpec, SpecInvalid
from .render import ascii_region, svg_region

__all__ = ["main", "cmd_count", "cmd_verify", "cmd_trace", "cmd_render"]

_ENGINES = ("brute", "condense", "shuffle", "formula")

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
        help="verify every composition with total at most MAXT",
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


def _resolve_spec(args) -> RegionSpec:
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecInvalid(f"cannot read spec file: {exc}") from None
        return regions.spec_from_json(text)
    if args.d is None:
        raise SpecInvalid(regions.REASON_POSITIVE)
    if args.a is None:
        # the side is determined by the distances; borrow it
        return regions.find_region(args.d).spec
    return RegionSpec(args.a, args.d)


def cmd_count(args) -> int:
    spec = _resolve_spec(args)
    if args.engine == "brute":
        result = count_matchings(dual_graph(regions.build_region(spec.side, spec.distances)))
    elif args.engine == "condense":
        result = condensation_count(spec)
    elif args.engine == "shuffle":
        result = shuffle.shuffle_count(spec)
    else:
        result = regions.formula_count(
            regions.build_region(spec.side, spec.distances)
        )
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
    exponent = timed("shuffle", lambda: shuffle.shuffle_exponent(spec))
    counts["shuffle"] = str(2 ** exponent)
    counts["condense"] = str(
        timed("condense", lambda: condensation_count(spec, memo))
    )
    graph = dual_graph(region)
    kuo = None
    if total <= 8:
        # the Kuo block's "full" count is the brute count of this graph
        quad = condensation.pick_corners(graph)
        kuo = timed("kuo", lambda: condensation.kuo_counts(graph, quad))
        counts["brute"] = str(kuo["full"])
    else:
        try:
            counts["brute"] = str(timed("brute", lambda: count_matchings(graph)))
        except SizeLimit:
            counts["brute"] = None
            timings.pop("brute", None)

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
    except (condensation.BaseCase, ValueError):
        checks["case_deltas_balance"] = None

    stats_record = stats._asdict()
    del stats_record["total_size"]
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


def _kuo_block(spec: RegionSpec, kuo_max: int) -> dict | None:
    if spec.total > kuo_max:
        return None
    graph = dual_graph(regions.build_region(spec.side, spec.distances))
    try:
        counts = condensation.kuo_counts(graph, condensation.pick_corners(graph))
    except condensation.CornersNotFound:
        return None
    return {
        "counts": {name: str(value) for name, value in counts.items()},
        "identity_ok": condensation.kuo_identity(counts),
    }


def cmd_trace(args) -> int:
    spec = _resolve_spec(args)
    for record in condensation.trace_recurrence(spec):
        node = dict(record)
        node_spec = RegionSpec(node["spec"]["a"], tuple(node["spec"]["d"]))
        node["count"] = str(node["count"])
        if "sub_counts" in node:
            node["sub_counts"] = [str(c) for c in node["sub_counts"]]
        node["kuo"] = _kuo_block(node_spec, args.kuo_max)
        print(json.dumps(node, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    memo: dict[RegionSpec, int] = {}
    stats_memo: dict[RegionSpec, regions.RegionStats] = {}
    failed = passed = 0
    if args.sweep is not None:
        compositions = valid = 0
        for total in range(1, args.sweep + 1):
            for distances in regions.compositions(total):
                compositions += 1
                try:
                    region = regions.find_region(distances)
                except SpecInvalid:
                    continue
                valid += 1
                report = _verify_one(region, memo, stats_memo)
                print(json.dumps(report, sort_keys=True))
                if report["ok"]:
                    passed += 1
                else:
                    failed += 1
        summary = {
            "summary": {
                "compositions": compositions,
                "valid": valid,
                "invalid": compositions - valid,
                "passed": passed,
                "failed": failed,
            }
        }
    else:
        spec = _resolve_spec(args)
        report = _verify_one(
            regions.build_region(spec.side, spec.distances), memo, stats_memo
        )
        print(json.dumps(report, sort_keys=True))
        passed, failed = (1, 0) if report["ok"] else (0, 1)
        summary = {"summary": {"passed": passed, "failed": failed}}
    print(json.dumps(summary, sort_keys=True))
    return 0 if failed == 0 else 1


def cmd_render(args) -> int:
    spec = _resolve_spec(args)
    region = regions.build_region(spec.side, spec.distances)
    if args.matching and args.format != "svg":
        print("--matching needs --format svg", file=sys.stderr)
        return 2
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
        return args.func(args)
    except SpecInvalid as exc:
        print(f"invalid spec: {exc.reason}", file=sys.stderr)
        return 2
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except _INTERNAL as exc:
        reason = getattr(exc, "reason", str(exc))
        print(f"internal error: {reason}", file=sys.stderr)
        return 4
