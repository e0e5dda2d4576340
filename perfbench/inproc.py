"""Run CLI commands in one process, optionally with every layer wrapped.

    python3 inproc.py REQUEST.json

REQUEST holds ``{"commands": [[arg, ...], ...], "trace": bool}``.  Each
command goes through ``douglastile.cli.main``; its stdout is written to
``out-<i>`` in the working directory.  One JSON object is printed: the
import time, the wall time of all commands, their exit codes and, when
tracing, call counts, self times and sizes per wrapped function.

Tracing lives here, in the benchmark, not in the package: every public
function of the layer modules is replaced by a timing wrapper in its
defining module and in every package module that bound it with
``from ... import``, so nested calls are seen.  Self time is a call's span
minus the spans of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

PACKAGE = "douglastile"
LAYERS = ("regions", "matching", "condensation", "shuffle", "render")

# output size recorded per call, summed over calls
SIZES = {
    "regions.build_region": lambda out: len(out.cells),
    "matching.dual_graph": lambda out: len(out.vertices),
    "render.svg_region": lambda out: len(out.encode()),
}
MEMO_USERS = ("condensation.condensation_count", "condensation.trace_recurrence")

# (metric, unit, wrapped function, field); a metric whose function is
# missing from the package is reported as null
PER_LAYER = [
    ("regions.build_region.calls", "count", "regions.build_region", "calls"),
    ("regions.build_region.self_s", "s", "regions.build_region", "self_s"),
    ("regions.build_region.cells", "count", "regions.build_region", "size"),
    ("regions.find_region.calls", "count", "regions.find_region", "calls"),
    ("regions.find_region.self_s", "s", "regions.find_region", "self_s"),
    ("regions.spec_invalid", "count", "regions.find_region", "raised:SpecInvalid"),
    ("regions.valid_ratio", "ratio", "regions.find_region", "valid_ratio"),
    ("regions.structural_stats.self_s", "s", "regions.structural_stats", "self_s"),
    ("regions.formula_count.self_s", "s", "regions.formula_count", "self_s"),
    ("matching.dual_graph.calls", "count", "matching.dual_graph", "calls"),
    ("matching.dual_graph.self_s", "s", "matching.dual_graph", "self_s"),
    ("matching.dual_graph.vertices", "count", "matching.dual_graph", "size"),
    ("matching.count_matchings.calls", "count", "matching.count_matchings", "calls"),
    ("matching.count_matchings.self_s", "s", "matching.count_matchings", "self_s"),
    ("matching.size_limit", "count", "matching.count_matchings", "raised:SizeLimit"),
    ("condensation.case_recurrence.calls", "count", "condensation.case_recurrence", "calls"),
    ("condensation.case_recurrence.self_s", "s", "condensation.case_recurrence", "self_s"),
    ("condensation.condensation_count.calls", "count", "condensation.condensation_count", "calls"),
    ("condensation.condensation_count.self_s", "s", "condensation.condensation_count", "self_s"),
    ("condensation.memo_entries", "count", "condensation.condensation_count", "memo"),
    ("condensation.trace_recurrence.self_s", "s", "condensation.trace_recurrence", "self_s"),
    ("condensation.kuo_counts.calls", "count", "condensation.kuo_counts", "calls"),
    ("condensation.kuo_counts.self_s", "s", "condensation.kuo_counts", "self_s"),
    ("condensation.stats_deltas.calls", "count", "condensation.stats_deltas", "calls"),
    ("condensation.stats_deltas.self_s", "s", "condensation.stats_deltas", "self_s"),
    ("shuffle.shuffle_exponent.calls", "count", "shuffle.shuffle_exponent", "calls"),
    ("shuffle.shuffle_exponent.self_s", "s", "shuffle.shuffle_exponent", "self_s"),
    ("shuffle.region_code.self_s", "s", "shuffle.region_code", "self_s"),
    ("shuffle.shift_code.calls", "count", "shuffle.shift_code", "calls"),
    ("render.svg_region.self_s", "s", "render.svg_region", "self_s"),
    ("render.svg_region.bytes", "B", "render.svg_region", "size"),
    ("cli.import_s", "s", None, "import_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]


class Tracer:
    """Call counts, self times, output sizes and exceptions per function."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.memo_peak = 0
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        rec = self.stats[name] = {"calls": 0, "self_s": 0.0, "size": 0, "raised": {}}
        size_of = SIZES.get(name)
        watches_memo = name in MEMO_USERS
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                rec["raised"][kind] = rec["raised"].get(kind, 0) + 1
                raise
            finally:
                span = perf_counter() - start
                rec["calls"] += 1
                rec["self_s"] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if size_of is not None:
                try:
                    rec["size"] += size_of(out)
                except (AttributeError, TypeError):
                    pass
            if watches_memo:
                memo = args[1] if len(args) > 1 else kwargs.get("memo")
                if isinstance(memo, dict):
                    self.memo_peak = max(self.memo_peak, len(memo))
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions of each layer, and cli.main."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        targets = []
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    targets.append((f"{layer}.{attr}", fn))
        cli = sys.modules[f"{PACKAGE}.cli"]
        targets.append(("cli.main", cli.main))
        for name, fn in targets:
            wrapped = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)


def per_layer_metrics(result: dict) -> dict[str, float | int | None]:
    """The PER_LAYER metrics from a traced run's result."""
    stats = result["stats"]
    metrics: dict[str, float | int | None] = {}
    for metric, _, fn, field in PER_LAYER:
        rec = stats.get(fn)
        if field == "import_s":
            value = result["import_s"]
        elif rec is None:
            value = None
        elif field.startswith("raised:"):
            value = rec["raised"].get(field.split(":")[1], 0)
        elif field == "valid_ratio":
            calls = rec["calls"]
            value = (calls - rec["raised"].get("SpecInvalid", 0)) / calls if calls else None
        elif field == "memo":
            value = result["memo_peak"]
        else:
            value = rec[field]
        metrics[metric] = value
    return metrics


def run_command(cli, argv: list[str]) -> int:
    """Exit code of one CLI invocation, as the interpreter would give it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    start = perf_counter()
    import douglastile.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    if request["trace"]:
        tracer.install()
    codes = []
    start = perf_counter()
    for i, argv in enumerate(request["commands"]):
        with open(f"out-{i}", "w", encoding="utf-8") as fh, redirect_stdout(fh):
            codes.append(run_command(douglastile.cli, argv))
    wall_s = perf_counter() - start
    print(
        json.dumps(
            {
                "import_s": import_s,
                "wall_s": wall_s,
                "exit_codes": codes,
                "stats": tracer.stats,
                "memo_peak": tracer.memo_peak,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
