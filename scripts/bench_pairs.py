#!/usr/bin/env python3
"""Alternating parent/change perfbench runs, written as BENCH_<label>.json.

Run from the repository root, with a checkout of the parent revision made
beforehand (``git clone`` or an unpacked ``git archive``):

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent --label sixths \\
        --pairs sweep:10 --pairs deep:2 --pairs graph:2 \\
        --held-out sweep:2:47 --trace 1

The change is the working tree as it stands.  Pair i of a workload runs
``perfbench/run.py --workload W`` in both trees, the parent first in odd
pairs and the change first in even ones.  ``--pairs`` runs at perfbench's
default seed, ``--held-out`` at the seed it names, and ``--trace 1`` adds
one traced run per side on every workload named.  The file holds every
run, plus per-metric medians, quartiles (ranges below four pairs) and the
number of pairs the change won.

Exit status is 1 if any run's last line is not a JSON result, reports
``failed`` > 0, or carries a null or non-finite metric; 0 otherwise.
The record is written either way.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20131004  # perfbench/run.py's default


def _plan(text: str, with_seed: bool) -> tuple[str, int, int]:
    form = "W:N:SEED" if with_seed else "W:N"
    parts = text.split(":")
    if len(parts) != (3 if with_seed else 2):
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    try:
        count = int(parts[1])
        seed = int(parts[2]) if with_seed else DEFAULT_SEED
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer count or seed in {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least one pair in {text!r}")
    return parts[0], count, seed


def parse_pairs(text: str) -> tuple[str, int, int]:
    """``W:N`` -> (workload, pairs, perfbench's default seed)."""
    return _plan(text, with_seed=False)


def parse_held_out(text: str) -> tuple[str, int, int]:
    """``W:N:SEED`` -> (workload, pairs, seed)."""
    return _plan(text, with_seed=True)


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_output(stdout: str, returncode: int):
    """(info record, result record, faults) of one run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    info = None
    for line in lines:
        if line.startswith("info "):
            try:
                info = json.loads(line[len("info "):])
            except ValueError:
                pass
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return info, None, ["last line is not a JSON result"]
    faults = []
    if result.get("failed") != 0:
        faults.append(f"failed = {result.get('failed')}")
    for name, entry in result["metrics"].items():
        value = entry.get("value") if isinstance(entry, dict) else entry
        if not _finite(value):
            faults.append(f"metric {name} is {value!r}")
    if returncode != 0:
        faults.append(f"exit code {returncode}")
    return info, result, faults


def run_side(tree: Path, workload: str, seed: int, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    info, result, faults = check_output(proc.stdout, proc.returncode)
    if faults and proc.stderr.strip():
        faults.append("stderr: " + proc.stderr.strip().splitlines()[-1])
    return info, result, faults


def flat_record(info, result) -> dict:
    """One side of a pair in the layout of the checked-in BENCH files."""
    info = info or {}
    result = result or {}
    return {
        "commit": info.get("commit"),
        "src_sha256": info.get("src_sha256"),
        "correct": result.get("correct"),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {
            name: entry["value"]
            for name, entry in result.get("metrics", {}).items()
        },
    }


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles or ranges, and pairs won by the change.

    A metric that is missing or not a finite number in any run is left out;
    check_output has already counted that run as faulty.
    """
    out = {}
    for name in better:
        sides = {
            s: [p[s]["metrics"].get(name) for p in pairs] for s in ("parent", "change")
        }
        if not all(_finite(v) for values in sides.values() for v in values):
            continue
        sign = 1 if better[name] == "higher" else -1
        wins = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"])
        )
        entry = {
            "parent_median": round(statistics.median(sides["parent"]), 4),
            "change_median": round(statistics.median(sides["change"]), 4),
            "change_better_pairs": wins,
            "pairs": len(pairs),
        }
        for side, values in sides.items():
            if len(values) >= 4:
                q = statistics.quantiles(values, n=4, method="inclusive")
                entry[f"{side}_iqr"] = [round(q[0], 4), round(q[2], 4)]
            else:
                entry[f"{side}_range"] = [
                    round(min(values), 4), round(max(values), 4)
                ]
        out[name] = entry
    return out


def host() -> str:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    python = platform.python_version()
    return f"{os.cpu_count()} CPUs, {model or 'unknown CPU'}, Python {python}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", required=True, metavar="DIR",
        help="a checkout of the parent revision",
    )
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument(
        "--pairs", type=parse_pairs, action="append", default=[], metavar="W:N",
        help="N pairs of workload W at perfbench's default seed",
    )
    parser.add_argument(
        "--held-out", type=parse_held_out, action="append", default=[],
        metavar="W:N:SEED", help="pairs at a seed not used while the change was written",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    given = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(given)
    if not args.pairs:
        parser.error("give at least one --pairs W:N")
    for option, plans in (("--pairs", args.pairs), ("--held-out", args.held_out)):
        workloads = [w for w, _, _ in plans]
        if len(set(workloads)) != len(workloads):
            parser.error(f"give each workload once to {option}")
    trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    if not (trees["parent"] / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py in {args.parent}")
    # the record names no local path
    given = [
        "--parent=DIR" if a.startswith("--parent=")
        else "DIR" if a == args.parent else a
        for a in given
    ]

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    faults: list[str] = []

    def one(side, workload, seed, trace):
        info, result, bad = run_side(trees[side], workload, seed, trace)
        faults.extend(f"{side} {workload} seed {seed} trace {trace}: {b}" for b in bad)
        print(f"{side} {workload} seed {seed} trace {trace}: {'; '.join(bad) or 'ok'}",
              file=sys.stderr, flush=True)
        return info, result

    def pair_runs(plans):
        runs: dict[str, list[dict]] = {}
        for workload, count, seed in plans:
            for i in range(1, count + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                record = {"pair": i, "order": f"{order[0]} first", "seed": seed}
                for side in order:
                    record[side] = flat_record(*one(side, workload, seed, 0))
                runs.setdefault(workload, []).append(record)
        return runs

    pairs = pair_runs(args.pairs)
    held_out = pair_runs(args.held_out)
    traced: dict[str, dict] = {"parent": {}, "change": {}}
    if args.trace:
        for workload in dict.fromkeys(w for w, _, _ in args.pairs + args.held_out):
            for side in ("parent", "change"):
                info, result = one(side, workload, DEFAULT_SEED, 1)
                traced[side][workload] = {"trace1": {"info": info, "result": result}}

    record = {
        "label": args.label,
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed S --trace T",
        "host": host(),
        "note": "the change side is the working tree; perfbench reports the commit "
        "it sits on, so src_sha256 tells the two sides apart. Times are perfbench "
        "reference seconds.",
        "pairs_command": "python3 scripts/bench_pairs.py " + shlex.join(given),
        "pairs_summary": {w: summarise(runs, better) for w, runs in pairs.items()},
        "pairs": pairs,
        "held_out_seed_summary": {
            w: summarise(runs, better) for w, runs in held_out.items()
        },
        "held_out_seed_pairs": held_out,
        "traced_command": "python3 perfbench/run.py --workload W --trace 1, one run "
        "per side after the pairs" if args.trace else None,
        "parent": traced["parent"],
        "change": traced["change"],
        "failures": faults,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}; {len(faults)} faulty runs", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
