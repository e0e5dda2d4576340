"""End-to-end benchmark of the douglastile CLI.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 40 --trace 0

Every command runs as a fresh ``python -m douglastile`` subprocess, one at a
time (a closed loop with one client), and every output is checked against
``expected.json``.  The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or, from a separate in-process run with
the package's public functions wrapped, the per-layer metrics
(``--trace 1``).  The exit code is 0 only if every output was correct.
See NOTES.md for the workloads, metrics and excluded inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inproc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
WORK_DIR = BENCH_DIR / ".work"

DEFAULT_SEED = 20131004
SETUP_SAMPLES = 15
COMMAND_TIMEOUT_S = 120.0
DRAWN_SPECS = 4
DRAWN_ENGINES = ("condense", "shuffle", "formula")

# Host speed on shared machines drifts by up to 30% within minutes, for
# every process alike.  This fixed pure-Python job runs after every timed
# command, and each command's wall time is scaled by the nominal time over
# the median calibration time around it ("reference seconds").
CALIBRATION = [
    sys.executable,
    "-S",
    "-c",
    "d = {}\nfor i in range(60000):\n    d[(i, i & 7)] = [str(i)] * 2\n",
]
CALIBRATION_NOMINAL_S = 0.1
CALIBRATION_WINDOW = 8  # calibrations taken on each side of a command

# every end-to-end metric family, with the subcommand that times it
FAMILIES = ("verify", "condense", "shuffle", "formula", "render", "brute", "trace")
ENGINES = ("condense", "shuffle", "formula", "brute")
FAMILY_METRIC = {
    "verify": "verify_regions_per_s",
    "condense": "condense_s",
    "shuffle": "shuffle_s",
    "formula": "formula_s",
    "render": "render_s",
    "brute": "brute_s",
    "trace": "trace_s",
}
UNITS = {
    "setup_s": "s",
    "verify_regions_per_s": "regions/s",
    "condense_s": "s",
    "shuffle_s": "s",
    "formula_s": "s",
    "render_s": "s",
    "brute_s": "s",
    "trace_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {name: unit for name, unit, _, _ in inproc.PER_LAYER} | {
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


def aztec(n: int) -> tuple[str, ...]:
    return ("--a", str(n), "--d", str(2 * n))


def staircase(k: int) -> tuple[str, ...]:
    return ("--a", "1", "--d", ",".join(["1"] * (k - 1) + ["2"]))


# the side of these two is derived by the CLI, which also times the
# side search (find_region) on the deep and graph workloads
DOUGLAS_15 = ("--d", "4,2,5,4,3,6,2,3")
DOUGLAS_24 = ("--d", "3,1,4,1,5,9,2,6,5,3,5")

# corpus C of the deep workload, and the two inputs only the engines that
# need no recurrence finish today (condense takes 21 s and > 300 s on them)
DEEP_C = (aztec(32), aztec(64), staircase(40), staircase(80), DOUGLAS_15, DOUGLAS_24)
DEEP_X = (aztec(128), staircase(200))
GRAPH_BRUTE = (aztec(12), aztec(14), DOUGLAS_15)
GRAPH_TRACE = ("trace", "--a", "24", "--d", "3,1,4,1,5,9,2,6,5,3,5", "--kuo-max", "16")

# a family a workload does not exercise is timed once on this small region,
# so that every workload reports every end-to-end metric
PROBE = aztec(4)


@dataclass(frozen=True)
class Command:
    family: str | None  # None: checked but not timed
    argv: tuple[str, ...]


def family_argv(family: str, spec: tuple[str, ...]) -> tuple[str, ...]:
    if family in ENGINES:
        return ("count", *spec, "--engine", family)
    if family == "render":
        return ("render", *spec, "--format", "svg")
    return (family, *spec)


def sweep_commands() -> list[Command]:
    return [Command("verify", ("verify", "--sweep", "10"))]


def deep_commands() -> list[Command]:
    cmds = [Command("condense", family_argv("condense", s)) for s in DEEP_C]
    for family in ("shuffle", "formula", "render"):
        cmds += [Command(family, family_argv(family, s)) for s in DEEP_C + DEEP_X]
    return cmds


def graph_commands() -> list[Command]:
    cmds = [Command("brute", family_argv("brute", s)) for s in GRAPH_BRUTE]
    return cmds + [Command("trace", GRAPH_TRACE)]


WORKLOADS = {"sweep": sweep_commands, "deep": deep_commands, "graph": graph_commands}
SHUFFLED = {"deep", "graph"}


def probe_commands(main: list[Command]) -> list[Command]:
    covered = {c.family for c in main}
    return [Command(f, family_argv(f, PROBE)) for f in FAMILIES if f not in covered]


def draw_specs(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """Random compositions with total 16..24; about half are not regions."""
    out = []
    for _ in range(count):
        total = rng.randint(16, 24)
        cuts = [j for j in range(1, total) if rng.random() < 0.5]
        out.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [total])))
    return out


def drawn_commands(rng: random.Random) -> list[Command]:
    cmds = []
    for d in draw_specs(rng, DRAWN_SPECS):
        spec = ("--d", ",".join(map(str, d)))
        cmds += [Command(None, family_argv(e, spec)) for e in DRAWN_ENGINES]
    return cmds


# --- checking ---------------------------------------------------------------

STRIP_KEYS = ("timings", "metrics")


def stripped_digest(data: bytes) -> str:
    """sha256 of JSON-lines output with the run-dependent keys removed."""
    lines = []
    for line in data.decode().splitlines():
        record = json.loads(line)
        if isinstance(record, dict):
            for key in STRIP_KEYS:
                record.pop(key, None)
        lines.append(json.dumps(record, sort_keys=True))
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def count_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv[1 : argv.index("--engine")])


def check(argv: tuple[str, ...], exit_code: int, out: bytes, expected: dict) -> str | None:
    """Reason the output is wrong, or None when it matches."""
    if argv[0] == "count":
        want = expected["counts"].get(count_key(argv))
        if want is None:
            return "no expected count"
        if exit_code != want["exit"]:
            return f"exit {exit_code}, expected {want['exit']}"
        if out != f"{2 ** want['exponent']}\n".encode():
            return f"count is not 2^{want['exponent']}"
        return None
    want = expected["outputs"].get(" ".join(argv))
    if want is None:
        return "no expected output"
    if exit_code != want["exit"]:
        return f"exit {exit_code}, expected {want['exit']}"
    try:
        digest = stripped_digest(out) if want.get("strip") else hashlib.sha256(out).hexdigest()
    except ValueError:
        return "output is not JSON lines"
    if digest != want["sha256"]:
        return "output digest differs"
    return None


def check_drawn(runs: list[tuple[Command, int, bytes]]) -> list[str]:
    """Engines agree on each drawn spec: one count, or all exit 2."""
    by_spec: dict[str, list[tuple[int, bytes]]] = {}
    for cmd, code, out in runs:
        by_spec.setdefault(count_key(cmd.argv), []).append((code, out))
    failures = []
    for spec, results in by_spec.items():
        codes = {code for code, _ in results}
        outs = {out for _, out in results}
        if codes == {2}:
            continue
        if codes == {0} and len(outs) == 1 and outs.pop().strip().isdigit():
            continue
        failures.append(f"{spec}: engines disagree, exit codes {sorted(codes)}")
    return failures


# --- running ----------------------------------------------------------------


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("DOUGLASTILE_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Run:
    exit_code: int
    wall_s: float
    maxrss_kb: int
    out: bytes


def run_process(argv: list[str], work: Path, env: dict[str, str]) -> Run:
    """Run one process to completion; wall time and peak RSS from wait4."""
    out_path = work / "stdout"
    with open(out_path, "wb") as out, open(work / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes())


def cli(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "douglastile", *args]


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    info = {"n": n, "median": statistics.median(ordered)}
    if n > 10:
        info[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return info


def measure(workload: str, seed: int, seconds: float, work: Path, expected: dict) -> dict:
    env = hermetic_env()
    rng = random.Random(seed)
    main = WORKLOADS[workload]()
    probes = probe_commands(main)
    timed = main + probes
    drawn = drawn_commands(rng) if workload == "deep" else []
    failures: list[str] = []
    attempted = 0
    maxrss = 0

    def execute(argv: tuple[str, ...]) -> Run:
        nonlocal attempted, maxrss
        run = run_process(cli(argv), work, env)
        attempted += 1
        maxrss = max(maxrss, run.maxrss_kb)
        return run

    def calibrate() -> None:
        calibration.append(run_process(CALIBRATION, work, env).wall_s)

    # (argv, wall time, index of the calibration run just after it)
    samples: list[tuple[tuple[str, ...], float, int]] = []
    calibration: list[float] = []
    calibrate()

    def timed_run(argv: tuple[str, ...]) -> Run:
        run = execute(argv)
        calibrate()
        samples.append((argv, run.wall_s, len(calibration) - 1))
        return run

    execute(("--version",))  # compiles the package's bytecode
    for _ in range(SETUP_SAMPLES):
        run = timed_run(("--version",))
        if run.exit_code != 0 or not run.out.startswith(b"douglastile "):
            failures.append("--version failed")

    def run_all(cmds: list[Command]) -> float:
        """Run and check the commands in seeded order; their wall time."""
        begin = time.perf_counter()
        drawn_runs = []
        for cmd in rng.sample(cmds, len(cmds)) if workload in SHUFFLED else cmds:
            if cmd.family is None:
                run = execute(cmd.argv)
                drawn_runs.append((cmd, run.exit_code, run.out))
                continue
            run = timed_run(cmd.argv)
            reason = check(cmd.argv, run.exit_code, run.out, expected)
            if reason:
                failures.append(f"{' '.join(cmd.argv)}: {reason}")
        failures.extend(check_drawn(drawn_runs))
        return time.perf_counter() - begin

    # Whole passes while another fits in the time left, then rounds of the
    # probes alone: a pass of deep or graph takes 13-17 s, and the probes
    # need more samples than the passes give them.
    start = time.perf_counter()
    pass_s = run_all(main + probes + drawn)
    passes = 1
    round_s = 0.0
    while True:
        left = seconds - (time.perf_counter() - start)
        if pass_s <= left:
            pass_s = run_all(main + probes)
            passes += 1
        elif probes and round_s <= left:
            round_s = run_all(probes)
        else:
            break

    def summarize(scaled: bool) -> tuple[dict, dict]:
        times: dict[tuple[str, ...], list[float]] = {}
        for argv, wall, i in samples:
            if scaled:
                window = calibration[max(0, i - CALIBRATION_WINDOW) : i + CALIBRATION_WINDOW]
                wall *= CALIBRATION_NOMINAL_S / statistics.median(window)
            times.setdefault(argv, []).append(wall)
        metrics = {"setup_s": statistics.median(times[("--version",)])}
        for family in FAMILIES:
            cmds = [c for c in timed if c.family == family]
            total = sum(statistics.median(times[c.argv]) for c in cmds)
            if family == "verify":
                regions = expected["outputs"][" ".join(cmds[0].argv)]["regions"]
                metrics[FAMILY_METRIC[family]] = regions / total
            else:
                metrics[FAMILY_METRIC[family]] = total
        metrics["peak_rss_mb"] = maxrss / 1024
        return metrics, times

    metrics, times = summarize(scaled=True)
    info = {
        "passes": passes,
        "seconds": time.perf_counter() - start,
        "commands": {" ".join(a): tail(t) for a, t in times.items()},
        "calibration_s": tail(calibration),
        "unscaled": summarize(scaled=False)[0],
        "failures": failures[:20],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures), "info": info}


def measure_traced(workload: str, seed: int, work: Path, expected: dict) -> dict:
    """One untraced and one traced in-process run of the workload's commands."""
    rng = random.Random(seed)
    main = WORKLOADS[workload]()
    cmds = main + (drawn_commands(rng) if workload == "deep" else [])
    if workload in SHUFFLED:
        cmds = rng.sample(cmds, len(cmds))
    env = hermetic_env()
    request = work / "request.json"
    results = {}
    for mode in ("plain", "traced"):
        request.write_text(json.dumps({"commands": [c.argv for c in cmds], "trace": mode == "traced"}))
        run = run_process([sys.executable, str(BENCH_DIR / "inproc.py"), str(request)], work, env)
        if run.exit_code != 0:
            raise SystemExit(f"in-process {mode} run failed:\n{(work / 'stderr').read_text()}")
        results[mode] = json.loads(run.out)

    traced = results["traced"]
    failures = []
    drawn_runs = []
    for i, (cmd, code) in enumerate(zip(cmds, traced["exit_codes"])):
        out = (work / f"out-{i}").read_bytes()
        if cmd.family is None:
            drawn_runs.append((cmd, code, out))
            continue
        reason = check(cmd.argv, code, out, expected)
        if reason:
            failures.append(f"{' '.join(cmd.argv)}: {reason}")
    failures += check_drawn(drawn_runs)
    metrics = inproc.per_layer_metrics(traced)
    metrics["trace.overhead_s"] = traced["wall_s"] - results["plain"]["wall_s"]
    metrics["failed_frac"] = len(failures) / len(cmds)
    info = {
        "traced_wall_s": traced["wall_s"],
        "plain_wall_s": results["plain"]["wall_s"],
        "failures": failures[:20],
    }
    return {"metrics": metrics, "attempted": len(cmds), "failed": len(failures), "info": info}


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "douglastile" / "cli.py").is_file():
        print(f"douglastile sources not found under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, work, expected)
            units = TRACE_UNITS
        else:
            result = measure(args.workload, args.seed, args.seconds, work, expected)
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **source_identity(),
        **result["info"],
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
