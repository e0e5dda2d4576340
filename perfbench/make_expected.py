"""Write expected.json: the correct output of every benchmark command.

    python3 perfbench/make_expected.py

Each count is stored as its exponent (the count is 2^exponent).  It is
accepted only if every engine that finishes the spec within the time
limit prints the same power of two; the engines that agreed are listed.
The other commands (verify, trace, render) are stored as the sha256 of
their output, verify with its ``timings`` stripped.

Regenerating the file accepts the current program's output as correct, so
do it only when the benchmark's commands change, never to make a failing
check pass.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ENGINE_TIMEOUT_S = 45


def all_commands() -> list[run.Command]:
    cmds = []
    for make in run.WORKLOADS.values():
        main = make()
        cmds += main + run.probe_commands(main)
    return cmds


def invoke(argv, work: Path, timeout: float):
    try:
        proc = subprocess.run(
            run.cli(argv), cwd=work, env=run.hermetic_env(), capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None
    return proc


def cross_checked_count(spec: str, work: Path) -> dict:
    agreeing, values = [], set()
    for engine in run.ENGINES:
        proc = invoke(run.family_argv(engine, tuple(spec.split())), work, ENGINE_TIMEOUT_S)
        if proc is None or proc.returncode == 3:
            print(f"  {engine}: did not finish", file=sys.stderr)
            continue
        if proc.returncode != 0:
            raise SystemExit(f"{engine} on {spec} exited {proc.returncode}")
        values.add(int(proc.stdout))
        agreeing.append(engine)
    if len(values) != 1 or len(agreeing) < 2:
        raise SystemExit(f"{spec}: engines {agreeing} gave {values}")
    count = values.pop()
    exponent = count.bit_length() - 1
    if count != 2**exponent:
        raise SystemExit(f"{spec}: {count} is not a power of two")
    return {"exit": 0, "exponent": exponent, "engines": agreeing}


def main() -> int:
    counts, outputs = {}, {}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        work = Path(tmp)
        for cmd in all_commands():
            if cmd.argv[0] == "count":
                spec = run.count_key(cmd.argv)
                if spec not in counts:
                    print(spec, file=sys.stderr)
                    counts[spec] = cross_checked_count(spec, work)
                continue
            proc = invoke(cmd.argv, work, None)
            entry = {"exit": proc.returncode}
            if cmd.argv[0] == "verify":
                entry["strip"] = list(run.STRIP_KEYS)
                entry["sha256"] = run.stripped_digest(proc.stdout)
                entry["regions"] = sum(
                    '"spec"' in line for line in proc.stdout.decode().splitlines()
                )
            else:
                entry["sha256"] = hashlib.sha256(proc.stdout).hexdigest()
            outputs[" ".join(cmd.argv)] = entry
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"counts": counts, "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
