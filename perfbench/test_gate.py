"""Self-test of the benchmark's correctness gate.

    python3 perfbench/test_gate.py

Runs a small workload of probe commands against a copy of expected.json
with one value corrupted, and checks that the run reports failures and
exits non-zero; the uncorrupted copy must pass.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

PROBE = " ".join(run.PROBE)


def gate_commands() -> list[run.Command]:
    return [
        run.Command("formula", run.family_argv("formula", run.PROBE)),
        run.Command("render", run.family_argv("render", run.PROBE)),
    ]


class GateTest(unittest.TestCase):
    def setUp(self):
        self.saved = (run.WORKLOADS, run.SETUP_SAMPLES, run.EXPECTED_PATH)
        run.WORKLOADS = {**run.WORKLOADS, "gate": gate_commands}
        run.SETUP_SAMPLES = 1
        run.WORK_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.WORK_DIR)
        self.expected = run.load_expected()

    def tearDown(self):
        run.WORKLOADS, run.SETUP_SAMPLES, run.EXPECTED_PATH = self.saved
        self.tmp.cleanup()

    def bench(self, expected: dict, trace: int = 0) -> tuple[int, dict]:
        path = Path(self.tmp.name) / "expected.json"
        path.write_text(json.dumps(expected))
        run.EXPECTED_PATH = path
        out = io.StringIO()
        with redirect_stdout(out):
            code = run.main(["--workload", "gate", "--seconds", "0", "--trace", str(trace)])
        return code, json.loads(out.getvalue().splitlines()[-1])

    def assert_gate_fails(self, expected: dict, trace: int = 0) -> None:
        code, result = self.bench(expected, trace)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        if trace:
            self.assertGreater(result["metrics"]["failed_frac"]["value"], 0)

    def test_correct_outputs_pass(self):
        for trace in (0, 1):
            code, result = self.bench(self.expected, trace)
            self.assertEqual(code, 0)
            self.assertEqual(result["failed"], 0)

    def test_wrong_count_fails(self):
        expected = copy.deepcopy(self.expected)
        expected["counts"][PROBE]["exponent"] += 1
        self.assert_gate_fails(expected)
        self.assert_gate_fails(expected, trace=1)

    def test_wrong_digest_fails(self):
        expected = copy.deepcopy(self.expected)
        expected["outputs"][f"render {PROBE} --format svg"]["sha256"] = "0" * 64
        self.assert_gate_fails(expected)
        self.assert_gate_fails(expected, trace=1)

    def test_unexpected_exit_code_fails(self):
        expected = copy.deepcopy(self.expected)
        expected["outputs"][f"trace {PROBE}"]["exit"] = 2
        self.assert_gate_fails(expected)

    def test_engines_disagreeing_on_drawn_spec_fails(self):
        cmds = [run.Command(None, run.family_argv(e, ("--d", "2"))) for e in run.DRAWN_ENGINES]
        agree = [(c, 0, b"2\n") for c in cmds]
        self.assertEqual(run.check_drawn(agree), [])
        self.assertEqual(run.check_drawn([(c, 2, b"") for c in cmds]), [])
        self.assertEqual(len(run.check_drawn(agree[:-1] + [(cmds[-1], 0, b"4\n")])), 1)
        self.assertEqual(len(run.check_drawn(agree[:-1] + [(cmds[-1], 2, b"")])), 1)


if __name__ == "__main__":
    unittest.main()
