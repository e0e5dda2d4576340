"""The pairs tool's checks on perfbench output and its summaries."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _stdout(metrics, failed=0, info=True):
    lines = ['info {"commit": "abc", "src_sha256": "00"}'] if info else []
    lines.append(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": 5,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
            }
        )
    )
    return "\n".join(lines) + "\n"


def test_check_output_accepts_a_clean_run():
    info, result, faults = bench_pairs.check_output(_stdout({"a_s": 0.5}), 0)
    assert faults == []
    assert info["commit"] == "abc" and result["attempted"] == 5
    record = bench_pairs.flat_record(info, result)
    assert record["metrics"] == {"a_s": 0.5} and record["src_sha256"] == "00"


@pytest.mark.parametrize(
    "stdout, code, fault",
    [
        ("", 0, "last line is not a JSON result"),
        ("info {}\nTraceback: boom\n", 1, "last line is not a JSON result"),
        ('{"failed": 0}\n', 0, "last line is not a JSON result"),
        (_stdout({"a_s": 0.5}, failed=2), 1, "failed = 2"),
        (_stdout({"a_s": None}), 0, "metric a_s is None"),
        (_stdout({"a_s": float("inf")}), 0, "metric a_s is inf"),
        (_stdout({"a_s": True}), 0, "metric a_s is True"),
        (_stdout({"a_s": 0.5}), 3, "exit code 3"),
    ],
)
def test_check_output_flags_each_fault(stdout, code, fault):
    assert fault in bench_pairs.check_output(stdout, code)[2]


def test_summary_counts_wins_by_direction():
    def side(rate, secs):
        return {"metrics": {"rate": rate, "secs": secs}}

    pairs = [
        {"parent": side(100 + i, 2.0 + i), "change": side(120 + i, 1.0 + 2 * i)}
        for i in range(4)
    ]
    summary = bench_pairs.summarise(pairs, {"rate": "higher", "secs": "lower"})
    assert summary["rate"]["change_better_pairs"] == 4
    assert summary["rate"]["parent_median"] == 101.5
    assert summary["rate"]["parent_iqr"] == [100.75, 102.25]
    # change secs 1, 3, 5, 7 against parent 2, 3, 4, 5: only the first wins
    assert summary["secs"]["change_better_pairs"] == 1
    short = bench_pairs.summarise(pairs[:2], {"rate": "higher"})
    assert short["rate"]["parent_range"] == [100, 101]
    # a null or missing value in any run leaves that metric out, not a TypeError
    pairs[2]["change"]["metrics"]["secs"] = None
    del pairs[3]["parent"]["metrics"]["rate"]
    assert bench_pairs.summarise(pairs, {"rate": "higher", "secs": "lower"}) == {}


def test_plans_parse():
    # --pairs always runs at the default seed; only --held-out names one
    assert bench_pairs.parse_pairs("sweep:10") == ("sweep", 10, bench_pairs.DEFAULT_SEED)
    assert bench_pairs.parse_held_out("deep:2:7") == ("deep", 2, 7)
    for bad in ("sweep", "sweep:x", "sweep:0", "sweep:2:47", "a:1:2:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_pairs(bad)
    for bad in ("sweep:2", "sweep:2:x", "sweep:0:47", "a:1:2:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_held_out(bad)


def test_default_seed_is_perfbench_default():
    text = (_PATH.parent.parent / "perfbench" / "run.py").read_text()
    assert f"DEFAULT_SEED = {bench_pairs.DEFAULT_SEED}\n" in text
