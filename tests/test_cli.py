"""Command line behaviour: output, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from douglastile import condensation, matching, regions
from douglastile.cli import main
from douglastile.regions import Color

DEEP = ["--a", "7", "--d", "4,2,5,4"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timings(text):
    out = []
    for line in text.strip().splitlines():
        data = json.loads(line)
        data.pop("timings", None)
        out.append(json.dumps(data, sort_keys=True))
    return out


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_count_engines_agree(capsys):
    results = []
    for engine in ("brute", "condense", "shuffle", "formula"):
        code, out, err = run_cli(
            capsys, "count", "--a", "2", "--d", "4", "--engine", engine
        )
        assert code == 0 and err == ""
        results.append(out.strip())
    assert results == ["8"] * 4


def test_count_derives_side_from_distances(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--d", "4,2,5,4", "--engine", "shuffle"
    )
    assert code == 0
    assert out.strip() == "536870912"


def test_count_reads_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"a": 2, "d": [4]}')
    code, out, _ = run_cli(capsys, "count", "--spec", str(path))
    assert code == 0
    assert out.strip() == "8"


def test_invalid_spec_exits_two(capsys):
    code, out, err = run_cli(capsys, "count", "--a", "1", "--d", "3")
    assert code == 2
    assert out == ""
    assert err.strip() == "invalid spec: ell-prime on black squares"


def test_missing_spec_exits_two(capsys):
    code, _, err = run_cli(capsys, "count")
    assert code == 2
    assert err.startswith("invalid spec:")


@pytest.mark.parametrize(
    "content",
    [
        "",
        '{"a": 2}',
        '{"a": "x", "d": [4]}',
        None,
        '{"a": 2.7, "d": [4.9]}',
        '{"a": true, "d": [2]}',
    ],
    ids=[
        "empty",
        "no-distances",
        "not-an-int",
        "missing-file",
        "non-integer-number",
        "bool",
    ],
)
def test_malformed_spec_file_exits_two(tmp_path, capsys, content):
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "count", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid spec: ") and err.count("\n") == 1


def test_count_prints_past_the_int_digit_limit(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--a", "170", "--d", "340", "--engine", "shuffle"
    )
    assert code == 0
    assert out.strip() == str(2**14535)


def test_brute_size_limit_exits_three(capsys):
    code, _, err = run_cli(
        capsys, "count", "--a", "53", "--d", "106", "--engine", "brute"
    )
    assert code == 3
    assert err.startswith("size limit:")


def test_recurrence_failure_exits_four(capsys, monkeypatch):
    def unreachable(spec):
        raise condensation.CaseUnreachable(f"no case for {spec.side}")

    monkeypatch.setattr(condensation, "_dispatch", unreachable)
    code, out, err = run_cli(capsys, "count", *DEEP, "--engine", "condense")
    assert code == 4
    assert out == ""
    assert err == "internal error: no case for 7\n"


def test_cell_check_failure_exits_four(capsys, monkeypatch):
    # every cell line white: the structure check of build_region must fire
    monkeypatch.setattr(regions, "_COLORS", (Color.WHITE, Color.WHITE))
    code, out, err = run_cli(capsys, "count", *DEEP, "--engine", "formula")
    assert code == 4
    assert out == ""
    assert err == "internal error: adjacent cells share a colour\n"


def test_verify_single_report(capsys):
    code, out, _ = run_cli(capsys, "verify", *DEEP)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    report = json.loads(lines[0])
    assert report["spec"] == {"a": 7, "d": [4, 2, 5, 4]}
    assert report["ok"] is True
    assert set(report["counts"]) == {"brute", "condense", "shuffle", "formula"}
    assert report["counts"]["formula"] == "536870912"
    assert report["stats"]["width"] == 8
    assert report["checks"]["engines_agree"] is True
    assert report["checks"]["kuo"] is None  # total 15 is past the kuo sweep
    assert json.loads(lines[1]) == {"summary": {"passed": 1, "failed": 0}}


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", *DEEP)
    _, second, _ = run_cli(capsys, "verify", *DEEP)
    assert strip_timings(first) == strip_timings(second)


def test_verify_sweep_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--sweep", "4")
    assert code == 0
    lines = out.strip().splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    assert len(reports) == 7
    assert all(r["ok"] for r in reports)
    assert json.loads(lines[-1]) == {
        "summary": {
            "compositions": 15,
            "valid": 7,
            "invalid": 8,
            "passed": 7,
            "failed": 0,
        }
    }


def test_verify_failure_exits_one(capsys, monkeypatch):
    # sabotage one engine through its seam; the report must notice
    monkeypatch.setattr("douglastile.shuffle.shuffle_exponent", lambda spec: 9)
    code, out, _ = run_cli(capsys, "verify", "--a", "1", "--d", "1,2")
    assert code == 1
    lines = out.strip().splitlines()
    report = json.loads(lines[0])
    assert report["ok"] is False
    assert report["checks"]["engines_agree"] is False
    assert json.loads(lines[-1]) == {"summary": {"passed": 0, "failed": 1}}


def test_verify_and_trace_golden_bytes(capsys):
    # digests of the verify and trace output frozen from a reference run;
    # any change to a report byte (timings aside) must be deliberate
    code, out, _ = run_cli(capsys, "verify", "--sweep", "6")
    assert code == 0
    assert sha256("\n".join(strip_timings(out)) + "\n") == (
        "0ad823cbf8f0c110f45db8cef5b02a7c5dabf5fe4b467eb503c011f2383a8564"
    )
    code, out, _ = run_cli(capsys, "trace", *DEEP)
    assert code == 0
    assert sha256(out) == (
        "accd951ebf4b504410e8336574ababc643c75712780ffcffa228ce3388d5eade"
    )
    code, out, _ = run_cli(capsys, "verify", "--sweep", "10")
    assert code == 0
    assert sha256("\n".join(strip_timings(out)) + "\n") == (
        "4125a3064bac4382ff506c4e2df749be86b674e281c6d0f4f74dbcf7ece5c72a"
    )
    code, out, _ = run_cli(
        capsys, "trace", "--a", "24", "--d", "3,1,4,1,5,9,2,6,5,3,5",
        "--kuo-max", "16",
    )
    assert code == 0
    assert sha256(out) == (
        "28e3befdc066209e5826e6a74a4be779b79b143234e7264f10f47b809446f9a5"
    )


def test_trace_small_spec(capsys):
    code, out, _ = run_cli(capsys, "trace", "--a", "3", "--d", "6")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3  # root plus two distinct base specs
    root = records[0]
    assert root["spec"] == {"a": 3, "d": [6]}
    assert root["case"] == "I.1"
    assert root["subs"] == [
        {"a": 2, "d": [4]},
        {"a": 2, "d": [4]},
        {"a": 1, "d": [2]},
    ]
    assert root["count"] == "64"
    assert root["sub_counts"] == ["8", "8", "2"]
    assert root["kuo"]["identity_ok"] is True
    assert root["kuo"]["counts"]["full"] == "64"
    assert set(root["kuo"]["counts"]) == {
        "full",
        "minus_all",
        "minus_west_south",
        "minus_east_north",
        "minus_north_west",
        "minus_south_east",
    }
    assert {r["case"] for r in records[1:]} == {"base"}
    assert all(r["kuo"]["identity_ok"] for r in records[1:])


def test_trace_deep_spec_skips_kuo(capsys):
    code, out, _ = run_cli(capsys, "trace", *DEEP)
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    root = records[0]
    assert root["count"] == "536870912"
    assert root["kuo"] is None  # total 15 is past the default sweep
    small = [r for r in records if sum(r["spec"]["d"]) <= 8]
    assert small and all(r["kuo"]["identity_ok"] for r in small)


def test_trace_kuo_max_zero_disables_counts(capsys):
    code, out, _ = run_cli(capsys, "trace", "--a", "3", "--d", "6", "--kuo-max", "0")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["kuo"] is None for r in records)


def count_signings(monkeypatch):
    """A list that grows by one item per Kasteleyn signing from now on."""
    calls = []
    real = matching._kasteleyn_signs

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(matching, "_kasteleyn_signs", counted)
    return calls


def test_trace_signs_each_kuo_graph_once(capsys, monkeypatch):
    # the six Kuo counts of a block share one signing of its graph
    calls = count_signings(monkeypatch)
    code, out, _ = run_cli(
        capsys, "trace", "--d", "4,2,5,4,3,6,2,3", "--kuo-max", "16"
    )
    assert code == 0
    blocks = [json.loads(line)["kuo"] for line in out.strip().splitlines()]
    signed = [block for block in blocks if block is not None]
    assert len(signed) > 1
    assert len(calls) == len(signed)


def test_verify_signs_each_region_once(capsys, monkeypatch):
    # with a Kuo check, the brute count is the Kuo block's full count
    calls = count_signings(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--sweep", "8")
    assert code == 0
    assert len(calls) == json.loads(out.splitlines()[-1])["summary"]["valid"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # start-up: `dataclasses` costs ~10 ms, most of it the `inspect` it
    # imports, which the interpreter does not preload; the environment is
    # the hermetic one of the benchmark's CLI runs
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("DOUGLASTILE_CACHE_DIR", None)
    env["PYTHONPATH"] = str(Path(regions.__file__).parents[1])
    probe = "import sys, douglastile.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "douglastile.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_corner_off_outer_face(capsys, monkeypatch):
    # a corner inside the graph: trace drops the kuo block, verify exits 4
    real = condensation.pick_corners

    def inner_west(graph):
        quad = real(graph)
        return condensation.CornerQuad(11, quad.south, quad.east, quad.north)

    monkeypatch.setattr(condensation, "pick_corners", inner_west)
    code, out, _ = run_cli(capsys, "trace", "--a", "3", "--d", "6")
    assert code == 0
    assert json.loads(out.splitlines()[0])["kuo"] is None
    code, out, err = run_cli(capsys, "verify", "--a", "3", "--d", "6")
    assert code == 4
    assert err.startswith("internal error: vertex 11 is not on the outer face")
    assert err.count("\n") == 1


def test_render_ascii(capsys):
    code, out, _ = run_cli(capsys, "render", "--a", "2", "--d", "4")
    assert code == 0
    assert out == "  wwbb\nwwbbwwbb\nbbwwbbww\n  bbww\n"


def test_render_svg_to_file(tmp_path, capsys):
    path = tmp_path / "region.svg"
    code, out, _ = run_cli(
        capsys,
        "render",
        "--a",
        "2",
        "--d",
        "1,2,1",
        "--format",
        "svg",
        "--matching",
        "sample-by-forced-order",
        "--out",
        str(path),
    )
    assert code == 0
    assert out == ""
    svg = path.read_text()
    assert svg.count("<polygon") == 20
    assert svg.count("<line") == 10


def test_render_matching_on_aztec_32():
    # a recursive finder ran out of stack here; a fresh process keeps the
    # default recursion limit
    proc = subprocess.run(
        [sys.executable, "-m", "douglastile", "render", "--a", "32",
         "--d", "64", "--format", "svg", "--matching", "sample-by-forced-order"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("<line") == 1056


def test_render_matching_needs_svg(capsys):
    code, _, err = run_cli(
        capsys,
        "render",
        "--a",
        "2",
        "--d",
        "4",
        "--matching",
        "sample-by-forced-order",
    )
    assert code == 2
    assert "svg" in err


def test_render_unwritable_out_exits_two(tmp_path):
    # a fresh process, so a traceback on stderr would show
    proc = subprocess.run(
        [sys.executable, "-m", "douglastile", "render", "--a", "3", "--d", "6",
         "--format", "svg", "--out", str(tmp_path / "missing" / "x.svg")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("cannot write output: ")
    assert "Traceback" not in proc.stderr


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("douglastile ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "douglastile", "count", "--a", "1", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip() == "invalid spec: ell-prime on black squares"


def test_side_is_derived_through_find_region(capsys, monkeypatch):
    # perfbench's traced `regions.valid_ratio` is the pass rate of
    # `find_region` calls and reads null when no command makes one, so the
    # CLI keeps deriving a missing side, and each sweep region, through it
    calls = []
    real = regions.find_region

    def counted(distances):
        calls.append(tuple(distances))
        return real(distances)

    monkeypatch.setattr(regions, "find_region", counted)
    for argv in (
        ["count", "--d", "4,2,5,4"],
        ["trace", "--d", "4,2,5,4"],
        ["render", "--d", "4,2,5,4"],
    ):
        calls.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == [(4, 2, 5, 4)], argv
    calls.clear()
    code, _, _ = run_cli(capsys, "verify", "--sweep", "4")
    assert code == 0
    assert len(calls) == len(set(calls)) == 15
