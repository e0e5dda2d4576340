"""Command line behaviour: output, exit codes, determinism."""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import valid_specs
from douglastile import cli, condensation, matching, regions, shuffle
from douglastile.cli import main
from douglastile.render import CELL_LIMIT
from douglastile.regions import Color, RegionSpec

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


@pytest.mark.parametrize("argv", [("count", "--a", "3"), ("trace", "--a", "3")])
def test_missing_distances_are_named(capsys, argv):
    # a side alone is no spec: the reason names what is missing, not a
    # non-positive value that was never given
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "invalid spec: no distances: give --d or --spec\n"


@pytest.mark.parametrize(
    "content",
    [
        "",
        '{"a": 2}',
        '{"a": "x", "d": [4]}',
        None,
        '{"a": 2.7, "d": [4.9]}',
        '{"a": true, "d": [2]}',
        "[" * 100000,
    ],
    ids=[
        "empty",
        "no-distances",
        "not-an-int",
        "missing-file",
        "non-integer-number",
        "bool",
        "nested-past-the-decoder",
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


@pytest.mark.parametrize(
    "extra", [("--a", "2"), ("--d", "4"), ("--a", "2", "--d", "4")]
)
def test_spec_file_with_side_or_distances_exits_two(tmp_path, capsys, extra):
    # the file would win unnoticed, so the combination is refused
    path = tmp_path / "spec.json"
    path.write_text('{"a": 3, "d": [6]}')
    code, out, err = run_cli(capsys, "count", "--spec", str(path), *extra)
    assert code == 2
    assert out == ""
    assert err == "invalid spec: --spec cannot be combined with --a or --d\n"


def test_empty_spec_path_is_not_ignored(capsys):
    code, out, err = run_cli(capsys, "count", "--spec", "", "--d", "4")
    assert code == 2 and out == ""
    assert err.startswith("invalid spec: ") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "count", "--spec", "")
    assert code == 2 and out == ""
    assert err.startswith("invalid spec: cannot read spec file")


def test_count_prints_past_the_int_digit_limit(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--a", "170", "--d", "340", "--engine", "shuffle"
    )
    assert code == 0
    assert out.strip() == str(2**14535)


def test_brute_size_limit_exits_three(capsys, monkeypatch, tmp_path):
    # an Aztec dual of order n has 2n(n + 1) vertices: 160 is the last
    # order under the limit and 161 the first refused, before its dual
    # graph is built or a cell is read; order 3,000, with 18 M cells, is
    # refused as soon
    assert 2 * 160 * 161 <= matching.VERTEX_LIMIT < 2 * 161 * 162
    graphs = count_calls(monkeypatch, tmp_path, cli, "dual_graph")
    refuse_cells(monkeypatch)
    for n, cells in ((161, 52164), (3000, 18006000)):
        code, out, err = run_cli(
            capsys, "count", "--a", str(n), "--d", str(2 * n), "--engine", "brute"
        )
        assert (code, out) == (3, "")
        assert err == f"size limit: {cells} vertices exceed 52000\n"
    assert graphs.calls() == []


def test_render_size_limit_exits_three(capsys, monkeypatch):
    # a region's cell count is its last run's end: past `CELL_LIMIT`
    # every format is refused before a cell is read, a polygon made or an
    # overlay found.  The Aztec diamond of order 499 is the last under the
    # limit, and the 200-layer staircase, the largest region that
    # perfbench or scripts/draw_figures.py draws, is far under it
    assert 2 * 499 * 500 <= CELL_LIMIT < 2 * 500 * 501
    staircase = regions.build_region(1, (1,) * 199 + (2,))
    assert regions._run_end(staircase.runs[-1]) == 40600 <= CELL_LIMIT
    refuse_cells(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("drawn past the limit")

    for name in ("ascii_region", "svg_region", "dual_graph"):
        monkeypatch.setattr(cli, name, refuse)
    formats = (
        ["--format", "ascii"],
        ["--format", "svg"],
        ["--format", "svg", "--matching", "sample-by-forced-order"],
    )
    for n, cells in ((500, 501000), (3000, 18006000)):
        for extra in formats:
            code, out, err = run_cli(
                capsys, "render", "--a", str(n), "--d", str(2 * n), *extra
            )
            assert (code, out) == (3, ""), extra
            assert err == f"size limit: {cells} cells exceed 500000\n"
    # the limit is on the count itself: 40 cells pass a limit of 40
    monkeypatch.undo()
    monkeypatch.setattr(cli, "CELL_LIMIT", 40)
    code, out, _ = run_cli(capsys, "render", "--a", "4", "--d", "8")
    assert (code, len(out.split())) == (0, 8)
    code, _, err = run_cli(capsys, "render", "--a", "5", "--d", "10")
    assert (code, err) == (3, "size limit: 60 cells exceed 40\n")


def refuse_cells(monkeypatch):
    """Make every read of `Region.cells` raise."""

    def cells(region):
        raise AssertionError(f"cells read of {region.spec}")

    monkeypatch.setattr(regions.Region, "cells", property(cells))


def count_cell_reads(monkeypatch) -> list:
    """A list that gains one entry per read of `Region.cells`."""
    reads = []
    real = regions.Region.cells

    def cells(region):
        reads.append(region.spec)
        return real.fget(region)

    monkeypatch.setattr(regions.Region, "cells", property(cells))
    return reads


def test_only_render_reads_cells(capsys, monkeypatch):
    # on one CPU, so that every region is verified in this process: the
    # engines, the stats, the Kuo blocks and the plain SVG read the level
    # runs and no cell, and give the same bytes as when cells may be read
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    commands = [
        ["verify", *DEEP],
        ["verify", "--sweep", "8"],
        *(["count", *DEEP, "--engine", e] for e in cli._ENGINES),
        ["trace", "--d", "3,1,4,1,5,9,2,6,5,3,5", "--kuo-max", "16"],
        ["render", *DEEP, "--format", "svg"],
    ]
    usual = []
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        usual.append(strip_timings(out) if argv[0] == "verify" else out)
    refuse_cells(monkeypatch)
    for argv, want in zip(commands, usual):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert (strip_timings(out) if argv[0] == "verify" else out) == want, argv
    # the ASCII picture and the matching overlay read the cells once
    monkeypatch.undo()
    reads = count_cell_reads(monkeypatch)
    for extra in ([], ["--format", "svg", "--matching", "sample-by-forced-order"]):
        reads.clear()
        code, _, _ = run_cli(capsys, "render", *DEEP, *extra)
        assert code == 0
        assert reads == [RegionSpec(7, (4, 2, 5, 4))], extra


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("--sweep", "2", "--a", "5", "--d", "9,9"), "cannot be combined"),
        (("--sweep", "2", "--d", "1,2"), "cannot be combined"),
        (("--sweep", "2", "--spec", "spec.json"), "cannot be combined"),
        (("--sweep", "17", "--a", "1"), "cannot be combined"),
        (("--sweep", "0"), "sweep total 0 is below 1"),
        (("--sweep", "-3"), "sweep total -3 is below 1"),
    ],
)
def test_sweep_refuses_a_spec_or_a_total_below_one(
    capsys, monkeypatch, tmp_path, argv, reason
):
    # a spec given with --sweep would go unverified, and a total below 1
    # would verify nothing: both are refused before any composition
    walked = count_calls(monkeypatch, tmp_path, regions, "compositions")
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid spec: ") and reason in err
    assert err.count("\n") == 1
    assert walked.calls() == []


def test_sweep_past_the_limit_exits_three(capsys, monkeypatch, tmp_path):
    # refused before any composition is walked
    assert cli.SWEEP_LIMIT == 16
    walked = count_calls(monkeypatch, tmp_path, regions, "compositions")
    code, out, err = run_cli(capsys, "verify", "--sweep", "17")
    assert code == 3
    assert out == ""
    assert err == "size limit: sweep total 17 exceeds 16\n"
    assert walked.calls() == []


@pytest.mark.parametrize(
    "spec", [("--a", "64", "--d", "128"), ("--d", "30,30,30,31")]
)
def test_brute_counts_large_duals(capsys, spec):
    # 8,320 and 7,624 vertices: unit pivots keep each elimination short
    code, brute, _ = run_cli(capsys, "count", *spec, "--engine", "brute")
    assert code == 0
    assert brute == run_cli(capsys, "count", *spec)[1]


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
    white = {
        symbol: tuple((kind, Color.WHITE) for kind, _ in lines)
        for symbol, lines in regions._LINES.items()
    }
    monkeypatch.setattr(regions, "_LINES", white)
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


def test_verify_reports_a_refused_brute_count_as_null(
    capsys, monkeypatch, tmp_path
):
    # the Aztec dual of order 5 has 60 vertices: past a limit of 20 the
    # brute count is refused before its dual graph is built, and the
    # other engines still agree
    monkeypatch.setattr(matching, "VERTEX_LIMIT", 20)
    graphs = count_calls(monkeypatch, tmp_path, cli, "dual_graph")
    code, out, _ = run_cli(capsys, "verify", "--a", "5", "--d", "10")
    assert code == 0
    assert graphs.calls() == []
    report = json.loads(out.splitlines()[0])
    assert report["counts"] == {
        "brute": None,
        "condense": "32768",
        "formula": "32768",
        "shuffle": "32768",
    }
    assert report["checks"]["engines_agree"] is True
    assert "brute" not in report["timings"]


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
    # sabotage one engine through its seam, the checked-spec entry that
    # verify calls; the report must notice
    monkeypatch.setattr("douglastile.shuffle._exponent", lambda spec: 9)
    code, out, _ = run_cli(capsys, "verify", "--a", "1", "--d", "1,2")
    assert code == 1
    lines = out.strip().splitlines()
    report = json.loads(lines[0])
    assert report["ok"] is False
    assert report["checks"]["engines_agree"] is False
    assert json.loads(lines[-1]) == {"summary": {"passed": 0, "failed": 1}}


def test_verify_surfaces_a_fault_inside_stats_deltas(capsys, monkeypatch):
    # only a base or Case II spec leaves `case_deltas_balance` null; any
    # other ValueError raised while the deltas are measured is a fault and
    # must not end in an `ok` report
    real_deltas, real_stats = cli.stats_deltas, regions._run_stats
    inside = []

    def deltas(*args):
        inside.append(1)
        try:
            return real_deltas(*args)
        finally:
            inside.pop()

    def stats(symbols, runs):
        if inside:
            raise ValueError("injected")
        return real_stats(symbols, runs)

    code, out, _ = run_cli(capsys, "verify", *DEEP)
    assert code == 0
    assert json.loads(out.splitlines()[0])["checks"]["case_deltas_balance"]
    monkeypatch.setattr(cli, "stats_deltas", deltas)
    monkeypatch.setattr(regions, "_run_stats", stats)
    code, out, err = run_cli(capsys, "verify", *DEEP)
    assert code == 4
    assert out == ""
    assert err == "internal error: ValueError: injected\n"


def test_elimination_fault_exits_four(capsys, monkeypatch):
    # a fault inside the elimination is no input's fault: rows with an
    # entry in a column past the last make `_determinant` index out of
    # its column list, which surfaces as one internal error line
    real = matching._region_rows

    def corrupt(region):
        rows = real(region)
        rows[0][len(region.cells) - len(rows)] = 1
        return rows

    monkeypatch.setattr(matching, "_region_rows", corrupt)
    fault = "internal error: IndexError: list index out of range\n"
    code, out, err = run_cli(capsys, "count", *DEEP, "--engine", "brute")
    assert (code, out, err) == (4, "", fault)
    # the trace stops at its first Kuo block, past the records too large
    # for one
    code, out, err = run_cli(
        capsys, "trace", "--d", "4,2,5,4,3,6,2,3", "--kuo-max", "16"
    )
    assert code == 4
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["kuo"] is None for r in records)
    assert err == fault


def test_trace_refuses_a_kuo_block_before_its_cells(capsys, monkeypatch, tmp_path):
    # the first record, the Aztec dual of order 161, is past the limit:
    # its size is the last run's end and its Kuo block is null with no
    # cell read and no row made.  The next, order 160, is under it and
    # makes its rows, which the fake stops
    refuse_cells(monkeypatch)
    made = []

    def rows(region):
        made.append(region.spec)
        raise RuntimeError("rows made")

    monkeypatch.setattr(matching, "_region_rows", rows)
    code, out, err = run_cli(
        capsys, "trace", "--a", "161", "--d", "322", "--kuo-max", "400"
    )
    assert code == 4
    assert err == "internal error: RuntimeError: rows made\n"
    (line,) = out.splitlines()
    record = json.loads(line)
    assert record["spec"] == {"a": 161, "d": [322]}
    assert record["kuo"] is None
    assert made == [RegionSpec(160, (320,))]
    # every block's only size check is the count's own
    monkeypatch.undo()
    sizes = count_calls(monkeypatch, tmp_path, matching, "check_size")
    code, out, _ = run_cli(
        capsys, "trace", "--d", "3,1,4,1,5,9,2,6,5,3,5", "--kuo-max", "16"
    )
    assert code == 0
    blocks = [json.loads(line)["kuo"] for line in out.splitlines()]
    assert len(sizes.calls()) == sum(block is not None for block in blocks) > 0


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


class CallLog:
    """The calls of a patched function, one `repr` of their arguments per
    line of a file, so that the calls made in forked sweep workers count."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def add(self, args) -> None:
        # one short write to an O_APPEND file lands whole, whichever
        # process makes it
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{args!r}\n".encode())
        finally:
            os.close(fd)

    def calls(self) -> list[str]:
        return self.path.read_text().splitlines()

    def clear(self) -> None:
        self.path.write_text("")


def count_calls(monkeypatch, tmp_path, owner, name) -> CallLog:
    """A `CallLog` of every call of `owner.name` from now on."""
    log = CallLog(tmp_path / f"{name}.calls")
    real = getattr(owner, name)

    def counted(*args):
        log.add(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return log


def count_signing_work(monkeypatch, tmp_path):
    """`CallLog`s of `dual_graph`, wherever it is bound, of the signed rows
    that the counts read off the level runs and of their eliminations,
    each logged by its border's size alone."""
    graphs = count_calls(monkeypatch, tmp_path, matching, "dual_graph")
    monkeypatch.setattr(cli, "dual_graph", matching.dual_graph)
    rows = count_calls(monkeypatch, tmp_path, matching, "_region_rows")
    eliminations = CallLog(tmp_path / "_determinant.calls")
    real = matching._determinant

    def eliminate(matrix, border=(), skip=()):
        eliminations.add(len(border))
        return real(matrix, border, skip)

    monkeypatch.setattr(matching, "_determinant", eliminate)
    return graphs, rows, eliminations


def test_trace_signs_each_kuo_graph_once(capsys, monkeypatch, tmp_path):
    # each Kuo block signs its region once and eliminates it once: the six
    # counts are minors of one set of signed rows, read off the level runs
    # with no dual graph, and one elimination leaves the two corner rows
    # and columns standing
    graphs, rows, eliminations = count_signing_work(monkeypatch, tmp_path)
    code, out, _ = run_cli(
        capsys, "trace", "--d", "4,2,5,4,3,6,2,3", "--kuo-max", "16"
    )
    assert code == 0
    blocks = [json.loads(line)["kuo"] for line in out.strip().splitlines()]
    counted = [block for block in blocks if block is not None]
    assert len(counted) > 1
    assert graphs.calls() == []
    assert len(rows.calls()) == len(counted)
    assert eliminations.calls() == ["2"] * len(counted)


def test_verify_signs_each_region_once(capsys, monkeypatch, tmp_path):
    # each region with a Kuo check is signed and eliminated once, and its
    # brute count is the Kuo block's full count; neither it nor a brute
    # count alone builds a dual graph, since the signed rows come from the
    # level runs, and a brute count eliminates with no border
    graphs, rows, eliminations = count_signing_work(monkeypatch, tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--sweep", "8")
    assert code == 0
    valid = json.loads(out.splitlines()[-1])["summary"]["valid"]
    assert graphs.calls() == []
    assert len(rows.calls()) == valid
    assert eliminations.calls() == ["2"] * valid
    rows.clear()
    eliminations.clear()
    code, out, _ = run_cli(capsys, "count", "--engine", "brute", *DEEP)
    assert code == 0 and out == "536870912\n"
    assert graphs.calls() == []
    assert len(rows.calls()) == 1
    assert eliminations.calls() == ["0"]


def test_trace_nulls_a_kuo_block_past_the_size_limit(capsys, monkeypatch):
    # a Kuo block too large to count is null, as verify's brute count is,
    # and the trace goes on: the same lines as with no limit but that one
    argv = ["trace", "--a", "3", "--d", "6", "--kuo-max", "16"]
    code, full, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(matching, "VERTEX_LIMIT", 12)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    want = [json.loads(line) for line in full.splitlines()]
    assert [r["spec"] for r in records] == [
        {"a": 3, "d": [6]},
        {"a": 2, "d": [4]},
        {"a": 1, "d": [2]},
    ]
    # 24 cells are past the limit, 12 and 4 are not
    assert want[0]["kuo"] is not None
    want[0]["kuo"] = None
    assert records == want


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
    assert not loaded & {
        "dataclasses",
        "inspect",
        "multiprocessing",
        "concurrent.futures",
        "fractions",
        "decimal",
    }


# what the probe below runs: every engine of `count`, a derived side, a
# spec file, `verify` on one spec and on a sweep, `trace`, each `render`
# output, and the exits 2 and 3
_REACH_RUNS = [
    *(["count", "--a", "2", "--d", "4", "--engine", e] for e in
      ("brute", "condense", "shuffle", "formula")),
    ["count", "--d", "4,2,5,4"],
    ["count", "--spec", "{tmp}/spec.json"],
    ["verify", *DEEP],
    ["verify", "--sweep", "8"],
    ["trace", *DEEP, "--kuo-max", "16"],
    ["render", "--a", "2", "--d", "4"],
    ["render", "--a", "2", "--d", "4", "--format", "svg"],
    ["render", "--a", "2", "--d", "4", "--format", "svg",
     "--matching", "sample-by-forced-order"],
    ["render", "--a", "2", "--d", "4", "--out", "{tmp}/out.txt"],
    ["count", "--a", "3", "--d", "4"],
    ["render", "--a", "2", "--d", "4", "--matching", "sample-by-forced-order"],
    ["verify", "--sweep", "17"],
    ["count", "--d", "322", "--engine", "brute"],
]

# a fresh interpreter that imports the CLI and runs it under a profile
# hook, one CPU, and prints the exit codes and the qualified names of the
# package's functions it never entered; a function is a code object
# compiled from a def, found by walking each module's constants
_REACH_PROBE = """
import contextlib, io, json, os, sys
from pathlib import Path

entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
import douglastile.cli
os.sched_getaffinity = lambda pid: {0}
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(douglastile.cli.main(argv))
sys.setprofile(None)

missed = []
for path in sorted(Path(douglastile.cli.__file__).parent.glob("*.py")):
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, type(code)):
                stack.append(const)
                # CO_NEWLOCALS: a function body, not a class body
                if const.co_flags & 2 and not const.co_name.startswith("<"):
                    if (str(path), const.co_firstlineno) not in entered:
                        missed.append(f"{path.stem}.{const.co_qualname}")
print(json.dumps([codes, sorted(missed)]))
"""


def test_cli_runs_enter_every_function(tmp_path):
    # the package holds what its commands run: code that only the tests
    # call belongs in tests/.  Not entered here: the forked sweep (one
    # CPU verifies in-process), the fault-only InternalError, the trace
    # that scripts/draw_figures.py prints, and `_gcd_pivot`, which only a
    # G - S that no command deletes reaches (`deletion_counts` counts any
    # S on the outer face; the commands delete Kuo's corners at most)
    (tmp_path / "spec.json").write_text('{"a": 7, "d": [4, 2, 5, 4]}')
    runs = [[arg.format(tmp=tmp_path) for arg in argv] for argv in _REACH_RUNS]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(regions.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _REACH_PROBE, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    codes, missed = json.loads(proc.stdout)
    assert codes == [0] * 13 + [2, 2, 3, 3]
    assert missed == [
        "cli._Reported.__init__",
        "cli._forked_lines",
        "cli._worker",
        "matching._gcd_pivot",
        "regions.InternalError.__init__",
        "shuffle.code_trace",
    ]


def test_corner_off_outer_face(capsys, monkeypatch):
    # a corner inside the graph: trace drops the kuo block, verify exits 4
    real = condensation.pick_corners

    def inner_west(region):
        quad = real(region)
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


def test_render_matching_needs_svg(capsys, monkeypatch):
    # the usage error is found before any cell is built
    built = []
    monkeypatch.setattr(regions, "build_region", lambda *args: built.append(args))
    for spec in (["--a", "2", "--d", "4"], ["--d", "4,2,5,4"]):
        code, out, err = run_cli(
            capsys, "render", *spec, "--matching", "sample-by-forced-order"
        )
        assert (code, out, err) == (2, "", "--matching needs --format svg\n")
    assert built == []


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


def test_non_integer_distances_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--d", "1,x"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected comma-separated integers, got '1,x'" in captured.err


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


def test_derived_side_builds_the_cells_once(capsys, monkeypatch, tmp_path):
    # deriving the side builds nothing: the engines on the distance tuple
    # build no region, and a command that needs one builds it once,
    # verify too, since `stats_deltas` reads the sub-regions' stats
    # off their level runs; a sweep builds each valid region once, in
    # whichever worker verifies it
    built = count_calls(monkeypatch, tmp_path, regions, "build_region")
    for argv in (
        ["count", "--d", "4,2,5,4", "--engine", "condense"],
        ["count", "--d", "4,2,5,4", "--engine", "shuffle"],
        ["trace", "--d", "4,2,5,4", "--kuo-max", "0"],
    ):
        built.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert built.calls() == [], argv
    for argv in (
        ["count", "--d", "4,2,5,4", "--engine", "formula"],
        ["count", "--d", "4,2,5,4", "--engine", "brute"],
        ["render", "--d", "4,2,5,4"],
        ["verify", "--d", "4,2,5,4"],
    ):
        built.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert built.calls() == [repr((7, (4, 2, 5, 4)))], argv
    built.clear()
    code, _, _ = run_cli(capsys, "verify", "--sweep", "10")
    assert code == 0
    assert len(built.calls()) == len(set(built.calls())) == 511


def test_verify_walks_each_region_once(capsys, monkeypatch, tmp_path):
    # counters, not timings, on one CPU so that every region is verified
    # in this process: `build_region` walks a region's level runs and the
    # region carries them, so stats, the brute count and the Kuo block's
    # graph walk none again; only a spec whose stats `stats_deltas` reads
    # fresh walks its own.  The line symbols are read once per
    # composition by `find_region`, and per region by `build_region`, by
    # `shuffle`'s code and by the spec check of `stats_deltas`
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    runs = count_calls(monkeypatch, tmp_path, regions, "_level_runs")
    symbols = count_calls(monkeypatch, tmp_path, regions, "_line_symbols")
    (tmp_path / "shuffle").mkdir()
    shuffled = count_calls(
        monkeypatch, tmp_path / "shuffle", shuffle, "_line_symbols"
    )
    misses = []
    real_stats = condensation._region_stats

    def region_stats(spec, memo):
        if spec not in memo:
            misses.append(spec)
        return real_stats(spec, memo)

    monkeypatch.setattr(condensation, "_region_stats", region_stats)
    code, out, _ = run_cli(capsys, "verify", "--sweep", "10")
    assert code == 0
    summary = json.loads(out.splitlines()[-1])["summary"]
    valid = summary["valid"]
    # in a sweep every sub-region's stats are those of a region verified
    # before it
    assert (summary["compositions"], valid, len(misses)) == (1023, 511, 0)
    assert len(runs.calls()) == valid + len(misses)
    assert len(symbols.calls()) == 1023 + 2 * valid + len(misses)
    assert len(shuffled.calls()) == valid
    # one region alone: its three sub-regions are misses
    for log in (runs, symbols, shuffled):
        log.clear()
    misses.clear()
    code, _, _ = run_cli(capsys, "verify", *DEEP)
    assert code == 0
    assert len(misses) == 3
    assert len(runs.calls()) == 1 + len(misses)
    assert len(symbols.calls()) == 2 + len(misses)
    assert len(shuffled.calls()) == 1


def test_closed_stdout_exits_quietly():
    # a reader that stops early is no internal error: exit as a writer
    # killed by SIGPIPE would, and leave stderr empty; the report of
    # `--sweep 8` is larger than a pipe buffer, so the writer hits the
    # closed end
    env = dict(os.environ, PYTHONPATH=str(Path(regions.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "douglastile", "verify", "--sweep", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


fork_only = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="sweep workers are forked"
)


def sweep_on(capsys, monkeypatch, cpus, *argv):
    """`verify` run as if the process may use `cpus` CPUs: the exit code,
    the report lines without timings, stderr and the number of workers
    forked.  No child of the test process may be left afterwards."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    monkeypatch.setattr(os, "fork", fork)
    code, out, err = run_cli(capsys, "verify", *argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, strip_timings(out), err, len(forks)


def fault_at(monkeypatch, spec, fault):
    """Make `regions.build_region` call `fault()` when it builds `spec`."""
    real = regions.build_region

    def build(side, distances):
        if (side, tuple(distances)) == spec:
            fault()
        return real(side, distances)

    monkeypatch.setattr(regions, "build_region", build)


@fork_only
def test_sweep_fan_out_matches_one_process(capsys, monkeypatch):
    # one CPU verifies in-process, three fan the regions out to three
    # forked workers; the reports, the summary and the exit code agree
    one = sweep_on(capsys, monkeypatch, 1, "--sweep", "8")
    fanned = sweep_on(capsys, monkeypatch, 3, "--sweep", "8")
    assert (one[3], fanned[3]) == (0, 3)
    assert one[:3] == fanned[:3]
    assert one[0] == 0 and one[2] == ""
    assert json.loads(one[1][-1])["summary"]["passed"] == 127


@fork_only
@pytest.mark.parametrize(
    "error, code, line",
    [
        (regions.InternalError("injected"), 4, "internal error: injected"),
        (matching.SizeLimit("injected"), 3, "size limit: injected"),
        (KeyError("injected"), 4, "internal error: KeyError: 'injected'"),
    ],
)
def test_sweep_worker_failure_matches_one_process(
    capsys, monkeypatch, error, code, line
):
    # a fault on one spec midway through the sweep ends it as one process
    # would: the reports before that spec, one stderr line, the exit code
    target = valid_specs(8)[50]

    def fault():
        raise error

    fault_at(monkeypatch, target, fault)
    one = sweep_on(capsys, monkeypatch, 1, "--sweep", "8")
    fanned = sweep_on(capsys, monkeypatch, 3, "--sweep", "8")
    assert fanned[3] == 3
    assert one[:3] == fanned[:3]
    assert one[0] == code and one[2] == line + "\n"
    assert len(one[1]) == 50


@fork_only
def test_killed_sweep_worker_exits_four(capsys, monkeypatch):
    # a worker that dies without its report is an internal error; the
    # reports before the missing one are all printed
    parent = os.getpid()
    target = valid_specs(8)[50]

    def fault():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    fault_at(monkeypatch, target, fault)
    code, out, err, forks = sweep_on(capsys, monkeypatch, 2, "--sweep", "8")
    assert (code, forks) == (4, 2)
    assert len(out) == 50
    assert err == (
        "internal error: sweep worker ended before the report on "
        f"{target.side}:{target.distances}\n"
    )
