"""The figure script runs end to end: four SVGs and a reduction trace whose
zeros add up to the shuffling exponent (the script asserts that itself)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "draw_figures.py"
_SPEC = importlib.util.spec_from_file_location("draw_figures", _PATH)
draw_figures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(draw_figures)


def test_draw_figures_writes_four_svgs(tmp_path, capsys):
    assert draw_figures.main(["--out-dir", str(tmp_path)]) == 0
    svgs = sorted(p.name for p in tmp_path.iterdir())
    assert svgs == ["a-family5.svg", "aztec3.svg", "deep.svg", "e-family4.svg"]
    for name in svgs:
        assert (tmp_path / name).read_text(encoding="utf-8").startswith("<svg")
    assert "so the region has 2^" in capsys.readouterr().out
