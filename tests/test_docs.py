"""The README's library example runs, and names the whole public surface;
every module exports only names it defines; the verify report table
names the report's fields."""

import ast
import importlib
import json
import re
from pathlib import Path

import douglastile
from douglastile.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    exec(compile(library_block(), str(README), "exec"), {})


def test_public_surface_is_the_readme_import():
    documented = [
        alias.name
        for node in ast.walk(ast.parse(library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "douglastile"
        for alias in node.names
    ]
    assert sorted(douglastile.__all__) == sorted(documented)
    assert len(documented) == len(set(documented))


def test_module_exports_are_defined():
    # a name left in __all__ after its definition went breaks star imports
    for name in ("regions", "matching", "condensation", "shuffle", "render", "cli"):
        module = importlib.import_module(f"douglastile.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], name


def report_table() -> dict[str, str]:
    """Field name -> meaning cell of README's verify report table."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Fields of a verify report:") :]
    rows = {}
    for line in section.splitlines()[2:]:
        if not line.startswith("|"):
            break
        field, meaning = (cell.strip() for cell in line.strip("|").split("|"))
        if field.startswith("`"):
            rows[field.strip("`")] = meaning
    return rows


def test_readme_report_table_names_the_report_fields(capsys):
    assert main(["verify", "--a", "7", "--d", "4,2,5,4"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    rows = report_table()
    assert sorted(rows) == sorted(report)
    # the checks row lists its keys after the colon
    listed = re.findall(r"`(\w+)`", rows["checks"].split(":", 1)[1])
    assert sorted(listed) == sorted(report["checks"])
