"""Every function the benchmark's tracer reads by name still exists.

`perfbench/inproc.py` wraps the public functions of the layer modules and
reports a metric as null when its function is missing, so a rename would
otherwise turn a traced metric into null without failing anything.  A
ratio over calls reads null the same way when a workload makes no call.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    return spec, importlib.util.module_from_spec(spec)


_SPEC, inproc = _module("perfbench_inproc", _BENCH / "inproc.py")
_SPEC.loader.exec_module(inproc)


def _wrapped(name: str) -> bool:
    # the selection rule of `Tracer.install`, which also wraps `cli.main`
    if name == "cli.main":
        return True
    layer, attr = name.split(".")
    if layer not in inproc.LAYERS or attr.startswith("_"):
        return False
    module = importlib.import_module(f"{inproc.PACKAGE}.{layer}")
    fn = getattr(module, attr, None)
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not inspect.isgeneratorfunction(fn)
    )


def test_traced_names_resolve():
    names = {fn for _, _, fn, _ in inproc.PER_LAYER if fn is not None}
    names |= set(inproc.SIZES) | set(inproc.MEMO_USERS)
    missing = sorted(name for name in names if not _wrapped(name))
    assert missing == []


def test_size_readers_read_real_outputs():
    # the tracer reads a size that raises AttributeError as 0, so a reader
    # that no longer fits its function's output would show nothing
    regions = importlib.import_module(f"{inproc.PACKAGE}.regions")
    matching = importlib.import_module(f"{inproc.PACKAGE}.matching")
    render = importlib.import_module(f"{inproc.PACKAGE}.render")
    region = regions.build_region(7, (4, 2, 5, 4))
    outputs = {
        "regions.build_region": region,
        "matching.dual_graph": matching.dual_graph(region),
        "render.svg_region": render.svg_region(region),
    }
    assert set(outputs) == set(inproc.SIZES)
    for name, read in inproc.SIZES.items():
        size = read(outputs[name])
        assert type(size) is int and size > 0, name


def _reaches_find_region(argv) -> bool:
    # `verify --sweep` derives each side, and so does a `--d` with no side
    if argv[0] == "verify" and "--sweep" in argv:
        return True
    return "--d" in argv and "--a" not in argv and "--spec" not in argv


def test_every_workload_reaches_find_region(monkeypatch):
    # `regions.valid_ratio` is the pass rate of `find_region` calls and
    # reads null on a workload that makes none.  run.py's own `import
    # inproc` takes the module loaded above; its dataclass needs run.py
    # registered under its name.
    spec, run = _module("perfbench_run", _BENCH / "run.py")
    monkeypatch.setitem(sys.modules, "inproc", inproc)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    for name, commands in run.WORKLOADS.items():
        assert any(_reaches_find_region(c.argv) for c in commands()), name
