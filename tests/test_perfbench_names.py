"""Every function the benchmark's tracer reads by name still exists.

`perfbench/inproc.py` wraps the public functions of the layer modules and
reports a metric as null when its function is missing, so a rename would
otherwise turn a traced metric into null without failing anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_inproc", _PATH)
inproc = importlib.util.module_from_spec(_SPEC)
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
