import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import qhilb

MODULES = sorted(m.name for m in pkgutil.iter_modules(qhilb.__path__, "qhilb."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_benchmark_tracer_names_resolve():
    # the traced benchmark run wraps every LAYERS name (``module.function``
    # or ``module.Class.method``) and reads cache_info() of every CACHED
    # cells function; a renamed or deleted one breaks that run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.LAYERS:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"qhilb.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(name)
    cells = importlib.import_module("qhilb.cells")
    missing += [f"cells.{name}" for name in tracer.CACHED
                if not hasattr(getattr(cells, name, None), "cache_info")]
    assert not missing, f"perfbench/tracer.py names missing from qhilb: {missing}"
