import ast
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


def test_every_parameter_is_read():
    # a parameter that its function never reads is a setting that does
    # nothing; dunder methods are exempt, their signatures are fixed
    unread = []
    for path in sorted(Path(qhilb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                       if p not in ("self", "cls") and p not in read]
    assert not unread, f"parameters never read: {unread}"


def test_no_import_is_unused():
    # an import that its module never reads is left over from a deletion;
    # ``__init__`` imports to re-export, and so does a name in ``__all__``
    unused = []
    for path in sorted(Path(qhilb.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = {n.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for n in node.value.elts}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read and name not in exported]
    assert not unused, f"imports never read: {unused}"
