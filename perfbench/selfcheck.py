"""Self-check of the benchmark on a tiny version of each workload.

Run from the repository root::

    python3 perfbench/selfcheck.py

Asserts that every metric named in ``BENCHMARK.json`` is emitted with its
unit (end-to-end metrics untraced, per-layer metrics traced), that the
tracer wraps every lookup site and restores every wrapped attribute, so
an untraced run after a traced one is unaffected, that the correctness
gate flags a wrong report, and that stratified selection keeps its
quotas.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def _snapshot():
    from tracer import qhilb_modules
    from qhilb import funcat

    owners = qhilb_modules() + [funcat.GConstruction]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def _check_units(metrics, spec, what):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: u for k, (_, u) in metrics.items()}
    assert got == want, f"{what}: emitted {got}, BENCHMARK.json names {want}"


def _check_wrapping():
    """Every site that holds a layer's function is wrapped, then restored."""
    from qhilb import funcat, linalg, splitting
    from tracer import LAYERS, Tracer

    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        sites = {(id(owner), attr): orig for owner, attr, orig in tracer._patched}
        for owner, attr, orig in tracer._patched:
            assert vars(owner)[attr].__wrapped__ is orig, (owner, attr)
        for owner, attr in ((splitting, "commutant_basis"), (funcat, "hcomp2"),
                            (funcat, "check_qsystem"), (splitting, "check_qsystem_iso")):
            assert (id(owner), attr) in sites, f"{owner.__name__}.{attr} not wrapped"
        assert len({id(orig) for orig in sites.values()}) == len(LAYERS)
    finally:
        tracer.restore()
    assert _snapshot() == before, "tracer left a wrapped attribute behind"
    assert not hasattr(linalg.commutant_basis, "__wrapped__")


def _check_gate():
    from workloads import InputFile, check_report

    f = InputFile("x.json", 0, 5, [1, 2], 0)
    good = json.dumps({"pass": True, "k": 2, "block_dims": [1, 2], "checks": []})
    assert check_report("split-qsystem", f, 0, good) is None
    wrong = json.dumps({"pass": True, "k": 2, "block_dims": [1, 1], "checks": []})
    assert check_report("split-qsystem", f, 0, wrong)
    failing = json.dumps({"pass": False, "k": 2, "block_dims": [1, 2], "checks": []})
    assert check_report("split-qsystem", f, 0, failing)
    assert check_report("check-qsystem", f, 1, "")
    assert check_report("check-qsystem", f, None, "")
    assert check_report("check-qsystem", f, 0, json.dumps({"pass": True}))
    assert check_report("verify-fun", f, 0, json.dumps({"pass": True, "G_zero_cells": [1]}))


def _check_selection():
    """Stratified selection keeps each class's quota, in draw order."""
    from workloads import InputFile, quotas, stratified

    assert quotas((1, 1, 2), 8) == [2, 2, 4]
    assert quotas((5, 3), 3) == [2, 1]
    candidates = [InputFile(f"{k}.json", k % 3, None, None, 0) for k in range(12)]
    kept = stratified(candidates, (1, 1, 2), 8)
    assert [f.size_class for f in kept] == [0, 1, 2, 0, 1, 2, 2, 2], kept
    # quotas [1, 0, 4], but class 2 has two candidates: the earliest
    # left over make up the rest
    short = stratified(candidates[:6], (1, 1, 6), 5)
    assert [f.path for f in short] == ["0.json", "1.json", "2.json", "3.json", "5.json"], short


def main() -> int:
    error = run.load_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import TINY_WORKLOADS, WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    _check_gate()
    _check_selection()
    _check_wrapping()
    for name, workload in TINY_WORKLOADS.items():
        before = _snapshot()
        for trace in (False, True, False):
            metrics, _, runner, _, _ = run.measure(workload, seed=1, seconds=0, trace=trace)
            assert runner.attempted and not runner.errors, (name, trace, runner.errors)
            _check_units(metrics, spec["per_layer" if trace else "end_to_end"],
                         f"{name} trace={int(trace)}")
            assert _snapshot() == before, f"{name}: tracer left a wrapped attribute behind"
        print(f"selfcheck {name}: ok")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
