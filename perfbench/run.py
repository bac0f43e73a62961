"""qhilb benchmark: CLI check / split / verify on seeded input files.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qsys-large --seed 1 --seconds 30 --trace 0

The benchmark imports ``qhilb`` from ``src/`` of the tree it sits in,
writes seeded input documents under ``perfbench/work/``, and drives
``qhilb.cli.main(argv)`` in-process on them: one client, files in
sequence, the next command only after the previous one returned.  Each
command starts with every ``functools`` cache of the package emptied,
as a fresh ``qhilb`` process would have them, and with the garbage of
the previous command collected (see ``fresh_state``).

``--trace 0`` times the commands and prints the end-to-end metrics.
``--trace 1`` runs every file twice, untraced and traced in alternating
order, and prints per-layer metrics from the traced pass together with
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, -(-len(xs) * p // 100) - 1))
    return xs[int(k)]


def tail(values):
    """``(p, value)`` for the highest listed percentile with at least ten
    samples beyond it, or ``None`` when the run has too few samples."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return None


# -- machine record -------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """Commit of the tree, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qhilb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- running commands -------------------------------------------------------------

def _malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):   # not glibc
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    return lambda: trim(0)


MALLOC_TRIM = _malloc_trim()


def fresh_state():
    """Bring the process close to a fresh ``qhilb`` process: empty every
    ``functools`` cache of the package, collect the previous command's
    garbage and hand freed heap pages back, so no command profits from
    or pays for the ones before it, and ``ru_maxrss`` is the largest
    single command rather than a sum of leftovers."""
    from tracer import qhilb_modules

    for mod in qhilb_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()
    MALLOC_TRIM()


class Runner:
    """Runs a workload's commands on input files and checks each report."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []
        self.log: list = []     # [file, size class, N, {command: wall s}, ru_maxrss]

    def command(self, command, f, tracer=None) -> float:
        """Wall seconds of one command; a failure is recorded, not raised."""
        from workloads import argv_for, check_report, run_cli

        fresh_state()
        argv = argv_for(command, f)
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op({"file": os.path.basename(f.path), "command": command, "N": f.n})
        t0 = time.perf_counter()
        try:
            rc, out, err = run_cli(argv)
        except (Exception, SystemExit) as exc:  # the run continues past a failed command
            rc, out, err = None, "", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        error = check_report(command, f, rc, out)
        if error:
            if err.strip():
                error += f" ({err.strip().splitlines()[-1]})"
            self.errors.append(f"{command} {os.path.basename(f.path)}: {error}")
        return wall

    def file(self, f, tracer=None) -> dict[str, float]:
        return {c: self.command(c, f, tracer) for c in self.workload.commands}


def setup(workload, seed: int, workdir: str):
    """Draw the input files in a child process, then warm each command
    up on the one file of the workload's tiny version.  Returns the pool
    as a list of rounds."""
    from workloads import InputFile

    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), workload.name, str(seed),
           workdir] + (["--tiny"] if workload.tiny else [])
    subprocess.run(cmd, check=True, timeout=170)
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    Runner(workload).file(InputFile(**manifest["warmup"]))
    return [[InputFile(**f) for f in r] for r in manifest["pool"]]


def timed_rounds(pool, seconds: float, run_round) -> int:
    """Run whole rounds, cycling through the pool, while the next round
    is expected to end within ``seconds``; at least one."""
    t0 = time.perf_counter()
    r = 0
    while True:
        run_round(pool[r % len(pool)])
        r += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / r > seconds:
            return r


def untraced_metrics(workload, pool, seconds, runner, setup_s):
    per_cmd = {c: [] for c in workload.commands}
    per_class = [[] for _ in workload.class_names]
    t0 = time.perf_counter()

    def run_round(files):
        for f in files:
            walls = runner.file(f)
            for c, w in walls.items():
                per_cmd[c].append(w)
            per_class[f.size_class].append(sum(walls.values()))
            runner.log.append([os.path.basename(f.path), f.size_class, f.n, walls,
                               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss])

    rounds = timed_rounds(pool, seconds, run_round)
    loop_s = time.perf_counter() - t0
    files = sum(len(t) for t in per_class)
    command_s = sum(sum(t) for t in per_cmd.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "files_per_s": (files / command_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"rounds {rounds}, files {files}, commands {runner.attempted}: "
             f"{command_s:.3f} s in commands, {loop_s:.3f} s in the loop",
             "file_p50_ms by size class: " + ", ".join(
                 f"{name} {1e3 * statistics.median(t):.4f} (n={len(t)})"
                 for name, t in zip(workload.class_names, per_class) if t)]
    short = {"check-qsystem": "check", "split-qsystem": "split", "verify-fun": "verify"}
    for c, walls in per_cmd.items():
        name = short[c]
        lines.append(f"{name}_p50_ms = {1e3 * statistics.median(walls):.4f} ms (n={len(walls)})")
        t = tail(walls)
        if t:
            lines.append(f"{name}_tail_ms = {1e3 * t[1]:.4f} ms (p{t[0]:g}, n={len(walls)})")
        else:
            lines.append(f"{name}_tail_ms: not reported, {len(walls)} samples "
                         f"leave fewer than ten beyond p90")
    return metrics, lines


def traced_metrics(workload, pool, seconds, runner, tracer):
    walls = {"untraced": 0.0, "traced": 0.0}
    k = [0]

    def run_round(files):
        for f in files:
            order = ("untraced", "traced") if k[0] % 2 == 0 else ("traced", "untraced")
            k[0] += 1
            for mode in order:
                if mode == "traced":
                    tracer.install()
                    try:
                        walls[mode] += sum(runner.file(f, tracer).values())
                    finally:
                        tracer.restore()
                else:
                    walls[mode] += sum(runner.file(f).values())

    rounds = timed_rounds(pool, seconds, run_round)
    metrics, by_n = tracer.summary()
    metrics["trace.overhead_ratio"] = (walls["traced"] / walls["untraced"], "ratio")
    lines = [f"rounds {rounds}, files {k[0]} (each untraced and traced), "
             f"commands {runner.attempted}",
             f"tracing overhead: traced {walls['traced']:.3f} s / untraced "
             f"{walls['untraced']:.3f} s = {metrics['trace.overhead_ratio'][0]:.3f}"]
    ops = metrics["op.count"][0]
    lines.append(f"{'layer':<44} {'calls':>8} {'self_s':>10} {'ms/op':>9}")
    covered = metrics["trace.note_ms_per_op"][0]
    for name, (value, unit) in metrics.items():
        if name.endswith(".calls") and value:
            layer = name[:-6]
            per_op = metrics[f"{layer}.self_ms_per_op"][0]
            covered += per_op
            lines.append(f"{layer:<44} {value:>8} {per_op * ops / 1e3:>10.4f} {per_op:>9.4f}")
    per_op = metrics["other.self_ms_per_op"][0]
    lines.append(f"{'other':<44} {'':>8} {per_op * ops / 1e3:>10.4f} {per_op:>9.4f}")
    wall = metrics["op.wall_ms_per_op"][0]
    lines.append(f"layers + other + notes = {covered + per_op:.4f} ms/op of op wall "
                 f"{wall:.4f} ms/op over {ops} ops "
                 f"(notes: {metrics['trace.note_ms_per_op'][0]:.4f} ms/op)")
    lines.append("computed from returned two-cells: cells.out_entries = "
                 f"{metrics['cells.out_entries'][0]}, cells.out_nnz_ratio = "
                 f"{metrics['cells.out_nnz_ratio'][0]:.4f}")
    sizes = sorted({key[2] for key in by_n if key[2] is not None})
    if sizes:
        lines.append("self_s by N (command, layer: N=value ...), layers above 1 % of op wall:")
        for cmd in workload.commands:
            for layer in sorted({key[1] for key in by_n if key[0] == cmd}):
                total = sum(v for key, v in by_n.items() if key[:2] == (cmd, layer))
                if total < wall * ops / 1e5:
                    continue
                cells = " ".join(f"N={n}:{by_n.get((cmd, layer, n), 0.0):.4f}" for n in sizes)
                lines.append(f"  {cmd}, {layer}: {cells}")
    return metrics, lines


def load_package() -> str | None:
    """Put this tree's ``src`` first on the path and import the CLI;
    returns an error message when that is not possible."""
    if not os.path.isfile(os.path.join(SRC, "qhilb", "cli.py")):
        return f"no qhilb sources under {SRC}"
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import qhilb.cli

    if not os.path.abspath(qhilb.cli.__file__).startswith(SRC + os.sep):
        return f"qhilb imported from {qhilb.cli.__file__}, not {SRC}"
    return None


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Set up ``SETUP_REPEATS`` times, then run the timed loop.

    Returns ``(metrics, report lines, runner, set-up times, tracer)``.
    """
    from tracer import Tracer

    os.makedirs(WORK, exist_ok=True)
    base = os.path.join(WORK, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = setup(workload, seed, f"{base}-{rep}")
            setups.append(time.perf_counter() - t0)
        runner = Runner(workload)
        tracer = None
        if trace:
            tracer = Tracer()
            metrics, lines = traced_metrics(workload, pool, seconds, runner, tracer)
        else:
            setup_s = import_s + statistics.median(setups)
            metrics, lines = untraced_metrics(workload, pool, seconds, runner, setup_s)
    finally:
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(f"{base}-{rep}", ignore_errors=True)
    return metrics, lines, runner, setups, tracer


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    error = load_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t_start
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    metrics, lines, runner, setups, tracer = measure(
        workload, args.seed, args.seconds, bool(args.trace), import_s)

    machine = machine_record()
    failed = len(runner.errors)
    head = [f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace}",
            "machine " + json.dumps(machine, sort_keys=True),
            f"set-up: import {import_s:.4f} s, generation and warm-up "
            f"{', '.join(f'{s:.4f}' for s in setups)} s (median counts)",
            f"fail_ratio = {failed / runner.attempted:.4f} "
            f"({failed} of {runner.attempted} commands failed)"]
    head += [f"failure: {e}" for e in runner.errors[:20]]
    for line in head + lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-trace{args.trace}"
    path = os.path.join(WORK, f"result-{tag}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": machine, "setup_runs_s": setups,
                   "errors": runner.errors, "report": lines,
                   "files": runner.log}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(WORK, f"spans-{tag}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, "machine": machine})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
