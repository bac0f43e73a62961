"""The benchmark's workloads: seeded input files and output checks.

Each workload draws a pool of input files and deals it into *rounds* of
nearly the same size mix; the timed loop runs whole rounds.  The set-up
work does not depend on the seed: every seed generates the same number
of files of the same kinds, and only their random content changes.

* ``qsys-large``: one round, one file of each total dimension N in 25-36
  that ``random_qsystem(max_sector_dim=3)`` can produce.  The block
  structure for N is drawn directly (``_large_file``), so no Q-system
  is built and thrown away.
* ``qsys-small`` and ``fun-product``: a fixed number of candidate files
  drawn with ``qhilb gen``, of which the pool keeps, from each size
  class, as many files as the class's share of that generator's output
  (``SMALL_SHARES``, ``FUN_SHARES``; proportional stratified sampling).
  This keeps the generator's mix while a seed's luck in drawing costly
  files no longer moves the run's throughput.

Run as a script, this module draws a workload's input files into a
directory and writes their list to ``manifest.json`` there; the
benchmark does so in a separate process, as a user would run
``qhilb gen``, so that generation leaves no trace in the peak memory of
the process that runs the commands::

    python3 perfbench/workloads.py qsys-large 1 DIR [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

# warm-up files come from this seed whatever the workload seed, so the
# warm-up work is the same in every run
WARMUP_SEED = 0


@dataclass
class InputFile:
    path: str
    size_class: int
    n: int | None               # total dimension N of a Q-system file
    block_dims: list | None     # block dimensions the benchmark generated
    seed: int                   # --seed passed to split-qsystem / verify-fun


@dataclass(frozen=True)
class Workload:
    name: str
    tiny: bool
    commands: tuple[str, ...]
    rounds: int                 # rounds the pool is dealt into
    draw: Callable[[np.random.Generator, str], list[InputFile]]
    class_names: tuple[str, ...]

    def make_pool(self, rng: np.random.Generator, workdir: str) -> list[list[InputFile]]:
        """Draw the pool and deal it into rounds: files sorted by size
        class go round-robin, so every round gets nearly the same mix;
        each round keeps the draw order."""
        files = self.draw(rng, workdir)
        dealt = sorted(files, key=lambda f: f.size_class)
        return [sorted(dealt[r::self.rounds], key=files.index) for r in range(self.rounds)]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    from qhilb import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _classify(value: int, bounds: tuple[int, ...]) -> int:
    """Index of the first class whose upper bound is at least ``value``."""
    return next(c for c, top in enumerate(bounds) if value <= top)


def quotas(shares: tuple[int, ...], size: int) -> list[int]:
    """``size`` files split over the classes in proportion to ``shares``
    (largest remainder)."""
    total = sum(shares)
    exact = [size * s / total for s in shares]
    out = [int(x) for x in exact]
    for c in sorted(range(len(shares)), key=lambda c: out[c] - exact[c])[:size - sum(out)]:
        out[c] += 1
    return out


def stratified(candidates: list[InputFile], shares: tuple[int, ...], size: int) -> list[InputFile]:
    """``size`` of the candidates, in draw order, with as many from each
    size class as its quota.  A class short of candidates is made up
    with the earliest candidates left over, whatever their class."""
    need = quotas(shares, size)
    keep = []
    for f in candidates:
        if need[f.size_class] > 0:
            need[f.size_class] -= 1
            keep.append(f)
    left = [f for f in candidates if f not in keep]
    keep += left[:size - len(keep)]
    return sorted(keep, key=candidates.index)


# -- qsys-large ---------------------------------------------------------------

# random_qsystem draws a cell with zero_cell rows and `blocks` columns,
# each sector of dimension 0-max_sector_dim and no column empty; N is
# the sum of the squared column dimensions
LARGE_MAX_ROWS = 3
LARGE_MAX_BLOCKS = 3
LARGE_MAX_SECTOR_DIM = 3


def _structures(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """``(rows, column dimensions)`` with squares summing to ``n``."""
    out = []
    for rows in range(1, LARGE_MAX_ROWS + 1):
        top = LARGE_MAX_SECTOR_DIM * rows
        for blocks in range(1, LARGE_MAX_BLOCKS + 1):
            for cols in itertools.product(range(1, top + 1), repeat=blocks):
                if sum(c * c for c in cols) == n:
                    out.append((rows, cols))
    return out


LARGE_N = tuple(n for n in range(25, 37) if _structures(n))   # 28 and 31 are unreachable


def _pick(rng, options: list):
    return options[int(rng.integers(len(options)))]


def _large_file(rng, path: str, n: int, size_class: int) -> InputFile:
    """A dressed dual-pair Q-system of total dimension ``n``, built as
    ``random_qsystem`` builds it, from a cell whose column dimensions
    are drawn to give ``n``."""
    from qhilb import generate, serialize
    from qhilb.cells import GradedOneCell, ZeroCell
    from qhilb.qsystem import qsystem_from_dual, standard_dual_pair

    rows, cols = _pick(rng, _structures(n))
    sectors = [_pick(rng, [d for d in itertools.product(range(LARGE_MAX_SECTOR_DIM + 1),
                                                        repeat=rows) if sum(d) == c])
               for c in cols]
    grading = tuple((r + 1, c + 1) for r in range(rows) for c in range(len(cols))
                    for _ in range(sectors[c][r]))
    x = GradedOneCell(ZeroCell(len(cols)), ZeroCell(rows), grading)
    q = generate.dress_qsystem(rng, qsystem_from_dual(standard_dual_pair(x)))
    serialize.dump_document(serialize.qsystem_to_json(q), path)
    return InputFile(path, size_class, n, sorted(cols), _seed(rng))


def _draw_large(sizes):
    def draw(rng, workdir):
        return [_large_file(rng, os.path.join(workdir, f"{k:03d}.json"), n, k)
                for k, n in enumerate(sizes)]

    return draw


# -- qsys-small ---------------------------------------------------------------

SMALL_SIZES = tuple(range(1, 65))
SMALL_CANDIDATES = 4          # candidate files of each size s
SMALL_POOL = 128              # files kept
SMALL_N_BOUNDS = (8, 10, 13, 14, 18, 20, 21, 22, 24)
# files of each N class among 3200 drawn from `qhilb gen --kind qsystem
# --size s`, s uniform in 1-64 (50 draws of each s)
SMALL_SHARES = (583, 253, 281, 490, 442, 188, 349, 310, 304)


def _gen_qsystem(rng, path: str, size: int) -> int:
    rc, _, err = run_cli(["gen", "--kind", "qsystem", "--size", str(size),
                          "--seed", str(_seed(rng)), "--out", path])
    if rc != 0:
        raise RuntimeError(f"gen --kind qsystem failed: {err.strip()}")
    with open(path, encoding="utf-8") as fh:
        return len(json.load(fh)["cell"]["grading"])


def _draw_small(tiny: bool):
    def draw(rng, workdir):
        sizes = (8,) if tiny else SMALL_SIZES * SMALL_CANDIDATES
        candidates = []
        for k, size in enumerate(sizes):
            path = os.path.join(workdir, f"{k:03d}.json")
            n = _gen_qsystem(rng, path, size)
            candidates.append(InputFile(path, _classify(n, SMALL_N_BOUNDS), n, None, _seed(rng)))
        return candidates if tiny else stratified(candidates, SMALL_SHARES, SMALL_POOL)

    return draw


# -- fun-product --------------------------------------------------------------

FUN_CANDIDATES = 256          # candidate files
FUN_POOL = 128                # files kept
# classes by the number of composable generator triples of the
# presentation, which predicts verify-fun time far better than any
# dimension in the file
FUN_TRIPLE_BOUNDS = (1, 5, 14, 36, 10**9)
# files of each class among the 3942 of 4000 files drawn from `qhilb gen
# --kind scenario` that keep to the generator's budget (see below)
FUN_SHARES = (1329, 858, 842, 590, 323)
# product_scenario documents that it resamples scenarios whose Q-systems
# exceed max_psi_dim=20 or whose verification touches composites above
# max_composite_dim=300.  It misses both now and then: it compares
# (composite, psi) tuples lexicographically, and its cost model leaves
# out psi . psi . psi, which the axiom check of each psi builds.  Of 4000
# draws, 58 broke the budget (13 with psi of dimension 32, and 45 with
# psi . psi . psi of dimension 450-1024, one of which alone lifts the
# process's peak memory from about 60 to 80 MB).  Such candidates are
# never kept, holding the workload to the documented budget.
FUN_MAX_PSI_DIM = 20
FUN_MAX_COMPOSITE_DIM = 300


def composable_triples(doc: dict) -> int:
    gens = doc["presentation"]["gen_one_cells"]
    ends = [(g["src"], g["tgt"]) for g in gens]
    return sum(1 for gs, _ in ends for hs, ht in ends if ht == gs
               for _, kt in ends if kt == hs)


def within_budget(doc: dict) -> bool:
    """Whether every psi of the scenario keeps to product_scenario's
    documented budget, psi . psi . psi included."""
    from qhilb.cells import GradedOneCell, ZeroCell, hcomp1_many

    for c in doc["qsystem"]["psi0"].values():
        psi = GradedOneCell(ZeroCell(c["src"]), ZeroCell(c["tgt"]), tuple(map(tuple, c["grading"])))
        if psi.dim > FUN_MAX_PSI_DIM or hcomp1_many(psi, psi, psi).dim > FUN_MAX_COMPOSITE_DIM:
            return False
    return True


def _gen_scenario(rng, path: str) -> int | None:
    """Composable triples of a new file; ``None`` when it breaks the
    generator's budget."""
    rc, _, err = run_cli(["gen", "--kind", "scenario", "--seed", str(_seed(rng)),
                          "--out", path])
    if rc != 0:
        raise RuntimeError(f"gen --kind scenario failed: {err.strip()}")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return composable_triples(doc) if within_budget(doc) else None


def _draw_fun(tiny: bool):
    def draw(rng, workdir):
        candidates = []
        for k in itertools.count() if tiny else range(FUN_CANDIDATES):
            path = os.path.join(workdir, f"{k:03d}.json")
            triples = _gen_scenario(rng, path)
            if triples is not None:
                c = _classify(triples, FUN_TRIPLE_BOUNDS)
                candidates.append(InputFile(path, c, None, None, _seed(rng)))
                if tiny and c == 0:
                    return candidates[-1:]
        return stratified(candidates, FUN_SHARES, FUN_POOL)

    return draw


def _bounds_names(bounds, unit):
    lows = (1,) + tuple(b + 1 for b in bounds[:-1])
    return tuple(f"{unit} {lo}" if lo == hi else f"{unit} {lo}-{hi}" if hi < 10**9
                 else f"{unit} >={lo}" for lo, hi in zip(lows, bounds))


def _workloads(tiny: bool) -> dict[str, Workload]:
    large = (9,) if tiny else LARGE_N
    return {w.name: w for w in (
        Workload("qsys-large", tiny, ("check-qsystem", "split-qsystem"), 1, _draw_large(large),
                 tuple(f"N {n}" for n in large)),
        Workload("qsys-small", tiny, ("check-qsystem", "split-qsystem"), 1 if tiny else 4,
                 _draw_small(tiny), _bounds_names(SMALL_N_BOUNDS, "N")),
        Workload("fun-product", tiny, ("verify-fun",), 1 if tiny else 4,
                 _draw_fun(tiny), _bounds_names(FUN_TRIPLE_BOUNDS, "triples")),
    )}


WORKLOADS = _workloads(tiny=False)
TINY_WORKLOADS = _workloads(tiny=True)


# -- output checks ------------------------------------------------------------

def argv_for(command: str, f: InputFile) -> list[str]:
    if command == "check-qsystem":
        return [command, f.path, "--json"]
    return [command, f.path, "--seed", str(f.seed), "--json"]


def check_report(command: str, f: InputFile, rc, out: str) -> str | None:
    """``None`` when the command's report is correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        rep = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(rep, dict) or rep.get("pass") is not True:
        return "report does not say pass: true"
    if command == "check-qsystem":
        names = {row.get("name") for row in rep.get("checks") or () if isinstance(row, dict)}
        if not {"Q1", "Q2", "Q3", "Q4"} <= names:
            return f"axiom rows missing: {sorted(map(str, names))}"
    elif command == "split-qsystem":
        dims = rep.get("block_dims")
        if not dims or not all(isinstance(d, int) for d in dims) or rep.get("k") != len(dims):
            return f"k={rep.get('k')} does not match block_dims={dims}"
        if f.block_dims is not None and dims != sorted(f.block_dims):
            return f"block_dims {dims} != generated {sorted(f.block_dims)}"
        if sum(d * d for d in dims) != f.n:
            return f"block_dims {dims} do not square-sum to N={f.n}"
    elif command == "verify-fun":
        g = rep.get("G_zero_cells")
        if not isinstance(g, dict) or not g or not all(
                isinstance(v, int) and v >= 1 for v in g.values()):
            return f"bad G_zero_cells {g}"
    return None


def generate_inputs(name: str, seed: int, workdir: str, tiny: bool) -> dict:
    """Draw the pool of workload ``name`` and one warm-up file of its
    tiny version into ``workdir``; returns the manifest."""
    pool = (TINY_WORKLOADS if tiny else WORKLOADS)[name].make_pool(
        np.random.default_rng(seed), workdir)
    warm_dir = os.path.join(workdir, "warmup")
    os.makedirs(warm_dir)
    warm = TINY_WORKLOADS[name].make_pool(np.random.default_rng(WARMUP_SEED), warm_dir)[0][0]
    return {"pool": [[asdict(f) for f in r] for r in pool], "warmup": asdict(warm)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="draw a workload's input files")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("workdir")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    manifest = generate_inputs(args.workload, args.seed, args.workdir, args.tiny)
    with open(os.path.join(args.workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    sys.exit(main())
