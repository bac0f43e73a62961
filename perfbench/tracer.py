"""Outside-in tracer for the traced benchmark run.

The tracer wraps public ``qhilb`` functions from outside the package:
every module attribute (and, for methods, the class attribute) that
*is* the original function is replaced by a timing wrapper, because
``splitting``, ``funcat`` and ``qsystem`` bind names such as
``commutant_basis`` and ``hcomp2`` at import time.  ``restore`` puts
every original back.

Spans ``[layer, start, end, parent, op, note, note_s]`` are kept in
memory and written out when the run ends.  ``note`` holds a value taken
from the call (a dimension, a result size); ``note_s`` is the time spent
taking it, which is charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

COMMANDS = ("check-qsystem", "split-qsystem", "verify-fun")

# Wrapped layers and the end-to-end metric (printed per workload by
# run.py) that a change to each should move.
LAYERS = {
    "linalg.commutant_basis":
        "split_p50_ms and peak_rss_mb on qsys-large; split_p50_ms on qsys-small; "
        "verify_p50_ms on fun-product",
    "linalg.spectral_projections": "split_p50_ms on qsys-small",
    "linalg.range_isometry": "split_p50_ms on qsys-small",
    "qsystem.check_qsystem":
        "check_p50_ms on qsys-large; split_p50_ms (regular_reps checks once per split)",
    "qsystem.check_qsystem_iso": "split_p50_ms (called twice per CLI split)",
    "splitting.split_qsystem": "split_* on qsys workloads; verify_p50_ms on fun-product",
    "splitting.regular_reps": "split_* on qsys workloads; verify_p50_ms on fun-product",
    "splitting.split_projection": "split_* on qsys workloads; verify_p50_ms on fun-product",
    "cells.hcomp2": "verify_p50_ms on fun-product",
    "cells.vcomp": "verify_p50_ms on fun-product",
    "cells.id2": "verify_p50_ms on fun-product",
    "funcat.verify_main_theorem": "verify_p50_ms on fun-product",
    "funcat.construct_G": "verify_p50_ms on fun-product",
    "funcat.check_functor": "verify_p50_ms on fun-product",
    "funcat.check_transformation": "verify_p50_ms on fun-product",
    "funcat.check_modification": "verify_p50_ms on fun-product",
    "funcat.check_endf_qsystem": "verify_p50_ms on fun-product",
    "funcat.GConstruction.path_projection": "verify_p50_ms on fun-product",
    "funcat.GConstruction.tensorator": "verify_p50_ms on fun-product",
    "serialize.load_document": "check_p50_ms on qsys-small",
    "serialize.qsystem_from_json": "check_p50_ms on qsys-small",
    "serialize.scenario_from_json": "check_p50_ms on qsys-small",
    "serialize.dump_document": "check_p50_ms on qsys-small",
    "cli.main": "check_p50_ms on qsys-small (argparse and report emit, "
                "reported per command as cli.<command>)",
}

CACHED = ("hcomp1", "hcomp_pairs")  # cells caches whose hit ratio is reported


def _dims(args, out):
    n = np.asarray(args[0][0]).shape[0]
    return n * n


def _split_k(args, out):
    return out.k.n


def _cell_size(args, out):
    return out.mat.size, int(np.count_nonzero(out.mat))


def _tensorator_key(args, out):
    gc, p, q = args[0], args[1], args[2]
    return id(gc), p, q


def _file_size(args, out):
    return os.path.getsize(args[0])


NOTES = {
    "linalg.commutant_basis": _dims,
    "splitting.split_qsystem": _split_k,
    "cells.hcomp2": _cell_size,
    "cells.vcomp": _cell_size,
    "funcat.GConstruction.tensorator": _tensorator_key,
    "serialize.load_document": _file_size,
}


def qhilb_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qhilb" or name.startswith("qhilb."))]


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS) + ["op"]
        self.op_layer = len(self.layers) - 1
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self.cache = {name: [0, 0] for name in CACHED}   # hits, misses
        self._stack = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ------------------------------

    def _sites(self, target: str):
        """``(owner, attribute, original)`` for every lookup site."""
        parts = target.split(".")
        mod = sys.modules[f"qhilb.{parts[0]}"]
        if len(parts) == 3:
            cls = getattr(mod, parts[1])
            return [(cls, parts[2], vars(cls)[parts[2]])]
        orig = getattr(mod, parts[1])
        return [(m, attr, orig) for m in qhilb_modules()
                for attr, value in list(vars(m).items()) if value is orig]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        sites = [(i, site) for i, target in enumerate(LAYERS)
                 for site in self._sites(target)]
        for i, (owner, attr, orig) in sites:
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(i, orig, NOTES.get(self.layers[i])))

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _wrap(self, layer: int, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = [layer, t0, t1, stack[-1], self._op, None, 0.0]
            if note is not None:
                spans[idx][5] = note(args, out)
                spans[idx][6] = clock() - t1
            return out

        return traced

    # -- ops ----------------------------------------------------------------

    def begin_op(self, meta: dict):
        """Open the root span of one command on one file."""
        self._op = len(self.ops)
        self.ops.append(meta)
        idx = len(self.spans)
        self.spans.append([self.op_layer, time.perf_counter(), None, -1, self._op, None, 0.0])
        self._stack.append(idx)

    def end_op(self):
        idx = self._stack.pop()
        self.spans[idx][2] = time.perf_counter()
        from qhilb import cells

        for name, acc in self.cache.items():
            info = getattr(cells, name).cache_info()
            acc[0] += info.hits
            acc[1] += info.misses
        self._op = -1

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent, *_, note_s in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0 + note_s
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self) -> tuple[dict, dict]:
        """Per-layer metrics ``{name: (value, unit)}`` and a breakdown of
        self time by ``(command, layer, N)``."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_n = defaultdict(float)
        for span, st in zip(self.spans, selfs):
            name = self.layers[span[0]]
            cmd = self.ops[span[4]]["command"]
            if name == "cli.main":
                name = f"cli.{cmd}"
            elif name == "op":
                name = "other"
            calls[name] += 1
            self_s[name] += st
            by_n[(cmd, name, self.ops[span[4]].get("N"))] += st
        wall = sum(s[2] - s[1] for s in self.spans if s[0] == self.op_layer)
        note_s = sum(s[6] for s in self.spans)

        ops = len(self.ops)
        m = {}
        names = [n for n in LAYERS if n != "cli.main"] + [f"cli.{c}" for c in COMMANDS]
        for name in names + ["other"]:
            if name != "other":
                m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_ms_per_op"] = (1e3 * self_s[name] / ops if ops else 0.0, "ms")
        m["op.count"] = (ops, "count")
        m["op.wall_ms_per_op"] = (1e3 * wall / ops if ops else 0.0, "ms")
        m["trace.note_ms_per_op"] = (1e3 * note_s / ops if ops else 0.0, "ms")

        notes = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                notes[self.layers[span[0]]].append(span)
        m["linalg.commutant_basis.max_n2"] = (
            max((s[5] for s in notes["linalg.commutant_basis"]), default=0), "count")
        entries = sum(s[5][0] for n in ("cells.hcomp2", "cells.vcomp") for s in notes[n])
        nnz = sum(s[5][1] for n in ("cells.hcomp2", "cells.vcomp") for s in notes[n])
        m["cells.out_entries"] = (entries, "count")
        m["cells.out_nnz_ratio"] = (nnz / entries if entries else 0.0, "ratio")
        for name, (hits, misses) in self.cache.items():
            total = hits + misses
            m[f"cells.{name}.hit_ratio"] = (hits / total if total else 0.0, "ratio")
        keys = [(s[4],) + s[5] for s in notes["funcat.GConstruction.tensorator"]]
        m["funcat.GConstruction.tensorator.distinct_ratio"] = (
            len(set(keys)) / len(keys) if keys else 0.0, "ratio")
        m["serialize.bytes_read"] = (sum(s[5] for s in notes["serialize.load_document"]), "bytes")
        m["splitting.spectral_useful_ratio"] = (self._spectral_useful_ratio(), "ratio")
        return m, dict(by_n)

    def _spectral_useful_ratio(self) -> float:
        """``sum(1 + k)`` over splits divided by the spectral
        decompositions made inside them; 1.0 when no random element
        had to be redrawn."""
        split = self.layers.index("splitting.split_qsystem")
        spectral = self.layers.index("linalg.spectral_projections")
        useful = sum(1 + s[5] for s in self.spans if s[0] == split and s[5] is not None)
        made = 0
        for s in self.spans:
            if s[0] != spectral:
                continue
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] != split:
                parent = self.spans[parent][3]
            made += parent >= 0
        return useful / made if made else 0.0

    def write(self, path: str, header: dict):
        """Spans as JSON lines: a header, the op table, then one span a
        line with times in microseconds from the first span."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "layers": self.layers}) + "\n")
            fh.write(json.dumps({"ops": self.ops}) + "\n")
            for layer, t0, t1, parent, op, _, _ in self.spans:
                fh.write(f"[{layer},{round((t0 - t_base) * 1e6)},"
                         f"{round((t1 - t_base) * 1e6)},{parent},{op}]\n")
