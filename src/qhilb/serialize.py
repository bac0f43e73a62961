"""JSON (de)serialization of cells, Q-systems and scenarios.

One-cells are ``{"src", "tgt", "grading"}`` with 1-based index pairs.
A two-cell carries its source and target cells and, in schema 3 (what
every writer emits), ``"entries"``: one ASCII base64 string of the
little-endian float64 pairs ``re, im`` of the matrix entries at the
positions ``(r, c)`` with ``target.grading[r] == source.grading[c]``
(``cells.sector_mask``), in row-major order.  The writer refuses a
two-cell with a nonzero entry elsewhere, since the format cannot hold
it.  Entries read back bit-exactly.

Schema 2 files, whose ``entries`` is the same numbers as one flat JSON
list ``re, im, re, im, ...``, and schema 1 files, whose two-cells carry
``"mat"``, a nested row-major matrix of ``[re, im]`` pairs, are still
read.  Each two-cell holds exactly one of ``mat`` and ``entries``.
"""

from __future__ import annotations

import base64
import json
from itertools import chain

import numpy as np

from .cells import BlockTwoCell, GradedOneCell, ZeroCell, off_sector_nonzero, sector_mask
from .errors import CellMismatch, ParseError
from .funcat import EndFQSystem, FunctorData, TransformationData
from .presentation import (
    EDagger,
    EGen,
    EHComp,
    EId,
    EVComp,
    GenOneCell,
    GenTwoCell,
    Path,
    PresentedTwoCat,
)
from .qsystem import QSystemData
from .splitting import SplitResult

SCHEMA = 3             # written
SCHEMAS = (1, 2, 3)    # read

__all__ = [
    "cell_to_json", "cell_from_json",
    "two_cell_to_json", "two_cell_from_json",
    "qsystem_to_json", "qsystem_from_json",
    "presentation_to_json", "presentation_from_json",
    "scenario_to_json", "scenario_from_json",
    "constant_to_json", "constant_from_json",
    "split_result_to_json",
    "load_document", "dump_document",
]


def cell_to_json(c: GradedOneCell) -> dict:
    return {"src": c.src.n, "tgt": c.tgt.n,
            "grading": [list(g) for g in c.grading]}


def _int(v) -> int:
    """A JSON integer; floats such as ``2.0`` and booleans are refused."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _list(v, what: str) -> list:
    """A JSON array; a string or an object would be split into its
    characters or keys, so it is refused."""
    if not isinstance(v, list):
        raise TypeError(f"{what} must be a list, got {type(v).__name__}")
    return v


def cell_from_json(d: dict) -> GradedOneCell:
    try:
        entries = _list(d["grading"], "grading")
        # one type scan per level; _list and _int only name a bad value
        if not {list}.issuperset(map(type, entries)):
            for g in entries:
                _list(g, "grading entry")
        grading = tuple(map(tuple, entries))
        if not {int}.issuperset(map(type, chain.from_iterable(grading))):
            for v in chain.from_iterable(grading):
                _int(v)
        if set(map(len, grading)) - {2}:
            raise ValueError("grading entries must be (row, col) pairs")
        return GradedOneCell(ZeroCell(_int(d["src"])), ZeroCell(_int(d["tgt"])), grading)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad one-cell: {exc}") from exc


def _mat_from_json(rows, shape) -> np.ndarray:
    """Complex matrix of ``shape`` from rows of ``[re, im]`` pairs of
    finite numbers (schema 1).  Strings and booleans, which ``np.array``
    would convert, are refused."""
    try:
        leaves = [v for row in rows for pair in row for v in pair]
    except TypeError as exc:
        raise ParseError(f"matrix entries must be [re, im] number pairs: {exc}") from exc
    if not {float, int}.issuperset(map(type, leaves)):
        raise ParseError("matrix entries must be [re, im] number pairs")
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix entries must be [re, im] number pairs: {exc}") from exc
    if a.size == 0 and 0 in shape and a.shape[:1] == shape[:1]:
        return np.zeros(shape, dtype=complex)
    if a.shape != (*shape, 2):
        raise ParseError(f"matrix of [re, im] pairs has shape {a.shape}, "
                         f"need {(*shape, 2)}")
    if not np.isfinite(a).all():
        raise ParseError("matrix entries must be finite numbers")
    return a.view(complex)[..., 0]


def _entries_from_json(values, mask: np.ndarray) -> np.ndarray:
    """Complex matrix that holds ``values``, ``re, im`` pairs of finite
    numbers as a base64 string of little-endian float64 (schema 3) or a
    flat list (schema 2), where ``mask`` is true, and zeros elsewhere."""
    if isinstance(values, str):  # a bad string is a ValueError, which the caller reports
        a = np.frombuffer(base64.b64decode(values, validate=True), "<f8").astype(float)
    elif isinstance(values, list) and {float, int}.issuperset(map(type, values)):
        try:
            a = np.array(values, dtype=float)
        except OverflowError as exc:
            raise ParseError(f"two-cell entries must be finite numbers: {exc}") from exc
    else:
        raise ParseError("two-cell entries must be a base64 string or a list of numbers")
    n = np.count_nonzero(mask)
    if a.size != 2 * n:
        raise ParseError(f"two-cell entries hold {a.size} numbers, need {2 * n}: "
                         f"a re, im pair for each of its {n} on-sector positions")
    if not np.isfinite(a).all():
        raise ParseError("two-cell entries must be finite numbers")
    mat = np.zeros(mask.shape, dtype=complex)
    mat[mask] = a.view(complex)
    return mat


def two_cell_to_json(f: BlockTwoCell) -> dict:
    if off_sector_nonzero(f):
        raise CellMismatch("cannot write a two-cell with a nonzero entry "
                           "off its grading sectors")
    raw = f.mat[sector_mask(f.target, f.source)].astype("<c16", copy=False).tobytes()
    return {"source": cell_to_json(f.source), "target": cell_to_json(f.target),
            "entries": base64.b64encode(raw).decode("ascii")}


def two_cell_from_json(d: dict) -> BlockTwoCell:
    try:
        src = cell_from_json(d["source"])
        tgt = cell_from_json(d["target"])
        if ("mat" in d) == ("entries" in d):
            raise ParseError("bad two-cell: need exactly one of mat and entries")
        if "mat" in d:
            mat = _mat_from_json(d["mat"], (tgt.dim, src.dim))
        else:
            mat = _entries_from_json(d["entries"], sector_mask(tgt, src))
        return BlockTwoCell(src, tgt, mat)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad two-cell: {exc}") from exc


def qsystem_to_json(q: QSystemData) -> dict:
    return {"schema": SCHEMA, "kind": "qsystem",
            "cell": cell_to_json(q.Q),
            "m": two_cell_to_json(q.m), "i": two_cell_to_json(q.i)}


def qsystem_from_json(d: dict) -> QSystemData:
    if not isinstance(d, dict) or not {"cell", "m", "i"} <= d.keys():
        raise ParseError("bad Q-system: need the keys cell, m and i")
    return QSystemData(cell_from_json(d["cell"]),
                       two_cell_from_json(d["m"]), two_cell_from_json(d["i"]))


def _path_to_json(p: Path) -> dict:
    return {"labels": list(p.labels), "src": p.src}


def _path_from_json(cat: PresentedTwoCat, d: dict) -> Path:
    return cat.path(tuple(_list(d["labels"], "labels")), src=d.get("src"))


def _expr_to_json(e) -> dict:
    if isinstance(e, EGen):
        return {"gen": e.label}
    if isinstance(e, EId):
        return {"id": _path_to_json(e.path)}
    if isinstance(e, EDagger):
        return {"dagger": _expr_to_json(e.expr)}
    if isinstance(e, EVComp):
        return {"vcomp": [_expr_to_json(x) for x in e.exprs]}
    if isinstance(e, EHComp):
        return {"hcomp": [_expr_to_json(x) for x in e.exprs]}
    raise ParseError(f"unknown expression {e!r}")


def _expr_from_json(cat: PresentedTwoCat, d: dict):
    if "gen" in d:
        return EGen(d["gen"])
    if "id" in d:
        return EId(_path_from_json(cat, d["id"]))
    if "dagger" in d:
        return EDagger(_expr_from_json(cat, d["dagger"]))
    for key, node in (("vcomp", EVComp), ("hcomp", EHComp)):
        if key in d and d[key]:  # an empty composite is no expression
            return node(tuple(_expr_from_json(cat, x) for x in d[key]))
    raise ParseError(f"unknown expression {d!r}")


def presentation_to_json(cat: PresentedTwoCat) -> dict:
    return {
        "zero_cells": list(cat.zero_cells),
        "gen_one_cells": [{"label": g.label, "src": g.src, "tgt": g.tgt}
                          for g in cat.gen_one_cells],
        "gen_two_cells": [{"label": f.label,
                           "source": _path_to_json(f.source),
                           "target": _path_to_json(f.target)}
                          for f in cat.gen_two_cells],
        "relations": [[_expr_to_json(l), _expr_to_json(r)]
                      for l, r in cat.relations],
    }


def presentation_from_json(d: dict) -> PresentedTwoCat:
    try:
        zero = tuple(_list(d["zero_cells"], "zero_cells"))
        labels = [g["label"] for key in ("gen_one_cells", "gen_two_cells")
                  for g in d.get(key, ())]
        for label in (*zero, *labels):
            if not isinstance(label, str):
                raise TypeError(f"label {label!r} is not a string")
        gens = tuple(GenOneCell(g["label"], g["src"], g["tgt"])
                     for g in d["gen_one_cells"])
        cat = PresentedTwoCat(zero, gens)
        two = tuple(GenTwoCell(f["label"],
                               _path_from_json(cat, f["source"]),
                               _path_from_json(cat, f["target"]))
                    for f in d.get("gen_two_cells", ()))
        cat = PresentedTwoCat(zero, gens, two)
        rel = tuple((_expr_from_json(cat, l), _expr_from_json(cat, r))
                    for l, r in d.get("relations", ()))
        return PresentedTwoCat(zero, gens, two, rel)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad presentation: {exc}") from exc


def scenario_to_json(q: EndFQSystem) -> dict:
    """The scenario document of a Q-system ``q`` on End(F): the
    presentation ``F.cat`` and the functor ``F = q.psi.source`` on
    generators, then ``q``'s own data."""
    f = q.psi.source
    cat = f.cat
    return {
        "schema": SCHEMA,
        "kind": "scenario",
        "presentation": presentation_to_json(cat),
        "functor": {
            "on0": {a: f.on0[a].n for a in cat.zero_cells},
            "on1": {g.label: cell_to_json(f.on1[g.label])
                    for g in cat.gen_one_cells},
            "on2": {t.label: two_cell_to_json(f.on2[t.label])
                    for t in cat.gen_two_cells},
        },
        "qsystem": {
            "psi0": {a: cell_to_json(q.psi.comp0[a]) for a in cat.zero_cells},
            "psi1": {g.label: two_cell_to_json(
                q.psi.comp1[cat.path((g.label,))])
                for g in cat.gen_one_cells},
            "m": {a: two_cell_to_json(q.m[a]) for a in cat.zero_cells},
            "i": {a: two_cell_to_json(q.i[a]) for a in cat.zero_cells},
        },
    }


def scenario_from_json(d: dict):
    """Scenario ``(cat, f, q)``, ``q.m`` and ``q.i`` ``dict``s keyed by
    zero-cell; ``on0``, ``psi0``, ``m`` and ``i`` must cover every
    zero-cell, ``on1``, ``psi1`` every generator and ``on2`` (optional
    without generator two-cells) every generator two-cell."""
    try:
        cat = presentation_from_json(d["presentation"])
        fd, qd = d["functor"], d["qsystem"]
        zero = cat.zero_cells
        gens = [g.label for g in cat.gen_one_cells]
        twos = [t.label for t in cat.gen_two_cells]
        for table, keys, what in ((fd["on0"], zero, "functor.on0"),
                                  (fd["on1"], gens, "functor.on1"),
                                  (fd.get("on2", {}), twos, "functor.on2"),
                                  (qd["psi0"], zero, "qsystem.psi0"),
                                  (qd["psi1"], gens, "qsystem.psi1"),
                                  (qd["m"], zero, "qsystem.m"),
                                  (qd["i"], zero, "qsystem.i")):
            missing = [k for k in keys if k not in table]
            if missing:
                raise ParseError(f"bad scenario: {what} misses "
                                 f"{', '.join(map(str, missing))}")
        on0 = {a: ZeroCell(_int(n)) for a, n in fd["on0"].items()}
        on1 = {lab: cell_from_json(c) for lab, c in fd["on1"].items()}
        on2 = {lab: two_cell_from_json(c) for lab, c in fd.get("on2", {}).items()}
        f = FunctorData(cat, on0, on1, on2)
        comp0 = {a: cell_from_json(c) for a, c in qd["psi0"].items()}
        comp1 = {cat.path((lab,)): two_cell_from_json(c)
                 for lab, c in qd["psi1"].items()}
        psi = TransformationData(f, f, comp0, comp1)
        m = {a: two_cell_from_json(c) for a, c in qd["m"].items()}
        i = {a: two_cell_from_json(c) for a, c in qd["i"].items()}
        return cat, f, EndFQSystem(psi, m, i)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad scenario: {exc}") from exc


def constant_to_json(cat: PresentedTwoCat, q: QSystemData) -> dict:
    return {"schema": SCHEMA, "kind": "constant",
            "presentation": presentation_to_json(cat),
            "qsystem": {"cell": cell_to_json(q.Q),
                        "m": two_cell_to_json(q.m),
                        "i": two_cell_to_json(q.i)}}


def constant_from_json(d: dict):
    try:
        cat = presentation_from_json(d["presentation"])
        q = qsystem_from_json(d["qsystem"])
        return cat, q
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad constant scenario: {exc}") from exc


def split_result_to_json(res: SplitResult) -> dict:
    return {"schema": SCHEMA, "kind": "split_result", "k": res.k.n,
            "X": cell_to_json(res.pair.X), "Xbar": cell_to_json(res.pair.Xbar),
            "ev": two_cell_to_json(res.pair.ev),
            "coev": two_cell_to_json(res.pair.coev),
            "gamma": two_cell_to_json(res.gamma)}


def load_document(path: str) -> dict:
    """The document in ``path``, of schema 1, 2 or 3 (a JSON integer:
    not ``true``, ``1.0`` or ``3.0``).  A file that is not UTF-8 JSON, or that
    nests deeper than the decoder allows, is a ``ParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if type(schema) is not int or schema not in SCHEMAS:
        raise ParseError(f"{path}: missing or unsupported schema")
    if "kind" not in doc:
        raise ParseError(f"{path}: missing kind")
    return doc


def dump_document(doc: dict, path: str) -> None:
    """Write ``doc`` to ``path``; a path that cannot be written is a ``ParseError``."""
    try:
        # json.dumps encodes in C; json.dump would encode in Python
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
