"""Schema-1 and schema-2 writers for the tests.

qhilb writes schema 3, where a two-cell stores its on-sector entries
as one base64 string, but it still reads schema 2, where the same
entries are a flat JSON list of numbers, and schema 1, whose two-cells
carry the dense ``mat`` of ``[re, im]`` pairs.  Tests that edit single
matrix entries, or put one off the grading sectors, rewrite a document
here first.
"""

from __future__ import annotations

from qhilb.cells import sector_mask
from qhilb.serialize import two_cell_from_json


def _rewrite(doc: dict, schema: int, key: str, encode) -> dict:
    """A copy of ``doc`` with ``schema`` whose every ``entries``
    two-cell instead holds ``key``: ``encode`` of the read two-cell."""

    def walk(x):
        if isinstance(x, dict):
            if {"source", "target", "entries"} <= x.keys():
                return {"source": walk(x["source"]), "target": walk(x["target"]),
                        key: encode(two_cell_from_json(x))}
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    return {**walk(doc), "schema": schema}


def to_schema1(doc: dict) -> dict:
    """A copy of ``doc`` with schema 1 and every ``entries`` two-cell
    replaced by its dense ``mat``."""
    return _rewrite(doc, 1, "mat", lambda f: [[[z.real, z.imag] for z in row]
                                              for row in f.mat.tolist()])


def to_schema2(doc: dict) -> dict:
    """A copy of ``doc`` with schema 2 and every two-cell's ``entries``
    the flat list ``re, im, re, im, ...`` of its on-sector entries."""
    return _rewrite(doc, 2, "entries", lambda f: f.mat[sector_mask(f.target, f.source)]
                    .view(float).tolist())
