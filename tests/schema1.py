"""A schema-1 writer for the tests.

qhilb writes schema 2, where a two-cell lists only its on-sector
entries, but it still reads schema 1, whose two-cells carry the dense
``mat`` of ``[re, im]`` pairs.  Tests that edit single matrix entries,
or put one off the grading sectors, rewrite a document here first.
"""

from __future__ import annotations

from qhilb.serialize import two_cell_from_json


def to_schema1(doc: dict) -> dict:
    """A copy of ``doc`` with schema 1 and every ``entries`` two-cell
    replaced by its dense ``mat``."""

    def walk(x):
        if isinstance(x, dict):
            if {"source", "target", "entries"} <= x.keys():
                mat = two_cell_from_json(x).mat
                return {"source": walk(x["source"]), "target": walk(x["target"]),
                        "mat": [[[z.real, z.imag] for z in row] for row in mat.tolist()]}
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    return {**walk(doc), "schema": 1}
