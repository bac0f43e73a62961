"""File schema 2: a two-cell stores the flat list of its on-sector
entries.  Round trips are bit-exact, schema 1 is still read, and the
schema-1 fixtures under ``data/`` keep their reports."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb.cells import BlockTwoCell, GradedOneCell, ZeroCell, one_cell
from qhilb.cli import main
from qhilb.errors import CellMismatch
from qhilb.serialize import (
    constant_from_json,
    constant_to_json,
    dump_document,
    load_document,
    qsystem_from_json,
    qsystem_to_json,
    scenario_from_json,
    scenario_to_json,
    two_cell_from_json,
    two_cell_to_json,
)
from schema1 import to_schema1

DATA = Path(__file__).parent / "data"
REPORTS = json.loads((DATA / "reports-schema1.json").read_text(encoding="utf-8"))

REWRITE = {
    "qsystem": lambda d: qsystem_to_json(qsystem_from_json(d)),
    "scenario": lambda d: scenario_to_json(*scenario_from_json(d)),
    "constant": lambda d: constant_to_json(*constant_from_json(d)),
}


def bits(a) -> np.ndarray:
    return np.asarray(a).view(np.uint64)


@st.composite
def sector_cells(draw):
    """``(cell, values)``: a two-cell between random gradings (any order,
    possibly empty), holding the finite floats ``values`` as ``re, im``
    pairs on its sector positions in row-major order, zero elsewhere."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = st.tuples(st.integers(1, b), st.integers(1, a))
    src, tgt = (GradedOneCell(ZeroCell(a), ZeroCell(b), tuple(draw(st.lists(pair, max_size=6))))
                for _ in range(2))
    spots = [(r, c) for r in range(tgt.dim) for c in range(src.dim)
             if tgt.grading[r] == src.grading[c]]
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2 * len(spots), max_size=2 * len(spots)))
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for k, (r, c) in enumerate(spots):
        mat[r, c] = complex(values[2 * k], values[2 * k + 1])
    return BlockTwoCell(src, tgt, mat), values


@given(sector_cells())
@settings(max_examples=200, deadline=None)
def test_two_cell_round_trip_is_bit_exact(cell_values):
    f, values = cell_values
    text = json.dumps(two_cell_to_json(f))
    doc = json.loads(text)
    assert np.array_equal(bits(np.array(doc["entries"], dtype=float)),
                          bits(np.array(values, dtype=float)))
    g = two_cell_from_json(doc)
    assert g.source == f.source and g.target == f.target
    assert np.array_equal(bits(g.mat), bits(f.mat))
    # the dense schema-1 encoding of the same cell reads to the same matrix
    dense = {"source": doc["source"], "target": doc["target"],
             "mat": [[[z.real, z.imag] for z in row] for row in f.mat.tolist()]}
    h = two_cell_from_json(json.loads(json.dumps(dense)))
    assert np.array_equal(bits(h.mat), bits(f.mat))


def test_writer_refuses_off_sector_entry():
    x = one_cell(1, 2, [(1, 1), (2, 1)])
    two_cell_to_json(BlockTwoCell(x, x, np.diag([1.0, -0.5])))
    with pytest.raises(CellMismatch, match="off its grading sectors"):
        two_cell_to_json(BlockTwoCell(x, x, [[1.0, 1e-300], [0.0, 1.0]]))


@pytest.mark.parametrize("kind, seed", [("qsystem", 3), ("scenario", 1), ("constant", 2)])
def test_gen_load_dump_is_byte_identical(tmp_path, capsys, kind, seed):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--kind", kind, "--seed", str(seed), "--out", str(a)]) == 0
    capsys.readouterr()
    doc = load_document(str(a))
    assert doc["schema"] == 2
    dump_document(REWRITE[kind](doc), str(b))
    assert a.read_bytes() == b.read_bytes()


def assert_close(got, want, path="report"):
    """Equal reports, floats within 1e-12 absolute."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, path
    else:
        assert got == want, path


def run_report(command: str, directory: Path, capsys) -> str:
    argv = command.split()
    argv[1] = str(directory / argv[1])
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_schema1_fixture_report(capsys, command):
    assert_close(json.loads(run_report(command, DATA, capsys)), REPORTS[command])


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_schema2_rewrite_has_the_same_report(tmp_path, capsys, command):
    name = command.split()[1]
    doc = load_document(str(DATA / name))
    assert doc["schema"] == 1
    rewrite = REWRITE[doc["kind"]](doc)
    assert rewrite["schema"] == 2 and to_schema1(rewrite) == doc
    dump_document(rewrite, str(tmp_path / name))
    assert run_report(command, tmp_path, capsys) == run_report(command, DATA, capsys)
