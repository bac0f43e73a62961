import argparse
import base64
import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb import cli, funcat, qsystem, splitting
from qhilb.cells import (dagger2, hcomp1, hcomp2, id1, id2, one_cell, residual,
                         sector_mask, two_cell, vcomp)
from qhilb.cli import main
from qhilb.errors import InvalidQSystem
from qhilb.generate import product_scenario, random_qsystem, random_sector_matrix
from qhilb.linalg import Tolerance
from qhilb.qsystem import QSystemData, check_qsystem
from qhilb.serialize import (
    dump_document,
    load_document,
    qsystem_from_json,
    qsystem_to_json,
    scenario_from_json,
    scenario_to_json,
    two_cell_from_json,
)
from schema1 import to_schema1, to_schema2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_serialize_roundtrip_qsystem(tmp_path):
    q, _ = random_qsystem(np.random.default_rng(0), zero_cell=2, blocks=2)
    path = tmp_path / "q.json"
    dump_document(qsystem_to_json(q), str(path))
    q2 = qsystem_from_json(load_document(str(path)))
    assert q2.Q == q.Q
    assert np.allclose(q2.m.mat, q.m.mat)
    assert check_qsystem(q2).max_residual < 1e-9


def test_serialize_roundtrip_scenario(tmp_path):
    cat, f, endf = product_scenario(np.random.default_rng(4))
    path = tmp_path / "sc.json"
    dump_document(scenario_to_json(endf), str(path))
    cat2, f2, endf2 = scenario_from_json(load_document(str(path)))
    assert cat2.zero_cells == cat.zero_cells
    from qhilb.funcat import check_endf_qsystem
    assert check_endf_qsystem(endf2).max_residual < 1e-9


def test_gen_and_check_qsystem(tmp_path, capsys):
    out = str(tmp_path / "q.json")
    code, _ = run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", out)
    assert code == 0
    code, text = run(capsys, "check-qsystem", out)
    assert code == 0
    assert "PASS" in text


def test_split_command(tmp_path, capsys):
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "5", "--out", qfile)
    sfile = str(tmp_path / "split.json")
    code, text = run(capsys, "split-qsystem", qfile, "--seed", "1", "--out", sfile)
    assert code == 0 and "PASS" in text
    doc = load_document(sfile)
    assert doc["kind"] == "split_result"
    gamma = two_cell_from_json(doc["gamma"])
    assert gamma.mat.shape[0] == gamma.mat.shape[1]


def test_verify_fun_scenario(tmp_path, capsys):
    out = str(tmp_path / "sc.json")
    run(capsys, "gen", "--kind", "scenario", "--seed", "11", "--out", out)
    code, text = run(capsys, "verify-fun", out, "--seed", "2")
    assert code == 0 and "PASS" in text


def test_verify_fun_constant(tmp_path, capsys):
    out = str(tmp_path / "cc.json")
    run(capsys, "gen", "--kind", "constant", "--seed", "12", "--out", out)
    code, text = run(capsys, "verify-fun", out, "--seed", "2", "--json")
    assert code == 0
    doc = json.loads(text)
    assert doc["pass"] is True
    assert all(c["residual"] <= c["threshold"] for c in doc["checks"])


def test_exit_code_residual_failure(tmp_path, capsys):
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = to_schema1(load_document(qfile))
    doc["m"]["mat"][0][0][0] += 1e-3  # perturb one entry
    dump_document(doc, qfile)
    code, text = run(capsys, "check-qsystem", qfile)
    assert code == 1
    assert "FAIL" in text


def test_exit_code_residual_failure_schema2(tmp_path, capsys):
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = to_schema2(load_document(qfile))
    doc["m"]["entries"][0] += 1e-3  # the real part of the first on-sector entry
    dump_document(doc, qfile)
    code, text = run(capsys, "check-qsystem", qfile)
    assert code == 1
    assert "FAIL" in text


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "check-qsystem", str(bad))
    assert code == 2
    good_kind = tmp_path / "wrong.json"
    good_kind.write_text('{"schema": 1, "kind": "scenario"}')
    code, _ = run(capsys, "check-qsystem", str(good_kind))
    assert code == 2


@pytest.mark.parametrize("entry", [[1], [float("nan"), 0.0], [0.0, float("inf")]])
def test_exit_code_bad_matrix_entry(tmp_path, capsys, entry):
    # an entry that is not a pair of finite numbers is a parse error
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = to_schema1(load_document(qfile))
    doc["m"]["mat"][0][0] = entry
    dump_document(doc, qfile)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-qsystem", qfile])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_shape_error(tmp_path, capsys):
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = to_schema1(load_document(qfile))
    doc["m"]["mat"] = doc["m"]["mat"][:-1]  # drop a row: malformed matrix
    dump_document(doc, qfile)
    code, _ = run(capsys, "check-qsystem", qfile)
    assert code == 2
    # well-formed two-cells that do not assemble into a Q-system
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = load_document(qfile)
    doc["m"] = doc["i"]  # multiplication with the unit's shape
    dump_document(doc, qfile)
    code, _ = run(capsys, "check-qsystem", qfile)
    assert code == 3


def _one_error_line(argv, capsys) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return code


@pytest.mark.parametrize("delta", [3e-6, 1e-4])
def test_exit_code_constant_not_a_qsystem(tmp_path, capsys, delta):
    # the construction's own check of the End(F) Q-system (at 100 tol)
    # rejects a constant file whose m is off
    cfile = str(tmp_path / "cc.json")
    run(capsys, "gen", "--kind", "constant", "--seed", "12", "--out", cfile)
    doc = to_schema2(load_document(cfile))
    doc["qsystem"]["m"]["entries"][0] += delta
    dump_document(doc, cfile)
    code = main(["verify-fun", cfile])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: End(F) Q-system fails qsystem[")


@pytest.mark.parametrize("mutate", [
    lambda e: e.pop(),
    lambda e: e.extend([0.0, 0.0, 0.0]),
    lambda e: e.__setitem__(0, float("nan")),
    lambda e: e.__setitem__(1, float("inf")),
    lambda e: e.__setitem__(0, "0.5"),
    lambda e: e.__setitem__(0, True),
    lambda e: e.__setitem__(0, None),
    lambda e: e.__setitem__(0, [0.5, 0.0]),
    lambda e: e.__setitem__(0, 10**400),
], ids=["short", "long", "nan", "inf", "string", "bool", "null", "pair", "huge"])
def test_exit_code_bad_entries(tmp_path, capsys, mutate):
    # schema 2: a wrong count or an entry that is not a finite number
    # is a parse error
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = to_schema2(load_document(qfile))
    mutate(doc["m"]["entries"])
    dump_document(doc, qfile)
    assert _one_error_line(["check-qsystem", qfile], capsys) == 2


@pytest.mark.parametrize("keys", ["neither", "both", "not_a_list"])
def test_exit_code_two_cell_needs_mat_or_entries(tmp_path, capsys, keys):
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = load_document(qfile)
    if keys == "neither":
        del doc["i"]["entries"]
    elif keys == "both":
        doc["i"]["mat"] = to_schema1(doc)["i"]["mat"]
    else:
        doc["i"]["entries"] = {"re": 1.0}
    dump_document(doc, qfile)
    assert _one_error_line(["check-qsystem", qfile], capsys) == 2


def _padded_cell(doc):
    """The first two-cell of ``doc`` whose base64 ``entries`` ends in padding."""
    stack = [doc]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            if isinstance(x.get("entries"), str) and x["entries"].endswith("="):
                return x
            stack.extend(reversed(x.values()))
        elif isinstance(x, list):
            stack.extend(reversed(x))
    raise AssertionError("no padded two-cell")


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _first_set(raw: bytes, value: float) -> str:
    return _b64(struct.pack("<d", value) + raw[8:])


@pytest.mark.parametrize("mutate", [
    lambda s: "*" + s[1:],
    lambda s: "\u00e9" + s[1:],
    lambda s: s.rstrip("="),
    lambda s: _b64(base64.b64decode(s)[:-8]),
    lambda s: _b64(base64.b64decode(s) + bytes(16)),
    lambda s: _first_set(base64.b64decode(s), float("nan")),
    lambda s: _first_set(base64.b64decode(s), float("inf")),
    lambda s: 1.5,
    lambda s: {"entries": s},
], ids=["alphabet", "non_ascii", "no_padding", "short", "long", "nan", "inf",
        "number", "object"])
@pytest.mark.parametrize("command, kind", [("check-qsystem", "qsystem"),
                                           ("verify-fun", "scenario"),
                                           ("verify-fun", "constant")])
def test_exit_code_bad_base64_entries(tmp_path, capsys, mutate, command, kind):
    # schema 3: entries that are not base64 of the right number of
    # finite float64 values are a parse error
    path = str(tmp_path / "f.json")
    run(capsys, "gen", "--kind", kind, "--seed", "2", "--out", path)
    doc = load_document(path)
    assert doc["schema"] == 3
    cell = _padded_cell(doc)
    cell["entries"] = mutate(cell["entries"])
    dump_document(doc, path)
    assert _one_error_line([command, path], capsys) == 2


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"schema":1}',
    b'{"schema": 2, "kind": "qsystem", "cell": ' + b"[" * 200_000,
], ids=["not_utf8", "too_deep"])
def test_exit_code_undecodable_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert _one_error_line(["check-qsystem", str(bad)], capsys) == 2


def test_split_command_checks_iso_once(tmp_path, capsys, monkeypatch):
    calls = []
    check_iso = qsystem.check_qsystem_iso

    def counted(*args, **kwargs):
        calls.append(args)
        return check_iso(*args, **kwargs)

    for module in (qsystem, splitting):
        monkeypatch.setattr(module, "check_qsystem_iso", counted)
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "5", "--out", qfile)
    code, _ = run(capsys, "split-qsystem", qfile, "--seed", "1")
    assert code == 0
    assert len(calls) == 1


def test_gen_deterministic_bytes(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run(capsys, "gen", "--kind", "scenario", "--seed", "21", "--out", a)
    run(capsys, "gen", "--kind", "scenario", "--seed", "21", "--out", b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_reports_deterministic_bytes(tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    run(capsys, "gen", "--kind", "scenario", "--seed", "31", "--out", sc)
    _, out1 = run(capsys, "verify-fun", sc, "--seed", "7", "--json")
    _, out2 = run(capsys, "verify-fun", sc, "--seed", "7", "--json")
    assert out1 == out2
    qf = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "31", "--out", qf)
    _, s1 = run(capsys, "split-qsystem", qf, "--seed", "3", "--json")
    _, s2 = run(capsys, "split-qsystem", qf, "--seed", "3", "--json")
    assert s1 == s2


def _outputs(argv, capsys):
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_command(tmp_path, capsys):
    # each command prints what it prints with a parser of its own, also
    # after commands with other flags
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    argvs = [["check-qsystem", qfile, "--json"], ["check-qsystem", qfile],
             ["split-qsystem", qfile, "--seed", "2", "--tol", "1e-12"],
             ["split-qsystem", qfile], ["check-qsystem", qfile, "--tol", "1e-30"],
             ["check-qsystem", qfile], ["check-qsystem", qfile, "--tol", "-1"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(_outputs(argv, capsys))
    cli.build_parser.cache_clear()
    assert [_outputs(argv, capsys) for argv in argvs] == fresh
    assert cli.build_parser.cache_info().misses == 2   # check-qsystem, split-qsystem
    assert [code for code, *_ in fresh] == [0, 0, 0, 0, 1, 0, 2]


PARSER_ARGVS = [[], ["-h"], ["--help"], ["bogus"],
                *([c, "--help"] for c in cli.COMMANDS), *([c] for c in cli.COMMANDS),
                *([c, "q.json", "--bogus"] for c in cli.COMMANDS),
                ["gen", "--kind", "nope"], ["check-qsystem", "q.json", "--tol", "-1"],
                ["split-qsystem", "q.json", "--seed", "-1"]]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_parser_paths_print_the_same_bytes(capsys, monkeypatch, argv):
    # main builds only the named command's subparser; help and every
    # usage error must read as they do with all four commands built
    monkeypatch.setenv("COLUMNS", "80")
    adds = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        adds.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cli.build_parser.cache_clear()
    got = _outputs(argv, capsys)
    assert len(adds) == (1 if argv and argv[0] in cli.COMMANDS else 4)
    every = cli.build_parser(None)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: every)
    assert got == _outputs(argv, capsys)
    assert got[0] == (0 if {"-h", "--help"} & set(argv) else 2)


def _check_sees_small_perturbation(tmp_path, capsys, perturb):
    # a 1e-6 change to one entry of m breaks associativity and the
    # Frobenius condition; the contracted tensor residuals must show it
    # as the composites of two-cells do
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = perturb(load_document(qfile))
    dump_document(doc, qfile)
    q = qsystem_from_json(doc)
    Q, m = q.Q, q.m
    atol = 1e-9
    res = dict((n, v) for n, v, _, _ in check_qsystem(q).rows(atol))
    q1 = residual(vcomp(m, hcomp2(m, id2(Q))), vcomp(m, hcomp2(id2(Q), m)))
    mid = vcomp(dagger2(m), m)
    q3 = max(residual(vcomp(hcomp2(m, id2(Q)), hcomp2(id2(Q), dagger2(m))), mid),
             residual(vcomp(hcomp2(id2(Q), m), hcomp2(dagger2(m), id2(Q))), mid))
    assert res["Q1"] > 100 * atol and res["Q3"] > 100 * atol
    assert abs(res["Q1"] - q1) <= 1e-9 * q1
    assert abs(res["Q3"] - q3) <= 1e-9 * q3
    code, text = run(capsys, "check-qsystem", qfile, "--json")
    assert code == 1
    verdicts = {c["name"]: c["pass"] for c in json.loads(text)["checks"]}
    assert verdicts["Q1"] is False and verdicts["Q3"] is False
    return q.m.mat


def _perturb_mat(doc):
    doc = to_schema1(doc)
    doc["m"]["mat"][1][2][0] += 1e-6
    return doc


def _perturb_entries(doc):
    # the same entry, (1, 2), at its place in the on-sector order
    doc = to_schema2(doc)
    f = two_cell_from_json(doc["m"])
    mask = sector_mask(f.target, f.source)
    assert mask[1, 2]
    doc["m"]["entries"][2 * (mask[0].sum() + mask[1, :2].sum())] += 1e-6
    return doc


def test_check_qsystem_sees_small_perturbation(tmp_path, capsys):
    _check_sees_small_perturbation(tmp_path, capsys, _perturb_mat)


def test_check_qsystem_sees_small_perturbation_schema2(tmp_path, capsys):
    m2 = _check_sees_small_perturbation(tmp_path, capsys, _perturb_entries)
    m1 = _check_sees_small_perturbation(tmp_path, capsys, _perturb_mat)
    assert np.array_equal(m1, m2)


def test_exit_code_qsystem_missing_keys(tmp_path, capsys):
    bad = tmp_path / "bare.json"
    bad.write_text('{"schema": 1, "kind": "qsystem"}')
    for command in ("check-qsystem", "split-qsystem"):
        code = main([command, str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: bad Q-system") and err.count("\n") == 1


def test_invalid_tolerance_is_usage_error(tmp_path, capsys):
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    for flags in (["--tol", "-1"], ["--tol", "0"], ["--gap-tol", "-1"],
                  ["--tol", "1e-3", "--gap-tol", "1e-6"],
                  ["--tol", "inf", "--gap-tol", "inf"], ["--gap-tol", "inf"]):
        with pytest.raises(SystemExit) as exc:
            main(["check-qsystem", qfile, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: need 0 < --tol <= --gap-tol" in err
        assert "Traceback" not in err


def _first(table):
    return next(iter(table))


@pytest.mark.parametrize("mutate", [
    lambda d: d["functor"]["on0"].update({_first(d["functor"]["on0"]): "x"}),
    lambda d: d["functor"]["on0"].update({_first(d["functor"]["on0"]): 2.0}),
    lambda d: d["functor"]["on0"].update({_first(d["functor"]["on0"]): True}),
    lambda d: d["functor"]["on0"].pop(_first(d["functor"]["on0"])),
    lambda d: d["functor"]["on1"].pop(_first(d["functor"]["on1"])),
    lambda d: d["functor"]["on2"].clear(),
    lambda d: d["qsystem"]["psi0"].pop(_first(d["qsystem"]["psi0"])),
    lambda d: d["qsystem"]["psi1"].clear(),
    lambda d: d["qsystem"]["m"].pop(_first(d["qsystem"]["m"])),
    lambda d: d["qsystem"]["i"].pop(_first(d["qsystem"]["i"])),
], ids=["on0_not_integer", "on0_float", "on0_bool", "on0_missing", "on1_missing",
        "on2_empty", "psi0_missing", "psi1_empty", "m_missing", "i_missing"])
def test_exit_code_incomplete_scenario(tmp_path, capsys, mutate):
    sc = str(tmp_path / "sc.json")
    run(capsys, "gen", "--kind", "scenario", "--seed", "1", "--out", sc)
    doc = load_document(sc)
    mutate(doc)
    dump_document(doc, sc)
    code = main(["verify-fun", sc])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad scenario") and err.count("\n") == 1
    assert "Traceback" not in err


def test_python_m_qhilb_reads_the_command_from_sys_argv(tmp_path, capsys, monkeypatch):
    # the console script and python -m call main() without argv, so the
    # parser is chosen from sys.argv
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    for argv in (["--help"], ["check-qsystem", qfile, "--json"],
                 ["split-qsystem", qfile, "--bogus"]):
        proc = subprocess.run([sys.executable, "-m", "qhilb", *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == _outputs(argv, capsys)


def test_python_m_qhilb(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    qfile = str(tmp_path / "q.json")
    for argv in (["gen", "--kind", "qsystem", "--seed", "3", "--out", qfile],
                 ["check-qsystem", qfile]):
        proc = subprocess.run([sys.executable, "-m", "qhilb", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def _off_sector_entry(cell: dict) -> tuple[int, int]:
    """First (row, col) of a two-cell's matrix whose row and column lie
    in different grading sectors."""
    f = two_cell_from_json(cell)
    return next((r, c) for r in range(f.target.dim) for c in range(f.source.dim)
                if f.target.grading[r] != f.source.grading[c])


@pytest.mark.parametrize("command", ["check-qsystem", "split-qsystem"])
@pytest.mark.parametrize("cell", ["m", "i"])
def test_exit_code_off_sector_entry(tmp_path, capsys, command, cell):
    # the sector-blocked axiom check needs m and i to vanish off their
    # sectors: one stray entry is a shape error, not a smaller residual
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "8", "--out", qfile)
    doc = to_schema1(load_document(qfile))
    r, c = _off_sector_entry(doc[cell])
    doc[cell]["mat"][r][c] = [0.5, 0.0]
    dump_document(doc, qfile)
    code = main([command, qfile])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: {cell} has a nonzero entry off its grading sectors\n"


def test_exit_code_off_sector_entry_scenario(tmp_path, capsys):
    sc = str(tmp_path / "sc.json")
    run(capsys, "gen", "--kind", "scenario", "--seed", "1", "--out", sc)
    doc = to_schema1(load_document(sc))
    cell = doc["qsystem"]["m"][_first(doc["qsystem"]["m"])]
    r, c = _off_sector_entry(cell)
    cell["mat"][r][c] = [0.0, 1e-3]
    dump_document(doc, sc)
    code = main(["verify-fun", sc])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "error: m has a nonzero entry off its grading sectors\n"


@pytest.mark.parametrize("field", ["src", "tgt", "grading"])
@pytest.mark.parametrize("value", [2.9, 2.0, True], ids=["2.9", "2.0", "true"])
def test_exit_code_non_integer_field(tmp_path, capsys, field, value):
    # zero-cells and grading indices are JSON integers: 2.9 was read as
    # zero-cell 2 and passed, 2.0 and true were accepted as 2 and 1
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--size", "8", "--seed", "3", "--out", qfile)
    doc = load_document(qfile)
    assert doc["cell"]["src"] == 2
    for cell in (doc["cell"], doc["m"]["source"], doc["m"]["target"],
                 doc["i"]["source"], doc["i"]["target"]):
        if field == "grading":
            cell["grading"][0][0] = value
        else:
            cell[field] = value
    dump_document(doc, qfile)
    code = main(["check-qsystem", qfile])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad one-cell: expected an integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("schema", [True, 1.0, 2.0], ids=["true", "1.0", "2.0"])
def test_exit_code_non_integer_schema(tmp_path, capsys, schema):
    # the schema is a JSON integer: true, 1.0 and 2.0 passed as 1, 1 and 2
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = load_document(qfile)
    doc["schema"] = schema
    dump_document(doc, qfile)
    code = main(["check-qsystem", qfile])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {qfile}: missing or unsupported schema\n"


@pytest.mark.parametrize("value", ["0.5", True, None, [0.5]],
                         ids=["string", "true", "null", "list"])
def test_exit_code_schema1_entry_not_a_number(tmp_path, capsys, value):
    # np.array(rows, dtype=float) read "0.5" as 0.5 and true as 1.0
    qfile = str(tmp_path / "q.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    doc = to_schema1(load_document(qfile))
    doc["m"]["mat"][0][0][0] = value
    dump_document(doc, qfile)
    code = main(["check-qsystem", qfile])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: matrix entries must be [re, im] number pairs")
    assert err.count("\n") == 1


def test_gen_size_applies_to_qsystem_only(tmp_path, capsys):
    # --size is read by --kind qsystem alone, so only there is it bounded
    files = {size: tmp_path / f"sc{size}.json" for size in ("3", "100")}
    for size, path in files.items():
        assert main(["gen", "--kind", "scenario", "--size", size, "--seed", "4",
                     "--out", str(path)]) == 0
    assert files["3"].read_bytes() == files["100"].read_bytes()
    code = main(["gen", "--kind", "qsystem", "--size", "65", "--out", str(tmp_path / "q.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: --size must be at most 64\n"
    for size in ("0", "-3"):
        code = main(["gen", "--kind", "qsystem", "--size", size, "--out", str(tmp_path / "q.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: --size must be at least 1\n"
    assert not (tmp_path / "q.json").exists()


def test_split_zero_dimensional_qsystem_is_shape_error(tmp_path, capsys):
    # it passes the axiom check, but its split needs a zero-cell of size 0
    Q = one_cell(2, 2, [])
    q = QSystemData(Q, two_cell(hcomp1(Q, Q), Q, np.zeros((0, 0))),
                    two_cell(id1(Q.src), Q, np.zeros((0, 2))))
    qfile = str(tmp_path / "q.json")
    dump_document(qsystem_to_json(q), qfile)
    assert run(capsys, "check-qsystem", qfile)[0] == 0
    assert main(["split-qsystem", qfile]) == 3
    assert capsys.readouterr().err == ("error: cannot split a zero-dimensional Q-system: "
                                       "it would need a zero-cell of size 0\n")


@pytest.mark.parametrize("command", ["gen", "split-qsystem", "verify-fun"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    files = {"gen": [], "split-qsystem": ["qsystem"], "verify-fun": ["scenario"]}
    argv = [command, "--kind", "qsystem"] if command == "gen" else [command]
    for kind in files[command]:
        path = str(tmp_path / f"{kind}.json")
        run(capsys, "gen", "--kind", kind, "--seed", "3", "--out", path)
        argv.append(path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: --seed must be non-negative, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "split-qsystem"])
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "out.json" if target == "missing_directory" else tmp_path
    argv = ["gen", "--kind", "qsystem"]
    if command == "split-qsystem":
        qfile = str(tmp_path / "q.json")
        run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
        argv = ["split-qsystem", qfile]
    assert _one_error_line([*argv, "--out", str(out)], capsys) == 2
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("kind", ["scenario", "constant"])
@pytest.mark.parametrize("relation", [
    ["a", "b", "c"],
    [{"gen": "f1"}],
    [{"vcomp": []}, {"vcomp": []}],
    [{"hcomp": []}, {"hcomp": []}],
], ids=["three_items", "one_item", "empty_vcomp", "empty_hcomp"])
def test_exit_code_bad_relation(tmp_path, capsys, kind, relation):
    path = str(tmp_path / f"{kind}.json")
    run(capsys, "gen", "--kind", kind, "--seed", "1", "--out", path)
    doc = load_document(path)
    doc["presentation"]["relations"] = [relation]
    dump_document(doc, path)
    assert _one_error_line(["verify-fun", path], capsys) == 2


@pytest.mark.parametrize("cells", ["zero_cells", "gen_one_cells", "gen_two_cells"])
@pytest.mark.parametrize("label", [1, None, True, [1]], ids=["number", "null", "true", "list"])
def test_exit_code_non_string_label(tmp_path, capsys, cells, label):
    # labels are JSON strings: each of these ended verify-fun in a
    # traceback, in exit 3 or in a pass
    path = str(tmp_path / "constant.json")
    run(capsys, "gen", "--kind", "constant", "--seed", "1", "--out", path)
    doc = load_document(path)
    pres = doc["presentation"]
    gen = pres["gen_one_cells"][0]
    edge = {"labels": [gen["label"]], "src": gen["src"]}
    pres["gen_two_cells"] = [{"label": "f1", "source": edge, "target": edge}]
    if cells == "zero_cells":
        pres["zero_cells"].append(label)
    else:
        pres[cells][0]["label"] = label
    dump_document(doc, path)
    code = main(["verify-fun", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: bad presentation: label {label!r} is not a string\n"


@pytest.mark.parametrize("kind, command, mutate, error", [
    ("scenario", "verify-fun", lambda d: d["presentation"].update(zero_cells="ab"),
     "bad presentation: zero_cells must be a list, got str"),
    ("constant", "verify-fun", lambda d: d["presentation"].update(zero_cells="ab"),
     "bad presentation: zero_cells must be a list, got str"),
    ("scenario", "verify-fun",
     lambda d: d["presentation"]["gen_two_cells"][0]["source"].update(labels="X1"),
     "bad presentation: labels must be a list, got str"),
    ("qsystem", "check-qsystem", lambda d: d["cell"].update(grading={"a": 1}),
     "bad one-cell: grading must be a list, got dict"),
    ("qsystem", "check-qsystem", lambda d: d["cell"].update(grading="ab"),
     "bad one-cell: grading must be a list, got str"),
    ("scenario", "verify-fun",
     lambda d: _first(d["functor"]["on1"].values()).update(grading={"a": 1}),
     "bad one-cell: grading must be a list, got dict"),
    ("qsystem", "check-qsystem", lambda d: d["cell"]["grading"].__setitem__(0, "12"),
     "bad one-cell: grading entry must be a list, got str"),
    ("qsystem", "check-qsystem", lambda d: d["cell"]["grading"].__setitem__(0, "11"),
     "bad one-cell: grading entry must be a list, got str"),
    ("qsystem", "check-qsystem",
     lambda d: d["cell"]["grading"].__setitem__(0, {"1": 0, "2": 0}),
     "bad one-cell: grading entry must be a list, got dict"),
], ids=["scenario_zero_cells", "constant_zero_cells", "path_labels",
        "grading_object", "grading_string", "functor_grading_object",
        "grading_entry_string", "grading_entry_diagonal_string", "grading_entry_object"])
def test_exit_code_field_not_a_list(tmp_path, capsys, kind, command, mutate, error):
    # a string was split into its characters: zero_cells "ab" passed
    # verify-fun as ["a", "b"], labels "X1" ended in exit 3 with unknown
    # generator X, and a grading object was read as its keys; a grading
    # entry "12" or {"1": 0, "2": 0} was read the same way and refused
    # for holding '1', a value the file does not hold
    path = str(tmp_path / f"{kind}.json")
    run(capsys, "gen", "--kind", kind, "--seed", "1", "--out", path)
    doc = load_document(path)
    mutate(doc)
    dump_document(doc, path)
    code = main([command, path, "--json"])
    assert (code, capsys.readouterr().err) == (2, f"error: {error}\n")


@pytest.mark.parametrize("kind, seed, mutate", [
    ("constant", 1, lambda pres: pres.update(zero_cells=[], gen_one_cells=[])),
    ("scenario", 3, lambda pres: pres.update(zero_cells=pres["zero_cells"] * 2)),
], ids=["empty", "repeated"])
def test_exit_code_empty_or_repeated_zero_cells(tmp_path, capsys, kind, seed, mutate):
    # both passed verify-fun: the empty presentation with no check at
    # all, the repeated labels after doing each zero-cell's work twice
    path = str(tmp_path / f"{kind}.json")
    run(capsys, "gen", "--kind", kind, "--seed", str(seed), "--out", path)
    doc = load_document(path)
    mutate(doc["presentation"])
    dump_document(doc, path)
    assert _one_error_line(["verify-fun", path], capsys) == 3


def test_exit_code_repeated_generator_two_cell(tmp_path, capsys):
    # passed verify-fun: the second f1 was never looked at
    path = str(tmp_path / "sc.json")
    run(capsys, "gen", "--kind", "scenario", "--seed", "1", "--out", path)
    doc = load_document(path)
    twos = doc["presentation"]["gen_two_cells"]
    assert [t["label"] for t in twos] == ["f1"]
    twos.append(twos[0])
    dump_document(doc, path)
    assert _one_error_line(["verify-fun", path], capsys) == 3


@pytest.mark.parametrize("size", [10 ** 12, 10 ** 30], ids=["1e12", "1e30"])
@pytest.mark.parametrize("command, error", [
    ("check-qsystem", "unit must map unit -> Q"),
    ("verify-fun", "image of f1 has wrong cells"),
], ids=["qsystem", "scenario"])
def test_exit_code_declared_zero_cell_size(tmp_path, capsys, monkeypatch,
                                           size, command, error):
    # one-pair cells over a zero-cell declared huge: the unit of the
    # Q-system, and the image of a generator two-cell between empty
    # paths, list a source of dimension 1, not id1 of that size.  Building
    # id1 of the declared size ran out of memory, so id1 is patched to
    # refuse it; at 10**30 the sector keys overflowed before that.
    def listed_id1(n):
        assert getattr(n, "n", n) <= 64, "id1 of a size no cell lists"
        return id1(n)

    for module in (qsystem, funcat):
        monkeypatch.setattr(module, "id1", listed_id1)
    cell = {"src": size, "tgt": size, "grading": [[1, 1]]}
    one = {"source": cell, "target": cell,
           "entries": base64.b64encode(struct.pack("<2d", 1.0, 0.0)).decode()}
    if command == "check-qsystem":
        doc = {"schema": 3, "kind": "qsystem", "cell": cell, "m": one, "i": one}
    else:
        empty = {"labels": [], "src": "a"}
        doc = {"schema": 3, "kind": "scenario",
               "presentation": {"zero_cells": ["a"], "gen_one_cells": [],
                                "gen_two_cells": [{"label": "f1", "source": empty,
                                                   "target": empty}]},
               "functor": {"on0": {"a": size}, "on1": {}, "on2": {"f1": one}},
               "qsystem": {"psi0": {"a": cell}, "psi1": {},
                           "m": {"a": one}, "i": {"a": one}}}
    path = str(tmp_path / "big.json")
    dump_document(doc, path)
    assert main([command, path]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


def relabelled(doc):
    """The scenario ``doc`` with every zero-cell and generator renamed,
    the new names sorting in the reverse order of the old ones, and the
    generator one-cells listed in reverse."""
    pres, fd, qd = doc["presentation"], doc["functor"], doc["qsystem"]

    def names(labels, prefix):
        return {old: f"{prefix}{len(labels) - i}" for i, old in enumerate(labels)}

    zero = names(pres["zero_cells"], "z")
    gens = names([g["label"] for g in pres["gen_one_cells"]], "g")
    twos = names([t["label"] for t in pres["gen_two_cells"]], "t")

    def path(p):
        return {"labels": [gens[x] for x in p["labels"]], "src": zero[p["src"]]}

    def expr(e):
        (key, value), = e.items()
        if key == "gen":
            return {"gen": twos[value]}
        if key == "id":
            return {"id": path(value)}
        if key == "dagger":
            return {"dagger": expr(value)}
        return {key: [expr(x) for x in value]}

    def keyed(table, new):
        return {new[k]: v for k, v in table.items()}

    return {
        **doc,
        "presentation": {
            "zero_cells": [zero[a] for a in pres["zero_cells"]],
            "gen_one_cells": [{"label": gens[g["label"]], "src": zero[g["src"]],
                               "tgt": zero[g["tgt"]]}
                              for g in reversed(pres["gen_one_cells"])],
            "gen_two_cells": [{"label": twos[t["label"]], "source": path(t["source"]),
                               "target": path(t["target"])}
                              for t in pres["gen_two_cells"]],
            "relations": [[expr(lhs), expr(rhs)] for lhs, rhs in pres["relations"]],
        },
        "functor": {"on0": keyed(fd["on0"], zero), "on1": keyed(fd["on1"], gens),
                    "on2": keyed(fd["on2"], twos)},
        "qsystem": {"psi0": keyed(qd["psi0"], zero), "psi1": keyed(qd["psi1"], gens),
                    "m": keyed(qd["m"], zero), "i": keyed(qd["i"], zero)},
    }


@pytest.mark.parametrize("seed", range(10))
def test_verify_fun_is_invariant_under_relabelling(tmp_path, capsys, seed):
    # the construction is natural in the presentation: names and the order
    # of the generators must not change the verdict, the checks made or G
    files = [str(tmp_path / "sc.json"), str(tmp_path / "relabelled.json")]
    run(capsys, "gen", "--kind", "scenario", "--seed", str(seed), "--out", files[0])
    dump_document(relabelled(load_document(files[0])), files[1])
    seen = []
    for path in files:
        code, out = run(capsys, "verify-fun", path, "--seed", "1", "--json")
        report = json.loads(out)
        seen.append((code, report["pass"], len(report["checks"]),
                     sorted(report["G_zero_cells"].values())))
    assert seen[0] == seen[1]
    assert seen[0][:2] == (0, True)


def _split_after_the_check(q, tol=Tolerance()):
    """``split_qsystem`` in its former order: the full check of ``q`` as
    the gate, then the split."""
    rep = check_qsystem(q)
    if not rep.passes(10 * tol.atol):
        name, value = rep.worst()
        raise InvalidQSystem(f"axiom {name} fails with residual {value:.3e}")
    return splitting._split(q, tol)


def _captured(argv):
    """Exit code, or the exception that escaped ``main``, stdout and
    stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:   # such as a warning raised as an error
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _near_identity_unitary(rng, Q, delta):
    """``exp(i delta h)`` for a random sector hermitian ``h``."""
    h = random_sector_matrix(rng, Q, Q).mat
    w, e = np.linalg.eigh(h + h.conj().T)
    v = (e * np.exp(1j * delta * w)) @ e.conj().T
    return two_cell(Q, Q, np.where(sector_mask(Q, Q), v, 0))


def _perturbed(q, kind, delta, rng):
    """``q`` with ``m`` or ``i`` scaled by ``1 + delta``, with ``m``
    alone conjugated by a sector unitary ``delta`` from the identity, or
    with one sector entry of ``m`` or ``i`` set to ``1e150``, finite but
    past the square root of the largest float."""
    m, i = q.m, q.i
    if kind == "m":
        m = two_cell(m.source, m.target, m.mat * (1 + delta))
    elif kind == "i":
        i = two_cell(i.source, i.target, i.mat * (1 + delta))
    elif kind == "unitary":
        v = _near_identity_unitary(rng, q.Q, delta)
        m = vcomp(v, vcomp(m, hcomp2(dagger2(v), dagger2(v))))
    else:
        f = m if kind == "huge m" else i
        mat = f.mat.copy()
        places = np.argwhere(sector_mask(f.target, f.source))
        mat[tuple(places[rng.integers(len(places))])] = 1e150
        f = two_cell(f.source, f.target, mat)
        m, i = (f, i) if kind == "huge m" else (m, f)
    return QSystemData(q.Q, m, i)


@given(st.integers(0, 39), st.sampled_from(["m", "i", "unitary", "huge m", "huge i"]),
       st.integers(-14, -1), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_split_decides_as_the_split_after_the_check(tmp_path_factory, seed, kind, exponent,
                                                     as_json):
    # split-qsystem now splits first and runs the full check only when the
    # split's own bounds do not certify the gate; every exit code, report
    # and error line must be those of the former order, and a warning the
    # split makes on input that fails the gate must not escape
    path = str(tmp_path_factory.mktemp("gate") / "q.json")
    _captured(["gen", "--kind", "qsystem", "--size", str(seed + 20), "--seed", str(seed),
               "--out", path])
    q = qsystem_from_json(load_document(path))
    q = _perturbed(q, kind, 10.0 ** exponent, np.random.default_rng(seed))
    dump_document(qsystem_to_json(q), path)
    argv = ["split-qsystem", path, "--seed", str(seed)] + ["--json"] * as_json
    with mock.patch.object(cli, "split_qsystem", _split_after_the_check):
        want = _captured(argv)
    assert _captured(argv) == want


def test_split_qsystem_checks_only_a_file_that_its_bounds_do_not_certify(tmp_path, capsys,
                                                                          monkeypatch):
    calls = []
    check = qsystem.check_qsystem

    def counted(q):
        calls.append(q)
        return check(q)

    monkeypatch.setattr(qsystem, "check_qsystem", counted)
    qfile = str(tmp_path / "q.json")
    for seed in range(40):
        run(capsys, "gen", "--kind", "qsystem", "--size", str(seed + 20), "--seed", str(seed),
            "--out", qfile)
        assert run(capsys, "split-qsystem", qfile, "--seed", str(seed))[0] == 0
    assert calls == []
    q = qsystem_from_json(load_document(qfile))
    bad = _perturbed(q, "m", 1e-3, None)
    dump_document(qsystem_to_json(bad), qfile)
    name, value = check(bad).worst()
    assert _one_error_line(["split-qsystem", qfile], capsys) == 1
    assert len(calls) == 1
    assert main(["split-qsystem", qfile]) == 1
    assert capsys.readouterr().err == f"error: axiom {name} fails with residual {value:.3e}\n"


def test_a_huge_finite_entry_fails_with_at_most_one_error_line(tmp_path, capsys):
    # one on-sector entry of m at 1e150 makes Q4's residual overflow to
    # inf; the overflow shows no warning, which warnings-as-errors would
    # turn into a traceback, only the report or the one error line
    qfile, scfile = str(tmp_path / "q.json"), str(tmp_path / "sc.json")
    run(capsys, "gen", "--kind", "qsystem", "--seed", "3", "--out", qfile)
    q = qsystem_from_json(load_document(qfile))
    dump_document(qsystem_to_json(_perturbed(q, "huge m", 0, np.random.default_rng(3))), qfile)
    run(capsys, "gen", "--kind", "scenario", "--seed", "1", "--out", scfile)
    cat, f, endf = scenario_from_json(load_document(scfile))
    a = cat.zero_cells[0]
    endf.m.comp[a] = _perturbed(endf.at(a), "huge m", 0, np.random.default_rng(1)).m
    dump_document(scenario_to_json(endf), scfile)

    for flags in ([], ["--json"]):
        assert main(["check-qsystem", qfile, *flags]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        if flags:   # JSON has no inf: the residual is null
            checks = {c["name"]: c["residual"] for c in _strict_json(out)["checks"]}
            assert checks["Q4"] is None
        else:
            assert "Q4  inf" in out
        assert _one_error_line(["split-qsystem", qfile, *flags], capsys) == 1
        assert _one_error_line(["verify-fun", scfile, *flags], capsys) == 1
    assert main(["split-qsystem", qfile]) == 1
    assert capsys.readouterr().err.endswith(" fails with residual inf\n")


def _strict_json(text):
    """``text`` parsed as JSON proper, which has no ``NaN`` or ``Infinity``."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _scaled(f, factor):
    return two_cell(f.source, f.target, f.mat * factor)


@pytest.mark.parametrize("action", ["error", "always"])
def test_a_multiplication_huge_everywhere_fails_with_at_most_one_error_line(tmp_path, action):
    # every entry of m at 1e160 times its value: the products of the
    # check and the split overflow to inf and nan all through; shown or
    # raised as errors, no warning escapes, stderr holds at most the one
    # error line and a --json report is JSON, with null for inf and nan
    qfile, scfile = str(tmp_path / "q.json"), str(tmp_path / "sc.json")
    _captured(["gen", "--kind", "qsystem", "--seed", "3", "--out", qfile])
    q = qsystem_from_json(load_document(qfile))
    dump_document(qsystem_to_json(QSystemData(q.Q, _scaled(q.m, 1e160), q.i)), qfile)
    _captured(["gen", "--kind", "scenario", "--seed", "1", "--out", scfile])
    _, _, endf = scenario_from_json(load_document(scfile))
    for a in endf.m.comp:
        endf.m.comp[a] = _scaled(endf.m[a], 1e160)
    dump_document(scenario_to_json(endf), scfile)

    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        for flags in ([], ["--json"]):
            code, out, err = _captured(["check-qsystem", qfile, *flags])
            assert (code, err) == (1, "")
            if flags:
                residuals = [c["residual"] for c in _strict_json(out)["checks"]]
                assert None in residuals
            for argv in (["split-qsystem", qfile, *flags], ["verify-fun", scfile, *flags]):
                code, out, err = _captured(argv)
                assert (code, out) == (1, "")
                assert err.startswith("error: ") and err.count("\n") == 1, err
    assert shown == []


@pytest.mark.parametrize("kind", ["qsystem", "scenario", "constant"])
def test_split_and_verify_outputs_do_not_depend_on_the_seed(tmp_path, capsys, kind):
    # split-qsystem and verify-fun accept --seed, but the split draws no
    # random numbers: reports and written files keep every byte
    path = str(tmp_path / "in.json")
    run(capsys, "gen", "--kind", kind, "--seed", "5", "--out", path)
    seen = []
    for seed in ("0", "1", str(2 ** 31 - 1)):
        outputs = []
        if kind == "qsystem":
            for flags in ([], ["--json"]):
                out = tmp_path / f"split-{seed}{''.join(flags)}.json"
                outputs += run(capsys, "split-qsystem", path, "--seed", seed, "--out", str(out),
                               *flags)
                outputs.append(out.read_bytes())
        else:
            outputs += run(capsys, "verify-fun", path, "--seed", seed, "--json")
        assert outputs[0] == 0
        seen.append(outputs)
    assert seen[0] == seen[1] == seen[2]


def test_concurrent_calls_give_the_serial_results(tmp_path):
    # four threads share the same inputs; each split and each report row
    # matches a serial run's, byte for byte, and the warnings module's
    # hooks, which every thread shares, are left as they were
    paths = [str(tmp_path / f"q{s}.json") for s in range(8)] + [str(tmp_path / "sc.json")]
    for s, path in enumerate(paths[:8]):
        _captured(["gen", "--kind", "qsystem", "--size", "40", "--seed", str(s), "--out", path])
    _captured(["gen", "--kind", "scenario", "--seed", "1", "--out", paths[8]])
    qs = [qsystem_from_json(load_document(path)) for path in paths[:8]]
    _, _, endf = scenario_from_json(load_document(paths[8]))

    def outcome():
        splits = [splitting.split_qsystem(q) for q in qs]
        report = funcat.verify_main_theorem(endf)
        return ([(r.k.n, sorted(np.bincount(r.pair.X.cols)[1:].tolist()), r.gamma.mat.tobytes())
                 for r in splits], list(report.rows(1e-7)))

    want = outcome()
    hook = warnings._showwarnmsg_impl
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(outcome) for _ in range(12)]
            got = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert warnings._showwarnmsg_impl is hook
    assert len(got) == 12 and all(g == want for g in got)
