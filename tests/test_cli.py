import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qhilb import qsystem, splitting
from qhilb.cells import dagger2, hcomp2, id2, residual, sector_mask, vcomp
from qhilb.cli import main
from qhilb.generate import product_scenario, random_qsystem
from qhilb.qsystem import check_qsystem
from qhilb.serialize import (
    dump_document,
    load_document,
    qsystem_from_json,
    qsystem_to_json,
    scenario_from_json,
    scenario_to_json,
    two_cell_from_json,
)
from schema1 import to_schema1


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
    dump_document(scenario_to_json(cat, f, endf), str(path))
    cat2, f2, endf2 = scenario_from_json(load_document(str(path)))
    assert cat2.zero_cells == cat.zero_cells
    from qhilb.funcat import check_endf_qsystem
    assert check_endf_qsystem(cat2, f2, endf2).max_residual < 1e-9


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
    doc = load_document(qfile)
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
    doc = load_document(cfile)
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
    doc = load_document(qfile)
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
                  ["--tol", "1e-3", "--gap-tol", "1e-6"]):
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
    lambda d: d["qsystem"]["psi0"].pop(_first(d["qsystem"]["psi0"])),
    lambda d: d["qsystem"]["psi1"].clear(),
    lambda d: d["qsystem"]["m"].pop(_first(d["qsystem"]["m"])),
    lambda d: d["qsystem"]["i"].pop(_first(d["qsystem"]["i"])),
], ids=["on0_not_integer", "on0_float", "on0_bool", "on0_missing", "on1_missing",
        "psi0_missing", "psi1_empty", "m_missing", "i_missing"])
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
