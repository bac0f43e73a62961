import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_outputs.py")


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "runs", lambda: iter([("gen-x", ["gen"])]))
    return module


def _outdir(path, stdout="x.json\n"):
    os.makedirs(path / "runs")
    os.makedirs(path / "files")
    for ext, text in (("code", "0\n"), ("stdout", stdout), ("stderr", "")):
        (path / "runs" / f"gen-x.{ext}").write_text(text)
    return str(path)


def test_compare_same_outdirs(tmp_path, tool, capsys):
    assert tool.compare(_outdir(tmp_path / "old"), _outdir(tmp_path / "new")) == 0
    assert "0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["old", "new"])
@pytest.mark.parametrize("ext", ["code", "stdout", "stderr"])
def test_compare_reports_a_missing_run_file(tmp_path, tool, capsys, side, ext):
    # a missing file stopped --compare with a FileNotFoundError traceback
    dirs = {name: _outdir(tmp_path / name) for name in ("old", "new")}
    os.remove(os.path.join(dirs[side], "runs", f"gen-x.{ext}"))
    assert tool.compare(dirs["old"], dirs["new"]) == 1
    out = capsys.readouterr().out
    assert f"MISMATCH gen-x.{ext} (missing in {dirs[side]})\n" in out
    assert "1 mismatches" in out


def _report(q1, q3):
    checks = [{"name": name, "pass": True, "residual": value, "threshold": 1e-9}
              for name, value in (("Q1", q1), ("Q3", q3))]
    return json.dumps({"checks": checks, "pass": True}) + "\n"


def test_compare_names_the_run_and_row_of_the_largest_change(tmp_path, tool, capsys):
    old = _outdir(tmp_path / "old", _report(1e-16, 2e-15))
    new = _outdir(tmp_path / "new", _report(2e-16, 5e-15))
    assert tool.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "gen: largest residual change 3.000e-15 (gen-x, row Q3)\n" in out
    assert "0 mismatches" in out


def test_compare_names_no_run_when_nothing_moved(tmp_path, tool, capsys):
    report = _report(1e-16, 2e-15)
    tool.compare(_outdir(tmp_path / "old", report), _outdir(tmp_path / "new", report))
    assert "gen: largest residual change 0.000e+00\n" in capsys.readouterr().out


def test_compare_counts_a_residual_moved_past_the_bound(tmp_path, tool, capsys):
    # 1e-12 is ten times the 1e-13 that a residual may move
    old = _outdir(tmp_path / "old", _report(1e-15, 2e-15))
    new = _outdir(tmp_path / "new", _report(1e-15, 2e-15 + 1e-12))
    assert tool.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "gen: largest residual change 1.000e-12 (gen-x, row Q3)\n" in out
    assert "MISMATCH gen-x.stdout (row Q3 moved 1.000e-12)\n" in out
    assert "1 mismatches" in out


def test_compare_counts_runs_without_a_command_as_qhilb(tmp_path, tool, monkeypatch, capsys):
    # a run with no arguments has no argv[0] to name its command
    monkeypatch.setattr(tool, "runs", lambda: iter([("gen-x", [])]))
    assert tool.compare(_outdir(tmp_path / "old"), _outdir(tmp_path / "new")) == 0
    assert "qhilb: largest residual change 0.000e+00\n" in capsys.readouterr().out



def test_compare_counts_a_written_split_that_differs_only_in_gamma(tmp_path, tool, capsys):
    # a split draws no random numbers, so gamma's entries must keep their
    # bytes too
    dirs = {name: _outdir(tmp_path / name) for name in ("old", "new")}
    for name, entries in (("old", "AAAA"), ("new", "AAAB")):
        doc = {"kind": "split_result", "schema": 2, "gamma": {"entries": entries}}
        with open(os.path.join(dirs[name], "files", "split.json"), "w") as fh:
            json.dump(doc, fh)
    assert tool.compare(dirs["old"], dirs["new"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH files/split.json\n" in out
    assert "1 mismatches" in out


@pytest.mark.parametrize("token", ["Infinity", "NaN"])
def test_compare_counts_a_json_report_that_is_not_json(tmp_path, tool, monkeypatch, capsys,
                                                       token):
    # json.loads reads NaN and Infinity, which are not JSON: a --json
    # report holding one is a mismatch even when both sides hold it
    monkeypatch.setattr(tool, "runs", lambda: iter([("gen-x", ["gen", "--json"])]))
    report = _report(1e-16, 2e-15).replace("2e-15", token)
    assert tool.compare(_outdir(tmp_path / "old", report), _outdir(tmp_path / "new", report)) == 1
    out = capsys.readouterr().out
    assert f"MISMATCH gen-x.stdout ({token} is not JSON)\n" in out
    assert "1 mismatches" in out


@pytest.mark.parametrize("old, new, count", [(None, None, 0), (None, 2e-15, 1),
                                             (float("nan"), float("nan"), 0),
                                             (2e-15, float("nan"), 1)])
def test_compare_matches_a_null_or_nan_residual_only_with_itself(tmp_path, tool, capsys,
                                                                  old, new, count):
    # a nan residual compares false with everything, itself included
    dirs = [_outdir(tmp_path / side, _report(1e-16, value))
            for side, value in (("old", old), ("new", new))]
    assert tool.compare(*dirs) == min(count, 1)
    assert f"{count} mismatches" in capsys.readouterr().out
