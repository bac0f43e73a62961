import importlib.util
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


def _outdir(path):
    os.makedirs(path / "runs")
    os.makedirs(path / "files")
    for ext, text in (("code", "0\n"), ("stdout", "x.json\n"), ("stderr", "")):
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
