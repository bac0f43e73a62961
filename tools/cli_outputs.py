"""Record every output of a fixed set of CLI runs, for byte-identity checks.

Usage::

    python3 tools/cli_outputs.py TREE OUTDIR
    python3 tools/cli_outputs.py --compare OLD_OUTDIR NEW_OUTDIR

Imports ``qhilb`` from ``TREE/src`` and calls ``qhilb.cli.main``
in-process with ``OUTDIR`` as the working directory, so the file paths
that reports print are the same for every tree.  For each seed ``s`` in
0-39 it runs ``gen`` for a qsystem (``--size s+20``), a scenario and a
constant file, then ``check-qsystem`` and ``split-qsystem --seed s
--out`` on the qsystem file and ``verify-fun --seed s`` on the other
two, each as text and as ``--json``.  For seeds 0-9 it also writes
five inputs near ``split-qsystem``'s gate through the tree's own
serializer, the seed's qsystem with ``m`` scaled by ``1 + delta`` for
``delta`` in 1e-12, 1e-10, 1e-8 and 1e-3 and with ``i`` scaled by
``1 + 1e-6``, and runs ``split-qsystem --seed s --out`` on each, as
text and as ``--json``.  For those seeds but 0 and 5, whose second
round raises ``EmptyColumn`` in ``standard_dual``, it also writes a
second-round scenario through the tree's own API, the Q-system
``phi . phibar`` on End(G) of the split of the seed's scenario file,
with G written as the free functor on its generator images, and runs
``verify-fun`` on it, as text and as ``--json``.  Three inputs
overflow: seed 0's qsystem with one ``m`` entry set to 1e150 and with
every ``m`` entry scaled by 1e160, each through ``check-qsystem`` and
``split-qsystem``, and seed 1's scenario with every ``qsystem.m``
entry scaled by 1e160, through ``verify-fun``, as text and as
``--json``; they are written by rewriting the decoded ``entries`` of
the JSON files, so they read no ``qhilb`` API.  It also runs the
checkers on a copy of each of the six committed fixtures in
``TREE/tests/data`` (``split-qsystem`` and ``verify-fun`` once more
with ``--gap-tol 1e-8 --json``, below the default tolerance), and runs
that end in argparse's help or a usage error: no arguments, ``-h``,
``--help`` and an unknown command; each command with ``--help``, with
no arguments and with an unknown flag; ``gen --kind nope``,
``check-qsystem --tol -1`` and ``split-qsystem --seed -1``: 607 runs
in all.
``COLUMNS`` is set to 80, so argparse wraps its text the same way on
every terminal.

Each run leaves ``runs/<name>.code``, ``.stdout`` and ``.stderr``
(an uncaught exception is recorded as its type and message); files that
runs write go to ``files/``.  Two trees behave the same on these runs
exactly when ``diff -r`` of their two OUTDIRs is empty.

``--compare`` reads two such OUTDIRs for a change that may move
residuals by rounding, but nothing else.  It requires the same runs,
exit codes and stderr, and stdout that is the same once each residual
is masked (verdicts, row names, thresholds, ``k``, ``block_dims``,
``G_zero_cells``), the stdout of a ``--json`` run being JSON proper,
without ``NaN`` or ``Infinity``; written files, a ``split_result``'s ``gamma``
included, must be the same bytes.  A run file missing from either
OUTDIR is a mismatch, and so is a residual that moved by more than
``RESIDUAL_BOUND`` (1e-13); ``inf``, ``nan`` and ``null`` residuals
match only themselves.  It prints
the largest residual change per command (runs that name no command are
counted as ``qhilb``), with the run and the report row where it
occurred, and every mismatch, and exits 1 if there is one.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import sys

SEEDS = range(40)
GATE_SEEDS = range(10)
GATE_INPUTS = (("m", 1e-12), ("m", 1e-10), ("m", 1e-8), ("m", 1e-3), ("i", 1e-6))
GATE_SOURCES = {f"gen-qsystem-{s}": s for s in GATE_SEEDS}   # run -> seed it writes for
SECOND_ROUND_SEEDS = (1, 2, 3, 4, 6, 7, 8, 9)   # GATE_SEEDS but the EmptyColumn ones
SECOND_ROUND_SOURCES = {f"gen-scenario-{s}": s for s in SECOND_ROUND_SEEDS}
OVERFLOWS = {   # input -> (the gen run whose file it rewrites, commands run on it)
    "q-0-entry1e150": ("gen-qsystem-0", ("check-qsystem", "split-qsystem")),
    "q-0-m1e160": ("gen-qsystem-0", ("check-qsystem", "split-qsystem")),
    "sc-1-m1e160": ("gen-scenario-1", ("verify-fun",)),
}
COMMANDS = ("check-qsystem", "split-qsystem", "verify-fun", "gen")
RESIDUAL_BOUND = 1e-13   # the most a residual may move under --compare
FIXTURES = {
    "qsystem-schema1.json": ("check-qsystem", "split-qsystem"),
    "qsystem-schema2.json": ("check-qsystem", "split-qsystem"),
    "scenario-schema1.json": ("verify-fun",),
    "scenario-schema2.json": ("verify-fun",),
    "constant-schema1.json": ("verify-fun",),
    "constant-schema2.json": ("verify-fun",),
}


def runs():
    """``(name, argv)`` of every run, in order."""
    for s in SEEDS:
        seed = ["--seed", str(s)]
        q, sc, cc = f"files/q-{s}.json", f"files/sc-{s}.json", f"files/cc-{s}.json"
        yield f"gen-qsystem-{s}", ["gen", "--kind", "qsystem", "--size", str(s + 20),
                                   *seed, "--out", q]
        yield f"gen-scenario-{s}", ["gen", "--kind", "scenario", *seed, "--out", sc]
        yield f"gen-constant-{s}", ["gen", "--kind", "constant", *seed, "--out", cc]
        for fmt, flags in (("text", []), ("json", ["--json"])):
            yield f"check-qsystem-{s}-{fmt}", ["check-qsystem", q, *flags]
            yield f"split-qsystem-{s}-{fmt}", ["split-qsystem", q, *seed, "--out",
                                               f"files/split-{s}-{fmt}.json", *flags]
            for kind, path in (("scenario", sc), ("constant", cc)):
                yield f"verify-fun-{kind}-{s}-{fmt}", ["verify-fun", path, *seed, *flags]
        for tag in gate_tags(s) if s in GATE_SEEDS else []:
            for fmt, flags in (("text", []), ("json", ["--json"])):
                yield f"split-qsystem-{tag}-{fmt}", [
                    "split-qsystem", f"files/q-{tag}.json", *seed,
                    "--out", f"files/split-{tag}-{fmt}.json", *flags]
        for fmt, flags in (("text", []), ("json", ["--json"])) if s in SECOND_ROUND_SEEDS else ():
            yield f"verify-fun-second-round-{s}-{fmt}", ["verify-fun", f"files/sc2-{s}.json",
                                                         *flags]
    for tag, (_, commands) in OVERFLOWS.items():
        for command in commands:
            for fmt, flags in (("text", []), ("json", ["--json"])):
                yield f"{command}-{tag}-{fmt}", [command, f"files/{tag}.json", *flags]
    for name, commands in FIXTURES.items():
        for command in commands:
            for fmt, flags in (("text", []), ("json", ["--json"])):
                yield (f"{command}-{name[:-5]}-{fmt}",
                       [command, f"fixtures/{name}", *flags])
            if command != "check-qsystem":
                yield (f"{command}-{name[:-5]}-gap-tol",
                       [command, f"fixtures/{name}", "--gap-tol", "1e-8", "--json"])
    q = "fixtures/qsystem-schema2.json"
    yield "parser-no-arguments", []
    yield "parser-h", ["-h"]
    yield "parser-help", ["--help"]
    yield "parser-unknown-command", ["bogus"]
    for command in COMMANDS:
        yield f"parser-{command}-help", [command, "--help"]
        yield f"parser-{command}-no-arguments", [command]
        yield f"parser-{command}-unknown-flag", [command, q, "--bogus"]
    yield "parser-gen-bad-kind", ["gen", "--kind", "nope"]
    yield "parser-check-qsystem-bad-tol", ["check-qsystem", q, "--tol", "-1"]
    yield "parser-split-qsystem-bad-seed", ["split-qsystem", q, "--seed", "-1"]


def gate_tags(s: int) -> list[str]:
    """The names ``<s>-<cell><delta>`` of seed ``s``'s gate inputs."""
    return [f"{s}-{cell}{delta:g}" for cell, delta in GATE_INPUTS]


def write_gate_inputs(s: int) -> None:
    """Write seed ``s``'s gate inputs from its qsystem file with the
    serializer of the tree on ``sys.path``."""
    from qhilb.cells import BlockTwoCell
    from qhilb.qsystem import QSystemData
    from qhilb.serialize import dump_document, load_document, qsystem_from_json, qsystem_to_json

    q = qsystem_from_json(load_document(f"files/q-{s}.json"))
    for tag, (cell, delta) in zip(gate_tags(s), GATE_INPUTS):
        f = getattr(q, cell)
        cells = {"m": q.m, "i": q.i, cell: BlockTwoCell(f.source, f.target, f.mat * (1 + delta))}
        dump_document(qsystem_to_json(QSystemData(q.Q, **cells)), f"files/q-{tag}.json")


def write_second_round_input(s: int) -> None:
    """Write seed ``s``'s second-round scenario, the Q-system on End(G)
    of the split of its scenario file, with the API of the tree on
    ``sys.path``."""
    from qhilb.funcat import (construct_G, construct_phi, construct_phibar,
                              qsystem_from_dualizable_transformation)
    from qhilb.serialize import dump_document, load_document, scenario_from_json, scenario_to_json

    _, _, q = scenario_from_json(load_document(f"files/sc-{s}.json"))
    gc = construct_G(q)
    q2 = qsystem_from_dualizable_transformation(construct_phibar(gc), construct_phi(gc))
    dump_document(scenario_to_json(q2), f"files/sc2-{s}.json")


def write_overflow_inputs(source: str) -> None:
    """Write the overflow inputs made from gen run ``source``'s file, by
    setting or scaling the little-endian float64 values that each ``m``'s
    base64 ``entries`` decode to."""
    for tag, (run_name, _) in OVERFLOWS.items():
        if run_name != source:
            continue
        with open(f"files/{tag.rsplit('-', 1)[0]}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        ms = [doc["m"]] if doc["kind"] == "qsystem" else doc["qsystem"]["m"].values()
        for m in ms:
            raw = base64.b64decode(m["entries"])
            values = list(struct.unpack(f"<{len(raw) // 8}d", raw))
            if tag.endswith("entry1e150"):
                values[:2] = [1e150, 0.0]
            else:
                values = [v * 1e160 for v in values]
            m["entries"] = base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()
        with open(f"files/{tag}.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def run(main, argv) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse
            code = exc.code
        except Exception as exc:    # a traceback at the command line
            code = "exception"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return str(code), out.getvalue(), err.getvalue()


# a text report row: "  name  residual  <= threshold  ok|FAIL"
ROW = re.compile(r"^(  \S+ +)(\S+)(  <= \S+  (?:ok|FAIL))$")


def _refuse(token: str):
    raise ValueError(f"{token} is not JSON")


def strict_json(text: str):
    """``text`` parsed as JSON proper, which has no ``NaN`` or
    ``Infinity``; ``ValueError`` if it is not."""
    return json.loads(text, parse_constant=_refuse)


def moved(x, y) -> float:
    """How far a residual moved: 0 when it kept its value, ``nan``,
    ``inf`` and ``None`` (a JSON ``null``) included, and ``inf`` when
    one side is one of those and the other is not."""
    if x == y or (x != x and y != y):
        return 0.0
    if x is None or y is None:
        return math.inf
    d = abs(x - y)
    return d if d == d else math.inf


def masked(stdout: str) -> tuple[str, list[tuple[str, float]]]:
    """``stdout`` with each report residual replaced by ``*``, and the
    ``(row name, residual)`` pairs in order."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "checks" in doc:
        values = [(check["name"], check.pop("residual")) for check in doc["checks"]]
        return json.dumps(doc, sort_keys=True), values
    lines, values = [], []
    for line in stdout.splitlines():
        row = ROW.match(line)
        if row:
            values.append((row[1].strip(), float(row[2])))
            line = f"{row[1]}*{row[3]}"
        lines.append(line)
    return "\n".join(lines), values


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def compare(old: str, new: str) -> int:
    """Check that OUTDIR ``new`` differs from ``old`` only in residuals,
    each by at most ``RESIDUAL_BOUND``; print the largest residual
    change per command, with its run and row, and every mismatch."""
    mismatches, change = [], {}
    for name, argv in runs():
        command = argv[0] if argv and argv[0] in COMMANDS else "qhilb"
        change.setdefault(command, (0.0, None, None))   # (change, run, row)
        a, b = (os.path.join(d, "runs", name) for d in (old, new))
        lost = [f"{name}.{ext} (missing in {path})" for path in (old, new)
                for ext in ("code", "stdout", "stderr")
                if not os.path.exists(os.path.join(path, "runs", f"{name}.{ext}"))]
        if lost:
            mismatches.extend(lost)
            continue
        for ext in ("code", "stderr"):
            if read(f"{a}.{ext}") != read(f"{b}.{ext}"):
                mismatches.append(f"{name}.{ext}")
        stdouts = [read(f"{p}.stdout") for p in (a, b)]
        if "--json" in argv:
            try:
                for text in filter(None, stdouts):
                    strict_json(text)
            except ValueError as exc:
                mismatches.append(f"{name}.stdout ({exc})")
                continue
        (text_a, res_a), (text_b, res_b) = map(masked, stdouts)
        if text_a != text_b:
            mismatches.append(f"{name}.stdout")
            continue
        for (row, x), (_, y) in zip(res_a, res_b):
            d = moved(x, y)
            if d > change[command][0]:
                change[command] = (d, name, row)
            if d > RESIDUAL_BOUND:
                mismatches.append(f"{name}.stdout (row {row} moved {d:.3e})")
    files = [sorted(os.listdir(os.path.join(d, "files"))) for d in (old, new)]
    if files[0] != files[1]:
        mismatches.append("files/ (the written files differ in name)")
    for name in files[0] if files[0] == files[1] else ():
        a, b = (os.path.join(d, "files", name) for d in (old, new))
        if read(a) != read(b):
            mismatches.append(f"files/{name}")
    for command, (value, name, row) in change.items():
        print(f"{command}: largest residual change {value:.3e}"
              + (f" ({name}, row {row})" if name else ""))
    for name in mismatches:
        print(f"MISMATCH {name}")
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*(os.path.abspath(a) for a in argv[1:]))
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/cli_outputs.py TREE OUTDIR\n"
              "       python3 tools/cli_outputs.py --compare OLD_OUTDIR NEW_OUTDIR",
              file=sys.stderr)
        return 2
    tree, outdir = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, os.path.join(tree, "src"))
    from qhilb.cli import main as qhilb_main

    for sub in ("runs", "files", "fixtures"):
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)
    for name in FIXTURES:
        shutil.copyfile(os.path.join(tree, "tests", "data", name),
                        os.path.join(outdir, "fixtures", name))
    os.chdir(outdir)
    os.environ["COLUMNS"] = "80"   # argparse wraps help and usage to the terminal
    count, failed = 0, []
    for name, args in runs():
        code, out, err = run(qhilb_main, args)
        for ext, text in (("code", code + "\n"), ("stdout", out), ("stderr", err)):
            with open(f"runs/{name}.{ext}", "w", encoding="utf-8") as fh:
                fh.write(text)
        count += 1
        if code != "0":
            failed.append(f"{name}={code}")
        else:
            if name in GATE_SOURCES:
                write_gate_inputs(GATE_SOURCES[name])
            if name in SECOND_ROUND_SOURCES:
                write_second_round_input(SECOND_ROUND_SOURCES[name])
            write_overflow_inputs(name)
    print(f"{count} runs from {tree}, {len(failed)} with a nonzero exit"
          + (f": {' '.join(failed)}" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
