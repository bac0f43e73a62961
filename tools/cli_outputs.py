"""Record every output of a fixed set of CLI runs, for byte-identity checks.

Usage::

    python3 tools/cli_outputs.py TREE OUTDIR

Imports ``qhilb`` from ``TREE/src`` and calls ``qhilb.cli.main``
in-process with ``OUTDIR`` as the working directory, so the file paths
that reports print are the same for every tree.  For each seed ``s`` in
0-39 it runs ``gen`` for a qsystem (``--size s+20``), a scenario and a
constant file, then ``check-qsystem`` and ``split-qsystem --seed s
--out`` on the qsystem file and ``verify-fun --seed s`` on the other
two, each as text and as ``--json``.  It also runs the checkers on a
copy of each of the six committed fixtures in ``TREE/tests/data``.

Each run leaves ``runs/<name>.code``, ``.stdout`` and ``.stderr``
(an uncaught exception is recorded as its type and message); files that
runs write go to ``files/``.  Two trees behave the same on these runs
exactly when ``diff -r`` of their two OUTDIRs is empty.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

SEEDS = range(40)
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
    for name, commands in FIXTURES.items():
        for command in commands:
            for fmt, flags in (("text", []), ("json", ["--json"])):
                yield (f"{command}-{name[:-5]}-{fmt}",
                       [command, f"fixtures/{name}", *flags])


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/cli_outputs.py TREE OUTDIR", file=sys.stderr)
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
    count, failed = 0, []
    for name, args in runs():
        code, out, err = run(qhilb_main, args)
        for ext, text in (("code", code + "\n"), ("stdout", out), ("stderr", err)):
            with open(f"runs/{name}.{ext}", "w", encoding="utf-8") as fh:
                fh.write(text)
        count += 1
        if code != "0":
            failed.append(f"{name}={code}")
    print(f"{count} runs from {tree}, {len(failed)} with a nonzero exit"
          + (f": {' '.join(failed)}" if failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
