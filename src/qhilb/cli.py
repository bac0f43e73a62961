"""Command-line interface.

Subcommands::

    qhilb check-qsystem FILE        axiom residual table, exit 0 iff pass
    qhilb split-qsystem FILE        split and report, optionally write result
    qhilb verify-fun FILE           full construction verification
    qhilb gen --kind ... --out F    emit a random, checker-passing file

Exit codes: 0 pass, 1 residual failure, 2 parse error, 3 shape error.
Reports are deterministic given the same inputs and ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cells import CellMismatch
from .errors import IllTypedPath, ParseError, QhilbError
from .funcat import constant_functor_scenario, verify_main_theorem
from .generate import product_scenario, random_presentation, random_qsystem
from .linalg import Tolerance
from .qsystem import check_qsystem
from .serialize import (
    constant_from_json,
    constant_to_json,
    dump_document,
    load_document,
    qsystem_from_json,
    qsystem_to_json,
    scenario_from_json,
    scenario_to_json,
    split_result_to_json,
)
from .splitting import split_qsystem

_DESCRIPTIONS = {
    "Q1": "multiplication associativity",
    "Q2": "unit absorption on both sides",
    "Q3": "comultiplication commutes with multiplication",
    "Q4": "multiplication is a coisometry",
}


def _describe(name: str) -> str:
    base = name.split(".")[-1].split("[")[0]
    return _DESCRIPTIONS.get(base, base.replace("_", " "))


def _emit(rows, info, as_json, header, extra=None):
    rows = list(rows)
    ok = all(r[3] for r in rows)
    if as_json:
        doc = {
            "schema": 1,
            "checks": [
                {"name": n, "description": _describe(n), "residual": float(v),
                 "threshold": float(t), "pass": bool(p)}
                for n, v, t, p in rows
            ],
            "info": {k: float(v) for k, v in sorted(info.items())},
            "pass": ok,
        }
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(header)
        width = max((len(r[0]) for r in rows), default=4)
        for n, v, t, p in rows:
            print(f"  {n:<{width}}  {v:.6e}  <= {t:.1e}  {'ok' if p else 'FAIL'}")
        for k, v in sorted(info.items()):
            print(f"  # {k} = {v:.6e}")
        if extra:
            for k, v in extra.items():
                print(f"  {k}: {v}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _load(path: str, kinds: tuple[str, ...]) -> dict:
    doc = load_document(path)
    if doc["kind"] not in kinds:
        raise ParseError(f"{path}: expected one of {kinds}, got {doc['kind']}")
    return doc


def cmd_check_qsystem(args) -> int:
    tol = args.tolerance
    doc = _load(args.file, ("qsystem",))
    q = qsystem_from_json(doc)
    rep = check_qsystem(q)
    return _emit(rep.rows(tol.atol), rep.info, args.json,
                 f"Q-system axioms ({args.file})")


def cmd_split_qsystem(args) -> int:
    tol = args.tolerance
    doc = _load(args.file, ("qsystem",))
    q = qsystem_from_json(doc)
    res = split_qsystem(q, tol, np.random.default_rng(args.seed))
    counts = [0] * res.k.n
    for _, t in res.pair.X.grading:
        counts[t - 1] += 1
    if args.out:
        dump_document(split_result_to_json(res), args.out)
    extra = {"k": res.k.n, "block_dims": sorted(counts)}
    return _emit(res.iso.rows(10 * tol.atol), res.iso.info, args.json,
                 f"Q-system splitting ({args.file})", extra=extra)


def cmd_verify_fun(args) -> int:
    tol = args.tolerance
    doc = _load(args.file, ("scenario", "constant"))
    if doc["kind"] == "constant":
        cat, q = constant_from_json(doc)
        f, endf = constant_functor_scenario(cat, q)
    else:
        cat, f, endf = scenario_from_json(doc)
    limit = 100 * tol.atol
    out = verify_main_theorem(cat, f, endf, tol, np.random.default_rng(args.seed))
    gdims = {a: out.gconstruction.splits[a].k.n for a in cat.zero_cells}
    return _emit(out.rows(limit), {}, args.json,
                 f"construction verification ({args.file})",
                 extra={"G_zero_cells": gdims})


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    size = args.size
    if size > 64:
        raise ParseError("--size must be at most 64")
    if args.kind == "qsystem":
        blocks = max(1, min(3, size // 3))
        q, _ = random_qsystem(rng, zero_cell=max(1, min(3, size // 4)),
                              blocks=blocks, max_sector_dim=2)
        doc = qsystem_to_json(q)
    elif args.kind == "scenario":
        cat, f, endf = product_scenario(rng)
        doc = scenario_to_json(cat, f, endf)
    elif args.kind == "constant":
        cat = random_presentation(rng, with_two_cell=False)
        q, _ = random_qsystem(rng, zero_cell=2, blocks=2, max_sector_dim=2)
        doc = constant_to_json(cat, q)
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown kind {args.kind}")
    if args.out:
        dump_document(doc, args.out)
        print(args.out)
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhilb",
        description="Q-system axiom checks, splitting and functor-category "
                    "verification over graded complex matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized steps (default 0)")

    def checker(name, text, func):
        """A command that reads FILE and reports residuals against --tol."""
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="absolute residual tolerance (default 1e-9)")
        p.add_argument("--gap-tol", type=float, default=1e-6,
                       help="eigenvalue clustering threshold (default 1e-6)")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")
        p.set_defaults(func=func)
        return p

    checker("check-qsystem", "check the multiplicative axioms", cmd_check_qsystem)
    p = checker("split-qsystem", "split a Q-system over a new zero-cell", cmd_split_qsystem)
    seed(p)
    p.add_argument("--out", default=None, help="output file")
    seed(checker("verify-fun", "run and verify the full construction", cmd_verify_fun))

    p = sub.add_parser("gen", help="emit a random instance file")
    p.add_argument("--kind", choices=("qsystem", "scenario", "constant"),
                   required=True)
    p.add_argument("--size", type=int, default=8,
                   help="total dimension budget (max 64)")
    seed(p)
    p.add_argument("--out", default=None, help="output file")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is not cmd_gen:
        try:
            args.tolerance = Tolerance(atol=args.tol, gap_tol=args.gap_tol)
        except ValueError:
            parser.error(f"need 0 < --tol <= --gap-tol, got --tol {args.tol} "
                         f"--gap-tol {args.gap_tol}")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CellMismatch, IllTypedPath) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except QhilbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
