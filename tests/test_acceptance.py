"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import time
from pathlib import Path

import numpy as np

from qhilb.cells import (
    dagger2,
    hcomp1,
    hcomp2,
    id2,
    residual,
    unitor_left,
    unitor_right,
    vcomp,
)
from qhilb.funcat import (
    check_endf_qsystem,
    check_modification,
    check_transformation,
    constant_functor_scenario,
    construct_G,
    construct_phi,
    construct_phibar,
    qsystem_from_dualizable_transformation,
    split_modification_projection,
    verify_main_theorem,
)
from qhilb.generate import (
    product_scenario,
    random_cell,
    random_presentation,
    random_projection_on,
    random_qsystem,
    summed_transformation,
)
from qhilb.linalg import dagger, frob
from qhilb.qsystem import (
    check_qsystem,
    check_qsystem_iso,
    qsystem_from_dual,
    standard_dual_pair,
)
from qhilb.splitting import split_projection, split_qsystem


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_1_qsystem_axioms():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        src = int(rng.integers(1, 4))
        tgt = int(rng.integers(1, 4))
        msd = 5 if src * tgt == 1 else (3 if src * tgt <= 2 else 2)
        while True:
            x = random_cell(rng, src, tgt, msd, full_cols=True)
            counts = {}
            for _, c in x.grading:
                counts[c] = counts.get(c, 0) + 1
            if sum(d * d for d in counts.values()) <= 25:
                break
        q = qsystem_from_dual(standard_dual_pair(x))
        worst = max(worst, check_qsystem(q).max_residual)
    elapsed = time.time() - t0
    _report(1, worst <= 1e-9 and elapsed < 10,
            f"200 dual-pair Q-systems, worst residual {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_2_projection_splitting():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        src = int(rng.integers(1, 4))
        tgt = int(rng.integers(1, 4))
        while True:
            x = random_cell(rng, src, tgt, 5, zero_bias=0.3)
            if 0 < x.dim <= 40:
                break
        p = random_projection_on(rng, x)
        y, u = split_projection(x, p)
        worst = max(worst,
                    frob(dagger(u.mat) @ u.mat - np.eye(y.dim)),
                    residual(vcomp(u, dagger2(u)), p))
    _report(2, worst <= 1e-8,
            f"200 projections split, worst contract residual {worst:.2e}")


def test_acceptance_3_split_roundtrip():
    rng = np.random.default_rng(303)
    t0 = time.time()
    worst = 0.0
    mismatches = 0
    for _ in range(50):
        src = int(rng.integers(1, 4))
        tgt = int(rng.integers(1, 4))
        while True:
            x = random_cell(rng, src, tgt, 3, full_cols=True)
            counts = [0] * src
            for _, c in x.grading:
                counts[c - 1] += 1
            if sum(d * d for d in counts) <= 24:
                break
        q = qsystem_from_dual(standard_dual_pair(x))
        res = split_qsystem(q, rng=rng)
        rec = [0] * res.k.n
        for _, t in res.pair.X.grading:
            rec[t - 1] += 1
        if res.k.n != src or sorted(rec) != sorted(counts):
            mismatches += 1
        worst = max(worst, check_qsystem_iso(
            res.gamma, qsystem_from_dual(res.pair), q).max_residual)
    elapsed = time.time() - t0
    _report(3, worst <= 1e-8 and mismatches == 0 and elapsed < 60,
            f"50 splits, worst iso residual {worst:.2e}, "
            f"{mismatches} block mismatches, {elapsed:.1f}s")


def test_acceptance_4_local_projection_completeness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(30):
        cat = random_presentation(rng, with_two_cell=False)
        summands = int(rng.integers(2, 4))
        phi, p, _ = summed_transformation(rng, cat, summands)
        x, iso = split_modification_projection(p, phi)
        worst = max(worst, check_transformation(x).max_residual)
        worst = max(worst, check_modification(iso, x, phi).max_residual)
        for a in cat.zero_cells:
            u = iso[a].mat
            worst = max(worst,
                        frob(dagger(u) @ u - np.eye(x.comp0[a].dim)),
                        frob(u @ dagger(u) - p[a].mat))
    _report(4, worst <= 1e-8,
            f"30 modification projections split, worst residual {worst:.2e}")


def test_acceptance_5_main_theorem_roundtrip():
    rng = np.random.default_rng(505)
    t0 = time.time()
    worst = 0.0
    worst_name = ""
    for _ in range(25):
        cat, f, endf = product_scenario(rng)
        gc = construct_G(cat, f, endf, rng=rng)
        phi = construct_phi(gc)
        phibar = construct_phibar(gc)
        q2 = qsystem_from_dualizable_transformation(phi, phibar)
        out = verify_main_theorem(cat, f, q2, rng=rng)
        name, value = out.worst()
        if value > worst:
            worst, worst_name = value, name
    elapsed = time.time() - t0
    _report(5, worst <= 1e-7 and elapsed < 120,
            f"25 dualizable-transformation scenarios, worst check "
            f"{worst_name} = {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_6_constant_scenarios():
    rng = np.random.default_rng(606)
    worst = 0.0
    nonconstant = 0
    for _ in range(10):
        cat = random_presentation(rng, max_zero=3, with_two_cell=False)
        q, _ = random_qsystem(rng, zero_cell=int(rng.integers(1, 3)),
                              blocks=int(rng.integers(1, 3)), max_total=16)
        f, endf = constant_functor_scenario(cat, q)
        worst = max(worst, check_endf_qsystem(cat, f, endf).max_residual)
        out = verify_main_theorem(cat, f, endf, rng=rng)
        name, value = out.worst()
        worst = max(worst, value)
        ks = {out.gconstruction.splits[a].k.n for a in cat.zero_cells}
        if len(ks) != 1:
            nonconstant += 1
    _report(6, worst <= 1e-7 and nonconstant == 0,
            f"10 constant scenarios, worst residual {worst:.2e}, "
            f"{nonconstant} non-constant outputs")


def test_acceptance_7_strictness():
    rng = np.random.default_rng(707)
    worst = 0.0
    from qhilb.generate import random_sector_matrix
    for _ in range(100):
        dims = [int(rng.integers(1, 4)) for _ in range(4)]
        z = random_cell(rng, dims[2], dims[3], 2)
        y = random_cell(rng, dims[1], dims[2], 2)
        x = random_cell(rng, dims[0], dims[1], 2)
        assert hcomp1(hcomp1(z, y), x) == hcomp1(z, hcomp1(y, x))
        f = random_sector_matrix(rng, x, x)
        g = random_sector_matrix(rng, y, y)
        h = random_sector_matrix(rng, z, z)
        worst = max(worst, residual(hcomp2(hcomp2(h, g), f),
                                    hcomp2(h, hcomp2(g, f))))
        worst = max(worst, residual(hcomp2(unitor_right(y), id2(x)),
                                    hcomp2(id2(y), unitor_left(x))))
    _report(7, worst <= 1e-12,
            f"100 triples: strict association and triangle, worst {worst:.2e}")


def test_acceptance_8_determinism(tmp_path, capsys):
    from qhilb.cli import main

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    outputs = []
    sc = str(tmp_path / "sc.json")
    qf = str(tmp_path / "q.json")
    cc = str(tmp_path / "cc.json")
    for _ in range(2):
        run("gen", "--kind", "scenario", "--seed", "17", "--out", sc)
        run("gen", "--kind", "qsystem", "--seed", "18", "--out", qf)
        run("gen", "--kind", "constant", "--seed", "19", "--out", cc)
        blobs = [Path(sc).read_bytes(), Path(qf).read_bytes(), Path(cc).read_bytes()]
        blobs.append(run("check-qsystem", qf, "--json")[1])
        blobs.append(run("split-qsystem", qf, "--seed", "4", "--json")[1])
        blobs.append(run("verify-fun", sc, "--seed", "4", "--json")[1])
        blobs.append(run("verify-fun", cc, "--seed", "4", "--json")[1])
        outputs.append(blobs)
    ok = outputs[0] == outputs[1]
    _report(8, ok, "seeded commands produce byte-identical files and reports")
