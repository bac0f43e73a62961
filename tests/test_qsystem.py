import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhilb import qsystem
from qhilb.cells import (
    _hcomp_plan,
    dagger2,
    hcomp1,
    hcomp2,
    hcomp2_many,
    hcomp_pairs,
    id1,
    id2,
    one_cell,
    residual,
    two_cell,
    unitor_left,
    unitor_right,
    vcomp,
    vcomp_many,
)
from qhilb.errors import CellMismatch
from qhilb.generate import (
    dress_qsystem,
    random_block_unitary,
    random_cell,
    random_qsystem,
    random_sector_matrix,
)
from qhilb.linalg import frob
from qhilb.qsystem import (
    BimoduleData,
    DualPair,
    QSystemData,
    check_bimodule,
    check_intertwiner,
    check_qsystem,
    check_qsystem_iso,
    free_bimodule,
    qsystem_from_dual,
    relative_tensor,
    standard_dual_pair,
    trivial_qsystem,
    unit_bimodule,
)
from qhilb.splitting import regular_reps, split_qsystem
from test_splitting import block_structures, dual_pair_qsystem

RNG = np.random.default_rng(512)


def m2_qsystem():
    x = one_cell(1, 1, [(1, 1)] * 2)
    return qsystem_from_dual(standard_dual_pair(x))


def test_trivial_qsystem_exact():
    for n in (1, 4):
        rep = check_qsystem(trivial_qsystem(n))
        assert rep.max_residual == 0.0


def test_qsystem_from_dual_unit_cell():
    q = qsystem_from_dual(standard_dual_pair(id1(3)))
    t = trivial_qsystem(3)
    assert q.Q == t.Q
    assert residual(q.m, t.m) < 1e-12
    assert residual(q.i, t.i) < 1e-12


def test_m2_qsystem():
    q = m2_qsystem()
    assert q.Q.dim == 4
    assert frob(q.m.mat @ q.m.mat.conj().T - np.eye(4)) < 1e-12
    # multiplication is the matrix product scaled by 2^{-1/2}
    nonzero = np.abs(q.m.mat[q.m.mat != 0])
    assert np.allclose(nonzero, 1 / np.sqrt(2))
    rep = check_qsystem(q)
    assert rep.max_residual < 1e-12


def test_qsystem_from_random_duals():
    for _ in range(10):
        x = random_cell(RNG, 3, 2, 2, full_cols=True)
        q = qsystem_from_dual(standard_dual_pair(x))
        assert check_qsystem(q).max_residual < 1e-9


def test_perturbed_qsystem_fails():
    q = m2_qsystem()
    noise = random_sector_matrix(RNG, q.m.source, q.m.target, scale=1e-3)
    bad = type(q)(q.Q, two_cell(q.m.source, q.m.target, q.m.mat + noise.mat), q.i)
    rep = check_qsystem(bad)
    assert rep.max_residual > 1e-9


def test_unit_nonzero_and_m_full_rank():
    # unitality and separability force i != 0 and m of full row rank
    for _ in range(5):
        q, _ = random_qsystem(RNG, zero_cell=2, blocks=2)
        assert frob(q.i.mat) > 0.5
        s = np.linalg.svd(q.m.mat, compute_uv=False)
        assert s[q.Q.dim - 1] > 0.5


def test_free_bimodule_passes():
    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2)
    rep = check_bimodule(free_bimodule(q))
    assert rep.max_residual < 1e-9


def test_unit_bimodule_exact():
    x = random_cell(RNG, 2, 3, 2)
    rep = check_bimodule(unit_bimodule(x))
    assert rep.max_residual == 0.0


def test_random_action_fails():
    q = m2_qsystem()
    b = free_bimodule(q)
    lam = random_sector_matrix(RNG, b.lam.source, b.lam.target)
    bad = BimoduleData(b.P, b.Q, b.X, lam, b.rho)
    assert check_bimodule(bad).max_residual > 1e-6


def test_intertwiner_identity_and_random():
    q, _ = random_qsystem(RNG, zero_cell=1, blocks=2, dress=False)
    b = free_bimodule(q)
    rep = check_intertwiner(id2(q.Q), b, b)
    assert rep.max_residual < 1e-12
    f = random_sector_matrix(RNG, q.Q, q.Q)
    assert check_intertwiner(f, b, b).max_residual > 1e-6


def test_intertwiner_central_element():
    # multiplication by a central element intertwines both actions
    from qhilb.splitting import central_decomposition

    q, _ = random_qsystem(RNG, zero_cell=1, blocks=2, dress=False)
    z = central_decomposition(q)[0]
    f = two_cell(q.Q, q.Q, z)
    rep = check_intertwiner(f, free_bimodule(q), free_bimodule(q))
    assert rep.max_residual < 1e-8


def test_relative_tensor_over_trivial():
    x = random_cell(RNG, 2, 3, 2)
    y = random_cell(RNG, 1, 2, 2)
    zc, r = relative_tensor(unit_bimodule(x), unit_bimodule(y))
    prod = hcomp1(x, y)
    assert zc.dim == prod.dim
    assert frob(r.mat @ r.mat.conj().T - np.eye(zc.dim)) < 1e-9
    # r* r = p = id here: r is the unitary identifying both sides
    assert frob(r.mat.conj().T @ r.mat - np.eye(prod.dim)) < 1e-9


def test_relative_tensor_self():
    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2, dress=False)
    b = free_bimodule(q)
    zc, r = relative_tensor(b, b)
    assert zc.dim == q.Q.dim
    assert frob(r.mat @ r.mat.conj().T - np.eye(zc.dim)) < 1e-9


def _induced_actions(b, zc, r):
    """Left/right actions induced on a relative tensor product."""
    lam = vcomp(r, vcomp(hcomp2(b.lam, id2(b.X)), hcomp2(id2(b.Q.Q), dagger2(r))))
    rho = vcomp(r, vcomp(hcomp2(id2(b.X), b.rho), hcomp2(dagger2(r), id2(b.P.Q))))
    return lam, rho


def test_relative_tensor_associative_up_to_unitary():
    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2, dress=False)
    b = free_bimodule(q)
    z1, r1 = relative_tensor(b, b)
    lam1, rho1 = _induced_actions(b, z1, r1)
    left_mod = BimoduleData(q, q, z1, lam1, rho1)
    z12, r12 = relative_tensor(left_mod, b)
    t_left = vcomp(r12, hcomp2(r1, id2(q.Q)))

    z2, r2 = relative_tensor(b, b)
    lam2, rho2 = _induced_actions(b, z2, r2)
    right_mod = BimoduleData(q, q, z2, lam2, rho2)
    z21, r21 = relative_tensor(b, right_mod)
    t_right = vcomp(r21, hcomp2(id2(q.Q), r2))

    u = t_left.mat @ t_right.mat.conj().T
    assert frob(u @ u.conj().T - np.eye(z12.dim)) < 1e-8
    assert frob(u.conj().T @ u - np.eye(z21.dim)) < 1e-8


def test_check_qsystem_iso():
    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2)
    assert check_qsystem_iso(id2(q.Q), q, q).max_residual < 1e-12
    from qhilb.generate import random_block_unitary
    g = random_block_unitary(RNG, q.Q)
    rep = check_qsystem_iso(g, q, q)
    assert rep["unitary"] < 1e-12
    assert rep["multiplication"] > 1e-6


def test_dressed_qsystem_valid():
    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2, dress=False)
    qd = dress_qsystem(RNG, q)
    assert check_qsystem(qd).max_residual < 1e-9


def test_qsystem_shape_validation():
    q = m2_qsystem()
    with pytest.raises(CellMismatch):
        type(q)(q.Q, q.i, q.i)


@pytest.mark.parametrize("name", ["m", "i"])
def test_qsystem_rejects_off_sector_entry(name):
    q = qsystem_from_dual(standard_dual_pair(one_cell(1, 2, [(1, 1), (2, 1)])))
    f = getattr(q, name)
    r, c = next((r, c) for r in range(f.target.dim) for c in range(f.source.dim)
                if f.target.grading[r] != f.source.grading[c])
    mat = f.mat.copy()
    mat[r, c] = 1e-12
    parts = {"m": q.m, "i": q.i, name: two_cell(f.source, f.target, mat)}
    with pytest.raises(CellMismatch, match=f"{name} has a nonzero entry off"):
        QSystemData(q.Q, parts["m"], parts["i"])


def dense_residuals(q):
    """Q1, Q2, both Frobenius residuals and Q4 from dense contractions of
    the whole N x N x N multiplication tensor and from the composite
    two-cells: the reference for the blocked sums and the unit sums."""
    n = q.Q.dim
    t = np.zeros((n, n, n), dtype=complex)
    pairs = np.array(hcomp_pairs(q.Q, q.Q), dtype=int).reshape(-1, 2)
    t[:, pairs[:, 0], pairs[:, 1]] = q.m.mat
    tc = t.conj()
    q1 = frob(np.einsum("iuc,uab->iabc", t, t) - np.einsum("iau,ubc->iabc", t, t))
    q2 = max(residual(vcomp_many(q.m, (q.i, q.Q)), unitor_left(q.Q)),
             residual(vcomp_many(q.m, (q.Q, q.i)), unitor_right(q.Q)))
    mid = np.einsum("ipv,iuq->pvuq", tc, t)
    q3a = frob(np.einsum("vrq,upr->pvuq", t, tc) - mid)
    q3b = frob(np.einsum("pub,qbv->pvuq", t, tc) - mid)
    q4 = residual(vcomp(q.m, dagger2(q.m)), id2(q.Q))
    return q1, q2, (q3a, q3b), q4


@st.composite
def sector_supported_structures(draw):
    """Random m and i supported on the sectors of a random Q : b -> b,
    b in 1..4, basis in any order; many sectors stay empty."""
    b = draw(st.integers(1, 4))
    grading = draw(st.lists(st.tuples(st.integers(1, b), st.integers(1, b)),
                            min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = one_cell(b, b, grading)
    return QSystemData(Q, random_sector_matrix(rng, hcomp1(Q, Q), Q),
                       random_sector_matrix(rng, id1(b), Q))


@given(sector_supported_structures())
@settings(max_examples=100, deadline=None)
def test_blocked_axioms_match_dense(q):
    # not Q-systems, so the residuals are O(|m|^2) and every block
    # counts; |m|^2 also scales the rounding of a residual that cancels
    rep = check_qsystem(q)
    scale = frob(q.m.mat) ** 2
    q1, q2, q3, q4 = dense_residuals(q)
    for name, dense in (("Q1", q1), ("Q2", q2), ("Q3", max(q3)), ("Q4", q4)):
        assert abs(rep[name] - dense) <= 1e-12 * max(dense, scale)


@given(block_structures(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example((3, [[1, 0, 1], [0, 2, 0]]), False, 0)
@example((3, [[1, 0, 1], [0, 2, 0]]), True, 0)
@settings(max_examples=30, deadline=None)
def test_check_qsystem_reads_the_blocks_of_m_not_the_tensor(structure, dressed, seed):
    # the examples have empty middle sectors: nothing over (1, 2) or
    # (2, 1), though (1, 3) is not empty
    q = dual_pair_qsystem(structure, np.random.default_rng(seed), dressed)
    rep = check_qsystem(q)
    scale = frob(q.m.mat) ** 2
    q1, q2, q3, q4 = dense_residuals(q)
    for name, dense in (("Q1", q1), ("Q2", q2), ("Q3", max(q3)), ("Q4", q4)):
        assert abs(rep[name] - dense) <= 1e-12 * max(dense, scale)


@given(sector_supported_structures())
@settings(max_examples=100, deadline=None)
def test_the_two_frobenius_residuals_are_equal(q):
    # (1 . m)(m* . 1) - m* m is the adjoint of (m . 1)(1 . m*) - m* m,
    # which is why check_qsystem forms only the second
    _, _, (a, b), _ = dense_residuals(q)
    assert abs(a - b) <= 1e-12 * max(a, b)


# -- the iso contraction and the memory of the checks --------------------------


def dense_iso_multiplication(g, a, b):
    """``|g m_a - m_b (g . g)|`` with the ``N_pairs^2`` two-cell ``g . g``
    formed: the reference for the contraction in ``check_qsystem_iso``."""
    return residual(vcomp(g, a.m), vcomp(b.m, hcomp2(g, g)))


def dense_check_qsystem_iso(g, a, b):
    """The multiplication residual as ``check_qsystem_iso`` formed it
    before it went by sector triples: ``g`` contracted into the dense
    tensor of ``b`` one leg at a time (two ``N^4`` tensordots, ``N^3``
    arrays), read at the composable pairs of ``a``."""
    y = np.tensordot(np.tensordot(regular_reps(b), g.mat, (1, 0)), g.mat, (1, 0))
    _, p_idx, q_idx = _hcomp_plan(a.Q, a.Q)
    return frob(vcomp(g, a.m).mat - y[:, p_idx, q_idx])


@pytest.mark.parametrize("seed", range(8))
def test_iso_contraction_matches_dense(seed):
    rng = np.random.default_rng(seed)
    q, _ = random_qsystem(rng, zero_cell=int(rng.integers(1, 4)), blocks=int(rng.integers(1, 4)))
    res = split_qsystem(q)
    a, g = qsystem_from_dual(res.pair), res.gamma
    # the same gamma pushed off unitarity: a failing iso reads the same residual
    off = two_cell(g.source, g.target,
                   g.mat + 1e-3 * random_sector_matrix(rng, g.source, g.target).mat)
    for h, ok in ((g, True), (off, False)):
        got = check_qsystem_iso(h, a, q)["multiplication"]
        for dense in (dense_iso_multiplication(h, a, q), dense_check_qsystem_iso(h, a, q)):
            assert abs(got - dense) <= 1e-13 * max(dense, frob(vcomp(h, a.m).mat))
        assert (got < 1e-9) == ok


def test_iso_check_refuses_an_off_sector_entry_of_gamma():
    # block by block, an entry of gamma between two different sectors
    # meets no block, so it must not reach the check at all
    x = one_cell(2, 2, [(1, 1), (2, 1), (1, 2), (2, 2)])
    q = dress_qsystem(np.random.default_rng(3), qsystem_from_dual(standard_dual_pair(x)))
    res = split_qsystem(q)
    g = res.gamma
    r, c = next((r, c) for r in range(g.target.dim) for c in range(g.source.dim)
                if g.target.grading[r] != g.source.grading[c])
    mat = g.mat.copy()
    mat[r, c] = 1e-3
    with pytest.raises(CellMismatch, match="iso candidate has a nonzero entry off"):
        check_qsystem_iso(two_cell(g.source, g.target, mat), res.dual, q)


def test_qsystem_from_dual_refuses_an_off_sector_entry_of_ev():
    # m reads ev on its sectors only, so an entry elsewhere must raise
    d = standard_dual_pair(one_cell(2, 1, [(1, 1), (1, 2)]))
    mat = d.ev.mat.copy()
    r, c = next((r, c) for r in range(mat.shape[0]) for c in range(mat.shape[1])
                if d.ev.target.grading[r] != d.ev.source.grading[c])
    mat[r, c] = 0.5
    bad = DualPair(d.X, d.Xbar, two_cell(d.ev.source, d.ev.target, mat), d.coev)
    with pytest.raises(CellMismatch, match="ev has a nonzero entry off"):
        qsystem_from_dual(bad)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_qsystem_from_dual_places_the_string_diagram_bytes(rows, cols, seed):
    # the entries of ev placed through index arrays are the bytes of the
    # dense string diagram (x . l)(x . ev . xbar), zeros and their signs too
    x = random_cell(np.random.default_rng(seed), cols, rows, 2, full_cols=True)
    d = standard_dual_pair(x)
    diagram = vcomp_many((d.X, unitor_left(d.Xbar)), (d.X, hcomp2_many(d.ev, d.Xbar)))
    m = qsystem_from_dual(d).m
    assert m.source is diagram.source and m.target is diagram.target
    assert m.mat.tobytes() == diagram.mat.tobytes()


def one_sector_qsystem(d):
    """A dressed ``x . xbar`` over one zero-cell, ``x`` with ``d`` basis
    vectors: all ``N = d^2`` basis vectors of Q lie in one sector."""
    rng = np.random.default_rng(d)
    x = one_cell(1, 1, [(1, 1)] * d)
    return dress_qsystem(rng, qsystem_from_dual(standard_dual_pair(x))), rng


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` during a second call of ``fn``
    (the first fills the caches)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_qsystem_keeps_at_most_two_blocks():
    # one four-index block of the sector holds s^4 complex entries
    q, _ = one_sector_qsystem(4)
    s = q.Q.dim
    assert traced_peak(lambda: check_qsystem(q)) < 3 * s ** 4 * 16


def test_check_qsystem_iso_does_not_form_g_tensor_g():
    q, rng = one_sector_qsystem(5)
    g = random_block_unitary(rng, q.Q)
    n_pairs = hcomp1(q.Q, q.Q).dim
    assert traced_peak(lambda: check_qsystem_iso(g, q, q)) < n_pairs ** 2 * 16 / 4


def traced(fn):
    """``(fn(), peak bytes traced by tracemalloc during the call)``."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def n144_qsystem():
    """An undressed two-row dual-pair Q-system: x has 12 basis vectors, 6
    over each row, so Q has N = 144 and four sectors of s = 36.  One s^4
    residual block is 25.6 MiB, the split's dense tensor 45.6 MiB and the
    dual's m 22.8 MiB."""
    q = qsystem_from_dual(standard_dual_pair(one_cell(1, 2, [(1, 1)] * 6 + [(2, 1)] * 6)))
    assert q.Q.dim == 144
    return q


def test_check_and_split_at_n144_keep_to_half_the_whole_block_peaks(monkeypatch):
    # with whole blocks and N^3 temporaries the check peaked at 62.7 MiB
    # and the split at 161.9 MiB; the split's peak here counts the tensor
    # that it builds
    q = n144_qsystem()
    rep, peak = traced(lambda: q.residuals)
    assert peak < 31 * 2 ** 20
    # a budget that no block reaches gives each block as one product
    with monkeypatch.context() as mp:
        mp.setattr(qsystem, "_SLAB_BYTES", 2 ** 40)
        whole = check_qsystem(q)
    for name, value in whole.residuals.items():
        assert abs(rep[name] - value) <= 1e-13
    res, peak = traced(lambda: split_qsystem(q))
    assert peak < 81 * 2 ** 20
    assert res.iso.passes(1e-13)
    dense = dense_check_qsystem_iso(res.gamma, res.dual, q)
    assert abs(res.iso["multiplication"] - dense) <= 1e-13


def test_check_at_n144_builds_no_tensor():
    # a fresh Q-system: the check reads its sector blocks from m.  The
    # bound lies below the 45.6 MiB tensor, so a check that builds it
    # fails here
    q = n144_qsystem()
    rep, peak = traced(lambda: check_qsystem(q))
    assert peak < 31 * 2 ** 20
    assert rep.passes(1e-13)


def test_split_at_n144_never_holds_the_tensor_and_the_dual():
    # the split builds the 45.6 MiB tensor and later the dual's 22.8 MiB
    # m; holding both would pass 60 MiB.  The check is done first, as
    # the split's gate would do it
    q = n144_qsystem()
    assert q.residuals.passes(1e-13)
    res, peak = traced(lambda: split_qsystem(q))
    assert peak < 60 * 2 ** 20
    assert res.iso.passes(1e-13)
