import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhilb import linalg, qsystem, splitting
from qhilb.cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    dagger2,
    hcomp2,
    hcomp_pairs,
    id2,
    one_cell,
    residual,
    two_cell,
    vcomp,
)
from qhilb.cli import main
from qhilb.errors import InvalidQSystem, NotAProjection, QhilbError
from qhilb.generate import (
    dress_qsystem,
    dsum_qsystems,
    random_cell,
    random_qsystem,
    random_sector_matrix,
)
from qhilb.linalg import Tolerance, commutant_basis, dagger, frob, herm_part
from qhilb.qsystem import (
    DualPair,
    QSystemData,
    check_qsystem,
    check_qsystem_iso,
    qsystem_from_dual,
    standard_dual_pair,
    trivial_qsystem,
)
from qhilb.splitting import (
    axiom_bounds,
    center_basis,
    central_decomposition,
    regular_reps,
    split_projection,
    split_qsystem,
)

RNG = np.random.default_rng(2718)


def block_dims(res):
    counts = [0] * res.k.n
    for _, t in res.pair.X.grading:
        counts[t - 1] += 1
    return sorted(counts)


def test_split_projection_identity():
    x = random_cell(RNG, 2, 2, 3)
    y, u = split_projection(x, id2(x))
    assert y.dim == x.dim
    assert frob(u.mat @ dagger(u.mat) - np.eye(x.dim)) < 1e-9


def test_split_projection_zero():
    x = random_cell(RNG, 2, 2, 2)
    zero = two_cell(x, x, np.zeros((x.dim, x.dim)))
    y, u = split_projection(x, zero)
    assert y.dim == 0


def test_split_projection_known_ranks():
    x = one_cell(1, 2, [(1, 1)] * 3 + [(2, 1)] * 4)
    ranks = {(1, 1): 2, (2, 1): 1}
    mat = np.zeros((7, 7), dtype=complex)
    idx = {(1, 1): [0, 1, 2], (2, 1): [3, 4, 5, 6]}
    for g, ii in idx.items():
        z = RNG.standard_normal((len(ii), ranks[g])) \
            + 1j * RNG.standard_normal((len(ii), ranks[g]))
        w = np.linalg.qr(z)[0][:, :ranks[g]]
        mat[np.ix_(ii, ii)] = w @ dagger(w)
    p = two_cell(x, x, mat)
    y, u = split_projection(x, p)
    assert sorted(y.grading) == [(1, 1)] * 2 + [(2, 1)]
    assert residual(vcomp(u, dagger2(u)), p) < 1e-8
    assert frob(dagger(u.mat) @ u.mat - np.eye(3)) < 1e-9


def test_split_projection_rejects():
    x = random_cell(RNG, 2, 2, 2)
    from qhilb.generate import random_sector_matrix
    with pytest.raises(NotAProjection):
        split_projection(x, random_sector_matrix(RNG, x, x))


def test_split_projection_rejects_weight_off_the_sectors():
    # an exact projection that mixes two one-dimensional sectors: each
    # sector block alone is within 10 atol of a projection, but no u
    # graded by sector has u u* = p
    x = one_cell(2, 1, [(1, 1), (1, 2)])
    v = np.array([np.cos(1e-5), np.sin(1e-5)])
    p = two_cell(x, x, np.outer(v, v))
    with pytest.raises(NotAProjection, match="off the grading sectors"):
        split_projection(x, p)


def test_split_projection_checks_once(monkeypatch):
    # the whole projection is checked once; its sector blocks are not
    # checked again
    calls = []
    check = linalg._check_projection

    def counted(p, tol):
        calls.append(p.shape)
        return check(p, tol)

    def isometry(*args):
        raise AssertionError("range_isometry called")

    for module in (linalg, splitting):
        monkeypatch.setattr(module, "_check_projection", counted)
        monkeypatch.setattr(module, "range_isometry", isometry)
    x = one_cell(1, 2, [(1, 1)] * 3 + [(2, 1)] * 4)
    y, u = split_projection(x, id2(x))
    assert calls == [(7, 7)] and y is x
    assert frob(u.mat - np.eye(7)) == 0


def left_ops(t):
    """``left_ops(t)[a] = t[:, a, :]``, multiplication by ``e_a`` from the left."""
    return t.transpose(1, 0, 2)


def right_ops(t):
    """``right_ops(t)[b] = t[:, :, b]``, multiplication by ``e_b`` from the right."""
    return t.transpose(2, 0, 1)


def test_regular_reps_trivial():
    t = regular_reps(trivial_qsystem(3))
    for j, l in enumerate(left_ops(t)):
        e = np.zeros((3, 3))
        e[j, j] = 1
        assert frob(l - e) < 1e-12
        assert frob(right_ops(t)[j] - e) < 1e-12


def test_regular_reps_m2_span():
    x = one_cell(1, 1, [(1, 1)] * 2)
    q = qsystem_from_dual(standard_dual_pair(x))
    t = regular_reps(q)
    vecs = np.stack([l.reshape(-1) for l in left_ops(t)])
    assert np.linalg.matrix_rank(vecs) == 4


def test_regular_reps_homomorphism():
    from qhilb.cells import hcomp_pairs

    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2)
    ops = left_ops(regular_reps(q))
    index = {pq: k for k, pq in enumerate(hcomp_pairs(q.Q, q.Q))}
    n = q.Q.dim
    worst = 0.0
    for b in range(n):
        for c in range(n):
            prod = np.zeros(n, dtype=complex)
            if (b, c) in index:
                prod = q.m.mat[:, index[(b, c)]]
            expected = sum(prod[d] * ops[d] for d in range(n))
            worst = max(worst, frob(ops[b] @ ops[c] - expected))
    assert worst < 1e-9


def test_regular_reps_match_column_loop():
    # reference: one column of m per composable pair, copied in a loop
    q, _ = random_qsystem(RNG, zero_cell=3, blocks=2)
    t = regular_reps(q)
    n = q.Q.dim
    left = np.zeros((n, n, n), dtype=complex)
    right = np.zeros((n, n, n), dtype=complex)
    for k, (b, c) in enumerate(hcomp_pairs(q.Q, q.Q)):
        left[b][:, c] = q.m.mat[:, k]
        right[c][:, b] = q.m.mat[:, k]
    assert np.array_equal(left_ops(t), left)
    assert np.array_equal(right_ops(t), right)


def test_regular_reps_commute_and_star_closed():
    q, _ = random_qsystem(RNG, zero_cell=2, blocks=2)
    t = regular_reps(q)
    for l in left_ops(t)[:4]:
        for r in right_ops(t)[:4]:
            assert frob(l @ r - r @ l) < 1e-9
    # the span of the left operators is closed under adjoints
    vecs = np.stack([l.reshape(-1) for l in left_ops(t)], axis=1)
    proj = vecs @ np.linalg.pinv(vecs)
    for l in left_ops(t):
        v = dagger(l).reshape(-1)
        assert np.linalg.norm(proj @ v - v) < 1e-8


def test_central_decomposition_trivial():
    zs = central_decomposition(trivial_qsystem(3))
    assert len(zs) == 3
    for z in zs:
        assert round(float(np.real(np.trace(z)))) == 1


def test_central_decomposition_m2():
    x = one_cell(1, 1, [(1, 1)] * 2)
    q = qsystem_from_dual(standard_dual_pair(x))
    zs = central_decomposition(q)
    assert len(zs) == 1
    assert frob(zs[0] - np.eye(4)) < 1e-9


def test_central_decomposition_direct_sum():
    x1 = one_cell(1, 1, [(1, 1)] * 2)
    x2 = one_cell(1, 1, [(1, 1)] * 3)
    q = dsum_qsystems(qsystem_from_dual(standard_dual_pair(x1)),
                      qsystem_from_dual(standard_dual_pair(x2)))
    assert check_qsystem(q).max_residual < 1e-12
    zs = central_decomposition(q)
    assert len(zs) == 2


def test_split_trivial():
    res = split_qsystem(trivial_qsystem(4))
    assert res.k.n == 4
    assert block_dims(res) == [1, 1, 1, 1]
    # gamma is a permutation times phases
    mags = np.abs(res.gamma.mat)
    assert np.allclose(np.sort(mags, axis=None)[-4:], 1.0)


def test_split_m2():
    x = one_cell(1, 1, [(1, 1)] * 2)
    q = qsystem_from_dual(standard_dual_pair(x))
    res = split_qsystem(q)
    assert res.k.n == 1 and res.pair.X.dim == 2
    assert res.gamma.mat.shape == (4, 4)
    rep = check_qsystem_iso(res.gamma, qsystem_from_dual(res.pair), q)
    assert rep.max_residual < 1e-8
    assert res.iso.residuals == rep.residuals


def test_split_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(8):
        while True:
            x = random_cell(rng, 2, 3, 2, full_cols=True)
            counts = [0, 0]
            for _, c in x.grading:
                counts[c - 1] += 1
            if sum(d * d for d in counts) <= 24:
                break
        q = qsystem_from_dual(standard_dual_pair(x))
        res = split_qsystem(q)
        assert res.k.n == 2
        assert block_dims(res) == sorted(counts)
        rep = check_qsystem_iso(res.gamma, qsystem_from_dual(res.pair), q)
        assert rep.max_residual < 1e-8
        # gamma carries nothing on mismatched (row, col) sectors
        g = res.gamma
        for r, gt in enumerate(g.target.grading):
            for c, gs in enumerate(g.source.grading):
                if gt != gs:
                    assert g.mat[r, c] == 0


def test_split_dressed():
    rng = np.random.default_rng(11)
    q, dims = random_qsystem(rng, zero_cell=3, blocks=3, max_sector_dim=2)
    res = split_qsystem(q)
    assert block_dims(res) == dims
    rep = check_qsystem_iso(res.gamma, qsystem_from_dual(res.pair), q)
    assert rep.max_residual < 1e-8


def test_split_gamma_unitary_and_separable():
    rng = np.random.default_rng(13)
    q, _ = random_qsystem(rng, zero_cell=2, blocks=2)
    res = split_qsystem(q)
    g = res.gamma.mat
    assert frob(g @ dagger(g) - np.eye(g.shape[0])) < 1e-8
    assert frob(dagger(g) @ g - np.eye(g.shape[1])) < 1e-8
    ev = res.pair.ev
    assert frob(ev.mat @ dagger(ev.mat) - np.eye(res.k.n)) < 1e-9


def test_a_refinement_that_does_not_end_raises_invalid_qsystem():
    # the zero multiplication makes every vector central, and each L_z is
    # zero, so no piece splits; and right multiplications of one block
    # of dimension 3 never cut it to rank 2
    tol = Tolerance()
    with pytest.raises(InvalidQSystem, match="could not separate 3 central blocks"):
        splitting._central_projections(np.zeros((3, 3, 3)), tol)
    x = one_cell(1, 2, [(1, 1), (1, 1), (2, 1)])
    t = regular_reps(qsystem_from_dual(standard_dual_pair(x)))
    assert splitting._minimal_projection(t, np.eye(9), 3, tol).shape == (9, 3)
    with pytest.raises(InvalidQSystem, match="no generic element"):
        splitting._minimal_projection(t, np.eye(9), 2, tol)


def test_split_seed_deterministic():
    q, _ = random_qsystem(np.random.default_rng(5), zero_cell=2, blocks=2)
    r1 = split_qsystem(q)
    r2 = split_qsystem(q)
    assert np.array_equal(r1.gamma.mat, r2.gamma.mat)
    assert r1.pair.X.grading == r2.pair.X.grading


def test_split_builds_the_multiplication_tensor_once(monkeypatch):
    # the centre and the blocks of one split read the one read-only array
    # that regular_reps builds; the check and the isomorphism check read m
    built = []
    build = splitting.regular_reps

    def counted(q):
        built.append(build(q))
        return built[-1]

    monkeypatch.setattr(splitting, "regular_reps", counted)
    q, _ = random_qsystem(np.random.default_rng(5), zero_cell=2, blocks=2)
    split_qsystem(q)
    assert len(built) == 1
    t = built[0]
    assert t.shape == (q.Q.dim,) * 3 and not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0, 0] = 1


@st.composite
def block_structures(draw, max_dim=24, max_blocks=3):
    """Per-block sector dimensions over the rows of a dual-pair cell
    ``X : k -> b``, as ``(rows, sectors)`` with ``sectors[t][r]``, at
    most ``max_blocks`` blocks and at most ``max_dim`` basis vectors in
    ``X . Xbar``; half of the draws repeat the first block in every
    block."""
    rows = draw(st.integers(1, 3))
    k = draw(st.integers(1, max_blocks))
    column = st.lists(st.integers(0, 2), min_size=rows, max_size=rows).filter(any)
    first = draw(column)
    if draw(st.booleans()):
        sectors = [first] * k
    else:
        sectors = [first] + [draw(column) for _ in range(k - 1)]
    assume(sum(sum(col) ** 2 for col in sectors) <= max_dim)
    return rows, sectors


def dual_pair_qsystem(structure, rng, dressed):
    """The Q-system of the dual pair of ``block_structures``' cell,
    dressed by a random sector unitary if ``dressed``."""
    rows, sectors = structure
    k = len(sectors)
    grading = tuple((r + 1, t + 1) for r in range(rows) for t in range(k)
                    for _ in range(sectors[t][r]))
    x = GradedOneCell(ZeroCell(k), ZeroCell(rows), grading)
    q = qsystem_from_dual(standard_dual_pair(x))
    return dress_qsystem(rng, q) if dressed else q


@given(block_structures(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_center_of_dual_pair_qsystems(structure, dressed, seed):
    sectors = structure[1]
    k = len(sectors)
    rng = np.random.default_rng(seed)
    q = dual_pair_qsystem(structure, rng, dressed)
    tol = Tolerance()
    t = regular_reps(q)

    z = center_basis(t, tol)
    assert z.shape == (q.Q.dim, k)
    ops = np.concatenate([left_ops(t), right_ops(t)])
    for lz in np.tensordot(z, left_ops(t), axes=(0, 0)):
        h = herm_part(lz)
        assert max(frob(c) for c in h @ ops - ops @ h) <= 10 * tol.atol
    gens = list(ops) + [dagger(g) for g in ops]
    assert len(commutant_basis(gens, tol)) == k

    res = split_qsystem(q, tol)
    assert block_dims(res) == sorted(sum(col) for col in sectors)


@given(block_structures(max_dim=48, max_blocks=6), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([Tolerance(), Tolerance(gap_tol=1e-8)]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_refinement_splits_every_block_structure(structure, dressed, seed, tol):
    # equal and unequal blocks, dressed or in matrix units, where the
    # center basis and the block's own vectors are far from generic: the
    # split finds every block and certifies its gate without a check
    q = dual_pair_qsystem(structure, np.random.default_rng(seed), dressed)
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_checks(mp)
        res = split_qsystem(q, tol)
    assert block_dims(res) == sorted(sum(col) for col in structure[1])
    assert res.iso.passes(10 * tol.atol) and calls == []


ORACLE_ATTEMPTS = 5


def summed_central_projections(t, tol, rng):
    """The minimal central projections by the random-element method
    (Murota, Kanno, Kojima and Kojima, 2010), with one ``L_z`` per center
    basis vector: the clusters of ``herm_part(sum_k c_k L_(z_k))`` for
    random complex ``c``, redrawn until they number ``k``."""
    basis = center_basis(t, tol)
    k = basis.shape[1]
    center = np.tensordot(basis, t, axes=(0, 1))   # [k, i, b]
    for _ in range(ORACLE_ATTEMPTS):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        clusters = linalg._eigen_clusters(
            herm_part(sum(c * z for c, z in zip(coeff, center))), tol)
        if len(clusters) == k:
            return [w for _, w in clusters]
    raise AssertionError("no separating element")


@given(block_structures(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_one_central_element_matches_the_summed_operators(structure, dressed, seed):
    # the refinement finds the central projections that one random
    # element finds; equal-rank blocks in one sector tie under
    # _support_key, so the two orders may differ
    q = dual_pair_qsystem(structure, np.random.default_rng(seed), dressed)
    t, tol = regular_reps(q), Tolerance()
    ws = splitting._central_projections(t, tol)
    oracle = [o @ dagger(o) for o in summed_central_projections(t, tol, np.random.default_rng(seed))]
    assert len(ws) == len(oracle)
    for w in ws:
        gaps = [frob(w @ dagger(w) - o) for o in oracle]
        assert min(gaps) <= 1e-12
        oracle.pop(int(np.argmin(gaps)))


def test_center_basis_phase_does_not_matter(monkeypatch):
    # L_(i z) has a zero hermitian part when L_z is hermitian; its
    # -i counterpart must still separate the blocks
    monkeypatch.setattr(splitting, "center_basis",
                        lambda t, tol: 1j * center_basis(t, tol))
    zs = central_decomposition(trivial_qsystem(3))
    assert len(zs) == 3


def svd_center_basis(t, tol):
    """The center as the null space of the ``N^2 x N`` commutator map,
    from its SVD with the cut ``gap_tol max(1, sigma_max)``."""
    n = t.shape[0]
    comm = (t.transpose(0, 2, 1) - t).reshape(n * n, n)
    _, s, vh = np.linalg.svd(comm, full_matrices=False)
    cut = tol.gap_tol * max(1.0, float(s[0]) if len(s) else 1.0)
    return vh[s <= cut].conj().T


@given(block_structures(max_dim=36), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-6, 1e-8, 1e-10]))
@settings(max_examples=30, deadline=None)
def test_center_basis_spans_the_svd_null_space(structure, dressed, seed, gap):
    # below gap_tol of about 1.5e-8 the cut gap_tol^2 max(1, lambda_max)
    # on the Gram lies under eigh's rounding, which the floor N eps covers
    q = dual_pair_qsystem(structure, np.random.default_rng(seed), dressed)
    tol = Tolerance(min(1e-9, gap), gap)
    t = regular_reps(q)
    z, oracle = center_basis(t, tol), svd_center_basis(t, tol)
    assert z.shape == oracle.shape == (q.Q.dim, len(structure[1]))
    assert frob(dagger(z) @ z - np.eye(z.shape[1])) < 1e-10
    assert frob(z @ dagger(z) - oracle @ dagger(oracle)) < 1e-10


@given(block_structures(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_slabs_of_a_few_hundred_bytes_change_no_result(structure, dressed, seed):
    # with a 256-byte budget every block and product runs row by row;
    # each result must agree with the one-slab run.  A perturbed m and a
    # perturbed gamma give residuals that are not only rounding
    rng = np.random.default_rng(seed)
    q = dual_pair_qsystem(structure, rng, dressed)
    bad = QSystemData(q.Q, two_cell(q.m.source, q.m.target, q.m.mat + 1e-3 * random_sector_matrix(
        rng, q.m.source, q.m.target).mat), q.i)
    res = split_qsystem(q)
    g = res.gamma
    off = two_cell(g.source, g.target, g.mat + 1e-3 * random_sector_matrix(
        rng, g.source, g.target).mat)

    def run():
        z = center_basis(regular_reps(q), Tolerance())
        reports = [check_qsystem(a) for a in (q, bad)]
        reports += [check_qsystem_iso(h, res.dual, q) for h in (g, off)]
        split = split_qsystem(q)
        return z @ dagger(z), reports, split.pair.X

    center, reports, x = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsystem, "_SLAB_BYTES", 256)
        slab_center, slab_reports, slab_x = run()
    scale = frob(q.m.mat) ** 2
    assert frob(slab_center - center) <= 1e-12 * frob(center)
    for rep, slab_rep in zip(reports, slab_reports):
        for name, value in rep.residuals.items():
            assert abs(slab_rep[name] - value) <= 1e-12 * max(value, scale)
    assert slab_x is x


def test_split_calls_no_svd(monkeypatch, capsys):
    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", svd)
    x = one_cell(1, 2, [(1, 1)] * 3 + [(2, 1)] * 3)
    q = dress_qsystem(np.random.default_rng(3), qsystem_from_dual(standard_dual_pair(x)))
    assert q.Q.dim == 36
    res = split_qsystem(q)
    assert block_dims(res) == [6] and res.iso.passes(1e-8)
    path = Path(__file__).parent / "data" / "scenario-schema2.json"
    assert main(["verify-fun", str(path)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


def permuted_qsystem(q, rng):
    """``q`` with the basis of ``Q`` permuted inside each grading sector,
    ``m`` and ``i`` conjugated to match."""
    perm = np.arange(q.Q.dim)
    for idx in q.Q.sectors().values():
        perm[idx] = rng.permutation(idx)
    p = BlockTwoCell(q.Q, q.Q, np.eye(q.Q.dim)[perm])
    return QSystemData(q.Q, vcomp(p, vcomp(q.m, hcomp2(dagger2(p), dagger2(p)))),
                       vcomp(p, q.i))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_basis_order_invariance(zero_cell, blocks, seed):
    rng = np.random.default_rng(seed)
    q, dims = random_qsystem(rng, zero_cell=zero_cell, blocks=blocks)
    qp = permuted_qsystem(q, rng)
    for name, value in q.residuals.residuals.items():
        assert abs(qp.residuals[name] - value) <= 1e-12 * max(1.0, frob(q.m.mat))
    tol = Tolerance()
    res, resp = (split_qsystem(a, tol) for a in (q, qp))
    assert res.k == resp.k and block_dims(res) == block_dims(resp) == dims
    # the blocks are ordered by their row profiles, which a basis order
    # inside the sectors does not change
    assert resp.pair.X is res.pair.X
    assert resp.iso.passes(10 * tol.atol)


def test_block_order_does_not_depend_on_the_dressing():
    # two blocks of dimension 2 that both start in row 1; the row
    # profiles, not the order of the refinement's clusters, which a
    # sector unitary dressing moves, set which block comes first
    x = one_cell(2, 2, [(1, 1), (1, 2), (1, 2), (2, 1)])
    q = qsystem_from_dual(standard_dual_pair(x))
    gradings = {split_qsystem(dress_qsystem(np.random.default_rng(s), q)).pair.X.grading
                for s in range(10)}
    assert gradings == {((1, 1), (1, 2), (1, 2), (2, 1))}


def test_split_hands_on_central_blocks_as_eigenvectors(monkeypatch):
    # each central block enters as the eigenvectors of its cluster, so the
    # only projections diagonalized are the d x d row projections of a
    # block, never an N x N one
    shapes = []

    def isometry(p, tol=Tolerance()):
        shapes.append(np.shape(p))
        return linalg.range_isometry(p, tol)

    monkeypatch.setattr(splitting, "range_isometry", isometry)
    x = one_cell(3, 2, [(1, 1), (1, 2), (1, 2), (2, 2), (2, 3), (2, 3), (2, 3)])
    q = dress_qsystem(np.random.default_rng(4), qsystem_from_dual(standard_dual_pair(x)))
    res = split_qsystem(q)
    assert block_dims(res) == [1, 3, 3] and res.iso.passes(1e-8)
    assert shapes and all(s[0] <= 3 for s in shapes)
    assert (q.Q.dim, q.Q.dim) not in shapes


def counted_checks(monkeypatch):
    """The Q-systems that ``check_qsystem`` is called on, from now on."""
    calls = []
    check = qsystem.check_qsystem

    def counted(q):
        calls.append(q)
        return check(q)

    monkeypatch.setattr(qsystem, "check_qsystem", counted)
    return calls


def test_split_is_gauge_invariant_and_certified_without_a_check(monkeypatch):
    # a sector unitary dressing changes gamma's gauge, not X, and the
    # split's own isomorphism rows certify every dressing
    calls = counted_checks(monkeypatch)
    rng = np.random.default_rng(26)
    q, dims = random_qsystem(rng, zero_cell=3, blocks=3, dress=False)
    tol = Tolerance()
    base = split_qsystem(q, tol)
    assert block_dims(base) == dims
    for _ in range(5):
        dressed = dress_qsystem(rng, q)
        res = split_qsystem(dressed, tol)
        assert res.k == base.k and block_dims(res) == dims and res.pair.X is base.pair.X
        assert res.iso.passes(10 * tol.atol)
        assert axiom_bounds(dressed, res).passes(10 * tol.atol)
    assert calls == []


def perturbed_qsystem(q, kind, delta, rng):
    """``q`` with ``m`` or ``i`` scaled by ``1 + delta``, or (``off``)
    ``m`` moved off the axioms by ``delta`` times a unit-norm random
    sector matrix."""
    m, i = q.m.mat, q.i.mat
    if kind == "m":
        m = m * (1 + delta)
    elif kind == "i":
        i = i * (1 + delta)
    elif kind == "off":
        noise = random_sector_matrix(rng, q.m.source, q.m.target).mat
        m = m + delta / frob(noise) * noise
    return QSystemData(q.Q, two_cell(q.m.source, q.m.target, m),
                       two_cell(q.i.source, q.i.target, i))


@given(block_structures(max_dim=36), st.booleans(), st.sampled_from(["m", "i", "off"]),
       st.floats(-14, -2), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_axiom_bounds_hold_for_the_computed_residuals(structure, dressed, kind, exponent,
                                                       seed):
    # the bounds are at least the residuals check_qsystem computes, both
    # for a split of the perturbed Q-system, where one succeeds, and for
    # the gamma of the unperturbed one, whose isomorphism rows then carry
    # the whole perturbation; a bound within the gate certifies the gate
    rng = np.random.default_rng(seed)
    exact = dual_pair_qsystem(structure, rng, dressed)
    q = perturbed_qsystem(exact, kind, 10 ** exponent, rng)
    tol = Tolerance()
    base = split_qsystem(exact, tol)
    splits = [splitting.SplitResult(base.k, base.pair, base.gamma,
                                    check_qsystem_iso(base.gamma, base.dual, q), base.dual)]
    try:
        splits.append(splitting._split(q, tol))
    except QhilbError:
        pass
    rep = check_qsystem(q)
    for res in splits:
        bound = axiom_bounds(q, res)
        assert list(bound) == list(rep)
        for name, value in rep.items():
            assert value <= bound[name], (name, value, bound[name])
        if bound.passes(10 * tol.atol):
            assert rep.passes(10 * tol.atol)


@given(block_structures(max_dim=36), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_dual_residuals_in_closed_form_match_the_check(structure, dressed, seed):
    rng = np.random.default_rng(seed)
    res = split_qsystem(dual_pair_qsystem(structure, rng, dressed))
    closed, rep = splitting._dual_residuals(res.pair), check_qsystem(res.dual)
    assert list(closed) == list(rep) and closed["Q1"] == closed["Q3"] == 0.0
    for name, value in rep.items():
        assert abs(closed[name] - value) <= 1e-15, name
    assert abs(closed.info["unit_norm"] - frob(res.dual.i.mat)) <= 1e-13
    assert abs(closed.info["m_norm"] - np.linalg.norm(res.dual.m.mat, 2)) <= 1e-13


def _with_ev(pair, mat):
    return DualPair(pair.X, pair.Xbar, two_cell(pair.ev.source, pair.ev.target, mat),
                    pair.coev)


@given(block_structures(max_dim=36), st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_dual_residuals_read_the_weights_of_the_pair(structure, data):
    # the closed form bounds the Q-system the pair defines: with one
    # column's evaluation weights scaled it still matches the full check,
    # and a column whose weights differ gets inf, so the check decides
    rows, sectors = structure
    grading = tuple((r + 1, t + 1) for r in range(rows) for t in range(len(sectors))
                    for _ in range(sectors[t][r]))
    pair = standard_dual_pair(GradedOneCell(ZeroCell(len(sectors)), ZeroCell(rows), grading))
    c = data.draw(st.integers(0, len(sectors) - 1))
    mat = pair.ev.mat.copy()
    mat[c] *= 1 + 1e-6
    scaled = _with_ev(pair, mat)
    closed, rep = splitting._dual_residuals(scaled), check_qsystem(qsystem_from_dual(scaled))
    assert list(closed) == list(rep) and closed["Q4"] > 1e-7
    for name, value in rep.items():
        assert abs(closed[name] - value) <= 1e-15, name
    assert abs(closed.info["m_norm"] - np.linalg.norm(qsystem_from_dual(scaled).m.mat, 2)) \
        <= 1e-13
    stray = []
    weights, zeros = np.flatnonzero(pair.ev.mat[c]), np.flatnonzero(pair.ev.mat[c] == 0)
    if weights.size > 1:    # one weight of the column scaled
        stray.append(pair.ev.mat.copy())
        stray[-1][c, data.draw(st.sampled_from(weights.tolist()))] *= 1 + 1e-6
    if zeros.size:          # an entry where the pair has none
        stray.append(pair.ev.mat.copy())
        stray[-1][c, data.draw(st.sampled_from(zeros.tolist()))] = 1e-6
    for mat in stray:
        closed = splitting._dual_residuals(_with_ev(pair, mat))
        assert all(v == np.inf for v in closed.values()), closed.residuals
        assert closed.info == {"unit_norm": np.inf, "m_norm": np.inf}


def test_split_leaves_the_warnings_machinery_alone(monkeypatch):
    # catch_warnings swaps the hooks of the warnings module for the whole
    # process, under every thread: no split may enter it, whether its
    # bounds certify it, the full check passes it or the gate fails it
    def refused(*args, **kwargs):
        raise AssertionError("split_qsystem entered warnings.catch_warnings")

    calls = counted_checks(monkeypatch)
    q, _ = random_qsystem(np.random.default_rng(5), zero_cell=2, blocks=2)
    near = perturbed_qsystem(q, "off", 2e-9, np.random.default_rng(1))
    bad = perturbed_qsystem(q, "m", 1e-3, None)
    tol = Tolerance()
    error = InvalidQSystem("raised by the split")

    def raising(q, tol):
        raise error

    with mock.patch.object(warnings, "catch_warnings", refused):
        split_qsystem(q, tol)
        assert calls == []
        split_qsystem(near, tol)
        assert calls == [near]
        with pytest.raises(InvalidQSystem, match="fails with residual"):
            split_qsystem(bad, tol)
        # a split that raises on a Q-system that passes the gate hands on its error
        with mock.patch.object(splitting, "_split", raising), \
                pytest.raises(InvalidQSystem) as got:
            split_qsystem(q, tol)
    assert got.value is error


def test_a_split_that_fails_its_bound_but_passes_the_check_is_kept(monkeypatch):
    # m moved off the axioms by 2e-9: the bounds exceed 10 atol, the
    # full check passes, and the split's result is handed on as it was
    calls = counted_checks(monkeypatch)
    q, _ = random_qsystem(np.random.default_rng(5), zero_cell=2, blocks=2)
    near = perturbed_qsystem(q, "off", 2e-9, np.random.default_rng(1))
    tol = Tolerance()
    ungated = splitting._split(near, tol)
    assert not axiom_bounds(near, ungated).passes(10 * tol.atol)
    res = split_qsystem(near, tol)
    assert calls == [near] and near.residuals.passes(10 * tol.atol)
    assert np.array_equal(res.gamma.mat, ungated.gamma.mat)
