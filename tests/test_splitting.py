import functools
from pathlib import Path

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
from qhilb.errors import DegenerateRandomElement, NotAProjection
from qhilb.generate import (
    dress_qsystem,
    dsum_qsystems,
    random_cell,
    random_qsystem,
    random_sector_matrix,
)
from qhilb.linalg import Tolerance, commutant_basis, dagger, frob, herm_part
from qhilb.qsystem import (
    QSystemData,
    check_qsystem,
    check_qsystem_iso,
    qsystem_from_dual,
    standard_dual_pair,
    trivial_qsystem,
)
from qhilb.splitting import (
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
    zs = central_decomposition(trivial_qsystem(3), rng=np.random.default_rng(1))
    assert len(zs) == 3
    for z in zs:
        assert round(float(np.real(np.trace(z)))) == 1


def test_central_decomposition_m2():
    x = one_cell(1, 1, [(1, 1)] * 2)
    q = qsystem_from_dual(standard_dual_pair(x))
    zs = central_decomposition(q, rng=np.random.default_rng(1))
    assert len(zs) == 1
    assert frob(zs[0] - np.eye(4)) < 1e-9


def test_central_decomposition_direct_sum():
    x1 = one_cell(1, 1, [(1, 1)] * 2)
    x2 = one_cell(1, 1, [(1, 1)] * 3)
    q = dsum_qsystems(qsystem_from_dual(standard_dual_pair(x1)),
                      qsystem_from_dual(standard_dual_pair(x2)))
    assert check_qsystem(q).max_residual < 1e-12
    zs = central_decomposition(q, rng=np.random.default_rng(1))
    assert len(zs) == 2


def test_split_trivial():
    res = split_qsystem(trivial_qsystem(4), rng=np.random.default_rng(0))
    assert res.k.n == 4
    assert block_dims(res) == [1, 1, 1, 1]
    # gamma is a permutation times phases
    mags = np.abs(res.gamma.mat)
    assert np.allclose(np.sort(mags, axis=None)[-4:], 1.0)


def test_split_m2():
    x = one_cell(1, 1, [(1, 1)] * 2)
    q = qsystem_from_dual(standard_dual_pair(x))
    res = split_qsystem(q, rng=np.random.default_rng(0))
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
        res = split_qsystem(q, rng=rng)
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
    res = split_qsystem(q, rng=rng)
    assert block_dims(res) == dims
    rep = check_qsystem_iso(res.gamma, qsystem_from_dual(res.pair), q)
    assert rep.max_residual < 1e-8


def test_split_gamma_unitary_and_separable():
    rng = np.random.default_rng(13)
    q, _ = random_qsystem(rng, zero_cell=2, blocks=2)
    res = split_qsystem(q, rng=rng)
    g = res.gamma.mat
    assert frob(g @ dagger(g) - np.eye(g.shape[0])) < 1e-8
    assert frob(dagger(g) @ g - np.eye(g.shape[1])) < 1e-8
    ev = res.pair.ev
    assert frob(ev.mat @ dagger(ev.mat) - np.eye(res.k.n)) < 1e-9


class ZeroRng:
    """Draws the constant zero vector and counts the draws."""

    def __init__(self):
        self.calls = 0

    def standard_normal(self, n):
        self.calls += 1
        return np.zeros(n)


def test_degenerate_randomness_raises():
    from qhilb.splitting import _central_projections

    t = regular_reps(trivial_qsystem(3))
    with pytest.raises(DegenerateRandomElement):
        _central_projections(t, Tolerance(), ZeroRng())

    # the zero right multiplication has one cluster, of rank d^2, not d;
    # each attempt draws a real and an imaginary vector
    x = one_cell(1, 2, [(1, 1), (1, 1), (2, 1)])
    t = qsystem_from_dual(standard_dual_pair(x)).tensor
    rng = ZeroRng()
    with pytest.raises(DegenerateRandomElement):
        splitting._minimal_projection(t, np.eye(9), 3, Tolerance(), rng)
    assert rng.calls == 2 * splitting._MAX_RANDOM_ATTEMPTS


def test_split_seed_deterministic():
    q, _ = random_qsystem(np.random.default_rng(5), zero_cell=2, blocks=2)
    r1 = split_qsystem(q, rng=np.random.default_rng(42))
    r2 = split_qsystem(q, rng=np.random.default_rng(42))
    assert np.array_equal(r1.gamma.mat, r2.gamma.mat)
    assert r1.pair.X.grading == r2.pair.X.grading


def test_split_builds_the_multiplication_tensor_once(monkeypatch):
    # the centre and the blocks of one split read the same read-only
    # q.tensor; the check and the isomorphism check read m, not the tensor
    built = []
    build = QSystemData.tensor.func

    def counted(q):
        built.append(q)
        return build(q)

    tensor = functools.cached_property(counted)
    tensor.__set_name__(QSystemData, "tensor")
    monkeypatch.setattr(QSystemData, "tensor", tensor)
    q, _ = random_qsystem(np.random.default_rng(5), zero_cell=2, blocks=2)
    split_qsystem(q, rng=np.random.default_rng(42))
    assert built == [q]
    t = q.tensor
    assert q.tensor is t and regular_reps(q) is t and len(built) == 1
    assert t.shape == (q.Q.dim,) * 3 and not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0, 0] = 1


@st.composite
def block_structures(draw, max_dim=24):
    """Per-block sector dimensions over the rows of a dual-pair cell
    ``X : k -> b``, as ``(rows, sectors)`` with ``sectors[t][r]`` and at
    most ``max_dim`` basis vectors in ``X . Xbar``; half of the draws
    repeat the first block in every block."""
    rows = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
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
    t = regular_reps(q, tol)

    z = center_basis(t, tol)
    assert z.shape == (q.Q.dim, k)
    ops = np.concatenate([left_ops(t), right_ops(t)])
    for lz in np.tensordot(z, left_ops(t), axes=(0, 0)):
        h = herm_part(lz)
        assert max(frob(c) for c in h @ ops - ops @ h) <= 10 * tol.atol
    gens = list(ops) + [dagger(g) for g in ops]
    assert len(commutant_basis(gens, tol)) == k

    res = split_qsystem(q, tol, rng)
    assert block_dims(res) == sorted(sum(col) for col in sectors)


def test_center_basis_phase_does_not_matter(monkeypatch):
    # L_(i z) has a zero hermitian part when L_z is hermitian; the
    # random element must still separate the blocks
    monkeypatch.setattr(splitting, "center_basis",
                        lambda t, tol: 1j * center_basis(t, tol))
    zs = central_decomposition(trivial_qsystem(3), rng=np.random.default_rng(1))
    assert len(zs) == 3


def svd_center_basis(t, tol):
    """The center as the null space of the ``N^2 x N`` commutator map,
    from its SVD with the cut ``gap_tol max(1, sigma_max)``."""
    n = t.shape[0]
    comm = (t.transpose(0, 2, 1) - t).reshape(n * n, n)
    _, s, vh = np.linalg.svd(comm, full_matrices=False)
    cut = tol.gap_tol * max(1.0, float(s[0]) if len(s) else 1.0)
    return vh[s <= cut].conj().T


@given(block_structures(max_dim=36), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_center_basis_spans_the_svd_null_space(structure, dressed, seed):
    q = dual_pair_qsystem(structure, np.random.default_rng(seed), dressed)
    tol = Tolerance()
    z, oracle = center_basis(q.tensor, tol), svd_center_basis(q.tensor, tol)
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
    res = split_qsystem(q, rng=np.random.default_rng(seed))
    g = res.gamma
    off = two_cell(g.source, g.target, g.mat + 1e-3 * random_sector_matrix(
        rng, g.source, g.target).mat)

    def run():
        z = center_basis(q.tensor, Tolerance())
        reports = [check_qsystem(a) for a in (q, bad)]
        reports += [check_qsystem_iso(h, res.dual, q) for h in (g, off)]
        split = split_qsystem(q, rng=np.random.default_rng(seed))
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
    res = split_qsystem(q, rng=np.random.default_rng(0))
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
    res, resp = (split_qsystem(a, tol, np.random.default_rng(seed)) for a in (q, qp))
    assert res.k == resp.k and block_dims(res) == block_dims(resp) == dims
    # the blocks are ordered by their row profiles, which a basis order
    # inside the sectors does not change
    assert resp.pair.X is res.pair.X
    assert resp.iso.passes(10 * tol.atol)


def test_block_order_does_not_depend_on_the_random_elements():
    # two blocks of dimension 2 that both start in row 1; the row
    # profiles, not the order of the random element's clusters, set
    # which block comes first
    x = one_cell(2, 2, [(1, 1), (1, 2), (1, 2), (2, 1)])
    q = dress_qsystem(np.random.default_rng(1), qsystem_from_dual(standard_dual_pair(x)))
    gradings = {split_qsystem(q, rng=np.random.default_rng(s)).pair.X.grading
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
    res = split_qsystem(q, rng=np.random.default_rng(0))
    assert block_dims(res) == [1, 3, 3] and res.iso.passes(1e-8)
    assert shapes and all(s[0] <= 3 for s in shapes)
    assert (q.Q.dim, q.Q.dim) not in shapes
