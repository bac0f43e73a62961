"""Splitting projections and Q-systems.

``split_projection`` realizes local orthogonal projection completeness
of the graded matrix model; it checks the whole projection once.
``split_qsystem`` realizes Q-system completeness: every Q-system ``Q``
is exhibited as ``X . Xbar`` for a balanced dual pair over a new
zero-cell, together with the unitary ``gamma : X . Xbar -> Q``
intertwining multiplication and unit.  Its gate reads the cached
``QSystemData.residuals``, so no Q-system is checked twice.

The algorithm works on the total space of ``Q`` viewed as an
associative algebra via left/right multiplication operators, the
slices ``t[:, a, :]`` and ``t[:, :, b]`` of ``QSystemData.tensor``.
The split is that tensor's one reader (``regular_reps``): the gate's
``check_qsystem`` and the closing ``check_qsystem_iso`` read the sector
blocks of ``m`` instead, so the tensor is built only once a Q-system
has passed its check.
The center is the null space of the ``N^2 x N`` commutator map
``z -> z a - a z``, from ``eigh`` of its ``N x N`` Gram matrix.  The
hermitian part of left multiplication by a random central element
separates the simple blocks (the random-element method of Murota,
Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math. 27 (2010)); the
eigenvectors of each of its eigenvalue clusters are the isometry onto
a block, so no block projection is formed and diagonalized again.  In
each block a spectral projection of the hermitian part of compressed
right multiplication by one random vector is a minimal projection that
cuts the block down to a column space.  Central and right
multiplications preserve the row of a basis vector, so the column space
splits by rows inside itself: with ``V`` its isometry and ``P_j`` the
projection onto row ``j``, ``V* P_j V`` is a ``d x d`` projection whose
range gives the row-``j`` columns.  Compressing *left*
multiplication to those column spaces is an algebra map by
construction, which is what makes ``gamma`` multiplicative.  The
blocks are ordered by dimension and row profile, so ``X`` does not
depend on the random draws; ``gamma`` is fixed up to a unitary gauge
that the draws choose, so a seed fixes every byte of the result.
Every product whose result would exceed the slab budget
``qsystem._SLAB_BYTES`` runs in slabs of its leading index, with at
most two slabs alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    _hcomp_plan,
    sector_mask,
)
from .errors import (
    CellMismatch,
    DegenerateRandomElement,
    InvalidQSystem,
    NormalizationFailure,
    NotAProjection,
)
from .linalg import (Tolerance, _check_projection, _eigen_clusters, dagger, frob,
                     herm_part, range_isometry)
from .qsystem import (
    DualPair,
    QSystemData,
    _slab_sum,
    _slabs,
    check_qsystem_iso,
    qsystem_from_dual,
    standard_dual_pair,
)
from .report import ResidualReport

__all__ = [
    "SplitResult",
    "split_projection",
    "regular_reps",
    "center_basis",
    "central_decomposition",
    "split_qsystem",
]

_MAX_RANDOM_ATTEMPTS = 5


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Output of Q-system splitting: new zero-cell ``k``, balanced dual
    pair with ``X : k -> b``, the unitary ``gamma : X . Xbar -> Q``, the
    residuals ``iso`` of ``gamma : dual -> Q`` as a Q-system isomorphism
    (``check_qsystem_iso``), and ``dual = qsystem_from_dual(pair)``."""

    k: ZeroCell
    pair: DualPair
    gamma: BlockTwoCell
    iso: ResidualReport
    dual: QSystemData


def split_projection(x: GradedOneCell, p: BlockTwoCell,
                     tol: Tolerance = Tolerance()):
    """Split a hermitian idempotent ``p`` on ``x`` as ``u u*``.

    Returns ``(y, u)`` with ``u : y -> x`` an isometry, ``u* u = id`` and
    ``u u* = p``.  ``y`` carries one basis vector per unit of sector
    rank, graded pairs sorted by (row, col).

    ``|p - p*|``, ``|p^2 - p|`` and the norm of ``p`` off the grading
    sectors must be at most ``10 atol max(1, |p|)`` (``NotAProjection``);
    then the eigenvectors above 1/2 of each sector block span its range.
    """
    if p.source is not x or p.target is not x:
        raise NotAProjection("projection must be an endo two-cell on x")
    _check_projection(p.mat, tol)
    if frob(p.mat[~sector_mask(x, x)]) > 10 * tol.atol * max(1.0, frob(p.mat)):
        raise NotAProjection("matrix has weight off the grading sectors")

    grading: list[tuple[int, int]] = []
    cols = [np.zeros((x.dim, 0), dtype=complex)]   # u's columns, sector by sector
    for g, idx in sorted(x.sectors().items()):
        w, e = np.linalg.eigh(herm_part(p.mat[np.ix_(idx, idx)]))
        v = np.zeros((x.dim, np.count_nonzero(w > 0.5)), dtype=complex)
        v[idx] = e[:, w > 0.5]
        grading += [g] * v.shape[1]
        cols.append(v)
    y = GradedOneCell(x.src, x.tgt, tuple(grading))
    return y, BlockTwoCell(y, x, np.hstack(cols))


def regular_reps(q: QSystemData, tol: Tolerance = Tolerance()) -> np.ndarray:
    """``q.tensor`` of a valid Q-system, whose slices ``t[:, a, :]`` and
    ``t[:, :, b]`` are its left and right multiplication operators;
    ``InvalidQSystem`` if ``q.residuals`` exceeds ``10 atol``."""
    if not q.residuals.passes(10 * tol.atol):
        name, value = q.residuals.worst()
        raise InvalidQSystem(f"axiom {name} fails with residual {value:.3e}")
    return q.tensor


def center_basis(t: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis (as columns) of the center of the algebra with
    multiplication tensor ``t``.

    ``z`` is central iff ``z a - a z = 0`` for every basis vector ``a``,
    so the center is the null space of the ``N^2 x N`` map
    ``C : z -> (t[:, z, a] - t[:, a, z])_a``: the eigenvectors of the
    ``N x N`` Gram ``C* C`` with eigenvalue at most
    ``(gap_tol * max(1, sigma_max))^2``, that is, the singular vectors of
    ``C`` with singular value at most ``gap_tol * max(1, sigma_max)``.

    ``C`` has ``N^3`` entries.  The Gram is summed over slabs of its rows
    ``(i, a)`` with ``i`` in a slab of at most ``qsystem._SLAB_BYTES``
    (512 KiB), each slab next to its conjugate, so at most two slabs are
    alive; below the budget it is the one product it always was.
    """
    n = t.shape[0]

    def gram(s):
        slab = t[s]
        comm = (slab.transpose(0, 2, 1) - slab).reshape(len(slab) * n, n)
        return dagger(comm) @ comm

    lam, e = np.linalg.eigh(_slab_sum(gram, n, n * n))
    return e[:, lam <= tol.gap_tol ** 2 * lam.max(initial=1.0)]


def central_decomposition(q: QSystemData, tol: Tolerance = Tolerance(),
                          rng: np.random.Generator | int | None = None):
    """Minimal central projections ``w w*`` of the multiplication algebra
    of Q, with ``w`` the eigenvector blocks of ``_central_projections``."""
    ws = _central_projections(regular_reps(q, tol), tol, np.random.default_rng(rng))
    return [w @ dagger(w) for w in ws]


def _central_projections(t: np.ndarray, tol: Tolerance, rng: np.random.Generator):
    """Eigenvectors ``w`` of each minimal central projection ``w w*``,
    sorted by rank, then by first supported basis vector; retries with
    fresh randomness if an element fails to separate the blocks."""
    # L_z for each basis vector z of the center; these span the joint
    # commutant of left and right multiplication, which is closed under
    # adjoints, so the hermitian part of a random combination stays in it.
    # L_z[i, b] = sum_a z[a] t[i, a, b] is one product with t laid out
    # [a, (i, b)], copied slab by slab of i rather than as a whole
    basis = center_basis(t, tol)
    n, k = basis.shape
    center = np.empty((k, n, n), dtype=complex)
    for s in _slabs(n, n * n):
        slab = t[s].transpose(1, 0, 2)
        rows = slab.shape[1]
        center[:, s] = np.dot(basis.T, slab.reshape(n, rows * n)).reshape(k, rows, n)
    for _ in range(_MAX_RANDOM_ATTEMPTS):
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        h = herm_part(sum(c * z for c, z in zip(coeff, center)))
        clusters = _eigen_clusters(h, tol)
        if len(clusters) == k:
            return sorted((w for _, w in clusters), key=_support_key)
    raise DegenerateRandomElement(
        f"could not separate {k} central blocks in {_MAX_RANDOM_ATTEMPTS} attempts")


def _support_key(w: np.ndarray):
    diag = np.einsum("ij,ij->i", w.conj(), w).real
    first = int(np.argmax(diag > diag.max() * 1e-6)) if diag.size else 0
    return (w.shape[1], first)


def _minimal_projection(t, w, d, tol, rng):
    """Orthonormal eigenvectors ``e`` (``w.shape[1] x d``) of a rank-``d``
    spectral projection of ``herm(w* (t @ x) w)``, the compressed right
    multiplication by a random complex Gaussian ``x`` (columns of ``w`` =
    block range).  Its hermitian parts cover every hermitian element of
    the compressed span plus its adjoints, so ``x`` is generic with
    probability 1."""
    n = t.shape[0]
    for _ in range(_MAX_RANDOM_ATTEMPTS):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        clusters = _eigen_clusters(herm_part(dagger(w) @ (t @ x) @ w), tol)
        if all(e.shape[1] == d for _, e in clusters) and len(clusters) * d == w.shape[1]:
            return clusters[0][1]
    raise DegenerateRandomElement("no generic element found in a matrix block")


def split_qsystem(q: QSystemData, tol: Tolerance = Tolerance(),
                  rng: np.random.Generator | int | None = None) -> SplitResult:
    """Split a Q-system as ``X . Xbar`` over a new zero-cell.

    Steps: regular representations; central decomposition into ``k``
    simple blocks, each given by its eigenvectors ``w``; one minimal
    right-multiplication projection per block, whose ``d`` eigenvectors
    ``e`` give the isometry ``V = w e`` onto the block's column space;
    the column spaces, refined by the row grading, become the sectors
    of ``X``, blocks sorted by dimension, then by rows and their column
    counts; compressed left multiplication, rescaled to be isometric
    block by block, is ``gamma*``.

    The row-``j`` columns of a block are ``P_j V x``, with ``x`` the
    eigenvalue-1 eigenvectors of the ``d x d`` projection ``V* P_j V``
    (``range_isometry``, so its projection gate runs there); the ranks
    over the rows must add up to ``d``.

    The returned data satisfies ``gamma`` unitary,
    ``gamma (id . ev . id) = m (gamma . gamma)`` and
    ``gamma coev = i`` within ``10 atol``.  A zero-dimensional ``Q``
    raises ``CellMismatch``: its split would need a zero-cell of size 0.
    """
    if q.Q.dim == 0:
        raise CellMismatch("cannot split a zero-dimensional Q-system: "
                           "it would need a zero-cell of size 0")
    tensor = regular_reps(q, tol)
    rng = np.random.default_rng(rng)
    ws = _central_projections(tensor, tol, rng)
    Q = q.Q
    n_rows = Q.tgt.n
    N = Q.dim

    row_idx = [np.flatnonzero(Q.rows == j) for j in range(1, n_rows + 1)]

    blocks = []  # (d_t, {row j: columns in row j}, N x d_t isometry grouped by row)
    for w in ws:
        m_t = w.shape[1]
        d_t = isqrt(m_t)
        if d_t * d_t != m_t:
            raise InvalidQSystem("central block dimension is not a perfect square")
        # V = w e spans the column space; central and right multiplications
        # preserve rows, so V* P_j V is the projection onto its row-j part
        v = w @ _minimal_projection(tensor, w, d_t, tol, rng)
        counts, cols = {}, []
        for j, idx in enumerate(row_idx, start=1):
            vj = v[idx]
            x = range_isometry(dagger(vj) @ vj, tol)
            if x.shape[1]:
                u = np.zeros((N, x.shape[1]), dtype=complex)
                u[idx] = vj @ x
                counts[j] = x.shape[1]
                cols.append(u)
        if sum(counts.values()) != d_t:
            raise InvalidQSystem("block column space does not refine the row grading")
        blocks.append((d_t, counts, np.hstack(cols)))
    blocks.sort(key=lambda b: (b[0], list(b[1].items())))
    k = len(blocks)

    # X : k -> b, grading pairs (row j, block t) sorted lexicographically
    grading = tuple((j, t) for j in range(1, n_rows + 1)
                    for t, (_, counts, _) in enumerate(blocks, start=1)
                    for _ in range(counts.get(j, 0)))
    X = GradedOneCell(ZeroCell(k), Q.tgt, grading)
    pair = standard_dual_pair(X)
    src, p_idx, _ = _hcomp_plan(X, pair.Xbar)
    block_of = X.cols[p_idx]

    # compressed left multiplication per block, rescaled to an isometry;
    # the basis pairs of X . Xbar in block t are, in order, the (alpha,
    # beta) of its column space in row-major order
    gdag = np.zeros((src.dim, N), dtype=complex)
    for t, (d, _, v) in enumerate(blocks, start=1):
        # v* L_a v for each basis vector a, in slabs of a: the product
        # v* L_a holds d N entries per a
        mmat = np.concatenate([dagger(v) @ tensor[:, s].transpose(1, 0, 2) @ v
                               for s in _slabs(N, d * N)])
        mmat = mmat.transpose(1, 2, 0).reshape(d * d, N)
        gram = mmat @ dagger(mmat)
        s2 = float(np.real(np.trace(gram))) / (d * d)
        if s2 <= 0 or frob(gram - s2 * np.eye(d * d)) > 1e-6 * max(1.0, s2) * d * d:
            raise NormalizationFailure(
                "compressed left multiplication is not a scalar multiple of an isometry")
        gdag[block_of == t] = (1.0 / np.sqrt(s2)) * mmat
    # zero the numerical dust on mismatched (row, col) sectors
    gamma = BlockTwoCell(src, Q, np.where(sector_mask(Q, src), dagger(gdag), 0))

    dual = qsystem_from_dual(pair)
    iso = check_qsystem_iso(gamma, dual, q)
    if not iso.passes(10 * tol.atol):
        name, value = iso.worst()
        raise NormalizationFailure(
            f"splitting produced gamma with {name} residual {value:.3e}")
    return SplitResult(ZeroCell(k), pair, gamma, iso, dual)
