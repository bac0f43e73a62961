"""Splitting projections and Q-systems.

``split_projection`` realizes local orthogonal projection completeness
of the graded matrix model.  ``split_qsystem`` realizes Q-system
completeness: every Q-system ``Q`` is exhibited as ``X . Xbar`` for a
balanced dual pair over a new zero-cell, together with the unitary
``gamma : X . Xbar -> Q`` intertwining multiplication and unit.

The algorithm works on the total space of ``Q`` viewed as an
associative algebra via left/right multiplication operators.  The
center is the null space of the commutator map ``z -> z a - a z`` on
the structure constants (an ``N^2 x N`` matrix), the hermitian part of
left multiplication by a random central element separates the simple
blocks (the random-element method of Murota, Kanno, Kojima and Kojima,
Japan J. Indust. Appl. Math. 27 (2010)), and a minimal projection in
the compressed right-multiplication algebra cuts each block down to a
column space.  Compressing *left* multiplication to those column spaces
is an algebra map by construction, which is what makes ``gamma``
multiplicative.
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
    projection_residual,
    sector_mask,
)
from .errors import (
    DegenerateRandomElement,
    InvalidQSystem,
    NormalizationFailure,
    NotAProjection,
)
from .linalg import Tolerance, dagger, frob, herm_part, range_isometry, spectral_projections
from .qsystem import (
    DualPair,
    QSystemData,
    _mult_tensor,
    check_qsystem,
    check_qsystem_iso,
    qsystem_from_dual,
    standard_dual_pair,
)
from .report import ResidualReport

__all__ = [
    "SplitResult",
    "RegularRep",
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
    pair with ``X : k -> b``, the unitary ``gamma : X . Xbar -> Q``, and
    ``iso``, the residuals of ``gamma`` as a Q-system isomorphism
    (``check_qsystem_iso``)."""

    k: ZeroCell
    pair: DualPair
    gamma: BlockTwoCell
    iso: ResidualReport


@dataclass(frozen=True, eq=False)
class RegularRep:
    """Left/right multiplication operators on the total space of Q,
    one per basis vector, as views of the multiplication tensor
    ``t[i, a, b]`` (coefficient of ``e_i`` in ``e_a e_b``)."""

    tensor: np.ndarray

    @property
    def left_ops(self) -> np.ndarray:
        """``left_ops[a] = t[:, a, :]``, multiplication by ``e_a`` from the left."""
        return self.tensor.transpose(1, 0, 2)

    @property
    def right_ops(self) -> np.ndarray:
        """``right_ops[b] = t[:, :, b]``, multiplication by ``e_b`` from the right."""
        return self.tensor.transpose(2, 0, 1)


def split_projection(x: GradedOneCell, p: BlockTwoCell,
                     tol: Tolerance = Tolerance()):
    """Split a hermitian idempotent ``p`` on ``x`` as ``u u*``.

    Returns ``(y, u)`` with ``u : y -> x`` an isometry, ``u* u = id`` and
    ``u u* = p``.  ``y`` carries one basis vector per unit of sector
    rank, graded pairs sorted by (row, col).
    """
    if p.source != x or p.target != x:
        raise NotAProjection("projection must be an endo two-cell on x")
    scale = max(1.0, frob(p.mat))
    if projection_residual(p) > 10 * tol.atol * scale:
        raise NotAProjection("two-cell is not a hermitian idempotent")

    sectors = x.sectors()
    grading: list[tuple[int, int]] = []
    blocks = []   # (basis indices of a sector, isometry onto its range)
    for g in sorted(sectors):
        idx = np.array(sectors[g], dtype=int)
        v = range_isometry(herm_part(p.mat[np.ix_(idx, idx)]), tol)
        grading += [g] * v.shape[1]
        blocks.append((idx, v))
    y = GradedOneCell(x.src, x.tgt, tuple(grading))
    mat = np.zeros((x.dim, y.dim), dtype=complex)
    col = 0
    for idx, v in blocks:
        mat[idx, col:col + v.shape[1]] = v
        col += v.shape[1]
    return y, BlockTwoCell(y, x, mat)


def regular_reps(q: QSystemData, tol: Tolerance = Tolerance()) -> RegularRep:
    """Left and right multiplication operators of a valid Q-system."""
    rep = check_qsystem(q)
    if not rep.passes(10 * tol.atol):
        name, value = rep.worst()
        raise InvalidQSystem(f"axiom {name} fails with residual {value:.3e}")
    return RegularRep(_mult_tensor(q))


def _random_hermitian_in_span(rng: np.random.Generator, basis) -> np.ndarray:
    coeff = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    t = sum(c * b for c, b in zip(coeff, basis))
    return herm_part(t)


def center_basis(t: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis (as columns) of the center of the algebra with
    multiplication tensor ``t``.

    ``z`` is central iff ``z a - a z = 0`` for every basis vector ``a``,
    so the center is the null space of the ``N^2 x N`` map
    ``z -> (t[:, z, a] - t[:, a, z])_a``.  Singular values at most
    ``gap_tol * max(1, sigma_max)`` count as zero.
    """
    n = t.shape[0]
    comm = (t.transpose(0, 2, 1) - t).reshape(n * n, n)
    _, s, vh = np.linalg.svd(comm, full_matrices=False)
    cut = tol.gap_tol * max(1.0, float(s[0]) if len(s) else 1.0)
    return vh[s <= cut].conj().T


def central_decomposition(q: QSystemData, tol: Tolerance = Tolerance(),
                          rng: np.random.Generator | int | None = None):
    """Minimal central projections of the multiplication algebra of Q.

    Spectral projections of the hermitian part of left multiplication
    by a random central element.  Retries with fresh randomness if the
    sampled element fails to separate the blocks.
    """
    rng = np.random.default_rng(rng)
    rep = regular_reps(q, tol)
    return _central_from_rep(rep, tol, rng)


def _central_from_rep(rep: RegularRep, tol: Tolerance, rng: np.random.Generator):
    # L_z for each basis vector z of the center; these span the joint
    # commutant of left and right multiplication, which is closed under
    # adjoints, so the hermitian part of a random combination stays in it
    center = np.tensordot(center_basis(rep.tensor, tol), rep.left_ops, axes=(0, 0))
    k = len(center)
    for _ in range(_MAX_RANDOM_ATTEMPTS):
        h = _random_hermitian_in_span(rng, center)
        clusters = spectral_projections(h, tol)
        if len(clusters) != k:
            continue
        zs = [z for _, z in clusters]
        zs.sort(key=_support_key)
        return zs
    raise DegenerateRandomElement(
        f"could not separate {k} central blocks in {_MAX_RANDOM_ATTEMPTS} attempts")


def _support_key(z: np.ndarray):
    diag = np.abs(np.diag(z))
    rank = int(round(float(np.real(np.trace(z)))))
    first = int(np.argmax(diag > diag.max() * 1e-6)) if diag.size else 0
    return (rank, first)


def _minimal_projection(ops, w, d, tol, rng):
    """Rank-``d`` spectral projection of a random hermitian element of
    the compressed operator span (columns of ``w`` = block range)."""
    comp = dagger(w) @ ops @ w
    comp = np.concatenate([comp, comp.conj().transpose(0, 2, 1)])
    # orthonormalize the compressed span to draw uniformly from it
    vecs = comp.reshape(len(comp), -1).T
    u, s, _ = np.linalg.svd(vecs, full_matrices=False)
    keep = s > tol.gap_tol * max(1.0, float(s[0]) if len(s) else 1.0)
    basis = [u[:, j].reshape(comp[0].shape) for j in range(u.shape[1]) if keep[j]]
    for _ in range(_MAX_RANDOM_ATTEMPTS):
        h = _random_hermitian_in_span(rng, basis)
        clusters = spectral_projections(h, tol)
        ranks = [int(round(float(np.real(np.trace(p))))) for _, p in clusters]
        if all(r == d for r in ranks) and len(clusters) * d == w.shape[1]:
            return clusters[0][1]
    raise DegenerateRandomElement("no generic element found in a matrix block")


def split_qsystem(q: QSystemData, tol: Tolerance = Tolerance(),
                  rng: np.random.Generator | int | None = None) -> SplitResult:
    """Split a Q-system as ``X . Xbar`` over a new zero-cell.

    Steps: regular representations; central decomposition into ``k``
    simple blocks; one minimal right-multiplication projection per
    block; the column spaces, refined by the row grading, become the
    sectors of ``X``; compressed left multiplication, rescaled to be
    isometric block by block, is ``gamma*``.

    The returned data satisfies ``gamma`` unitary,
    ``gamma (id . ev . id) = m (gamma . gamma)`` and
    ``gamma coev = i`` within ``10 atol``.
    """
    rng = np.random.default_rng(rng)
    rep = regular_reps(q, tol)
    zs = _central_from_rep(rep, tol, rng)
    Q = q.Q
    n_rows = Q.tgt.n
    N = Q.dim

    rows = np.array([r for r, _ in Q.grading])

    blocks = []  # (d_t, per-row isometries {j: columns})
    for z in zs:
        w = range_isometry(z, tol)
        m_t = w.shape[1]
        d_t = isqrt(m_t)
        if d_t * d_t != m_t:
            raise InvalidQSystem("central block dimension is not a perfect square")
        f = w @ _minimal_projection(rep.right_ops, w, d_t, tol, rng) @ dagger(w)
        per_row = {}
        for j in range(1, n_rows + 1):
            pj = f * (rows == j)  # f composed with the row-j projection
            v = range_isometry(herm_part(pj), tol)
            if v.shape[1]:
                per_row[j] = v
        total = sum(v.shape[1] for v in per_row.values())
        if total != d_t:
            raise InvalidQSystem("block column space does not refine the row grading")
        blocks.append((d_t, per_row))
    blocks.sort(key=lambda b: (b[0], min(b[1])))
    k = len(blocks)

    # X : k -> b, grading pairs (row j, block t) sorted lexicographically
    grading = [(j, t) for j in range(1, n_rows + 1)
               for t, (_, per_row) in enumerate(blocks, start=1)
               if j in per_row for _ in range(per_row[j].shape[1])]
    X = GradedOneCell(ZeroCell(k), Q.tgt, tuple(grading))
    pair = standard_dual_pair(X)
    src, p_idx, _ = _hcomp_plan(X, pair.Xbar)
    block_of = np.array(grading)[p_idx, 1]

    # compressed left multiplication per block, rescaled to an isometry;
    # the basis pairs of X . Xbar in block t are, in order, the (alpha,
    # beta) of its column space in row-major order
    gdag = np.zeros((src.dim, N), dtype=complex)
    for t, (d, per_row) in enumerate(blocks, start=1):
        v = np.concatenate([per_row[j] for j in sorted(per_row)], axis=1)
        mmat = (dagger(v) @ rep.left_ops @ v).transpose(1, 2, 0).reshape(d * d, N)
        gram = mmat @ dagger(mmat)
        s2 = float(np.real(np.trace(gram))) / (d * d)
        if s2 <= 0 or frob(gram - s2 * np.eye(d * d)) > 1e-6 * max(1.0, s2) * d * d:
            raise NormalizationFailure(
                "compressed left multiplication is not a scalar multiple of an isometry")
        gdag[block_of == t] = (1.0 / np.sqrt(s2)) * mmat
    # zero the numerical dust on mismatched (row, col) sectors
    gamma = BlockTwoCell(src, Q, np.where(sector_mask(Q, src), dagger(gdag), 0))

    iso = check_qsystem_iso(gamma, qsystem_from_dual(pair), q)
    if not iso.passes(10 * tol.atol):
        name, value = iso.worst()
        raise NormalizationFailure(
            f"splitting produced gamma with {name} residual {value:.3e}")
    return SplitResult(ZeroCell(k), pair, gamma, iso)
