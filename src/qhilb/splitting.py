"""Splitting projections and Q-systems.

``split_projection`` realizes local orthogonal projection completeness
of the graded matrix model; it checks the whole projection once.
``split_qsystem`` realizes Q-system completeness: every Q-system ``Q``
is exhibited as ``X . Xbar`` for a balanced dual pair over a new
zero-cell, together with the unitary ``gamma : X . Xbar -> Q``
intertwining multiplication and unit.  Its gate, the axiom residuals of
``Q`` within ``10 atol``, is decided after the split: ``axiom_bounds``
bounds those residuals from the split's own isomorphism rows, and only
when that bound does not certify the gate, or the split raised, does the
full ``check_qsystem`` run (through the cached ``QSystemData.residuals``,
so no Q-system is checked twice).  The bound is an upper bound on the
computed residuals, so the decision is the one the check would make,
for one pass over ``m`` and ``gamma`` where the check costs ``N^5`` at
one row.

The algorithm works on the total space of ``Q`` viewed as an
associative algebra via left/right multiplication operators, the
slices ``t[:, a, :]`` and ``t[:, :, b]`` of the dense ``N x N x N``
multiplication tensor ``t``.  This module is the one place that knows
that layout: ``regular_reps`` builds ``t`` from ``m`` once per split,
and ``split_qsystem`` drops it before it builds the dual's ``m`` and
runs ``check_qsystem_iso``, which, like ``check_qsystem``, reads the
sector blocks of ``m``.
The center is the null space of the ``N^2 x N`` commutator map
``z -> z a - a z``, from ``eigh`` of its ``N x N`` Gram matrix.  A joint
spectral refinement (after Maehara and Murota, SIAM J. Matrix Anal.
Appl. 32 (2011)) separates the simple blocks: left multiplications
``L_z`` by the center basis vectors cut the identity into pieces by the
eigenvalue clusters of the hermitian parts of ``L_z`` and ``-i L_z``,
one piece per block, whose eigenvectors are the isometry onto it, so no
block projection is formed and diagonalized again.  Right
multiplications by a block's own vectors cut it down the same way,
keeping the smallest cluster, to the range of a minimal projection, a
column space.  Central and right multiplications preserve the row of a
basis vector, so the column space splits by rows inside itself: with
``V`` its isometry and ``P_j`` the projection onto row ``j``, ``V* P_j
V`` is a ``d x d`` projection whose range gives the row-``j`` columns.
Compressing *left* multiplication to those column spaces is an algebra
map by construction, which is what makes ``gamma`` multiplicative.  The
blocks are ordered by dimension and row profile.  Nothing is random:
the same ``Q`` gives the same bytes of the result.
Every product whose result would exceed the slab budget
``qsystem._SLAB_BYTES`` runs in slabs of its leading index, with at
most two slabs alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt

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
    _sq,
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
    "axiom_bounds",
]

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


def _gate(q: QSystemData, tol: Tolerance) -> None:
    """The full gate: ``InvalidQSystem`` if ``q.residuals`` (one
    ``check_qsystem``, cached on ``q``) exceeds ``10 atol``."""
    if not q.residuals.passes(10 * tol.atol):
        name, value = q.residuals.worst()
        raise InvalidQSystem(f"axiom {name} fails with residual {value:.3e}")


def regular_reps(q: QSystemData) -> np.ndarray:
    """The multiplication of ``q`` as a new read-only ``N x N x N``
    array: ``t[i, a, b]`` is the coefficient of basis vector ``i`` in
    the product of ``a`` and ``b`` (zero for pairs that do not compose),
    so ``t[:, a, :]`` and ``t[:, :, b]`` are its left and right
    multiplication operators.  It checks nothing: its callers gate."""
    n = q.Q.dim
    _, p_idx, q_idx = _hcomp_plan(q.Q, q.Q)
    t = np.zeros((n, n, n), dtype=complex)
    t[:, p_idx, q_idx] = q.m.mat
    t.flags.writeable = False
    return t


def center_basis(t: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Orthonormal basis (as columns) of the center of the algebra with
    multiplication tensor ``t``.

    ``z`` is central iff ``z a - a z = 0`` for every basis vector ``a``,
    so the center is the null space of the ``N^2 x N`` map
    ``C : z -> (t[:, z, a] - t[:, a, z])_a``.  Its basis is the
    eigenvectors of the ``N x N`` Gram ``C* C`` with eigenvalue at most
    ``max(gap_tol^2, N eps) * max(1, lambda_max)``, ``eps`` the float64
    machine epsilon: the singular vectors of ``C`` with singular value at
    most ``gap_tol * max(1, sigma_max)``, unless that cut lies below the
    floor ``N eps``.  The floor is ``eigh``'s rounding of the Gram, which
    null eigenvalues can reach; without it a ``gap_tol`` below about
    1.5e-8 lost central vectors.  At the default ``gap_tol`` it acts only
    from about N = 4,500.

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
    cut = max(tol.gap_tol ** 2, n * np.finfo(float).eps) * lam.max(initial=1.0)
    return e[:, lam <= cut]


def central_decomposition(q: QSystemData, tol: Tolerance = Tolerance()):
    """Minimal central projections ``w w*`` of the multiplication algebra
    of Q, with ``w`` the eigenvector blocks of ``_central_projections``;
    ``InvalidQSystem`` first if the full check of ``q`` exceeds
    ``10 atol``."""
    _gate(q, tol)
    return [w @ dagger(w) for w in _central_projections(regular_reps(q), tol)]


def _clusters(v: np.ndarray, h: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Isometries ``v e`` onto the eigenvalue clusters of ``v* h v``,
    ascending, for an isometry ``v`` and a hermitian ``h``."""
    return [v @ e for _, e in _eigen_clusters(dagger(v) @ h @ v, tol)]


def _central_projections(t: np.ndarray, tol: Tolerance):
    """Eigenvectors ``w`` of each minimal central projection ``w w*``,
    sorted by rank, then by first supported basis vector: starting from
    the identity, each center basis vector ``z`` in turn splits every
    piece ``w`` by the clusters of ``w* herm(L_z) w``, then of ``w*
    herm(-i L_z) w``, until there are ``k`` pieces, with ``L_z = z @ t``.
    On a Q-system the ``L_z`` are scalars on the blocks that the basis
    tells apart, so this ends; ``InvalidQSystem`` if it does not."""
    basis = center_basis(t, tol)
    k = basis.shape[1]
    pieces = [np.eye(t.shape[0], dtype=complex)]
    for z in basis.T:
        if len(pieces) == k:
            break
        lz = z @ t
        for h in (herm_part(lz), herm_part(-1j * lz)):
            i = 0
            while i < len(pieces) < k:
                pieces[i:i + 1] = split = _clusters(pieces[i], h, tol)
                i += len(split)
    if len(pieces) != k:
        raise InvalidQSystem(f"could not separate {k} central blocks")
    return sorted(pieces, key=_support_key)


def _support_key(w: np.ndarray):
    diag = np.einsum("ij,ij->i", w.conj(), w).real
    first = int(np.argmax(diag > diag.max() * 1e-6)) if diag.size else 0
    return (w.shape[1], first)


def _minimal_projection(t: np.ndarray, w: np.ndarray, d: int, tol: Tolerance) -> np.ndarray:
    """Isometry ``v`` (``N x d``) onto the range of a minimal projection
    of the block with eigenvectors ``w``: from ``v = w``, each column
    ``x`` of ``w`` in turn cuts ``v`` to the smallest cluster (the first
    on a tie) of ``v* herm(R_x) v``, then of ``v* herm(-i R_x) v``, until
    its rank is ``d``, with ``R_x = t @ x``.  On a Q-system the ``R_x``
    span the block's ``M_d`` acting on the right, so cluster ranks are
    multiples of ``d``; ``InvalidQSystem`` if it ends elsewhere."""
    v = w
    for x in w.T:
        if v.shape[1] <= d:
            break
        rx = t @ x
        for h in (herm_part(rx), herm_part(-1j * rx)):
            if v.shape[1] > d:
                v = min(_clusters(v, h, tol), key=lambda c: c.shape[1])
    if v.shape[1] != d:
        raise InvalidQSystem("no generic element found in a matrix block")
    return v


def split_qsystem(q: QSystemData, tol: Tolerance = Tolerance()) -> SplitResult:
    """Split a Q-system as ``X . Xbar`` over a new zero-cell.

    Steps: regular representations; central decomposition into ``k``
    simple blocks, each given by its eigenvectors ``w``; per block, the
    range of a minimal projection that right multiplications cut out of
    ``w``, with isometry ``V`` (``N x d``): the block's column space;
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

    The gate is the one it always was, ``InvalidQSystem`` when an axiom
    residual of ``check_qsystem(q)`` exceeds ``10 atol``, but it is
    decided after the split.  When ``axiom_bounds(q, result)``, a bound
    on those residuals read off the split's own isomorphism rows, is
    within ``10 atol``, the residuals are too and no check runs.  When
    it is not, or the split raised, the full check decides: it raises
    the gate's error, or the split's result or exception is handed on.
    The result is that of a split made after the check, so only the
    cost differs; a warning the split shows (numpy's, on overflow) is
    shown even when the gate then fails.
    """
    if q.Q.dim == 0:
        raise CellMismatch("cannot split a zero-dimensional Q-system: "
                           "it would need a zero-cell of size 0")
    try:
        out = _split(q, tol)
        certified = axiom_bounds(q, out).passes(10 * tol.atol)
    except Exception:   # the gate decides what a failed split means
        _gate(q, tol)
        raise
    if not certified:
        _gate(q, tol)
    return out


def _split(q: QSystemData, tol: Tolerance) -> SplitResult:
    """``split_qsystem`` without its gate."""
    tensor = regular_reps(q)   # dropped before the dual is built
    ws = _central_projections(tensor, tol)
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
        # V spans the column space; central and right multiplications
        # preserve rows, so V* P_j V is the projection onto its row-j part
        v = _minimal_projection(tensor, w, d_t, tol)
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
        s2 = _sq(mmat) / (d * d)
        if s2 <= 0:
            raise NormalizationFailure("compressed left multiplication vanishes on a block")
        gdag[block_of == t] = (1.0 / np.sqrt(s2)) * mmat
    # zero the numerical dust on mismatched (row, col) sectors
    gamma = BlockTwoCell(src, Q, np.where(sector_mask(Q, src), dagger(gdag), 0))
    del tensor

    dual = qsystem_from_dual(pair)
    iso = check_qsystem_iso(gamma, dual, q)
    if not iso.passes(10 * tol.atol):
        name, value = iso.worst()
        raise NormalizationFailure(
            f"splitting produced gamma with {name} residual {value:.3e}")
    return SplitResult(ZeroCell(k), pair, gamma, iso, dual)


# A float64 product whose entries sum at most n nonzero terms is within
# _kappa(n) of the exact one, times the product of the absolute values
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# section 3.6: sqrt(2) gamma_(n+2) for complex data, below (n + 2) eps);
# exact zeros round nothing, in any order of summation.  _GROW covers
# every relative rounding: of a norm of n entries (below n eps, so under
# 1e-3 for n below 4e12), of a difference, and of evaluating a bound.
_EPS = float(np.finfo(float).eps)
_GROW = 1 + 1e-3


def _kappa(n: int) -> float:
    return (n + 2) * _EPS


def _dual_residuals(X: GradedOneCell) -> ResidualReport:
    """``check_qsystem`` of ``qsystem_from_dual(standard_dual_pair(X))``
    in closed form: the exact residuals of its stored entries, rounded
    once.

    With ``d_c`` the basis vectors of ``X`` over column ``c``, its ``m``
    holds only ``w_c = fl(1 / fl(sqrt(d_c)))`` and its unit only
    ``s_c = fl(sqrt(d_c))``, on the ``d_c^2`` basis vectors of column
    ``c``.  Every entry of either side of Q1 or of Q3 is the same
    product of two ``w``, so both are exactly 0.  ``m (i . 1)``,
    ``m (1 . i)`` and ``m m*`` are diagonal, ``s_c w_c`` and ``d_c w_c^2``
    on column ``c``.  Info: ``unit_norm`` is ``|i|_F``, and ``m_norm``
    the operator norm ``max_c sqrt(d_c) w_c`` of ``m``."""
    d = np.bincount(X.cols - 1, minlength=X.src.n)
    unit = sep = norm = top = 0
    for n, s in zip(d.tolist(), np.sqrt(d).tolist()):
        w = Fraction(1.0 / s)
        unit += n * n * (Fraction(s) * w - 1) ** 2
        sep += n * n * (n * w * w - 1) ** 2
        norm += n * Fraction(s) ** 2
        top = max(top, n * w * w)
    rep = ResidualReport()
    for name, value in (("Q1", 0), ("Q2", unit), ("Q3", 0), ("Q4", sep)):
        rep.add(name, sqrt(value))
    rep.add_info("unit_norm", sqrt(norm))
    rep.add_info("m_norm", sqrt(top))
    return rep


def axiom_bounds(q: QSystemData, res: SplitResult) -> ResidualReport:
    """Upper bounds on the four axiom residuals that ``check_qsystem(q)``
    computes, read off a split ``res`` of ``q``, or ``inf`` where none
    follows.  They need the isomorphism rows ``u`` (unitary), ``e``
    (multiplication) and ``e_i`` (unit), the residuals ``q'`` of the
    dual-pair Q-system ``Q'`` in closed form (``_dual_residuals``, with
    ``mu = ||m'||`` and ``|i'|``), and, for rounding, ``|m|``, ``|i|``,
    ``|gamma|`` and the largest row or column size ``r`` of ``Q``.
    ``|.|`` is the Frobenius norm and ``||.||`` the operator norm.

    In exact arithmetic: ``gamma* gamma = 1 + H`` with ``|H| = u``.  For
    ``u < 1/2``, ``gamma = W P`` with ``W`` a sector unitary and ``P =
    (1 + H)^(1/2)``, ``|P - 1| <= u`` and ``|P^-1 - 1| <= u / sqrt(1 -
    u)``.  ``Q'`` carried over by ``W``, ``m_W = W m' (W* . W*)`` and
    ``i_W = W i'``, has exactly the residuals ``q'``, and from ``m
    (gamma . gamma) = gamma m' - E``, ``|E| = e``, ``m = m_W + F`` and
    ``i = i_W + F_i`` with ``|F| <= f = (3 mu u + e) / (1 - u)`` and
    ``|F_i| <= f_i = u |i'| + e_i``.  Each axiom, expanded in ``F`` and
    ``F_i``, then differs from ``q'`` by at most

        Q1, Q3:  4 mu f + 2 f^2        Q2:  mu f_i + |i'| f + f f_i
        Q4:      2 mu f + f^2

    using ``||F . 1|| = ||F|| <= |F|``, ``||i_W . 1|| <= |i'|`` and
    ``|m_W (Y . 1)| <= mu |Y|`` with its mirror image, which holds for a
    dual-pair ``m'``: over the basis ``b``, ``sum |m'(x . b)|^2 <= mu^2
    |x|^2``.

    Rounding: each product in the checks sums one sector, at most ``r``
    nonzero terms (``m m*`` at most ``r^2``), so by ``_kappa`` and
    Cauchy-Schwarz the exact ``u``, ``e`` and ``e_i`` exceed the
    computed rows by at most ``kappa |gamma|^2``, ``kappa |gamma| (|m'|
    + 2 ||gamma|| |m| + kappa |gamma| |m|)`` and ``kappa |gamma| |i'|``
    (``kappa = _kappa(r)``, ``|m'| <= sqrt(N) mu``, ``||gamma|| <= sqrt(1
    + u)``), and the computed residuals exceed the exact ones by at most
    ``2 kappa |m|^2`` (Q1, Q3), ``kappa |m| |i|`` (Q2) and ``_kappa(r^2)
    |m|^2`` (Q4).  Every input and the result are raised by ``_GROW``.
    A bound of this kind certifies a computed result a posteriori (Rump,
    "Verification methods", Acta Numerica 19, 2010).
    """
    Q = q.Q
    r = int(max(np.bincount(Q.rows).max(), np.bincount(Q.cols).max()))
    kappa = _kappa(r)
    dual = _dual_residuals(res.pair.X)
    mu, i1 = (_GROW * dual.info[key] for key in ("m_norm", "unit_norm"))
    g, mq, iq = (_GROW * sqrt(_sq(a)) for a in (res.gamma.mat, q.m.mat, q.i.mat))
    u = _GROW * res.iso["unitary"] + kappa * g * g
    rep = ResidualReport()
    if not u < 0.5:
        for name in dual:
            rep.add(name, np.inf)
        return rep
    e = _GROW * res.iso["multiplication"] \
        + kappa * g * (sqrt(Q.dim) * mu + 2 * sqrt(1 + u) * mq + kappa * g * mq)
    f = (3 * mu * u + e) / (1 - u)
    fi = u * i1 + _GROW * res.iso["unit"] + kappa * g * i1
    assoc = 4 * mu * f + 2 * f * f + 2 * kappa * mq * mq
    terms = {"Q1": assoc,
             "Q2": mu * fi + i1 * f + f * fi + kappa * mq * iq,
             "Q3": assoc,
             "Q4": 2 * mu * f + f * f + _kappa(r * r) * mq * mq}
    for name, value in dual.items():
        rep.add(name, _GROW * (value + terms[name]))
    return rep
