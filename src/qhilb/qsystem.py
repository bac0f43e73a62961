"""Q-systems, bimodules and intertwiners over graded matrices.

A Q-system is a one-cell ``Q : b -> b`` with multiplication
``m : Q . Q -> Q`` and unit ``i : unit -> Q`` satisfying associativity,
unitality, the Frobenius condition and separability ``m m* = id``.
Checkers report Frobenius-norm residuals per axiom and never raise on
failure: verification is the product.

``check_qsystem`` contracts associativity and the Frobenius condition
one grading sector at a time, on ``QSystemData.tensor``: the read-only
``N x N x N`` multiplication array that each Q-system builds once.
That equals the dense contraction only because ``m`` and ``i`` vanish
off their grading sectors, which ``QSystemData`` enforces.
``check_qsystem_iso`` goes by sector triples too, reading ``m`` at the
composable pairs, so it builds no tensor.  Both keep their working
memory to slabs of at most ``_SLAB_BYTES``, as does
``splitting.split_qsystem``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    _adjoint,
    _fold_plan,
    _hcomp_plan,
    dagger2,
    hcomp1,
    id1,
    id2,
    is_unitary_residual,
    off_sector_nonzero,
    residual,
    standard_dual,
    unitor_left,
    unitor_right,
    vcomp,
    vcomp_many,
)
from .errors import CellMismatch
from .linalg import Tolerance, frob
from .report import ResidualReport

__all__ = [
    "QSystemData",
    "DualPair",
    "BimoduleData",
    "check_qsystem",
    "trivial_qsystem",
    "qsystem_from_dual",
    "canonical_pairing",
    "check_dual_pair",
    "check_bimodule",
    "check_intertwiner",
    "relative_tensor",
    "check_qsystem_iso",
]


@dataclass(frozen=True, eq=False)
class QSystemData:
    """One-cell ``Q : b -> b`` with multiplication and unit two-cells."""

    Q: GradedOneCell
    m: BlockTwoCell
    i: BlockTwoCell

    def __post_init__(self):
        if self.Q.src != self.Q.tgt:
            raise CellMismatch("a Q-system lives on a single zero-cell")
        if self.m.source is not hcomp1(self.Q, self.Q) or self.m.target is not self.Q:
            raise CellMismatch("multiplication must map Q.Q -> Q")
        # the size first: id1 of a declared size no cell lists is never built
        if self.i.source.dim != self.Q.src.n or self.i.source is not id1(self.Q.src) \
                or self.i.target is not self.Q:
            raise CellMismatch("unit must map unit -> Q")
        for name, f in (("m", self.m), ("i", self.i)):
            if off_sector_nonzero(f):
                raise CellMismatch(f"{name} has a nonzero entry off its grading sectors")

    @property
    def zero_cell(self) -> ZeroCell:
        return self.Q.src

    @cached_property
    def tensor(self) -> np.ndarray:
        """The multiplication as a read-only N x N x N array: ``t[i, a, b]``
        is the coefficient of basis vector i in the product of a and b
        (zero for non-composable pairs).  ``t[:, a, :]`` is left and
        ``t[:, :, b]`` right multiplication by a basis vector."""
        n = self.Q.dim
        _, p_idx, q_idx = _hcomp_plan(self.Q, self.Q)
        t = np.zeros((n, n, n), dtype=complex)
        t[:, p_idx, q_idx] = self.m.mat
        t.flags.writeable = False
        return t

    @cached_property
    def residuals(self) -> ResidualReport:
        """``check_qsystem(self)``, computed once and shared by every reader."""
        return check_qsystem(self)


@dataclass(frozen=True, eq=False)
class DualPair:
    """Dual ``(x, xbar, ev, coev)`` with exact zig-zags and ``ev ev* = id``."""

    X: GradedOneCell
    Xbar: GradedOneCell
    ev: BlockTwoCell
    coev: BlockTwoCell


@dataclass(frozen=True, eq=False)
class BimoduleData:
    """One-cell with compatible left Q-action and right P-action."""

    P: QSystemData
    Q: QSystemData
    X: GradedOneCell
    lam: BlockTwoCell
    rho: BlockTwoCell

    def __post_init__(self):
        if self.lam.source is not hcomp1(self.Q.Q, self.X) or self.lam.target is not self.X:
            raise CellMismatch("left action must map Q.X -> X")
        if self.rho.source is not hcomp1(self.X, self.P.Q) or self.rho.target is not self.X:
            raise CellMismatch("right action must map X.P -> X")


# The working memory of one slab.  A contraction whose result would be
# larger runs over slabs of its leading index, with at most two slabs
# alive; one that fits runs once, as the single product it always was.
# 512 KiB is the smallest power of two above every block of ``gen``'s
# Q-systems (sectors of at most 12: an s^4 block of 324 KiB), so those
# keep their bytes; two slabs fit well inside a 2 MiB L2 cache.  On the
# qsys-large benchmark (2-vCPU Xeon, OpenBLAS) it gave a lower peak RSS
# than 1 MiB or 2 MiB, with no measured loss in files per second.
_SLAB_BYTES = 1 << 19


def _step(row: int) -> int:
    """Leading indices per slab of a complex result with ``row`` entries
    per index: at most ``_SLAB_BYTES``, but at least one index."""
    return max(1, _SLAB_BYTES // (16 * max(row, 1)))


def _slabs(n: int, row: int) -> list[slice]:
    """The slabs of ``range(n)`` for such a result; at least one slice
    (empty if ``n`` is 0)."""
    step = _step(row)
    return [slice(k, k + step) for k in range(0, max(n, 1), step)]


def _slab_sum(part, n: int, row: int):
    """``part(s)`` summed over ``_slabs(n, row)``, starting from the
    first term, so one slab returns ``part(slice(0, n))`` itself."""
    first, *rest = _slabs(n, row)
    total = part(first)
    for s in rest:
        total = total + part(s)
    return total


@lru_cache(maxsize=None)
def _sectors(Q: GradedOneCell) -> tuple[tuple[np.ndarray, ...], ...]:
    """``S[x][y]``: the basis indices of ``Q`` over ``(x + 1, y + 1)``."""
    n = Q.src.n
    return tuple(tuple(np.flatnonzero((Q.rows == x) & (Q.cols == y))
                       for y in range(1, n + 1)) for x in range(1, n + 1))


class _Block(NamedTuple):
    """A contiguous sector block and its two matrix views: rows over the
    first axis (``head``) and over the first two (``tail``)."""
    cube: np.ndarray
    head: np.ndarray
    tail: np.ndarray


class _SectorBlocks(dict):
    """``B[x, y, z]``: the block ``T(x, y, z)`` of the multiplication
    tensor ``t`` (``conj``: its conjugate, stored as ``[a, i, b]``),
    copied out of ``t`` on first use and kept as a ``_Block``."""

    def __init__(self, t: np.ndarray, index, conj: bool):
        super().__init__()
        self.t, self.index, self.conj = t, index, conj

    def __missing__(self, key) -> _Block:
        x, y, z = key
        i, a, b = self.index[x][z], self.index[x][y], self.index[y][z]
        if self.conj:
            cube = self.t[i[:, None], a[:, None, None], b]
            np.conjugate(cube, out=cube)
        else:
            cube = self.t[i[:, None, None], a[:, None], b]
        s0, s1, s2 = cube.shape
        block = self[key] = _Block(cube, cube.reshape(s0, s1 * s2),
                                   cube.reshape(s0 * s1, s2))
        return block


def _sq(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _q1_sq(T, r1, r2, r3, r4) -> float:
    """Squared norm of the associativity residual block of the quadruple:
    ``(ab)c - a(bc)`` for ``a, b, c`` over ``(r1, r2), (r2, r3), (r3, r4)``,
    both products as ``[i, a, b, c]``.

    The block holds ``s^4`` entries for sectors of dimension ``s``; it is
    formed in slabs of ``i`` of at most ``_SLAB_BYTES``, one slab of each
    product at a time, so at most two slabs are alive."""
    ab_u = T[r1, r2, r3].head.T      # t[u, a, b] as [ab, u]
    i_uc = T[r1, r3, r4].cube        # t[i, u, c]
    ia_v = T[r1, r2, r4].tail        # t[i, a, v] as [ia, v]
    v_bc = T[r2, r3, r4].head        # t[v, b, c] as [v, bc]
    n, s_a = len(i_uc), T[r1, r2, r4].cube.shape[1]
    step = _step(len(ab_u) * i_uc.shape[2])
    total = 0.0
    for k in range(0, n, step):
        left = np.matmul(ab_u, i_uc[k:k + step])         # (ab)c, batched over i
        right = ia_v[k * s_a:(k + step) * s_a] @ v_bc    # a(bc), one product
        total += _sq(np.subtract(left, right.reshape(left.shape), out=left))
    return total


def _q3_sq(T, C, r1, r2, r3, r4) -> float:
    """Squared norm of the Frobenius residual block ``(m . 1)(1 . m*) -
    m* m`` of the quadruple, for ``p, v`` over ``(r1, r2), (r2, r3)``
    and ``u, q`` over ``(r1, r4), (r4, r3)``, both as ``[p, u, q, v]``.

    Formed in slabs of ``p`` of at most ``_SLAB_BYTES``, as in
    ``_q1_sq``, so at most two slabs are alive."""
    uq_i = T[r1, r4, r3].head.T      # t[i, u, q] as [uq, i]
    p_iv = C[r1, r2, r3].cube        # conj t[i, p, v] as [p, i, v]
    pu_b = T[r1, r4, r2].tail        # t[p, u, b] as [pu, b]
    b_qv = C[r4, r2, r3].head        # conj t[q, b, v] as [b, qv]
    n, s_u = len(p_iv), T[r1, r4, r2].cube.shape[1]
    step = _step(len(uq_i) * p_iv.shape[2])
    total = 0.0
    for k in range(0, n, step):
        mid = np.matmul(uq_i, p_iv[k:k + step])          # m* m, batched over p
        # the composite sums over b in (r4, r2)
        comp = pu_b[k * s_u:(k + step) * s_u] @ b_qv
        total += _sq(np.subtract(mid, comp.reshape(mid.shape), out=mid))
    return total


def _mm_adjoint(m: np.ndarray) -> np.ndarray:
    """``m m*``, summed over slabs of the columns of ``m`` (rows of
    ``m*``), so at most one slab of ``m*`` is copied at a time."""
    def part(s):
        cols = m[:, s]
        return cols @ _adjoint(cols)

    return _slab_sum(part, m.shape[1], m.shape[0])


def check_qsystem(q: QSystemData) -> ResidualReport:
    """Residuals of the four Q-system axioms.

    Keys Q1 (associativity), Q2 (unitality, both sides), Q3 (Frobenius),
    Q4 (separability).  The unit's norm is recorded as info; no
    normalization of ``i* i`` is imposed.

    Q3 compares one Frobenius composite, ``(m . 1)(1 . m*)``, with
    ``m* m``.  The other, ``(1 . m)(m* . 1)``, is its adjoint and
    ``m* m`` is hermitian, so the two residuals are adjoint to each
    other and have the same norm for any ``m``.

    Q1 and Q3 are contracted on the multiplication tensor ``t`` one
    grading sector at a time.  With ``S[x][y]`` the basis indices over
    ``(x, y)``, the block ``T(x, y, z) = t[S[x][z], S[x][y], S[y][z]]``
    holds every product of a vector over ``(x, y)`` with one over
    ``(y, z)``; it is copied out of ``t`` once per sector triple, as is
    its conjugate ``C(x, y, z)``, stored as ``[a, i, b]``.  For each
    quadruple ``(r1, r2, r3, r4)`` of grading indices, Q1 compares
    ``(ab)c`` with ``a(bc)`` for ``a, b, c`` over ``(r1, r2), (r2, r3),
    (r3, r4)``, and Q3 compares the composite with ``m* m`` on ``p, v``
    over ``(r1, r2), (r2, r3)`` against ``u, q`` over ``(r1, r4), (r4,
    r3)``.  In those layouts one product of each pair is a single matrix
    product and the other a matrix product batched over its free leading
    index, and both land in the same index order, so no four-index block
    is copied or transposed.  Squared block norms add up to the squared
    norm of the dense residual because ``m`` vanishes off its sectors,
    which ``QSystemData`` enforces.

    Working memory is bounded by the slab budget ``_SLAB_BYTES`` (512 KiB).
    A four-index residual block larger than that is formed in slabs of
    its leading index, and Q4's ``m m*`` is summed over slabs of ``m*``;
    at most two slabs are alive at a time.  Below the budget each is the
    one product it always was, with the same bytes; 512 KiB is the
    smallest power of two above every block of a ``gen`` Q-system, so
    their reports keep their bytes.

    Q2 reads both unit composites off ``t``: column ``q`` of ``m (i . 1)``
    is ``sum_a i[a, row q] t[:, a, q]`` and that of ``m (1 . i)`` is
    ``sum_b t[:, q, b] i[b, col q]``; each is compared with the identity.
    """
    Q, m, i = q.Q, q.m, q.i
    rep = ResidualReport()
    n = Q.src.n
    t = q.tensor
    S = _sectors(Q)
    full = [[s.size > 0 for s in row] for row in S]
    T, C = _SectorBlocks(t, S, conj=False), _SectorBlocks(t, S, conj=True)

    q1 = q3 = 0.0
    for r1, r2, r3, r4 in itertools.product(range(n), repeat=4):
        if full[r1][r2] and full[r2][r3] and full[r1][r4]:
            if full[r3][r4]:
                q1 += _q1_sq(T, r1, r2, r3, r4)
            if full[r4][r3]:
                q3 += _q3_sq(T, C, r1, r2, r3, r4)
    del T, C   # the sector copies are not held through Q2 and Q4
    rep.add("Q1", np.sqrt(q1))
    eye = np.eye(Q.dim)
    rep.add("Q2", max(frob(np.einsum("iaq,aq->iq", t, i.mat[:, Q.rows - 1]) - eye),
                      frob(np.einsum("iqb,bq->iq", t, i.mat[:, Q.cols - 1]) - eye)))
    rep.add("Q3", np.sqrt(q3))
    rep.add("Q4", frob(_mm_adjoint(m.mat) - eye))
    rep.add_info("unit_norm", frob(i.mat))
    return rep


def trivial_qsystem(n: ZeroCell | int) -> QSystemData:
    """The tensor unit with its obvious Q-system structure."""
    Q = id1(n)
    return QSystemData(Q, unitor_left(Q), id2(Q))


def qsystem_from_dual(d: DualPair) -> QSystemData:
    """Q-system ``x . xbar`` with ``m = (x . l) (x . ev . xbar)``, ``l``
    the left unitor of ``xbar``, and ``i = coev``.

    Each basis vector ``(p1, q1, p2, q2)`` of ``Q . Q`` (indices into
    ``x, xbar, x, xbar``) meets ``ev`` in the pair ``(q1, p2)`` and lands
    on the basis vector ``(p1, q2)`` of ``Q``, which exists when the
    column ``c`` of ``p1`` is the row of ``q2``.  So ``m`` holds one
    entry per such column, ``ev[c, (q1, p2)]``, placed through the
    fold-plan index arrays; no layer of the string diagram is gathered
    into a dense matrix.  Those entries are all of ``ev`` on its grading
    sectors, so an ``ev`` with an entry off them raises
    ``CellMismatch``.  For ``ev`` of ``standard_dual`` the bytes are
    those of the diagram."""
    if off_sector_nonzero(d.ev):
        raise CellMismatch("ev has a nonzero entry off its grading sectors")
    X, Xbar = d.X, d.Xbar
    Q, qx, qxbar = _hcomp_plan(X, Xbar)
    src, (p1, q1, p2, q2) = _fold_plan([X, Xbar, X, Xbar])
    pair_ev, ex, ey = _hcomp_plan(Xbar, X)
    at_q = np.zeros((X.dim, Xbar.dim), dtype=np.intp)
    at_q[qx, qxbar] = np.arange(Q.dim)
    at_ev = np.zeros((Xbar.dim, X.dim), dtype=np.intp)
    at_ev[ex, ey] = np.arange(pair_ev.dim)
    c = X.cols[p1]
    hit = np.flatnonzero(c == Xbar.rows[q2])
    m = np.zeros((Q.dim, src.dim), dtype=complex)
    m[at_q[p1[hit], q2[hit]], hit] = d.ev.mat[c[hit] - 1, at_ev[q1[hit], p2[hit]]]
    return QSystemData(Q, BlockTwoCell(src, Q, m), d.coev)


def canonical_pairing(q: QSystemData) -> tuple[BlockTwoCell, BlockTwoCell]:
    """Self-duality pairing ``ev = i* . m`` and ``coev = m* . i``."""
    ev = vcomp(dagger2(q.i), q.m)
    coev = vcomp(dagger2(q.m), q.i)
    return ev, coev


def zigzag_residuals(X: GradedOneCell, Xbar: GradedOneCell,
                     ev: BlockTwoCell, coev: BlockTwoCell) -> tuple[float, float]:
    """Residuals of the two zig-zag identities (unitors inserted)."""
    z1 = vcomp_many((X, ev), (coev, X), dagger2(unitor_left(X)))
    r1 = residual(z1, dagger2(unitor_right(X)))
    z2 = vcomp_many((ev, Xbar), (Xbar, coev), dagger2(unitor_right(Xbar)))
    r2 = residual(z2, dagger2(unitor_left(Xbar)))
    return r1, r2


def check_dual_pair(d: DualPair) -> ResidualReport:
    rep = ResidualReport()
    r1, r2 = zigzag_residuals(d.X, d.Xbar, d.ev, d.coev)
    rep.add("zigzag_left", r1)
    rep.add("zigzag_right", r2)
    sep = vcomp(d.ev, dagger2(d.ev))
    rep.add("ev_coisometry", residual(sep, id2(id1(d.X.src))))
    return rep


def standard_dual_pair(x: GradedOneCell) -> DualPair:
    xbar, ev, coev = standard_dual(x)
    return DualPair(x, xbar, ev, coev)


def check_bimodule(b: BimoduleData) -> ResidualReport:
    """Residuals of the bimodule axioms B1 (associativity, three
    equations), B2 (unitality), B3 (Frobenius) and B4 (separability)."""
    P, Q, X, lam, rho = b.P.Q, b.Q.Q, b.X, b.lam, b.rho
    mQ, iQ = b.Q.m, b.Q.i
    mP, iP = b.P.m, b.P.i
    rep = ResidualReport()
    rep.add("B1", max(
        residual(vcomp_many(lam, (Q, lam)), vcomp_many(lam, (mQ, X))),
        residual(vcomp_many(rho, (rho, P)), vcomp_many(rho, (X, mP))),
        residual(vcomp_many(lam, (Q, rho)), vcomp_many(rho, (lam, P))),
    ))
    rep.add("B2", max(
        residual(vcomp_many(lam, (iQ, X)), unitor_left(X)),
        residual(vcomp_many(rho, (X, iP)), unitor_right(X)),
    ))
    lam_mid = vcomp(dagger2(lam), lam)
    rho_mid = vcomp(dagger2(rho), rho)
    rep.add("B3", max(
        residual(vcomp_many((mQ, X), (Q, dagger2(lam))), lam_mid),
        residual(vcomp_many((Q, lam), (dagger2(mQ), X)), lam_mid),
        residual(vcomp_many((rho, P), (X, dagger2(mP))), rho_mid),
        residual(vcomp_many((X, mP), (dagger2(rho), P)), rho_mid),
    ))
    rep.add("B4", max(
        residual(vcomp(lam, dagger2(lam)), id2(X)),
        residual(vcomp(rho, dagger2(rho)), id2(X)),
    ))
    return rep


def free_bimodule(q: QSystemData) -> BimoduleData:
    """Q acting on itself by multiplication on both sides."""
    return BimoduleData(q, q, q.Q, q.m, q.m)


def unit_bimodule(x: GradedOneCell) -> BimoduleData:
    """Any one-cell as a bimodule over the trivial Q-systems (actions
    are the unitors)."""
    return BimoduleData(
        trivial_qsystem(x.src), trivial_qsystem(x.tgt),
        x, unitor_left(x), unitor_right(x),
    )


def check_intertwiner(f: BlockTwoCell, src: BimoduleData,
                      dst: BimoduleData) -> ResidualReport:
    """Residuals of the two bimodule-map equations for ``f : X -> Y``."""
    if f.source is not src.X or f.target is not dst.X:
        raise CellMismatch("intertwiner endpoints do not match the bimodules")
    rep = ResidualReport()
    rep.add("left", residual(vcomp(f, src.lam), vcomp_many(dst.lam, (src.Q.Q, f))))
    rep.add("right", residual(vcomp(f, src.rho), vcomp_many(dst.rho, (f, src.P.Q))))
    return rep


def relative_tensor(xb: BimoduleData, yb: BimoduleData,
                    tol: Tolerance = Tolerance()):
    """Relative tensor product over the shared middle Q-system.

    Forms the separability idempotent
    ``p = (rho . lam) (id . m* i . id)`` on ``X . Y``, splits it, and
    returns ``(Z, r)`` where ``r : X . Y -> Z`` is the coisometry with
    ``r* r = p`` and ``r r* = id``.
    """
    from .splitting import split_projection

    P = xb.P
    if yb.Q.Q is not P.Q:
        raise CellMismatch("bimodules do not share the middle Q-system")
    X, Y = xb.X, yb.X
    sep = vcomp(dagger2(P.m), P.i)
    p = vcomp_many((xb.rho, yb.lam),
                   (X, vcomp_many((sep, Y), dagger2(unitor_left(Y)))))
    z, u = split_projection(hcomp1(X, Y), p, tol)
    return z, dagger2(u)


def _pair_columns(Q: GradedOneCell, S):
    """``(P, R)``: the pair of the ``j``-th basis vector over ``(x, y)``
    and the ``l``-th over ``(y, z)`` is column ``P[x][y][j] +
    R[y][z][l]`` of the multiplication, as ``_hcomp_plan(Q, Q)`` lists
    the pairs (``S = _sectors(Q)``)."""
    _, p_idx, q_idx = _hcomp_plan(Q, Q)
    start = np.searchsorted(p_idx, np.arange(Q.dim))   # p's first pair
    rank = np.zeros(Q.dim, dtype=np.intp)               # q's place among p's partners
    rank[q_idx] = np.arange(len(q_idx)) - start[p_idx]
    return [[start[s] for s in row] for row in S], [[rank[s] for s in row] for row in S]


def check_qsystem_iso(g: BlockTwoCell, a: QSystemData, b: QSystemData) -> ResidualReport:
    """Residuals for ``g : a -> b`` being a unitary Q-system map:
    ``g`` unitary, ``g m_a = m_b (g . g)``, ``g i_a = i_b``.

    ``g``, ``m_a`` and ``m_b`` vanish off their grading sectors, so the
    multiplication residual splits into one block per sector triple
    ``(x, y, z)``: rows over ``(x, z)``, columns the pairs over ``(x,
    y), (y, z)``.  Both multiplications are read at those columns
    (``_hcomp_plan`` positions, ``_pair_columns``) straight from ``m``,
    so no tensor is built, and ``g`` enters through its sector blocks:
    ``g_xz m_a`` against ``m_b (g_xy . g_yz)``.  Neither the
    ``N_pairs^2`` two-cell ``g . g``, nor an ``N^3`` contraction of the
    tensor, nor the dense ``g m_a`` is formed.  The rows of a block run
    in slabs of at most ``_SLAB_BYTES`` (512 KiB), with at most two
    slabs alive; the one block of ``m_a`` they multiply is read whole.

    An off-sector entry of ``g`` would not be seen block by block, so
    such a ``g`` raises ``CellMismatch``.
    """
    if g.source is not a.Q or g.target is not b.Q:
        raise CellMismatch("iso candidate does not match the Q-system cells")
    if off_sector_nonzero(g):
        raise CellMismatch("iso candidate has a nonzero entry off its grading sectors")
    rep = ResidualReport()
    rep.add("unitary", is_unitary_residual(g))
    n = a.Q.src.n
    Sa, Sb = _sectors(a.Q), _sectors(b.Q)
    (Pa, Ra), (Pb, Rb) = _pair_columns(a.Q, Sa), _pair_columns(b.Q, Sb)
    G = [[g.mat[Sb[x][y][:, None], Sa[x][y]] for y in range(n)] for x in range(n)]
    total = 0.0
    for x, y, z in itertools.product(range(n), repeat=3):
        rows, pb, qb = Sb[x][z], Sb[x][y], Sb[y][z]
        pa, qa = len(Sa[x][y]), len(Sa[y][z])
        if not (len(rows) and pa and qa):
            continue
        ma = a.m.mat[Sa[x][z][:, None], (Pa[x][y][:, None] + Ra[y][z]).ravel()]
        cols_b = (Pb[x][y][:, None] + Rb[y][z]).ravel()
        step = _step(pa * qa)
        for k in range(0, len(rows), step):
            i = rows[k:k + step]
            # m_b (g . g): the q leg, then the p leg batched over i
            w = b.m.mat[i[:, None], cols_b].reshape(len(i) * len(pb), len(qb)) @ G[y][z]
            w = np.matmul(G[x][y].T, w.reshape(len(i), len(pb), qa))
            out = G[x][z][k:k + step] @ ma
            total += _sq(np.subtract(out, w.reshape(out.shape), out=out))
    rep.add("multiplication", np.sqrt(total))
    rep.add("unit", residual(vcomp(g, a.i), b.i))
    return rep
