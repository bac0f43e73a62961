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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    _hcomp_plan,
    dagger2,
    hcomp1,
    hcomp2_many,
    id1,
    id2,
    is_unitary_residual,
    residual,
    sector_mask,
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
            if f.mat[~sector_mask(f.target, f.source)].any():
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
    both products as ``[i, a, b, c]``."""
    # (ab)c batched over i; a(bc) as one product
    left = np.matmul(T[r1, r2, r3].head.T, T[r1, r3, r4].cube)
    right = T[r1, r2, r4].tail @ T[r2, r3, r4].head
    return _sq(np.subtract(left, right.reshape(left.shape), out=left))


def _q3_sq(T, C, r1, r2, r3, r4) -> float:
    """Squared norm of the Frobenius residual block ``(m . 1)(1 . m*) -
    m* m`` of the quadruple, for ``p, v`` over ``(r1, r2), (r2, r3)``
    and ``u, q`` over ``(r1, r4), (r4, r3)``, both as ``[p, u, q, v]``."""
    # m* m batched over p; the composite sums over b in (r4, r2)
    mid = np.matmul(T[r1, r4, r3].head.T, C[r1, r2, r3].cube)
    comp = T[r1, r4, r2].tail @ C[r4, r2, r3].head
    return _sq(np.subtract(mid, comp.reshape(mid.shape), out=mid))


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

    Each quadruple's two four-index blocks live inside ``_q1_sq`` or
    ``_q3_sq``, the difference overwrites one of them, and both are
    freed when it returns, so at most two such blocks are alive at a
    time.

    Q2 reads both unit composites off ``t``: column ``q`` of ``m (i . 1)``
    is ``sum_a i[a, row q] t[:, a, q]`` and that of ``m (1 . i)`` is
    ``sum_b t[:, q, b] i[b, col q]``; each is compared with the identity.
    """
    Q, m, i = q.Q, q.m, q.i
    rep = ResidualReport()
    n = Q.src.n
    t = q.tensor
    S = [[np.flatnonzero((Q.rows == x) & (Q.cols == y)) for y in range(1, n + 1)]
         for x in range(1, n + 1)]
    full = [[s.size > 0 for s in row] for row in S]
    T, C = _SectorBlocks(t, S, conj=False), _SectorBlocks(t, S, conj=True)

    q1 = q3 = 0.0
    for r1, r2, r3, r4 in itertools.product(range(n), repeat=4):
        if full[r1][r2] and full[r2][r3] and full[r1][r4]:
            if full[r3][r4]:
                q1 += _q1_sq(T, r1, r2, r3, r4)
            if full[r4][r3]:
                q3 += _q3_sq(T, C, r1, r2, r3, r4)
    rep.add("Q1", np.sqrt(q1))
    eye = np.eye(Q.dim)
    rep.add("Q2", max(frob(np.einsum("iaq,aq->iq", t, i.mat[:, Q.rows - 1]) - eye),
                      frob(np.einsum("iqb,bq->iq", t, i.mat[:, Q.cols - 1]) - eye)))
    rep.add("Q3", np.sqrt(q3))
    rep.add("Q4", residual(vcomp(m, dagger2(m)), id2(Q)))
    rep.add_info("unit_norm", frob(i.mat))
    return rep


def trivial_qsystem(n: ZeroCell | int) -> QSystemData:
    """The tensor unit with its obvious Q-system structure."""
    Q = id1(n)
    return QSystemData(Q, unitor_left(Q), id2(Q))


def qsystem_from_dual(d: DualPair) -> QSystemData:
    """Q-system ``x . xbar`` with ``m = id . ev . id`` and ``i = coev``."""
    Q = hcomp1(d.X, d.Xbar)
    m = vcomp_many((d.X, unitor_left(d.Xbar)), (d.X, hcomp2_many(d.ev, d.Xbar)))
    return QSystemData(Q, m, d.coev)


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


def check_qsystem_iso(g: BlockTwoCell, a: QSystemData, b: QSystemData) -> ResidualReport:
    """Residuals for ``g : a -> b`` being a unitary Q-system map:
    ``g`` unitary, ``g m_a = m_b (g . g)``, ``g i_a = i_b``.

    ``m_b (g . g)`` is never formed through the ``N_pairs^2`` two-cell
    ``g . g``: ``g`` is contracted into the multiplication tensor of
    ``b`` one leg at a time (``2 N^4`` operations, three ``N^3``
    arrays), and the result is read at the composable pairs of ``a``.
    """
    if g.source is not a.Q or g.target is not b.Q:
        raise CellMismatch("iso candidate does not match the Q-system cells")
    rep = ResidualReport()
    rep.add("unitary", is_unitary_residual(g))
    y = np.tensordot(np.tensordot(b.tensor, g.mat, (1, 0)), g.mat, (1, 0))
    _, p_idx, q_idx = _hcomp_plan(a.Q, a.Q)
    rep.add("multiplication", frob(vcomp(g, a.m).mat - y[:, p_idx, q_idx]))
    rep.add("unit", residual(vcomp(g, a.i), b.i))
    return rep
