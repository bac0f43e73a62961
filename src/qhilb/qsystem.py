"""Q-systems, bimodules and intertwiners over graded matrices.

A Q-system is a one-cell ``Q : b -> b`` with multiplication
``m : Q . Q -> Q`` and unit ``i : unit -> Q`` satisfying associativity,
unitality, the Frobenius condition and separability ``m m* = id``.
Checkers report Frobenius-norm residuals per axiom and never raise on
failure: verification is the product.

``check_qsystem`` contracts associativity and the Frobenius condition
one grading sector at a time.  That equals the dense contraction only
because ``m`` and ``i`` vanish off their grading sectors, which
``QSystemData`` enforces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    _hcomp_plan,
    dagger2,
    hcomp1,
    hcomp2,
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
        if self.m.source != hcomp1(self.Q, self.Q) or self.m.target != self.Q:
            raise CellMismatch("multiplication must map Q.Q -> Q")
        if self.i.source != id1(self.Q.src) or self.i.target != self.Q:
            raise CellMismatch("unit must map unit -> Q")
        for name, f in (("m", self.m), ("i", self.i)):
            if f.mat[~sector_mask(f.target, f.source)].any():
                raise CellMismatch(f"{name} has a nonzero entry off its grading sectors")

    @property
    def zero_cell(self) -> ZeroCell:
        return self.Q.src


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
        if self.lam.source != hcomp1(self.Q.Q, self.X) or self.lam.target != self.X:
            raise CellMismatch("left action must map Q.X -> X")
        if self.rho.source != hcomp1(self.X, self.P.Q) or self.rho.target != self.X:
            raise CellMismatch("right action must map X.P -> X")


def _mult_tensor(q: QSystemData) -> np.ndarray:
    """The multiplication as an N x N x N tensor: t[i, a, b] is the
    coefficient of basis vector i in the product of a and b (zero for
    non-composable pairs)."""
    n = q.Q.dim
    _, p_idx, q_idx = _hcomp_plan(q.Q, q.Q)
    t = np.zeros((n, n, n), dtype=complex)
    t[:, p_idx, q_idx] = q.m.mat
    return t


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of ``a`` and the first of ``b``, as one
    matrix product (``np.tensordot``'s own set-up costs more than the
    product on most sector blocks)."""
    k = a.shape[-1]
    out = a.reshape(math.prod(a.shape[:-1]), k) @ b.reshape(k, math.prod(b.shape[1:]))
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _sq(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _q1_sq(T, r1, r2, r3, r4) -> float:
    """Squared norm of the associativity residual block of the quadruple:
    ``(ab)c - a(bc)`` for ``a, b, c`` over ``(r1, r2), (r2, r3), (r3, r4)``."""
    # (ab)c as [i, c, a, b], a(bc) as [i, a, b, c]
    left = _contract(T(r1, r3, r4).transpose(0, 2, 1), T(r1, r2, r3))
    right = _contract(T(r1, r2, r4), T(r2, r3, r4))
    return _sq(np.subtract(left.transpose(0, 2, 3, 1), right, out=right))


def _q3_sq(T, r1, r2, r3, r4) -> tuple[float, float]:
    """Squared norms of the two Frobenius residual blocks of the
    quadruple: each composite against ``m* m``, for ``p, v`` over
    ``(r1, r2), (r2, r3)`` and ``u, q`` over ``(r1, r4), (r4, r3)``."""
    # the composites as [v, q, u, p] and [p, u, q, v], m* m as [p, v, u, q];
    # the first is copied to m* m's order so that its difference can
    # overwrite it, and the second's overwrites m* m
    a = _contract(T(r2, r4, r3).transpose(0, 2, 1),
                  T(r1, r2, r4).conj().transpose(2, 0, 1))
    a = a.transpose(3, 0, 2, 1).copy()
    mid = _contract(T(r1, r2, r3).conj().transpose(1, 2, 0), T(r1, r4, r3))
    qa = _sq(np.subtract(a, mid, out=a))
    del a
    b = _contract(T(r1, r4, r2), T(r4, r2, r3).conj().transpose(1, 0, 2))
    return qa, _sq(np.subtract(b.transpose(0, 3, 1, 2), mid, out=mid))


def check_qsystem(q: QSystemData) -> ResidualReport:
    """Residuals of the four Q-system axioms.

    Keys Q1 (associativity), Q2 (unitality, both sides), Q3 (Frobenius,
    both equalities), Q4 (separability).  The unit's norm is recorded as
    info; no normalization of ``i* i`` is imposed.

    Q1 and Q3 are contracted on the multiplication tensor one grading
    sector at a time.  With Q's basis stably sorted by grading, sector
    ``(x, y)`` is a contiguous slice ``S[x][y]`` and the block
    ``T(x, y, z) = t[S[x][z], S[x][y], S[y][z]]`` holds every product of
    a vector over ``(x, y)`` with one over ``(y, z)``.  For each
    quadruple ``(r1, r2, r3, r4)`` of grading indices, Q1 compares
    ``(ab)c`` with ``a(bc)`` for ``a, b, c`` over ``(r1, r2), (r2, r3),
    (r3, r4)``, and Q3 compares both Frobenius composites with ``m* m``
    on ``p, v`` over ``(r1, r2), (r2, r3)`` against ``u, q`` over
    ``(r1, r4), (r4, r3)``.  Squared block norms add up to the squared
    norm of the dense residual because ``m`` vanishes off its sectors,
    which ``QSystemData`` enforces.

    Each quadruple's blocks live inside ``_q1_sq`` or ``_q3_sq`` and are
    freed when it returns, and each difference is written over one of
    its operands, so at most two four-index blocks are alive at a time.
    """
    Q, m, i = q.Q, q.m, q.i
    rep = ResidualReport()
    n = Q.src.n
    order = sorted(range(Q.dim), key=Q.grading.__getitem__)
    t = _mult_tensor(q)[np.ix_(order, order, order)]
    keys = [(r - 1) * n + c - 1 for r, c in (Q.grading[k] for k in order)]
    lo = np.searchsorted(keys, np.arange(n * n), "left").reshape(n, n)
    hi = np.searchsorted(keys, np.arange(n * n), "right").reshape(n, n)
    S = [[slice(lo[x, y], hi[x, y]) for y in range(n)] for x in range(n)]
    full = (hi > lo).tolist()

    def T(x, y, z):
        return t[S[x][z], S[x][y], S[y][z]]

    q1 = q3a = q3b = 0.0
    for r1, r2, r3, r4 in itertools.product(range(n), repeat=4):
        if full[r1][r2] and full[r2][r3] and full[r3][r4] and full[r1][r4]:
            q1 += _q1_sq(T, r1, r2, r3, r4)
        if full[r1][r2] and full[r2][r3] and full[r1][r4] and full[r4][r3]:
            qa, qb = _q3_sq(T, r1, r2, r3, r4)
            q3a += qa
            q3b += qb
    rep.add("Q1", np.sqrt(q1))
    left_unit = vcomp(m, hcomp2(i, id2(Q)))
    right_unit = vcomp(m, hcomp2(id2(Q), i))
    rep.add("Q2", max(residual(left_unit, unitor_left(Q)),
                      residual(right_unit, unitor_right(Q))))
    rep.add("Q3", np.sqrt(max(q3a, q3b)))
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
    pinch = hcomp2(id2(d.X), hcomp2(d.ev, id2(d.Xbar)))
    m = vcomp(hcomp2(id2(d.X), unitor_left(d.Xbar)), pinch)
    return QSystemData(Q, m, d.coev)


def canonical_pairing(q: QSystemData) -> tuple[BlockTwoCell, BlockTwoCell]:
    """Self-duality pairing ``ev = i* . m`` and ``coev = m* . i``."""
    ev = vcomp(dagger2(q.i), q.m)
    coev = vcomp(dagger2(q.m), q.i)
    return ev, coev


def zigzag_residuals(X: GradedOneCell, Xbar: GradedOneCell,
                     ev: BlockTwoCell, coev: BlockTwoCell) -> tuple[float, float]:
    """Residuals of the two zig-zag identities (unitors inserted)."""
    z1 = vcomp_many(
        hcomp2(id2(X), ev),
        hcomp2(coev, id2(X)),
        dagger2(unitor_left(X)),
    )
    r1 = residual(z1, dagger2(unitor_right(X)))
    z2 = vcomp_many(
        hcomp2(ev, id2(Xbar)),
        hcomp2(id2(Xbar), coev),
        dagger2(unitor_right(Xbar)),
    )
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
        residual(vcomp(lam, hcomp2(id2(Q), lam)), vcomp(lam, hcomp2(mQ, id2(X)))),
        residual(vcomp(rho, hcomp2(rho, id2(P))), vcomp(rho, hcomp2(id2(X), mP))),
        residual(vcomp(lam, hcomp2(id2(Q), rho)), vcomp(rho, hcomp2(lam, id2(P)))),
    ))
    rep.add("B2", max(
        residual(vcomp(lam, hcomp2(iQ, id2(X))), unitor_left(X)),
        residual(vcomp(rho, hcomp2(id2(X), iP)), unitor_right(X)),
    ))
    lam_mid = vcomp(dagger2(lam), lam)
    rho_mid = vcomp(dagger2(rho), rho)
    rep.add("B3", max(
        residual(vcomp(hcomp2(mQ, id2(X)), hcomp2(id2(Q), dagger2(lam))), lam_mid),
        residual(vcomp(hcomp2(id2(Q), lam), hcomp2(dagger2(mQ), id2(X))), lam_mid),
        residual(vcomp(hcomp2(rho, id2(P)), hcomp2(id2(X), dagger2(mP))), rho_mid),
        residual(vcomp(hcomp2(id2(X), mP), hcomp2(dagger2(rho), id2(P))), rho_mid),
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
    if f.source != src.X or f.target != dst.X:
        raise CellMismatch("intertwiner endpoints do not match the bimodules")
    rep = ResidualReport()
    rep.add("left", residual(
        vcomp(f, src.lam), vcomp(dst.lam, hcomp2(id2(src.Q.Q), f))))
    rep.add("right", residual(
        vcomp(f, src.rho), vcomp(dst.rho, hcomp2(f, id2(src.P.Q)))))
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
    if yb.Q is not P and yb.Q.Q != P.Q:
        raise CellMismatch("bimodules do not share the middle Q-system")
    X, Y = xb.X, yb.X
    sep = vcomp(dagger2(P.m), P.i)
    insert = hcomp2(id2(X), vcomp(hcomp2(sep, id2(Y)), dagger2(unitor_left(Y))))
    p = vcomp(hcomp2(xb.rho, yb.lam), insert)
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
    if g.source != a.Q or g.target != b.Q:
        raise CellMismatch("iso candidate does not match the Q-system cells")
    rep = ResidualReport()
    rep.add("unitary", is_unitary_residual(g))
    y = np.tensordot(np.tensordot(_mult_tensor(b), g.mat, (1, 0)), g.mat, (1, 0))
    _, p_idx, q_idx = _hcomp_plan(a.Q, a.Q)
    rep.add("multiplication", frob(vcomp(g, a.m).mat - y[:, p_idx, q_idx]))
    rep.add("unit", residual(vcomp(g, a.i), b.i))
    return rep
