"""Q-systems, bimodules and intertwiners over graded matrices.

A Q-system is a one-cell ``Q : b -> b`` with multiplication
``m : Q . Q -> Q`` and unit ``i : unit -> Q`` satisfying associativity,
unitality, the Frobenius condition and separability ``m m* = id``.
Checkers report Frobenius-norm residuals per axiom and never raise on
failure: verification is the product.

``m`` is the only stored form of the multiplication.
``check_qsystem`` and ``check_qsystem_iso`` contract one grading sector
at a time: both read each sector block ``T(x, y, z)`` through
``_block``, straight from ``m`` at the columns that
``cells._pair_index`` gives its basis pairs.  That equals the dense
contraction only because ``m`` and ``i`` vanish off their grading
sectors, which ``QSystemData`` enforces.  Every contraction whose
result could exceed the slab budget ``_SLAB_BYTES`` runs through
``_slab_sum``, here and in ``splitting``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    _adjoint,
    _fold_plan,
    _pair_index,
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


def _slabs(n: int, row: int) -> list[slice]:
    """The slabs of ``range(n)`` for a complex result with ``row``
    entries per index: at most ``_SLAB_BYTES`` each, but at least one
    index; at least one slice (empty if ``n`` is 0)."""
    step = max(1, _SLAB_BYTES // (16 * max(row, 1)))
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


def _block(m: np.ndarray, S, P, x: int, y: int, z: int, rows=slice(None)) -> np.ndarray:
    """``T(x, y, z)`` as ``[i, a, b]``: the coefficient of basis vector
    ``i`` over ``(x, z)`` in the product of ``a`` over ``(x, y)`` and
    ``b`` over ``(y, z)``, read from the multiplication matrix ``m`` at
    the columns ``P[a, b]`` (``S = _sectors(Q)``, ``P = _pair_index(Q,
    Q)``); ``rows`` selects the ``i``."""
    return m[S[x][z][rows, None, None], P[S[x][y][:, None], S[y][z]]]


def _matrix(block: np.ndarray, k: int) -> np.ndarray:
    """A contiguous three-index block as a matrix view, its first ``k``
    axes (1 or 2) the rows; the shape is explicit, since a block can be
    empty."""
    s0, s1, s2 = block.shape
    return block.reshape(s0, s1 * s2) if k == 1 else block.reshape(s0 * s1, s2)


def _sq(x: np.ndarray) -> float:
    return float(np.vdot(x, x).real)


def _slab_sq(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray) -> float:
    """``|matmul(A, B) - C @ D|^2``, the second product reshaped to the
    first, for a batch ``B`` and a ``C`` with ``s`` rows per index of
    ``B``: summed over slabs ``B[k]`` and ``C[k s]`` of the leading
    index, one slab of each product at a time."""
    s = len(C) // len(B)

    def part(k):
        left = np.matmul(A, B[k])                   # batched over B's leading index
        right = C[k.start * s:k.stop * s] @ D       # one product
        return _sq(np.subtract(left, right.reshape(left.shape), out=left))

    return _slab_sum(part, len(B), len(A) * B.shape[2])


def check_qsystem(q: QSystemData) -> ResidualReport:
    """Residuals of the four Q-system axioms.

    Keys Q1 (associativity), Q2 (unitality, both sides), Q3 (Frobenius),
    Q4 (separability).  The unit's norm is recorded as info; no
    normalization of ``i* i`` is imposed.

    Q3 compares one Frobenius composite, ``(m . 1)(1 . m*)``, with
    ``m* m``.  The other, ``(1 . m)(m* . 1)``, is its adjoint and
    ``m* m`` is hermitian, so the two residuals are adjoint to each
    other and have the same norm for any ``m``.

    Q1, Q2 and Q3 are contracted one grading sector at a time.  With
    ``S[x][y]`` the basis indices over ``(x, y)``, the block ``T(x, y,
    z)``, as ``[i, a, b]``, holds every product of a vector over ``(x,
    y)`` with one over ``(y, z)``.  ``_block`` reads it from ``m`` once
    per sector triple into the table ``T``, and the table ``C`` holds its
    conjugate, stored as ``[a, i, b]``; each is one copy, and both are
    dropped before Q4.  For each quadruple ``(r1, r2, r3, r4)`` of grading
    indices, Q1 compares ``(ab)c`` with ``a(bc)`` for ``a, b, c`` over
    ``(r1, r2), (r2, r3), (r3, r4)``, and Q3 compares the composite with
    ``m* m`` on ``p, v`` over ``(r1, r2), (r2, r3)`` against ``u, q``
    over ``(r1, r4), (r4, r3)``.  In those layouts one product of each
    pair is a single matrix product and the other a matrix product
    batched over its free leading index, and both land in the same index
    order, so no four-index block is copied or transposed; one slab
    loop, ``_slab_sq``, forms both residuals.  Squared block norms add
    up to the squared norm of the dense residual because ``m`` vanishes
    off its sectors, which ``QSystemData`` enforces.

    Working memory is bounded by the slab budget ``_SLAB_BYTES`` (512 KiB).
    A four-index residual block larger than that is formed in slabs of
    its leading index, and Q4's ``m m*`` is summed over slabs of the
    columns of ``m``, each next to its adjoint; both go through
    ``_slab_sum``, so at most two slabs are alive at a time.  Below the
    budget each is the one product it always was, with the same bytes;
    512 KiB is the smallest power of two above every block of a ``gen``
    Q-system, so their reports keep their bytes.

    Q2 reads both unit composites off the same blocks, sector by sector:
    ``i`` lives on the sectors ``(y, y)``, so over ``(y, z)`` ``m (i . 1)``
    is ``T(y, y, z)`` contracted with ``i[S[y][y], y]`` and ``m (1 . i)``
    is ``T(y, z, z)`` with ``i[S[z][z], z]``; each block is compared with
    the identity, and the composites vanish off those blocks.
    """
    Q, m, i = q.Q, q.m, q.i
    rep = ResidualReport()
    n = Q.src.n
    S, P = _sectors(Q), _pair_index(Q, Q)
    full = [[s.size > 0 for s in row] for row in S]
    T = {key: _block(m.mat, S, P, *key) for key in itertools.product(range(n), repeat=3)}
    C = {key: np.conjugate(b.transpose(1, 0, 2), order="C") for key, b in T.items()}

    q1 = q3 = 0.0
    for r1, r2, r3, r4 in itertools.product(range(n), repeat=4):
        if full[r1][r2] and full[r2][r3] and full[r1][r4]:
            if full[r3][r4]:
                # (ab)c, batched over i, against a(bc), as [i, a, b, c]
                q1 += _slab_sq(_matrix(T[r1, r2, r3], 1).T, T[r1, r3, r4],
                               _matrix(T[r1, r2, r4], 2), _matrix(T[r2, r3, r4], 1))
            if full[r4][r3]:
                # m* m, batched over p, against the composite, which sums
                # over b in (r4, r2), as [p, u, q, v]
                q3 += _slab_sq(_matrix(T[r1, r4, r3], 1).T, C[r1, r2, r3],
                               _matrix(T[r1, r4, r2], 2), _matrix(C[r4, r2, r3], 1))
    unit = [0.0, 0.0]
    for y, z in itertools.product(range(n), repeat=2):
        if full[y][z]:
            eye = np.eye(len(S[y][z]))
            unit[0] += _sq(np.einsum("iaq,a->iq", T[y, y, z], i.mat[S[y][y], y]) - eye)
            unit[1] += _sq(np.einsum("iqb,b->iq", T[y, z, z], i.mat[S[z][z], z]) - eye)
    del T, C   # the sector copies are not held through Q4
    mm = _slab_sum(lambda s: m.mat[:, s] @ _adjoint(m.mat[:, s]), m.source.dim, Q.dim)
    rep.add("Q1", np.sqrt(q1))
    rep.add("Q2", np.sqrt(max(unit)))
    rep.add("Q3", np.sqrt(q3))
    rep.add("Q4", frob(mm - np.eye(Q.dim)))
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
    fold-plan index arrays and ``_pair_index``; no layer of the string
    diagram is gathered into a dense matrix.  Those entries are all of
    ``ev`` on its grading sectors, so an ``ev`` with an entry off them
    raises ``CellMismatch``.  For ``ev`` of ``standard_dual`` the bytes
    are those of the diagram."""
    if off_sector_nonzero(d.ev):
        raise CellMismatch("ev has a nonzero entry off its grading sectors")
    X, Xbar = d.X, d.Xbar
    Q = hcomp1(X, Xbar)
    src, (p1, q1, p2, q2) = _fold_plan([X, Xbar, X, Xbar])
    c = X.cols[p1]
    hit = np.flatnonzero(c == Xbar.rows[q2])
    m = np.zeros((Q.dim, src.dim), dtype=complex)
    m[_pair_index(X, Xbar)[p1[hit], q2[hit]], hit] = \
        d.ev.mat[c[hit] - 1, _pair_index(Xbar, X)[q1[hit], p2[hit]]]
    return QSystemData(Q, BlockTwoCell(src, Q, m), d.coev)


def zigzag_residuals(X: GradedOneCell, Xbar: GradedOneCell,
                     ev: BlockTwoCell, coev: BlockTwoCell) -> tuple[float, float]:
    """Residuals of the two zig-zag identities (unitors inserted)."""
    z1 = vcomp_many((X, ev), (coev, X), dagger2(unitor_left(X)))
    r1 = residual(z1, dagger2(unitor_right(X)))
    z2 = vcomp_many((ev, Xbar), (Xbar, coev), dagger2(unitor_right(Xbar)))
    r2 = residual(z2, dagger2(unitor_left(Xbar)))
    return r1, r2


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

    ``g``, ``m_a`` and ``m_b`` vanish off their grading sectors, so the
    multiplication residual splits into one block per sector triple
    ``(x, y, z)``: rows over ``(x, z)``, columns the pairs over ``(x,
    y), (y, z)``.  Both multiplications are read at those columns by
    ``_block``, straight from ``m``, and ``g`` enters through its sector
    blocks: ``g_xz m_a`` against ``m_b (g_xy . g_yz)``.  Neither the
    ``N_pairs^2`` two-cell ``g . g``, nor an ``N^3`` array, nor the dense
    ``g m_a`` is formed.  The rows of a block are summed by ``_slab_sum``
    in slabs of at most ``_SLAB_BYTES`` (512 KiB); the one block of
    ``m_a`` they multiply is read whole.

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
    ma, Sa, Pa = a.m.mat, _sectors(a.Q), _pair_index(a.Q, a.Q)
    mb, Sb, Pb = b.m.mat, _sectors(b.Q), _pair_index(b.Q, b.Q)
    G = [[g.mat[Sb[x][y][:, None], Sa[x][y]] for y in range(n)] for x in range(n)]
    total = 0.0
    for x, y, z in itertools.product(range(n), repeat=3):
        rows, pb, qb = len(Sb[x][z]), len(Sb[x][y]), len(Sb[y][z])
        pa, qa = len(Sa[x][y]), len(Sa[y][z])
        if not (rows and pa and qa):
            continue
        block_a = _matrix(_block(ma, Sa, Pa, x, y, z), 1)

        def part(s):
            # m_b (g . g): the q leg, then the p leg batched over the rows
            w = _block(mb, Sb, Pb, x, y, z, s)
            r = len(w)
            w = w.reshape(r * pb, qb) @ G[y][z]
            w = np.matmul(G[x][y].T, w.reshape(r, pb, qa))
            out = G[x][z][s] @ block_a
            return _sq(np.subtract(out, w.reshape(out.shape), out=out))

        total += _slab_sum(part, rows, pa * qa)
    rep.add("multiplication", np.sqrt(total))
    rep.add("unit", residual(vcomp(g, a.i), b.i))
    return rep
