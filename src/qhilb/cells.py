"""The concrete 2-category of graded complex matrices.

Zero-cells are positive integers, a one-cell ``X : a -> b`` is a
finite-dimensional space with an ordered basis graded by pairs
``(row in 1..b, col in 1..a)``, and two-cells are complex matrices
supported on matching grading sectors.

Horizontal composition of one-cells pairs basis vectors across the
middle index and orders the pairs lexicographically (left factor
major).  That convention makes horizontal composition *strictly*
associative on the nose, and it makes ``X . unit`` literally equal to
``X``; only the left unitor ``unit . X -> X`` is a nontrivial
permutation two-cell.

Horizontal composition of two-cells is the hot path of the
functor-category verifier, so its Python set-up is paid once per pair
of one-cells rather than once per call:

- a ``GradedOneCell`` hashes its grading once, at construction, and
  compares by identity, then by the stored hash, before the fields, so
  an ``lru_cache`` lookup keyed by cells no longer walks the gradings
  when it is handed the cells it was filled with;
- ``_hcomp_plan(y, x)`` matches the gradings of ``y`` and ``x`` in one
  array comparison and caches the composite one-cell together with the
  index arrays of its basis pairs; ``hcomp1`` and ``hcomp_pairs`` read
  it, and ``hcomp2`` is two cache lookups and two row/column gathers;
- ``id2(x)`` hands out one shared identity two-cell per one-cell.  Its
  matrix is read-only, like every ``BlockTwoCell.mat``, so sharing it
  is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CellMismatch, EmptyColumn
from .linalg import dagger, frob

__all__ = [
    "ZeroCell",
    "GradedOneCell",
    "BlockTwoCell",
    "id1",
    "one_cell",
    "two_cell",
    "sector_mask",
    "id2",
    "hcomp1",
    "hcomp_pairs",
    "hcomp2",
    "vcomp",
    "dagger2",
    "unitor_left",
    "unitor_right",
    "standard_dual",
]


@dataclass(frozen=True)
class ZeroCell:
    """A zero-cell: the number of column indices of the graded model."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise CellMismatch("zero-cell size must be >= 1")


@dataclass(frozen=True, eq=False)
class GradedOneCell:
    """One-cell ``src -> tgt``: ordered basis graded by (row, col).

    Equality is by value; the hash is computed once, at construction."""

    src: ZeroCell
    tgt: ZeroCell
    grading: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for r, c in self.grading:
            if not (1 <= r <= self.tgt.n and 1 <= c <= self.src.n):
                raise CellMismatch(f"grading pair {(r, c)} out of range")
        object.__setattr__(self, "_hash", hash((self.src, self.tgt, self.grading)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GradedOneCell):
            return NotImplemented
        return (self._hash == other._hash and self.src == other.src
                and self.tgt == other.tgt and self.grading == other.grading)

    @property
    def dim(self) -> int:
        return len(self.grading)

    def sector_dims(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for g in self.grading:
            out[g] = out.get(g, 0) + 1
        return out

    def __repr__(self):
        return f"GradedOneCell({self.src.n}->{self.tgt.n}, dim={self.dim})"


def id1(n: ZeroCell | int) -> GradedOneCell:
    """Identity one-cell on ``n``: diagonal grading (1,1)..(n,n)."""
    n = n if isinstance(n, ZeroCell) else ZeroCell(n)
    return GradedOneCell(n, n, tuple((j, j) for j in range(1, n.n + 1)))


def one_cell(src: int, tgt: int, grading) -> GradedOneCell:
    return GradedOneCell(ZeroCell(src), ZeroCell(tgt), tuple(map(tuple, grading)))


@dataclass(frozen=True, eq=False)
class BlockTwoCell:
    """Two-cell: a matrix ``target.dim x source.dim`` between parallel
    one-cells, supported on matching grading sectors."""

    source: GradedOneCell
    target: GradedOneCell
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.source.src != self.target.src or self.source.tgt != self.target.tgt:
            raise CellMismatch("two-cell endpoints do not match")
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (self.target.dim, self.source.dim):
            raise CellMismatch(
                f"matrix shape {m.shape} != {(self.target.dim, self.source.dim)}"
            )
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __repr__(self):
        return f"BlockTwoCell({self.source!r} => {self.target!r})"


def two_cell(source: GradedOneCell, target: GradedOneCell, mat) -> BlockTwoCell:
    return BlockTwoCell(source, target, np.asarray(mat, dtype=complex))


@lru_cache(maxsize=None)
def sector_mask(target: GradedOneCell, source: GradedOneCell) -> np.ndarray:
    """Read-only boolean ``target.dim x source.dim`` matrix, true where
    ``target.grading[r] == source.grading[c]``: the entries a two-cell
    ``source => target`` may hold."""
    n = max(target.src.n, source.src.n)

    def keys(x):  # sector (r, c) as the integer r (n + 1) + c
        g = np.array(x.grading, dtype=np.intp).reshape(-1, 2)
        return g[:, 0] * (n + 1) + g[:, 1]

    mask = keys(target)[:, None] == keys(source)
    mask.setflags(write=False)
    return mask


def id2(x: GradedOneCell) -> BlockTwoCell:
    """The identity two-cell on ``x``, shared between calls."""
    return _identity2(x)


@lru_cache(maxsize=None)
def _identity2(x: GradedOneCell) -> BlockTwoCell:
    return BlockTwoCell(x, x, np.eye(x.dim, dtype=complex))


@lru_cache(maxsize=None)
def _hcomp_plan(y: GradedOneCell, x: GradedOneCell):
    """``(y . x, p_idx, q_idx)``: the composite and the read-only index
    arrays of its basis pairs ``(p in y, q in x)`` with the column of
    ``p`` equal to the row of ``q``, ordered ``p`` major."""
    if x.tgt != y.src:
        raise CellMismatch(f"cannot compose {y!r} . {x!r}")
    yg = np.array(y.grading, dtype=np.intp).reshape(-1, 2)
    xg = np.array(x.grading, dtype=np.intp).reshape(-1, 2)
    idx = np.array(np.nonzero(yg[:, 1, None] == xg[None, :, 0]))
    idx.setflags(write=False)
    p_idx, q_idx = idx
    grading = tuple(zip(yg[p_idx, 0].tolist(), xg[q_idx, 1].tolist()))
    return GradedOneCell(x.src, y.tgt, grading), p_idx, q_idx


@lru_cache(maxsize=None)
def hcomp_pairs(y: GradedOneCell, x: GradedOneCell) -> tuple[tuple[int, int], ...]:
    """Index pairs (p in y, q in x) of the basis of ``y . x``, in order."""
    _, p_idx, q_idx = _hcomp_plan(y, x)
    return tuple(zip(p_idx.tolist(), q_idx.tolist()))


@lru_cache(maxsize=None)
def hcomp1(y: GradedOneCell, x: GradedOneCell) -> GradedOneCell:
    """Horizontal composite ``y . x`` (x acts first)."""
    return _hcomp_plan(y, x)[0]


def hcomp1_many(*cells: GradedOneCell) -> GradedOneCell:
    """Left fold of ``hcomp1``; associativity is strict so any
    bracketing yields the identical cell."""
    out = cells[0]
    for c in cells[1:]:
        out = hcomp1(out, c)
    return out


def hcomp2(g: BlockTwoCell, f: BlockTwoCell) -> BlockTwoCell:
    """Horizontal composite of two-cells (g left of f):
    ``out[(p, q), (p', q')] = g[p, p'] * f[q, q']``."""
    src, si, sj = _hcomp_plan(g.source, f.source)
    tgt, ti, tj = _hcomp_plan(g.target, f.target)
    mat = g.mat.take(ti, 0).take(si, 1) * f.mat.take(tj, 0).take(sj, 1)
    return BlockTwoCell(src, tgt, mat)


def hcomp2_many(*fs: BlockTwoCell) -> BlockTwoCell:
    out = fs[0]
    for f in fs[1:]:
        out = hcomp2(out, f)
    return out


def vcomp(g: BlockTwoCell, f: BlockTwoCell) -> BlockTwoCell:
    """Vertical composite ``g . f`` (f acts first)."""
    if f.target != g.source:
        raise CellMismatch("vertical composition: target/source cells differ")
    return BlockTwoCell(f.source, g.target, g.mat @ f.mat)


def vcomp_many(*fs: BlockTwoCell) -> BlockTwoCell:
    """Vertical composite of several two-cells, listed top to bottom
    (``fs[-1]`` acts first)."""
    out = fs[-1]
    for f in fs[-2::-1]:
        out = vcomp(f, out)
    return out


def dagger2(f: BlockTwoCell) -> BlockTwoCell:
    return BlockTwoCell(f.target, f.source, dagger(f.mat))


@lru_cache(maxsize=None)
def unitor_left(x: GradedOneCell) -> BlockTwoCell:
    """Unitary permutation ``unit . x -> x`` pairing (row(q), q) with q."""
    src = hcomp1(id1(x.tgt), x)
    pairs = hcomp_pairs(id1(x.tgt), x)
    mat = np.zeros((x.dim, src.dim), dtype=complex)
    for col, (_, q) in enumerate(pairs):
        mat[q, col] = 1.0
    return BlockTwoCell(src, x, mat)


def unitor_right(x: GradedOneCell) -> BlockTwoCell:
    """The unitor ``x . unit -> x``: ``id2(x)``, because the pairing
    convention makes ``x . unit`` literally equal to ``x``."""
    return id2(x)


@lru_cache(maxsize=None)
def standard_dual(x: GradedOneCell):
    """Balanced dual ``(xbar, ev, coev)`` of a one-cell.

    ``xbar`` carries the transposed grading in the same basis order.
    ``ev : xbar . x -> unit`` pairs each basis vector with its conjugate
    at weight ``1/sqrt(d_i)`` where ``d_i`` counts basis vectors over
    source index ``i``, the unique per-column constant with
    ``ev ev* = id``.  ``coev : unit -> x . xbar`` uses the inverse
    weights so both zig-zag identities hold exactly.

    Raises ``EmptyColumn`` if some source index carries no basis vector.
    """
    counts = [0] * x.src.n
    for _, c in x.grading:
        counts[c - 1] += 1
    for i, d in enumerate(counts):
        if d == 0:
            raise EmptyColumn(i + 1)
    xbar = GradedOneCell(x.tgt, x.src, tuple((c, r) for r, c in x.grading))

    ev_src = hcomp1(xbar, x)
    ev_mat = np.zeros((x.src.n, ev_src.dim), dtype=complex)
    for col, (p, q) in enumerate(hcomp_pairs(xbar, x)):
        if p == q:
            i = x.grading[q][1]
            ev_mat[i - 1, col] = 1.0 / np.sqrt(counts[i - 1])
    ev = BlockTwoCell(ev_src, id1(x.src), ev_mat)

    coev_tgt = hcomp1(x, xbar)
    coev_mat = np.zeros((coev_tgt.dim, x.tgt.n), dtype=complex)
    for row, (q, p) in enumerate(hcomp_pairs(x, xbar)):
        if q == p:
            r, c = x.grading[q]
            coev_mat[row, r - 1] = np.sqrt(counts[c - 1])
    coev = BlockTwoCell(id1(x.tgt), coev_tgt, coev_mat)
    return xbar, ev, coev


def residual(f: BlockTwoCell, g: BlockTwoCell) -> float:
    """Frobenius distance between two parallel two-cells."""
    if f.source != g.source or f.target != g.target:
        raise CellMismatch("cannot compare two-cells with different cells")
    return frob(f.mat - g.mat)


def is_unitary_residual(f: BlockTwoCell) -> float:
    """max(|f*f - id|, |f f* - id|)."""
    a = frob(dagger(f.mat) @ f.mat - np.eye(f.source.dim))
    b = frob(f.mat @ dagger(f.mat) - np.eye(f.target.dim))
    return max(a, b)


def projection_residual(p: BlockTwoCell) -> float:
    """max(|p - p*|, |p^2 - p|) for an endo two-cell."""
    if p.source != p.target:
        raise CellMismatch("projection must be an endo two-cell")
    return max(frob(p.mat - dagger(p.mat)), frob(p.mat @ p.mat - p.mat))
