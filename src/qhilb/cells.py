"""The concrete 2-category of graded complex matrices.

Zero-cells are positive integers, a one-cell ``X : a -> b`` is a
finite-dimensional space with an ordered basis graded by pairs
``(row in 1..b, col in 1..a)``, and two-cells are complex matrices
supported on matching grading sectors.

Horizontal composition of one-cells pairs basis vectors across the
middle index and orders the pairs lexicographically (left factor
major).  That convention makes horizontal composition *strictly*
associative on the nose, and it makes ``X . unit`` the cell ``X``
itself; only the left unitor ``unit . X -> X`` is a nontrivial
permutation two-cell.

Horizontal composition of two-cells is the hot path of the
functor-category verifier, so its Python set-up is paid once per pair
of one-cells rather than once per call:

- there is one object per one-cell value: building a ``GradedOneCell``
  whose ``(src, tgt, grading)`` equals a live one returns that object,
  so one-cells compare and hash by identity and every ``lru_cache``
  keyed by cells hits by pointer;
- a one-cell holds its grading as read-only ``intp`` arrays ``rows``
  and ``cols`` too, built once with the range check; every module reads
  those, and none turns ``grading`` into arrays itself;
- ``_hcomp_plan(y, x)`` matches ``y.cols`` with ``x.rows`` in one
  array comparison and caches the composite one-cell together with the
  index arrays of its basis pairs.  The composite's ``rows`` and
  ``cols`` are gathered from those of ``y`` and ``x``, so they are in
  range by construction and are handed to the cell as they are; only
  the grading tuple, the interning key, is built from them.  It is the
  one code that orders the basis of a composite: ``hcomp1`` reads it,
  ``_fold_plan`` chains it over the cells of a longer composite, and
  ``unitor_left``, ``standard_dual``, ``qsystem.qsystem_from_dual``,
  ``qsystem.check_qsystem_iso``, ``splitting.split_qsystem`` and
  ``generate.interchanger`` place or read entries with its index arrays.
  ``hcomp_pairs`` lists the same pairs as tuples; it is kept for the
  tests and the benchmark tracer;
- ``id2(x)`` hands out one shared identity two-cell per one-cell, an
  ``_Identity2``, which only ``id2`` makes.  Its matrix is read-only,
  like every ``BlockTwoCell.mat``, so sharing it is safe.  Because the
  type marks it as the identity, ``vcomp`` and ``dagger2`` return an
  operand instead of multiplying by it;
- ``vcomp_many`` evaluates a whiskered composite, a string diagram, into
  one two-cell.  Its layers are listed top to bottom; a tuple is one
  horizontal layer, in which a one-cell ``x`` stands for the strand
  ``id2(x)``, as in ``hcomp2_many``.  ``_gather`` places a layer's
  factors in the composite basis, a run of identities as one factor,
  and the layers are multiplied as raw arrays, with the products of the
  ``hcomp2``/``vcomp`` folds in their order, so the bytes are the same.
  Products are not associative, so a composite that those folds built
  first enters as a nested call; even flattening the identities of a
  nested horizontal composite can flip the sign of a zero entry.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
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


def _read_only(cell, *args):
    raise AttributeError(f"{type(cell).__name__} is immutable: cannot change {args[0]!r}")


_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()


def _grading_arrays(src: ZeroCell, tgt: ZeroCell, grading):
    """The rows and cols of ``grading`` as ``intp`` arrays, each pair
    checked against ``tgt`` and ``src``."""
    try:
        g = np.array(grading, dtype=np.intp).reshape(len(grading), 2)
    except OverflowError:
        raise CellMismatch("grading index out of range") from None
    bad = (g < 1).any(1) | (g[:, 0] > tgt.n) | (g[:, 1] > src.n)
    if bad.any():
        raise CellMismatch(f"grading pair {grading[bad.argmax()]} out of range")
    g = g.T.copy()
    g.flags.writeable = False
    return g


class GradedOneCell:
    """One-cell ``src -> tgt``: ordered basis graded by (row, col).

    ``grading`` is the interning key, the API and the serialized form;
    ``rows`` and ``cols`` are its columns as read-only ``intp`` arrays.
    Interned: while a cell of the same value is alive, the constructor
    returns that cell.  Assigning an attribute raises ``AttributeError``."""

    __slots__ = ("src", "tgt", "grading", "rows", "cols", "__weakref__")

    def __new__(cls, src: ZeroCell, tgt: ZeroCell, grading: tuple[tuple[int, int], ...]):
        return cls._intern(src, tgt, grading)

    @classmethod
    def _intern(cls, src, tgt, grading, rows=None, cols=None):
        """The interned cell of ``(src, tgt, grading)``.  A caller that
        built ``grading`` from index arrays in range passes them as
        ``rows`` and ``cols``; they are made read-only and not checked."""
        key = (src, tgt, grading)
        with _intern_lock:   # one check-then-insert at a time
            cell = _interned.get(key)
            if cell is None:
                if rows is None:
                    rows, cols = _grading_arrays(src, tgt, grading)
                rows.flags.writeable = cols.flags.writeable = False
                cell = _interned[key] = object.__new__(cls)
                for name, value in zip(cls.__slots__, (*key, rows, cols)):
                    object.__setattr__(cell, name, value)
        return cell

    __setattr__ = __delattr__ = _read_only

    @property
    def dim(self) -> int:
        return len(self.grading)

    def sectors(self) -> dict[tuple[int, int], list[int]]:
        """The basis indices of each grading sector, in basis order."""
        out: dict[tuple[int, int], list[int]] = {}
        for i, g in enumerate(self.grading):
            out.setdefault(g, []).append(i)
        return out

    def __repr__(self):
        return f"GradedOneCell({self.src.n}->{self.tgt.n}, dim={self.dim})"


def id1(n: ZeroCell | int) -> GradedOneCell:
    """Identity one-cell on ``n``: diagonal grading (1,1)..(n,n)."""
    n = n if isinstance(n, ZeroCell) else ZeroCell(n)
    return GradedOneCell(n, n, tuple((j, j) for j in range(1, n.n + 1)))


def one_cell(src: int, tgt: int, grading) -> GradedOneCell:
    return GradedOneCell(ZeroCell(src), ZeroCell(tgt), tuple(map(tuple, grading)))


class BlockTwoCell:
    """Two-cell: a read-only, C-contiguous complex matrix
    ``target.dim x source.dim`` between parallel one-cells, supported on
    matching grading sectors.  Assigning an attribute raises
    ``AttributeError``."""

    __slots__ = ("source", "target", "mat")

    def __init__(self, source: GradedOneCell, target: GradedOneCell, mat):
        if source.src.n != target.src.n or source.tgt.n != target.tgt.n:
            raise CellMismatch("two-cell endpoints do not match")
        if type(mat) is not np.ndarray or mat.dtype is not _COMPLEX \
                or not mat.flags.c_contiguous:
            mat = np.ascontiguousarray(mat, dtype=complex)
        if mat.shape != (target.dim, source.dim):
            raise CellMismatch(
                f"matrix shape {mat.shape} != {(target.dim, source.dim)}"
            )
        mat.flags.writeable = False
        _set_source(self, source)
        _set_target(self, target)
        _set_mat(self, mat)

    __setattr__ = __delattr__ = _read_only

    def __repr__(self):
        return f"{type(self).__name__}({self.source!r} => {self.target!r})"


_COMPLEX = np.dtype(complex)
_set_source = BlockTwoCell.source.__set__
_set_target = BlockTwoCell.target.__set__
_set_mat = BlockTwoCell.mat.__set__


class _Identity2(BlockTwoCell):
    """The identity two-cell on a one-cell.  Only ``id2`` makes one, so
    ``vcomp``, ``vcomp_many``, ``dagger2`` and ``_gather`` may treat it
    as the identity without multiplying by its matrix."""

    __slots__ = ()


def two_cell(source: GradedOneCell, target: GradedOneCell, mat) -> BlockTwoCell:
    return BlockTwoCell(source, target, np.asarray(mat, dtype=complex))


@lru_cache(maxsize=None)
def sector_mask(target: GradedOneCell, source: GradedOneCell) -> np.ndarray:
    """Read-only boolean ``target.dim x source.dim`` matrix, true where
    ``target.grading[r] == source.grading[c]``: the entries a two-cell
    ``source => target`` may hold."""
    mask = (target.rows[:, None] == source.rows) & (target.cols[:, None] == source.cols)
    mask.setflags(write=False)
    return mask


def off_sector_nonzero(f: BlockTwoCell) -> bool:
    """True if ``f`` holds a nonzero (or NaN) entry off its grading
    sectors; only boolean temporaries are made."""
    return bool(((f.mat != 0) & ~sector_mask(f.target, f.source)).any())


@lru_cache(maxsize=None)
def id2(x: GradedOneCell) -> BlockTwoCell:
    """The identity two-cell on ``x``, shared between calls."""
    return _Identity2(x, x, np.eye(x.dim, dtype=complex))


@lru_cache(maxsize=None)
def _hcomp_plan(y: GradedOneCell, x: GradedOneCell):
    """``(y . x, p_idx, q_idx)``: the composite and the read-only index
    arrays of its basis pairs ``(p in y, q in x)`` with the column of
    ``p`` equal to the row of ``q``, ordered ``p`` major."""
    if x.tgt != y.src:
        raise CellMismatch(f"cannot compose {y!r} . {x!r}")
    idx = np.array(np.nonzero(y.cols[:, None] == x.rows))
    idx.setflags(write=False)
    p_idx, q_idx = idx
    rows, cols = y.rows[p_idx], x.cols[q_idx]
    grading = tuple(zip(rows.tolist(), cols.tolist()))
    return GradedOneCell._intern(x.src, y.tgt, grading, rows, cols), p_idx, q_idx


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
    bracketing yields the same cell."""
    out = cells[0]
    for c in cells[1:]:
        out = hcomp1(out, c)
    return out


def _fold_plan(cells: list[GradedOneCell]):
    """``(c, idx)``: the composite ``c`` of ``cells`` and, for each cell,
    the array of its basis index in each basis vector of ``c``."""
    out, *idx = _hcomp_plan(cells[0], cells[1])
    for x in cells[2:]:
        out, p_idx, q_idx = _hcomp_plan(out, x)
        idx = [a[p_idx] for a in idx] + [q_idx]
    return out, idx


def hcomp2(g: BlockTwoCell, f: BlockTwoCell) -> BlockTwoCell:
    """Horizontal composite of two-cells (g left of f):
    ``out[(p, q), (p', q')] = g[p, p'] * f[q, q']``."""
    return hcomp2_many(g, f)


def _gather(fs) -> tuple[GradedOneCell, GradedOneCell, np.ndarray | None]:
    """``(source, target, matrix)`` of the horizontal composite of ``fs``
    (two-cells and one-cells, left to right); ``matrix`` is None if every
    factor is an identity.  A run of identities enters as one factor;
    each factor is gathered into the composite basis once (an identity
    as the gather of its ``eye``) and the gathers are multiplied in order."""
    facs: list = []   # the factors, a run of identities as its one-cell
    for f in fs:
        if type(f) is _Identity2:
            f = f.source
        if type(f) is not GradedOneCell:
            facs.append(f)
        elif facs and type(facs[-1]) is GradedOneCell:
            facs[-1] = hcomp1(facs[-1], f)
        else:
            facs.append(f)
    if not facs:
        raise CellMismatch("empty horizontal composite")
    if len(facs) == 1:
        f = facs[0]
        return (f, f, None) if type(f) is GradedOneCell else (f.source, f.target, f.mat)
    src, s_idx = _fold_plan([f if type(f) is GradedOneCell else f.source for f in facs])
    tgt, t_idx = _fold_plan([f if type(f) is GradedOneCell else f.target for f in facs])
    out, exact = None, True   # exact: every factor so far is an identity
    for f, si, ti in zip(facs, s_idx, t_idx):
        ident = type(f) is GradedOneCell
        g = (id2(f) if ident else f).mat.take(ti, 0).take(si, 1)
        if out is None:
            out = g
        elif exact or ident:
            # one side holds only 0 and 1, so every product is exact and
            # writing it in place cannot change its rounding
            np.multiply(out, g, out=out)
        else:
            out = out * g
        exact = exact and ident
        del g   # not held while the next factor is gathered
    return src, tgt, out


def hcomp2_many(*fs: BlockTwoCell | GradedOneCell) -> BlockTwoCell:
    """Horizontal composite of two-cells listed left to right, where a
    one-cell ``x`` stands for ``id2(x)``; ``id2`` of the composite if every
    factor is an identity."""
    src, tgt, mat = _gather(fs)
    return id2(src) if mat is None else BlockTwoCell(src, tgt, mat)


def vcomp(g: BlockTwoCell, f: BlockTwoCell) -> BlockTwoCell:
    """Vertical composite ``g . f`` (f acts first); an identity on
    either side returns the other operand."""
    if f.target is not g.source:
        raise CellMismatch("vertical composition: target/source cells differ")
    if type(g) is _Identity2:
        return f
    if type(f) is _Identity2:
        return g
    return BlockTwoCell(f.source, g.target, g.mat @ f.mat)


def vcomp_many(*layers) -> BlockTwoCell:
    """The string diagram ``layers`` (top to bottom: ``layers[-1]`` acts
    first) as one two-cell.

    A layer is a two-cell or a tuple of factors as for ``hcomp2_many``.
    The non-identity layers are multiplied bottom-up on raw arrays,
    ``L0 @ (L1 @ (... @ Ln))``, as a fold of ``vcomp`` does.  The result
    is the operand itself if it is the only non-identity layer, and the
    shared ``id2`` if there is none.  Raises ``CellMismatch`` on an empty
    stack or layer and on layers that do not chain."""
    if not layers:
        raise CellMismatch("empty vertical composite")
    out = cell = bottom = below = None   # cell: the operand that is all of out
    for layer in reversed(layers):
        if type(layer) is tuple:
            src, tgt, mat = _gather(layer)
        else:
            src, tgt = layer.source, layer.target
            mat = None if type(layer) is _Identity2 else layer.mat
        if below is None:
            bottom = src
        elif src is not below:
            raise CellMismatch("vertical composition: target/source cells differ")
        below = tgt
        if mat is not None:
            cell = layer if out is None and type(layer) is not tuple else None
            out = mat if out is None else mat @ out
    if out is None:
        return id2(below)
    return cell if cell is not None else BlockTwoCell(bottom, below, out)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """``a*`` as a new C-ordered array: one copy of the transpose,
    conjugated in place, so no second copy and no ufunc buffer, which a
    conjugate writing the transposed layout would take."""
    out = a.T.copy()
    return np.conjugate(out, out=out)


def dagger2(f: BlockTwoCell) -> BlockTwoCell:
    """The adjoint two-cell; its matrix is the one copy ``_adjoint``
    makes."""
    if type(f) is _Identity2:
        return f
    return BlockTwoCell(f.target, f.source, _adjoint(f.mat))


@lru_cache(maxsize=None)
def unitor_left(x: GradedOneCell) -> BlockTwoCell:
    """Unitary permutation ``unit . x -> x`` pairing (row(q), q) with q."""
    src, _, q_idx = _hcomp_plan(id1(x.tgt), x)
    mat = np.zeros((x.dim, src.dim), dtype=complex)
    mat[q_idx, np.arange(src.dim)] = 1.0
    return BlockTwoCell(src, x, mat)


def unitor_right(x: GradedOneCell) -> BlockTwoCell:
    """The unitor ``x . unit -> x``: ``id2(x)``, because the pairing
    convention makes ``x . unit`` the cell ``x`` itself."""
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
    rows, cols = x.rows - 1, x.cols - 1
    counts = np.bincount(cols, minlength=x.src.n)
    if not counts.all():
        raise EmptyColumn(int(np.argmin(counts)) + 1)
    root = np.sqrt(counts)
    xbar = GradedOneCell(x.tgt, x.src, tuple((c, r) for r, c in x.grading))

    # basis vector q meets its conjugate in the pair (q, q); ``at`` lists
    # where those pairs sit in the composite
    ev_src, p_idx, q_idx = _hcomp_plan(xbar, x)
    at = np.flatnonzero(p_idx == q_idx)
    q = q_idx[at]
    ev_mat = np.zeros((x.src.n, ev_src.dim), dtype=complex)
    ev_mat[cols[q], at] = 1.0 / root[cols[q]]
    ev = BlockTwoCell(ev_src, id1(x.src), ev_mat)

    coev_tgt, q_idx, p_idx = _hcomp_plan(x, xbar)
    at = np.flatnonzero(q_idx == p_idx)
    q = q_idx[at]
    coev_mat = np.zeros((coev_tgt.dim, x.tgt.n), dtype=complex)
    coev_mat[at, rows[q]] = root[cols[q]]
    coev = BlockTwoCell(id1(x.tgt), coev_tgt, coev_mat)
    return xbar, ev, coev


def residual(f: BlockTwoCell, g: BlockTwoCell) -> float:
    """Frobenius distance between two parallel two-cells."""
    if f.source is not g.source or f.target is not g.target:
        raise CellMismatch("cannot compare two-cells with different cells")
    return frob(f.mat - g.mat)


def is_unitary_residual(f: BlockTwoCell) -> float:
    """max(|f*f - id|, |f f* - id|).  For a square ``f`` the two are
    equal (``f* f`` and ``f f*`` are hermitian with the same
    eigenvalues), so only ``f* f`` is formed."""
    a = frob(dagger(f.mat) @ f.mat - np.eye(f.source.dim))
    if f.source.dim == f.target.dim:
        return a
    return max(a, frob(f.mat @ dagger(f.mat) - np.eye(f.target.dim)))


def projection_residual(p: BlockTwoCell) -> float:
    """max(|p - p*|, |p^2 - p|) for an endo two-cell."""
    if p.source is not p.target:
        raise CellMismatch("projection must be an endo two-cell")
    return max(frob(p.mat - dagger(p.mat)), frob(p.mat @ p.mat - p.mat))
