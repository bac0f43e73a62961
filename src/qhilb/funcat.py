"""Functor categories over the graded matrix model.

Functors, transformations and modifications from a finitely presented
2-category into graded matrices; local projection completeness; and the
construction that splits a Q-system living on the endomorphisms of a
functor ``F`` into a dualizable transformation ``phi : F => G`` with a
comparison unitary family ``gamma``.

Conventions (see :mod:`qhilb.presentation` for paths):

* functors are free on generators: the image of a path is the fold of
  ``hcomp1`` over the generator images, so the tensorator of a free
  functor is the identity (a left unitor when the left path is empty);
* a transformation stores its crossing cells on generator paths; on
  longer paths the crossing is the stack of generator crossings unless
  an explicit cell is stored (the constructed ``phi`` stores cells
  built from the splitting isometries, which is what the coherence
  checks compare against);
* a modification is a ``dict`` from zero-cell label to its two-cell
  component, as a modification of Fun(C, D) is a family indexed by the
  zero-cells of C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    dagger2,
    hcomp1,
    hcomp1_many,
    hcomp2_many,
    id1,
    id2,
    is_unitary_residual,
    projection_residual,
    residual,
    unitor_left,
    vcomp,
    vcomp_many,
)
from .errors import CellMismatch, IllTypedPath, InvalidQSystem
from .linalg import Tolerance, frob
from .presentation import EDagger, EGen, EHComp, EId, EVComp, Path, PresentedTwoCat
from .qsystem import (
    QSystemData,
    qsystem_from_dual,
    standard_dual_pair,
    zigzag_residuals,
)
from .report import ResidualReport
from .splitting import SplitResult, split_projection, split_qsystem

__all__ = [
    "FunctorData",
    "TransformationData",
    "EndFQSystem",
    "GConstruction",
    "check_functor",
    "eval_expr",
    "identity_transformation",
    "check_transformation",
    "check_modification",
    "tensor_transformations",
    "split_modification_projection",
    "check_endf_qsystem",
    "qsystem_from_dualizable_transformation",
    "construct_G",
    "construct_phi",
    "construct_phibar",
    "verify_main_theorem",
    "MainTheoremReport",
    "constant_functor_scenario",
]


# --------------------------------------------------------------------------
# functors


@dataclass(eq=False)
class FunctorData:
    """A functor presented by generator images, extended freely.

    ``on0`` maps zero-cell labels to zero-cells of the model, ``on1``
    maps generator labels to one-cells with matching endpoints, ``on2``
    maps generator two-cell labels to two-cells between the path
    images.  Tensorators of the free extension are identities (left
    unitors on empty left paths) and units are identities.
    """

    cat: PresentedTwoCat
    on0: dict[str, ZeroCell]
    on1: dict[str, GradedOneCell]
    on2: dict[str, BlockTwoCell] = field(default_factory=dict)

    def __post_init__(self):
        for g in self.cat.gen_one_cells:
            img = self.on1[g.label]
            if img.src != self.on0[g.src] or img.tgt != self.on0[g.tgt]:
                raise CellMismatch(f"image of {g.label} has wrong endpoints")
        for f in self.cat.gen_two_cells:
            if f.label in self.on2:
                img = self.on2[f.label]
                for x, p in ((img.source, f.source), (img.target, f.target)):
                    # an empty path's cell is id1: its size first, as for a unit
                    if not p.labels and x.dim != self.on0[p.src].n or x is not self.cell(p):
                        raise CellMismatch(f"image of {f.label} has wrong cells")

    def cell(self, path: Path) -> GradedOneCell:
        if not path.labels:
            return id1(self.on0[path.src])
        return hcomp1_many(*(self.on1[lab] for lab in path.labels))

    def tensorator(self, p: Path, q: Path) -> BlockTwoCell:
        """Canonical two-cell ``F(p) . F(q) -> F(p q)``."""
        if p.src != q.tgt:
            raise IllTypedPath("tensorator of non-composable paths")
        if not p.labels:
            return unitor_left(self.cell(q))
        src = hcomp1(self.cell(p), self.cell(q))
        tgt = self.cell(p * q)
        if src is not tgt:
            raise CellMismatch("free tensorator expects literally equal cells")
        return id2(src)

    def unit(self, a: str) -> BlockTwoCell:
        return id2(id1(self.on0[a]))


def eval_expr(f, e) -> BlockTwoCell:
    """Evaluate a two-cell expression under a functor.

    Horizontal composites are conjugated by the functor's tensorators,
    which is the canonical extension for functors with nontrivial
    tensor structure and a no-op for free ones.
    """
    cat = f.cat
    if isinstance(e, EGen):
        g = cat.gen2(e.label)
        img = f.on2[e.label]
        if img.source is not f.cell(g.source) or img.target is not f.cell(g.target):
            raise CellMismatch(f"image of {e.label} has wrong cells")
        return img
    if isinstance(e, EId):
        return id2(f.cell(e.path))
    if isinstance(e, EDagger):
        return dagger2(eval_expr(f, e.expr))
    if isinstance(e, EVComp):
        return vcomp_many(*(eval_expr(f, x) for x in e.exprs))
    if isinstance(e, EHComp):
        acc = eval_expr(f, e.exprs[0])
        s_acc, t_acc = cat.expr_type(e.exprs[0])
        for sub in e.exprs[1:]:
            img = eval_expr(f, sub)
            s, t = cat.expr_type(sub)
            acc = vcomp_many(f.tensorator(t_acc, t), (acc, img),
                             dagger2(f.tensorator(s_acc, s)))
            s_acc, t_acc = s_acc * s, t_acc * t
        return acc
    raise IllTypedPath(f"unknown expression node {e!r}")


def check_functor(f: FunctorData) -> ResidualReport:
    """Residuals of the functor axioms over ``f``'s own presentation
    ``f.cat``.

    Tensorator unitarity and associativity on composable generator
    pairs/triples, the two unit equations per generator, and equality
    of relation images.
    """
    cat = f.cat
    rep = ResidualReport()
    for p, q in cat.composable_pairs():
        t2 = f.tensorator(p, q)
        rep.add(f"tensorator_unitary[{_pname(p)},{_pname(q)}]", is_unitary_residual(t2))
    for p, q, r in cat.composable_triples():
        lhs = vcomp_many(f.tensorator(p * q, r), (f.tensorator(p, q), f.cell(r)))
        rhs = vcomp_many(f.tensorator(p, q * r), (f.cell(p), f.tensorator(q, r)))
        rep.add(f"tensorator_assoc[{_pname(p)},{_pname(q)},{_pname(r)}]",
                residual(lhs, rhs))
    for g in cat.gen_one_cells:
        p = cat.path((g.label,))
        ea, eb = cat.empty_path(g.src), cat.empty_path(g.tgt)
        right = vcomp_many(f.tensorator(p, ea), (f.cell(p), f.unit(g.src)))
        rep.add(f"unit_right[{g.label}]", residual(right, id2(f.cell(p))))
        left = vcomp_many(f.tensorator(eb, p), (f.unit(g.tgt), f.cell(p)))
        rep.add(f"unit_left[{g.label}]", residual(left, unitor_left(f.cell(p))))
    for k, (lhs, rhs) in enumerate(cat.relations):
        rep.add(f"relation[{k}]", residual(eval_expr(f, lhs), eval_expr(f, rhs)))
    return rep


def _pname(p: Path) -> str:
    return ".".join(p.labels) if p.labels else f"1{p.src}"


# --------------------------------------------------------------------------
# transformations and modifications


@dataclass(eq=False)
class TransformationData:
    """Transformation between functors: one-cell components per
    zero-cell and unitary crossing cells per (at least) generator."""

    source: FunctorData
    target: FunctorData
    comp0: dict[str, GradedOneCell]
    comp1: dict[Path, BlockTwoCell]

    def __post_init__(self):
        for a, c in self.comp0.items():
            if c.src != self.source.on0[a] or c.tgt != self.target.on0[a]:
                raise CellMismatch(f"component at {a} has wrong endpoints")

    def component(self, path: Path) -> BlockTwoCell:
        """Crossing cell on a path: stored, or the inverse left unitor
        on empty paths, or the stack of generator crossings."""
        if path in self.comp1:
            return self.comp1[path]
        if not path.labels:
            return dagger2(unitor_left(self.comp0[path.src]))
        cat = self.source.cat
        labels = path.labels
        layers = []
        for i, lab in enumerate(labels):
            layer = [self.comp1[cat.path((lab,))]]
            if i > 0:
                layer.insert(0, self.target.cell(cat.path(labels[:i])))
            if i + 1 < len(labels):
                layer.append(self.source.cell(cat.path(labels[i + 1:])))
            layers.append(tuple(layer))
        return vcomp_many(*reversed(layers))


def identity_transformation(f: FunctorData) -> TransformationData:
    comp0 = {a: id1(f.on0[a]) for a in f.cat.zero_cells}
    comp1 = {p: unitor_left(f.cell(p)) for p in f.cat.gen_paths()}
    return TransformationData(f, f, comp0, comp1)


def check_transformation(phi: TransformationData) -> ResidualReport:
    """Residuals of the transformation axioms: unitarity of each
    generator crossing, the composite coherence on composable pairs,
    naturality on generator two-cells, and the unit coherence."""
    f, g = phi.source, phi.target
    cat = f.cat
    rep = ResidualReport()
    for gen in cat.gen_one_cells:
        p = cat.path((gen.label,))
        rep.add(f"unitary[{gen.label}]", is_unitary_residual(phi.component(p)))
    for p, q in cat.composable_pairs():
        a = q.src
        lhs = vcomp_many((g.tensorator(p, q), phi.comp0[a]),
                         (g.cell(p), phi.component(q)),
                         (phi.component(p), f.cell(q)))
        rhs = vcomp_many(phi.component(p * q), (phi.comp0[p.tgt], f.tensorator(p, q)))
        rep.add(f"composite[{_pname(p)},{_pname(q)}]", residual(lhs, rhs))
    for two in cat.gen_two_cells:
        a, b = two.source.src, two.source.tgt
        lhs = vcomp_many((eval_expr(g, EGen(two.label)), phi.comp0[a]),
                         phi.component(two.source))
        rhs = vcomp_many(phi.component(two.target),
                         (phi.comp0[b], eval_expr(f, EGen(two.label))))
        rep.add(f"naturality[{two.label}]", residual(lhs, rhs))
    for a in cat.zero_cells:
        e = cat.empty_path(a)
        c = phi.comp0[a]
        lhs = vcomp_many(phi.component(e), (c, f.unit(a)))
        rhs = vcomp_many((g.unit(a), c), dagger2(unitor_left(c)))
        rep.add(f"unit[{a}]", residual(lhs, rhs))
    return rep


def check_modification(eta: dict[str, BlockTwoCell], phi: TransformationData,
                       psi: TransformationData) -> ResidualReport:
    """Residuals of the sliding equation of a modification
    ``eta : phi => psi`` on every generator; component norms recorded."""
    f, g = phi.source, phi.target
    cat = f.cat
    rep = ResidualReport()
    for p in cat.gen_paths():
        a, b = p.src, p.tgt
        lhs = vcomp_many(psi.component(p), (eta[b], f.cell(p)))
        rhs = vcomp_many((g.cell(p), eta[a]), phi.component(p))
        rep.add(f"slide[{_pname(p)}]", residual(lhs, rhs))
    for a in cat.zero_cells:
        rep.add_info(f"norm[{a}]",
                     float(np.linalg.norm(eta[a].mat, 2)) if eta[a].mat.size else 0.0)
    return rep


def tensor_transformations(outer: TransformationData,
                           inner: TransformationData) -> TransformationData:
    """Tensor of transformations (``outer`` on the left); components
    are ``outer_a . inner_a`` and crossings the two-step stack."""
    cat = inner.source.cat
    if any(inner.target.on0[a] != outer.source.on0[a]
           for a in cat.zero_cells):
        raise CellMismatch("transformations are not composable")
    comp0 = {a: hcomp1(outer.comp0[a], inner.comp0[a]) for a in cat.zero_cells}
    comp1 = {}
    for p in cat.gen_paths():
        a, b = p.src, p.tgt
        comp1[p] = vcomp_many((outer.component(p), inner.comp0[a]),
                              (outer.comp0[b], inner.component(p)))
    return TransformationData(inner.source, outer.target, comp0, comp1)


def split_modification_projection(p: dict[str, BlockTwoCell], phi: TransformationData,
                                  tol: Tolerance = Tolerance()):
    """Split a projection modification ``p : phi => phi``.

    Splits each component in the model and conjugates the crossings by
    the resulting isometries.  Returns ``(x, iso)`` where ``x`` is a
    transformation and ``iso : x => phi`` a modification with
    ``iso* iso = id`` and ``iso iso* = p`` componentwise.
    """
    f, g = phi.source, phi.target
    cat = f.cat
    comp0, isos = {}, {}
    for a in cat.zero_cells:
        comp0[a], isos[a] = split_projection(phi.comp0[a], p[a], tol)
    comp1 = {}
    for path in cat.gen_paths():
        a, b = path.src, path.tgt
        comp1[path] = vcomp_many((g.cell(path), dagger2(isos[a])),
                                 phi.component(path),
                                 (isos[b], f.cell(path)))
    return TransformationData(f, g, comp0, comp1), isos


# --------------------------------------------------------------------------
# Q-systems on End(F)


@dataclass(eq=False)
class EndFQSystem:
    """A Q-system on the endomorphisms of a functor: a self-
    transformation ``psi`` with multiplication and unit modifications."""

    psi: TransformationData
    m: dict[str, BlockTwoCell]
    i: dict[str, BlockTwoCell]
    _at: dict[str, QSystemData] = field(init=False, repr=False, default_factory=dict)

    def at(self, a: str) -> QSystemData:
        """The Q-system at zero-cell ``a``, built on the first call."""
        if a not in self._at:
            self._at[a] = QSystemData(self.psi.comp0[a], self.m[a], self.i[a])
        return self._at[a]


def check_endf_qsystem(q: EndFQSystem) -> ResidualReport:
    """Per-zero-cell Q-system residuals, transformation residuals of
    ``psi`` and sliding residuals of the multiplication and unit, over
    the presentation of ``F = q.psi.source``."""
    f = q.psi.source
    rep = ResidualReport()
    for a in f.cat.zero_cells:
        rep.extend(f"qsystem[{a}].", q.at(a).residuals)
    rep.extend("psi.", check_transformation(q.psi))
    psi2 = tensor_transformations(q.psi, q.psi)
    rep.extend("m.", check_modification(q.m, psi2, q.psi))
    rep.extend("i.", check_modification(q.i, identity_transformation(f), q.psi))
    return rep


def qsystem_from_dualizable_transformation(phi: TransformationData,
                                           phibar: TransformationData) -> EndFQSystem:
    """The Q-system ``phibar . phi`` of a dualizable transformation.

    ``phibar`` components must be the balanced duals of ``phi``'s; the
    multiplication contracts with the evaluation of that dual pair and
    the unit is the coevaluation.
    """
    cat = phi.source.cat
    qs = {}
    for a in cat.zero_cells:
        pair = standard_dual_pair(phibar.comp0[a])
        if pair.Xbar is not phi.comp0[a]:
            raise CellMismatch(
                f"components at {a} are not a transposed dual pair")
        qs[a] = qsystem_from_dual(pair)
    psi = tensor_transformations(phibar, phi)
    return EndFQSystem(psi, {a: q.m for a, q in qs.items()},
                       {a: q.i for a, q in qs.items()})


# --------------------------------------------------------------------------
# the splitting construction for End(F) Q-systems


@dataclass(eq=False)
class _PathData:
    proj: BlockTwoCell            # the projection on x_b . F(p) . xbar_a
    u: BlockTwoCell               # isometry image -> x_b . F(p) . xbar_a
    image: GradedOneCell          # G(p)


class GConstruction(FunctorData):
    """The functor ``G`` split from a Q-system ``q`` on End(F), with
    ``F = q.psi.source`` and presentation ``cat = F.cat``, and the data
    it is built from: the residuals of ``q`` (``input``), per-zero-cell
    splittings (``on0`` holds their new zero-cells), per-path
    projections and isometries (``cell`` is the image of a path), the
    tensorators through those isometries, and images of generator
    two-cells (``on2``).  Path data and tensorators are built on first
    read and kept, so one object belongs to one thread.

    Raises ``InvalidQSystem`` when an ``input`` residual exceeds
    ``100 atol``; ``split_qsystem`` gates each zero-cell at ``10 atol``.
    """

    def __init__(self, q: EndFQSystem, tol: Tolerance):
        self.input = check_endf_qsystem(q)
        if not self.input.passes(100 * tol.atol):
            name, value = self.input.worst()
            raise InvalidQSystem(f"End(F) Q-system fails {name} at {value:.3e}")
        self.F = f = q.psi.source
        self.cat = cat = f.cat
        self.q = q
        self.tol = tol
        self.splits: dict[str, SplitResult] = {}
        self.x: dict[str, GradedOneCell] = {}
        self.xbar: dict[str, GradedOneCell] = {}
        self.ev: dict[str, BlockTwoCell] = {}
        self.coev: dict[str, BlockTwoCell] = {}
        self.gamma: dict[str, BlockTwoCell] = {}
        self.paths: dict[Path, _PathData] = {}
        self.on0: dict[str, ZeroCell] = {}
        self.on2: dict[str, BlockTwoCell] = {}
        self._capped: dict[tuple[Path, Path], BlockTwoCell] = {}
        self._tensorators: dict[tuple[Path, Path], BlockTwoCell] = {}
        for a in cat.zero_cells:
            res = split_qsystem(q.at(a), tol)
            self.splits[a] = res
            self.on0[a] = res.k
            self.xbar[a] = res.pair.X
            self.x[a] = res.pair.Xbar
            self.ev[a] = res.pair.ev
            self.coev[a] = res.pair.coev
            self.gamma[a] = res.gamma
        for a in cat.zero_cells:
            self.materialize(cat.empty_path(a))
        for p in cat.gen_paths():
            self.materialize(p)
        for p, qq in cat.composable_pairs():
            self.materialize(p * qq)
        for p, qq, r in cat.composable_triples():
            self.materialize(p * qq * r)
        for two in cat.gen_two_cells:
            self.materialize(two.source)
            self.materialize(two.target)
            self.on2[two.label] = self._gen2_image(two)
        self.on1 = {g.label: self.cell(cat.path((g.label,))) for g in cat.gen_one_cells}

    # -- per-path data ----------------------------------------------------

    def path_projection(self, path: Path) -> BlockTwoCell:
        """The projection on ``x_b . F(p) . xbar_a`` cut out by the
        crossing of ``psi`` conjugated with the comparison unitaries."""
        return self._crossing_projection(path.src, path.tgt, self.F.cell(path),
                                         self.q.psi.component(path))

    def _crossing_projection(self, a: str, b: str, mid: GradedOneCell,
                             cross: BlockTwoCell) -> BlockTwoCell:
        """The projection on ``x_b . mid . xbar_a`` for a crossing
        ``cross : psi_b . mid -> mid . psi_a``, conjugated with the
        comparison unitaries and capped by the evaluations."""
        xb, xbar_a = self.x[b], self.xbar[a]
        tail = hcomp1_many(xb, mid, xbar_a)
        return vcomp_many(
            vcomp_many(unitor_left(tail), (self.ev[b], tail)),
            (xb, dagger2(self.gamma[b]), mid, xbar_a),
            (xb, dagger2(cross), xbar_a),
            (xb, mid, self.gamma[a], xbar_a),
            (xb, mid, hcomp2_many(xbar_a, dagger2(self.ev[a]))),
        )

    def materialize(self, path: Path) -> _PathData:
        data = self.paths.get(path)
        if data is not None:
            return data
        proj = self.path_projection(path)
        if not path.labels:
            a = path.src
            image = id1(self.splits[a].k)
            u = vcomp_many((self.x[a], dagger2(unitor_left(self.xbar[a]))),
                           dagger2(self.ev[a]))
        else:
            image, u = split_projection(proj.source, proj, self.tol)
        data = _PathData(proj, u, image)
        self.paths[path] = data
        return data

    def cell(self, path: Path) -> GradedOneCell:
        """``G(path)``: the image of the path's splitting isometry."""
        return self.materialize(path).image

    def u_of(self, path: Path) -> BlockTwoCell:
        return self.materialize(path).u

    def _gen2_image(self, two) -> BlockTwoCell:
        a, b = two.source.src, two.source.tgt
        ff = eval_expr(self.F, EGen(two.label))
        return vcomp_many(dagger2(self.u_of(two.target)), (self.x[b], ff, self.xbar[a]),
                          self.u_of(two.source))

    def tensorator(self, p: Path, q: Path) -> BlockTwoCell:
        """``G(p) . G(q) -> G(p q)`` through the splitting isometries,
        built once per ``(p, q)``."""
        t = self._tensorators.get((p, q))
        if t is None:
            t = self._tensorators[p, q] = self._build_tensorator(p, q)
            del self._capped[p, q]  # the tensorator is its last reader
        return t

    def _build_tensorator(self, p: Path, q: Path) -> BlockTwoCell:
        a, c = q.src, p.tgt
        return vcomp_many(dagger2(self.u_of(p * q)),
                          (self.x[c], self.F.tensorator(p, q), self.xbar[a]),
                          self._capped_product(p, q))

    def _capped_product(self, p: Path, q: Path) -> BlockTwoCell:
        """``u_p . u_q`` with its middle ``xbar_b . x_b`` capped by ``coev_b*``,
        into ``x_c . F(p) . F(q) . xbar_a``; built once per ``(p, q)`` and
        kept until the tensorator, its last reader, is built."""
        capped = self._capped.get((p, q))
        if capped is None:
            a, b, c = q.src, p.src, p.tgt
            xc, fp, fq, xbar_a = self.x[c], self.F.cell(p), self.F.cell(q), self.xbar[a]
            capped = self._capped[p, q] = vcomp_many(
                (xc, fp, unitor_left(hcomp1(fq, xbar_a))),
                (xc, fp, dagger2(self.coev[b]), fq, xbar_a),
                (self.u_of(p), self.u_of(q)))
        return capped


def construct_G(q: EndFQSystem, tol: Tolerance = Tolerance()) -> GConstruction:
    """Split a Q-system ``q`` on End(F), ``F = q.psi.source``, into the
    functor ``G`` itself.

    Checks the Q-system (``InvalidQSystem`` if it fails), splits each
    ``psi_a``, builds the path projections from the crossings and
    comparison unitaries, their splitting isometries and the images of
    two-cell generators; tensorators are built on first use.
    """
    return GConstruction(q, tol)


def construct_phi(gc: GConstruction) -> TransformationData:
    """The transformation ``phi : F => G`` with components from the
    splittings; crossings come from the path isometries with a bent
    coevaluation strand."""
    comp0 = {a: gc.x[a] for a in gc.cat.zero_cells}
    comp1 = {}
    for path in gc.paths:
        a, b = path.src, path.tgt
        comp1[path] = vcomp_many((dagger2(gc.u_of(path)), gc.x[a]),
                                 (gc.x[b], gc.F.cell(path), gc.coev[a]))
    return TransformationData(gc.F, gc, comp0, comp1)


def construct_phibar(gc: GConstruction) -> TransformationData:
    """The dual transformation ``phibar : G => F``."""
    comp0 = {a: gc.xbar[a] for a in gc.cat.zero_cells}
    comp1 = {}
    for path in gc.paths:
        a, b = path.src, path.tgt
        tail = hcomp1(gc.F.cell(path), gc.xbar[a])
        comp1[path] = vcomp_many(unitor_left(tail), (dagger2(gc.coev[b]), tail),
                                 (gc.xbar[b], gc.u_of(path)))
    return TransformationData(gc, gc.F, comp0, comp1)


# --------------------------------------------------------------------------
# full verification


class MainTheoremReport(ResidualReport):
    """The residuals of every step of the construction, each named
    ``section.check``, plus the constructed data itself."""

    gconstruction: GConstruction | None = None


def verify_main_theorem(q: EndFQSystem, tol: Tolerance = Tolerance()) -> MainTheoremReport:
    """Run the whole construction on a Q-system ``q`` on End(F),
    ``F = q.psi.source``, and verify every intermediate claim over
    ``F.cat``.

    One row ``section.check`` per identity, each checked once (all
    residuals Frobenius), in eleven sections:

    - ``input``: the Q-system on End(F) is valid;
    - ``gamma_bend``: adjoints of the comparison unitaries computed by
      bending strands, and the comultiplication identity;
    - ``projection``: each path projection is a hermitian idempotent
      split by its isometry;
    - ``isometry_product``: the two-path contraction identity for the
      splitting isometries;
    - ``gamma_action``: compressed left/right action identities;
    - ``crossing_transport``: path projections commute with the functor
      data (tensorators and two-cell images);
    - ``functor``: unitarity, associativity and unit axioms of the
      tensorators of G, and its relations (full checker);
    - ``transformation``: phi and phibar are transformations with
      unitary crossings;
    - ``duality``: the cusp families are modifications, zig-zags hold,
      and the evaluation is a coisometry;
    - ``modification``: gamma slides through the crossings;
    - ``qsystem_iso``: gamma is a unitary Q-system isomorphism at every
      zero-cell (it intertwines multiplication and unit), as
      ``split_qsystem`` reported it.
    """
    out = MainTheoremReport()
    gc = construct_G(q, tol)
    f, cat = gc.F, gc.cat
    out.extend("input.", gc.input)
    phi = construct_phi(gc)
    phibar = construct_phibar(gc)

    # (a) bending identities for gamma
    for a in cat.zero_cells:
        pair = gc.splits[a].pair
        gam = gc.gamma[a]
        psi_a = q.psi.comp0[a]
        x, xbar = pair.Xbar, pair.X
        t = hcomp1(xbar, x)
        counit = vcomp(dagger2(q.i[a]), q.m[a])  # psi.psi -> unit
        # xbar x -> xbar x xbar x, inserting the adjoint evaluation
        cup = hcomp2_many(xbar, vcomp_many((dagger2(pair.ev), x), dagger2(unitor_left(x))))
        nested = vcomp(cup, pair.coev)  # unit -> xbar x xbar x
        e1 = vcomp_many(unitor_left(t), (counit, t), (psi_a, gam, t), (psi_a, nested))
        out.add(f"gamma_bend.adjoint_left[{a}]", residual(dagger2(gam), e1))
        e2 = vcomp_many((t, counit), (t, gam, psi_a), (nested, psi_a),
                        dagger2(unitor_left(psi_a)))
        out.add(f"gamma_bend.adjoint_right[{a}]", residual(dagger2(gam), e2))
        lhs = vcomp(dagger2(q.m[a]), gam)
        rhs = vcomp_many((gam, gam), cup)
        out.add(f"gamma_bend.comultiplication[{a}]", residual(lhs, rhs))
        out.add(f"gamma_bend.counit[{a}]",
                residual(vcomp(dagger2(q.i[a]), gam), dagger2(pair.coev)))

    # (b) path projections
    for path, data in gc.paths.items():
        out.add(f"projection.idempotent[{_pname(path)}]", projection_residual(data.proj))
        out.add(f"projection.isometry[{_pname(path)}]",
                frob(dagger2(data.u).mat @ data.u.mat - np.eye(data.image.dim)))
        out.add(f"projection.splits[{_pname(path)}]",
                residual(vcomp(data.u, dagger2(data.u)), data.proj))

    # (c) two-path contraction identity
    for p, qq in cat.composable_pairs():
        out.add(f"isometry_product.[{_pname(p)},{_pname(qq)}]",
                _isometry_product_residual(gc, p, qq))

    # (d) compressed action identities
    for a in cat.zero_cells:
        pair = gc.splits[a].pair
        x, xbar = pair.Xbar, pair.X
        gam, m_a = gc.gamma[a], q.m[a]
        psi_a = q.psi.comp0[a]
        mult = gc.splits[a].dual.m
        lhs = vcomp_many(gam, mult, (xbar, x, dagger2(gam)))
        out.add(f"gamma_action.left[{a}]",
                residual(lhs, vcomp_many(m_a, (gam, psi_a))))
        lhs2 = vcomp_many(gam, mult, (dagger2(gam), xbar, x))
        out.add(f"gamma_action.right[{a}]",
                residual(lhs2, vcomp_many(m_a, (psi_a, gam))))

    # (e) projections against the functor structure
    for p, qq in cat.composable_pairs():
        a, c = qq.src, p.tgt
        whisk = hcomp2_many(gc.x[c], f.tensorator(p, qq), gc.xbar[a])
        lhs = vcomp(gc.paths[p * qq].proj, whisk)
        rhs = vcomp(whisk, _double_crossing_projection(gc, p, qq))
        out.add(f"crossing_transport.tensorator[{_pname(p)},{_pname(qq)}]",
                residual(lhs, rhs))
    for two in cat.gen_two_cells:
        a, b = two.source.src, two.source.tgt
        ff = eval_expr(f, EGen(two.label))
        whisk = hcomp2_many(gc.x[b], ff, gc.xbar[a])
        lhs = vcomp(gc.paths[two.target].proj, whisk)
        rhs = vcomp(whisk, gc.paths[two.source].proj)
        out.add(f"crossing_transport.naturality[{two.label}]", residual(lhs, rhs))

    # (f) full functor checker
    out.extend("functor.", check_functor(gc))

    # (g) phi and phibar are transformations
    out.extend("transformation.phi.", check_transformation(phi))
    out.extend("transformation.phibar.", check_transformation(phibar))

    # (h) duality of phi
    ev_mod = {a: dagger2(gc.ev[a]) for a in cat.zero_cells}
    phibar_phi = tensor_transformations(phibar, phi)
    phi_phibar = tensor_transformations(phi, phibar)
    out.extend("duality.coev.", check_modification(gc.coev, identity_transformation(f),
                                                   phibar_phi))
    out.extend("duality.ev.", check_modification(ev_mod, identity_transformation(gc),
                                                 phi_phibar))
    for a in cat.zero_cells:
        pair = gc.splits[a].pair
        z1, z2 = zigzag_residuals(pair.X, pair.Xbar, pair.ev, pair.coev)
        out.add(f"duality.zigzag[{a}]", max(z1, z2))
        out.add(f"duality.ev_coisometry[{a}]",
                residual(vcomp(gc.ev[a], dagger2(gc.ev[a])), id2(id1(gc.splits[a].k))))

    # (i) gamma slides through the crossings
    out.extend("modification.", check_modification(gc.gamma, phibar_phi, q.psi))

    # (j) Q-system isomorphism at every zero-cell
    for a in cat.zero_cells:
        out.extend(f"qsystem_iso.[{a}].", gc.splits[a].iso)

    out.gconstruction = gc
    return out


def _double_crossing_projection(gc: GConstruction, p: Path, q: Path) -> BlockTwoCell:
    """The projection on ``x . F(p) . F(q) . xbar`` built from the
    two-step crossing stack (no tensorator inserted)."""
    fp, fq = gc.F.cell(p), gc.F.cell(q)
    psi = gc.q.psi
    cross = vcomp_many((fp, psi.component(q)), (psi.component(p), fq))
    return gc._crossing_projection(q.src, p.tgt, hcomp1(fp, fq), cross)


def _isometry_product_residual(gc: GConstruction, p: Path, q: Path) -> float:
    """Residual of the contraction identity: capping the middle pair of
    ``u_p . u_q`` equals the multiplication threaded through both
    crossings and all three comparison unitaries."""
    a, b, c = q.src, p.src, p.tgt
    fp, fq = gc.F.cell(p), gc.F.cell(q)
    xc, xbar_a = gc.x[c], gc.xbar[a]
    xbar_b, xb = gc.xbar[b], gc.x[b]
    psi = gc.q.psi
    full_tail = hcomp1_many(xc, fp, fq, xbar_a)
    rhs = vcomp_many(
        vcomp_many(unitor_left(full_tail), (gc.ev[c], full_tail)),
        (xc, dagger2(gc.gamma[c]), fp, fq, xbar_a),
        (xc, dagger2(psi.component(p)), fq, xbar_a),
        (xc, fp, gc.q.m[b], fq, xbar_a),
        (xc, fp, gc.gamma[b], psi.comp0[b], fq, xbar_a),
        (xc, fp, xbar_b, xb, dagger2(psi.component(q)), xbar_a),
        (xc, fp, xbar_b, xb, fq, gc.gamma[a], xbar_a),
        (xc, fp, xbar_b, xb, fq, hcomp2_many(xbar_a, dagger2(gc.ev[a]))),
        (gc.u_of(p), gc.u_of(q)),
    )
    return residual(gc._capped_product(p, q), rhs)


# --------------------------------------------------------------------------
# constant scenario


def constant_functor_scenario(cat: PresentedTwoCat, q: QSystemData):
    """Constant functor at the zero-cell of ``q`` with the Q-system
    sitting identically over every zero-cell; crossings are unitors.
    ``q`` is not checked here: ``construct_G`` checks the result."""
    b = q.Q.src
    on0 = {a: b for a in cat.zero_cells}
    on1 = {g.label: id1(b) for g in cat.gen_one_cells}
    on2 = {f.label: id2(id1(b)) for f in cat.gen_two_cells}
    f = FunctorData(cat, on0, on1, on2)
    comp0 = {a: q.Q for a in cat.zero_cells}
    comp1 = {p: dagger2(unitor_left(q.Q)) for p in cat.gen_paths()}
    psi = TransformationData(f, f, comp0, comp1)
    return f, EndFQSystem(psi, dict.fromkeys(cat.zero_cells, q.m),
                          dict.fromkeys(cat.zero_cells, q.i))
