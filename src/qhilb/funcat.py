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
  checks compare against).
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
    hcomp2,
    hcomp2_many,
    id1,
    id2,
    is_unitary_residual,
    projection_residual,
    residual,
    unitor_left,
    unitor_right,
    vcomp,
    vcomp_many,
)
from .errors import CellMismatch, IllTypedPath, InvalidQSystem
from .linalg import Tolerance, frob
from .presentation import EDagger, EGen, EHComp, EId, EVComp, Path, PresentedTwoCat
from .qsystem import (
    DualPair,
    QSystemData,
    check_qsystem,
    standard_dual_pair,
    zigzag_residuals,
)
from .report import ResidualReport
from .splitting import SplitResult, split_projection, split_qsystem

__all__ = [
    "FunctorData",
    "TransformationData",
    "ModificationData",
    "EndFQSystem",
    "GConstruction",
    "check_functor",
    "eval_expr",
    "identity_transformation",
    "check_transformation",
    "check_modification",
    "tensor_transformations",
    "tensor_modifications",
    "vcomp_modifications",
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
                if img.source != self.cell(f.source) or img.target != self.cell(f.target):
                    raise CellMismatch(f"image of {f.label} has wrong cells")

    def zero_cell(self, a: str) -> ZeroCell:
        return self.on0[a]

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
        if src != tgt:
            raise CellMismatch("free tensorator expects literally equal cells")
        return id2(src)

    def unit(self, a: str) -> BlockTwoCell:
        return id2(id1(self.on0[a]))

    def gen2_image(self, label: str) -> BlockTwoCell:
        return self.on2[label]


def eval_expr(f, e) -> BlockTwoCell:
    """Evaluate a two-cell expression under a functor.

    Horizontal composites are conjugated by the functor's tensorators,
    which is the canonical extension for functors with nontrivial
    tensor structure and a no-op for free ones.
    """
    cat = f.cat
    if isinstance(e, EGen):
        g = cat.gen2(e.label)
        img = f.gen2_image(e.label)
        if img.source != f.cell(g.source) or img.target != f.cell(g.target):
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
            acc = vcomp_many(
                f.tensorator(t_acc, t),
                hcomp2(acc, img),
                dagger2(f.tensorator(s_acc, s)),
            )
            s_acc, t_acc = s_acc * s, t_acc * t
        return acc
    raise IllTypedPath(f"unknown expression node {e!r}")


def check_functor(cat: PresentedTwoCat, f) -> ResidualReport:
    """Residuals of the functor axioms over the presentation.

    Tensorator unitarity and associativity on composable generator
    pairs/triples, the two unit equations per generator, and equality
    of relation images.
    """
    rep = ResidualReport()
    for p, q in cat.composable_pairs():
        t2 = f.tensorator(p, q)
        rep.add(f"tensorator_unitary[{_pname(p)},{_pname(q)}]", is_unitary_residual(t2))
    for p, q, r in cat.composable_triples():
        lhs = vcomp(f.tensorator(p * q, r), hcomp2(f.tensorator(p, q), id2(f.cell(r))))
        rhs = vcomp(f.tensorator(p, q * r), hcomp2(id2(f.cell(p)), f.tensorator(q, r)))
        rep.add(f"tensorator_assoc[{_pname(p)},{_pname(q)},{_pname(r)}]",
                residual(lhs, rhs))
    for g in cat.gen_one_cells:
        p = cat.path((g.label,))
        ea, eb = cat.empty_path(g.src), cat.empty_path(g.tgt)
        right = vcomp(f.tensorator(p, ea), hcomp2(id2(f.cell(p)), f.unit(g.src)))
        rep.add(f"unit_right[{g.label}]", residual(right, id2(f.cell(p))))
        left = vcomp(f.tensorator(eb, p), hcomp2(f.unit(g.tgt), id2(f.cell(p))))
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
            if c.src != self.source.zero_cell(a) or c.tgt != self.target.zero_cell(a):
                raise CellMismatch(f"component at {a} has wrong endpoints")

    def component(self, path: Path) -> BlockTwoCell:
        """Crossing cell on a path: stored, or the unitor composite on
        empty paths, or the stack of generator crossings."""
        if path in self.comp1:
            return self.comp1[path]
        c = self.comp0[path.src]
        if not path.labels:
            return vcomp(dagger2(unitor_left(c)), unitor_right(c))
        cat = self.source.cat
        steps = []
        labels = path.labels
        for i, lab in enumerate(labels):
            gp = cat.path((lab,))
            cross = self.comp1[gp]
            parts = []
            if i > 0:
                parts.append(id2(self.target.cell(cat.path(labels[:i]))))
            parts.append(cross)
            if i + 1 < len(labels):
                parts.append(id2(self.source.cell(cat.path(labels[i + 1:]))))
            steps.append(hcomp2_many(*parts))
        return vcomp_many(*reversed(steps))


@dataclass(eq=False)
class ModificationData:
    """A family of two-cells between the components of two parallel
    transformations."""

    comp: dict[str, BlockTwoCell]

    def __getitem__(self, a: str) -> BlockTwoCell:
        return self.comp[a]


def identity_transformation(f: FunctorData) -> TransformationData:
    comp0 = {a: id1(f.zero_cell(a)) for a in f.cat.zero_cells}
    comp1 = {}
    for g in f.cat.gen_one_cells:
        p = f.cat.path((g.label,))
        img = f.cell(p)
        comp1[p] = vcomp(dagger2(unitor_right(img)), unitor_left(img))
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
        lhs = vcomp_many(
            hcomp2(g.tensorator(p, q), id2(phi.comp0[a])),
            hcomp2(id2(g.cell(p)), phi.component(q)),
            hcomp2(phi.component(p), id2(f.cell(q))),
        )
        rhs = vcomp(phi.component(p * q), hcomp2(id2(phi.comp0[p.tgt]), f.tensorator(p, q)))
        rep.add(f"composite[{_pname(p)},{_pname(q)}]", residual(lhs, rhs))
    for two in cat.gen_two_cells:
        a, b = two.source.src, two.source.tgt
        lhs = vcomp(hcomp2(eval_expr(g, EGen(two.label)), id2(phi.comp0[a])),
                    phi.component(two.source))
        rhs = vcomp(phi.component(two.target),
                    hcomp2(id2(phi.comp0[b]), eval_expr(f, EGen(two.label))))
        rep.add(f"naturality[{two.label}]", residual(lhs, rhs))
    for a in cat.zero_cells:
        e = cat.empty_path(a)
        c = phi.comp0[a]
        lhs = vcomp(phi.component(e), hcomp2(id2(c), f.unit(a)))
        rhs = vcomp(hcomp2(g.unit(a), id2(c)), dagger2(unitor_left(c)))
        rep.add(f"unit[{a}]", residual(lhs, rhs))
    return rep


def check_modification(eta: ModificationData, phi: TransformationData,
                       psi: TransformationData) -> ResidualReport:
    """Residuals of the sliding equation of a modification
    ``eta : phi => psi`` on every generator; component norms recorded."""
    f, g = phi.source, phi.target
    cat = f.cat
    rep = ResidualReport()
    for gen in cat.gen_one_cells:
        p = cat.path((gen.label,))
        a, b = gen.src, gen.tgt
        lhs = vcomp(psi.component(p), hcomp2(eta[b], id2(f.cell(p))))
        rhs = vcomp(hcomp2(id2(g.cell(p)), eta[a]), phi.component(p))
        rep.add(f"slide[{gen.label}]", residual(lhs, rhs))
    for a in cat.zero_cells:
        rep.add_info(f"norm[{a}]",
                     float(np.linalg.norm(eta[a].mat, 2)) if eta[a].mat.size else 0.0)
    return rep


def tensor_transformations(outer: TransformationData,
                           inner: TransformationData) -> TransformationData:
    """Tensor of transformations (``outer`` on the left); components
    are ``outer_a . inner_a`` and crossings the two-step stack."""
    cat = inner.source.cat
    if any(inner.target.zero_cell(a) != outer.source.zero_cell(a)
           for a in cat.zero_cells):
        raise CellMismatch("transformations are not composable")
    comp0 = {a: hcomp1(outer.comp0[a], inner.comp0[a]) for a in cat.zero_cells}
    comp1 = {}
    for gen in cat.gen_one_cells:
        p = cat.path((gen.label,))
        a, b = gen.src, gen.tgt
        comp1[p] = vcomp(
            hcomp2(outer.component(p), id2(inner.comp0[a])),
            hcomp2(id2(outer.comp0[b]), inner.component(p)),
        )
    return TransformationData(inner.source, outer.target, comp0, comp1)


def tensor_modifications(n: ModificationData, t: ModificationData) -> ModificationData:
    keys = sorted(set(n.comp) & set(t.comp))
    return ModificationData({a: hcomp2(n[a], t[a]) for a in keys})


def vcomp_modifications(n2: ModificationData, n1: ModificationData) -> ModificationData:
    keys = sorted(set(n2.comp) & set(n1.comp))
    return ModificationData({a: vcomp(n2[a], n1[a]) for a in keys})


def split_modification_projection(p: ModificationData, phi: TransformationData,
                                  tol: Tolerance = Tolerance()):
    """Split a projection modification ``p : phi => phi``.

    Splits each component in the model and conjugates the crossings by
    the resulting isometries.  Returns ``(x, iso)`` where ``x`` is a
    transformation and ``iso : x => phi`` a modification with
    ``iso* iso = id`` and ``iso iso* = p`` componentwise.
    """
    f, g = phi.source, phi.target
    cat = f.cat
    comp0 = {}
    isos = {}
    for a in cat.zero_cells:
        y, u = split_projection(phi.comp0[a], p[a], tol)
        comp0[a] = y
        isos[a] = u
    comp1 = {}
    for gen in cat.gen_one_cells:
        path = cat.path((gen.label,))
        a, b = gen.src, gen.tgt
        comp1[path] = vcomp_many(
            hcomp2(id2(g.cell(path)), dagger2(isos[a])),
            phi.component(path),
            hcomp2(isos[b], id2(f.cell(path))),
        )
    x = TransformationData(f, g, comp0, comp1)
    return x, ModificationData(isos)


# --------------------------------------------------------------------------
# Q-systems on End(F)


@dataclass(eq=False)
class EndFQSystem:
    """A Q-system on the endomorphisms of a functor: a self-
    transformation ``psi`` with multiplication and unit modifications."""

    psi: TransformationData
    m: ModificationData
    i: ModificationData

    def at(self, a: str) -> QSystemData:
        return QSystemData(self.psi.comp0[a], self.m[a], self.i[a])


def check_endf_qsystem(cat: PresentedTwoCat, f: FunctorData,
                       q: EndFQSystem) -> ResidualReport:
    """Per-zero-cell Q-system residuals, transformation residuals of
    ``psi`` and sliding residuals of the multiplication and unit."""
    rep = ResidualReport()
    for a in cat.zero_cells:
        rep.extend(f"qsystem[{a}].", check_qsystem(q.at(a)))
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
    pairs = {}
    for a in cat.zero_cells:
        pair = standard_dual_pair(phibar.comp0[a])
        if pair.Xbar != phi.comp0[a]:
            raise CellMismatch(
                f"components at {a} are not a transposed dual pair")
        pairs[a] = pair
    psi = tensor_transformations(phibar, phi)
    m = {}
    i = {}
    for a in cat.zero_cells:
        pair = pairs[a]
        xbar, x = pair.X, pair.Xbar
        pinch = vcomp(unitor_left(x), hcomp2(pair.ev, id2(x)))
        m[a] = hcomp2(id2(xbar), pinch)
        i[a] = pair.coev
    return EndFQSystem(psi, ModificationData(m), ModificationData(i))


# --------------------------------------------------------------------------
# the splitting construction for End(F) Q-systems


@dataclass(eq=False)
class _PathData:
    proj: BlockTwoCell            # the projection on x_b . F(p) . xbar_a
    u: BlockTwoCell               # isometry image -> x_b . F(p) . xbar_a
    image: GradedOneCell          # G(p)


class GConstruction:
    """All data of the functor ``G`` built from a Q-system on End(F):
    the residuals of that Q-system (``input``), per-zero-cell
    splittings, per-path projections and isometries, tensorators, and
    images of generator two-cells.

    Raises ``InvalidQSystem`` when an ``input`` residual exceeds
    ``100 atol``.
    """

    def __init__(self, cat: PresentedTwoCat, f: FunctorData, q: EndFQSystem,
                 tol: Tolerance, rng: np.random.Generator):
        self.input = check_endf_qsystem(cat, f, q)
        if not self.input.passes(100 * tol.atol):
            name, value = self.input.worst()
            raise InvalidQSystem(f"End(F) Q-system fails {name} at {value:.3e}")
        self.cat = cat
        self.F = f
        self.q = q
        self.tol = tol
        self.splits: dict[str, SplitResult] = {}
        self.x: dict[str, GradedOneCell] = {}
        self.xbar: dict[str, GradedOneCell] = {}
        self.ev: dict[str, BlockTwoCell] = {}
        self.coev: dict[str, BlockTwoCell] = {}
        self.gamma: dict[str, BlockTwoCell] = {}
        self.paths: dict[Path, _PathData] = {}
        self.g2: dict[str, BlockTwoCell] = {}
        self._tensorators: dict[tuple[Path, Path], BlockTwoCell] = {}
        for a in cat.zero_cells:
            res = split_qsystem(q.at(a), tol, rng)
            self.splits[a] = res
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
            self.g2[two.label] = self._gen2_image(two)

    # -- per-path data ----------------------------------------------------

    def scell(self, path: Path) -> GradedOneCell:
        return hcomp1_many(self.x[path.tgt], self.F.cell(path), self.xbar[path.src])

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
        c2 = hcomp2_many(id2(xb), id2(mid),
                         hcomp2(id2(xbar_a), dagger2(self.ev[a])))
        c3 = hcomp2_many(id2(xb), id2(mid), self.gamma[a], id2(xbar_a))
        c4 = hcomp2_many(id2(xb), dagger2(cross), id2(xbar_a))
        c5 = hcomp2_many(id2(xb), dagger2(self.gamma[b]), id2(mid), id2(xbar_a))
        c6 = vcomp(unitor_left(tail), hcomp2(self.ev[b], id2(tail)))
        return vcomp_many(c6, c5, c4, c3, c2)

    def materialize(self, path: Path) -> _PathData:
        data = self.paths.get(path)
        if data is not None:
            return data
        s = self.scell(path)
        proj = self.path_projection(path)
        if not path.labels:
            a = path.src
            image = id1(self.splits[a].k)
            u = vcomp(
                hcomp2(id2(self.x[a]), dagger2(unitor_left(self.xbar[a]))),
                dagger2(self.ev[a]),
            )
        else:
            image, u = split_projection(s, proj, self.tol)
        data = _PathData(proj, u, image)
        self.paths[path] = data
        return data

    def image(self, path: Path) -> GradedOneCell:
        return self.materialize(path).image

    def u_of(self, path: Path) -> BlockTwoCell:
        return self.materialize(path).u

    def _gen2_image(self, two) -> BlockTwoCell:
        a, b = two.source.src, two.source.tgt
        ff = eval_expr(self.F, EGen(two.label))
        mid = hcomp2_many(id2(self.x[b]), ff, id2(self.xbar[a]))
        return vcomp_many(dagger2(self.u_of(two.target)), mid, self.u_of(two.source))

    def tensorator(self, p: Path, q: Path) -> BlockTwoCell:
        """``G(p) . G(q) -> G(p q)`` through the splitting isometries,
        built once per ``(p, q)``."""
        t = self._tensorators.get((p, q))
        if t is None:
            t = self._tensorators[p, q] = self._build_tensorator(p, q)
        return t

    def _build_tensorator(self, p: Path, q: Path) -> BlockTwoCell:
        a, b, c = q.src, p.src, p.tgt
        fp, fq = self.F.cell(p), self.F.cell(q)
        up, uq = self.u_of(p), self.u_of(q)
        upq = self.u_of(p * q)
        cap = hcomp2_many(id2(self.x[c]), id2(fp), dagger2(self.coev[b]),
                          id2(fq), id2(self.xbar[a]))
        drop = hcomp2_many(id2(self.x[c]), id2(fp),
                           unitor_left(hcomp1(fq, self.xbar[a])))
        tens = hcomp2_many(id2(self.x[c]), self.F.tensorator(p, q), id2(self.xbar[a]))
        return vcomp_many(dagger2(upq), tens, drop, cap, hcomp2(up, uq))

    def functor(self) -> "ConstructedFunctor":
        if not hasattr(self, "_functor"):
            self._functor = ConstructedFunctor(self)
        return self._functor


class ConstructedFunctor(FunctorData):
    """Functor facade over a :class:`GConstruction` (image cells from
    the path splittings, tensorators through the isometries)."""

    def __init__(self, gc: GConstruction):
        self.gc = gc
        self.cat = gc.cat
        self.on0 = {a: gc.splits[a].k for a in gc.cat.zero_cells}
        self.on1 = {g.label: gc.image(gc.cat.path((g.label,)))
                    for g in gc.cat.gen_one_cells}
        self.on2 = dict(gc.g2)

    def cell(self, path: Path) -> GradedOneCell:
        return self.gc.image(path)

    def tensorator(self, p: Path, q: Path) -> BlockTwoCell:
        return self.gc.tensorator(p, q)


def construct_G(cat: PresentedTwoCat, f: FunctorData, q: EndFQSystem,
                tol: Tolerance = Tolerance(),
                rng: np.random.Generator | int | None = None) -> GConstruction:
    """Split a Q-system on End(F) into the data of a new functor.

    Checks the Q-system (``InvalidQSystem`` if it fails), splits each
    ``psi_a`` (seeded), builds the path projections from the crossings
    and comparison unitaries, their splitting isometries, the images of
    two-cell generators, and the tensorators.
    """
    return GConstruction(cat, f, q, tol, np.random.default_rng(rng))


def construct_phi(gc: GConstruction) -> TransformationData:
    """The transformation ``phi : F => G`` with components from the
    splittings; crossings come from the path isometries with a bent
    coevaluation strand."""
    comp0 = {a: gc.x[a] for a in gc.cat.zero_cells}
    comp1 = {}
    for path in gc.paths:
        a, b = path.src, path.tgt
        front = hcomp1(gc.x[b], gc.F.cell(path))
        comp1[path] = vcomp(
            hcomp2(dagger2(gc.u_of(path)), id2(gc.x[a])),
            hcomp2(id2(front), gc.coev[a]),
        )
    return TransformationData(gc.F, gc.functor(), comp0, comp1)


def construct_phibar(gc: GConstruction) -> TransformationData:
    """The dual transformation ``phibar : G => F``."""
    g = gc.functor()
    comp0 = {a: gc.xbar[a] for a in gc.cat.zero_cells}
    comp1 = {}
    for path in gc.paths:
        a, b = path.src, path.tgt
        tail = hcomp1(gc.F.cell(path), gc.xbar[a])
        comp1[path] = vcomp_many(
            unitor_left(tail),
            hcomp2(dagger2(gc.coev[b]), id2(tail)),
            hcomp2(id2(gc.xbar[b]), gc.u_of(path)),
        )
    return TransformationData(g, gc.F, comp0, comp1)


# --------------------------------------------------------------------------
# full verification


class MainTheoremReport:
    """Named residual sections for every step of the construction,
    plus the constructed data itself."""

    def __init__(self):
        self.sections: dict[str, ResidualReport] = {}
        self.gconstruction: GConstruction | None = None

    def section(self, name: str) -> ResidualReport:
        return self.sections.setdefault(name, ResidualReport())

    def rows(self, limit: float):
        for sec, rep in self.sections.items():
            for name, value in rep.residuals.items():
                yield f"{sec}.{name}", value, limit, value <= limit

    @property
    def max_residual(self) -> float:
        return max((r.max_residual for r in self.sections.values()), default=0.0)

    def passes(self, limit: float) -> bool:
        return all(r.passes(limit) for r in self.sections.values())

    def worst(self) -> tuple[str, float]:
        best = ("", 0.0)
        for sec, rep in self.sections.items():
            name, value = rep.worst()
            if value >= best[1]:
                best = (f"{sec}.{name}", value)
        return best


def _double_cup_on(pair: DualPair) -> BlockTwoCell:
    """``xbar x -> xbar x xbar x`` inserting the adjoint evaluation."""
    x, xbar = pair.Xbar, pair.X
    inner = vcomp(hcomp2(dagger2(pair.ev), id2(x)), dagger2(unitor_left(x)))
    return hcomp2(id2(xbar), inner)


def _bent_double_cup(pair: DualPair) -> BlockTwoCell:
    """``unit -> xbar x xbar x`` : coevaluation with the adjoint
    evaluation nested inside."""
    return vcomp(_double_cup_on(pair), pair.coev)


def verify_main_theorem(cat: PresentedTwoCat, f: FunctorData, q: EndFQSystem,
                        tol: Tolerance = Tolerance(),
                        rng: np.random.Generator | int | None = None) -> MainTheoremReport:
    """Run the whole construction and verify every intermediate claim.

    Eleven sections, each identity checked once (all residuals
    Frobenius):

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
    gc = construct_G(cat, f, q, tol, rng)
    out.section("input").extend("", gc.input)
    g = gc.functor()
    phi = construct_phi(gc)
    phibar = construct_phibar(gc)

    # (a) bending identities for gamma
    sec = out.section("gamma_bend")
    for a in cat.zero_cells:
        pair = gc.splits[a].pair
        x, xbar = pair.Xbar, pair.X
        gam = gc.gamma[a]
        psi_a = q.psi.comp0[a]
        t = hcomp1(xbar, x)
        counit = vcomp(dagger2(q.i[a]), q.m[a])  # psi.psi -> unit
        nested = _bent_double_cup(pair)
        e1 = vcomp_many(
            unitor_left(t),
            hcomp2(counit, id2(t)),
            hcomp2_many(id2(psi_a), gam, id2(t)),
            hcomp2(id2(psi_a), nested),
        )
        sec.add(f"adjoint_left[{a}]", residual(dagger2(gam), e1))
        e2 = vcomp_many(
            hcomp2(id2(t), counit),
            hcomp2_many(id2(t), gam, id2(psi_a)),
            hcomp2(nested, id2(psi_a)),
            dagger2(unitor_left(psi_a)),
        )
        sec.add(f"adjoint_right[{a}]", residual(dagger2(gam), e2))
        lhs = vcomp(dagger2(q.m[a]), gam)
        rhs = vcomp(hcomp2(gam, gam), _double_cup_on(pair))
        sec.add(f"comultiplication[{a}]", residual(lhs, rhs))
        sec.add(f"counit[{a}]",
                residual(vcomp(dagger2(q.i[a]), gam), dagger2(pair.coev)))

    # (b) path projections
    sec = out.section("projection")
    for path, data in gc.paths.items():
        sec.add(f"idempotent[{_pname(path)}]", projection_residual(data.proj))
        sec.add(f"isometry[{_pname(path)}]",
                frob(dagger2(data.u).mat @ data.u.mat - np.eye(data.image.dim)))
        sec.add(f"splits[{_pname(path)}]",
                residual(vcomp(data.u, dagger2(data.u)), data.proj))

    # (c) two-path contraction identity
    sec = out.section("isometry_product")
    for p, qq in cat.composable_pairs():
        sec.add(f"[{_pname(p)},{_pname(qq)}]",
                _isometry_product_residual(gc, p, qq))

    # (d) compressed action identities
    sec = out.section("gamma_action")
    for a in cat.zero_cells:
        pair = gc.splits[a].pair
        x, xbar = pair.Xbar, pair.X
        gam, m_a = gc.gamma[a], q.m[a]
        psi_a = q.psi.comp0[a]
        pinch = vcomp(unitor_left(x), hcomp2(pair.ev, id2(x)))
        lhs = vcomp_many(gam, hcomp2(id2(xbar), pinch),
                         hcomp2_many(id2(xbar), id2(x), dagger2(gam)))
        sec.add(f"left[{a}]", residual(lhs, vcomp(m_a, hcomp2(gam, id2(psi_a)))))
        lhs2 = vcomp_many(gam, hcomp2(id2(xbar), pinch),
                          hcomp2_many(dagger2(gam), id2(xbar), id2(x)))
        sec.add(f"right[{a}]", residual(lhs2, vcomp(m_a, hcomp2(id2(psi_a), gam))))

    # (e) projections against the functor structure
    sec = out.section("crossing_transport")
    for p, qq in cat.composable_pairs():
        a, c = qq.src, p.tgt
        fp2 = f.tensorator(p, qq)
        whisk = hcomp2_many(id2(gc.x[c]), fp2, id2(gc.xbar[a]))
        lhs = vcomp(gc.paths[p * qq].proj, whisk)
        rhs = vcomp(whisk, _double_crossing_projection(gc, p, qq))
        sec.add(f"tensorator[{_pname(p)},{_pname(qq)}]", residual(lhs, rhs))
    for two in cat.gen_two_cells:
        a, b = two.source.src, two.source.tgt
        ff = eval_expr(f, EGen(two.label))
        whisk = hcomp2_many(id2(gc.x[b]), ff, id2(gc.xbar[a]))
        lhs = vcomp(gc.paths[two.target].proj, whisk)
        rhs = vcomp(whisk, gc.paths[two.source].proj)
        sec.add(f"naturality[{two.label}]", residual(lhs, rhs))

    # (f) full functor checker
    out.section("functor").extend("", check_functor(cat, g))

    # (g) phi and phibar are transformations
    sec = out.section("transformation")
    sec.extend("phi.", check_transformation(phi))
    sec.extend("phibar.", check_transformation(phibar))

    # (h) duality of phi
    sec = out.section("duality")
    coev_mod = ModificationData({a: gc.coev[a] for a in cat.zero_cells})
    ev_mod = ModificationData({a: dagger2(gc.ev[a]) for a in cat.zero_cells})
    phibar_phi = tensor_transformations(phibar, phi)
    phi_phibar = tensor_transformations(phi, phibar)
    sec.extend("coev.", check_modification(coev_mod, identity_transformation(f),
                                           phibar_phi))
    sec.extend("ev.", check_modification(ev_mod, identity_transformation(g),
                                         phi_phibar))
    for a in cat.zero_cells:
        pair = gc.splits[a].pair
        z1, z2 = zigzag_residuals(pair.X, pair.Xbar, pair.ev, pair.coev)
        sec.add(f"zigzag[{a}]", max(z1, z2))
        sec.add(f"ev_coisometry[{a}]",
                residual(vcomp(gc.ev[a], dagger2(gc.ev[a])), id2(id1(gc.splits[a].k))))

    # (i) gamma slides through the crossings
    sec = out.section("modification")
    gamma_mod = ModificationData(dict(gc.gamma))
    sec.extend("", check_modification(gamma_mod, phibar_phi, q.psi))

    # (j) Q-system isomorphism at every zero-cell
    sec = out.section("qsystem_iso")
    for a in cat.zero_cells:
        sec.extend(f"[{a}].", gc.splits[a].iso)

    out.gconstruction = gc
    return out


def _double_crossing_projection(gc: GConstruction, p: Path, q: Path) -> BlockTwoCell:
    """The projection on ``x . F(p) . F(q) . xbar`` built from the
    two-step crossing stack (no tensorator inserted)."""
    fp, fq = gc.F.cell(p), gc.F.cell(q)
    psi = gc.q.psi
    cross = vcomp(hcomp2(id2(fp), psi.component(q)), hcomp2(psi.component(p), id2(fq)))
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
    psi_b = psi.comp0[b]
    up, uq = gc.u_of(p), gc.u_of(q)

    lhs = vcomp_many(
        hcomp2_many(id2(xc), id2(fp), unitor_left(hcomp1(fq, xbar_a))),
        hcomp2_many(id2(xc), id2(fp), dagger2(gc.coev[b]), id2(fq), id2(xbar_a)),
        hcomp2(up, uq),
    )

    pre5 = hcomp1_many(xc, fp, xbar_b, xb, fq)
    r2 = hcomp2(id2(pre5), hcomp2(id2(xbar_a), dagger2(gc.ev[a])))
    r3 = hcomp2_many(id2(pre5), gc.gamma[a], id2(xbar_a))
    r4 = hcomp2_many(id2(hcomp1_many(xc, fp, xbar_b, xb)),
                     dagger2(psi.component(q)), id2(xbar_a))
    r5 = hcomp2_many(id2(xc), id2(fp), gc.gamma[b], id2(psi_b), id2(fq), id2(xbar_a))
    r6 = hcomp2_many(id2(xc), id2(fp), gc.q.m[b], id2(fq), id2(xbar_a))
    r7 = hcomp2_many(id2(xc), dagger2(psi.component(p)), id2(fq), id2(xbar_a))
    r8 = hcomp2_many(id2(xc), dagger2(gc.gamma[c]), id2(fp), id2(fq), id2(xbar_a))
    full_tail = hcomp1_many(xc, fp, fq, xbar_a)
    r9 = vcomp(unitor_left(full_tail), hcomp2(gc.ev[c], id2(full_tail)))
    rhs = vcomp_many(r9, r8, r7, r6, r5, r4, r3, r2, hcomp2(up, uq))
    return residual(lhs, rhs)


# --------------------------------------------------------------------------
# constant scenario


def constant_functor_scenario(cat: PresentedTwoCat, q: QSystemData):
    """Constant functor at the zero-cell of ``q`` with the Q-system
    sitting identically over every zero-cell; crossings are unitors.
    ``q`` is not checked here: ``construct_G`` checks the result."""
    b = q.zero_cell
    on0 = {a: b for a in cat.zero_cells}
    on1 = {g.label: id1(b) for g in cat.gen_one_cells}
    on2 = {f.label: id2(id1(b)) for f in cat.gen_two_cells}
    f = FunctorData(cat, on0, on1, on2)
    comp0 = {a: q.Q for a in cat.zero_cells}
    comp1 = {}
    for g in cat.gen_one_cells:
        p = cat.path((g.label,))
        comp1[p] = vcomp(dagger2(unitor_left(q.Q)), unitor_right(q.Q))
    psi = TransformationData(f, f, comp0, comp1)
    m = ModificationData({a: q.m for a in cat.zero_cells})
    i = ModificationData({a: q.i for a in cat.zero_cells})
    return f, EndFQSystem(psi, m, i)
