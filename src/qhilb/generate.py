"""Seeded random instances: cells, Q-systems, presentations and full
End(F) scenarios.

Everything takes a ``numpy.random.Generator`` and is deterministic for
a fixed seed.  Scenario generation samples from families that are valid
by construction (dual-pair Q-systems dressed by random unitaries, and
block Q-systems tensored with a random functor) so that the checkers
exercise dense random data while the axioms hold to machine precision.
"""

from __future__ import annotations

import numpy as np

from .cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    _hcomp_plan,
    dagger2,
    hcomp1,
    hcomp1_many,
    hcomp2_many,
    id1,
    id2,
    unitor_left,
    unitor_right,
    vcomp,
    vcomp_many,
)
from .errors import CellMismatch
from .funcat import EndFQSystem, FunctorData, ModificationData, TransformationData
from .presentation import GenOneCell, GenTwoCell, Path, PresentedTwoCat
from .qsystem import QSystemData, qsystem_from_dual, standard_dual_pair

__all__ = [
    "haar_unitary",
    "random_cell",
    "random_block_unitary",
    "random_sector_matrix",
    "random_projection_on",
    "random_qsystem",
    "dress_qsystem",
    "dsum_qsystems",
    "outer_cell",
    "outer_2cell",
    "interchanger",
    "random_presentation",
    "product_scenario",
    "summed_transformation",
]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cell(rng: np.random.Generator, src: int, tgt: int,
                max_sector_dim: int = 2, zero_bias: float = 0.4,
                full_cols: bool = False) -> GradedOneCell:
    """Random graded one-cell of dimension at least 1, grading sorted
    by (row, col)."""
    while True:
        dims = {}
        for r in range(1, tgt + 1):
            for c in range(1, src + 1):
                if rng.random() < zero_bias:
                    dims[(r, c)] = 0
                else:
                    dims[(r, c)] = int(rng.integers(1, max_sector_dim + 1))
        if full_cols:
            for c in range(1, src + 1):
                if all(dims[(r, c)] == 0 for r in range(1, tgt + 1)):
                    r = int(rng.integers(1, tgt + 1))
                    dims[(r, c)] = int(rng.integers(1, max_sector_dim + 1))
        grading = []
        for r in range(1, tgt + 1):
            for c in range(1, src + 1):
                grading.extend([(r, c)] * dims[(r, c)])
        if grading:
            return GradedOneCell(ZeroCell(src), ZeroCell(tgt), tuple(grading))


def random_block_unitary(rng: np.random.Generator, source: GradedOneCell,
                         target: GradedOneCell | None = None) -> BlockTwoCell:
    """Haar-random sector-block unitary ``source -> target`` (cells must
    have equal sector dimensions)."""
    target = source if target is None else target
    ssec, tsec = source.sectors(), target.sectors()
    if sorted(ssec) != sorted(tsec) or any(
            len(ssec[g]) != len(tsec[g]) for g in ssec):
        raise CellMismatch("cells have different sector dimensions")
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    for g in sorted(ssec):
        u = haar_unitary(rng, len(ssec[g]))
        mat[np.ix_(tsec[g], ssec[g])] = u
    return BlockTwoCell(source, target, mat)


def random_sector_matrix(rng: np.random.Generator, source: GradedOneCell,
                         target: GradedOneCell, scale: float = 1.0) -> BlockTwoCell:
    """Random sector-supported two-cell (gaussian entries)."""
    ssec, tsec = source.sectors(), target.sectors()
    mat = np.zeros((target.dim, source.dim), dtype=complex)
    for g in sorted(set(ssec) & set(tsec)):
        block = rng.standard_normal((len(tsec[g]), len(ssec[g]))) \
            + 1j * rng.standard_normal((len(tsec[g]), len(ssec[g])))
        mat[np.ix_(tsec[g], ssec[g])] = scale * block
    return BlockTwoCell(source, target, mat)


def random_projection_on(rng: np.random.Generator,
                         cell: GradedOneCell) -> BlockTwoCell:
    """Random hermitian idempotent on ``cell`` with random sector ranks."""
    sec = cell.sectors()
    mat = np.zeros((cell.dim, cell.dim), dtype=complex)
    for g in sorted(sec):
        idx = sec[g]
        d = len(idx)
        rank = int(rng.integers(0, d + 1))
        u = haar_unitary(rng, d)
        w = u[:, :rank]
        mat[np.ix_(idx, idx)] = w @ w.conj().T
    return BlockTwoCell(cell, cell, mat)


def dress_qsystem(rng: np.random.Generator, q: QSystemData) -> QSystemData:
    """Conjugate the structure maps by a random sector unitary; the
    axioms are preserved exactly."""
    v = random_block_unitary(rng, q.Q)
    return QSystemData(q.Q, vcomp_many(v, q.m, (dagger2(v), dagger2(v))),
                       vcomp(v, q.i))


def random_qsystem(rng: np.random.Generator, zero_cell: int = 1,
                   blocks: int = 2, max_sector_dim: int = 2,
                   dress: bool = True,
                   max_total: int = 24) -> tuple[QSystemData, list[int]]:
    """Random Q-system from a dual pair, optionally dressed.

    The total dimension (sum of squared block dimensions) is kept at
    most ``max_total``.  Returns the Q-system and the multiset of its
    block dimensions (per-column dimensions of the underlying one-cell).
    """
    while True:
        x = random_cell(rng, blocks, zero_cell, max_sector_dim, full_cols=True)
        counts = np.bincount(x.cols - 1, minlength=blocks).tolist()
        if sum(d * d for d in counts) <= max_total:
            break
    q = qsystem_from_dual(standard_dual_pair(x))
    if dress:
        q = dress_qsystem(rng, q)
    return q, sorted(counts)


def dsum_qsystems(q1: QSystemData, q2: QSystemData) -> QSystemData:
    """Direct sum of two Q-systems on the same zero-cell."""
    if q1.zero_cell != q2.zero_cell:
        raise CellMismatch("direct sum needs a common zero-cell")
    Q = GradedOneCell(q1.Q.src, q1.Q.tgt, q1.Q.grading + q2.Q.grading)
    eye, d1 = np.eye(Q.dim), q1.Q.dim
    # each summand enters through its 0/1 embedding e as e m (e* . e*)
    parts = [(q1, BlockTwoCell(q1.Q, Q, eye[:, :d1])),
             (q2, BlockTwoCell(q2.Q, Q, eye[:, d1:]))]
    m = sum(vcomp_many(e, q.m, (dagger2(e), dagger2(e))).mat for q, e in parts)
    i = sum(vcomp(e, q.i).mat for q, e in parts)
    return QSystemData(Q, BlockTwoCell(hcomp1(Q, Q), Q, m),
                       BlockTwoCell(q1.i.source, Q, i))


# --------------------------------------------------------------------------
# product structure on the graded model (used only for generation)


def outer_cell(a: GradedOneCell, b: GradedOneCell) -> GradedOneCell:
    """External product: indices multiply, basis pairs a-major."""
    src = ZeroCell(a.src.n * b.src.n)
    tgt = ZeroCell(a.tgt.n * b.tgt.n)
    grading = tuple(
        ((ra - 1) * b.tgt.n + rb, (ca - 1) * b.src.n + cb)
        for ra, ca in a.grading for rb, cb in b.grading
    )
    return GradedOneCell(src, tgt, grading)


def outer_2cell(f: BlockTwoCell, g: BlockTwoCell) -> BlockTwoCell:
    return BlockTwoCell(outer_cell(f.source, g.source),
                        outer_cell(f.target, g.target),
                        np.kron(f.mat, g.mat))


def interchanger(a: GradedOneCell, b: GradedOneCell,
                 c: GradedOneCell, d: GradedOneCell) -> BlockTwoCell:
    """Permutation ``(a x b) . (c x d) -> (a . c) x (b . d)``."""
    if a.src != c.tgt or b.src != d.tgt:
        raise CellMismatch("interchanger factors are not composable")
    src, i, j = _hcomp_plan(outer_cell(a, b), outer_cell(c, d))
    tgt = outer_cell(hcomp1(a, c), hcomp1(b, d))

    def position(y, x):   # position[p, q]: where the pair (p, q) sits in y . x
        _, p_idx, q_idx = _hcomp_plan(y, x)
        out = np.zeros((y.dim, x.dim), dtype=np.intp)
        out[p_idx, q_idx] = np.arange(len(p_idx))
        return out

    (p, q), (p2, q2) = divmod(i, b.dim), divmod(j, d.dim)
    rows = position(a, c)[p, p2] * hcomp1(b, d).dim + position(b, d)[q, q2]
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    mat[rows, np.arange(src.dim)] = 1.0
    return BlockTwoCell(src, tgt, mat)


# --------------------------------------------------------------------------
# presentations and scenarios


def random_presentation(rng: np.random.Generator, max_zero: int = 3,
                        with_two_cell: bool = True) -> PresentedTwoCat:
    """Random presentation with at most ``max_zero`` zero-cells, one to
    four generator one-cells and, when ``with_two_cell``, at most one
    generator two-cell."""
    n0 = int(rng.integers(1, max_zero + 1))
    zero = tuple("abc"[:n0])
    ng = int(rng.integers(1, 5))
    gens = []
    for k in range(ng):
        s = zero[int(rng.integers(0, n0))]
        t = zero[int(rng.integers(0, n0))]
        gens.append(GenOneCell(f"X{k + 1}", s, t))
    two = ()
    if with_two_cell and rng.random() < 0.5:
        for g in gens:
            mates = [h for h in gens
                     if h.label != g.label and (h.src, h.tgt) == (g.src, g.tgt)]
            if mates:
                h = mates[0]
                p = Path((g.label,), g.src, g.tgt)
                q = Path((h.label,), h.src, h.tgt)
                two = (GenTwoCell("f1", p, q),)
                break
    return PresentedTwoCat(zero, tuple(gens), two)


def random_free_functor(rng: np.random.Generator, cat: PresentedTwoCat) -> FunctorData:
    """Random free functor: zero-cells of size 1 to 3, generator images
    with sectors of dimension at most 2."""
    on0 = {a: ZeroCell(int(rng.integers(1, 4))) for a in cat.zero_cells}
    on1 = {}
    for g in cat.gen_one_cells:
        on1[g.label] = random_cell(rng, on0[g.src].n, on0[g.tgt].n)
    f = FunctorData(cat, on0, on1)
    on2 = {}
    for t in cat.gen_two_cells:
        on2[t.label] = random_sector_matrix(rng, f.cell(t.source), f.cell(t.target))
    f.on2 = on2
    return f


_MAX_COMPOSITE_DIM = 300
_MAX_PSI_DIM = 20


def product_scenario(rng: np.random.Generator):
    """Random valid Q-system on End(F): a dressed block Q-system
    tensored with a random functor, with random unitary gauges on the
    generator images.

    Scenarios whose verification would touch composites above
    ``_MAX_COMPOSITE_DIM`` (``psi . psi . psi`` included) or Q-systems
    above ``_MAX_PSI_DIM`` are resampled, keeping the downstream
    eigendecompositions small.

    Returns ``(cat, F, EndFQSystem)``.
    """
    for _ in range(64):
        out = _product_scenario_once(rng, random_presentation(rng))
        if out is None:
            continue
        composite, psi = _scenario_cost(*out)
        if composite <= _MAX_COMPOSITE_DIM and psi <= _MAX_PSI_DIM:
            return out
    raise RuntimeError("could not sample a scenario within the size budget")


def _scenario_cost(cat: PresentedTwoCat, f: FunctorData,
                   endf: EndFQSystem) -> tuple[int, int]:
    """(largest composite dimension, largest Q-system dimension) that
    the full verification will touch, predicted from proxy cells with
    the sector dimensions of the splitting output."""
    psi = [endf.psi.comp0[a] for a in cat.zero_cells]
    # the bending identities for gamma build psi_a . psi_a . psi_a
    worst = max(hcomp1_many(c, c, c).dim for c in psi)
    # psi_a has the sector profile of xbar_a . x_a, so using it in place
    # of the (unknown) splitting cells overestimates every composite
    xb_proxy = {a: endf.psi.comp0[a] for a in cat.zero_cells}
    x_proxy = xb_proxy
    for p, q in cat.composable_pairs():
        a, b, c = q.src, p.src, p.tgt
        dim = hcomp1_many(x_proxy[c], f.cell(p), xb_proxy[b],
                          f.cell(q), xb_proxy[a]).dim
        worst = max(worst, dim)
    for p, q, r in cat.composable_triples():
        a, c = r.src, p.tgt
        dim = hcomp1_many(x_proxy[c], f.cell(p * q * r), xb_proxy[a]).dim
        worst = max(worst, dim)
    return worst, max(c.dim for c in psi)


def _product_scenario_once(rng: np.random.Generator, cat: PresentedTwoCat):
    b_q = int(rng.integers(1, 3))
    k_q = int(rng.integers(1, 3))
    max_dim = 2 if k_q == 1 else 1
    y = random_cell(rng, k_q, b_q, max_dim, full_cols=True)
    if y.dim > 4:
        return None
    q0 = dress_qsystem(rng, qsystem_from_dual(standard_dual_pair(y)))
    qc = q0.Q

    m_of = {a: int(rng.integers(1, 3)) for a in cat.zero_cells}
    h1 = {}
    for g in cat.gen_one_cells:
        h1[g.label] = random_cell(rng, m_of[g.src], m_of[g.tgt],
                                  max_sector_dim=1, zero_bias=0.3)
    on0 = {a: ZeroCell(b_q * m_of[a]) for a in cat.zero_cells}
    on1 = {g.label: outer_cell(id1(b_q), h1[g.label]) for g in cat.gen_one_cells}
    f = FunctorData(cat, on0, on1)

    units = {a: id1(m_of[a]) for a in cat.zero_cells}
    psi0 = {a: outer_cell(qc, units[a]) for a in cat.zero_cells}
    dress = {a: random_block_unitary(rng, psi0[a]) for a in cat.zero_cells}
    gauges = {g.label: random_block_unitary(rng, on1[g.label])
              for g in cat.gen_one_cells}

    comp1 = {}
    for g in cat.gen_one_cells:
        a, b = g.src, g.tgt
        hx = h1[g.label]
        up = vcomp(outer_2cell(unitor_right(qc), unitor_left(hx)),
                   interchanger(qc, units[b], id1(b_q), hx))
        dn = vcomp(outer_2cell(unitor_left(qc), unitor_right(hx)),
                   interchanger(id1(b_q), hx, qc, units[a]))
        base = vcomp(dagger2(dn), up)
        w = gauges[g.label]
        comp1[cat.path((g.label,))] = vcomp_many(
            (w, psi0[a]), (on1[g.label], dress[a]), base,
            (dagger2(dress[b]), on1[g.label]), (psi0[b], dagger2(w)))

    m = {}
    i = {}
    for a in cat.zero_cells:
        v = dress[a]
        base_m = vcomp(outer_2cell(q0.m, id2(units[a])),
                       interchanger(qc, units[a], qc, units[a]))
        m[a] = vcomp_many(v, base_m, (dagger2(v), dagger2(v)))
        i[a] = vcomp(v, outer_2cell(q0.i, id2(units[a])))

    on2 = {}
    for t in cat.gen_two_cells:
        hf = random_sector_matrix(rng, h1[t.source.labels[0]],
                                  h1[t.target.labels[0]])
        base = outer_2cell(id2(id1(b_q)), hf)
        on2[t.label] = vcomp_many(gauges[t.target.labels[0]], base,
                                  dagger2(gauges[t.source.labels[0]]))
    f.on2 = on2

    psi = TransformationData(f, f, psi0, comp1)
    return cat, f, EndFQSystem(psi, ModificationData(m), ModificationData(i))


def summed_transformation(rng: np.random.Generator, cat: PresentedTwoCat,
                          summands: int = 2):
    """Random transformation assembled as a direct sum of ``summands``
    independent unitary layers over permutation-shaped components, plus
    the projection modification onto a sub-family of layers.

    Returns ``(phi, p, kept)`` where ``p`` projects onto ``kept``
    layers.
    """
    f = random_free_functor(rng, cat)
    perm = {}
    for a in cat.zero_cells:
        n = f.on0[a].n
        perm[a] = [int(v) for v in rng.permutation(n) + 1]

    g_on0 = {a: f.on0[a] for a in cat.zero_cells}
    g_on1 = {}
    for gen in cat.gen_one_cells:
        img = f.on1[gen.label]
        pa, pb = perm[gen.src], perm[gen.tgt]
        grading = sorted((pb[r - 1], pa[c - 1]) for r, c in img.grading)
        g_on1[gen.label] = GradedOneCell(img.src, img.tgt, tuple(grading))
    g = FunctorData(cat, g_on0, g_on1)

    layer0 = {a: GradedOneCell(f.on0[a], g.on0[a],
                               tuple(sorted((perm[a][i - 1], i)
                                            for i in range(1, f.on0[a].n + 1))))
              for a in cat.zero_cells}
    comp0 = {a: GradedOneCell(
        f.on0[a], g.on0[a],
        tuple(gp for gp in layer0[a].grading for _ in range(summands)))
        for a in cat.zero_cells}

    def embed(a: str, layer: int) -> BlockTwoCell:
        e = np.zeros((comp0[a].dim, layer0[a].dim), dtype=complex)
        e[layer::summands] = np.eye(layer0[a].dim)
        return BlockTwoCell(layer0[a], comp0[a], e)

    comp1 = {}
    for gen in cat.gen_one_cells:
        a, b = gen.src, gen.tgt
        path = cat.path((gen.label,))
        src1 = hcomp1(layer0[b], f.cell(path))
        tgt1 = hcomp1(g_on1[gen.label], layer0[a])
        src = hcomp1(comp0[b], f.cell(path))
        tgt = hcomp1(g_on1[gen.label], comp0[a])
        mat = np.zeros((tgt.dim, src.dim), dtype=complex)
        for k in range(summands):
            esrc = hcomp2_many(embed(b, k), f.cell(path)).mat
            etgt = hcomp2_many(g_on1[gen.label], embed(a, k)).mat
            u = random_block_unitary(rng, src1, tgt1)
            mat += etgt @ u.mat @ esrc.conj().T
        comp1[path] = BlockTwoCell(src, tgt, mat)
    phi = TransformationData(f, g, comp0, comp1)

    kept = sorted(rng.choice(summands, size=max(1, summands - 1),
                             replace=False).tolist())
    p = {}
    for a in cat.zero_cells:
        mat = np.zeros((comp0[a].dim, comp0[a].dim), dtype=complex)
        for k in kept:
            e = embed(a, k).mat
            mat += e @ e.conj().T
        p[a] = BlockTwoCell(comp0[a], comp0[a], mat)
    return phi, ModificationData(p), kept

