import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb import cells
from qhilb.cells import (
    BlockTwoCell,
    GradedOneCell,
    ZeroCell,
    dagger2,
    hcomp1,
    hcomp2,
    hcomp_pairs,
    id1,
    id2,
    is_unitary_residual,
    one_cell,
    residual,
    sector_mask,
    standard_dual,
    two_cell,
    unitor_left,
    unitor_right,
    vcomp,
)
from qhilb.errors import CellMismatch, EmptyColumn
from qhilb.generate import random_cell, random_sector_matrix
from qhilb.linalg import frob

RNG = np.random.default_rng(99)


def rand_endo(cell):
    return random_sector_matrix(RNG, cell, cell)


def composable_pair(rng, max_n=3, max_dim=2):
    a, b, c = (int(rng.integers(1, max_n + 1)) for _ in range(3))
    x = random_cell(rng, a, b, max_dim)
    y = random_cell(rng, b, c, max_dim)
    return y, x


def test_id1():
    u = id1(1)
    assert u.dim == 1 and u.grading == ((1, 1),)
    assert id1(3).grading == ((1, 1), (2, 2), (3, 3))


def test_hcomp1_with_unit_has_same_dim():
    for _ in range(10):
        x = random_cell(RNG, 3, 2, 2)
        assert hcomp1(id1(x.tgt), x).dim == x.dim
        assert hcomp1(x, id1(x.src)) == x  # literally equal


def test_hcomp1_single_zero_cell_is_kron_order():
    y = one_cell(1, 1, [(1, 1)] * 2)
    x = one_cell(1, 1, [(1, 1)] * 3)
    assert hcomp1(y, x).dim == 6
    f = rand_endo(y)
    g = rand_endo(x)
    assert np.allclose(hcomp2(f, g).mat, np.kron(f.mat, g.mat))


def test_hcomp1_hand_enumeration():
    y = one_cell(2, 1, [(1, 1), (1, 2)])
    x = one_cell(1, 2, [(1, 1), (2, 1)])
    z = hcomp1(y, x)
    assert z.dim == 2
    assert z.grading == ((1, 1), (1, 1))


def test_hcomp1_rejects_mismatch():
    with pytest.raises(CellMismatch):
        hcomp1(one_cell(1, 1, [(1, 1)]), one_cell(1, 2, [(1, 1)]))


def test_hcomp2_identity():
    y, x = composable_pair(RNG)
    assert residual(hcomp2(id2(y), id2(x)), id2(hcomp1(y, x))) == 0


def test_interchange_law():
    for _ in range(15):
        y, x = composable_pair(RNG)
        f, fp = rand_endo(x), rand_endo(x)
        g, gp = rand_endo(y), rand_endo(y)
        lhs = hcomp2(vcomp(gp, g), vcomp(fp, f))
        rhs = vcomp(hcomp2(gp, fp), hcomp2(g, f))
        assert residual(lhs, rhs) < 1e-12


def test_vcomp_unit_and_unitary():
    x = random_cell(RNG, 2, 2, 2)
    f = rand_endo(x)
    assert residual(vcomp(id2(x), f), f) == 0
    from qhilb.generate import random_block_unitary
    u = random_block_unitary(RNG, x)
    assert residual(vcomp(dagger2(u), u), id2(x)) < 1e-12


def test_vcomp_associative():
    x = random_cell(RNG, 2, 3, 2)
    f, g, h = rand_endo(x), rand_endo(x), rand_endo(x)
    assert residual(vcomp(vcomp(h, g), f), vcomp(h, vcomp(g, f))) < 1e-12


def test_dagger2_involution_antihomomorphism():
    x = random_cell(RNG, 2, 2, 2)
    f, g = rand_endo(x), rand_endo(x)
    assert residual(dagger2(dagger2(f)), f) == 0
    assert residual(dagger2(vcomp(g, f)), vcomp(dagger2(f), dagger2(g))) < 1e-12


def test_strict_associativity_exact():
    for _ in range(25):
        d = int(RNG.integers(1, 4))
        c = int(RNG.integers(1, 4))
        b = int(RNG.integers(1, 4))
        a = int(RNG.integers(1, 4))
        z = random_cell(RNG, c, d, 2)
        y = random_cell(RNG, b, c, 2)
        x = random_cell(RNG, a, b, 2)
        assert hcomp1(hcomp1(z, y), x) == hcomp1(z, hcomp1(y, x))
        f, g, h = rand_endo(x), rand_endo(y), rand_endo(z)
        lhs = hcomp2(hcomp2(h, g), f)
        rhs = hcomp2(h, hcomp2(g, f))
        assert residual(lhs, rhs) < 1e-12


def test_unitors_on_unit_cell():
    for n in (1, 3):
        u = id1(n)
        assert np.allclose(unitor_left(u).mat, unitor_right(u).mat)
        assert np.allclose(unitor_left(u).mat, np.eye(n))


def test_unitor_right_is_identity_matrix():
    x = random_cell(RNG, 3, 2, 2)
    assert np.allclose(unitor_right(x).mat, np.eye(x.dim))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_unitor_right_matches_the_pairing(src, tgt, data):
    # unitor_right is id2(x); the two-cell it replaced was built entry by
    # entry from the basis pairs of x . unit
    x = GradedOneCell(ZeroCell(src), ZeroCell(tgt), data.draw(gradings(src, tgt)))
    unit_side = hcomp1(x, id1(x.src))
    mat = np.zeros((x.dim, unit_side.dim), dtype=complex)
    for col, (q, _) in enumerate(hcomp_pairs(x, id1(x.src))):
        mat[q, col] = 1.0
    u = unitor_right(x)
    assert u.source == unit_side and u.target == x
    assert np.array_equal(u.mat, mat)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_sector_mask_by_definition(src, tgt, data):
    x, y = (GradedOneCell(ZeroCell(src), ZeroCell(tgt), data.draw(gradings(src, tgt)))
            for _ in range(2))
    mask = sector_mask(y, x)
    assert mask.shape == (y.dim, x.dim) and not mask.flags.writeable
    assert mask.tolist() == [[gy == gx for gx in x.grading] for gy in y.grading]


def test_unitor_naturality():
    x = random_cell(RNG, 2, 3, 2)
    y = random_cell(RNG, 2, 3, 2)
    # make y share x's sector dims so a random sector map x -> y exists
    y = x
    f = random_sector_matrix(RNG, x, y)
    lhs = vcomp(unitor_left(y), hcomp2(id2(id1(x.tgt)), f))
    rhs = vcomp(f, unitor_left(x))
    assert residual(lhs, rhs) < 1e-12
    lhs = vcomp(unitor_right(y), hcomp2(f, id2(id1(x.src))))
    rhs = vcomp(f, unitor_right(x))
    assert residual(lhs, rhs) < 1e-12


def test_triangle_identity():
    for _ in range(10):
        y, x = composable_pair(RNG)
        lhs = hcomp2(unitor_right(y), id2(x))
        rhs = hcomp2(id2(y), unitor_left(x))
        assert residual(lhs, rhs) < 1e-12


def test_standard_dual_unit_cell():
    xbar, ev, coev = standard_dual(id1(3))
    assert xbar == id1(3)
    assert np.allclose(ev.mat, np.eye(3))
    assert np.allclose(coev.mat, np.eye(3))


def test_standard_dual_single_sector():
    x = one_cell(1, 1, [(1, 1)] * 4)
    xbar, ev, coev = standard_dual(x)
    # ev pairs conjugate basis vectors at weight 1/sqrt(4)
    assert np.allclose(sorted(np.abs(ev.mat[ev.mat != 0])), [0.5] * 4)
    sep = ev.mat @ ev.mat.conj().T
    assert np.allclose(sep, np.eye(1))


def test_standard_dual_weights_per_column():
    x = one_cell(2, 1, [(1, 1)] * 2 + [(1, 2)] * 3)
    xbar, ev, coev = standard_dual(x)
    weights = sorted(set(np.round(np.abs(ev.mat[ev.mat != 0]), 10)))
    assert np.allclose(weights, sorted({1 / np.sqrt(2), 1 / np.sqrt(3)}))
    assert frob(ev.mat @ ev.mat.conj().T - np.eye(2)) < 1e-12


def test_standard_dual_zigzags_random():
    from qhilb.qsystem import standard_dual_pair, check_dual_pair
    for _ in range(10):
        x = random_cell(RNG, 3, 2, 3, full_cols=True)
        rep = check_dual_pair(standard_dual_pair(x))
        assert rep.max_residual < 1e-12


def test_standard_dual_empty_column():
    x = one_cell(2, 1, [(1, 1)])
    with pytest.raises(EmptyColumn):
        standard_dual(x)


def test_two_cell_shape_validation():
    x = one_cell(1, 1, [(1, 1)] * 2)
    with pytest.raises(CellMismatch):
        two_cell(x, x, np.zeros((3, 2)))
    y = one_cell(2, 1, [(1, 1)] * 2)
    with pytest.raises(CellMismatch):
        two_cell(x, y, np.zeros((2, 2)))


# -- the composition plan, stored hashes and shared identities ---------------


@st.composite
def gradings(draw, src, tgt, max_dim=4):
    """A grading of ``src -> tgt`` in any order, possibly empty."""
    pair = st.tuples(st.integers(1, tgt), st.integers(1, src))
    return tuple(draw(st.lists(pair, max_size=max_dim)))


@st.composite
def composable_two_cells(draw):
    """``(g, f)`` with ``g : y => y2`` and ``f : x => x2``, ``y . x`` defined."""
    a, b, c = (draw(st.integers(1, 3)) for _ in range(3))
    x, x2 = (GradedOneCell(ZeroCell(a), ZeroCell(b), draw(gradings(a, b))) for _ in range(2))
    y, y2 = (GradedOneCell(ZeroCell(b), ZeroCell(c), draw(gradings(b, c))) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def rand(tgt, src):
        shape = (tgt.dim, src.dim)
        return BlockTwoCell(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return rand(y2, y), rand(x2, x)


def pairs_by_definition(y, x):
    return tuple((p, q) for p in range(y.dim) for q in range(x.dim)
                 if y.grading[p][1] == x.grading[q][0])


def hcomp2_by_definition(g, f):
    """``out[(p, q), (p', q')] = g[p, p'] * f[q, q']`` over the basis
    pairs of the composites: the factors are gathered by a plain loop,
    then multiplied by one array product, since numpy's vectorized
    complex product may differ from its scalar one in the last bit."""
    rows = pairs_by_definition(g.target, f.target)
    cols = pairs_by_definition(g.source, f.source)
    left = np.zeros((len(rows), len(cols)), dtype=complex)
    right = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, (p, q) in enumerate(rows):
        for j, (pp, qq) in enumerate(cols):
            left[i, j] = g.mat[p, pp]
            right[i, j] = f.mat[q, qq]
    return left * right


@given(composable_two_cells())
@settings(max_examples=200, deadline=None)
def test_hcomp2_matches_definition(gf):
    g, f = gf
    for y, x in ((g.source, f.source), (g.target, f.target)):
        pairs = pairs_by_definition(y, x)
        assert hcomp_pairs(y, x) == pairs
        assert hcomp1(y, x).grading == tuple((y.grading[p][0], x.grading[q][1])
                                             for p, q in pairs)
        assert all(type(v) is int for pair in hcomp1(y, x).grading for v in pair)
    h = hcomp2(g, f)
    assert h.source == hcomp1(g.source, f.source)
    assert h.target == hcomp1(g.target, f.target)
    ref = hcomp2_by_definition(g, f)
    assert h.mat.shape == ref.shape
    assert np.array_equal(h.mat, ref)


def test_hcomp2_without_matching_pairs():
    # y's columns never meet x's rows: both composites are empty
    y = one_cell(2, 1, [(1, 1)] * 2)
    x = one_cell(1, 2, [(2, 1)] * 3)
    g, f = rand_endo(y), rand_endo(x)
    h = hcomp2(g, f)
    assert h.source.dim == h.target.dim == 0
    assert h.mat.shape == (0, 0)
    # only the target composite is empty
    x2 = one_cell(1, 2, [(1, 1)])
    f2 = BlockTwoCell(x2, x, np.ones((3, 1)))
    h = hcomp2(id2(y), f2)
    assert h.mat.shape == (0, 2)
    assert np.array_equal(h.mat, hcomp2_by_definition(id2(y), f2))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_equal_cells_share_hash_and_cache(src, tgt, data):
    grading = data.draw(gradings(src, tgt))
    x1 = GradedOneCell(ZeroCell(src), ZeroCell(tgt), grading)
    x2 = GradedOneCell(ZeroCell(src), ZeroCell(tgt), tuple(map(tuple, grading)))
    assert x1 is not x2
    assert x1 == x2 and hash(x1) == hash(x2)
    u = id1(tgt)
    assert cells._hcomp_plan(u, x1) is cells._hcomp_plan(u, x2)
    assert id2(x1) is id2(x2)
    other = data.draw(gradings(src, tgt))
    x3 = GradedOneCell(ZeroCell(src), ZeroCell(tgt), other)
    assert (x3 == x1) == (other == grading)
    assert (x3 != x1) == (other != grading)
    assert x1 != GradedOneCell(ZeroCell(src + 1), ZeroCell(tgt), grading)


def test_cell_equality_with_other_types():
    x = one_cell(1, 1, [(1, 1)])
    assert x != ((1, 1),) and x != None  # noqa: E711


def test_id2_is_shared_and_read_only():
    x = random_cell(RNG, 2, 3, 2)
    e = id2(x)
    assert e is id2(x)
    assert not e.mat.flags.writeable
    with pytest.raises(ValueError):
        e.mat[0, 0] = 2.0
    assert np.array_equal(e.mat, np.eye(x.dim))
