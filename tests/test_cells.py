import gc
import json
import sys
import threading
import tracemalloc
import weakref
from functools import reduce

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
    hcomp1_many,
    hcomp2,
    hcomp2_many,
    hcomp_pairs,
    id1,
    id2,
    is_unitary_residual,
    off_sector_nonzero,
    one_cell,
    residual,
    sector_mask,
    standard_dual,
    two_cell,
    unitor_left,
    unitor_right,
    vcomp,
    vcomp_many,
)
from qhilb.errors import CellMismatch, EmptyColumn
from qhilb.generate import interchanger, outer_cell, random_cell, random_sector_matrix
from qhilb.linalg import frob
from qhilb.serialize import cell_from_json, cell_to_json

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


def test_dagger2_copies_the_matrix_once():
    # the adjoint is written C-ordered in one pass: no conjugate copy
    # that BlockTwoCell would copy again into C order
    rng = np.random.default_rng(7)
    f = two_cell(one_cell(1, 1, [(1, 1)] * 300), one_cell(1, 1, [(1, 1)] * 200),
                 rng.standard_normal((200, 300)) + 1j * rng.standard_normal((200, 300)))
    tracemalloc.start()
    try:
        g = dagger2(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * f.mat.nbytes
    assert g.mat.flags.c_contiguous and np.array_equal(g.mat, f.mat.conj().T)


@pytest.mark.parametrize("value, off", [(-0.0, False), (0.0, False), (1e-300, True),
                                        (complex(0.0, -1e-300), True), (np.nan, True)])
def test_off_sector_nonzero_reads_each_entry_as_nonzero_does(value, off):
    # -0.0 is zero and NaN is not, as for the gather ``mat[~mask].any()``
    x = one_cell(1, 2, [(1, 1), (2, 1), (1, 1)])
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 2] = mat[2, 0] = 1.0   # on the sector (1, 1)
    mat[1, 0] = value            # off the sectors
    f = BlockTwoCell(x, x, mat)
    assert off_sector_nonzero(f) is off
    assert off_sector_nonzero(f) == bool(f.mat[~sector_mask(x, x)].any())


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


# The constructors below place their entries with the index arrays of
# ``_hcomp_plan``.  Each oracle is the per-entry loop they replaced,
# built from ``hcomp_pairs``; the two must agree bit for bit.


def unitor_left_by_pairs(x):
    src = hcomp1(id1(x.tgt), x)
    mat = np.zeros((x.dim, src.dim), dtype=complex)
    for col, (_, q) in enumerate(hcomp_pairs(id1(x.tgt), x)):
        mat[q, col] = 1.0
    return mat


def standard_dual_by_pairs(x, xbar):
    counts = [0] * x.src.n
    for _, c in x.grading:
        counts[c - 1] += 1
    ev = np.zeros((x.src.n, hcomp1(xbar, x).dim), dtype=complex)
    for col, (p, q) in enumerate(hcomp_pairs(xbar, x)):
        if p == q:
            i = x.grading[q][1]
            ev[i - 1, col] = 1.0 / np.sqrt(counts[i - 1])
    coev = np.zeros((hcomp1(x, xbar).dim, x.tgt.n), dtype=complex)
    for row, (q, p) in enumerate(hcomp_pairs(x, xbar)):
        if q == p:
            r, c = x.grading[q]
            coev[row, r - 1] = np.sqrt(counts[c - 1])
    return ev, coev


def interchanger_by_pairs(a, b, c, d):
    src = hcomp1(outer_cell(a, b), outer_cell(c, d))
    tgt = outer_cell(hcomp1(a, c), hcomp1(b, d))
    ac = {pq: k for k, pq in enumerate(hcomp_pairs(a, c))}
    bd = {pq: k for k, pq in enumerate(hcomp_pairs(b, d))}
    mat = np.zeros((tgt.dim, src.dim), dtype=complex)
    for col, (i, j) in enumerate(hcomp_pairs(outer_cell(a, b), outer_cell(c, d))):
        p, q = divmod(i, b.dim)
        p2, q2 = divmod(j, d.dim)
        mat[ac[(p, p2)] * len(bd) + bd[(q, q2)], col] = 1.0
    return mat


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_unitor_left_matches_the_pairing(src, tgt, data):
    x = GradedOneCell(ZeroCell(src), ZeroCell(tgt), data.draw(gradings(src, tgt)))
    u = unitor_left(x)
    assert u.source == hcomp1(id1(x.tgt), x) and u.target == x
    assert np.array_equal(u.mat, unitor_left_by_pairs(x))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_standard_dual_matches_the_pairing(src, tgt, data):
    grading = data.draw(gradings(src, tgt, max_dim=6))
    x = GradedOneCell(ZeroCell(src), ZeroCell(tgt), grading)
    empty = [c for c in range(1, src + 1) if all(g[1] != c for g in grading)]
    if empty:
        with pytest.raises(EmptyColumn) as err:
            standard_dual(x)
        assert err.value.col == empty[0]
        return
    xbar, ev, coev = standard_dual(x)
    ev_mat, coev_mat = standard_dual_by_pairs(x, xbar)
    assert xbar.grading == tuple((c, r) for r, c in grading)
    assert ev.source == hcomp1(xbar, x) and coev.target == hcomp1(x, xbar)
    assert np.array_equal(ev.mat, ev_mat)
    assert np.array_equal(coev.mat, coev_mat)


@given(st.lists(st.integers(1, 2), min_size=6, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_interchanger_matches_the_pairing(n, data):
    # c : n0 -> n1, a : n1 -> n2 and d : n3 -> n4, b : n4 -> n5
    c, a, d, b = (GradedOneCell(ZeroCell(n[i]), ZeroCell(n[i + 1]),
                                data.draw(gradings(n[i], n[i + 1], max_dim=3)))
                  for i in (0, 1, 3, 4))
    u = interchanger(a, b, c, d)
    assert u.source == hcomp1(outer_cell(a, b), outer_cell(c, d))
    assert u.target == outer_cell(hcomp1(a, c), hcomp1(b, d))
    assert np.array_equal(u.mat, interchanger_by_pairs(a, b, c, d))
    assert is_unitary_residual(u) == 0.0


@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.integers(0, 6),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_is_unitary_residual_of_square_and_non_square_cells(rows, cols, square, rank, seed):
    # for a square f, |f* f - 1| = |f f* - 1|, so one product is enough;
    # rank below the size makes f rank-deficient
    cols = rows if square else cols
    rng = np.random.default_rng(seed)
    r = min(rank, rows, cols)
    a = rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))
    b = rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
    f = two_cell(one_cell(1, 1, [(1, 1)] * cols), one_cell(1, 1, [(1, 1)] * rows), a @ b)
    both = max(frob(f.mat.conj().T @ f.mat - np.eye(cols)),
               frob(f.mat @ f.mat.conj().T - np.eye(rows)))
    assert abs(is_unitary_residual(f) - both) <= 1e-12 * both


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


# -- interned one-cells, the composition plan and shared identities ----------


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
    assert x1 is x2
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


def hcomp1_by_definition(y, x):
    return GradedOneCell(x.src, y.tgt, tuple((y.grading[p][0], x.grading[q][1])
                                             for p, q in pairs_by_definition(y, x)))


@given(st.lists(st.integers(1, 3), min_size=4, max_size=4), st.data())
@settings(max_examples=100, deadline=None)
def test_every_route_to_a_cell_value_gives_one_object(n, data):
    a, b, c, d = n
    grading = data.draw(gradings(a, b))
    x = GradedOneCell(ZeroCell(a), ZeroCell(b), grading)
    assert GradedOneCell(ZeroCell(a), ZeroCell(b), tuple(map(tuple, grading))) is x
    assert one_cell(a, b, [list(g) for g in grading]) is x
    assert cell_from_json(json.loads(json.dumps(cell_to_json(x)))) is x
    # a composite, whichever way it is bracketed or built
    y = GradedOneCell(ZeroCell(b), ZeroCell(c), data.draw(gradings(b, c)))
    z = GradedOneCell(ZeroCell(c), ZeroCell(d), data.draw(gradings(c, d)))
    zyx = hcomp1_many(hcomp1_many(z, y), x)
    assert hcomp1_many(z, hcomp1_many(y, x)) is zyx is hcomp1_many(z, y, x)
    assert hcomp1_by_definition(hcomp1_by_definition(z, y), x) is zyx
    assert hcomp1(x, id1(a)) is x
    # the dual's xbar, and the dual of xbar
    full = GradedOneCell(ZeroCell(a), ZeroCell(b), grading
                         + tuple((r, 1) for r in range(1, b + 1))
                         + tuple((1, col) for col in range(1, a + 1)))
    xbar = standard_dual(full)[0]
    assert xbar is GradedOneCell(ZeroCell(b), ZeroCell(a),
                                 tuple((col, r) for r, col in full.grading))
    assert standard_dual(xbar)[0] is full


def test_invalid_grading_adds_nothing_to_the_table():
    key = (ZeroCell(2), ZeroCell(1), ((1, 1), (2, 1)))
    size = len(cells._interned)
    with pytest.raises(CellMismatch, match="out of range"):
        GradedOneCell(*key)
    assert key not in cells._interned and len(cells._interned) <= size


def test_a_grading_of_triples_raises_and_adds_nothing_to_the_table():
    # 2 triples hold 6 numbers, so no reshape to 2 pairs could hold them
    key = (ZeroCell(2), ZeroCell(2), ((1, 1, 1), (2, 2, 2)))
    size = len(cells._interned)
    with pytest.raises(ValueError):
        GradedOneCell(*key)
    assert key not in cells._interned and len(cells._interned) <= size


def test_an_index_past_intp_is_a_cell_mismatch():
    # in range of its declared zero-cell, but no index array can hold it
    with pytest.raises(CellMismatch, match="out of range"):
        GradedOneCell(ZeroCell(1), ZeroCell(2 ** 70), ((2 ** 64, 1),))


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_rows_and_cols_are_the_read_only_columns_of_the_grading(src, tgt, data):
    grading = data.draw(gradings(src, tgt))
    x = GradedOneCell(ZeroCell(src), ZeroCell(tgt), grading)
    for arr, column in ((x.rows, [r for r, _ in grading]), (x.cols, [c for _, c in grading])):
        assert arr.dtype == np.intp and arr.tolist() == column
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 1
    with pytest.raises(AttributeError):
        x.rows = np.zeros(x.dim, dtype=np.intp)


@given(st.lists(st.integers(1, 3), min_size=3, max_size=3), st.data())
@settings(max_examples=100, deadline=None)
def test_hcomp_plan_pairs_match_the_tuple_enumeration(n, data):
    a, b, c = n
    x = GradedOneCell(ZeroCell(a), ZeroCell(b), data.draw(gradings(a, b)))
    y = GradedOneCell(ZeroCell(b), ZeroCell(c), data.draw(gradings(b, c)))
    _, p_idx, q_idx = cells._hcomp_plan(y, x)
    assert list(zip(p_idx.tolist(), q_idx.tolist())) == [
        (p, q) for p, (_, col) in enumerate(y.grading)
        for q, (row, _) in enumerate(x.grading) if col == row]


def test_a_composite_takes_the_index_arrays_of_its_plan(monkeypatch):
    # the pairs of a composite are in range by construction, so its
    # grading is neither turned back into arrays nor range-checked
    def refuse(*args):
        raise AssertionError("composite grading parsed again")

    x = GradedOneCell(ZeroCell(3), ZeroCell(2), ((1, 3), (2, 1), (2, 3), (1, 2)))
    y = GradedOneCell(ZeroCell(2), ZeroCell(4), ((4, 2), (1, 1), (3, 2)))
    monkeypatch.setattr(cells, "_grading_arrays", refuse)
    cells._hcomp_plan.cache_clear()
    out, p_idx, q_idx = cells._hcomp_plan(y, x)
    assert out.grading == ((4, 1), (4, 3), (1, 3), (1, 2), (3, 1), (3, 3))
    assert out.rows.tolist() == [4, 4, 1, 1, 3, 3] and out.cols.tolist() == [1, 3, 3, 2, 1, 3]
    assert out.rows.dtype == out.cols.dtype == np.intp
    assert not out.rows.flags.writeable and not out.cols.flags.writeable
    assert out is GradedOneCell(ZeroCell(3), ZeroCell(4), out.grading)


def test_threads_building_equal_cells_get_one_object():
    # four threads build the same fresh values at once; a lost insert
    # would hand two threads two objects for one value
    keys = [(ZeroCell(7), ZeroCell(6), ((6, 7),) * k) for k in range(1, 301)]
    got = [None] * 4

    def build(i):
        got[i] = [GradedOneCell(*key) for key in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(a is b for cells_i in got[1:] for a, b in zip(got[0], cells_i))


def test_a_cell_nothing_holds_leaves_the_table():
    key = (ZeroCell(9), ZeroCell(8), ((8, 9), (1, 1), (8, 9)))
    x = GradedOneCell(*key)
    assert cells._interned[key] is x
    alive = weakref.ref(x)
    del x
    gc.collect()
    assert alive() is None and key not in cells._interned
    with pytest.raises(AttributeError):
        GradedOneCell(*key).grading = ()


def test_id2_is_shared_and_read_only():
    x = random_cell(RNG, 2, 3, 2)
    e = id2(x)
    assert e is id2(x)
    assert not e.mat.flags.writeable
    with pytest.raises(ValueError):
        e.mat[0, 0] = 2.0
    assert np.array_equal(e.mat, np.eye(x.dim))


# -- identity two-cells --------------------------------------------------------


@st.composite
def whisker_chains(draw):
    """2-4 horizontally composable two-cells, each an identity or a dense
    random two-cell, over random gradings that may leave sectors empty."""
    k = draw(st.integers(2, 4))
    zero = [draw(st.integers(1, 3)) for _ in range(k + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fs = []
    for src, tgt in zip(zero[1:], zero):
        x = GradedOneCell(ZeroCell(src), ZeroCell(tgt), draw(gradings(src, tgt)))
        if draw(st.booleans()):
            fs.append(id2(x))
            continue
        x2 = GradedOneCell(ZeroCell(src), ZeroCell(tgt), draw(gradings(src, tgt)))
        shape = (x2.dim, x.dim)
        fs.append(BlockTwoCell(x, x2, rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape)))
    return fs


def dense_fold(fs):
    """Left fold of ``hcomp2_by_definition`` with every identity replaced
    by a plain two-cell holding ``np.eye``."""
    plain = [BlockTwoCell(f.source, f.target, np.eye(f.source.dim))
             if f is id2(f.source) else f for f in fs]
    out = plain[0]
    for f in plain[1:]:
        out = BlockTwoCell(hcomp1(out.source, f.source), hcomp1(out.target, f.target),
                           hcomp2_by_definition(out, f))
    return out


@given(whisker_chains())
@settings(max_examples=200, deadline=None)
def test_hcomp2_with_identities_matches_dense_fold(fs):
    ref = dense_fold(fs)
    for h in (hcomp2_many(*fs), reduce(hcomp2, fs)):
        assert h.source == ref.source and h.target == ref.target
        assert h.mat.shape == ref.mat.shape
        assert np.array_equal(h.mat, ref.mat)


def test_identity_is_skipped_by_vcomp_and_folded_by_hcomp2():
    y, x = composable_pair(RNG)
    f = rand_endo(x)
    assert vcomp(id2(x), f) is f
    assert vcomp(f, id2(x)) is f
    assert hcomp2_many(id2(y), id2(x)) is id2(hcomp1(y, x))
    assert hcomp2(id2(y), id2(x)) is id2(hcomp1(y, x))
    assert hcomp2_many(id2(y), id2(x), id2(id1(x.src))) is id2(hcomp1(y, x))
    assert dagger2(id2(x)) is id2(x)


def test_only_id2_makes_identities():
    y, x = composable_pair(RNG)
    f, g = rand_endo(x), rand_endo(y)
    assert type(id2(x)) is cells._Identity2
    made = [BlockTwoCell(x, x, np.eye(x.dim)), two_cell(x, x, np.eye(x.dim)),
            hcomp2(id2(y), f), hcomp2(g, id2(x)), hcomp2_many(id2(y), f),
            vcomp(f, f), dagger2(f), unitor_left(x)]
    assert all(type(h) is BlockTwoCell for h in made)


def test_two_cells_are_immutable_and_checked():
    x = random_cell(RNG, 2, 3, 2)
    f = rand_endo(x)
    for h in (f, id2(x)):
        for name in ("mat", "source", "target", "other"):
            with pytest.raises(AttributeError):
                setattr(h, name, h.mat)
        with pytest.raises(AttributeError):
            del h.mat
        assert not h.mat.flags.writeable
    y = random_cell(RNG, 3, 3, 2)
    with pytest.raises(CellMismatch, match="endpoints"):
        BlockTwoCell(x, y, np.zeros((y.dim, x.dim)))
    with pytest.raises(CellMismatch, match="shape"):
        BlockTwoCell(x, x, np.zeros((x.dim + 1, x.dim)))
    # a real, strided input is stored as a fresh C-contiguous complex copy
    a = np.zeros((x.dim, 2 * x.dim))[:, ::2]
    h = BlockTwoCell(x, x, a)
    assert h.mat.dtype == complex and h.mat.flags.c_contiguous and h.mat is not a


# -- string diagrams -------------------------------------------------------------


def random_two_cell(rng, src, tgt):
    shape = (tgt.dim, src.dim)
    return BlockTwoCell(src, tgt, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def vcomp_fold(fs):
    """``fs`` (top to bottom) folded bottom-up by the two-operand ``vcomp``."""
    return reduce(lambda below, above: vcomp(above, below), reversed(fs))


@st.composite
def string_diagrams(draw):
    """``(layers, flat, fold)``: a stack of 1-4 layers over 1-3 strands,
    listed top to bottom, as ``vcomp_many`` takes it, and as the explicit
    fold of ``vcomp``, ``hcomp2_many`` and ``id2`` that it replaces.

    A strand of a layer is a random two-cell or an identity, given as a
    one-cell or as its ``id2``.  Some layers end in a nested horizontal
    composite, and some runs of layers are nested ``vcomp_many`` calls,
    grouped the same in the fold.  ``flat`` is ``layers`` with each
    nested horizontal composite that has at most one non-identity factor
    flattened into its layer, or None if there is no such composite."""
    k = draw(st.integers(1, 3))
    zero = [draw(st.integers(1, 3)) for _ in range(k + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def cell(j):
        return GradedOneCell(ZeroCell(zero[j + 1]), ZeroCell(zero[j]),
                             draw(gradings(zero[j + 1], zero[j], max_dim=3)))

    strands = [cell(j) for j in range(k)]
    layers, flat, folds = [], [], []   # bottom to top
    flattened = False
    for _ in range(draw(st.integers(1, 4))):
        layer, fold = [], []
        for j, x in enumerate(strands):
            kind = draw(st.sampled_from(["one-cell", "id2", "two-cell"]))
            if kind == "two-cell":
                strands[j] = cell(j)
                f = random_two_cell(rng, x, strands[j])
                layer.append(f)
                fold.append(f)
            else:
                layer.append(x if kind == "one-cell" else id2(x))
                fold.append(id2(x))
        i = draw(st.integers(0, k))
        if i < k - 1:   # nest layer[i:]; the fold nests fold[i:] the same way
            nested = hcomp2_many(*layer[i:])
            if sum(type(f) is BlockTwoCell for f in layer[i:]) <= 1:
                flat.append(tuple(layer))
                flattened = True
            else:
                flat.append(tuple(layer[:i]) + (nested,))
            layer[i:] = [nested]
            fold[i:] = [hcomp2_many(*fold[i:])]
        else:
            flat.append(tuple(layer))
        if len(layer) == 1 and type(layer[0]) is not GradedOneCell and draw(st.booleans()):
            layers.append(layer[0])
        else:
            layers.append(tuple(layer))
        folds.append(hcomp2_many(*fold))
    layers, flat, folds = layers[::-1], flat[::-1], folds[::-1]
    start = draw(st.integers(0, len(layers) - 1))
    stop = draw(st.integers(start, len(layers)))
    if stop - start > 1:
        layers[start:stop] = [vcomp_many(*layers[start:stop])]
        flat[start:stop] = [vcomp_many(*flat[start:stop])]
        folds[start:stop] = [vcomp_fold(folds[start:stop])]
    return layers, flat if flattened else None, vcomp_fold(folds)


def same_bytes(a, b):
    return a.mat.shape == b.mat.shape and np.array_equal(a.mat.view(np.uint64),
                                                         b.mat.view(np.uint64))


@given(string_diagrams())
@settings(max_examples=300, deadline=None)
def test_vcomp_many_matches_the_explicit_folds(diagram):
    layers, flat, fold = diagram
    out = vcomp_many(*layers)
    assert out.source is fold.source and out.target is fold.target
    assert same_bytes(out, fold)
    if type(fold) is cells._Identity2:
        assert out is fold
    if flat is not None:
        # every product of a flattened identity is by 0 or 1, so only the
        # sign of a zero may change
        out = vcomp_many(*flat)
        assert out.source is fold.source and out.target is fold.target
        assert np.array_equal(out.mat, fold.mat)


def test_vcomp_many_of_identities_and_one_cells():
    y, x = composable_pair(RNG)
    yx = hcomp1(y, x)
    assert vcomp_many(id2(yx), (y, x), (id2(y), x)) is id2(yx)
    assert vcomp_many((y, x)) is id2(yx)
    f, g = rand_endo(x), rand_endo(y)
    assert vcomp_many(f) is f
    assert vcomp_many(id2(x), f, (x,)) is f
    for strands in ((y, f), (g, x)):
        ident = [id2(c) if type(c) is GradedOneCell else c for c in strands]
        assert same_bytes(hcomp2_many(*strands), hcomp2_many(*ident))
        assert same_bytes(vcomp_many(strands), hcomp2_many(*ident))


def test_vcomp_many_rejects_bad_stacks():
    y, x = composable_pair(RNG)
    f = rand_endo(x)
    with pytest.raises(CellMismatch, match="empty"):
        vcomp_many()
    with pytest.raises(CellMismatch, match="empty"):
        vcomp_many(())
    with pytest.raises(CellMismatch, match="empty"):
        vcomp_many(f, ())
    with pytest.raises(CellMismatch, match="empty"):
        hcomp2_many()
    with pytest.raises(CellMismatch, match="differ"):
        vcomp_many(f, (y, x))
    with pytest.raises(CellMismatch, match="differ"):
        vcomp_many((y, f), f)
    with pytest.raises(CellMismatch, match="differ"):
        vcomp_many(id2(y), id2(x))
