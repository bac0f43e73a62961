import numpy as np
import pytest

from qhilb.errors import DimensionMismatch, NotAProjection, NotHermitian
from qhilb.linalg import (
    Tolerance,
    commutant_basis,
    dagger,
    frob,
    range_isometry,
    spectral_projections,
)

RNG = np.random.default_rng(20240811)


def crandn(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def haar(n):
    q, r = np.linalg.qr(crandn(n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_dagger():
    assert np.allclose(dagger(np.eye(4)), np.eye(4))
    assert np.allclose(dagger(np.array([[1j]])), np.array([[-1j]]))
    a = crandn(3, 5)
    assert np.allclose(dagger(dagger(a)), a)


def test_range_isometry_diag():
    v = range_isometry(np.diag([1.0, 0.0]))
    assert v.shape == (2, 1)
    assert abs(abs(v[0, 0]) - 1) < 1e-12 and abs(v[1, 0]) < 1e-12


def test_range_isometry_full():
    v = range_isometry(np.eye(3))
    assert v.shape == (3, 3)
    assert frob(dagger(v) @ v - np.eye(3)) < 1e-12


def test_range_isometry_from_isometry():
    w = np.linalg.qr(crandn(5, 2))[0]
    p = w @ dagger(w)
    v = range_isometry(p)
    assert v.shape == (5, 2)
    assert frob(dagger(v) @ v - np.eye(2)) < 1e-8
    assert frob(v @ dagger(v) - p) < 1e-8


@pytest.mark.parametrize("n,r", [(4, 1), (10, 4), (30, 13)])
def test_range_isometry_roundtrip(n, r):
    w = np.linalg.qr(crandn(n, r))[0]
    p = w @ dagger(w)
    v = range_isometry(p)
    assert frob(v @ dagger(v) - p) < 1e-8


def test_range_isometry_rejects():
    with pytest.raises(NotAProjection):
        range_isometry(crandn(3, 3))
    with pytest.raises(NotAProjection):
        range_isometry(np.diag([0.3, 0.0]))


def test_spectral_projections_identity():
    out = spectral_projections(np.eye(4))
    assert len(out) == 1
    lam, p = out[0]
    assert abs(lam - 1) < 1e-12 and frob(p - np.eye(4)) < 1e-12


def test_spectral_projections_diag():
    out = spectral_projections(np.diag([1.0, 2.0]))
    assert [round(l) for l, _ in out] == [1, 2]
    assert np.allclose(out[0][1], np.diag([1, 0]))
    assert np.allclose(out[1][1], np.diag([0, 1]))


def test_spectral_projections_known_spectrum():
    u = haar(3)
    h = u @ np.diag([0.0, 0.0, 3.0]) @ dagger(u)
    out = spectral_projections(h)
    ranks = [round(np.real(np.trace(p))) for _, p in out]
    assert ranks == [2, 1]
    total = sum(p for _, p in out)
    assert frob(total - np.eye(3)) < 1e-8
    for i, (_, p) in enumerate(out):
        for j, (_, q) in enumerate(out):
            expected = p if i == j else 0 * p
            assert frob(p @ q - expected) < 1e-8


def test_spectral_projections_rejects():
    with pytest.raises(NotHermitian):
        spectral_projections(crandn(3, 3))


def test_commutant_scalars():
    basis = commutant_basis([np.eye(2)])
    assert len(basis) == 4


def test_commutant_schur():
    gens = [crandn(3, 3) for _ in range(6)]
    basis = commutant_basis(gens)
    assert len(basis) == 1
    t = basis[0]
    off = t - np.trace(t) / 3 * np.eye(3)
    assert frob(off) < 1e-7


def test_commutant_diagonal():
    basis = commutant_basis([np.diag([1.0, 2.0])])
    assert len(basis) == 2
    for t in basis:
        assert abs(t[0, 1]) < 1e-7 and abs(t[1, 0]) < 1e-7


def block_diag(blocks):
    """Square blocks placed down the diagonal, in order."""
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def test_commutant_block_multiplicities():
    # sum_t M_{d_t} (x) I_{m_t}: commutant dimension is sum m_t^2
    cases = [((2, 3), (1, 2)), ((1, 2), (3, 1))]
    for ds, ms in cases:
        gens = []
        for _ in range(6):
            blocks = [np.kron(crandn(d, d), np.eye(m)) for d, m in zip(ds, ms)]
            gens.append(block_diag(blocks))
        basis = commutant_basis(gens)
        assert len(basis) == sum(m * m for m in ms)


def test_commutant_rejects():
    with pytest.raises(DimensionMismatch):
        commutant_basis([np.eye(2), np.eye(3)])


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(atol=1e-3, gap_tol=1e-9)
