"""Dense complex linear algebra primitives.

Everything in here works on plain ``numpy`` arrays of ``complex128``.
Residuals are always Frobenius norms: they are basis independent and
bound the operator norm up to a dimension factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAProjection, NotHermitian

__all__ = [
    "Tolerance",
    "dagger",
    "frob",
    "herm_part",
    "range_isometry",
    "spectral_projections",
    "commutant_basis",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by all checkers.

    atol
        Absolute Frobenius-norm residual bound for "equal within
        tolerance" statements.
    gap_tol
        Eigenvalue clustering threshold; two eigenvalues closer than
        this are considered equal.  Also used as the (relative) rank
        cut-off when computing null spaces.
    """

    atol: float = 1e-9
    gap_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.atol <= self.gap_tol < np.inf:
            raise ValueError("need 0 < atol <= gap_tol < inf")


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def frob(a) -> float:
    """Frobenius norm; ``inf``, without a warning, if its square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(np.asarray(a)))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def herm_part(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    return (a + a.conj().T) / 2


def _check_projection(p: np.ndarray, tol: Tolerance) -> None:
    if p.shape[0] != p.shape[1]:
        raise NotAProjection("matrix is not square")
    scale = max(1.0, frob(p))
    if frob(p - dagger(p)) > 10 * tol.atol * scale:
        raise NotAProjection("matrix is not hermitian")
    if frob(p @ p - p) > 10 * tol.atol * scale:
        raise NotAProjection("matrix is not idempotent")


def range_isometry(p: np.ndarray, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Isometry ``v`` onto the range of a hermitian idempotent ``p``.

    Returns ``v`` with ``rank(p)`` orthonormal columns such that
    ``v v* = p``.  Eigenvalues above 1/2 count toward the range: the
    spectrum of a numerical projection clusters at {0, 1}.
    """
    p = as_matrix(p)
    _check_projection(p, tol)
    w, u = np.linalg.eigh(herm_part(p))
    return np.ascontiguousarray(u[:, w > 0.5])


def _eigen_clusters(h: np.ndarray, tol: Tolerance) -> list[tuple[float, np.ndarray]]:
    """``(eigenvalue, orthonormal eigenvectors)`` per cluster of
    ``spectral_projections``, in the same order."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise NotHermitian("matrix is not square")
    scale = max(1.0, frob(h))
    if frob(h - dagger(h)) > 10 * tol.atol * scale:
        raise NotHermitian("matrix is not hermitian within tolerance")
    w, u = np.linalg.eigh(herm_part(h))
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol.gap_tol:
            out.append((float(np.mean(w[start:i])), u[:, start:i]))
            start = i
    return out


def spectral_projections(h: np.ndarray, tol: Tolerance = Tolerance()):
    """Eigenvalue clusters of a hermitian matrix.

    Returns a list of ``(eigenvalue, projection)`` pairs, eigenvalues
    ascending, where consecutive eigenvalues are merged into one cluster
    whenever their gap is below ``gap_tol``.  The projections are
    hermitian, idempotent, mutually orthogonal and sum to the identity.
    """
    return [(lam, v @ dagger(v)) for lam, v in _eigen_clusters(h, tol)]


def commutant_basis(generators, tol: Tolerance = Tolerance()):
    """Hilbert-Schmidt orthonormal basis of the joint commutant.

    Computes ``{t : t g = g t for all g}`` as the null space of the
    stacked maps ``t -> t g - g t``.  The null space is extracted from
    the hermitian Gram form ``sum_g m_g* m_g`` of those maps (same null
    space, one eigendecomposition instead of a tall SVD).
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise DimensionMismatch("need at least one generator")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise DimensionMismatch("generators must be square of equal size")
    # gram = sum_g m_g* m_g with m_g = I (x) g^T - g (x) I on row-major
    # vec(t); expanding gives two kron terms of summed products plus a
    # cross term and its adjoint
    stack = np.stack(gens)
    a = np.einsum("gki,gli->kl", stack.conj(), stack)   # sum conj(g) g^T
    b = np.einsum("gik,gil->kl", stack.conj(), stack)   # sum g* g
    cross = np.einsum("gik,gjl->ijkl", stack, stack.conj()).reshape(n * n, n * n)
    gram = np.kron(np.eye(n), a) + np.kron(b, np.eye(n)) - cross - dagger(cross)
    w, u = np.linalg.eigh(herm_part(gram))
    cut = tol.gap_tol * max(1.0, float(w[-1]) if len(w) else 1.0)
    basis = [u[:, j].reshape(n, n) for j in range(len(w)) if w[j] <= cut]
    return basis
