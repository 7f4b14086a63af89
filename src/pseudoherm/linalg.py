"""Dense complex linear algebra backbone with an explicit tolerance policy.

Everything downstream (spectral decompositions, metric construction, kernel
restrictions) funnels its rank/zero decisions through `Tolerance` so that a
single policy governs the whole library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "ResidualCheck",
    "as_matrix",
    "spectral_norm",
    "cond",
    "eig",
    "singular_values",
    "rank",
    "kernel_basis",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy shared across the library.

    rtol/atol feed the singular-value cutoff max(atol, max(m, n) * rtol * s_max)
    used for rank and kernel decisions; cond_max bounds the eigenvector-matrix
    condition number accepted as "diagonalizable".
    """

    rtol: float = 1e-8
    atol: float = 1e-12
    cond_max: float = 1e12

    def __post_init__(self) -> None:
        fields = (self.rtol, self.atol, self.cond_max)
        if not all(math.isfinite(x) and x > 0 for x in fields):
            raise ValueError("tolerance fields must be finite and strictly positive")

    def svd_cutoff(self, shape: tuple[int, int], smax: float) -> float:
        return max(self.atol, max(shape) * self.rtol * smax)

    def cluster_tol(self, scale: float) -> float:
        """Eigenvalue clustering width for a matrix of 2-norm `scale`."""
        return max(self.atol, self.rtol * scale)


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class ResidualCheck:
    """A residual paired with the threshold it was compared against."""

    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a dense complex 2-d array, rejecting NaN/Inf entries."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def spectral_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def cond(m: np.ndarray) -> float:
    """2-norm condition number; inf for singular input."""
    s = singular_values(m)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors (columns), in LAPACK order.

    The return order is unspecified; callers must sort or cluster explicitly.
    """
    a = as_matrix(m, square=True)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    return values, vectors


def singular_values(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def rank(m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank: singular values above max(atol, max(m,n)*rtol*s_max)."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    s = singular_values(a)
    cutoff = tol.svd_cutoff(a.shape, float(s[0]))
    return int(np.count_nonzero(s > cutoff))


def kernel_basis(m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, one column per direction.

    Shares the rank cutoff, so rank(m) + kernel dim = number of columns.
    Returns an (n, 0) array when the kernel is trivial.
    """
    a = as_matrix(m)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a)
    cutoff = tol.svd_cutoff(a.shape, float(s[0]))
    nnz = int(np.count_nonzero(s > cutoff))
    return vh[nnz:].conj().T
