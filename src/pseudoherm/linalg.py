"""Dense complex linear algebra backbone with an explicit tolerance policy.

Everything downstream (spectral decompositions, metric construction, kernel
restrictions) funnels its rank/zero decisions through `Tolerance` so that a
single policy governs the whole library.

Norms have three roles. A residual value is a Frobenius norm
(`frobenius_norm`), never smaller than the 2-norm, so a check can only be
stricter than its 2-norm form. A threshold scale is `norm_lower_bound`, never
larger than the 2-norm, so a threshold is never looser. Three decisions
compare against exact norms: the clustering width max(atol, rtol * ||H||),
cond(psi) against `cond_max`, and the null-kernel cutoff atol * ||eta||.
Each first tries one-sided bounds from what is already held (||H|| lies
between a `norm_lower_bound` and ||H||_F, `certified_inverse` bounds the
smallest singular value from below, ||eta||_F bounds ||eta||_2 from above),
and the exact SVD (`spectral_norm`, `cond`) runs only when the bounds
cannot decide, so every outcome is the one the SVD gives. Every
rank and kernel decision shares one cutoff (`rank`, `singular_system`). For a
square matrix of known singular values and rank, `kernels_from_solves` finds
bases of both kernels from two LU solves with a bound on their angle to the
SVD's, so that a caller can certify what it reads from them and take the full
SVD only when it cannot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailure

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "ResidualCheck",
    "as_matrix",
    "spectral_norm",
    "frobenius_norm",
    "norm_lower_bound",
    "cond",
    "certified_inverse",
    "eig",
    "eigh",
    "eigvalsh",
    "inv",
    "singular_values",
    "rank",
    "singular_system",
    "kernels_from_solves",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy shared across the library.

    rtol/atol feed the singular-value cutoff max(atol, max(m, n) * rtol * s_max)
    used for rank and kernel decisions; cond_max bounds the eigenvector-matrix
    condition number accepted as "diagonalizable". s_max is an exact
    2-norm. The clustering width max(atol, rtol * ||H||) is the exact
    2-norm's in every outcome, but `decompose` compares against it through
    a bracket on ||H|| (`spectral.ClusterWidth`), and forms the exact norm
    only when the bracket cannot decide. The residual thresholds built from
    rtol/atol elsewhere take their scales from `norm_lower_bound`.
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
    """A residual paired with the threshold it was compared against.

    `value` is the Frobenius norm of the residual (for a pair of sector
    blocks, of both together); the norms inside `threshold` are exact where
    the pipeline already holds them and `norm_lower_bound`s otherwise.
    """

    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a dense complex 2-d array, rejecting NaN/Inf entries; a
    complex ndarray comes back as it is, not copied."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _store_read_only(obj, **arrays: np.ndarray) -> None:
    """Set fields of the frozen dataclass `obj` to read-only views of `arrays`."""
    for name, a in arrays.items():
        view = np.asarray(a).view()
        view.flags.writeable = False
        object.__setattr__(obj, name, view)


def spectral_norm(m: np.ndarray) -> float:
    """Exact 2-norm (one SVD)."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


# Frobenius norms above this square without leaving the normal range.
_TINY = 2.0**-450


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm, an upper bound on the 2-norm; the norm of residuals.

    One dot product over the entries' real and imaginary parts; when the sum
    of squares leaves the normal range it is recomputed on m / max|m_ij|, so
    the result neither overflows nor underflows before the norm itself does.
    """
    v = np.ravel(m)
    if v.dtype.kind == "c":
        v = v.view(v.real.dtype)
    with np.errstate(over="ignore"):
        value = math.sqrt(float(v @ v))
    if _TINY < value < math.inf:
        return value
    big = float(np.max(np.abs(v), initial=0.0))
    if big == 0.0:
        return 0.0
    v = v / big
    return big * math.sqrt(float(v @ v))


# Below this smaller dimension one SVD is cheaper than the power iteration,
# so the exact norm is returned there (2-core machine, one BLAS thread,
# complex n x n: 76 us against 133 us at n = 16, 185 us against 140 us at
# n = 32). `certified_inverse` is tried at every size: against cond (one
# SVD) plus the inverse it costs 21 against 13 us at n = 2, 33 against 43 us
# at n = 16 and 70 against 128 us at n = 31 (same machine).
_EXACT_BELOW = 32
_POWER_STEPS = 8


@functools.lru_cache(maxsize=16)
def _start_vector(n: int) -> np.ndarray:
    """Fixed unit start vector of length n, so equal inputs give equal bits."""
    x = np.random.default_rng(0).standard_normal(n).astype(complex)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return x


def norm_lower_bound(m: np.ndarray) -> float:
    """Lower bound on ||m||_2 for threshold scales: the largest ||m x|| / ||x||
    over a power iteration on m^H m from a fixed start vector.

    Exact (one SVD) when the smaller dimension is below _EXACT_BELOW, or when
    ||m x|| overflows; the result is deterministic for a given input.
    """
    if min(m.shape) < _EXACT_BELOW:
        return spectral_norm(m)
    x = _start_vector(m.shape[1])
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_POWER_STEPS):
            y = m @ x
            size = frobenius_norm(y)
            best = max(best, size / frobenius_norm(x))
            if not 0.0 < size < math.inf:
                break
            z = ((y / size).conj() @ m).conj()  # m^H y / ||y||, no m^H formed
            size = frobenius_norm(z)
            if not 0.0 < size < math.inf:
                break
            x = z / size
    return best if best < math.inf else spectral_norm(m)


def cond(m: np.ndarray) -> float:
    """2-norm condition number; inf for singular input."""
    s = singular_values(m)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


_EPS = float(np.finfo(float).eps)


def _residual_bound(
    a: np.ndarray, x: np.ndarray, anorm: float, xnorm: float
) -> float:
    """Upper bound on ||a x - I||_F for square a and x of Frobenius norms
    `anorm` and `xnorm`.

    The computed residual R, formed in place (no n x n identity), plus the
    rounding of forming it: |fl(a x) - a x| <= gamma |a| |x| entrywise, so
    the exact residual is within gamma ||a||_F ||x||_F of R, with gamma =
    2 (n + 2) eps covering a complex inner product of length n and the
    subtraction, rounded up.
    """
    gamma = 2.0 * (a.shape[0] + 2) * _EPS
    return (_identity_residual(a @ x) + gamma * anorm * xnorm) * (1.0 + gamma)


def _identity_residual(product: np.ndarray) -> float:
    """||product - I||_F for a fresh square array `product`, subtracting 1
    on its diagonal in place (no n x n identity)."""
    product.reshape(-1)[:: product.shape[0] + 1] -= 1.0
    return frobenius_norm(product)


def certified_inverse(
    a: np.ndarray, cutoff: Callable[[float], float]
) -> np.ndarray | None:
    """inv(a) when it proves that an SVD of `a` finds every singular value
    above cutoff(s_max); None when it cannot.

    `cutoff` is the caller's SVD cutoff as a nondecreasing function of the
    largest singular value; it is evaluated at ||a||_F >= ||a||_2, which
    bounds it from above. With X = inv(a),
    ||a^-1||_2 <= ||X||_F / (1 - ||a X - I||_F), so
    sigma_min(a) >= (1 - rho) / ||X||_F with rho from `_residual_bound`
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 14). Less
    the SVD's own rounding (n eps ||a||_F), the bound must exceed twice the
    cutoff: the other half absorbs the rounding of the cutoff itself, as in
    `spectral._eigenvectors_certified`. It is tried at every size but 0.
    """
    n = a.shape[0]
    if a.shape != (n, n) or n == 0:
        return None
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            return None
        anorm = frobenius_norm(a)
        xnorm = frobenius_norm(x) * (1.0 + 2.0 * (n + 2) * _EPS)
        rho = _residual_bound(a, x, anorm, xnorm)
        lower = (1.0 - rho) / xnorm - n * _EPS * anorm
    return x if lower > 2.0 * cutoff(anorm) else None


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


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of a
    Hermitian matrix, read from its lower triangle."""
    return np.linalg.eigh(m)


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    stack, read from the lower triangle."""
    return np.linalg.eigvalsh(m)


def inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix the caller has shown to be invertible."""
    return np.linalg.inv(m)


def singular_values(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.zeros(0)
    return np.linalg.svd(m, compute_uv=False)


def _rank_of(s: np.ndarray, shape: tuple[int, int], tol: Tolerance) -> int:
    """Number of the descending singular values `s` of a matrix of `shape`
    above max(atol, max(m,n)*rtol*s_max): the cutoff of every rank and kernel
    decision."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol.svd_cutoff(shape, float(s[0]))))


def rank(m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical rank: singular values above max(atol, max(m,n)*rtol*s_max)."""
    a = as_matrix(m)
    return _rank_of(singular_values(a), a.shape, tol)


def singular_system(
    m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Full SVD m = u diag(s) vh and the numerical rank r under `rank`'s cutoff.

    u and vh are square unitary, so u[:, r:] is an orthonormal basis of the
    numerical kernel of m^H and vh[r:].conj().T one of that of m.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if a.size == 0:
        return np.eye(rows, dtype=complex), np.zeros(0), np.eye(cols, dtype=complex), 0
    u, s, vh = np.linalg.svd(a)
    return u, s, vh, _rank_of(s, a.shape, tol)


def _orthonormal(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of m, which has full column rank."""
    return np.linalg.qr(m)[0] if m.shape[1] else m


def kernels_from_solves(
    d: np.ndarray, s: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Orthonormal bases W of ker d and W# of ker d^H for a square d with
    descending singular values `s` and numerical rank r, 0 < r < n, and a
    bound theta on the sine of the largest angle between each basis and the
    span of the n - r trailing singular vectors on its side; None when a solve
    meets an exact zero pivot or leaves the finite range.

    One step of inverse iteration from a fixed n x (n - r) start block Y:
    X = d^-1 Y and conj(Z) = d^-T Y, so Z = d^-H conj(Y) is solved through
    d.T with no conjugate copy of d; QR makes W from X and W# from Z. With V_r
    the leading r right singular vectors, ||d W||_2 >= sigma_r ||V_r^H W||_2
    (Wedin's bound), and the same holds for d^H W# and the left ones. The
    computed d W is within gamma ||d||_F ||W||_F of the exact product, with
    gamma = 2 (n + 2) eps as in `_residual_bound` and ||W||_F = sqrt(n - r),
    and sigma_r is at least s[r-1] - n eps s[0], so
    theta = (max(||d W||_F, ||W#^H d||_F) + gamma ||d||_F sqrt(n - r))
    / (s[r-1] - n eps s[0]), or inf when that denominator is not positive.
    QR's loss of orthogonality is of the order of n eps, which the gamma
    term covers.
    """
    n = d.shape[0]
    k = n - r
    y = np.random.default_rng(0).standard_normal((n, k))
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.solve(d, y)
            z = np.linalg.solve(d.T, y).conj()
        except np.linalg.LinAlgError:
            return None
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            return None
        w, w_sharp = _orthonormal(x), _orthonormal(z)
        residual = max(frobenius_norm(d @ w), frobenius_norm(w_sharp.conj().T @ d))
        gamma = 2.0 * (n + 2) * _EPS
        lower = float(s[r - 1]) - n * _EPS * float(s[0])
        rounding = gamma * frobenius_norm(d) * math.sqrt(k)
        theta = (residual + rounding) / lower if lower > 0.0 else math.inf
    return w, w_sharp, theta
