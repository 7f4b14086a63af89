"""Pseudo-metric operators and the structure they certify.

A Hermitian invertible eta with eta H eta^-1 = H^H makes H pseudo-Hermitian.
For a diagonalizable H the general such eta is phi B phi^H: Hermitian
blocks of B on real clusters, block pairs across conjugate pairs. Inverses
come from the psi family directly (eta^-1 = psi B^-1 psi^H), which is
structurally exact, instead of a numerical inversion. The canonical B (a
sign per real eigenvector, a unit swap across each pair) is a signed
involutive permutation, B^-1 = B, applied to the columns of phi and psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidEta, NotPseudoHermitian, RealSpectrumRequired
from .linalg import (
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    _store_read_only,
    as_matrix,
    frobenius_norm,
    norm_lower_bound,
    singular_values,
    spectral_norm,
)
from .spectral import (
    KIND_REAL,
    TAG_ALL_REAL,
    TAG_UNPAIRABLE,
    BiorthonormalSystem,
    EigenCluster,
    classify_spectrum,
)

__all__ = [
    "SignAssignment",
    "EtaOperator",
    "AntilinearOperator",
    "pseudo_adjoint",
    "canonical_eta",
    "eta_from_M",
    "verify_pseudo_hermiticity",
    "antilinear_symmetry",
    "hermitian_similarity",
]


@dataclass(frozen=True)
class SignAssignment:
    """One sign per real eigenvector, in column order, for the clusters
    `clusters`. Paired clusters carry no signs.

    The constructor is the one place signs are checked: `flat` must hold one
    entry per real eigenvector, each exactly +1 or -1 (1.0 and -1.0 are
    stored as ints).
    """

    clusters: tuple[EigenCluster, ...]
    flat: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = int(np.count_nonzero(_real_columns(self.clusters)))
        if len(self.flat) != expected:
            raise ValueError(
                f"expected {expected} signs for the real eigenvectors, got {len(self.flat)}"
            )
        if any(s not in (-1, 1) for s in self.flat):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "flat", tuple(1 if s == 1 else -1 for s in self.flat))

    @classmethod
    def uniform(cls, sys: BiorthonormalSystem) -> "SignAssignment":
        """Sign +1 on every real eigenvector."""
        return cls(sys.clusters, (1,) * int(np.count_nonzero(_real_columns(sys.clusters))))

    @classmethod
    def from_flat(cls, sys: BiorthonormalSystem, flat) -> "SignAssignment":
        return cls(sys.clusters, tuple(flat))

    def signs_for(self, index: int) -> tuple[int, ...]:
        """The signs of real cluster `index`; KeyError for any other index."""
        real = [i for i, c in enumerate(self.clusters) if c.kind == KIND_REAL]
        if index not in real:
            raise KeyError(f"no signs recorded for cluster {index}")
        start = sum(self.clusters[i].multiplicity for i in real if i < index)
        return self.flat[start : start + self.clusters[index].multiplicity]


def _real_columns(clusters: tuple[EigenCluster, ...]) -> np.ndarray:
    """Mask of the columns that belong to real clusters."""
    return np.repeat([c.kind == KIND_REAL for c in clusters], [c.multiplicity for c in clusters])


def _validate_block(m: np.ndarray, tol: Tolerance, what: str, hermitian: bool) -> None:
    """InvalidEta naming `what` unless, when `hermitian`,
    ||m - m^H||_F <= max(atol, rtol ||m||_2) (tested first), and unless the
    smallest singular value exceeds `svd_cutoff`; one SVD decides both."""
    s = singular_values(m)
    scale = float(s[0]) if s.size else 0.0
    if hermitian:
        herm = frobenius_norm(m - m.conj().T)
        if herm > max(tol.atol, tol.rtol * scale):
            raise InvalidEta(f"{what} is not Hermitian (residual {herm:.3e})")
    if s.size == 0 or s[-1] <= tol.svd_cutoff(m.shape, scale):
        raise InvalidEta(f"{what} is numerically singular")


@dataclass(frozen=True, eq=False)
class EtaOperator:
    """Hermitian invertible metric and its inverse, as read-only views."""

    matrix: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        _store_read_only(self, matrix=self.matrix, inverse=self.inverse)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def norm(self) -> float:
        """||eta||_2, exact, computed on first access: the null-kernel cutoff
        atol * ||eta|| takes it when the bound through ||eta||_F cannot decide."""
        return spectral_norm(self.matrix)

    @classmethod
    def identity(cls, n: int) -> "EtaOperator":
        eye = np.eye(n, dtype=complex)
        return cls(matrix=eye, inverse=eye)

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOLERANCE) -> "EtaOperator":
        """Validate an explicit metric matrix and invert it numerically.

        `_validate_block` tests Hermiticity, then invertibility, from one SVD.
        The metric holds its own copy of m.
        """
        m = as_matrix(m, square=True).copy()
        _validate_block(m, tol, "metric", hermitian=True)
        return cls(matrix=m, inverse=np.linalg.inv(m))


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map v -> S conj(v), stored through its linear part S."""

    linear_part: np.ndarray

    def __post_init__(self) -> None:
        _store_read_only(self, linear_part=self.linear_part)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.linear_part @ np.conj(v)

    def commutation_residual(self, h: np.ndarray) -> float:
        """||H S - S conj(H)||_F, zero when the map commutes with H."""
        s = self.linear_part
        return frobenius_norm(h @ s - s @ np.conj(h))


def pseudo_adjoint(
    a: np.ndarray, eta_plus: EtaOperator, eta_minus: EtaOperator
) -> np.ndarray:
    """eta_plus^-1 A^H eta_minus for A mapping the plus into the minus space."""
    a = as_matrix(a)
    if a.shape != (eta_minus.dim, eta_plus.dim):
        raise ValueError(
            f"map of shape {a.shape} does not fit metrics of dims "
            f"{eta_plus.dim} -> {eta_minus.dim}"
        )
    return eta_plus.inverse @ a.conj().T @ eta_minus.matrix


def _pair_needs_system(sys: BiorthonormalSystem) -> None:
    if classify_spectrum(sys).tag == TAG_UNPAIRABLE:
        raise NotPseudoHermitian(
            "spectrum has an unpaired complex eigenvalue; no metric exists"
        )


def _column_involution(sys: BiorthonormalSystem) -> np.ndarray:
    """Column permutation p of canonical B, with p[p] = identity: each column
    of a linked conjugate pair goes to the partner's matching column, and
    every other column stays."""
    shift = [
        0 if c.partner is None else sys.clusters[c.partner].start - c.start
        for c in sys.clusters
    ]
    return np.arange(sys.dim) + np.repeat(shift, [c.multiplicity for c in sys.clusters])


def _assemble(
    sys: BiorthonormalSystem,
    real_blocks: list[np.ndarray],
    pair_blocks: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Dense eta = phi B phi^H and eta^-1 = psi B^-1 psi^H from blocks ordered
    as `real_cluster_indices` and `pair_groups`: each real block on the
    diagonal of B, P at (u, w) and P^H at (w, u) for a pair block P, and the
    inverse blocks in B^-1. (Canonical B is a signed permutation, B^-1 = B,
    which `canonical_eta` applies to the columns of phi and psi instead.)"""
    n = sys.dim
    b = np.zeros((n, n), dtype=complex)
    b_inv = np.zeros((n, n), dtype=complex)
    for i, m in zip(sys.real_cluster_indices(), real_blocks):
        c = sys.clusters[i].cols
        b[c, c] = m
        b_inv[c, c] = np.linalg.inv(m)
    for (upper, lower), m in zip(sys.pair_groups(), pair_blocks):
        u, w = sys.clusters[upper].cols, sys.clusters[lower].cols
        m_inv = np.linalg.inv(m)
        b[u, w] = m
        b[w, u] = m.conj().T
        b_inv[w, u] = m_inv
        b_inv[u, w] = m_inv.conj().T
    return sys.phi @ b @ sys.phi.conj().T, sys.psi @ b_inv @ sys.psi.conj().T


def canonical_eta(
    sys: BiorthonormalSystem, signs: SignAssignment | None = None
) -> EtaOperator:
    """Metric with signs on real eigenvectors and unit swaps across pairs.

    B is the signed involutive permutation (p, s), so B^-1 = B and
    eta = (phi[:, p] s) phi^H, eta^-1 = (psi[:, p] s) psi^H. All signs +1 on
    a Hermitian input give the identity. The 2^(number of real eigenvectors)
    sign choices exhaust the canonical family. ValueError unless `signs` were
    drawn for clusters of the same kinds and multiplicities as sys's.
    """
    _pair_needs_system(sys)
    if signs is None:
        signs = SignAssignment.uniform(sys)
    layout = [(c.kind, c.multiplicity) for c in sys.clusters]
    if [(c.kind, c.multiplicity) for c in signs.clusters] != layout:
        raise ValueError("signs were drawn for another cluster layout")
    p, s = _column_involution(sys), np.ones(sys.dim)
    s[_real_columns(sys.clusters)] = signs.flat
    return EtaOperator(
        matrix=(sys.phi[:, p] * s) @ sys.phi.conj().T,
        inverse=(sys.psi[:, p] * s) @ sys.psi.conj().T,
    )


def eta_from_M(
    sys: BiorthonormalSystem,
    real_blocks=(),
    pair_blocks=(),
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> EtaOperator:
    """General metric from one Hermitian block per real cluster and one
    invertible block per conjugate pair, in cluster order."""
    _pair_needs_system(sys)
    real_idx = sys.real_cluster_indices()
    pairs = sys.pair_groups()
    real_blocks = [as_matrix(m, square=True) for m in real_blocks]
    pair_blocks = [as_matrix(m, square=True) for m in pair_blocks]
    if len(real_blocks) != len(real_idx):
        raise ValueError(
            f"expected {len(real_idx)} real-cluster blocks, got {len(real_blocks)}"
        )
    if len(pair_blocks) != len(pairs):
        raise ValueError(
            f"expected {len(pairs)} pair blocks, got {len(pair_blocks)}"
        )

    blocks = [(i, m, "real-cluster block", True) for i, m in zip(real_idx, real_blocks)]
    blocks += [(upper, m, "pair block", False) for (upper, _), m in zip(pairs, pair_blocks)]
    for i, m, what, hermitian in blocks:
        size = sys.clusters[i].multiplicity
        if m.shape != (size, size):
            raise ValueError(f"block of shape {m.shape} does not fit cluster size {size}")
        _validate_block(m, tol, what, hermitian)
    eta, eta_inv = _assemble(sys, real_blocks, pair_blocks)
    return EtaOperator(matrix=eta, inverse=eta_inv)


def verify_pseudo_hermiticity(
    h, eta: EtaOperator, tol: Tolerance = DEFAULT_TOLERANCE
) -> ResidualCheck:
    """Residual ||eta H eta^-1 - H^H||_F against
    rtol * (1 + ||H||) * ||eta|| * ||eta^-1||, each norm a `norm_lower_bound`.

    The residual is formed in place as conj(eta H eta^-1) - H^T, the
    entrywise conjugate of the same difference, so no conjugate copy of H is
    made and the norm is the same.
    """
    h = as_matrix(h, square=True)
    if h.shape[0] != eta.dim:
        raise ValueError("matrix and metric dimensions differ")
    r = eta.matrix @ h @ eta.inverse
    np.conjugate(r, out=r)
    r -= h.T
    value = frobenius_norm(r)
    threshold = (
        tol.rtol
        * (1.0 + norm_lower_bound(h))
        * norm_lower_bound(eta.matrix)
        * norm_lower_bound(eta.inverse)
    )
    return ResidualCheck("pseudo_hermiticity", value, threshold)


def antilinear_symmetry(sys: BiorthonormalSystem) -> AntilinearOperator:
    """Antilinear map commuting with the decomposed matrix: S = psi P phi^T
    = psi[:, p] phi^T, with P the unsigned canonical B (an involutive
    permutation), so that H S = S conj(H)."""
    _pair_needs_system(sys)
    p = _column_involution(sys)
    return AntilinearOperator(linear_part=sys.psi[:, p] @ sys.phi.T)


def hermitian_similarity(sys: BiorthonormalSystem) -> tuple[np.ndarray, np.ndarray, EtaOperator]:
    """(O, h, eta) with O H O^-1 = h real diagonal and eta = O^H O > 0.

    Only real-spectrum systems qualify; O = psi^-1 comes for free as phi^H,
    and eta is the all-+1 canonical metric phi phi^H.
    """
    if classify_spectrum(sys).tag != TAG_ALL_REAL:
        raise RealSpectrumRequired("similarity to a Hermitian matrix needs a real spectrum")
    o = sys.phi.conj().T
    h = np.diag(sys.eigenvalues.real).astype(complex)
    return o, h, canonical_eta(sys)
