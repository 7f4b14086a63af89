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
    as_matrix,
    frobenius_norm,
    norm_lower_bound,
    singular_values,
    spectral_norm,
)
from .spectral import (
    TAG_ALL_REAL,
    TAG_UNPAIRABLE,
    BiorthonormalSystem,
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
    """One sign (+1/-1) per eigenvector of every real cluster.

    `per_cluster` maps cluster index -> sign tuple of length d_n. Paired
    clusters carry no signs.
    """

    per_cluster: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def uniform(cls, sys: BiorthonormalSystem, sign: int = 1) -> "SignAssignment":
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        return cls(
            tuple(
                (i, (sign,) * sys.clusters[i].multiplicity)
                for i in sys.real_cluster_indices()
            )
        )

    @classmethod
    def from_flat(cls, sys: BiorthonormalSystem, flat) -> "SignAssignment":
        """Distribute flat signs, each exactly +1 or -1 (1.0 and -1.0 too),
        over real clusters in cluster order."""
        flat = list(flat)
        real = sys.real_cluster_indices()
        expected = sum(sys.clusters[i].multiplicity for i in real)
        if len(flat) != expected:
            raise ValueError(
                f"expected {expected} signs for the real eigenvectors, got {len(flat)}"
            )
        if any(s not in (-1, 1) for s in flat):
            raise ValueError("signs must be +1 or -1")
        flat = [1 if s == 1 else -1 for s in flat]
        per = []
        pos = 0
        for i in real:
            mult = sys.clusters[i].multiplicity
            per.append((i, tuple(flat[pos : pos + mult])))
            pos += mult
        return cls(tuple(per))

    @cached_property
    def _by_cluster(self) -> dict[int, tuple[int, ...]]:
        # reversed, so that a repeated index keeps its first entry
        return dict(reversed(self.per_cluster))

    def signs_for(self, index: int) -> tuple[int, ...]:
        try:
            return self._by_cluster[index]
        except KeyError:
            raise KeyError(f"no signs recorded for cluster {index}") from None

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(s for _, signs in self.per_cluster for s in signs)


@dataclass(eq=False)
class EtaOperator:
    """Hermitian invertible metric, with its inverse carried alongside."""

    matrix: np.ndarray
    inverse: np.ndarray
    signs: SignAssignment | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def norm(self) -> float:
        """||eta||_2, exact: the null-kernel cutoff atol * ||eta|| takes it
        when the bound through ||eta||_F cannot decide."""
        return spectral_norm(self.matrix)

    @classmethod
    def identity(cls, n: int) -> "EtaOperator":
        eye = np.eye(n, dtype=complex)
        return cls(matrix=eye, inverse=eye.copy())

    @classmethod
    def from_matrix(cls, m, tol: Tolerance = DEFAULT_TOLERANCE) -> "EtaOperator":
        """Validate an explicit metric matrix and invert it numerically.

        One SVD gives ||m||_2 for both tests; the Hermiticity residual is a
        Frobenius norm and is tested first.
        """
        m = as_matrix(m, square=True)
        s = singular_values(m)
        scale = float(s[0]) if s.size else 0.0
        herm = frobenius_norm(m - m.conj().T)
        if herm > max(tol.atol, tol.rtol * scale):
            raise InvalidEta(f"metric is not Hermitian (residual {herm:.3e})")
        if s.size == 0 or s[-1] <= tol.svd_cutoff(m.shape, scale):
            raise InvalidEta("metric is numerically singular")
        eta = cls(matrix=m, inverse=np.linalg.inv(m))
        eta.norm = scale  # seeds the cached property with the value above
        return eta


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map v -> S conj(v), stored through its linear part S."""

    linear_part: np.ndarray

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


def _column_signs(sys: BiorthonormalSystem, signs: SignAssignment) -> np.ndarray:
    """`signs` on real clusters and +1 on pair columns, one per column.
    ValueError unless `signs` gives one +1/-1 per eigenvector of real
    clusters only; KeyError (`signs_for`) for a real cluster without signs."""
    real = sys.real_cluster_indices()
    stray = sorted({i for i, _ in signs.per_cluster} - set(real))
    if stray:
        raise ValueError(f"signs recorded for clusters {stray}, which are not real")
    column = np.ones(sys.dim)
    for i in real:
        c, given = sys.clusters[i], signs.signs_for(i)
        if len(given) != c.multiplicity or any(g not in (-1, 1) for g in given):
            raise ValueError(f"cluster {i} takes {c.multiplicity} signs +1/-1: {given}")
        column[c.cols] = given
    return column


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
    sign choices exhaust the canonical family.
    """
    _pair_needs_system(sys)
    if signs is None:
        signs = SignAssignment.uniform(sys)
    p, s = _column_involution(sys), _column_signs(sys, signs)
    return EtaOperator(
        matrix=(sys.phi[:, p] * s) @ sys.phi.conj().T,
        inverse=(sys.psi[:, p] * s) @ sys.psi.conj().T,
        signs=signs,
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

    def check_block(m: np.ndarray, size: int, hermitian: bool) -> None:
        if m.shape != (size, size):
            raise ValueError(f"block of shape {m.shape} does not fit cluster size {size}")
        s = singular_values(m)
        if s.size == 0 or s[-1] <= tol.svd_cutoff(m.shape, float(s[0])):
            raise InvalidEta("singular block in metric assembly")
        if hermitian:
            herm = frobenius_norm(m - m.conj().T)
            if herm > max(tol.atol, tol.rtol * float(s[0])):
                raise InvalidEta(f"real-cluster block is not Hermitian ({herm:.3e})")

    for i, m in zip(real_idx, real_blocks):
        check_block(m, sys.clusters[i].multiplicity, hermitian=True)
    for (upper, _), m in zip(pairs, pair_blocks):
        check_block(m, sys.clusters[upper].multiplicity, hermitian=False)
    eta, eta_inv = _assemble(sys, real_blocks, pair_blocks)
    return EtaOperator(matrix=eta, inverse=eta_inv)


def verify_pseudo_hermiticity(
    h, eta: EtaOperator, tol: Tolerance = DEFAULT_TOLERANCE
) -> ResidualCheck:
    """Residual ||eta H eta^-1 - H^H||_F against
    rtol * (1 + ||H||) * ||eta|| * ||eta^-1||, each norm a `norm_lower_bound`.
    """
    h = as_matrix(h, square=True)
    if h.shape[0] != eta.dim:
        raise ValueError("matrix and metric dimensions differ")
    value = frobenius_norm(eta.matrix @ h @ eta.inverse - h.conj().T)
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


def hermitian_similarity(
    sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, EtaOperator]:
    """(O, h, eta) with O H O^-1 = h real diagonal and eta = O^H O > 0.

    Only real-spectrum systems qualify; O = psi^-1 comes for free as phi^H,
    and eta is the all-+1 canonical metric phi phi^H.
    """
    if classify_spectrum(sys, tol).tag != TAG_ALL_REAL:
        raise RealSpectrumRequired("similarity to a Hermitian matrix needs a real spectrum")
    o = sys.phi.conj().T
    h = np.diag(sys.eigenvalues.real).astype(complex)
    return o, h, canonical_eta(sys)
