"""Pseudo-metric operators and the structure they certify.

A Hermitian invertible eta with eta H eta^-1 = H^H makes H pseudo-Hermitian.
For a diagonalizable H the general such eta is assembled from the dual
eigenvector family: sign blocks on real clusters, swap blocks across
conjugate pairs. Inverses are assembled from the psi family directly
(eta^-1 = psi B^-1 psi^H), which is structurally exact, instead of running a
numerical inversion.
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
        """Distribute a flat sign sequence over real clusters in cluster order."""
        flat = [int(s) for s in flat]
        real = sys.real_cluster_indices()
        expected = sum(sys.clusters[i].multiplicity for i in real)
        if len(flat) != expected:
            raise ValueError(
                f"expected {expected} signs for the real eigenvectors, got {len(flat)}"
            )
        if any(s not in (-1, 1) for s in flat):
            raise ValueError("signs must be +1 or -1")
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
    source: BiorthonormalSystem | None = None

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


def _assemble(
    sys: BiorthonormalSystem,
    real_blocks: dict[int, np.ndarray],
    pair_blocks: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """eta = phi B phi^H and eta^-1 = psi B^-1 psi^H from per-cluster blocks.

    B holds one block per real cluster (on its diagonal) and, for each
    conjugate pair (u, w) with block P, P at (u, w) and P^H at (w, u). A
    block m at rows r and columns c of B gives (phi B)[:, c] = phi[:, r] m,
    and B^-1 holds inv(m) at rows c and columns r. So phi B and psi B^-1 are
    formed cluster block by cluster block, with one stacked inverse and
    product per block size, and each metric costs one GEMM.
    """
    n = sys.dim
    by_size: dict[int, list[tuple[int, int, np.ndarray]]] = {}

    def place(rows: int, cols: int, block: np.ndarray) -> None:
        by_size.setdefault(block.shape[0], []).append((rows, cols, block))

    for i, block in real_blocks.items():
        place(sys.clusters[i].start, sys.clusters[i].start, block)
    for upper, block in pair_blocks.items():
        u = sys.clusters[upper].start
        w = sys.clusters[sys.clusters[upper].partner].start
        place(u, w, block)
        place(w, u, block.conj().T)
    phi_b = np.zeros((n, n), dtype=complex)
    psi_b_inv = np.zeros((n, n), dtype=complex)
    for mu, placed in by_size.items():
        rows, cols, blocks = zip(*placed)
        rows = np.add.outer(rows, range(mu))  # (blocks, mu) column indices
        cols = np.add.outer(cols, range(mu))
        blocks = np.array(blocks)
        # through transposes: (phi B)^T[c] = m^T phi^T[r], (psi B^-1)^T[r] =
        # inv(m)^T psi^T[c], as one stacked product per block size
        phi_b.T[cols] = blocks.transpose(0, 2, 1) @ sys.phi.T[rows]
        inverses = np.linalg.inv(blocks)
        psi_b_inv.T[rows] = inverses.transpose(0, 2, 1) @ sys.psi.T[cols]
    return phi_b @ sys.phi.conj().T, psi_b_inv @ sys.psi.conj().T


def canonical_eta(
    sys: BiorthonormalSystem, signs: SignAssignment | None = None
) -> EtaOperator:
    """Metric with sign blocks on real clusters and unit swaps across pairs.

    With all signs +1 on a Hermitian input this reduces to the identity. The
    2^(number of real eigenvectors) sign choices exhaust the canonical family.
    """
    _pair_needs_system(sys)
    if signs is None:
        signs = SignAssignment.uniform(sys)
    real_blocks = {
        i: np.diag(np.asarray(signs.signs_for(i), dtype=complex))
        for i in sys.real_cluster_indices()
    }
    pair_blocks = {
        upper: np.eye(sys.clusters[upper].multiplicity, dtype=complex)
        for upper, _ in sys.pair_groups()
    }
    eta, eta_inv = _assemble(sys, real_blocks, pair_blocks)
    return EtaOperator(matrix=eta, inverse=eta_inv, signs=signs, source=sys)


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

    real_map = {}
    for i, m in zip(real_idx, real_blocks):
        check_block(m, sys.clusters[i].multiplicity, hermitian=True)
        real_map[i] = m
    pair_map = {}
    for (upper, _), m in zip(pairs, pair_blocks):
        check_block(m, sys.clusters[upper].multiplicity, hermitian=False)
        pair_map[upper] = m
    eta, eta_inv = _assemble(sys, real_map, pair_map)
    return EtaOperator(matrix=eta, inverse=eta_inv, source=sys)


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
    """Antilinear map commuting with the decomposed matrix.

    Built as S = psi P phi^T with P the identity on real clusters and the
    columnwise swap across each conjugate pair, so that H S = S conj(H).
    """
    _pair_needs_system(sys)
    n = sys.dim
    p = np.zeros((n, n), dtype=complex)
    for i in sys.real_cluster_indices():
        c = sys.clusters[i]
        p[c.cols, c.cols] = np.eye(c.multiplicity)
    for upper, lower in sys.pair_groups():
        cu, cl = sys.clusters[upper], sys.clusters[lower]
        for a in range(cu.multiplicity):
            p[cu.start + a, cl.start + a] = 1.0
            p[cl.start + a, cu.start + a] = 1.0
    # unpaired complex clusters are excluded by the guard above
    s = sys.psi @ p @ sys.phi.T
    return AntilinearOperator(linear_part=s)


def hermitian_similarity(
    sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, np.ndarray, EtaOperator]:
    """(O, h, eta) with O H O^-1 = h real diagonal and eta = O^H O > 0.

    Only real-spectrum systems qualify; O = psi^-1 comes for free as phi^H.
    """
    if classify_spectrum(sys, tol).tag != TAG_ALL_REAL:
        raise RealSpectrumRequired("similarity to a Hermitian matrix needs a real spectrum")
    o = sys.phi.conj().T
    h = np.diag(sys.eigenvalues.real).astype(complex)
    eta = EtaOperator(
        matrix=sys.phi @ sys.phi.conj().T,
        inverse=sys.psi @ sys.psi.conj().T,
        source=sys,
    )
    return o, h, eta
