"""Complete biorthonormal eigensystems with real/conjugate-pair labeling.

A diagonalizable matrix H is represented by paired eigenvector families: the
columns of `psi` are right eigenvectors, the columns of `phi` the dual family
with phi^H psi = I and psi phi^H = I. Eigenvalues are grouped into clusters
(numerically coincident values form one degenerate cluster) and labeled Real,
PairUpper (positive imaginary part) or PairLower, with conjugate partners
linked when they exist with equal multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonDiagonalizable
from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    as_matrix,
    cond,
    eig,
    rank,
    spectral_norm,
)

__all__ = [
    "KIND_REAL",
    "KIND_UPPER",
    "KIND_LOWER",
    "TAG_ALL_REAL",
    "TAG_CONJUGATE_PAIRED",
    "TAG_MIXED",
    "TAG_UNPAIRABLE",
    "EigenCluster",
    "BiorthonormalSystem",
    "SpectrumClass",
    "BiorthonormalityReport",
    "cluster_eigenvalues",
    "decompose",
    "classify_spectrum",
    "verify_biorthonormality",
    "reconstruct",
]

KIND_REAL = "Real"
KIND_UPPER = "PairUpper"
KIND_LOWER = "PairLower"

TAG_ALL_REAL = "AllReal"
TAG_CONJUGATE_PAIRED = "ConjugatePaired"
TAG_MIXED = "Mixed"
TAG_UNPAIRABLE = "Unpairable"


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue cluster: representative value, size, and pair label."""

    value: complex
    multiplicity: int
    kind: str
    start: int
    partner: int | None = None

    @property
    def stop(self) -> int:
        return self.start + self.multiplicity

    @property
    def cols(self) -> slice:
        return slice(self.start, self.stop)


@dataclass(eq=False)
class BiorthonormalSystem:
    """Eigenvalue clusters plus the paired eigenvector matrices psi and phi."""

    clusters: tuple[EigenCluster, ...]
    psi: np.ndarray
    phi: np.ndarray
    dim: int
    scale: float
    cluster_tol: float

    @cached_property
    def psi_cond(self) -> float:
        return cond(self.psi)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Cluster values expanded to one entry per column."""
        return np.concatenate(
            [np.full(c.multiplicity, c.value) for c in self.clusters]
        )

    def psi_block(self, index: int) -> np.ndarray:
        return self.psi[:, self.clusters[index].cols]

    def phi_block(self, index: int) -> np.ndarray:
        return self.phi[:, self.clusters[index].cols]

    def projector(self, index: int) -> np.ndarray:
        """Spectral projector of cluster `index`: Psi_n Phi_n^H."""
        return self.psi_block(index) @ self.phi_block(index).conj().T

    def real_cluster_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.clusters) if c.kind == KIND_REAL)

    def pair_groups(self) -> tuple[tuple[int, int], ...]:
        """(upper, lower) index pairs for linked conjugate clusters."""
        return tuple(
            (i, c.partner)
            for i, c in enumerate(self.clusters)
            if c.kind == KIND_UPPER and c.partner is not None
        )

    def is_zero_cluster(self, index: int) -> bool:
        return abs(self.clusters[index].value) <= self.cluster_tol


@dataclass(frozen=True)
class SpectrumClass:
    tag: str
    detail: tuple[str, ...]


@dataclass(frozen=True)
class BiorthonormalityReport:
    """Residuals of phi^H psi = I and psi phi^H = I."""

    left_residual: float
    right_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return max(self.left_residual, self.right_residual) <= self.threshold


@dataclass
class _Group:
    value: complex
    members: list[int]
    kind: str
    partner_id: int | None = None  # transient id link, resolved after ordering


def cluster_eigenvalues(values: np.ndarray, ctol: float) -> list[_Group]:
    """Group eigenvalues within `ctol` (transitively) and order the groups.

    Order is deterministic: ascending real part, then ascending |imaginary|;
    a PairLower group is placed immediately after its linked PairUpper.
    """
    values = np.asarray(values, dtype=complex)
    n = values.size
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= ctol:
                parent[find(i)] = find(j)

    by_root: dict[int, list[int]] = {}
    for i in range(n):
        by_root.setdefault(find(i), []).append(i)

    groups: list[_Group] = []
    for members in by_root.values():
        members.sort()
        value = complex(np.mean(values[members]))
        if abs(value.imag) <= ctol:
            kind = KIND_REAL
        elif value.imag > 0:
            kind = KIND_UPPER
        else:
            kind = KIND_LOWER
        groups.append(_Group(value=value, members=members, kind=kind))

    # conjugate-partner linking: equal multiplicity required
    uppers = [g for g in groups if g.kind == KIND_UPPER]
    lowers = [g for g in groups if g.kind == KIND_LOWER]
    taken: set[int] = set()
    for g in uppers:
        best, best_dist = None, ctol
        for k, h in enumerate(lowers):
            if k in taken or len(h.members) != len(g.members):
                continue
            dist = abs(np.conj(g.value) - h.value)
            if dist <= best_dist:
                best, best_dist = k, dist
        if best is not None:
            taken.add(best)
            g.partner_id = id(lowers[best])
            lowers[best].partner_id = id(g)

    by_id = {id(g): g for g in groups}
    ordered: list[_Group] = []
    placed: set[int] = set()
    units: list[tuple[tuple[float, float, float], list[_Group]]] = []
    for g in groups:
        if id(g) in placed:
            continue
        if g.kind == KIND_REAL:
            units.append(((g.value.real, 0.0, 0.0), [g]))
            placed.add(id(g))
        elif g.kind == KIND_UPPER and g.partner_id is not None:
            low = by_id[g.partner_id]
            units.append(((g.value.real, g.value.imag, 0.0), [g, low]))
            placed.update((id(g), id(low)))
        elif g.kind == KIND_LOWER and g.partner_id is not None:
            continue  # placed with its upper
        else:
            units.append(
                ((g.value.real, abs(g.value.imag), -g.value.imag), [g])
            )
            placed.add(id(g))
    units.sort(key=lambda u: u[0])
    for _, seq in units:
        ordered.extend(seq)
    return ordered


def _build_clusters(ordered: list[_Group]) -> tuple[EigenCluster, ...]:
    position = {id(g): i for i, g in enumerate(ordered)}
    clusters = []
    start = 0
    for g in ordered:
        partner = position[g.partner_id] if g.partner_id is not None else None
        clusters.append(
            EigenCluster(
                value=g.value,
                multiplicity=len(g.members),
                kind=g.kind,
                start=start,
                partner=partner,
            )
        )
        start += len(g.members)
    return tuple(clusters)


def decompose(h, tol: Tolerance = DEFAULT_TOLERANCE) -> BiorthonormalSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    Eigenvalues closer than max(atol, rtol*||H||) merge into one degenerate
    cluster. phi is derived as (psi^-1)^H so both completeness relations hold
    by construction.

    Raises NonDiagonalizable when cond(psi) exceeds tol.cond_max or a
    degenerate cluster has too few independent eigenvectors.
    """
    h = as_matrix(h, square=True)
    values, vectors = eig(h)
    scale = spectral_norm(h)
    ctol = tol.cluster_tol(scale)

    ordered = cluster_eigenvalues(values, ctol)
    order = [i for g in ordered for i in g.members]
    psi = vectors[:, order]

    psi_cond = cond(psi)
    if not np.isfinite(psi_cond) or psi_cond > tol.cond_max:
        raise NonDiagonalizable(
            f"eigenvector condition number {psi_cond:.3e} exceeds {tol.cond_max:.3e}"
        )
    n = h.shape[0]
    for g in ordered:
        mult = len(g.members)
        if mult < 2:
            continue
        # clusters may span up to mult*ctol after transitive merging
        shifted_tol = Tolerance(
            rtol=tol.rtol,
            atol=max(tol.atol, 2.0 * mult * ctol),
            cond_max=tol.cond_max,
        )
        # rank shares kernel_basis's cutoff, so n - rank is the kernel dimension
        geometric = n - rank(h - g.value * np.eye(n), shifted_tol)
        if geometric < mult:
            raise NonDiagonalizable(
                f"eigenvalue {g.value:.6g}: geometric multiplicity {geometric} "
                f"below algebraic multiplicity {mult}"
            )

    phi = np.linalg.inv(psi).conj().T
    system = BiorthonormalSystem(
        clusters=_build_clusters(ordered),
        psi=psi,
        phi=phi,
        dim=n,
        scale=scale,
        cluster_tol=ctol,
    )
    system.psi_cond = psi_cond  # seeds the cached property with the value above
    return system


def classify_spectrum(
    sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> SpectrumClass:
    """Classify a spectrum as AllReal, ConjugatePaired, Mixed, or Unpairable.

    Labels were fixed when the system was built; a complex cluster without a
    linked equal-multiplicity partner makes the system Unpairable.
    """
    detail = tuple(c.kind for c in sys.clusters)
    complex_clusters = [c for c in sys.clusters if c.kind != KIND_REAL]
    if any(c.partner is None for c in complex_clusters):
        return SpectrumClass(TAG_UNPAIRABLE, detail)
    if not complex_clusters:
        return SpectrumClass(TAG_ALL_REAL, detail)
    if len(complex_clusters) == len(sys.clusters):
        return SpectrumClass(TAG_CONJUGATE_PAIRED, detail)
    return SpectrumClass(TAG_MIXED, detail)


def verify_biorthonormality(
    sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> BiorthonormalityReport:
    eye = np.eye(sys.dim)
    left = spectral_norm(sys.phi.conj().T @ sys.psi - eye)
    right = spectral_norm(sys.psi @ sys.phi.conj().T - eye)
    return BiorthonormalityReport(
        left_residual=left,
        right_residual=right,
        threshold=tol.rtol * sys.dim,
    )


def reconstruct(sys: BiorthonormalSystem) -> np.ndarray:
    """Sum of value * projector over all clusters; inverts `decompose`."""
    return (sys.psi * sys.eigenvalues) @ sys.phi.conj().T
