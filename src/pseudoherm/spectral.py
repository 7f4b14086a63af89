"""Complete biorthonormal eigensystems with real/conjugate-pair labeling.

A diagonalizable matrix H is represented by paired eigenvector families: the
columns of `psi` are right eigenvectors, the columns of `phi` the dual family
with phi^H psi = I and psi phi^H = I. Eigenvalues are grouped into clusters
(numerically coincident values form one degenerate cluster) and labeled Real,
PairUpper (positive imaginary part) or PairLower, with conjugate partners
linked when they exist with equal multiplicity.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonDiagonalizable
from .linalg import (
    _EPS,
    _EXACT_BELOW,
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    _identity_residual,
    _store_read_only,
    as_matrix,
    certified_inverse,
    cond,
    eig,
    frobenius_norm,
    norm_lower_bound,
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
    "ClusterWidth",
    "BiorthonormalSystem",
    "SpectrumClass",
    "cluster_eigenvalues",
    "decompose",
    "classify_spectrum",
    "verify_biorthonormality",
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


@dataclass(frozen=True, eq=False)
class ClusterWidth:
    """The clustering width w(s) = tol.cluster_tol(s) at s = ||h||_2, for a
    matrix `h` whose 2-norm is known to lie in [lo, hi].

    `low` and `high` are w(lo) and w(hi). `scale`, the exact ||h||_2 (one
    SVD unless lo == hi), and `value`, w(scale), are formed on first access;
    a decision q <= w needs them only when q lies in [low, high] (`_within`).
    """

    h: np.ndarray
    tol: Tolerance
    lo: float
    hi: float

    @cached_property
    def low(self) -> float:
        return self.tol.cluster_tol(self.lo)

    @cached_property
    def high(self) -> float:
        return self.tol.cluster_tol(self.hi)

    @cached_property
    def scale(self) -> float:
        return self.lo if self.lo == self.hi else spectral_norm(self.h)

    @cached_property
    def value(self) -> float:
        return self.tol.cluster_tol(self.scale)


def _within(q: float, *widths: ClusterWidth) -> bool:
    """q <= the largest exact width of `widths`, deciding from the brackets
    first: w is nondecreasing, so q <= w(lo) settles it for one width and
    q > w(hi) rules one out. Only a width whose band [w(lo), w(hi)] holds q
    forms its exact norm. Loops, not generators: it runs once per compared
    quantity."""
    for w in widths:
        if q <= w.low:
            return True
    for w in widths:
        if q <= w.high and q <= w.value:
            return True
    return False


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Eigenvalue clusters of the matrix `h` plus the paired eigenvector
    matrices psi and phi, all three held as read-only views.

    `width` carries the bracket lo <= ||h||_2 <= hi the clusters were
    formed with. `scale` (the exact 2-norm of `h`), `cluster_tol` (the
    exact clustering width) and `psi_cond` (the exact cond(psi)) are
    computed on first access.
    """

    h: np.ndarray
    clusters: tuple[EigenCluster, ...]
    psi: np.ndarray
    phi: np.ndarray
    width: ClusterWidth

    def __post_init__(self) -> None:
        _store_read_only(self, h=self.h, psi=self.psi, phi=self.phi)

    @cached_property
    def psi_cond(self) -> float:
        return cond(self.psi)

    @property
    def scale(self) -> float:
        return self.width.scale

    @property
    def cluster_tol(self) -> float:
        return self.width.value

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

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
        return _within(abs(self.clusters[index].value), self.width)


@dataclass(frozen=True)
class SpectrumClass:
    tag: str


def _near_pairs(values: np.ndarray, ctol: float) -> Iterator[tuple[int, int]]:
    """Index pairs whose real parts lie within 2*ctol of each other.

    |z - w| >= |Re z - Re w|, so these include every pair within ctol; the
    doubled window absorbs the rounding of its bound Re z + 2*ctol.
    """
    by_re = np.argsort(values.real, kind="stable")
    re = values.real[by_re]
    stops = np.searchsorted(re, re + 2.0 * ctol, side="right").tolist()
    by_re = by_re.tolist()
    for a, stop in enumerate(stops):
        for b in range(a + 1, stop):
            yield by_re[a], by_re[b]


def cluster_eigenvalues(
    values: np.ndarray, ctol: float | ClusterWidth
) -> tuple[tuple[EigenCluster, ...], list[int]]:
    """Cluster `values` within `ctol` (transitively) and lay them out as columns.

    `ctol` is a width, or a `ClusterWidth`, whose every comparison q <= ctol
    `_within` decides: the outcomes are those of the exact width, and the
    exact norm is formed only when a compared quantity falls in its band.

    A cluster's value is the mean of its members. Conjugate partners link
    only at equal multiplicity: each PairUpper, in order of its first member,
    takes the nearest free PairLower within ctol (the later one on a tie).
    Every merge and link compares a scalar complex `abs` with ctol (numpy's
    vectorised `abs` can differ in the last bit and flip a tie). Order is
    deterministic: ascending real part, but a run of units (clusters, linked
    pairs) whose real parts agree within ctol, chained, goes by ascending
    |imaginary|, so rounding cannot put a pair before a Real cluster of the
    same real part; a linked PairLower sits right after its PairUpper.
    `order` is the permutation such that values[order] runs through the
    clusters one by one, so eigenvector columns reordered the same way line
    up with each cluster's `cols`.
    """
    bracketed = isinstance(ctol, ClusterWidth)
    reach = ctol.high if bracketed else ctol  # the widest the width can be

    def covers(q: float) -> bool:
        return _within(q, ctol) if bracketed else q <= ctol

    values = np.asarray(values, dtype=complex)
    z = values.tolist()
    parent = list(range(len(z)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _near_pairs(values, reach):
        if covers(abs(z[i] - z[j])):
            parent[find(i)] = find(j)
    by_root: dict[int, list[int]] = {}
    for i in range(len(z)):
        by_root.setdefault(find(i), []).append(i)
    members = list(by_root.values())  # ascending indices, by first member
    means = [complex(values[m].mean()) for m in members]
    kinds = [
        KIND_REAL if covers(abs(v.imag)) else KIND_UPPER if v.imag > 0 else KIND_LOWER
        for v in means
    ]

    candidates: dict[int, list[int]] = {}
    for up, low in _near_pairs(np.array(means), reach):
        if kinds[low] == KIND_UPPER:
            up, low = low, up
        same_size = len(members[up]) == len(members[low])
        if (kinds[up], kinds[low]) == (KIND_UPPER, KIND_LOWER) and same_size:
            candidates.setdefault(up, []).append(low)
    partner: list[int | None] = [None] * len(members)
    for up in sorted(candidates):
        best, best_dist = None, math.inf
        for low in sorted(candidates[up]):
            dist = abs(means[up].conjugate() - means[low])
            if partner[low] is None and dist <= best_dist and covers(dist):
                best, best_dist = low, dist
        if best is not None:
            partner[up], partner[best] = best, up

    units = []  # sort key, then the unit's first cluster as the tie-break
    for g, v in enumerate(means):
        if kinds[g] == KIND_REAL:
            units.append((v.real, 0.0, 0.0, g))
        elif partner[g] is None:
            units.append((v.real, abs(v.imag), -v.imag, g))
        elif kinds[g] == KIND_UPPER:
            units.append((v.real, v.imag, 0.0, g))
    units.sort()
    # a run of real parts, each within ctol of the last, goes by |imaginary|
    cuts = [k for k in range(1, len(units)) if not covers(units[k][0] - units[k - 1][0])]
    for a, b in zip([0] + cuts, cuts + [len(units)]):
        if b - a > 1:
            units[a:b] = sorted(units[a:b], key=lambda u: (u[1], u[2], u[0], u[3]))
    clusters: list[EigenCluster] = []
    order: list[int] = []
    for *_, g in units:
        unit = (g,) if partner[g] is None else (g, partner[g])
        for k in unit:
            link = None if partner[k] is None else len(clusters) + (1 if k == g else -1)
            clusters.append(
                EigenCluster(means[k], len(members[k]), kinds[k], len(order), link)
            )
            order += members[k]
    return tuple(clusters), order


def _column_sq(m: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each column of m."""
    return np.sum(m.real**2 + m.imag**2, axis=0)


def _eigenvectors_certified(
    h: np.ndarray,
    psi: np.ndarray,
    degenerate: list[EigenCluster],
    lo: float,
    hi: float,
    atols: np.ndarray,
    tol: Tolerance,
) -> np.ndarray:
    """Per cluster of `degenerate`, True when its columns V of psi prove
    n - rank(h - value*I, shifted) >= multiplicity, where `shifted` is `tol`
    with atol widened to at least the cluster's entry of `atols`.

    lo <= ||H||_2 <= hi. With R = H V - value V, Courant-Fischer bounds mu
    singular values of H - value I by ||R||_F / sigma_min(V). rank's cutoff
    is at least c_low = shifted.svd_cutoff((n, n), lo - |value|), as
    sigma_max(H - value I) >= ||H|| - |value|; the rounding terms take hi.
    The bound is taken with the rounding of R and sigma_min(V) added, so
    nearly parallel columns cannot certify on noise; together with the
    SVD's own rounding (n eps ||H - value I||) it must stay within c_low / 2,
    and the other half absorbs the rounding of the cutoff itself.

    One product H B - B diag(values) covers the columns B of every cluster,
    and each cluster's Frobenius norms are sums over its column range.
    sigma_min(V)^2 is the smallest eigenvalue of the Gram matrix V^H V, from
    one stacked `eigvalsh` per multiplicity; forming V^H V and its
    eigenvalues moves them by at most 2 (n + mu + 2) eps ||V||_F^2 (a
    complex inner product of length n, and eigvalsh's backward error), which
    is subtracted before the square root.
    """
    if not degenerate:
        return np.zeros(0, dtype=bool)
    n = h.shape[0]
    mults = np.array([c.multiplicity for c in degenerate])
    values = np.array([c.value for c in degenerate])
    starts = np.cumsum(mults) - mults
    block = psi[:, np.concatenate([np.arange(c.start, c.stop) for c in degenerate])]
    residual = h @ block - block * np.repeat(values, mults)
    resid = np.sqrt(np.add.reduceat(_column_sq(residual), starts))
    vnorm = np.sqrt(np.add.reduceat(_column_sq(block), starts))
    gram_min = np.empty(len(degenerate))
    for mu in np.unique(mults):
        which = np.flatnonzero(mults == mu)
        stacked = block[:, starts[which, None] + np.arange(mu)].transpose(1, 0, 2)
        gram = stacked.conj().transpose(0, 2, 1) @ stacked
        gram_min[which] = np.linalg.eigvalsh(gram)[:, 0]
    smin = np.sqrt(np.maximum(gram_min - 2.0 * (n + mults + 2) * _EPS * vnorm**2, 0.0))
    size = np.abs(values)
    resid += n * _EPS * (np.sqrt(n) * hi + size) * vnorm
    svd_rounding = n * _EPS * (hi + size)
    c_low = np.maximum(atols, n * tol.rtol * np.maximum(lo - size, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):  # smin = 0 fails below
        bound = resid / smin + svd_rounding
    return (smin > 0.0) & (bound <= 0.5 * c_low)


def _norm_bracket(
    h: np.ndarray, values: np.ndarray, vectors: np.ndarray
) -> tuple[float, float]:
    """lo <= ||h||_2 <= hi for ||h||_2 as an SVD computes it.

    lo is the larger of `norm_lower_bound(h)` and ||h v|| / ||v|| for the
    eigenvector v of the largest |lambda| (which is about |lambda|, but free
    of eig's backward error, which balancing can scale beyond ||h||); hi is
    ||h||_F (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 6). Each end moves out by (n + 2)^2 eps ||h||_F, which covers the
    rounding of the products h x and of ||h||_F, and the SVD's own
    n eps ||h||. Both ends are the exact norm below _EXACT_BELOW, where one
    SVD is cheaper than the bounds, or when an end is not finite.
    """
    n = h.shape[0]
    if n >= _EXACT_BELOW:
        fro = frobenius_norm(h)
        v = vectors[:, np.argmax(np.abs(values))]
        slack = (n + 2) ** 2 * _EPS * fro
        lo = max(norm_lower_bound(h), frobenius_norm(h @ v) / frobenius_norm(v)) - slack
        hi = fro + slack
        if math.isfinite(lo) and math.isfinite(hi):
            return max(lo, 0.0), hi
    exact = spectral_norm(h)
    return exact, exact


def _cond_checked_inverse(psi: np.ndarray, tol: Tolerance) -> np.ndarray:
    """psi^-1, once cond(psi) <= tol.cond_max is shown; else NonDiagonalizable.

    cond(psi) = s_max / s_min <= cond_max holds when s_min exceeds
    s_max / cond_max, so `certified_inverse` decides it with that cutoff; its
    halved margin covers the rounding of s_max and of the division. When the
    certificate cannot decide, the exact `cond` does, and its value is the
    one the error reports.
    """
    inverse = certified_inverse(psi, lambda smax: smax / tol.cond_max)
    if inverse is not None:
        return inverse
    psi_cond = cond(psi)
    if not np.isfinite(psi_cond) or psi_cond > tol.cond_max:
        raise NonDiagonalizable(
            f"eigenvector condition number {psi_cond:.3e} exceeds {tol.cond_max:.3e}"
        )
    return np.linalg.inv(psi)


def decompose(h, tol: Tolerance = DEFAULT_TOLERANCE) -> BiorthonormalSystem:
    """Build the biorthonormal eigensystem of a diagonalizable matrix.

    Eigenvalues closer than max(atol, rtol*||H||) merge into one degenerate
    cluster. phi is derived as (psi^-1)^H so both completeness relations hold
    by construction.

    ||H|| is the exact 2-norm in every outcome, but takes no SVD unless it
    must: `_norm_bracket` bounds it between lo and hi from the eigenvector
    of the largest |lambda|, a power iteration and ||H||_F, and each
    comparison with the width (merges, kinds, partner links, the column
    order's runs) is decided by w(lo) and w(hi) unless the compared
    quantity lies between them, where the exact norm (one SVD, formed once,
    held by the system's `width`) decides. The eigenvector certificate
    below takes lo for its cutoff and hi for its rounding terms.

    Raises NonDiagonalizable when cond(psi) exceeds tol.cond_max or a
    degenerate cluster has too few independent eigenvectors. The inverse that
    gives phi also certifies cond(psi) <= cond_max (`certified_inverse`);
    only when that bound cannot decide does an SVD compute cond(psi). A
    cluster of value lambda and multiplicity mu has enough eigenvectors when
    n - rank(H - lambda I) >= mu under a cutoff widened to the cluster's
    spread. That rank needs an n x n SVD, so each cluster first tries a
    certificate from its own mu eigenvector columns V: Courant-Fischer bounds
    the mu-th smallest singular value of H - lambda I by
    ||H V - lambda V||_F / sigma_min(V). When the bound, with its rounding,
    is at most half the lowest value the rank cutoff can take, the SVD could
    only agree and is skipped. Otherwise (nearly parallel columns, near-Jordan
    blocks) the SVD decides as before. The certificates of all clusters are
    taken together (`_eigenvectors_certified`), with sigma_min(V) from Gram
    matrices instead of one SVD per cluster.
    """
    h = as_matrix(h, square=True)
    values, vectors = eig(h)
    width = ClusterWidth(h, tol, *_norm_bracket(h, values, vectors))

    clusters, order = cluster_eigenvalues(values, width)
    psi = vectors[:, order]
    inverse = _cond_checked_inverse(psi, tol)
    n = h.shape[0]
    degenerate = [c for c in clusters if c.multiplicity > 1]
    # clusters may span up to multiplicity * ctol after transitive merging;
    # the certificate takes the lowest ctol can be, the rank fallback the exact one
    mults = np.array([c.multiplicity for c in degenerate])
    atols = np.maximum(tol.atol, 2.0 * mults * width.low)
    certified = _eigenvectors_certified(h, psi, degenerate, width.lo, width.hi, atols, tol)
    for c, ok in zip(degenerate, certified):
        if ok:
            continue
        # n - rank is the dimension of the numerical kernel
        atol = max(tol.atol, 2.0 * c.multiplicity * width.value)
        geometric = n - rank(h - c.value * np.eye(n), dataclasses.replace(tol, atol=atol))
        if geometric < c.multiplicity:
            raise NonDiagonalizable(
                f"eigenvalue {c.value:.6g}: geometric multiplicity {geometric} "
                f"below algebraic multiplicity {c.multiplicity}"
            )

    return BiorthonormalSystem(
        h=h,
        clusters=clusters,
        psi=psi,
        phi=inverse.conj().T,
        width=width,
    )


def classify_spectrum(sys: BiorthonormalSystem) -> SpectrumClass:
    """Classify a spectrum as AllReal, ConjugatePaired, Mixed, or Unpairable.

    Labels were fixed when the system was built; a complex cluster without a
    linked equal-multiplicity partner makes the system Unpairable.
    """
    complex_clusters = [c for c in sys.clusters if c.kind != KIND_REAL]
    if any(c.partner is None for c in complex_clusters):
        return SpectrumClass(TAG_UNPAIRABLE)
    if not complex_clusters:
        return SpectrumClass(TAG_ALL_REAL)
    if len(complex_clusters) == len(sys.clusters):
        return SpectrumClass(TAG_CONJUGATE_PAIRED)
    return SpectrumClass(TAG_MIXED)


def verify_biorthonormality(
    sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[ResidualCheck, ...]:
    """Frobenius residuals of phi^H psi = I (`biorthonormality_left`) and
    psi phi^H = I (`biorthonormality_right`) against rtol * dim, each
    formed in place in its product (no n x n identity)."""
    left = _identity_residual(sys.phi.conj().T @ sys.psi)
    right = _identity_residual(sys.psi @ sys.phi.conj().T)
    threshold = tol.rtol * sys.dim
    return (
        ResidualCheck("biorthonormality_left", left, threshold),
        ResidualCheck("biorthonormality_right", right, threshold),
    )
