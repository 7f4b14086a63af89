"""Intertwining operators between isospectral systems and their canonical
factorization.

For matched eigenvalue clusters of two systems, L_n maps the n-th eigenvector
family of the first onto that of the second; L(alpha) = sum alpha_n L_n then
satisfies L H1 = H2 L for every coefficient choice. The canonical choice
(sqrt(|E|) on real clusters, E on the upper half of each conjugate pair, 1 on
the lower, with matched sign conventions in the metrics) upgrades the
intertwiner to a factorization H1 = L# L, H2 = L L#.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NotIsospectral, NotPseudoHermitian
from .linalg import (
    _EXACT_BELOW,
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    as_matrix,
    frobenius_norm,
    norm_lower_bound,
)
from .metric import EtaOperator, SignAssignment, canonical_eta, pseudo_adjoint
from .spectral import (
    KIND_REAL,
    KIND_UPPER,
    TAG_UNPAIRABLE,
    BiorthonormalSystem,
    classify_spectrum,
    reconstruct,
)

__all__ = [
    "MatchedCluster",
    "SpectralPairing",
    "Intertwiner",
    "Factorization",
    "match_spectra",
    "build_L",
    "canonical_factorization",
    "self_factorization",
    "verify_intertwining",
]


@dataclass(frozen=True)
class MatchedCluster:
    index1: int
    index2: int
    mu: int
    value: complex
    is_zero: bool


@dataclass(eq=False)
class SpectralPairing:
    """Cluster-level matching of two spectra within a shared tolerance.

    Nonzero clusters must match one-to-one with equal multiplicity; a zero
    cluster may be matched with truncated size mu = min(d1, d2) or left
    unmatched when only one side has one.
    """

    system1: BiorthonormalSystem
    system2: BiorthonormalSystem
    matches: tuple[MatchedCluster, ...]
    zero_unmatched1: int | None
    zero_unmatched2: int | None
    match_tol: float


@dataclass(eq=False)
class Intertwiner:
    matrix: np.ndarray
    alpha: tuple[complex, ...]
    pairing: SpectralPairing


@dataclass(eq=False)
class Factorization:
    """H1 = L# L and H2 = L L# with L# = eta1^-1 L^H eta2.

    `checks` holds the Frobenius residuals of both, `factorization_h1` and
    `factorization_h2`, against one threshold.
    """

    intertwiner: Intertwiner
    eta1: EtaOperator
    eta2: EtaOperator
    lsharp: np.ndarray
    checks: tuple[ResidualCheck, ...]

    @property
    def matrix(self) -> np.ndarray:
        return self.intertwiner.matrix


def _factorization_checks(
    h1: np.ndarray, h2: np.ndarray, l: np.ndarray, lsharp: np.ndarray, threshold: float
) -> tuple[ResidualCheck, ...]:
    """The checks of H1 = L# L and H2 = L L#, both against `threshold`."""
    return (
        ResidualCheck("factorization_h1", frobenius_norm(h1 - lsharp @ l), threshold),
        ResidualCheck("factorization_h2", frobenius_norm(h2 - l @ lsharp), threshold),
    )


def match_spectra(
    sys1: BiorthonormalSystem,
    sys2: BiorthonormalSystem,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> SpectralPairing:
    """Match clusters of two systems by nearest eigenvalue.

    Each nonzero cluster of the first system, in order, takes the nearest
    unused nonzero cluster of the second within the shared tolerance (the
    later one on a tie). Raises NotIsospectral when a nonzero cluster is
    unmatched or multiplicities of matched nonzero clusters differ. Zero
    clusters are exempt.
    """
    mtol = max(sys1.cluster_tol, sys2.cluster_tol)

    def zero_index(sys: BiorthonormalSystem) -> int | None:
        for i, c in enumerate(sys.clusters):
            if abs(c.value) <= mtol:
                return i
        return None

    zero1, zero2 = zero_index(sys1), zero_index(sys2)
    nonzero1 = [i for i in range(len(sys1.clusters)) if i != zero1]
    nonzero2 = [i for i in range(len(sys2.clusters)) if i != zero2]

    # |z - w| >= |Re z - Re w|, so every match within mtol lies in a window
    # over the sorted real parts; the doubled width absorbs the rounding of
    # the window's bounds, as in `spectral.cluster_eigenvalues`
    by_re = sorted(nonzero2, key=lambda j: sys2.clusters[j].value.real)
    re2 = [sys2.clusters[j].value.real for j in by_re]

    matches: list[MatchedCluster] = []
    used: set[int] = set()
    for i in nonzero1:
        c1 = sys1.clusters[i]
        best, best_dist = None, mtol
        start = bisect_left(re2, c1.value.real - 2.0 * mtol)
        stop = bisect_right(re2, c1.value.real + 2.0 * mtol)
        # ascending index, as in a scan over all clusters: ties keep the later
        for j in sorted(by_re[start:stop]):
            if j in used:
                continue
            dist = abs(c1.value - sys2.clusters[j].value)
            if dist <= best_dist:
                best, best_dist = j, dist
        if best is None:
            raise NotIsospectral(
                f"eigenvalue {c1.value:.6g} of the first system has no match"
            )
        c2 = sys2.clusters[best]
        if c1.multiplicity != c2.multiplicity:
            raise NotIsospectral(
                f"eigenvalue {c1.value:.6g}: multiplicities differ "
                f"({c1.multiplicity} vs {c2.multiplicity})"
            )
        if c1.kind != c2.kind:
            raise NotIsospectral(
                f"eigenvalue {c1.value:.6g}: cluster labels differ "
                f"({c1.kind} vs {c2.kind})"
            )
        used.add(best)
        matches.append(
            MatchedCluster(
                index1=i,
                index2=best,
                mu=c1.multiplicity,
                value=c1.value,
                is_zero=False,
            )
        )
    leftover = [j for j in nonzero2 if j not in used]
    if leftover:
        value = sys2.clusters[leftover[0]].value
        raise NotIsospectral(
            f"eigenvalue {value:.6g} of the second system has no match"
        )

    zero_unmatched1 = zero_unmatched2 = None
    if zero1 is not None and zero2 is not None:
        c1, c2 = sys1.clusters[zero1], sys2.clusters[zero2]
        matches.append(
            MatchedCluster(
                index1=zero1,
                index2=zero2,
                mu=min(c1.multiplicity, c2.multiplicity),
                value=0.0,
                is_zero=True,
            )
        )
    else:
        zero_unmatched1, zero_unmatched2 = zero1, zero2

    matches.sort(key=lambda m: m.index1)
    return SpectralPairing(
        system1=sys1,
        system2=sys2,
        matches=tuple(matches),
        zero_unmatched1=zero_unmatched1,
        zero_unmatched2=zero_unmatched2,
        match_tol=mtol,
    )


def build_L(pairing: SpectralPairing, alpha) -> Intertwiner:
    """L(alpha) = sum of alpha_n * Psi2_n Phi1_n^H over matched clusters.

    Within a degenerate matched cluster the eigenvectors pair by column order;
    only the first mu columns enter when the zero cluster sizes differ.
    """
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) != len(pairing.matches):
        raise ValueError(
            f"expected {len(pairing.matches)} coefficients, got {len(alpha)}"
        )
    sys1, sys2 = pairing.system1, pairing.system2
    cols1: list[int] = []
    cols2: list[int] = []
    coef: list[complex] = []
    for a, m in zip(alpha, pairing.matches):
        if a == 0:
            continue
        start1 = sys1.clusters[m.index1].start
        start2 = sys2.clusters[m.index2].start
        cols1.extend(range(start1, start1 + m.mu))
        cols2.extend(range(start2, start2 + m.mu))
        coef.extend([a] * m.mu)
    # one GEMM over all matched columns instead of a rank-mu update per cluster
    psi2 = sys2.psi[:, cols2] * np.array(coef, dtype=complex)
    l = psi2 @ sys1.phi[:, cols1].conj().T
    return Intertwiner(matrix=l, alpha=alpha, pairing=pairing)


def _canonical_alpha(pairing: SpectralPairing) -> tuple[complex, ...]:
    sys1 = pairing.system1
    alpha: list[complex] = []
    for m in pairing.matches:
        kind = sys1.clusters[m.index1].kind
        if m.is_zero:
            alpha.append(0.0)
        elif kind == KIND_REAL:
            alpha.append(complex(np.sqrt(abs(m.value))))
        elif kind == KIND_UPPER:
            alpha.append(complex(m.value))
        else:
            alpha.append(1.0)
    return tuple(alpha)


def _canonical_signs(sys: BiorthonormalSystem, negative_flip: bool) -> SignAssignment:
    per = []
    for i in sys.real_cluster_indices():
        c = sys.clusters[i]
        negative = negative_flip and not sys.is_zero_cluster(i) and c.value.real < 0
        sign = -1 if negative else 1
        per.append((i, (sign,) * c.multiplicity))
    return SignAssignment(tuple(per))


def _cond_lower_bound(sys: BiorthonormalSystem) -> float:
    """`norm_lower_bound`(psi) * `norm_lower_bound`(phi), at most
    cond(psi) = ||psi||_2 ||psi^-1||_2 since phi = (psi^-1)^H.

    Below _EXACT_BELOW both bounds are exact, so this is the exact
    `psi_cond`, which `decompose` already holds at those sizes.
    """
    if sys.dim < _EXACT_BELOW:
        return sys.psi_cond
    return norm_lower_bound(sys.psi) * norm_lower_bound(sys.phi)


def canonical_factorization(
    sys1: BiorthonormalSystem,
    sys2: BiorthonormalSystem,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Factorization:
    """Factor a matched pair: H1 = L# L, H2 = L L#.

    Sign convention: -1 on negative real clusters of the first system, +1
    everywhere else; coefficients sqrt(|E|) / E / 1 on real / upper / lower
    clusters and 0 on the zero cluster. The residuals' threshold is
    rtol * (1 + max ||H||) * cond(psi1) * cond(psi2), each condition number
    taken as the lower bound `_cond_lower_bound`, so it is never looser than
    with exact ones.
    """
    for sys in (sys1, sys2):
        if classify_spectrum(sys, tol).tag == TAG_UNPAIRABLE:
            raise NotPseudoHermitian(
                "factorization needs a real-or-conjugate-paired spectrum"
            )
    pairing = match_spectra(sys1, sys2, tol)
    alpha = _canonical_alpha(pairing)
    eta1 = canonical_eta(sys1, _canonical_signs(sys1, negative_flip=True))
    eta2 = canonical_eta(sys2, _canonical_signs(sys2, negative_flip=False))
    intertwiner = build_L(pairing, alpha)
    lsharp = pseudo_adjoint(intertwiner.matrix, eta1, eta2)

    cond1 = _cond_lower_bound(sys1)
    cond2 = cond1 if sys2 is sys1 else _cond_lower_bound(sys2)
    threshold = tol.rtol * (1.0 + max(sys1.scale, sys2.scale)) * cond1 * cond2
    return Factorization(
        intertwiner=intertwiner,
        eta1=eta1,
        eta2=eta2,
        lsharp=lsharp,
        checks=_factorization_checks(
            reconstruct(sys1), reconstruct(sys2), intertwiner.matrix, lsharp, threshold
        ),
    )


def self_factorization(
    sys: BiorthonormalSystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> Factorization:
    """Factor a single matrix against itself: H = L# L."""
    return canonical_factorization(sys, sys, tol)


def verify_intertwining(
    l, h1, h2, tol: Tolerance = DEFAULT_TOLERANCE
) -> ResidualCheck:
    """Residual ||L H1 - H2 L||_F against
    rtol * (1 + max(||H1||, ||H2||)) * (1 + ||L||), each norm a
    `norm_lower_bound`."""
    l = as_matrix(l)
    h1 = as_matrix(h1, square=True)
    h2 = as_matrix(h2, square=True)
    if l.shape != (h2.shape[0], h1.shape[0]):
        raise ValueError("intertwiner shape does not link the two matrices")
    value = frobenius_norm(l @ h1 - h2 @ l)
    scale = max(norm_lower_bound(h1), norm_lower_bound(h2))
    threshold = tol.rtol * (1.0 + scale) * (1.0 + norm_lower_bound(l))
    return ResidualCheck("intertwining", value, threshold)
