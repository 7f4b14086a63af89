"""Reference matcher: the all-pairs `match_spectra` that `intertwine` used
before it took candidates from a window over sorted real parts, kept
verbatim but for the unmatched zero clusters and the shared tolerance, which
`SpectralPairing` no longer holds.

Tests compare the library's pairings against it exactly.
"""

from __future__ import annotations

from pseudoherm.errors import NotIsospectral
from pseudoherm.intertwine import MatchedCluster, SpectralPairing
from pseudoherm.linalg import DEFAULT_TOLERANCE, Tolerance
from pseudoherm.spectral import BiorthonormalSystem


def match_spectra(
    sys1: BiorthonormalSystem,
    sys2: BiorthonormalSystem,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> SpectralPairing:
    """Match clusters of two systems by nearest eigenvalue.

    Raises NotIsospectral when a nonzero cluster is unmatched or multiplicities
    of matched nonzero clusters differ. Zero clusters are exempt.
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

    matches: list[MatchedCluster] = []
    used: set[int] = set()
    for i in nonzero1:
        c1 = sys1.clusters[i]
        best, best_dist = None, mtol
        for j in nonzero2:
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

    matches.sort(key=lambda m: m.index1)
    return SpectralPairing(system1=sys1, system2=sys2, matches=tuple(matches))

