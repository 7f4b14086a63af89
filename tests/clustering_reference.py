"""Reference clustering: the pair-loop implementation `decompose` used before
`spectral.cluster_eigenvalues` returned clusters directly, kept verbatim but
for the order of units whose real parts agree within the cluster tolerance.

Tests compare the library's clusters and column order against it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pseudoherm.spectral import KIND_LOWER, KIND_REAL, KIND_UPPER, EigenCluster


@dataclass
class _Group:
    value: complex
    members: list[int]
    kind: str
    partner_id: int | None = None  # transient id link, resolved after ordering


def cluster_eigenvalues(values: np.ndarray, ctol: float) -> list[_Group]:
    """Group eigenvalues within `ctol` (transitively) and order the groups.

    Order is deterministic: ascending real part, except that units whose
    real parts agree within ctol (chained) are ordered by ascending
    |imaginary|, then real part; a PairLower group is placed immediately
    after its linked PairUpper.
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
    # by real part; a run of units whose real parts agree within ctol
    # (chained) then by the rest of the key, then by real part
    units.sort(key=lambda u: u[0][0])
    start = 0
    for k in range(1, len(units) + 1):
        if k == len(units) or units[k][0][0] - units[k - 1][0][0] > ctol:
            run = sorted(units[start:k], key=lambda u: (u[0][1:], u[0][0]))
            for _, seq in run:
                ordered.extend(seq)
            start = k
    return ordered


def build_clusters(
    values: np.ndarray, ctol: float
) -> tuple[tuple[EigenCluster, ...], list[int]]:
    """Cluster `values` within `ctol` and lay the clusters out as columns.

    Returns the clusters in deterministic order (see `cluster_eigenvalues`)
    and the permutation `order` such that values[order] runs through them
    cluster by cluster; eigenvector columns reordered the same way line up
    with each cluster's `cols`.
    """
    ordered = cluster_eigenvalues(values, ctol)
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
    order = [i for g in ordered for i in g.members]
    return tuple(clusters), order
