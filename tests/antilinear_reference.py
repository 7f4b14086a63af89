"""Reference antilinear symmetry: the dense-permutation implementation
`metric.antilinear_symmetry` used before it permuted the columns of psi
directly, kept verbatim except for the unpairable-spectrum guard.

Tests compare the library's linear part against it exactly.
"""

from __future__ import annotations

import numpy as np

from pseudoherm.metric import AntilinearOperator
from pseudoherm.spectral import BiorthonormalSystem


def antilinear_symmetry(sys: BiorthonormalSystem) -> AntilinearOperator:
    """Antilinear map commuting with the decomposed matrix.

    Built as S = psi P phi^T with P the identity on real clusters and the
    columnwise swap across each conjugate pair, so that H S = S conj(H).
    """
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
    s = sys.psi @ p @ sys.phi.T
    return AntilinearOperator(linear_part=s)
