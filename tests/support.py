"""Shared builders for randomized tests: controlled spectra, conditioned
similarity transforms, engineered-rank maps and random metrics."""

from __future__ import annotations

import numpy as np

from pseudoherm.intertwine import canonical_factorization, verify_intertwining
from pseudoherm.linalg import DEFAULT_TOLERANCE, Tolerance, singular_system
from pseudoherm.metric import EtaOperator, verify_pseudo_hermiticity
from pseudoherm.spectral import decompose
from pseudoherm.susy import from_factorization, verify_algebra, witten_index


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kernel_basis(m: np.ndarray, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """The SVD reference for a numerical kernel: an orthonormal basis of it,
    one column per direction, an (n, 0) array when it is trivial. It shares
    `rank`'s cutoff, so rank(m) + kernel dim = number of columns."""
    _, _, vh, r = singular_system(m, tol)
    return vh[r:].conj().T


def random_metric(n: int, definite: bool, rng: np.random.Generator) -> EtaOperator:
    """Random metric with eigenvalue moduli in [0.5, 2], all positive when
    `definite` and of random signs otherwise."""
    signs = np.ones(n) if definite else rng.choice([-1.0, 1.0], size=n)
    u = random_unitary(n, rng)
    return EtaOperator.from_matrix((u * (signs * rng.uniform(0.5, 2.0, size=n))) @ u.conj().T)


def well_conditioned(n: int, rng: np.random.Generator, spread: float = 2.0) -> np.ndarray:
    """Random invertible matrix with singular values in [1/spread, spread]."""
    u = random_unitary(n, rng)
    v = random_unitary(n, rng)
    s = rng.uniform(1.0 / spread, spread, size=n)
    return u @ np.diag(s) @ v.conj().T


def positive_definite(n: int, rng: np.random.Generator, spread: float = 2.0) -> np.ndarray:
    """Random Hermitian positive-definite matrix with eigenvalues in [1/spread, spread]."""
    u = random_unitary(n, rng)
    s = rng.uniform(1.0 / spread, spread, size=n)
    return u @ np.diag(s.astype(complex)) @ u.conj().T


def draw_spectrum(
    rng: np.random.Generator,
    n: int,
    allow_pairs: bool = True,
    allow_degenerate: bool = True,
    allow_zero: bool = False,
    force_unpaired: bool = False,
    min_sep: float = 0.15,
) -> list[complex]:
    """Eigenvalue multiset with real values and conjugate pairs.

    Distinct cluster values keep a minimum separation so that numerical
    clustering recovers the intended multiplicities exactly.
    """
    values: list[complex] = []
    reals: list[float] = []
    pair_bases: list[complex] = []

    def far_enough(z: complex) -> bool:
        for w in values:
            if abs(z - w) < min_sep or abs(np.conj(z) - w) < min_sep:
                return False
        return abs(z) >= min_sep  # keep away from zero unless deliberate

    budget = n
    if force_unpaired:
        while True:
            z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
            if far_enough(z):
                break
        values.append(z)
        budget -= 1
    if allow_zero and budget > 0 and rng.random() < 0.5:
        mult = int(rng.integers(1, min(3, budget) + 1))
        values.extend([0.0] * mult)
        budget -= mult
    while budget > 0:
        use_pair = allow_pairs and budget >= 2 and rng.random() < 0.4
        mult = 1
        if allow_degenerate and rng.random() < 0.25:
            mult = int(rng.integers(2, 4))
        if use_pair:
            mult = min(mult, budget // 2)
            for _ in range(200):
                z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 2.0))
                if far_enough(z):
                    break
            values.extend([z] * mult)
            values.extend([np.conj(z)] * mult)
            pair_bases.append(z)
            budget -= 2 * mult
        else:
            mult = min(mult, budget)
            for _ in range(200):
                x = complex(rng.uniform(-3, 3))
                if far_enough(x):
                    break
            values.extend([x] * mult)
            reals.append(x.real)
            budget -= mult
    return values


def matrix_with_spectrum(
    values, rng: np.random.Generator, spread: float = 2.0
) -> np.ndarray:
    """Similarity transform of diag(values) by a well-conditioned matrix."""
    n = len(values)
    v = well_conditioned(n, rng, spread)
    return v @ np.diag(np.asarray(values, dtype=complex)) @ np.linalg.inv(v)


def random_paired_hamiltonian(
    rng: np.random.Generator,
    n: int,
    allow_zero: bool = False,
    allow_degenerate: bool = True,
) -> np.ndarray:
    values = draw_spectrum(
        rng, n, allow_zero=allow_zero, allow_degenerate=allow_degenerate
    )
    return matrix_with_spectrum(values, rng)


def engineered_rank_map(
    rows: int, cols: int, deficiency: int, rng: np.random.Generator
) -> np.ndarray:
    """Map with exactly min(rows, cols) - deficiency nonzero singular values
    drawn from [0.5, 2]."""
    r = max(0, min(rows, cols) - deficiency)
    u = random_unitary(rows, rng)
    v = random_unitary(cols, rng)
    s = np.zeros((rows, cols), dtype=complex)
    for i in range(r):
        s[i, i] = rng.uniform(0.5, 2.0)
    return u @ s @ v.conj().T


def reconstruct(sys) -> np.ndarray:
    """psi diag(eigenvalues) phi^H: the sum of value * projector over the
    clusters of a biorthonormal system."""
    return (sys.psi * sys.eigenvalues) @ sys.phi.conj().T


def match_value_multisets(left, right) -> float:
    """Greedy nearest matching of two complex multisets; max pair distance."""
    left = sorted(left, key=lambda z: (z.real, z.imag))
    right = list(right)
    if len(left) != len(right):
        return np.inf
    worst = 0.0
    for z in left:
        dists = [abs(z - w) for w in right]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        right.pop(k)
    return worst


def pair_pipeline(h1, h2):
    """The benchmark's pair pipeline: decompose x2 -> factor -> verify ->
    graded system -> algebra -> Witten index. Returns the factorization and
    the Witten report, which the benchmark's output keeps too."""
    fact = canonical_factorization(decompose(h1), decompose(h2))
    verify_pseudo_hermiticity(h1, fact.eta1)
    verify_pseudo_hermiticity(h2, fact.eta2)
    verify_intertwining(fact.matrix, h1, h2)
    psys = from_factorization(fact)
    verify_algebra(psys)
    return fact, witten_index(psys)
