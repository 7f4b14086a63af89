"""Seeded inputs for the benchmark workloads.

Everything the program receives is drawn here from one `numpy` generator, so
the same seed gives the same matrices. The ideas follow the randomized test
builders (controlled spectra, conditioned similarities, engineered-rank maps)
but this file imports nothing from the test suite: editing the tests cannot
move the benchmark's inputs.

The *structure* of every input (sizes, cluster multiplicities, ranks, metric
signatures) is fixed per workload; only the values depend on the seed. That
keeps the amount of work, and every count the traced run reports, identical
from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIMILARITY_SPREAD = 2.0  # singular values of every similarity lie in [1/2, 2]
REAL_RADIUS = 3.0  # real cluster values lie in [-3, 3]
IMAG_RANGE = (0.3, 2.0)  # imaginary parts of the upper pair members

TAG_ALL_REAL = "AllReal"
TAG_CONJUGATE_PAIRED = "ConjugatePaired"
TAG_MIXED = "Mixed"


@dataclass(frozen=True)
class Spectrum:
    """Distinct cluster values with their multiplicities.

    Conjugate pairs are stored as two clusters (upper and lower member).
    `sep` is the guaranteed minimum distance between any two cluster values.
    """

    clusters: tuple[tuple[complex, int], ...]
    tag: str
    sep: float

    @property
    def values(self) -> np.ndarray:
        return np.concatenate(
            [np.full(mult, value, dtype=complex) for value, mult in self.clusters]
        )

    @property
    def zero_multiplicity(self) -> int:
        return sum(mult for value, mult in self.clusters if value == 0)

    @property
    def real_eigenvectors(self) -> int:
        return sum(mult for value, mult in self.clusters if value.imag == 0)


@dataclass(frozen=True)
class Composition:
    """Fixed make-up of a spectrum: multiplicities per cluster kind."""

    reals: tuple[int, ...]  # one entry per real nonzero cluster
    pairs: tuple[int, ...] = ()  # one entry per conjugate pair (each member has it)
    zero: int = 0

    @property
    def dim(self) -> int:
        return sum(self.reals) + 2 * sum(self.pairs) + self.zero

    @property
    def tag(self) -> str:
        has_real = bool(self.reals) or self.zero > 0
        if not self.pairs:
            return TAG_ALL_REAL
        return TAG_MIXED if has_real else TAG_CONJUGATE_PAIRED


@dataclass(frozen=True)
class Similarity:
    """V with its exact inverse; singular values of V are `singular`."""

    v: np.ndarray
    v_inv: np.ndarray
    singular: np.ndarray

    @property
    def kappa(self) -> float:
        return float(self.singular.max() / self.singular.min())


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def similarity(n: int, rng: np.random.Generator) -> Similarity:
    """Random V = U S W^H with singular values drawn from [1/2, 2]."""
    u = random_unitary(n, rng)
    w = random_unitary(n, rng)
    s = rng.uniform(1.0 / SIMILARITY_SPREAD, SIMILARITY_SPREAD, size=n)
    return Similarity(v=(u * s) @ w.conj().T, v_inv=(w / s) @ u.conj().T, singular=s)


def _spread(rng: np.random.Generator, count: int, lo: float, hi: float, sep: float):
    """`count` values in [lo, hi], pairwise at least `sep` apart (jittered grid)."""
    width = (hi - lo) / max(count, 1)
    if width <= sep:
        raise ValueError("interval too short for the requested separation")
    return lo + width * np.arange(count) + sep / 2 + rng.uniform(0.0, width - sep, count)


def draw_spectrum(rng: np.random.Generator, comp: Composition) -> Spectrum:
    """Cluster values for `comp`, at least `sep` apart from each other and
    from zero; multiplicities are assigned to positions in random order."""
    n_real, n_pair = len(comp.reals), len(comp.pairs)
    sep = min(0.05, 0.5 * REAL_RADIUS / (n_real + 2), 0.25 * IMAG_RANGE[0])
    clusters: list[tuple[complex, int]] = []
    if comp.zero:
        clusters.append((0j, comp.zero))
    if n_real:
        n_neg = n_real // 2
        xs = np.concatenate(
            [
                -_spread(rng, n_neg, sep, REAL_RADIUS, sep)[::-1],
                _spread(rng, n_real - n_neg, sep, REAL_RADIUS, sep),
            ]
        )
        mults = rng.permutation(np.asarray(comp.reals))
        clusters.extend((complex(x), int(m)) for x, m in zip(xs, mults))
    if n_pair:
        cols = int(np.ceil(np.sqrt(2 * n_pair)))
        rows = int(np.ceil(n_pair / cols))
        cells = rng.choice(rows * cols, size=n_pair, replace=False)
        cw = 2 * REAL_RADIUS / cols
        ch = (IMAG_RANGE[1] - IMAG_RANGE[0]) / rows
        if min(cw, ch) <= sep:
            raise ValueError("too many conjugate pairs for the separation")
        mults = rng.permutation(np.asarray(comp.pairs))
        for cell, m in zip(cells, mults):
            r, c = divmod(int(cell), cols)
            re = -REAL_RADIUS + c * cw + sep / 2 + rng.uniform(0.0, cw - sep)
            im = IMAG_RANGE[0] + r * ch + sep / 2 + rng.uniform(0.0, ch - sep)
            z = complex(re, im)
            clusters.extend([(z, int(m)), (z.conjugate(), int(m))])
    return Spectrum(clusters=tuple(clusters), tag=comp.tag, sep=sep)


@dataclass(frozen=True)
class Drawn:
    """H = V diag(spectrum) V^-1 together with what built it."""

    h: np.ndarray
    spectrum: Spectrum
    sim: Similarity


def matrix_with_spectrum(rng: np.random.Generator, spectrum: Spectrum) -> Drawn:
    values = spectrum.values
    sim = similarity(values.size, rng)
    return Drawn(h=(sim.v * values) @ sim.v_inv, spectrum=spectrum, sim=sim)


def isospectral_pair(rng: np.random.Generator, comp: Composition) -> tuple[Drawn, Drawn]:
    """Two independent similarity transforms of one drawn spectrum."""
    spectrum = draw_spectrum(rng, comp)
    return matrix_with_spectrum(rng, spectrum), matrix_with_spectrum(rng, spectrum)


def engineered_rank_map(rows: int, cols: int, rank: int, rng: np.random.Generator):
    """rows x cols map with exactly `rank` singular values, drawn from [1/2, 2]."""
    u = random_unitary(rows, rng)[:, :rank]
    v = random_unitary(cols, rng)[:, :rank]
    s = rng.uniform(0.5, 2.0, size=rank)
    return (u * s) @ v.conj().T


def metric(n: int, negatives: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian metric with `negatives` negative eigenvalues, |eig| in [1/2, 2]."""
    u = random_unitary(n, rng)
    s = rng.uniform(0.5, 2.0, size=n)
    s[:negatives] *= -1.0
    m = (u * s) @ u.conj().T
    return 0.5 * (m + m.conj().T)  # exactly Hermitian in floating point


# --- pair workloads --------------------------------------------------------

PAIR_DIM = 256

# 128 real + 64 conjugate pairs, all simple, no zero eigenvalue.
SIMPLE = Composition(reals=(1,) * 128, pairs=(1,) * 64)
# A zero cluster of multiplicity 3, and clusters of multiplicity 2 and 3
# among both the real values and the conjugate pairs.
DEGENERATE = Composition(
    reals=(1,) * 53 + (2,) * 20 + (3,) * 10,
    pairs=(1,) * 30 + (2,) * 10 + (3,) * 5,
    zero=3,
)
# Small versions used for warm-up and by the self-test.
SIMPLE_SMALL = Composition(reals=(1,) * 4, pairs=(1,) * 2)
DEGENERATE_SMALL = Composition(reals=(1, 2, 3), pairs=(1, 2), zero=2)

PAIR_COMPOSITIONS = {
    "pair_simple": (SIMPLE, SIMPLE_SMALL),
    "pair_degenerate": (DEGENERATE, DEGENERATE_SMALL),
}


def pair_inputs(workload: str, seed: int, small: bool = False) -> tuple[Drawn, Drawn]:
    """The one pair of a `pair_*` round."""
    full, tiny = PAIR_COMPOSITIONS[workload]
    rng = np.random.default_rng([seed, 1 if small else 0])
    return isospectral_pair(rng, tiny if small else full)


# --- cli_small -------------------------------------------------------------

# Matrix compositions by size for spectrum / eta / factor / intertwine.
CLI_MATRICES = (
    Composition(reals=(1, 1)),  # n = 2
    Composition(reals=(), pairs=(1, 1)),  # n = 4
    Composition(reals=(1, 2, 1), pairs=(1,), zero=1),  # n = 7
    Composition(reals=(1, 1, 1, 2, 3), pairs=(1, 2), zero=2),  # n = 16
    Composition(reals=(1,) * 10 + (2, 3), pairs=(1,) * 6 + (2,), zero=1),  # n = 32
    Composition(reals=(1,) * 23 + (2, 2, 3), pairs=(1,) * 14 + (2,), zero=2),  # n = 64
)
# (rows, cols, rank, plus-metric negatives, minus-metric negatives) for D maps.
CLI_MAPS = (
    (2, 3, 1, 0, 1),
    (5, 4, 3, 1, 0),
    (12, 16, 10, 0, 5),
    (40, 32, 28, 9, 0),
    (64, 60, 50, 20, 25),
)
TWOLEVEL_DRAWS = 6


def matrix_file_payload(m: np.ndarray) -> dict:
    """The CLI matrix file schema, written here rather than by the program."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def write_matrix(path: Path, m: np.ndarray) -> str:
    path.write_text(json.dumps(matrix_file_payload(m)))
    return str(path)


def _twolevel_coefficients(rng: np.random.Generator):
    """(a, b, c) with a^2 + bc real and |a^2 + bc| >= 0.1.

    b = r e^{i t}, c = s e^{-i t} make bc real; a is real or purely
    imaginary, so a^2 is real too. Both signs of the determinant occur.
    """
    while True:
        t = rng.uniform(0, 2 * np.pi)
        b = rng.uniform(0.2, 2.0) * np.exp(1j * t)
        c = rng.uniform(-2.0, 2.0) * np.exp(-1j * t)
        a = rng.uniform(-2.0, 2.0) * (1j if rng.random() < 0.5 else 1.0)
        e2 = (a * a + b * c).real
        if abs(e2) >= 0.1:
            return a, b, c


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation and what it is expected to produce."""

    argv: tuple[str, ...]
    expect: dict


def _pair_flag(z: complex) -> str:
    return f"{complex(z).real!r},{complex(z).imag!r}"


def cli_cases(seed: int, workdir: Path, small: bool = False) -> list[CliCase]:
    """Write the input files for one cli_small round and list its calls.

    With `small`, one short entry of each table is used (warm-up and
    self-test): the n = 7 matrix, which has a zero, a degenerate cluster and
    a conjugate pair, and the smallest map.
    """
    rng = np.random.default_rng([seed, 2 if small else 3])
    workdir.mkdir(parents=True, exist_ok=True)
    matrices = CLI_MATRICES[2:3] if small else CLI_MATRICES
    maps = CLI_MAPS[:1] if small else CLI_MAPS
    cases: list[CliCase] = []
    for k, comp in enumerate(matrices):
        first, second = isospectral_pair(rng, comp)
        f1 = write_matrix(workdir / f"h{k}a.json", first.h)
        f2 = write_matrix(workdir / f"h{k}b.json", second.h)
        signs = rng.choice([-1, 1], size=first.spectrum.real_eigenvectors)
        common = {"drawn": first, "h": first.h}
        cases += [
            CliCase(("spectrum", f1), {**common, "kind": "spectrum"}),
            CliCase(("eta", f1), {**common, "kind": "eta"}),
        ]
        if signs.size:  # an empty --signs list cannot be spelled on the command line
            flag = "--signs=" + ",".join(str(int(s)) for s in signs)
            cases.append(CliCase(("eta", f1, flag), {**common, "kind": "eta"}))
        cases += [
            CliCase(("factor", f1), {**common, "kind": "factor"}),
            CliCase(
                ("intertwine", f1, f2),
                {"kind": "intertwine", "h1": first.h, "h2": second.h,
                 "zero": first.spectrum.zero_multiplicity},
            ),
        ]
    for k, (rows, cols, rank, neg_plus, neg_minus) in enumerate(maps):
        d = engineered_rank_map(rows, cols, rank, rng)
        eta_plus = metric(cols, neg_plus, rng)
        eta_minus = metric(rows, neg_minus, rng)
        fd = write_matrix(workdir / f"d{k}.json", d)
        fp = write_matrix(workdir / f"d{k}_eta_plus.json", eta_plus)
        fm = write_matrix(workdir / f"d{k}_eta_minus.json", eta_minus)
        with_metrics = ("--eta-plus", fp, "--eta-minus", fm)
        common = {"d": d, "rank": rank, "eta_plus": eta_plus, "eta_minus": eta_minus}
        cases += [
            CliCase(("psusy", fd) + with_metrics, {**common, "kind": "psusy"}),
            CliCase(("witten", fd), {**common, "kind": "witten"}),  # identity metrics
            CliCase(("witten", fd) + with_metrics, {**common, "kind": "witten"}),
        ]
    for _ in range(1 if small else TWOLEVEL_DRAWS):
        a, b, c = _twolevel_coefficients(rng)
        cases.append(
            CliCase(
                ("twolevel", f"--a={_pair_flag(a)}", f"--b={_pair_flag(b)}",
                 f"--c={_pair_flag(c)}"),
                {"kind": "twolevel", "a": a, "b": b, "c": c},
            )
        )
    for which in ("oscillator", "spin"):
        omega = float(rng.uniform(0.5, 3.0))
        cases.append(
            CliCase(
                ("demo", which, f"--omega={omega!r}"),
                {"kind": "demo", "which": which, "omega": omega},
            )
        )
    return cases
