"""Two-component pseudo-supersymmetric systems and their Witten index.

A map D from the plus sector to the minus sector, together with metrics
eta_plus/eta_minus, generates partner Hamiltonians H+ = D# D / 2 and
H- = D D# / 2. The graded system is stored as these sector matrices only;
the grading tau = diag(I, -I), the nilpotent supercharge Q = [[0, 0], [D, 0]],
its adjoint Q# = [[0, D#], [0, 0]], the block Hamiltonian H = diag(H+, H-)
and the block metric are built on access. Q^2 = 0, (Q#)^2 = 0,
{tau, Q} = 0 and [eta, tau] = 0 hold by that layout, so only the relations
between sector matrices are checked. The Witten index counts zero modes of
the partners and is re-derived two independent ways (Betti numbers of the
kernel complex, and the analytic index of D when no kernel vector is
metric-null).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .errors import NumericalFailure
from .intertwine import Factorization
from .linalg import (
    _EXACT_BELOW,
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    as_matrix,
    certified_inverse,
    frobenius_norm,
    kernel_basis,
    norm_lower_bound,
    rank,
    spectral_norm,
)
from .metric import EtaOperator, pseudo_adjoint

__all__ = [
    "PseudoSusySystem",
    "WittenReport",
    "assemble",
    "verify_algebra",
    "witten_index",
    "from_factorization",
]


@dataclass(eq=False)
class PseudoSusySystem:
    """Sector matrices of the graded system generated by D.

    The (n+m)-sized block matrices `tau`, `q`, `q_sharp`, `h`, `eta` and
    `eta_inv` are read-only views built anew on each access; nothing in the
    library reads them.
    """

    d: np.ndarray
    d_sharp: np.ndarray
    eta_plus: EtaOperator
    eta_minus: EtaOperator
    h_plus: np.ndarray
    h_minus: np.ndarray

    @cached_property
    def d_norm(self) -> float:
        """`norm_lower_bound` of D (at most ||D||_2), the threshold scale
        shared by the algebra checks and the Witten guard."""
        return _scale(self.d)

    @cached_property
    def d_sharp_norm(self) -> float:
        """`norm_lower_bound` of D# (at most ||D#||_2)."""
        return _scale(self.d_sharp)

    @property
    def dim_plus(self) -> int:
        return self.eta_plus.dim

    @property
    def dim_minus(self) -> int:
        return self.eta_minus.dim

    def _blocks(self, plus=0.0, upper=0.0, lower=0.0, minus=0.0) -> np.ndarray:
        """[[plus, upper], [lower, minus]] as one dense matrix."""
        p = self.dim_plus
        out = np.zeros((p + self.dim_minus,) * 2, dtype=complex)
        out[:p, :p] = plus
        out[:p, p:] = upper
        out[p:, :p] = lower
        out[p:, p:] = minus
        return out

    @property
    def tau(self) -> np.ndarray:
        return self._blocks(plus=np.eye(self.dim_plus), minus=-np.eye(self.dim_minus))

    @property
    def q(self) -> np.ndarray:
        return self._blocks(lower=self.d)

    @property
    def q_sharp(self) -> np.ndarray:
        return self._blocks(upper=self.d_sharp)

    @property
    def h(self) -> np.ndarray:
        return self._blocks(plus=self.h_plus, minus=self.h_minus)

    @property
    def eta(self) -> np.ndarray:
        return self._blocks(plus=self.eta_plus.matrix, minus=self.eta_minus.matrix)

    @property
    def eta_inv(self) -> np.ndarray:
        return self._blocks(plus=self.eta_plus.inverse, minus=self.eta_minus.inverse)


@dataclass(frozen=True)
class WittenReport:
    """Zero-mode counts, Betti numbers, and the index identities they feed.

    `checks`: `kernel_complex` (the kernel maps composed both ways) and
    `kernel_map` (D ker(H+), D# ker(H-) outside the kernels), both against
    the containment guard.
    """

    d0_plus: int
    d0_minus: int
    delta: int
    ker_d: int
    ker_d_dagger: int
    ker_d0: int
    ker_d0_flat: int
    betti_plus: int
    betti_minus: int
    analytic_index_sigma: int
    analytic_index_d: int
    non_null_plus: bool
    non_null_minus: bool
    checks: tuple[ResidualCheck, ...]

    @property
    def non_null_kernels(self) -> bool:
        return self.non_null_plus and self.non_null_minus

    @property
    def delta_equals_betti(self) -> bool:
        return self.delta == self.analytic_index_sigma

    @property
    def delta_equals_analytic_d(self) -> bool:
        return self.delta == self.analytic_index_d


def assemble(
    d, eta_plus: EtaOperator, eta_minus: EtaOperator
) -> PseudoSusySystem:
    """Build the graded system generated by D: plus sector -> minus sector.

    Rows of D live in the minus sector, columns in the plus sector; a D of
    any other shape raises ValueError.
    """
    d = as_matrix(d)
    return _graded(d, pseudo_adjoint(d, eta_plus, eta_minus), eta_plus, eta_minus)


def _graded(
    d: np.ndarray, d_sharp: np.ndarray, eta_plus: EtaOperator, eta_minus: EtaOperator
) -> PseudoSusySystem:
    """The system of D and its pseudo-adjoint D#, with H+ and H- formed;
    NumericalFailure when H+ or H- is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # decided by the test below
        h_plus = 0.5 * (d_sharp @ d)
        h_minus = 0.5 * (d @ d_sharp)
    if not (np.all(np.isfinite(h_plus)) and np.all(np.isfinite(h_minus))):
        raise NumericalFailure("H+ = D# D / 2 or H- = D D# / 2 is not finite")
    return PseudoSusySystem(
        d=d,
        d_sharp=d_sharp,
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        h_plus=h_plus,
        h_minus=h_minus,
    )


def _sector_residual(plus: np.ndarray, minus: np.ndarray) -> float:
    """Frobenius norm of the block-diagonal matrix diag(plus, minus)."""
    return math.hypot(frobenius_norm(plus), frobenius_norm(minus))


def _scale(m: np.ndarray) -> float:
    """`norm_lower_bound(m)`, whose exact case (smaller dimension below
    `_EXACT_BELOW`) is taken here by `spectral_norm`.

    The value is the same. The direct call keeps this module's
    `spectral_norm` binding on the pair pipeline: `bench/selftest.py` puts
    that binding back unwrapped to show that its tracer reports an SVD run
    outside every traced linalg call.
    """
    if min(m.shape) < _EXACT_BELOW:
        return spectral_norm(m)
    return norm_lower_bound(m)


def _sector_scale(plus: np.ndarray, minus: np.ndarray) -> float:
    """`norm_lower_bound` of diag(plus, minus), at most its 2-norm."""
    return max(_scale(plus), _scale(minus))


def verify_algebra(
    psys: PseudoSusySystem,
    tol: Tolerance = DEFAULT_TOLERANCE,
    generators: Sequence[np.ndarray] | None = None,
) -> tuple[ResidualCheck, ...]:
    """Checks of the graded algebra relations, report-only.

    Q^2 = 0, (Q#)^2 = 0, {tau, Q} = 0 and [eta, tau] = 0 hold by the block
    layout and are not checked. The reported relations are evaluated per
    sector: {Q, Q#} - 2H is block diagonal (`susy_anticommutator`), [Q, H]
    has the single block D H+ - H- D (`intertwine_plus`) and [Q#, H] the
    single block D# H- - H+ D# (`intertwine_minus`). Every value is a
    Frobenius norm (of both sector blocks together where there are two).
    The threshold scales are `norm_lower_bound`s: ||Q|| = ||D||,
    ||Q#|| = ||D#||, and ||H|| is the larger of the two sector bounds.

    With `generators` (a list of D-like maps sharing the metrics), the
    extended algebra is checked: {Q_i, Q_j#} = 2 delta_ij H (`extended`),
    plus the same relation for the associated pseudo-Hermitian combinations
    Q1 = (Q + Q#)/sqrt(2), Q2 = (Q - Q#)/(sqrt(2) i), which obey
    {Qa_i, Qb_j} = 2 delta_ij delta_ab H (`hermitian_combo`). With
    A_ij = {Q_i, Q_j#} = diag(D_j# D_i, D_i D_j#), every combination
    relation is (A_ij + A_ji)/2 or +-(A_ij - A_ji)/(2i), and
    ||Q1_i|| = ||Q2_i|| = max(||D_i||, ||D_i#||)/sqrt(2).
    """
    d, ds, hp, hm = psys.d, psys.d_sharp, psys.h_plus, psys.h_minus
    qscale = 1.0 + psys.d_norm
    qsscale = 1.0 + psys.d_sharp_norm
    hscale = 1.0 + _sector_scale(hp, hm)
    checks = [
        ResidualCheck(
            "susy_anticommutator",
            _sector_residual(ds @ d - 2.0 * hp, d @ ds - 2.0 * hm),
            tol.rtol * qscale * qsscale,
        ),
        ResidualCheck(
            "intertwine_plus",
            frobenius_norm(d @ hp - hm @ d),
            tol.rtol * qscale * hscale,
        ),
        ResidualCheck(
            "intertwine_minus",
            frobenius_norm(ds @ hm - hp @ ds),
            tol.rtol * qsscale * hscale,
        ),
    ]

    if generators is not None:
        maps = [
            (g, pseudo_adjoint(g, psys.eta_plus, psys.eta_minus))
            for g in map(as_matrix, generators)
        ]
        norms = [(_scale(g), _scale(gs)) for g, gs in maps]
        # sector blocks of R_ij = {Q_i, Q_j#} - 2 delta_ij H, where
        # {Q_i, Q_j#} = diag(D_j# D_i, D_i D_j#)
        res = {}
        for (i, (g, _)), (j, (_, gs)) in product(enumerate(maps), repeat=2):
            shift = 2.0 if i == j else 0.0
            res[i, j] = (gs @ g - shift * hp, g @ gs - shift * hm)
        for i, j in res:
            checks.append(
                ResidualCheck(
                    f"extended[{i + 1},{j + 1}]",
                    _sector_residual(*res[i, j]),
                    tol.rtol * (1.0 + norms[i][0]) * (1.0 + norms[j][1]) * hscale,
                )
            )
        # {Qa_i, Qa_j} - 2 delta_ij H = (R_ij + R_ji)/2 and
        # {Q1_i, Q2_j} = -{Q2_i, Q1_j} = (R_ji - R_ij)/(2i)
        combo_scale = [1.0 + max(n) / np.sqrt(2.0) for n in norms]
        for i, a, j, b in product(range(len(maps)), (1, 2), range(len(maps)), (1, 2)):
            (pij, mij), (pji, mji) = res[i, j], res[j, i]
            sign = 1.0 if a == b else -1.0
            checks.append(
                ResidualCheck(
                    f"hermitian_combo[{i + 1}.{a},{j + 1}.{b}]",
                    0.5 * _sector_residual(pij + sign * pji, mij + sign * mji),
                    tol.rtol * combo_scale[i] * combo_scale[j] * hscale,
                )
            )
    return tuple(checks)


def _non_null(kernel: np.ndarray, eta: EtaOperator, tol: Tolerance) -> bool:
    """True when eta restricted to span(kernel) has no zero eigenvalue.

    The test is basis-independent: every kernel vector v that diagonalizes
    the restricted form has |<v, eta v>| above atol * ||eta||_2. An empty
    kernel passes. ||eta||_F bounds ||eta||_2 from above, so a smallest
    |eigenvalue| above atol * ||eta||_F, widened by n^2 eps for the rounding
    of both norms, passes under the exact rule too; only below that does the
    exact `eta.norm` (an SVD) decide.
    """
    if kernel.shape[1] == 0:
        return True
    restricted = kernel.conj().T @ eta.matrix @ kernel
    restricted = 0.5 * (restricted + restricted.conj().T)
    smallest = float(np.min(np.abs(np.linalg.eigvalsh(restricted))))
    rounding = eta.dim**2 * np.finfo(float).eps
    if smallest > tol.atol * frobenius_norm(eta.matrix) * (1.0 + rounding):
        return True
    return smallest > tol.atol * eta.norm


def _kernel(h: np.ndarray, injective: bool, tol: Tolerance) -> np.ndarray:
    """kernel_basis(h, tol), or the empty basis that `certified_inverse`
    proves when D is injective on the sector.

    ker D lies in the kernel of H+ (and ker D# in that of H-), so a sector on
    which D is not injective has a kernel and goes straight to the SVD.
    """
    if injective and certified_inverse(
        h, lambda smax: tol.svd_cutoff(h.shape, smax)
    ) is not None:
        return np.zeros((h.shape[0], 0), dtype=complex)
    return kernel_basis(h, tol)


def witten_index(
    psys: PseudoSusySystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> WittenReport:
    """Count zero modes of the partners and evaluate the index identities.

    D and D# are restricted to the kernels of H+/H- in orthonormal kernel
    coordinates (D maps zero modes to zero modes; that containment is asserted
    numerically before ranks are trusted). The restricted maps compose to
    zero both ways, so they form a two-step complex whose Betti numbers
    reproduce the index; the analytic index of D itself matches whenever both
    sectors are free of null zero modes.

    rank(D) comes first (singular values only). When it equals a sector's
    dimension (D injective for H+, surjective for H-), the sector's kernel
    is first shown empty by `certified_inverse` under the cutoff of
    `kernel_basis`; otherwise, or when the bound cannot decide,
    `kernel_basis` computes the kernel by an SVD.
    """
    rank_d = rank(psys.d, tol)
    k_plus = _kernel(psys.h_plus, rank_d == psys.dim_plus, tol)
    k_minus = _kernel(psys.h_minus, rank_d == psys.dim_minus, tol)
    d0_plus = k_plus.shape[1]
    d0_minus = k_minus.shape[1]

    # containment guard: D ker(H+) inside ker(H-), and the converse for D#;
    # the residuals are the parts of D K+ and D# K- outside the kernels
    guard = max(
        tol.atol,
        tol.rtol
        * max(psys.dim_plus, psys.dim_minus)
        * (1.0 + psys.d_norm + psys.d_sharp_norm),
    )
    d0_coords = k_minus.conj().T @ psys.d @ k_plus
    d0_flat_coords = k_plus.conj().T @ psys.d_sharp @ k_minus
    kernel_map_residual = max(
        frobenius_norm(psys.d @ k_plus - k_minus @ d0_coords),
        frobenius_norm(psys.d_sharp @ k_minus - k_plus @ d0_flat_coords),
    )
    if kernel_map_residual > guard:
        raise NumericalFailure(
            f"zero modes are not mapped into zero modes "
            f"(residual {kernel_map_residual:.3e} > {guard:.3e})"
        )

    complex_residual = max(
        frobenius_norm(d0_coords @ d0_flat_coords),
        frobenius_norm(d0_flat_coords @ d0_coords),
    )

    rank_d0 = rank(d0_coords, tol)
    rank_d0_flat = rank(d0_flat_coords, tol)
    ker_d = psys.dim_plus - rank_d
    ker_d_dagger = psys.dim_minus - rank_d
    ker_d0 = d0_plus - rank_d0
    ker_d0_flat = d0_minus - rank_d0_flat

    betti_plus = ker_d0 - rank_d0_flat
    betti_minus = ker_d0_flat - rank_d0

    return WittenReport(
        d0_plus=d0_plus,
        d0_minus=d0_minus,
        delta=d0_plus - d0_minus,
        ker_d=ker_d,
        ker_d_dagger=ker_d_dagger,
        ker_d0=ker_d0,
        ker_d0_flat=ker_d0_flat,
        betti_plus=betti_plus,
        betti_minus=betti_minus,
        analytic_index_sigma=betti_plus - betti_minus,
        analytic_index_d=ker_d - ker_d_dagger,
        non_null_plus=_non_null(k_plus, psys.eta_plus, tol),
        non_null_minus=_non_null(k_minus, psys.eta_minus, tol),
        checks=(
            ResidualCheck("kernel_complex", complex_residual, guard),
            ResidualCheck("kernel_map", kernel_map_residual, guard),
        ),
    )


def from_factorization(fact: Factorization) -> PseudoSusySystem:
    """Promote a factorization to the graded system with D = sqrt(2) L.

    The partner Hamiltonians then reproduce the factored pair: H+ = L# L and
    H- = L L#. D# = sqrt(2) L#, from the L# the factorization already holds.
    """
    root2 = np.sqrt(2.0)
    return _graded(root2 * fact.matrix, root2 * fact.lsharp, fact.eta1, fact.eta2)
