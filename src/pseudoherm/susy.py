"""Two-component pseudo-supersymmetric systems and their Witten index.

A map D from the plus sector to the minus sector, together with metrics
eta_plus/eta_minus, generates partner Hamiltonians H+ = D# D / 2 and
H- = D D# / 2, a nilpotent supercharge Q, a grading tau, and the block
Hamiltonian H. The Witten index counts zero modes of the partners and is
re-derived two independent ways (Betti numbers of the kernel complex, and the
analytic index of D when no kernel vector is metric-null).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure
from .intertwine import Factorization
from .linalg import (
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    as_matrix,
    kernel_basis,
    rank,
    spectral_norm,
)
from .metric import EtaOperator, pseudo_adjoint

__all__ = [
    "PseudoSusySystem",
    "AlgebraReport",
    "WittenReport",
    "NullKernelStatus",
    "assemble",
    "verify_algebra",
    "witten_index",
    "null_kernel_check",
    "from_factorization",
]


@dataclass(eq=False)
class PseudoSusySystem:
    """Assembled (tau, Q, H, eta) blocks for one supercharge map D."""

    d: np.ndarray
    d_sharp: np.ndarray
    eta_plus: EtaOperator
    eta_minus: EtaOperator
    h_plus: np.ndarray
    h_minus: np.ndarray
    tau: np.ndarray
    q: np.ndarray
    q_sharp: np.ndarray
    h: np.ndarray
    eta: np.ndarray
    eta_inv: np.ndarray

    @cached_property
    def d_norm(self) -> float:
        """||D||_2, shared by the algebra checks and the Witten guard."""
        return spectral_norm(self.d)

    @cached_property
    def d_sharp_norm(self) -> float:
        """||D#||_2."""
        return spectral_norm(self.d_sharp)

    @property
    def dim_plus(self) -> int:
        return self.eta_plus.dim

    @property
    def dim_minus(self) -> int:
        return self.eta_minus.dim


@dataclass(frozen=True)
class AlgebraReport:
    checks: tuple[ResidualCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ResidualCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class NullKernelStatus(NamedTuple):
    """Per-sector flags: True when no zero mode is null for the metric."""

    plus: bool
    minus: bool

    @property
    def both(self) -> bool:
        return self.plus and self.minus


@dataclass(frozen=True)
class WittenReport:
    """Zero-mode counts, Betti numbers, and the index identities they feed."""

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
    complex_residual: float
    kernel_map_residual: float
    guard: float  # threshold of both residuals above

    @property
    def non_null_kernels(self) -> bool:
        return self.non_null_plus and self.non_null_minus

    @property
    def delta_equals_betti(self) -> bool:
        return self.delta == self.analytic_index_sigma

    @property
    def delta_equals_analytic_d(self) -> bool:
        return self.delta == self.analytic_index_d


def _block(upper_left, upper_right, lower_left, lower_right) -> np.ndarray:
    return np.block([[upper_left, upper_right], [lower_left, lower_right]])


def assemble(
    d, eta_plus: EtaOperator, eta_minus: EtaOperator
) -> PseudoSusySystem:
    """Build the graded system generated by D: plus sector -> minus sector.

    Rows of D live in the minus sector, columns in the plus sector. The block
    supercharge is strictly lower triangular, so Q^2 = 0 holds exactly.
    """
    d = as_matrix(d)
    if d.shape != (eta_minus.dim, eta_plus.dim):
        raise ValueError(
            f"D of shape {d.shape} does not map dim {eta_plus.dim} "
            f"into dim {eta_minus.dim}"
        )
    d_sharp = pseudo_adjoint(d, eta_plus, eta_minus)
    h_plus = 0.5 * (d_sharp @ d)
    h_minus = 0.5 * (d @ d_sharp)
    np_, nm = eta_plus.dim, eta_minus.dim
    zpp = np.zeros((np_, np_), dtype=complex)
    zpm = np.zeros((np_, nm), dtype=complex)
    zmp = np.zeros((nm, np_), dtype=complex)
    zmm = np.zeros((nm, nm), dtype=complex)
    tau = _block(np.eye(np_), zpm, zmp, -np.eye(nm))
    q = _block(zpp, zpm, d, zmm)
    q_sharp = _block(zpp, d_sharp, zmp, zmm)
    h = _block(h_plus, zpm, zmp, h_minus)
    eta = _block(eta_plus.matrix, zpm, zmp, eta_minus.matrix)
    eta_inv = _block(eta_plus.inverse, zpm, zmp, eta_minus.inverse)
    return PseudoSusySystem(
        d=d,
        d_sharp=d_sharp,
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        h_plus=h_plus,
        h_minus=h_minus,
        tau=tau,
        q=q,
        q_sharp=q_sharp,
        h=h,
        eta=eta,
        eta_inv=eta_inv,
    )


def _anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def _frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def verify_algebra(
    psys: PseudoSusySystem,
    tol: Tolerance = DEFAULT_TOLERANCE,
    generators: Sequence[np.ndarray] | None = None,
) -> AlgebraReport:
    """Residuals of the graded algebra relations, report-only.

    Q^2 = 0, (Q#)^2 = 0, {tau, Q} = 0 and [eta, tau] = 0 hold by block
    structure; their residuals are Frobenius norms of the dense products
    (exactly 0 whenever the 2-norm is, never smaller otherwise) and their
    thresholds stay 0 / rtol-scaled. The other relations are evaluated per
    sector, in 2-norms: H, eta and {Q, Q#} - 2H are block diagonal, so
    their norms are the larger of the two sector norms, ||Q|| = ||D||,
    ||Q#|| = ||D#||, and [Q, H] has the single block D H+ - H- D, which is
    the intertwine_plus residual.

    With `generators` (a list of D-like maps sharing the metrics), the
    extended algebra is checked: {Q_i, Q_j#} = 2 delta_ij H, plus the same
    relation for the associated pseudo-Hermitian combinations
    Q1 = (Q + Q#)/sqrt(2), Q2 = (Q - Q#)/(sqrt(2) i), which obey
    {Qa_i, Qb_j} = 2 delta_ij delta_ab H.
    """
    d, ds, hp, hm = psys.d, psys.d_sharp, psys.h_plus, psys.h_minus
    q, qs, tau, eta = psys.q, psys.q_sharp, psys.tau, psys.eta
    qscale = 1.0 + psys.d_norm
    qsscale = 1.0 + psys.d_sharp_norm
    hscale = 1.0 + max(spectral_norm(hp), spectral_norm(hm))
    eta_norm = max(psys.eta_plus.norm, psys.eta_minus.norm)
    commutes = ResidualCheck(
        "hamiltonian_commutes",
        spectral_norm(d @ hp - hm @ d),
        tol.rtol * qscale * hscale,
    )
    checks = [
        ResidualCheck("q_squared", _frobenius(q @ q), 0.0),
        ResidualCheck("q_sharp_squared", _frobenius(qs @ qs), 0.0),
        ResidualCheck(
            "susy_anticommutator",
            max(
                spectral_norm(ds @ d - 2.0 * hp),
                spectral_norm(d @ ds - 2.0 * hm),
            ),
            tol.rtol * qscale * qsscale,
        ),
        ResidualCheck(
            "grading", _frobenius(_anticommutator(tau, q)), tol.rtol * qscale
        ),
        ResidualCheck(
            "eta_even",
            _frobenius(eta @ tau - tau @ eta),
            tol.rtol * (1.0 + eta_norm),
        ),
        commutes,
        ResidualCheck("intertwine_plus", commutes.value, commutes.threshold),
        ResidualCheck(
            "intertwine_minus",
            spectral_norm(ds @ hm - hp @ ds),
            tol.rtol * qsscale * hscale,
        ),
    ]

    if generators is not None:
        h = psys.h
        systems = [assemble(g, psys.eta_plus, psys.eta_minus) for g in generators]
        qs_list = [(s.q, s.q_sharp) for s in systems]
        for i, (qi, qis) in enumerate(qs_list, start=1):
            scale_i = 1.0 + spectral_norm(qi)
            for j, (qj, qjs) in enumerate(qs_list, start=1):
                target = 2.0 * h if i == j else 0.0
                checks.append(
                    ResidualCheck(
                        f"extended[{i},{j}]",
                        spectral_norm(_anticommutator(qi, qjs) - target),
                        tol.rtol * scale_i * (1.0 + spectral_norm(qjs)) * hscale,
                    )
                )
        combos = [
            (
                (qi + qis) / np.sqrt(2.0),
                (qi - qis) / (np.sqrt(2.0) * 1j),
            )
            for qi, qis in qs_list
        ]
        for i, pair_i in enumerate(combos, start=1):
            for a, qa in enumerate(pair_i, start=1):
                for j, pair_j in enumerate(combos, start=1):
                    for b, qb in enumerate(pair_j, start=1):
                        target = 2.0 * h if (i == j and a == b) else 0.0
                        checks.append(
                            ResidualCheck(
                                f"hermitian_combo[{i}.{a},{j}.{b}]",
                                spectral_norm(_anticommutator(qa, qb) - target),
                                tol.rtol
                                * (1.0 + spectral_norm(qa))
                                * (1.0 + spectral_norm(qb))
                                * hscale,
                            )
                        )
    return AlgebraReport(tuple(checks))


def null_kernel_check(
    psys: PseudoSusySystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> NullKernelStatus:
    """Diagonalize each metric restricted to its sector's zero modes.

    A sector counts as non-null when that restricted Hermitian form has no
    zero eigenvalue (basis-independent), i.e. every diagonalizing kernel
    vector v has |<v, eta v>| above atol * ||eta||. Empty kernels pass.
    """
    return NullKernelStatus(
        plus=_non_null(kernel_basis(psys.h_plus, tol), psys.eta_plus, tol),
        minus=_non_null(kernel_basis(psys.h_minus, tol), psys.eta_minus, tol),
    )


def _non_null(kernel: np.ndarray, eta: EtaOperator, tol: Tolerance) -> bool:
    """True when eta restricted to span(kernel) has no zero eigenvalue."""
    if kernel.shape[1] == 0:
        return True
    restricted = kernel.conj().T @ eta.matrix @ kernel
    restricted = 0.5 * (restricted + restricted.conj().T)
    eigs = np.linalg.eigvalsh(restricted)
    return bool(np.min(np.abs(eigs)) > tol.atol * eta.norm)


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
    """
    k_plus = kernel_basis(psys.h_plus, tol)
    k_minus = kernel_basis(psys.h_minus, tol)
    d0_plus = k_plus.shape[1]
    d0_minus = k_minus.shape[1]

    # containment guard: D ker(H+) inside ker(H-), and the converse for D#
    eye_p = np.eye(psys.dim_plus)
    eye_m = np.eye(psys.dim_minus)
    guard = max(
        tol.atol,
        tol.rtol
        * max(psys.dim_plus, psys.dim_minus)
        * (1.0 + psys.d_norm + psys.d_sharp_norm),
    )
    res_fwd = spectral_norm((eye_m - k_minus @ k_minus.conj().T) @ psys.d @ k_plus)
    res_bwd = spectral_norm((eye_p - k_plus @ k_plus.conj().T) @ psys.d_sharp @ k_minus)
    kernel_map_residual = max(res_fwd, res_bwd)
    if kernel_map_residual > guard:
        raise NumericalFailure(
            f"zero modes are not mapped into zero modes "
            f"(residual {kernel_map_residual:.3e} > {guard:.3e})"
        )

    d0_coords = k_minus.conj().T @ psys.d @ k_plus
    d0_flat_coords = k_plus.conj().T @ psys.d_sharp @ k_minus
    complex_residual = max(
        spectral_norm(d0_coords @ d0_flat_coords),
        spectral_norm(d0_flat_coords @ d0_coords),
    )

    rank_d = rank(psys.d, tol)
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
        complex_residual=complex_residual,
        kernel_map_residual=kernel_map_residual,
        guard=guard,
    )


def from_factorization(fact: Factorization) -> PseudoSusySystem:
    """Promote a factorization to the graded system with D = sqrt(2) L.

    The partner Hamiltonians then reproduce the factored pair: H+ = L# L and
    H- = L L#.
    """
    return assemble(np.sqrt(2.0) * fact.matrix, fact.eta1, fact.eta2)
