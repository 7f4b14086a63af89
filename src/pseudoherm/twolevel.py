"""Closed-form engine for nondegenerate traceless two-level matrices.

Everything here is exact algebra in the coefficients (a, b, c) of
[[a, b], [c, -a]]: eigenvalues -E and +E with E = sqrt(a^2 + bc) on the
Re E >= 0 branch, explicit eigenvector families, the Case I (real E) and
Case II (imaginary E) factorizations, and the classical-oscillator /
spin-half golden reference reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTwoLevel, NonRealDeterminant, NumericalFailure
from .intertwine import Factorization, Intertwiner, _factorization_checks, match_spectra
from .linalg import (
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    as_matrix,
    frobenius_norm,
    norm_lower_bound,
    spectral_norm,
)
from .metric import EtaOperator, SignAssignment
from .spectral import BiorthonormalSystem, cluster_eigenvalues

__all__ = [
    "TwoLevelParams",
    "OscillatorReport",
    "SpinIntertwineReport",
    "normalize_traceless",
    "closed_form_system",
    "two_level_factorization",
    "oscillator_hamiltonian",
    "spin_hamiltonian",
    "oscillator_demo",
    "spin_intertwine_demo",
]

# Frequencies at which every closed-form entry of a demo stays finite:
# 1/omega^2 (the oscillator phi2 and metric prefactor 1/(4 omega^2), the spin
# L) needs omega >= 2^-511, omega^4 (the oscillator metrics) omega <= 2^255
# and omega^2.5 (the spin L#) omega <= 2^409. Powers of two keep the powers
# of a bound exact, so rounding cannot carry an entry past the double range.
OMEGA_RANGE = {"oscillator": (2.0**-511, 2.0**255), "spin": (2.0**-511, 2.0**409)}

_ROT45 = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def _frequency(omega: float, which: str) -> float:
    w = float(omega)
    lo, hi = OMEGA_RANGE[which]
    if not lo <= w <= hi:
        raise ValueError(f"omega must lie in [{lo:.6g}, {hi:.6g}], got {w!r}")
    return w


def _principal_root(z: complex) -> complex:
    """sqrt with Re >= 0; on the imaginary axis take Im >= 0."""
    e = complex(np.sqrt(complex(z)))
    if e.real < 0 or (e.real == 0 and e.imag < 0):
        e = -e
    return e


@dataclass(frozen=True)
class TwoLevelParams:
    """Coefficients of a traceless 2x2 matrix, normalized so a + E != 0.

    When the raw coefficients land on a + E = 0 the working basis is rotated
    by 45 degrees (twice at most; the second rotation flips the sign of a, so
    it always resolves the degeneracy). `basis` maps the internal frame back:
    original matrix = basis @ [[a, b], [c, -a]] @ basis^H.
    """

    a: complex
    b: complex
    c: complex
    e: complex
    n: complex
    basis: np.ndarray
    rotations: int
    scale: float

    @classmethod
    def from_coefficients(
        cls, a, b, c, tol: Tolerance = DEFAULT_TOLERANCE
    ) -> "TwoLevelParams":
        a, b, c = complex(a), complex(b), complex(c)
        scale = spectral_norm(np.array([[a, b], [c, -a]]))
        e = _principal_root(a * a + b * c)
        # rounding can leave a sliver of real part on the imaginary axis;
        # resolve the branch there with the same tolerance the cases use
        if abs(e.real) <= tol.atol * (1.0 + abs(e)) and e.imag < 0:
            e = -e
        thr = tol.cluster_tol(scale)
        if abs(e) <= thr:
            raise DegenerateTwoLevel(
                f"eigenvalue magnitude {abs(e):.3e} is below tolerance {thr:.3e}"
            )
        basis = np.eye(2, dtype=complex)
        rotations = 0
        while abs(a + e) <= thr and rotations < 2:
            m = _ROT45.conj().T @ np.array([[a, b], [c, -a]]) @ _ROT45
            a, b, c = m[0, 0], m[0, 1], m[1, 0]
            basis = basis @ _ROT45
            rotations += 1
        if abs(a + e) <= thr:
            raise NumericalFailure("basis rotation failed to resolve a + E = 0")
        return cls(
            a=a,
            b=b,
            c=c,
            e=e,
            n=2.0 * e * (a + e),
            basis=basis,
            rotations=rotations,
            scale=scale,
        )

    def matrix(self) -> np.ndarray:
        """Traceless matrix in the internal (possibly rotated) frame."""
        return np.array([[self.a, self.b], [self.c, -self.a]])

    def source_matrix(self) -> np.ndarray:
        """Traceless matrix in the caller's frame."""
        return self.basis @ self.matrix() @ self.basis.conj().T

    def determinant(self) -> complex:
        return -self.e * self.e


def normalize_traceless(
    h, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[TwoLevelParams, complex]:
    """Split a 2x2 matrix into traceless coefficients and the trace shift."""
    h = as_matrix(h, square=True)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    shift = complex(np.trace(h) / 2.0)
    params = TwoLevelParams.from_coefficients(
        h[0, 0] - shift, h[0, 1], h[1, 0], tol
    )
    return params, shift


def _vectors(params: TwoLevelParams):
    """Closed-form (psi1, psi2, phi1, phi2) in the caller's frame."""
    a, b, c, e, n = params.a, params.b, params.c, params.e, params.n
    psi1 = np.array([-b, a + e])
    psi2 = np.array([a + e, c])
    phi1 = np.array([-np.conj(c), np.conj(a) + np.conj(e)]) / np.conj(n)
    phi2 = np.array([np.conj(a) + np.conj(e), np.conj(b)]) / np.conj(n)
    rot = params.basis
    return rot @ psi1, rot @ psi2, rot @ phi1, rot @ phi2


def closed_form_system(
    params: TwoLevelParams, tol: Tolerance = DEFAULT_TOLERANCE
) -> BiorthonormalSystem:
    """Biorthonormal system with eigenvalues -E (psi1) and +E (psi2).

    Columns follow the deterministic cluster order used by `decompose`, so
    the output plugs into every generic operation.
    """
    psi1, psi2, phi1, phi2 = _vectors(params)
    values = np.array([-params.e, params.e])
    ctol = tol.cluster_tol(params.scale)
    clusters, order = cluster_eigenvalues(values, ctol)
    psi_cols = [psi1, psi2]
    phi_cols = [phi1, phi2]
    return BiorthonormalSystem(
        clusters=clusters,
        psi=np.column_stack([psi_cols[i] for i in order]),
        phi=np.column_stack([phi_cols[i] for i in order]),
        dim=2,
        scale=params.scale,
        cluster_tol=ctol,
    )


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x><y|"""
    return np.outer(x, y.conj())


def two_level_factorization(
    params: TwoLevelParams, tol: Tolerance = DEFAULT_TOLERANCE
) -> Factorization:
    """Case I / Case II closed-form factorization H = L# L.

    Requires a real determinant: E real (Case I, L = sqrt(E) times the
    identity with opposite-sign metrics) or E purely imaginary (Case II,
    L weights the eigenvector families by 1 and E with a swap metric).
    Inputs with genuinely complex E are rejected; the generic
    `self_factorization` route does not apply to them either.
    """
    sys = closed_form_system(params, tol)
    psi1, psi2, phi1, phi2 = _vectors(params)
    e = params.e
    case_tol = tol.atol * (1.0 + abs(e))

    if abs(e.imag) <= case_tol:
        er = float(e.real)
        root = np.sqrt(er)
        l = root * np.eye(2, dtype=complex)
        eta1 = EtaOperator(
            matrix=-_outer(phi1, phi1) + _outer(phi2, phi2),
            inverse=-_outer(psi1, psi1) + _outer(psi2, psi2),
            signs=SignAssignment(((0, (-1,)), (1, (1,)))),
        )
        eta2 = EtaOperator(
            matrix=_outer(phi1, phi1) + _outer(phi2, phi2),
            inverse=_outer(psi1, psi1) + _outer(psi2, psi2),
            signs=SignAssignment(((0, (1,)), (1, (1,)))),
        )
        lsharp = root * (eta1.inverse @ eta2.matrix)
        alpha = (complex(root), complex(root))
    elif abs(e.real) <= case_tol:
        l = _outer(psi1, phi1) + e * _outer(psi2, phi2)
        swap = _outer(phi1, phi2) + _outer(phi2, phi1)
        swap_inv = _outer(psi1, psi2) + _outer(psi2, psi1)
        eta1 = EtaOperator(matrix=swap, inverse=swap_inv)
        eta2 = EtaOperator(matrix=swap.copy(), inverse=swap_inv.copy())
        lsharp = -e * _outer(psi1, phi1) + _outer(psi2, phi2)
        # cluster order puts +E (PairUpper) first
        alpha = (complex(e), 1.0)
    else:
        raise NonRealDeterminant(
            f"determinant {params.determinant():.6g} is not real at tolerance"
        )

    pairing = match_spectra(sys, sys, tol)
    intertwiner = Intertwiner(matrix=l, alpha=alpha, pairing=pairing)
    h = params.source_matrix()
    threshold = tol.rtol * (1.0 + norm_lower_bound(h)) * sys.psi_cond**2
    return Factorization(
        intertwiner=intertwiner,
        eta1=eta1,
        eta2=eta2,
        lsharp=lsharp,
        checks=_factorization_checks(h, h, l, lsharp, threshold),
    )


def oscillator_hamiltonian(omega: float) -> np.ndarray:
    """Two-component form of x'' + omega^2 x = 0: [[0, i], [-i omega^2, 0]]."""
    return np.array([[0.0, 1j], [-1j * omega**2, 0.0]])


def spin_hamiltonian(omega: float) -> np.ndarray:
    """omega * sigma_3."""
    return np.array([[omega, 0.0], [0.0, -omega]], dtype=complex)


@dataclass(frozen=True)
class OscillatorReport:
    """Golden closed forms for the oscillator system at one frequency."""

    omega: float
    hamiltonian: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    eta1: np.ndarray
    eta1_inv: np.ndarray
    eta2: np.ndarray
    intertwiner: np.ndarray
    intertwiner_sharp: np.ndarray
    checks: tuple[ResidualCheck, ...]


def oscillator_demo(
    omega: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> OscillatorReport:
    """Fixed reference matrices for the oscillator at frequency omega.

    omega must lie in OMEGA_RANGE["oscillator"] (ValueError otherwise).

    eta1, eta1_inv and eta2 are emitted exactly in their reference form;
    note the displayed pair satisfies eta1 @ eta1_inv = I/4, so eta1_inv is
    reference data, not the recomputed inverse. The factorization residuals
    use only the intertwiner and its sharp, which close exactly:
    L# L = L L# = H.
    """
    w = _frequency(omega, "oscillator")
    h = oscillator_hamiltonian(w)
    psi1 = np.array([-1j, w])
    psi2 = np.array([w, -1j * w**2])
    phi1 = 0.5 * np.array([-1j, 1.0 / w])
    phi2 = 0.5 * np.array([1.0 / w, -1j / w**2])
    pref = 1.0 / (4.0 * w**2)
    eta1 = pref * np.array(
        [
            [w**2 * (1.0 - w**2), 1j * w * (1.0 + w**2)],
            [-1j * w * (1.0 + w**2), 1.0 - w**2],
        ]
    )
    eta1_inv = pref * np.array(
        [
            [w**2 - 1.0, 1j * w * (1.0 + w**2)],
            [-1j * w * (1.0 + w**2), w**2 * (w**2 - 1.0)],
        ]
    )
    eta2 = pref * np.array(
        [
            [w**2 * (1.0 + w**2), 1j * w * (1.0 - w**2)],
            [-1j * w * (1.0 - w**2), 1.0 + w**2],
        ]
    )
    root = np.sqrt(w)
    l = root * np.eye(2, dtype=complex)
    lsharp = h / root
    thr = tol.atol * (1.0 + norm_lower_bound(h))
    checks = (
        ResidualCheck("lsharp_l", frobenius_norm(lsharp @ l - h), thr),
        ResidualCheck("l_lsharp", frobenius_norm(l @ lsharp - h), thr),
    )
    return OscillatorReport(
        omega=w,
        hamiltonian=h,
        psi1=psi1,
        psi2=psi2,
        phi1=phi1,
        phi2=phi2,
        eta1=eta1,
        eta1_inv=eta1_inv,
        eta2=eta2,
        intertwiner=l,
        intertwiner_sharp=lsharp,
        checks=checks,
    )


@dataclass(frozen=True)
class SpinIntertwineReport:
    """Oscillator-to-spin intertwining at one frequency."""

    omega: float
    oscillator_h: np.ndarray
    spin_h: np.ndarray
    intertwiner: np.ndarray
    intertwiner_sharp: np.ndarray
    checks: tuple[ResidualCheck, ...]


def spin_intertwine_demo(
    omega: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> SpinIntertwineReport:
    """Closed-form intertwiner realizing H_osc = L# L and H_spin = L L#.

    The spin side uses the standard basis (its metric is the identity); the
    sharp is taken with the canonical oscillator metric. omega must lie in
    OMEGA_RANGE["spin"] (ValueError otherwise).
    """
    w = _frequency(omega, "spin")
    ho = oscillator_hamiltonian(w)
    hs = spin_hamiltonian(w)
    root = np.sqrt(w)
    l = (root / 2.0) * np.array([[1.0 / w, 1j / w**2], [1j, 1.0 / w]])
    lsharp = root * np.array([[w, 1j], [-1j * w**2, -w]])
    scale = max(norm_lower_bound(ho), norm_lower_bound(hs))
    thr = tol.rtol * (1.0 + scale)
    checks = (
        ResidualCheck("lsharp_l", frobenius_norm(lsharp @ l - ho), thr),
        ResidualCheck("l_lsharp", frobenius_norm(l @ lsharp - hs), thr),
    )
    return SpinIntertwineReport(
        omega=w,
        oscillator_h=ho,
        spin_h=hs,
        intertwiner=l,
        intertwiner_sharp=lsharp,
        checks=checks,
    )
