"""Two-component pseudo-supersymmetric systems and their Witten index.

A map D from the plus sector to the minus sector, together with metrics
eta_plus/eta_minus, generates partner Hamiltonians H+ = D# D / 2 and
H- = D D# / 2. The graded system stores only D, D# and the metrics, and
forms H+ and H- from them on each access, so they cannot get out of step
and no n x n product is kept alive. In block form the grading is
tau = diag(I, -I), the nilpotent supercharge Q = [[0, 0], [D, 0]], its
adjoint Q# = [[0, D#], [0, 0]], the Hamiltonian H = diag(H+, H-) and the
metric diag(eta_plus, eta_minus); no block matrix is built. Q^2 = 0,
(Q#)^2 = 0, {tau, Q} = 0 and [eta, tau] = 0 hold by that layout, and
{Q, Q#} = 2H and [Q, H] = 0 by the definition of H+ and H-, so none of
them is checked. What can fail is reported: the extended algebra of
caller-supplied generators, and the Witten index, which counts zero modes of
the partners, with the kernel complex it is read from and whether it equals
the analytic index of D (expected when no kernel vector is metric-null).
Every zero-mode count comes from D's rank and the metric-null directions
of ker D and ker D#; no n x n factorization of H+ or H- is made. A square D
takes its singular values once, which decide its rank; when it is singular,
two LU solves give bases of both kernels with a bound on their angle. Those
bases and the SVD's go through one pipeline, with one test of which
directions may be metric-null: bases from the solves are kept only when it
proves they yield the SVD's counts and flags. Only a rectangular D, or a
kernel that test cannot decide, takes a full SVD of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import NumericalFailure
from .intertwine import Factorization
from .linalg import (
    _EPS,
    _EXACT_BELOW,
    DEFAULT_TOLERANCE,
    ResidualCheck,
    Tolerance,
    _orthonormal,
    _rank_of,
    _store_read_only,
    as_matrix,
    eigh,
    frobenius_norm,
    kernels_from_solves,
    norm_lower_bound,
    singular_system,
    singular_values,
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


def _half_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b / 2 as a fresh read-only array."""
    h = 0.5 * (a @ b)
    h.flags.writeable = False
    return h


@dataclass(frozen=True, eq=False)
class PseudoSusySystem:
    """The graded system generated by D: plus sector -> minus sector.

    D, D# and the two metrics are its data, and it holds nothing else. D must
    be (n-, n+) and D# (n+, n-) for the metric dimensions n+ and n-
    (ValueError otherwise). H+ = D# D / 2 and H- = D D# / 2 are properties:
    each access forms a fresh read-only array from D and D#, so
    `dataclasses.replace` that changes D or D# changes them too, and they
    cannot be passed in or assigned. Construction raises NumericalFailure
    when either is not finite, without forming them when
    ||D#||_F ||D||_F certifies that both are. D and D# are held as read-only
    views, so no write in place can change them; the caller's arrays keep
    their own flags.
    """

    d: np.ndarray
    d_sharp: np.ndarray
    eta_plus: EtaOperator
    eta_minus: EtaOperator

    def __post_init__(self) -> None:
        n_plus, n_minus = self.eta_plus.dim, self.eta_minus.dim
        if np.shape(self.d) != (n_minus, n_plus) or np.shape(self.d_sharp) != (n_plus, n_minus):
            raise ValueError(
                f"D of shape {np.shape(self.d)} and D# of shape {np.shape(self.d_sharp)} "
                f"do not fit metrics of dims {n_plus} -> {n_minus}"
            )
        _store_read_only(self, d=self.d, d_sharp=self.d_sharp)
        # Every entry and partial sum of D# D and D D# is at most
        # ||D#||_F ||D||_F; the factor 4 covers rounding and complex
        # arithmetic. A NaN or infinite bound forms both products.
        bound = frobenius_norm(self.d_sharp) * frobenius_norm(self.d)
        if not bound <= np.finfo(float).max / 4:
            with np.errstate(over="ignore", invalid="ignore"):  # decided by the test below
                finite = np.all(np.isfinite(self.h_plus)) and np.all(np.isfinite(self.h_minus))
            if not finite:
                raise NumericalFailure("H+ = D# D / 2 or H- = D D# / 2 is not finite")

    @property
    def h_plus(self) -> np.ndarray:
        """H+ = D# D / 2, formed anew on each access (read-only)."""
        return _half_product(self.d_sharp, self.d)

    @property
    def h_minus(self) -> np.ndarray:
        """H- = D D# / 2, formed anew on each access (read-only)."""
        return _half_product(self.d, self.d_sharp)

    @property
    def dim_plus(self) -> int:
        return self.eta_plus.dim

    @property
    def dim_minus(self) -> int:
        return self.eta_minus.dim


@dataclass(frozen=True)
class WittenReport:
    """Zero-mode counts, Betti numbers, and the index identity they feed.

    With r the numerical rank of D, n+ and n- the sector dimensions, and z+
    (z-) the number of metric-null directions of ker D (ker D#):
    d0_plus = n+ - r + z-, d0_minus = n- - r + z+, ker_d = n+ - r,
    ker_d_dagger = n- - r, betti_plus = n+ - r - z+ and
    betti_minus = n- - r - z-, so no count is negative. delta =
    d0_plus - d0_minus equals betti_plus - betti_minus by construction, and
    `analytic_index_d` = ker_d - ker_d_dagger equals dim_plus - dim_minus by
    rank-nullity; `delta_equals_analytic_d` is the index theorem, which holds
    whenever `non_null_kernels` does.

    Every count and flag is the one D's SVD gives, whether `witten_index`
    read the kernels from two certified LU solves (a square, singular D) or
    from that SVD. `checks`: `kernel_complex` (the kernel maps composed both
    ways) against max(atol, rtol max(n+, n-) (1 + ||D|| + ||D#||)), with
    `norm_lower_bound` scales; its value is rounding in the kernel
    coordinates, so its digits depend on which way they were found.
    """

    d0_plus: int
    d0_minus: int
    delta: int
    ker_d: int
    ker_d_dagger: int
    betti_plus: int
    betti_minus: int
    analytic_index_d: int
    non_null_plus: bool
    non_null_minus: bool
    checks: tuple[ResidualCheck, ...]

    @property
    def non_null_kernels(self) -> bool:
        return self.non_null_plus and self.non_null_minus

    @property
    def delta_equals_analytic_d(self) -> bool:
        return self.delta == self.analytic_index_d


def assemble(
    d, eta_plus: EtaOperator, eta_minus: EtaOperator
) -> PseudoSusySystem:
    """Build the graded system generated by D: plus sector -> minus sector.

    Rows of D live in the minus sector, columns in the plus sector; a D of
    any other shape raises ValueError. The system holds its own copy of D.
    """
    d = as_matrix(d).copy()
    return PseudoSusySystem(d, pseudo_adjoint(d, eta_plus, eta_minus), eta_plus, eta_minus)


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


def verify_algebra(
    psys: PseudoSusySystem,
    tol: Tolerance = DEFAULT_TOLERANCE,
    generators: Sequence[np.ndarray] | None = None,
) -> tuple[ResidualCheck, ...]:
    """Checks of the extended algebra of `generators`, report-only.

    The relations of the system's own Q, Q# and H hold by construction (see
    the module docstring), so without `generators` there is nothing to check
    and the result is empty.

    `generators` is a list of D-like maps sharing the metrics; each D_i# is
    rebuilt from the metrics, so even D_1 = psys.d can fail when psys.d_sharp
    is not its pseudo-adjoint. The relations {Q_i, Q_j#} = 2 delta_ij H
    (`extended[i,j]`) are checked, with A_ij = {Q_i, Q_j#} =
    diag(D_j# D_i, D_i D_j#). So are those of the associated pseudo-Hermitian
    combinations Q1 = (Q + Q#)/sqrt(2), Q2 = (Q - Q#)/(sqrt(2) i), which obey
    {Qa_i, Qb_j} = 2 delta_ij delta_ab H (`hermitian_combo[i.a,j.b]`). With
    R_ij = A_ij - 2 delta_ij H, the relation for a = b is (R_ij + R_ji)/2
    for both a, and {Q1_i, Q2_j} = -{Q2_i, Q1_j} = (R_ji - R_ij)/(2i), which
    is 0 for i = j. So only `[i.1,j.1]` for all i, j and `[i.1,j.2]` for
    i != j are distinct, and only they are reported.

    Every value is a Frobenius norm (of both sector blocks together). The
    threshold scales are `norm_lower_bound`s: ||Q_i|| = ||D_i||,
    ||Q_i#|| = ||D_i#||, ||Q1_i|| = ||Q2_i|| = max(||D_i||, ||D_i#||)/sqrt(2),
    and ||H|| is the larger of the two sector bounds.
    """
    if generators is None:
        return ()
    hp, hm = psys.h_plus, psys.h_minus
    hscale = 1.0 + max(_scale(hp), _scale(hm))
    maps = [
        (g, pseudo_adjoint(g, psys.eta_plus, psys.eta_minus))
        for g in map(as_matrix, generators)
    ]
    norms = [(_scale(g), _scale(gs)) for g, gs in maps]
    # sector blocks of R_ij = {Q_i, Q_j#} - 2 delta_ij H
    res = {}
    for (i, (g, _)), (j, (_, gs)) in product(enumerate(maps), repeat=2):
        shift = 2.0 if i == j else 0.0
        res[i, j] = (gs @ g - shift * hp, g @ gs - shift * hm)
    checks = [
        ResidualCheck(
            f"extended[{i + 1},{j + 1}]",
            _sector_residual(*res[i, j]),
            tol.rtol * (1.0 + norms[i][0]) * (1.0 + norms[j][1]) * hscale,
        )
        for i, j in res
    ]
    combo_scale = [1.0 + max(n) / np.sqrt(2.0) for n in norms]
    for i, j, b in product(range(len(maps)), range(len(maps)), (1, 2)):
        if b == 2 and i == j:
            continue
        (pij, mij), (pji, mji) = res[i, j], res[j, i]
        sign = 1.0 if b == 1 else -1.0
        checks.append(
            ResidualCheck(
                f"hermitian_combo[{i + 1}.1,{j + 1}.{b}]",
                0.5 * _sector_residual(pij + sign * pji, mij + sign * mji),
                tol.rtol * combo_scale[i] * combo_scale[j] * hscale,
            )
        )
    return tuple(checks)


def _restricted_form(basis: np.ndarray, eta: EtaOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian part of
    basis^H eta basis."""
    restricted = basis.conj().T @ eta.matrix @ basis
    return eigh(0.5 * (restricted + restricted.conj().T))


def _possibly_null(
    basis: np.ndarray, eta: EtaOperator, tol: Tolerance, angle: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moduli and eigenvectors of the eigenvalues of the restricted form of
    eta on `basis` (orthonormal, not empty), and which of them may be null.

    A direction is null when its eigenvalue has modulus at most
    atol ||eta||_2. ||eta||_F bounds ||eta||_2 from above, so an eigenvalue
    above atol ||eta||_F (1 + n^2 eps), which covers the rounding of both
    norms, is not null. When `basis` is only within sine theta <= `_ANGLE_MAX`
    of the subspace it stands for, the cutoff widens by
    (2 theta + 2 theta^2) ||eta||_F, since the two subspaces' eigenvalues
    then differ by at most (2 theta + 2 theta^2) ||eta||_2; an SVD basis has
    theta = 0. The caller decides what a possibly-null eigenvalue means.
    """
    values, vectors = _restricted_form(basis, eta)
    size = np.abs(values)
    cutoff = tol.atol * (1.0 + eta.dim**2 * _EPS) + 2.0 * angle * (1.0 + angle)
    return size, vectors, size <= cutoff * frobenius_norm(eta.matrix)


def _null_modes(basis: np.ndarray, eta: EtaOperator, tol: Tolerance) -> np.ndarray:
    """Coordinates of the metric-null directions of span(basis), one column
    each; `basis` has orthonormal columns. The exact `eta.norm` (an SVD)
    settles the eigenvalues `_possibly_null` marks, so the count is
    basis-independent."""
    if basis.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    size, vectors, null = _possibly_null(basis, eta, tol)
    if null.any():
        null = size <= tol.atol * eta.norm
    return vectors[:, null]


def _non_null(kernel: np.ndarray, eta: EtaOperator, tol: Tolerance) -> bool:
    """True when eta restricted to span(kernel) has no null direction
    (`_null_modes`); an empty kernel passes."""
    return _null_modes(kernel, eta, tol).shape[1] == 0


# Largest angle bound at which `_kernels` uses a basis from the solves: up to
# it, orthonormal bases of two subspaces at angle sine theta can be aligned to
# within theta + theta^3, the alignment `_possibly_null`'s widening rests on.
_ANGLE_MAX = 0.25


def _sectors(
    psys: PseudoSusySystem, w: np.ndarray, w_sharp: np.ndarray, theta: float
) -> tuple[tuple[np.ndarray, EtaOperator, float], tuple[np.ndarray, EtaOperator, float]]:
    """(basis, metric, angle bound) of ker D and of ker D# from orthonormal
    bases W of ker D and W# of ker D^H within sine theta of them: W, and
    K# = orth(eta-^-1 W#) within theta ||eta-||_F ||eta-^-1||_F, since an
    invertible map widens the sine of an angle by at most its condition
    number. eta-^-1 is read once, for both uses."""
    eta_minus = psys.eta_minus
    eta_minus_inv = eta_minus.inverse
    k_sharp = _orthonormal(eta_minus_inv @ w_sharp)
    widened = theta * frobenius_norm(eta_minus.matrix) * frobenius_norm(eta_minus_inv)
    return (w, psys.eta_plus, theta), (k_sharp, eta_minus, widened)


def _kernels(
    psys: PseudoSusySystem,
    tol: Tolerance,
    s: np.ndarray | None = None,
    r: int | None = None,
) -> tuple[int, np.ndarray, np.ndarray, bool, bool]:
    """rank(D), orthonormal bases of ker H+ and ker H-, and whether eta+ and
    eta- are non-null on them (`_non_null`).

    Both sources of kernel bases take the same steps: W and W#, then K#
    (`_sectors`), then one restricted-form test per sector
    (`_possibly_null`). For a square D the caller passes D's singular values
    `s` and its rank r under `rank`'s cutoff, and when 0 < r the first source
    is `kernels_from_solves`. Its bases are kept when both angles are at most
    `_ANGLE_MAX` and no eigenvalue may be null: then neither kernel has a
    metric-null direction, as with the SVD's bases, so ker H+- are ker D and
    ker D#, and every count and flag is the SVD's. Otherwise, and for a
    rectangular D, r = 0, or a solve with an exact zero pivot or a result
    that is not finite, the source is one full SVD of D (theta = 0), and the
    exact `eta.norm` settles each possibly-null eigenvalue (`_null_modes`).
    A square D keeps the caller's r there.

    With D = U S V^H of numerical rank r, W = V_perp = V[:, r:] and
    W# = U[:, r:]. ker H+ = ker(D# D) is ker D plus the preimage under D of
    ker D# & range D, and that intersection is spanned by the metric-null
    directions of K# (eta_minus K# spans ker D^H, the orthogonal complement
    of range D); its preimage is D^+ = V_r S_r^-1 U_r^H applied to them.
    Likewise ker H- is K# plus the preimage under D# of ker D & range D#,
    the metric-null directions x of V_perp, taken back by
    eta_minus^-1 U_r S_r^-1 V_r^H eta_plus x. Without null directions the
    kernels are V_perp and K#, and no basis is widened.

    The flags cost no second restricted form where the bases' forms are
    already known: bases from the solves passed the test, and a basis that
    was not widened is non-null when its own null directions are none. Only
    a widened basis takes `_non_null` anew.
    """
    found = kernels_from_solves(psys.d, s, r) if s is not None and r > 0 else None
    if found is not None:
        sectors = _sectors(psys, *found)
        (w, _, _), (k_sharp, _, _) = sectors
        if all(
            angle <= _ANGLE_MAX and not _possibly_null(basis, eta, tol, angle)[2].any()
            for basis, eta, angle in sectors
        ):
            return r, w, k_sharp, True, True
    u, s, vh, svd_rank = singular_system(psys.d, tol)
    r = svd_rank if r is None else r
    sectors = _sectors(psys, vh[r:].conj().T, u[:, r:], 0.0)
    (v_perp, eta_plus, _), (k_sharp, eta_minus, _) = sectors
    null_plus, null_minus = (basis @ _null_modes(basis, eta, tol) for basis, eta, _ in sectors)
    k_plus, k_minus = v_perp, k_sharp
    non_null_plus, non_null_minus = null_plus.shape[1] == 0, null_minus.shape[1] == 0
    inv_s = 1.0 / s[:r, None]
    if null_minus.shape[1]:
        preimage = vh[:r].conj().T @ (inv_s * (u[:, :r].conj().T @ null_minus))
        k_plus = _orthonormal(np.hstack([v_perp, preimage]))
        non_null_plus = _non_null(k_plus, eta_plus, tol)
    if null_plus.shape[1]:
        preimage = eta_minus.inverse @ (
            u[:, :r] @ (inv_s * (vh[:r] @ (eta_plus.matrix @ null_plus)))
        )
        k_minus = _orthonormal(np.hstack([k_sharp, preimage]))
        non_null_minus = _non_null(k_minus, eta_minus, tol)
    return r, k_plus, k_minus, non_null_plus, non_null_minus


def witten_index(
    psys: PseudoSusySystem, tol: Tolerance = DEFAULT_TOLERANCE
) -> WittenReport:
    """Count zero modes of the partners and evaluate the index identities.

    r is the numerical rank of D under `rank`'s cutoff. A square D takes its
    singular values once: they give r, and when 0 < r < n two LU solves give
    bases of ker D and ker D#. `_kernels` keeps them when its null test
    certifies them and takes one full SVD of D otherwise, as it does for a
    rectangular D, so every count and flag is the one that SVD gives.
    ker D lies in ker H+ and ker D# in ker H-, so ker D0 = ker D and
    ker D0# = ker D# for the restrictions D0, D0# of D and D# to the kernels
    of H+ and H-. D0 has rank z- = dim ker H+ - (n+ - r),
    the number of metric-null directions of ker D#, and D0# has rank z+, that
    of ker D; the Betti numbers of the complex are n+ - r - z+ and
    n- - r - z-, never negative. When r = n+ = n-, D is invertible, every
    kernel is empty, and the singular values alone decide.

    The restricted maps compose to zero both ways; `kernel_complex` reports
    how far from zero they come in the computed kernel coordinates.
    """
    d, n_plus, n_minus = psys.d, psys.dim_plus, psys.dim_minus
    s = rank_d = None
    if n_plus == n_minus:
        s = singular_values(d)
        rank_d = _rank_of(s, d.shape, tol)
    if rank_d == n_plus:
        k_plus = k_minus = np.zeros((n_plus, 0), dtype=complex)
        non_null_plus = non_null_minus = True
    else:
        rank_d, k_plus, k_minus, non_null_plus, non_null_minus = _kernels(psys, tol, s, rank_d)
    d0_plus = k_plus.shape[1]
    d0_minus = k_minus.shape[1]
    ker_d = n_plus - rank_d
    ker_d_dagger = n_minus - rank_d

    guard = max(
        tol.atol,
        tol.rtol * max(n_plus, n_minus) * (1.0 + _scale(d) + _scale(psys.d_sharp)),
    )
    d0_coords = k_minus.conj().T @ d @ k_plus
    d0_flat_coords = k_plus.conj().T @ psys.d_sharp @ k_minus
    complex_residual = max(
        frobenius_norm(d0_coords @ d0_flat_coords),
        frobenius_norm(d0_flat_coords @ d0_coords),
    )

    return WittenReport(
        d0_plus=d0_plus,
        d0_minus=d0_minus,
        delta=d0_plus - d0_minus,
        ker_d=ker_d,
        ker_d_dagger=ker_d_dagger,
        betti_plus=ker_d - (d0_minus - ker_d_dagger),
        betti_minus=ker_d_dagger - (d0_plus - ker_d),
        analytic_index_d=ker_d - ker_d_dagger,
        non_null_plus=non_null_plus,
        non_null_minus=non_null_minus,
        checks=(ResidualCheck("kernel_complex", complex_residual, guard),),
    )


def from_factorization(fact: Factorization) -> PseudoSusySystem:
    """Promote a factorization to the graded system with D = sqrt(2) L.

    The partner Hamiltonians then reproduce the factored pair: H+ = L# L and
    H- = L L#. D# = sqrt(2) L#, from a fresh L# scaled in place, so it has
    the bits of sqrt(2) * fact.lsharp without a second n x n array.
    """
    root2 = np.sqrt(2.0)
    d_sharp = pseudo_adjoint(fact.matrix, fact.eta1, fact.eta2)
    d_sharp *= root2
    return PseudoSusySystem(root2 * fact.matrix, d_sharp, fact.eta1, fact.eta2)
