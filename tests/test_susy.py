from dataclasses import replace

import numpy as np
import pytest

from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.metric import EtaOperator
from pseudoherm.spectral import decompose
from pseudoherm.susy import (
    assemble,
    from_factorization,
    null_kernel_check,
    verify_algebra,
    witten_index,
)
from pseudoherm.twolevel import TwoLevelParams, closed_form_system

from support import (
    engineered_rank_map,
    match_value_multisets,
    matrix_with_spectrum,
    positive_definite,
    well_conditioned,
)


def random_susy_system(rng, rows=None, cols=None, deficiency=None):
    rows = int(rng.integers(2, 7)) if rows is None else rows
    cols = int(rng.integers(2, 7)) if cols is None else cols
    if deficiency is None:
        deficiency = int(rng.integers(0, min(rows, cols)))
    d = engineered_rank_map(rows, cols, deficiency, rng)
    eta_p = EtaOperator.from_matrix(positive_definite(cols, rng))
    eta_m = EtaOperator.from_matrix(positive_definite(rows, rng))
    return assemble(d, eta_p, eta_m)


class TestAssemble:
    def test_zero_map(self):
        psys = assemble(np.zeros((2, 2)), EtaOperator.identity(2), EtaOperator.identity(2))
        assert np.allclose(psys.h_plus, 0.0)
        assert np.allclose(psys.h_minus, 0.0)
        assert np.linalg.norm(psys.q @ psys.q, 2) == 0.0

    def test_oscillator_spin_partners(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        fact = canonical_factorization(osc, spin)
        psys = assemble(np.sqrt(2.0) * fact.matrix, fact.eta1, fact.eta2)
        assert np.allclose(psys.h_plus, np.array([[0, 1j], [-4j, 0]]), atol=1e-12)
        assert np.allclose(psys.h_minus, np.diag([2.0, -2.0]), atol=1e-12)

    def test_identity_metrics_give_hermitian_partners(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        psys = assemble(d, EtaOperator.identity(4), EtaOperator.identity(3))
        assert np.allclose(psys.h_plus, 0.5 * d.conj().T @ d, atol=1e-14)
        assert np.allclose(psys.h_minus, 0.5 * d @ d.conj().T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(psys.h_plus)) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble(np.zeros((2, 3)), EtaOperator.identity(2), EtaOperator.identity(2))

    def test_block_layout(self):
        rng = np.random.default_rng(1)
        psys = random_susy_system(rng, rows=3, cols=2)
        assert psys.q.shape == (5, 5)
        assert np.allclose(psys.q[2:, :2], psys.d)
        assert np.allclose(psys.tau, np.diag([1, 1, -1, -1, -1]))


class TestVerifyAlgebra:
    def test_q_squared_exactly_zero(self):
        rng = np.random.default_rng(2)
        psys = random_susy_system(rng)
        report = verify_algebra(psys)
        assert report["q_squared"].value == 0.0
        assert report["q_sharp_squared"].value == 0.0

    def test_oscillator_spin_residuals(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        psys = from_factorization(canonical_factorization(osc, spin))
        report = verify_algebra(psys)
        assert report.passed
        assert all(c.value <= 1e-10 for c in report.checks)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems_pass(self, seed):
        rng = np.random.default_rng(seed)
        report = verify_algebra(random_susy_system(rng))
        assert report.passed

    def test_scaled_generator_breaks_extended_algebra(self):
        # Q2 = i Q1 gives {Q1, Q2#} = -2iH, which is nonzero
        rng = np.random.default_rng(3)
        psys = random_susy_system(rng, rows=3, cols=3, deficiency=1)
        report = verify_algebra(psys, generators=[psys.d, 1j * psys.d])
        cross = report["extended[1,2]"]
        assert not cross.passed
        assert cross.value == pytest.approx(
            2.0 * np.linalg.norm(psys.h, 2), rel=1e-6
        )

    def test_single_generator_extended_algebra_passes(self):
        rng = np.random.default_rng(4)
        psys = random_susy_system(rng)
        report = verify_algebra(psys, generators=[psys.d])
        assert report.passed

    def test_two_null_generators_pass_on_vanishing_h(self):
        # with indefinite metrics a nonzero D can satisfy D# D = D D# = 0;
        # then D and iD generate a consistent (H = 0) extended algebra
        eta = EtaOperator.from_matrix(np.diag([1.0, -1.0]))
        d = np.array([[1.0, 1.0], [1.0, 1.0]])
        psys = assemble(d, eta, eta)
        assert np.allclose(psys.h_plus, 0.0)
        report = verify_algebra(psys, generators=[d, 1j * d])
        assert report.passed


def _rank_one(rows, cols, norm, rng):
    u = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    v = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    return norm * np.outer(u, v.conj()) / (np.linalg.norm(u) * np.linalg.norm(v))


def _entry(rows, cols, i, j, value):
    e = np.zeros((rows, cols), dtype=complex)
    e[i, j] = value
    return e


EPS = 1e-3
P, M = slice(0, 3), slice(3, 5)  # plus and minus blocks of the 5 x 5 system
# (field, block, perturbation, check, expected residual). D maps the 3-dim
# plus sector to the 2-dim minus sector with identity metrics, so
# H+ = diag(0.5, 2, 0), H- = diag(0.5, 2) and every residual starts at 0.
PLANTS = [
    ("h_plus", None, _rank_one(3, 3, EPS, np.random.default_rng(0)),
     "susy_anticommutator", 2 * EPS),
    ("h_minus", None, _rank_one(2, 2, EPS, np.random.default_rng(1)),
     "susy_anticommutator", 2 * EPS),
    # E H+ - H- E for E = eps e0 e1^T is eps (2 - 0.5) e0 e1^T
    ("d", None, _entry(2, 3, 0, 1, EPS), "intertwine_plus", 1.5 * EPS),
    ("d", None, _entry(2, 3, 0, 1, EPS), "hamiltonian_commutes", 1.5 * EPS),
    ("d_sharp", None, _entry(3, 2, 1, 0, EPS), "intertwine_minus", 1.5 * EPS),
    # an upper-right block E of Q gives Q^2 = diag(E D, D E); E = eps e2 e0^T
    # has D E = 0 (e2 spans ker D) and E D = eps e2 e0^T, and likewise for Q#
    ("q", (P, M), _entry(3, 2, 2, 0, EPS), "q_squared", EPS),
    ("q_sharp", (M, P), _entry(2, 3, 0, 2, EPS), "q_sharp_squared", EPS),
    ("q", (P, P), _rank_one(3, 3, EPS, np.random.default_rng(2)), "grading", 2 * EPS),
    ("q", (M, M), _rank_one(2, 2, EPS, np.random.default_rng(3)), "grading", 2 * EPS),
    ("eta", (P, M), _rank_one(3, 2, EPS, np.random.default_rng(4)), "eta_even", 2 * EPS),
]


class TestVerifyAlgebraPerSector:
    @pytest.mark.parametrize(
        "field,block,perturbation,name,expected",
        PLANTS,
        ids=[f"{p[3]}-{p[0]}-{i}" for i, p in enumerate(PLANTS)],
    )
    def test_planted_perturbation_is_reported(
        self, field, block, perturbation, name, expected
    ):
        d = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        psys = assemble(d, EtaOperator.identity(3), EtaOperator.identity(2))
        assert all(c.value == 0.0 for c in verify_algebra(psys).checks)
        planted = getattr(psys, field).copy()
        planted[block if block is not None else ...] += perturbation
        report = verify_algebra(replace(psys, **{field: planted}))
        assert report[name].value == pytest.approx(expected, rel=1e-9)
        assert not report[name].passed


class TestNullKernelCheck:
    def test_identity_metric_never_null(self):
        rng = np.random.default_rng(5)
        d = engineered_rank_map(3, 3, 2, rng)
        psys = assemble(d, EtaOperator.identity(3), EtaOperator.identity(3))
        status = null_kernel_check(psys)
        assert status.plus and status.minus

    def test_indefinite_nondegenerate_restriction_is_non_null(self):
        # kernel restriction of the swap metric has eigenvalues +/- 1
        eta = EtaOperator.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        psys = assemble(np.zeros((2, 2)), eta, eta)
        status = null_kernel_check(psys)
        assert status.plus and status.minus

    def test_degenerate_restriction_is_null(self):
        # anti-diagonal metric restricted to ker H- = span(e2, e3) is singular
        anti = np.zeros((3, 3))
        anti[0, 2] = anti[2, 0] = anti[1, 1] = 1.0
        eta_m = EtaOperator.from_matrix(anti)
        eta_p = EtaOperator.identity(1)
        d = np.array([[0.0], [0.0], [1.0]])
        psys = assemble(d, eta_p, eta_m)
        assert np.allclose(psys.h_minus @ np.array([0, 1.0, 0]), 0.0)
        status = null_kernel_check(psys)
        assert not status.minus

    def test_quadratic_form_signs(self):
        # one-dimensional kernel: the check reduces to |<v, eta v>| > 0
        eta_m = EtaOperator.from_matrix(np.diag([1.0, -1.0]))
        d = np.array([[1.0], [0.0]])
        psys = assemble(d, EtaOperator.identity(1), eta_m)
        status = null_kernel_check(psys)
        assert status.minus


class TestWittenIndex:
    def test_diagonal_example(self):
        psys = assemble(
            np.diag([0.0, 1.0]), EtaOperator.identity(2), EtaOperator.identity(2)
        )
        wit = witten_index(psys)
        assert (wit.d0_plus, wit.d0_minus, wit.delta) == (1, 1, 0)
        assert wit.ker_d == wit.ker_d_dagger == 1
        assert wit.delta_equals_betti
        assert wit.delta_equals_analytic_d

    def test_full_rank_rectangular(self):
        rng = np.random.default_rng(6)
        d = engineered_rank_map(2, 3, 0, rng)
        psys = assemble(d, EtaOperator.identity(3), EtaOperator.identity(2))
        wit = witten_index(psys)
        assert (wit.d0_plus, wit.d0_minus) == (1, 0)
        assert wit.delta == 1
        assert wit.analytic_index_d == 1
        assert wit.non_null_kernels

    @pytest.mark.parametrize("seed", range(10))
    def test_identities_on_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        psys = random_susy_system(rng)
        wit = witten_index(psys)
        assert wit.delta == wit.d0_plus - wit.d0_minus
        assert wit.delta == wit.betti_plus - wit.betti_minus
        assert wit.delta_equals_betti
        if wit.non_null_kernels:
            assert wit.delta == wit.ker_d - wit.ker_d_dagger
        assert wit.complex_residual <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_invariance_under_deformation(self, seed):
        rng = np.random.default_rng(50 + seed)
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        d = engineered_rank_map(rows, cols, 1, rng)
        eta_p = EtaOperator.from_matrix(positive_definite(cols, rng))
        eta_m = EtaOperator.from_matrix(positive_definite(rows, rng))
        delta0 = witten_index(assemble(d, eta_p, eta_m)).delta
        for _ in range(5):
            s_p = well_conditioned(cols, rng)
            s_m = well_conditioned(rows, rng)
            d2 = s_m @ d @ np.linalg.inv(s_p)
            eta_p2 = EtaOperator.from_matrix(
                np.linalg.inv(s_p).conj().T @ eta_p.matrix @ np.linalg.inv(s_p)
            )
            eta_m2 = EtaOperator.from_matrix(
                np.linalg.inv(s_m).conj().T @ eta_m.matrix @ np.linalg.inv(s_m)
            )
            assert witten_index(assemble(d2, eta_p2, eta_m2)).delta == delta0

    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_spectra_of_partners_agree(self, seed):
        rng = np.random.default_rng(30 + seed)
        psys = random_susy_system(rng)
        tol = 1e-6
        ev_p = [z for z in np.linalg.eigvals(psys.h_plus) if abs(z) > tol]
        ev_m = [z for z in np.linalg.eigvals(psys.h_minus) if abs(z) > tol]
        assert match_value_multisets(ev_p, ev_m) <= 1e-7


class TestFromFactorization:
    def test_hermitian_self(self):
        sys = decompose(np.diag([1.0, 4.0]))
        psys = from_factorization(self_factorization(sys))
        assert np.allclose(psys.h_plus, np.diag([1.0, 4.0]), atol=1e-12)
        assert np.allclose(psys.h_minus, np.diag([1.0, 4.0]), atol=1e-12)
        assert witten_index(psys).delta == 0

    def test_oscillator_spin(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        psys = from_factorization(canonical_factorization(osc, spin))
        assert np.allclose(psys.h_plus, np.array([[0, 1j], [-4j, 0]]), atol=1e-12)
        assert np.allclose(psys.h_minus, np.diag([2.0, -2.0]), atol=1e-12)

    def test_singular_spectrum_kernels(self):
        rng = np.random.default_rng(8)
        h = matrix_with_spectrum([0.0, 1.0], rng)
        psys = from_factorization(self_factorization(decompose(h)))
        wit = witten_index(psys)
        assert (wit.d0_plus, wit.d0_minus, wit.delta) == (1, 1, 0)

    def test_intertwining_relations_hold(self):
        rng = np.random.default_rng(9)
        h = matrix_with_spectrum([1.0, -1.0, 2 + 1j, 2 - 1j], rng)
        psys = from_factorization(self_factorization(decompose(h)))
        report = verify_algebra(psys)
        assert report["intertwine_plus"].passed
        assert report["intertwine_minus"].passed


class TestBlockSpectrum:
    @pytest.mark.parametrize("seed", range(4))
    def test_block_hamiltonian_spectrum_is_paired(self, seed):
        # H is pseudo-Hermitian for the block metric, so its spectrum must be
        # real or conjugate-paired even when the metrics are indefinite
        from pseudoherm.spectral import TAG_UNPAIRABLE, classify_spectrum

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        signs = np.diag(rng.choice([-1.0, 1.0], size=n))
        eta = EtaOperator.from_matrix(signs)
        psys = assemble(d, eta, eta)
        sys_ = decompose(psys.h)
        assert classify_spectrum(sys_).tag != TAG_UNPAIRABLE
