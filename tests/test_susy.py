from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest

from pseudoherm.errors import NumericalFailure
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.linalg import DEFAULT_TOLERANCE
from pseudoherm.metric import EtaOperator
from pseudoherm.spectral import decompose
from pseudoherm.susy import (
    PseudoSusySystem,
    assemble,
    from_factorization,
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

    def test_stores_only_sector_matrices(self):
        assert [f.name for f in fields(PseudoSusySystem)] == [
            "d", "d_sharp", "eta_plus", "eta_minus", "h_plus", "h_minus"
        ]

    def test_structural_relations_exact_on_views(self):
        rng = np.random.default_rng(11)
        psys = random_susy_system(rng, rows=4, cols=3)
        q, qs, tau, eta = psys.q, psys.q_sharp, psys.tau, psys.eta
        for zero in (q @ q, qs @ qs, tau @ q + q @ tau, eta @ tau - tau @ eta):
            assert zero.shape == (7, 7)
            assert not np.any(zero)


class TestVerifyAlgebra:
    def test_q_squared_exactly_zero(self):
        rng = np.random.default_rng(2)
        psys = random_susy_system(rng)
        q, q_sharp = psys.q, psys.q_sharp
        assert not np.any(q @ q)
        assert not np.any(q_sharp @ q_sharp)

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


def _indefinite_metric(n, rng):
    """Hermitian invertible metric with both signs in its inertia."""
    s = well_conditioned(n, rng)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return EtaOperator.from_matrix(s.conj().T @ np.diag(signs) @ s)


def _dense_extended_reference(psys, generators, tol):
    """(name, value, threshold) of every extended and hermitian_combo
    relation, evaluated on dense (n+m)-sized block matrices."""
    p, m = psys.dim_plus, psys.dim_minus

    def blocks(plus, upper, lower, minus):
        return np.block([[plus, upper], [lower, minus]])

    zpp, zpm = np.zeros((p, p)), np.zeros((p, m))
    zmp, zmm = np.zeros((m, p)), np.zeros((m, m))
    h = blocks(psys.h_plus, zpm, zmp, psys.h_minus)
    hscale = 1.0 + np.linalg.norm(h, 2)
    qs = []
    for g in generators:
        g_sharp = psys.eta_plus.inverse @ g.conj().T @ psys.eta_minus.matrix
        qs.append((blocks(zpp, zpm, g, zmm), blocks(zpp, g_sharp, zmp, zmm)))

    def norm(x):
        return np.linalg.norm(x, 2)

    def anti(a, b):
        return a @ b + b @ a

    out = []
    for (i, (qi, _)), (j, (_, qjs)) in product(enumerate(qs, 1), repeat=2):
        target = 2.0 * h if i == j else 0.0
        out.append((
            f"extended[{i},{j}]",
            norm(anti(qi, qjs) - target),
            tol.rtol * (1.0 + norm(qi)) * (1.0 + norm(qjs)) * hscale,
        ))
    combos = [
        ((qi + qis) / np.sqrt(2.0), (qi - qis) / (np.sqrt(2.0) * 1j))
        for qi, qis in qs
    ]
    for i, a, j, b in product(range(len(qs)), (0, 1), range(len(qs)), (0, 1)):
        qa, qb = combos[i][a], combos[j][b]
        target = 2.0 * h if (i == j and a == b) else 0.0
        out.append((
            f"hermitian_combo[{i + 1}.{a + 1},{j + 1}.{b + 1}]",
            norm(anti(qa, qb) - target),
            tol.rtol * (1.0 + norm(qa)) * (1.0 + norm(qb)) * hscale,
        ))
    return out


def _reference_cases():
    rng = np.random.default_rng(12)
    # rectangular D, indefinite metrics, three generators: D itself, i D
    # (fails every cross relation) and a perturbed copy of D
    d = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    psys = assemble(d, _indefinite_metric(2, rng), _indefinite_metric(3, rng))
    yield psys, [psys.d, 1j * psys.d, psys.d + 1e-3 * rng.standard_normal((3, 2))]
    # square D with two generators, D and its negative
    d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psys = assemble(d, _indefinite_metric(4, rng), _indefinite_metric(4, rng))
    yield psys, [psys.d, -psys.d]
    # D = u w^H with u null for eta_minus and w null for eta_plus^-1, so
    # D# D = D D# = 0 and every relation among D, i D and 2 D holds
    eta_p = EtaOperator.from_matrix(np.diag([1.0, -1.0]))
    eta_m = EtaOperator.from_matrix(np.diag([1.0, -1.0, 1.0]))
    d = np.outer([1.0, 1.0, 0.0], [1.0, 1.0])
    psys = assemble(d, eta_p, eta_m)
    yield psys, [psys.d, 1j * psys.d, 2.0 * psys.d]


def _rank_one(rows, cols, norm, rng):
    u = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    v = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
    return norm * np.outer(u, v.conj()) / (np.linalg.norm(u) * np.linalg.norm(v))


def _entry(rows, cols, i, j, value):
    e = np.zeros((rows, cols), dtype=complex)
    e[i, j] = value
    return e


EPS = 1e-3
# (field, perturbation, check, expected residual). D maps the 3-dim
# plus sector to the 2-dim minus sector with identity metrics, so
# H+ = diag(0.5, 2, 0), H- = diag(0.5, 2) and every residual starts at 0.
PLANTS = [
    ("h_plus", _rank_one(3, 3, EPS, np.random.default_rng(0)),
     "susy_anticommutator", 2 * EPS),
    ("h_minus", _rank_one(2, 2, EPS, np.random.default_rng(1)),
     "susy_anticommutator", 2 * EPS),
    # E H+ - H- E for E = eps e0 e1^T is eps (2 - 0.5) e0 e1^T
    ("d", _entry(2, 3, 0, 1, EPS), "intertwine_plus", 1.5 * EPS),
    ("d_sharp", _entry(3, 2, 1, 0, EPS), "intertwine_minus", 1.5 * EPS),
]


class TestExtendedAlgebraReference:
    @pytest.mark.parametrize("case", range(3))
    def test_sector_relations_match_dense_blocks(self, case):
        psys, generators = list(_reference_cases())[case]
        tol = DEFAULT_TOLERANCE
        report = verify_algebra(psys, tol, generators=generators)
        reference = _dense_extended_reference(psys, generators, tol)
        extended = report.checks[3:]
        assert [c.name for c in extended] == [r[0] for r in reference]
        for check, (name, value, threshold) in zip(extended, reference):
            assert check.threshold == pytest.approx(threshold, rel=1e-12), name
            assert check.passed == (value <= threshold), name
            assert abs(check.value - value) <= 1e-13 * threshold / tol.rtol, name
        if case == 0:
            assert not report.passed
        if case == 2:
            assert report.passed

    def test_pipeline_builds_no_block_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an (n+m)-sized block matrix was built")

        monkeypatch.setattr(PseudoSusySystem, "_blocks", refuse)
        monkeypatch.setattr(np, "block", refuse)
        rng = np.random.default_rng(13)
        h = matrix_with_spectrum([0.0, 1.0, -1.0, 2 + 1j, 2 - 1j], rng)
        psys = from_factorization(self_factorization(decompose(h)))
        with pytest.raises(AssertionError):
            psys.q
        assert verify_algebra(psys).passed
        assert verify_algebra(psys, generators=[psys.d, 1j * psys.d]).checks
        assert witten_index(psys).delta == 0


class TestVerifyAlgebraPerSector:
    @pytest.mark.parametrize(
        "field,perturbation,name,expected",
        PLANTS,
        ids=[f"{p[2]}-{p[0]}-{i}" for i, p in enumerate(PLANTS)],
    )
    def test_planted_perturbation_is_reported(
        self, field, perturbation, name, expected
    ):
        d = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        psys = assemble(d, EtaOperator.identity(3), EtaOperator.identity(2))
        assert all(c.value == 0.0 for c in verify_algebra(psys).checks)
        planted = getattr(psys, field) + perturbation
        report = verify_algebra(replace(psys, **{field: planted}))
        assert report[name].value == pytest.approx(expected, rel=1e-9)
        assert not report[name].passed


class TestNullKernelCheck:
    """witten_index's per-sector null-kernel flags."""

    def test_identity_metric_never_null(self):
        rng = np.random.default_rng(5)
        d = engineered_rank_map(3, 3, 2, rng)
        psys = assemble(d, EtaOperator.identity(3), EtaOperator.identity(3))
        wit = witten_index(psys)
        assert wit.non_null_plus and wit.non_null_minus and wit.non_null_kernels

    def test_indefinite_nondegenerate_restriction_is_non_null(self):
        # kernel restriction of the swap metric has eigenvalues +/- 1
        eta = EtaOperator.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        psys = assemble(np.zeros((2, 2)), eta, eta)
        wit = witten_index(psys)
        assert wit.non_null_plus and wit.non_null_minus and wit.non_null_kernels

    def test_degenerate_restriction_is_null(self):
        # anti-diagonal metric restricted to ker H- = span(e2, e3) is singular
        anti = np.zeros((3, 3))
        anti[0, 2] = anti[2, 0] = anti[1, 1] = 1.0
        eta_m = EtaOperator.from_matrix(anti)
        eta_p = EtaOperator.identity(1)
        d = np.array([[0.0], [0.0], [1.0]])
        psys = assemble(d, eta_p, eta_m)
        assert np.allclose(psys.h_minus @ np.array([0, 1.0, 0]), 0.0)
        wit = witten_index(psys)
        assert not wit.non_null_minus and not wit.non_null_kernels

    def test_quadratic_form_signs(self):
        # one-dimensional kernel: the check reduces to |<v, eta v>| > 0
        eta_m = EtaOperator.from_matrix(np.diag([1.0, -1.0]))
        d = np.array([[1.0], [0.0]])
        psys = assemble(d, EtaOperator.identity(1), eta_m)
        assert witten_index(psys).non_null_minus


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

    @pytest.mark.parametrize("field", ["h_plus", "h_minus"])
    def test_zero_modes_outside_the_kernels_raise(self, field):
        # D = diag(0, 1) gives H+- = diag(0, 0.5); moving one sector's kernel
        # to e2 makes D (or D#) map a zero mode onto a nonzero mode
        psys = assemble(
            np.diag([0.0, 1.0]), EtaOperator.identity(2), EtaOperator.identity(2)
        )
        broken = replace(psys, **{field: np.diag([1.0, 0.0]).astype(complex)})
        with pytest.raises(NumericalFailure, match="residual 1.000e"):
            witten_index(broken)

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
