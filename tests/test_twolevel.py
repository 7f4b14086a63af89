import numpy as np
import pytest

from pseudoherm.errors import DegenerateTwoLevel, NonRealDeterminant
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.spectral import (
    KIND_LOWER,
    KIND_UPPER,
    decompose,
    reconstruct,
    verify_biorthonormality,
)
from pseudoherm.twolevel import (
    TwoLevelParams,
    closed_form_system,
    normalize_traceless,
    oscillator_demo,
    oscillator_hamiltonian,
    spin_hamiltonian,
    spin_intertwine_demo,
    two_level_factorization,
)


def sample_real_determinant(rng):
    """Random (a, b, c) with a^2 + bc real: E real or purely imaginary."""
    d = rng.uniform(0.2, 4.0) * (1 if rng.random() < 0.5 else -1)
    a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    while True:
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(b) > 0.2:
            break
    c = (d - a * a) / b
    return a, b, c


class TestNormalizeTraceless:
    def test_already_traceless(self):
        params, shift = normalize_traceless(np.diag([1.0, -1.0]))
        assert shift == 0.0
        assert (params.a, params.b, params.c) == (1.0, 0.0, 0.0)

    def test_trace_shift(self):
        params, shift = normalize_traceless(np.array([[2.0, 1.0], [0.0, 0.0]]))
        assert shift == 1.0
        assert (params.a, params.b, params.c) == (1.0, 1.0, 0.0)

    def test_oscillator(self):
        params, shift = normalize_traceless(oscillator_hamiltonian(2.0))
        assert shift == 0.0
        assert params.a == 0.0
        assert params.b == 1j
        assert params.c == -4j
        assert params.e == 2.0
        assert params.n == 8.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            normalize_traceless(np.eye(3))

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateTwoLevel):
            normalize_traceless(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateTwoLevel):
            normalize_traceless(np.zeros((2, 2)))


class TestBranch:
    def test_real_branch_nonnegative(self):
        params = TwoLevelParams.from_coefficients(-1.0, 0.0, 0.0)
        assert params.e == 1.0

    def test_imaginary_branch_upper(self):
        params = TwoLevelParams.from_coefficients(0.0, 1.0, -4.0)
        assert params.e == 2j

    def test_determinant_law(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = sample_real_determinant(rng)
            params = TwoLevelParams.from_coefficients(a, b, c)
            h = params.source_matrix()
            assert np.linalg.det(h) == pytest.approx(
                params.determinant(), abs=1e-12
            )


class TestClosedFormSystem:
    def test_oscillator_vectors(self):
        params = TwoLevelParams.from_coefficients(0, 1j, -4j)
        sys = closed_form_system(params)
        # cluster order -2, +2 with psi1 = (-i, 2), psi2 = (2, -4i)
        assert np.allclose(sys.psi[:, 0], [-1j, 2.0])
        assert np.allclose(sys.psi[:, 1], [2.0, -4j])
        assert np.allclose(sys.phi[:, 0], [-0.5j, 0.25])
        assert np.allclose(sys.phi[:, 1], [0.25, -0.125j])

    def test_real_case_biorthonormality(self):
        params = TwoLevelParams.from_coefficients(1.0, 0.0, 0.0)
        sys = closed_form_system(params)
        assert np.allclose(sys.psi[:, 0], [0.0, 2.0])
        assert np.allclose(sys.psi[:, 1], [2.0, 0.0])
        assert all(c.value <= 1e-14 for c in verify_biorthonormality(sys))

    def test_imaginary_case_cluster_order(self):
        params = TwoLevelParams.from_coefficients(0.0, 1.0, -4.0)
        sys = closed_form_system(params)
        kinds = [c.kind for c in sys.clusters]
        assert kinds == [KIND_UPPER, KIND_LOWER]
        assert sys.clusters[0].value == pytest.approx(2j)

    def test_rotation_resolves_a_plus_e_zero(self):
        params = TwoLevelParams.from_coefficients(-1.0, 0.0, 5.0)
        assert params.rotations == 1
        sys = closed_form_system(params)
        assert all(c.value <= 1e-12 for c in verify_biorthonormality(sys))
        original = np.array([[-1.0, 0.0], [5.0, 1.0]])
        assert np.allclose(reconstruct(sys), original, atol=1e-12)

    def test_double_rotation_corner(self):
        # b = 2a, c = 0: one rotation lands on a = -E again, the second flips
        params = TwoLevelParams.from_coefficients(-1.0, -2.0, 0.0)
        assert params.rotations == 2
        sys = closed_form_system(params)
        assert all(c.value <= 1e-12 for c in verify_biorthonormality(sys))
        assert np.allclose(
            reconstruct(sys), np.array([[-1.0, -2.0], [0.0, 1.0]]), atol=1e-12
        )

    def test_reconstructs_input(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a, b, c = sample_real_determinant(rng)
            params = TwoLevelParams.from_coefficients(a, b, c)
            sys = closed_form_system(params)
            assert np.allclose(
                reconstruct(sys), params.source_matrix(), atol=1e-10
            )


class TestTwoLevelFactorization:
    def test_oscillator_case_one(self):
        params = TwoLevelParams.from_coefficients(0, 1j, -4j)
        fact = two_level_factorization(params)
        h = oscillator_hamiltonian(2.0)
        assert np.allclose(fact.matrix, np.sqrt(2.0) * np.eye(2), atol=1e-14)
        # canonical metric from the closed-form duals and its exact inverse
        eta1_expected = np.array([[-12.0, 10j], [-10j, -3.0]]) / 64.0
        eta1_inv_expected = np.array([[3.0, 10j], [-10j, 12.0]])
        assert np.allclose(fact.eta1.matrix, eta1_expected, atol=1e-13)
        assert np.allclose(fact.eta1.inverse, eta1_inv_expected, atol=1e-12)
        assert np.allclose(
            fact.eta1.matrix @ fact.eta1.inverse, np.eye(2), atol=1e-12
        )
        assert np.linalg.norm(fact.lsharp @ fact.matrix - h, 2) <= 1e-12
        assert np.allclose(fact.lsharp, h / np.sqrt(2.0), atol=1e-12)

    def test_case_two_imaginary(self):
        params = TwoLevelParams.from_coefficients(0.0, 1.0, -4.0)
        fact = two_level_factorization(params)
        h = np.array([[0.0, 1.0], [-4.0, 0.0]])
        assert np.linalg.norm(fact.lsharp @ fact.matrix - h, 2) <= 1e-12
        assert np.allclose(fact.eta1.matrix, fact.eta2.matrix)
        assert np.allclose(
            fact.eta1.matrix @ fact.eta1.inverse, np.eye(2), atol=1e-12
        )
        # L = |psi1><phi1| + E |psi2><phi2| against the closed-form vectors
        sys = closed_form_system(params)
        psi1, psi2 = sys.psi[:, 1], sys.psi[:, 0]  # order is (+E, -E)
        phi1, phi2 = sys.phi[:, 1], sys.phi[:, 0]
        expected = np.outer(psi1, phi1.conj()) + 2j * np.outer(psi2, phi2.conj())
        assert np.allclose(fact.matrix, expected, atol=1e-13)

    def test_hermitian_case_one(self):
        params = TwoLevelParams.from_coefficients(1.0, 0.0, 0.0)
        fact = two_level_factorization(params)
        h = np.diag([1.0, -1.0])
        assert np.linalg.norm(fact.lsharp @ fact.matrix - h, 2) <= 1e-13
        # sign -1 on the E = -1 cluster makes eta1 indefinite
        eigs = np.linalg.eigvalsh(fact.eta1.matrix)
        assert eigs[0] < 0 < eigs[1]

    def test_rejects_complex_determinant(self):
        with pytest.raises(NonRealDeterminant):
            two_level_factorization(
                TwoLevelParams.from_coefficients(1.0 + 1j, 1.0, 1.0)
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_generic_path(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = sample_real_determinant(rng)
        params = TwoLevelParams.from_coefficients(a, b, c)
        fact_closed = two_level_factorization(params)
        h = params.source_matrix()
        fact_generic = self_factorization(decompose(h))
        scale = 1.0 + np.linalg.norm(h, 2)
        assert np.linalg.norm(fact_closed.matrix - fact_generic.matrix, 2) <= 1e-8 * scale
        assert np.linalg.norm(fact_closed.lsharp - fact_generic.lsharp, 2) <= 1e-8 * scale
        assert fact_closed.checks[0].name == fact_generic.checks[0].name == "factorization_h1"
        assert fact_closed.checks[0].value <= 1e-12 * scale
        assert fact_generic.checks[0].value <= 1e-8 * scale


class TestOscillatorDemo:
    def test_golden_omega_two(self):
        demo = oscillator_demo(2.0)
        assert np.allclose(
            demo.eta1, np.array([[-12.0, 10j], [-10j, -3.0]]) / 16.0, atol=1e-15
        )
        assert np.allclose(
            demo.eta1_inv, np.array([[3.0, 10j], [-10j, 12.0]]) / 16.0, atol=1e-15
        )
        assert np.allclose(
            demo.eta2, np.array([[20.0, -6j], [6j, 5.0]]) / 16.0, atol=1e-15
        )
        assert np.allclose(demo.intertwiner, np.sqrt(2.0) * np.eye(2))
        assert np.allclose(
            demo.intertwiner_sharp, oscillator_hamiltonian(2.0) / np.sqrt(2.0)
        )
        assert all(c.passed for c in demo.checks)

    def test_golden_omega_one(self):
        demo = oscillator_demo(1.0)
        assert np.allclose(demo.eta1, np.array([[0.0, 0.5j], [-0.5j, 0.0]]), atol=1e-15)
        assert np.allclose(demo.eta2, np.diag([0.5, 0.5]), atol=1e-15)

    def test_displayed_pair_scaling(self):
        # the emitted eta1/eta1_inv are fixed reference forms; their product
        # is I/4, the true inverse being 4 times the displayed one
        demo = oscillator_demo(3.0)
        assert np.allclose(demo.eta1 @ demo.eta1_inv, np.eye(2) / 4.0, atol=1e-13)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0])
    def test_factorization_residuals(self, omega):
        demo = oscillator_demo(omega)
        h = demo.hamiltonian
        assert np.linalg.norm(demo.intertwiner_sharp @ demo.intertwiner - h, 2) <= 1e-12
        assert np.linalg.norm(demo.intertwiner @ demo.intertwiner_sharp - h, 2) <= 1e-12

    def test_eta1_is_scaled_canonical(self):
        # displayed form = omega^2 * canonical metric from the dual vectors
        from pseudoherm.metric import SignAssignment, canonical_eta

        w = 2.0
        demo = oscillator_demo(w)
        sys = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -1j * w**2))
        eta = canonical_eta(sys, SignAssignment.from_flat(sys, [-1, 1]))
        assert np.allclose(demo.eta1, w**2 * eta.matrix, atol=1e-13)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            oscillator_demo(0.0)


class TestSpinIntertwineDemo:
    def test_golden_omega_two(self):
        demo = spin_intertwine_demo(2.0)
        root = np.sqrt(2.0)
        assert np.allclose(
            demo.intertwiner, (root / 2.0) * np.array([[0.5, 0.25j], [1j, 0.5]])
        )
        assert np.allclose(
            demo.intertwiner_sharp, root * np.array([[2.0, 1j], [-4j, -2.0]])
        )
        assert all(c.passed for c in demo.checks)

    def test_omega_one_product(self):
        demo = spin_intertwine_demo(1.0)
        assert np.allclose(
            demo.intertwiner_sharp @ demo.intertwiner,
            np.array([[0.0, 1j], [-1j, 0.0]]),
            atol=1e-14,
        )

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0])
    def test_residuals(self, omega):
        demo = spin_intertwine_demo(omega)
        ho, hs = demo.oscillator_h, demo.spin_h
        assert np.linalg.norm(demo.intertwiner_sharp @ demo.intertwiner - ho, 2) <= 1e-10
        assert np.linalg.norm(demo.intertwiner @ demo.intertwiner_sharp - hs, 2) <= 1e-10

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0])
    def test_matches_generic_factorization(self, omega):
        demo = spin_intertwine_demo(omega)
        osc = closed_form_system(
            TwoLevelParams.from_coefficients(0, 1j, -1j * omega**2)
        )
        spin = decompose(spin_hamiltonian(omega))
        fact = canonical_factorization(osc, spin)
        assert np.allclose(fact.matrix, demo.intertwiner, atol=1e-12)
        assert np.allclose(fact.lsharp, demo.intertwiner_sharp, atol=1e-11)

    def test_numeric_eigendecomposition_matches_closed_forms(self):
        # projectors are normalization-free, so the eig route and the closed
        # forms must produce the same spectral projectors
        h = oscillator_hamiltonian(2.0)
        sys_eig = decompose(h)
        sys_closed = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        for i in range(2):
            assert np.allclose(
                sys_eig.projector(i), sys_closed.projector(i), atol=1e-11
            )
