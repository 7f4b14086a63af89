import json

import numpy as np
import pytest

from pseudoherm.cli import main
from pseudoherm.errors import DegenerateTwoLevel, NonRealDeterminant, PseudohermError
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.linalg import DEFAULT_TOLERANCE
from pseudoherm.report import matrix_payload
from pseudoherm.spectral import (
    KIND_LOWER,
    KIND_UPPER,
    decompose,
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

from support import reconstruct


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


def sample_near_axis(rng):
    """Random (a, b, c) at scale s in [1e-9, 1e6] whose E lies near the real
    or the imaginary axis (or, one draw in five, off both).

    The sliver off the axis is 0, relative to |E| in [1e-16, 1e-9], or
    absolute near atol = 1e-12; |b| / s in [1e-4, 1e4] spreads ||H|| / |E|.
    """
    s = 10.0 ** rng.uniform(-9, 6)
    u = rng.random()
    if u < 0.1:
        sliver = 0.0
    elif u < 0.7:
        sliver = 10.0 ** rng.uniform(-16, -9) * rng.choice([-1, 1])
    else:
        sliver = 10.0 ** rng.uniform(-13.5, -10.5) * rng.choice([-1, 1]) / s
    kind = rng.random()
    if kind < 0.4:
        e = s * complex(1.0, sliver)
    elif kind < 0.8:
        e = s * complex(sliver, 1.0)
    else:
        e = s * complex(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
    a = s * complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if rng.random() < 0.5 else 0.0)
    b = s * 10.0 ** rng.uniform(-4, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return a, b, (e * e - a * a) / b


def verdict(factor) -> str:
    """"pass", "fail" or the name of the raised error."""
    try:
        fact = factor()
    except PseudohermError as exc:
        return type(exc).__name__
    return "pass" if all(c.passed for c in fact.checks) else "fail"


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

    @pytest.mark.parametrize(
        "h",
        [[[-1, 0], [5, 1]], [[-1, -2], [0, 1]], [[-1, 0], [0, 1]], [[-1j, 0], [0, 1j]]],
        ids=["lower", "upper", "real-diagonal", "imaginary-diagonal"],
    )
    def test_swap_resolves_a_plus_e_zero_exactly(self, h):
        # a + E = 0: swapping the basis vectors is exact, so nothing rounds
        h = np.array(h, dtype=complex)
        params = TwoLevelParams.from_coefficients(h[0, 0], h[0, 1], h[1, 0])
        assert params.swapped
        np.testing.assert_array_equal(params.source_matrix(), h)
        checks = verify_biorthonormality(closed_form_system(params))
        checks += two_level_factorization(params).checks
        assert [c.value for c in checks] == [0.0] * 4

    @pytest.mark.parametrize("e", [1.0, 1j])
    @pytest.mark.parametrize("direction", [1.0, -1.0, 1j])
    def test_near_axis_swaps_only_within_tolerance(self, e, direction):
        # |a + E| from 0 to 10 thr in steps of thr / 4, with E and bc fixed
        step = DEFAULT_TOLERANCE.cluster_tol(
            TwoLevelParams.from_coefficients(-e, 1.0, 0.0).scale
        ) / 4.0
        swaps = []
        for k in range(41):
            a = -e + direction * k * step
            params = TwoLevelParams.from_coefficients(a, 1.0, e * e - a * a)
            thr = DEFAULT_TOLERANCE.cluster_tol(params.scale)
            assert params.swapped == (abs(a + params.e) <= thr)
            assert abs(params.a + params.e) > thr
            checks = verify_biorthonormality(closed_form_system(params))
            checks += two_level_factorization(params).checks
            assert all(c.passed for c in checks), (k, checks)
            swaps.append(params.swapped)
        assert any(swaps) and not all(swaps)

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

    def test_verdicts_match_the_generic_path(self):
        # generic NotPseudoHermitian is the closed form's NonRealDeterminant
        same = {"NotPseudoHermitian": "NonRealDeterminant"}
        rng = np.random.default_rng(13)
        verdicts, mismatches = [], []
        for _ in range(2000):
            a, b, c = sample_near_axis(rng)
            params = TwoLevelParams.from_coefficients(a, b, c)
            closed = verdict(lambda: two_level_factorization(params))
            generic = verdict(
                lambda: self_factorization(decompose(params.source_matrix()))
            )
            verdicts.append(closed)
            if closed != same.get(generic, generic):
                mismatches.append(((a, b, c), closed, generic))
        assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[:3]}"
        assert verdicts.count("pass") >= 300
        assert verdicts.count("NonRealDeterminant") >= 300

    @pytest.mark.parametrize(
        "c, code, error",
        [
            # imaginary sliver 1e-10 of E = 1, within rtol * ||H|| = 1e-3
            ("100000,2e-5", 0, None),
            # conj(E) lies 1.6e-12 from -E, beyond atol = 1e-12
            ("-1e-5,1.6e-12", 1, "NonRealDeterminant"),
        ],
    )
    def test_cli_verdicts_match_factor(self, capsys, tmp_path, c, code, error):
        assert main(["twolevel", "--a=0,0", "--b=1e-5,0", f"--c={c}"]) == code
        report = json.loads(capsys.readouterr().out)
        assert report.get("error", {}).get("type") == error
        re, im = map(float, c.split(","))
        path = tmp_path / "h.json"
        h = np.array([[0.0, 1e-5], [complex(re, im), 0.0]])
        path.write_text(json.dumps(matrix_payload(h)))
        assert main(["factor", str(path)]) == code
        capsys.readouterr()


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
