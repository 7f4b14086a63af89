import re
from dataclasses import replace

import numpy as np
import pytest

from pseudoherm.errors import NotIsospectral, NotPseudoHermitian
from pseudoherm.linalg import Tolerance
from pseudoherm.intertwine import (
    Factorization,
    build_L,
    canonical_factorization,
    match_spectra,
    self_factorization,
    verify_intertwining,
)
from pseudoherm.spectral import (
    KIND_LOWER,
    KIND_REAL,
    KIND_UPPER,
    ClusterWidth,
    EigenCluster,
    decompose,
)
from pseudoherm.twolevel import TwoLevelParams, closed_form_system
from pseudoherm.metric import EtaOperator, pseudo_adjoint

import matching_reference
from support import (
    match_value_multisets,
    matrix_with_spectrum,
    random_paired_hamiltonian,
    reconstruct,
    well_conditioned,
)


def isospectral_pair(rng, n, **kw):
    h1 = random_paired_hamiltonian(rng, n, **kw)
    w = well_conditioned(n, rng)
    h2 = w @ h1 @ np.linalg.inv(w)
    return decompose(h1), decompose(h2)


class TestMatchSpectra:
    def test_similarity_pair(self):
        rng = np.random.default_rng(0)
        sys1 = decompose(np.diag([1.0, 2.0]))
        w = well_conditioned(2, rng)
        sys2 = decompose(w @ np.diag([1.0, 2.0]) @ np.linalg.inv(w))
        pairing = match_spectra(sys1, sys2)
        assert len(pairing.matches) == 2
        assert all(m.mu == 1 for m in pairing.matches)

    def test_oscillator_vs_spin(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        pairing = match_spectra(osc, spin)
        values = sorted(m.value.real for m in pairing.matches)
        assert values == [-2.0, 2.0]

    def test_zero_clusters_may_differ(self):
        rng = np.random.default_rng(1)
        sys1 = decompose(matrix_with_spectrum([0.0, 0.0, 1.0, 2.0], rng))
        sys2 = decompose(matrix_with_spectrum([0.0, 1.0, 2.0], rng))
        pairing = match_spectra(sys1, sys2)
        zero = [m for m in pairing.matches if m.is_zero]
        assert len(zero) == 1 and zero[0].mu == 1

    def test_single_sided_zero_is_unmatched(self):
        rng = np.random.default_rng(2)
        sys1 = decompose(matrix_with_spectrum([0.0, 1.0], rng))
        sys2 = decompose(np.diag([1.0]))
        zero = next(i for i in range(len(sys1.clusters)) if sys1.is_zero_cluster(i))
        pairing = match_spectra(sys1, sys2)
        assert [m.is_zero for m in pairing.matches] == [False]
        assert zero not in [m.index1 for m in pairing.matches]

    def test_not_isospectral(self):
        sys1 = decompose(np.diag([1.0, 2.0]))
        sys2 = decompose(np.diag([1.0, 3.0]))
        with pytest.raises(NotIsospectral):
            match_spectra(sys1, sys2)

    def test_nonzero_multiplicity_mismatch(self):
        sys1 = decompose(np.diag([1.0, 1.0, 2.0]))
        sys2 = decompose(np.diag([1.0, 2.0, 2.0]))
        with pytest.raises(NotIsospectral):
            match_spectra(sys1, sys2)


class TestBuildL:
    def test_identity_from_completeness(self):
        rng = np.random.default_rng(3)
        sys = decompose(random_paired_hamiltonian(rng, 5))
        pairing = match_spectra(sys, sys)
        l = build_L(pairing, [1.0] * len(pairing.matches))
        assert np.allclose(l.matrix, np.eye(5), atol=1e-10)

    def test_oscillator_to_spin_golden(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        pairing = match_spectra(osc, spin)
        root = np.sqrt(2.0)
        l = build_L(pairing, [root, root])
        expected = (root / 2.0) * np.array([[0.5, 0.25j], [1j, 0.5]])
        assert np.allclose(l.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_alpha_intertwines(self, seed):
        rng = np.random.default_rng(seed)
        sys1, sys2 = isospectral_pair(rng, 6)
        pairing = match_spectra(sys1, sys2)
        alpha = rng.standard_normal(len(pairing.matches)) + 1j * rng.standard_normal(
            len(pairing.matches)
        )
        l = build_L(pairing, alpha)
        h1, h2 = reconstruct(sys1), reconstruct(sys2)
        check = verify_intertwining(l.matrix, h1, h2)
        assert check.value <= 1e-8 * max(np.linalg.norm(h1, 2), np.linalg.norm(h2, 2)) * 10

    @pytest.mark.parametrize("seed", range(3))
    def test_cluster_relation(self, seed):
        # L Lambda1_n = alpha_n L_n = Lambda2_n L for each matched cluster
        rng = np.random.default_rng(seed)
        sys1, sys2 = isospectral_pair(rng, 5)
        pairing = match_spectra(sys1, sys2)
        alpha = rng.standard_normal(len(pairing.matches))
        l = build_L(pairing, alpha)
        for a, m in zip(l.alpha, pairing.matches):
            left = l.matrix @ sys1.projector(m.index1)
            right = sys2.projector(m.index2) @ l.matrix
            single = build_L(
                pairing, [1.0 if k == m else 0.0 for k in pairing.matches]
            ).matrix
            assert np.allclose(left, a * single, atol=1e-9)
            assert np.allclose(right, a * single, atol=1e-9)

    def test_single_gemm_equals_per_cluster_sum(self):
        # zero clusters of sizes 3 and 1: only the first column enters
        rng = np.random.default_rng(21)
        pair = [1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j]
        sys1 = decompose(
            matrix_with_spectrum([0.0, 0.0, 0.0, 2.0, 2.0, -1.5] + pair, rng)
        )
        sys2 = decompose(matrix_with_spectrum([0.0, 2.0, 2.0, -1.5] + pair, rng))
        pairing = match_spectra(sys1, sys2)
        zero = [m for m in pairing.matches if m.is_zero]
        assert len(zero) == 1 and zero[0].mu == 1
        k = len(pairing.matches)
        alpha = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        # the zero cluster keeps a nonzero coefficient; another one is skipped
        alpha[(pairing.matches.index(zero[0]) + 1) % k] = 0.0
        expected = np.zeros((sys2.dim, sys1.dim), dtype=complex)
        for a, m in zip(alpha, pairing.matches):
            c1, c2 = sys1.clusters[m.index1], sys2.clusters[m.index2]
            psi2 = sys2.psi[:, c2.start : c2.start + m.mu]
            phi1 = sys1.phi[:, c1.start : c1.start + m.mu]
            expected += a * (psi2 @ phi1.conj().T)
        l = build_L(pairing, alpha).matrix
        assert np.linalg.norm(l - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_all_zero_alpha_gives_zero_map(self):
        rng = np.random.default_rng(22)
        sys1, sys2 = isospectral_pair(rng, 4)
        pairing = match_spectra(sys1, sys2)
        l = build_L(pairing, [0.0] * len(pairing.matches)).matrix
        assert l.shape == (4, 4) and not l.any()


class TestCanonicalFactorization:
    def test_diagonal_mixed_signs(self):
        sys = decompose(np.diag([2.0, -3.0]))
        fact = self_factorization(sys)
        assert np.allclose(fact.matrix, np.diag([np.sqrt(2), np.sqrt(3)]), atol=1e-12)
        assert np.allclose(fact.lsharp, np.diag([np.sqrt(2), -np.sqrt(3)]), atol=1e-12)
        assert np.allclose(fact.lsharp @ fact.matrix, np.diag([2.0, -3.0]), atol=1e-12)
        assert all(c.passed for c in fact.checks)

    def test_oscillator_self_reduction(self):
        # real E: L collapses to sqrt(E) times the identity
        sys = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        fact = self_factorization(sys)
        assert np.allclose(fact.matrix, np.sqrt(2.0) * np.eye(2), atol=1e-12)
        h = np.array([[0, 1j], [-4j, 0]])
        assert np.allclose(fact.lsharp @ fact.matrix, h, atol=1e-12)
        assert np.allclose(fact.lsharp, h / np.sqrt(2.0), atol=1e-12)

    def test_oscillator_spin_golden(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        fact = canonical_factorization(osc, spin)
        root = np.sqrt(2.0)
        l_expected = (root / 2.0) * np.array([[0.5, 0.25j], [1j, 0.5]])
        lsharp_expected = root * np.array([[2.0, 1j], [-4j, -2.0]])
        assert np.allclose(fact.matrix, l_expected, atol=1e-12)
        assert np.allclose(fact.lsharp, lsharp_expected, atol=1e-12)
        assert all(c.value <= 1e-10 for c in fact.checks)

    def test_spin_side_metric_is_identity(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        fact = canonical_factorization(osc, spin)
        assert np.allclose(fact.eta2.matrix, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_similar_pairs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        sys1, sys2 = isospectral_pair(rng, n)
        fact = canonical_factorization(sys1, sys2)
        assert all(c.passed for c in fact.checks), fact.checks

    def test_spectrum_through_factorization(self):
        rng = np.random.default_rng(42)
        sys1, sys2 = isospectral_pair(rng, 6)
        fact = canonical_factorization(sys1, sys2)
        recon = fact.lsharp @ fact.matrix
        h1 = reconstruct(sys1)
        worst = match_value_multisets(
            np.linalg.eigvals(recon), np.linalg.eigvals(h1)
        )
        assert worst <= {c.name: c for c in fact.checks}["factorization_h1"].threshold

    def test_eigenvectors_of_another_matrix_fail(self):
        # a system carrying the eigenvectors of another matrix of the same
        # spectrum factors that other matrix, not its own h
        rng = np.random.default_rng(16)
        values = [2.0, -1.0, 1 + 1j, 1 - 1j]
        sys = decompose(matrix_with_spectrum(values, rng))
        other = decompose(matrix_with_spectrum(values, rng))
        tampered = replace(sys, psi=other.psi, phi=other.phi)
        fact = self_factorization(tampered)
        assert [c.name for c in fact.checks] == ["factorization_h1", "factorization_h2"]
        assert not any(c.passed for c in fact.checks)
        assert np.linalg.norm(fact.lsharp @ fact.matrix - other.h) <= 1e-10
        assert all(c.passed for c in self_factorization(sys).checks)

    def test_unpairable_refused(self):
        sys = decompose(np.diag([1.0, 2 + 3j]))
        with pytest.raises(NotPseudoHermitian):
            self_factorization(sys)

    def test_unpairable_refused_before_matching(self):
        # the spectra do not match either; the missing metric is reported
        unpairable = decompose(np.diag([1.0, 2 + 3j]))
        other = decompose(np.diag([3.0, 4.0]))
        with pytest.raises(NotIsospectral):
            match_spectra(unpairable, other)
        for sys1, sys2 in ((unpairable, other), (other, unpairable)):
            with pytest.raises(NotPseudoHermitian):
                canonical_factorization(sys1, sys2)

    def test_rescaled_alpha_keeps_intertwining_breaks_factorization(self):
        rng = np.random.default_rng(7)
        sys1, sys2 = isospectral_pair(rng, 4, allow_zero=False)
        fact = canonical_factorization(sys1, sys2)
        scaled = build_L(
            fact.intertwiner.pairing, [2.0 * a for a in fact.intertwiner.alpha]
        )
        h1, h2 = reconstruct(sys1), reconstruct(sys2)
        assert verify_intertwining(scaled.matrix, h1, h2).value <= 1e-7
        lsharp = pseudo_adjoint(scaled.matrix, fact.eta1, fact.eta2)
        assert np.linalg.norm(lsharp @ scaled.matrix - h1, 2) > 1.0


class TestLsharp:
    """L# is formed from L and the metrics on each access, never stored."""

    @pytest.fixture(scope="class")
    def fact(self):
        sys1, sys2 = isospectral_pair(np.random.default_rng(21), 6)
        return canonical_factorization(sys1, sys2)

    def test_each_access_is_a_new_read_only_array(self, fact):
        first, second = fact.lsharp, fact.lsharp
        assert not np.shares_memory(first, second)
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0

    def test_is_the_pseudo_adjoint_of_l(self, fact):
        assert np.array_equal(fact.lsharp, pseudo_adjoint(fact.matrix, fact.eta1, fact.eta2))

    def test_follows_a_replaced_metric(self, fact):
        # doubling eta2 doubles L# = eta1^-1 L^H eta2 exactly
        eta2 = EtaOperator(matrix=2.0 * fact.eta2.matrix, inverse=0.5 * fact.eta2.inverse)
        assert np.array_equal(replace(fact, eta2=eta2).lsharp, 2.0 * fact.lsharp)

    def test_cannot_be_passed_in(self, fact):
        fields = {name: getattr(fact, name) for name in ("intertwiner", "eta1", "eta2", "checks")}
        with pytest.raises(TypeError, match="unexpected keyword argument 'lsharp'"):
            Factorization(**fields, lsharp=fact.lsharp)


class TestSelfFactorization:
    def test_hermitian_diagonal(self):
        sys = decompose(np.diag([1.0, 4.0]))
        fact = self_factorization(sys)
        assert np.allclose(fact.matrix, np.diag([1.0, 2.0]), atol=1e-12)
        assert np.allclose(fact.eta1.matrix, np.eye(2), atol=1e-12)
        assert np.allclose(fact.eta2.matrix, np.eye(2), atol=1e-12)
        assert np.allclose(
            fact.lsharp @ fact.matrix, np.diag([1.0, 4.0]), atol=1e-12
        )

    def test_two_level_conjugate_pair(self):
        sys = decompose(np.array([[0.0, 1.0], [-4.0, 0.0]]))
        fact = self_factorization(sys)
        h = np.array([[0.0, 1.0], [-4.0, 0.0]])
        assert np.linalg.norm(fact.lsharp @ fact.matrix - h, 2) <= 1e-10

    def test_mixed_spectrum_with_degeneracy(self):
        rng = np.random.default_rng(11)
        h = matrix_with_spectrum([1.0, -1.0, 2 + 1j, 2 - 1j, 3.0, 3.0], rng)
        sys = decompose(h)
        fact = self_factorization(sys)
        h1 = {c.name: c for c in fact.checks}["factorization_h1"]
        assert h1.value <= 1e-8 * (1 + np.linalg.norm(h, 2)) * sys.psi_cond**2

    def test_zero_cluster_dropped_from_l(self):
        rng = np.random.default_rng(12)
        h = matrix_with_spectrum([0.0, 0.0, 1.0, -2.0], rng)
        sys = decompose(h)
        fact = self_factorization(sys)
        assert all(c.passed for c in fact.checks)
        zero_idx = next(
            i for i in range(len(sys.clusters)) if sys.is_zero_cluster(i)
        )
        # L annihilates the zero cluster
        assert np.linalg.norm(fact.matrix @ sys.psi_block(zero_idx), 2) <= 1e-9


class TestRectangular:
    def test_different_dimensions_with_zero_padding(self):
        rng = np.random.default_rng(13)
        sys1 = decompose(matrix_with_spectrum([0.0, 0.0, 1.0, 2.0], rng))
        sys2 = decompose(matrix_with_spectrum([0.0, 1.0, 2.0], rng))
        fact = canonical_factorization(sys1, sys2)
        assert fact.matrix.shape == (3, 4)
        assert all(c.passed for c in fact.checks)

    def test_intertwining_for_rectangular(self):
        rng = np.random.default_rng(14)
        sys1 = decompose(matrix_with_spectrum([0.0, 1.0, -2.0], rng))
        sys2 = decompose(matrix_with_spectrum([1.0, -2.0], rng))
        fact = canonical_factorization(sys1, sys2)
        h1, h2 = reconstruct(sys1), reconstruct(sys2)
        assert verify_intertwining(fact.matrix, h1, h2).passed


class TestVerifyIntertwining:
    def test_identity(self):
        h = np.diag([1.0, 2.0])
        assert verify_intertwining(np.eye(2), h, h).value == 0.0

    def test_oscillator_spin_golden(self):
        root = np.sqrt(2.0)
        l = (root / 2.0) * np.array([[0.5, 0.25j], [1j, 0.5]])
        ho = np.array([[0, 1j], [-4j, 0]])
        hs = np.diag([2.0, -2.0])
        assert verify_intertwining(l, ho, hs).value <= 1e-12

    def test_generic_pair_fails(self):
        rng = np.random.default_rng(15)
        l = rng.standard_normal((3, 3))
        h1 = np.diag([1.0, 2.0, 3.0])
        h2 = np.diag([4.0, 5.0, 6.0])
        check = verify_intertwining(l, h1, h2)
        assert not check.passed


def pairing_key(pairing):
    return [(m.index1, m.index2, m.mu, m.value, m.is_zero) for m in pairing.matches]


def assert_matches_reference(sys1, sys2):
    try:
        expected = pairing_key(matching_reference.match_spectra(sys1, sys2))
    except NotIsospectral as exc:
        with pytest.raises(NotIsospectral, match=re.escape(str(exc))):
            match_spectra(sys1, sys2)
        return None
    assert pairing_key(match_spectra(sys1, sys2)) == expected
    return expected


def grid_system(values, ctol):
    """A system whose clusters carry exactly the given values (simple, in the
    given order) on the identity's eigensystem; only clusters and the
    cluster width are read by the matcher. ||I||_2 = 1, so rtol = atol =
    ctol gives the width ctol."""
    clusters = []
    for k, v in enumerate(values):
        kind = KIND_REAL if v.imag == 0 else KIND_UPPER if v.imag > 0 else KIND_LOWER
        clusters.append(EigenCluster(complex(v), 1, kind, k))
    identity = decompose(np.eye(len(values), dtype=complex))
    width = ClusterWidth(identity.h, Tolerance(rtol=ctol, atol=ctol), 1.0, 1.0)
    return replace(identity, clusters=tuple(clusters), width=width)


class TestMatchSpectraWindow:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["pair_simple", "pair_degenerate"])
    def test_matches_reference_on_benchmark_pairs(self, bench_inputs, workload, seed):
        first, second = bench_inputs.pair_inputs(workload, seed)
        assert assert_matches_reference(decompose(first.h), decompose(second.h))

    def test_matches_reference_on_exact_ties(self):
        ctol = 2.0**-10
        step = ctol / 2  # grid points one and two steps apart tie exactly
        rng = np.random.default_rng(0)
        matched = 0
        for _ in range(300):
            size = int(rng.integers(1, 7))
            grid = rng.integers(-4, 5, size=(2, size))
            imag = rng.choice([0.0, 1.0, -1.0], size=size)
            sys1 = grid_system(grid[0] * step + 1j * imag, ctol)
            sys2 = grid_system(grid[1] * step + 1j * imag[rng.permutation(size)], ctol)
            matched += assert_matches_reference(sys1, sys2) is not None
        assert matched > 10

    def test_shared_tolerance_is_the_larger_width(self):
        # 1 and 1 + 1.5 ctol match only within 2 ctol, whichever system's
        # width that is
        ctol = 2.0**-10
        for widths in ((ctol, 2 * ctol), (2 * ctol, ctol)):
            sys1 = grid_system([1.0, 3.0], widths[0])
            sys2 = grid_system([1.0 + 1.5 * ctol, 3.0], widths[1])
            expected = [(0, 0, 1, 1.0, False), (1, 1, 1, 3.0, False)]
            assert assert_matches_reference(sys1, sys2) == expected

    def test_tie_goes_to_the_later_cluster(self):
        ctol = 2.0**-10
        sys1 = grid_system([1.0, 1.0 + 2 * ctol], ctol)
        # 1.0 is ctol from both clusters of sys2 and takes the later one
        pairing = match_spectra(sys1, grid_system([1.0 + ctol, 1.0 - ctol], ctol))
        assert [(m.index1, m.index2) for m in pairing.matches] == [(0, 1), (1, 0)]
        # here the later one is 1 + ctol, which leaves 1 + 2 ctol unmatched
        with pytest.raises(NotIsospectral, match="no match"):
            match_spectra(sys1, grid_system([1.0 - ctol, 1.0 + ctol], ctol))
