import numpy as np
import pytest

from pseudoherm.errors import NonDiagonalizable
from pseudoherm.linalg import Tolerance
from pseudoherm.spectral import (
    KIND_LOWER,
    KIND_REAL,
    KIND_UPPER,
    TAG_ALL_REAL,
    TAG_CONJUGATE_PAIRED,
    TAG_MIXED,
    TAG_UNPAIRABLE,
    classify_spectrum,
    decompose,
    reconstruct,
    verify_biorthonormality,
)

from support import (
    matrix_with_spectrum,
    random_paired_hamiltonian,
    well_conditioned,
)


class TestDecompose:
    def test_diagonal_real(self):
        sys = decompose(np.diag([1.0, 2.0, 3.0]))
        assert [c.kind for c in sys.clusters] == [KIND_REAL] * 3
        assert np.allclose([c.value for c in sys.clusters], [1, 2, 3])
        # psi is the standard basis up to phase
        assert np.allclose(np.abs(sys.psi), np.eye(3))
        assert np.allclose(np.abs(sys.phi), np.eye(3))

    def test_oscillator_eigenvectors(self):
        # eigenvectors proportional to (-i, 2) and (2, -4i); compare projectors
        h = np.array([[0, 1j], [-4j, 0]])
        sys = decompose(h)
        assert np.allclose([c.value for c in sys.clusters], [-2, 2])
        psi1 = np.array([-1j, 2.0])
        phi1 = 0.5 * np.array([-1j, 0.5])
        expected = np.outer(psi1, phi1.conj())
        assert np.allclose(sys.projector(0), expected, atol=1e-12)

    def test_jordan_block_rejected(self):
        with pytest.raises(NonDiagonalizable):
            decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_defective_degenerate_cluster_rejected(self):
        # diagonalizable check catches either cond(psi) or geometric deficit
        m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NonDiagonalizable):
            decompose(m)

    def test_near_jordan_block_fails_geometric_count(self):
        # cond(psi) ~ 2e9 stays below cond_max, so the eigenvector count of
        # the merged cluster is what rejects it
        h = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]])
        with pytest.raises(NonDiagonalizable, match="geometric multiplicity"):
            decompose(h)

    def test_psi_cond_is_that_of_psi(self):
        rng = np.random.default_rng(3)
        sys = decompose(matrix_with_spectrum([2.0, 2.0, -1.0, 1 + 1j, 1 - 1j], rng))
        assert sys.psi_cond == pytest.approx(np.linalg.cond(sys.psi), rel=1e-12)

    def test_degenerate_cluster_merges(self):
        rng = np.random.default_rng(5)
        h = matrix_with_spectrum([2.0, 2.0, -1.0], rng)
        sys = decompose(h)
        mults = sorted(c.multiplicity for c in sys.clusters)
        assert mults == [1, 2]

    def test_pair_ordering_upper_then_lower(self):
        rng = np.random.default_rng(9)
        h = matrix_with_spectrum([1 + 2j, 1 - 2j, 0.5], rng)
        sys = decompose(h)
        kinds = [c.kind for c in sys.clusters]
        assert kinds == [KIND_REAL, KIND_UPPER, KIND_LOWER]
        upper = sys.clusters[1]
        lower = sys.clusters[2]
        assert upper.partner == 2 and lower.partner == 1
        assert abs(np.conj(upper.value) - lower.value) < 1e-10

    def test_columns_follow_cluster_order(self):
        sys = decompose(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose([c.value for c in sys.clusters], [1, 2, 3])
        assert np.allclose(np.abs(sys.psi), np.eye(3)[:, [1, 2, 0]])


class TestClassify:
    def test_all_real(self):
        sys = decompose(np.diag([1.0, 2.0, 3.0]))
        assert classify_spectrum(sys).tag == TAG_ALL_REAL

    def test_conjugate_paired(self):
        # two-level a=0, b=1, c=-4: real determinant, eigenvalues +/- 2i
        sys = decompose(np.array([[0.0, 1.0], [-4.0, 0.0]]))
        assert classify_spectrum(sys).tag == TAG_CONJUGATE_PAIRED

    def test_mixed(self):
        rng = np.random.default_rng(2)
        sys = decompose(matrix_with_spectrum([1.0, 2 + 1j, 2 - 1j], rng))
        assert classify_spectrum(sys).tag == TAG_MIXED

    def test_unpairable_missing_conjugate(self):
        sys = decompose(np.diag([1.0, 2 + 3j]))
        assert classify_spectrum(sys).tag == TAG_UNPAIRABLE

    def test_unpairable_multiplicity_mismatch(self):
        sys = decompose(np.diag([2 + 3j, 2 + 3j, 2 - 3j, 1.0]))
        assert classify_spectrum(sys).tag == TAG_UNPAIRABLE

    @pytest.mark.parametrize("seed", range(6))
    def test_invariant_under_similarity(self, seed):
        rng = np.random.default_rng(seed)
        h = random_paired_hamiltonian(rng, 6)
        sys = decompose(h)
        w = well_conditioned(6, rng)
        sys2 = decompose(w @ h @ np.linalg.inv(w))
        assert classify_spectrum(sys).tag == classify_spectrum(sys2).tag


class TestBiorthonormality:
    def test_identity_system(self):
        sys = decompose(np.eye(3) * 2.0)
        rep = verify_biorthonormality(sys)
        assert rep.left_residual < 1e-14
        assert rep.right_residual < 1e-14
        assert rep.passed

    def test_oscillator_closed_forms(self):
        from pseudoherm.twolevel import TwoLevelParams, closed_form_system

        params = TwoLevelParams.from_coefficients(0, 1j, -4j)
        rep = verify_biorthonormality(closed_form_system(params))
        assert max(rep.left_residual, rep.right_residual) <= 1e-12

    def test_perturbed_phi_fails(self):
        rng = np.random.default_rng(1)
        sys = decompose(random_paired_hamiltonian(rng, 4))
        noise = 1e-3 * (rng.standard_normal(sys.phi.shape))
        sys.phi = sys.phi + noise
        rep = verify_biorthonormality(sys)
        assert rep.left_residual == pytest.approx(1e-3, rel=5)
        assert not rep.passed


class TestReconstruct:
    def test_diagonal(self):
        sys = decompose(np.diag([1.0, 2.0]))
        assert np.allclose(reconstruct(sys), np.diag([1, 2]), atol=1e-14)

    def test_oscillator(self):
        h = np.array([[0, 1j], [-4j, 0]])
        assert np.allclose(reconstruct(decompose(h)), h, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        h = random_paired_hamiltonian(rng, 5)
        resid = np.linalg.norm(reconstruct(decompose(h)) - h, 2)
        assert resid <= 1e-8 * np.linalg.norm(h, 2)


class TestProjectors:
    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality_and_completeness(self, seed):
        rng = np.random.default_rng(seed)
        sys = decompose(random_paired_hamiltonian(rng, 6))
        total = np.zeros((6, 6), dtype=complex)
        for i in range(len(sys.clusters)):
            pi = sys.projector(i)
            total += pi
            for j in range(len(sys.clusters)):
                pj = sys.projector(j)
                expected = pi if i == j else np.zeros_like(pi)
                assert np.allclose(pi @ pj, expected, atol=1e-10)
        assert np.allclose(total, np.eye(6), atol=1e-10)


class TestClusterTolerance:
    def test_nearby_eigenvalues_merge_at_loose_tolerance(self):
        h = np.diag([1.0, 1.0 + 1e-6, 3.0])
        sys = decompose(h, Tolerance(rtol=1e-5))
        assert sorted(c.multiplicity for c in sys.clusters) == [1, 2]

    def test_nearby_eigenvalues_stay_separate_at_tight_tolerance(self):
        h = np.diag([1.0, 1.0 + 1e-6, 3.0])
        sys = decompose(h, Tolerance(rtol=1e-9))
        assert len(sys.clusters) == 3
