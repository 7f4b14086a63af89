from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import spectral
from pseudoherm.errors import NonDiagonalizable
from pseudoherm.linalg import DEFAULT_TOLERANCE, Tolerance, frobenius_norm
from pseudoherm.spectral import (
    KIND_LOWER,
    KIND_REAL,
    KIND_UPPER,
    TAG_ALL_REAL,
    TAG_CONJUGATE_PAIRED,
    TAG_MIXED,
    TAG_UNPAIRABLE,
    cluster_eigenvalues,
    classify_spectrum,
    decompose,
    verify_biorthonormality,
)

from clustering_reference import build_clusters as reference_clusters
from support import (
    matrix_with_spectrum,
    random_paired_hamiltonian,
    reconstruct,
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
        checks = verify_biorthonormality(sys)
        assert [c.name for c in checks] == ["biorthonormality_left", "biorthonormality_right"]
        assert all(c.value < 1e-14 and c.passed for c in checks)

    def test_oscillator_closed_forms(self):
        from pseudoherm.twolevel import TwoLevelParams, closed_form_system

        params = TwoLevelParams.from_coefficients(0, 1j, -4j)
        checks = verify_biorthonormality(closed_form_system(params))
        assert all(c.value <= 1e-12 for c in checks)

    def test_perturbed_phi_fails(self):
        rng = np.random.default_rng(1)
        sys = decompose(random_paired_hamiltonian(rng, 4))
        noise = 1e-3 * (rng.standard_normal(sys.phi.shape))
        sys = replace(sys, phi=sys.phi + noise)
        left = {c.name: c for c in verify_biorthonormality(sys)}["biorthonormality_left"]
        assert left.value == pytest.approx(1e-3, rel=5)
        assert not left.passed

    def test_residuals_equal_the_differences_from_an_identity(self):
        # formed in place, with the bits of the n x n identity subtracted
        rng = np.random.default_rng(2)
        sys = decompose(random_paired_hamiltonian(rng, 12))
        eye = np.eye(sys.dim)
        expected = [
            frobenius_norm(sys.phi.conj().T @ sys.psi - eye),
            frobenius_norm(sys.psi @ sys.phi.conj().T - eye),
        ]
        assert [c.value for c in verify_biorthonormality(sys)] == expected
        assert all(value > 0.0 for value in expected)


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


def svd_rule_rejects(h, tol=DEFAULT_TOLERANCE) -> bool:
    """Reference diagonalizability rule: cond(psi) against cond_max, then one
    full SVD of H - lambda I per degenerate cluster, counting the singular
    values at or below the cluster's widened cutoff."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    values, vectors = np.linalg.eig(h)
    ctol = tol.cluster_tol(np.linalg.norm(h, 2))
    clusters, order = cluster_eigenvalues(values, ctol)
    if not np.linalg.cond(vectors[:, order]) <= tol.cond_max:
        return True
    for c in clusters:
        if c.multiplicity < 2:
            continue
        atol = max(tol.atol, 2.0 * c.multiplicity * ctol)
        s = np.linalg.svd(h - c.value * np.eye(n), compute_uv=False)
        cutoff = max(atol, n * tol.rtol * s[0])
        if np.count_nonzero(s <= cutoff) < c.multiplicity:
            return True
    return False


class TestEigenvectorCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        mults=st.lists(st.integers(2, 3), min_size=1, max_size=3),
        simple=st.integers(0, 3),
        jordan=st.booleans(),
        log_eps=st.floats(-13.0, -6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outcome_matches_svd_rule_property(
        self, mults, simple, jordan, log_eps, seed
    ):
        rng = np.random.default_rng(seed)
        count = len(mults) + simple + 1
        # distinct values 0.5 apart; points[0] is kept for the Jordan block
        points = rng.permutation(np.arange(-count, count + 1))[:count] * 0.5
        values = []
        for k, mult in enumerate(mults, start=1):
            values += [points[k]] * mult
        values += list(points[len(mults) + 1 :])
        diag = np.diag(np.asarray(values, dtype=complex))
        if jordan:
            lam, eps = points[0], 10.0**log_eps
            block = np.array([[lam, 1.0], [0.0, lam + eps]], dtype=complex)
            diag = np.block(
                [
                    [diag, np.zeros((len(values), 2))],
                    [np.zeros((2, len(values))), block],
                ]
            )
        n = diag.shape[0]
        v = well_conditioned(n, rng)
        h = v @ diag @ np.linalg.inv(v)
        try:
            decompose(h)
            rejected = False
        except NonDiagonalizable:
            rejected = True
        assert rejected == svd_rule_rejects(h)

    @settings(max_examples=60, deadline=None)
    @given(
        mult=st.integers(2, 3),
        jordan=st.booleans(),
        log_eps=st.floats(-12.0, -3.0),
        exact=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_certifies_only_clusters_with_enough_eigenvectors(
        self, mult, jordan, log_eps, exact, seed
    ):
        # a cluster of mult values eps apart at lam: a near-Jordan chain
        # (ones above the diagonal) or a diagonalizable split, next to
        # `exact` clusters of exact multiplicity; the clustering width spans
        # the planted cluster, so every one reaches the certificate
        rng = np.random.default_rng(seed)
        eps = 10.0**log_eps
        points = rng.permutation(np.arange(-6, 7))[: exact + 3] * 0.5
        lam = points[0]
        near = np.diag(lam + eps * np.arange(mult)).astype(complex)
        if jordan:
            near += np.diag(np.ones(mult - 1), 1)
        rest = [points[1 + k] for k in range(exact) for _ in range(mult)] + list(points[exact + 1 :])
        diag = np.zeros((mult + len(rest),) * 2, dtype=complex)
        diag[:mult, :mult] = near
        diag[mult:, mult:] = np.diag(rest)
        n = diag.shape[0]
        v = well_conditioned(n, rng)
        h = v @ diag @ np.linalg.inv(v)
        values, vectors = np.linalg.eig(h)
        scale = float(np.linalg.norm(h, 2))
        tol = DEFAULT_TOLERANCE
        ctol = max(tol.cluster_tol(scale), 2.0 * mult * eps)
        clusters, order = cluster_eigenvalues(values, ctol)
        degenerate = [c for c in clusters if c.multiplicity > 1]
        certified = spectral._eigenvectors_certified(
            h, vectors[:, order], degenerate, scale, scale, ctol, tol
        )
        for c, ok in zip(degenerate, certified):
            if ok:
                shifted = Tolerance(atol=max(tol.atol, 2.0 * c.multiplicity * ctol))
                s = np.linalg.svd(h - c.value * np.eye(n), compute_uv=False)
                cutoff = shifted.svd_cutoff(h.shape, float(s[0]))
                assert np.count_nonzero(s <= cutoff) >= c.multiplicity

    def test_rank_runs_only_when_the_certificate_cannot_decide(self, monkeypatch):
        calls = []
        real_rank = spectral.rank

        def counted(m, tol):
            calls.append(m.shape)
            return real_rank(m, tol)

        monkeypatch.setattr(spectral, "rank", counted)
        rng = np.random.default_rng(8)
        decompose(matrix_with_spectrum([1.0, 1.0, 1.0, -2.0, -2.0, 0.5], rng))
        assert calls == []
        with pytest.raises(NonDiagonalizable, match="geometric multiplicity"):
            decompose(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]]))
        assert len(calls) >= 1


def _exact(result):
    """Clusters with bit-exact values (float hex keeps -0.0), and the order."""
    clusters, order = result
    return [
        (c.value.real.hex(), c.value.imag.hex(), c.multiplicity, c.kind, c.start, c.partner)
        for c in clusters
    ], list(order)


def assert_matches_reference(values, ctol):
    result = cluster_eigenvalues(values, ctol)
    assert _exact(result) == _exact(reference_clusters(values, ctol))
    return result


class TestClusterEigenvalues:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["pair_simple", "pair_degenerate"])
    def test_matches_reference_on_benchmark_pairs(
        self, monkeypatch, bench_inputs, workload, seed
    ):
        # decompose clusters within its norm bracket; the reference takes the
        # exact width, and both must agree bit for bit
        seen = []

        def recorded(values, width):
            result = cluster_eigenvalues(values, width)
            seen.append((values, width, result))
            return result

        monkeypatch.setattr(spectral, "cluster_eigenvalues", recorded)
        for drawn in bench_inputs.pair_inputs(workload, seed):
            decompose(drawn.h)
            values, width, result = seen.pop()
            expected = assert_matches_reference(values, width.value)
            assert _exact(result) == _exact(expected)
            clusters, _ = result
            drawn_mults = sorted(m for _, m in drawn.spectrum.clusters)
            assert sorted(c.multiplicity for c in clusters) == drawn_mults

    @pytest.mark.parametrize("k", [0.5, 0.99, 1.0, 1.01, 2.0])
    def test_pairs_at_multiples_of_ctol(self, k):
        ctol = 2.0**-10  # at k = 1 both distances are exactly ctol
        step = k * ctol
        # a real pair apart along the real axis, a conjugate pair of pairs
        # apart along the imaginary axis
        values = np.array(
            [0.5, 0.5 + step, 2 + 1j, 2 + (1 + step) * 1j, 2 - 1j, 2 - (1 + step) * 1j]
        )
        clusters, _ = assert_matches_reference(values, ctol)
        merged = k <= 1
        assert [c.multiplicity for c in clusters] == ([2] * 3 if merged else [1] * 6)
        assert all(c.partner is not None for c in clusters if c.kind != KIND_REAL)

    def test_transitive_chain_merges(self):
        ctol = 1e-3
        # the ends are 1.8 ctol apart; the middle value joins them
        values = np.array([1.8 * ctol, 0.0, 0.9 * ctol, 1.0])
        clusters, order = assert_matches_reference(values, ctol)
        assert [c.multiplicity for c in clusters] == [3, 1]
        assert order == [0, 1, 2, 3]

    @pytest.mark.parametrize("flip", [False, True], ids=["plus_first", "minus_first"])
    def test_equidistant_lowers_link_the_later_one(self, flip):
        ctol = 2.0**-10
        d = 0.625 * ctol  # each lower is exactly d from the conjugate, 2d apart
        lowers = [1 + d - 1j, 1 - d - 1j]
        if flip:
            lowers.reverse()
        values = np.array([lowers[0], 1 + 1j, lowers[1]])
        clusters, _ = assert_matches_reference(values, ctol)
        upper = next(c for c in clusters if c.kind == KIND_UPPER)
        assert clusters[upper.partner].value == lowers[1]
        assert [c.partner is None for c in clusters].count(True) == 1

    def test_a_lower_links_to_one_upper_only(self):
        ctol = 2.0**-10
        d = 0.625 * ctol  # each upper is exactly d from the lower's conjugate
        values = np.array([1 + d + 1j, 1 - 1j, 1 - d + 1j])
        clusters, _ = assert_matches_reference(values, ctol)
        by_value = {c.value: c for c in clusters}
        assert clusters[by_value[1 - 1j].partner].value == 1 + d + 1j
        assert by_value[1 - d + 1j].partner is None

    @pytest.mark.parametrize("d", [1e-15, -1e-15], ids=["pair_right", "pair_left"])
    def test_real_cluster_precedes_a_pair_of_equal_real_part(self, d):
        # the pair's real part is 1 up to rounding, on either side
        values = np.array([1, 1, 1 + d + 1j, 1 + d - 1j, 2])
        clusters, order = assert_matches_reference(values, 1e-8)
        assert [(c.kind, c.multiplicity) for c in clusters] == [
            (KIND_REAL, 2),
            (KIND_UPPER, 1),
            (KIND_LOWER, 1),
            (KIND_REAL, 1),
        ]
        assert order == [0, 1, 2, 3, 4]

    def test_unlinked_upper_precedes_its_lower(self):
        # multiplicities 2 and 1 cannot link; equal |imaginary| puts the upper first
        values = np.array([2 - 3j, 2 + 3j, 2 + 3j])
        clusters, order = assert_matches_reference(values, 1e-8)
        assert [(c.kind, c.partner) for c in clusters] == [
            (KIND_UPPER, None),
            (KIND_LOWER, None),
        ]
        assert order == [1, 2, 0]

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.lists(
            st.tuples(st.booleans(), st.integers(1, 3)), min_size=1, max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_order_invariance_property(self, spec, seed):
        # cluster centres at least 1 apart, members within 0.05 ctol per component
        rng = np.random.default_rng(seed)
        ctol = 1e-6
        values = []
        for (pair, mult), x in zip(spec, rng.permutation(np.arange(-10, 10))):
            y = rng.uniform(0.5, 2.0) if pair else 0.0
            for centre in [complex(x, y), complex(x, -y)] if pair else [complex(x)]:
                jitter = rng.uniform(-0.05, 0.05, (mult, 2)) * ctol
                values += [centre + complex(*j) for j in jitter]
        values = np.array(values)
        perm = rng.permutation(values.size)
        base, base_order = assert_matches_reference(values, ctol)
        shuffled, shuffled_order = assert_matches_reference(values[perm], ctol)

        def layout(clusters):
            return [(c.multiplicity, c.kind, c.partner) for c in clusters]

        assert layout(shuffled) == layout(base)
        assert all(c.partner is not None for c in base if c.kind != KIND_REAL)
        for a, b in zip(base, shuffled):
            assert abs(a.value - b.value) <= ctol
            members = np.sort_complex(values[base_order][a.cols])
            assert np.array_equal(np.sort_complex(values[perm][shuffled_order][b.cols]), members)

