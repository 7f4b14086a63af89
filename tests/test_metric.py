from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudoherm.errors import InvalidEta, NotPseudoHermitian, RealSpectrumRequired
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.linalg import frobenius_norm, singular_values, spectral_norm
from pseudoherm.metric import (
    CanonicalInverse,
    EtaOperator,
    SignAssignment,
    antilinear_symmetry,
    canonical_eta,
    eta_from_M,
    hermitian_similarity,
    pseudo_adjoint,
    verify_pseudo_hermiticity,
)
from pseudoherm.spectral import KIND_UPPER, decompose
from pseudoherm.twolevel import TwoLevelParams, closed_form_system

from antilinear_reference import antilinear_symmetry as dense_antilinear_symmetry
from support import (
    draw_spectrum,
    matrix_with_spectrum,
    positive_definite,
    random_paired_hamiltonian,
    well_conditioned,
)


def oscillator_system(omega=2.0):
    return closed_form_system(
        TwoLevelParams.from_coefficients(0, 1j, -1j * omega**2)
    )


@pytest.fixture(scope="module")
def degenerate_pair_system(bench_inputs):
    """First matrix of the seed-1 `pair_degenerate` benchmark pair: n = 256,
    conjugate pairs of multiplicity 1-3 and a zero cluster of multiplicity 3."""
    first, _ = bench_inputs.pair_inputs("pair_degenerate", 1)
    return decompose(first.h)


class TestPseudoAdjoint:
    def test_identity_metrics_give_dagger(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        eye = EtaOperator.identity(3)
        assert np.allclose(pseudo_adjoint(a, eye, eye), a.conj().T)

    def test_oscillator_spin_sharp(self):
        # L from the oscillator-to-spin intertwiner at omega=2; spin metric is
        # the identity, oscillator metric canonical with signs (-1, +1)
        sys = oscillator_system()
        eta1 = canonical_eta(sys, SignAssignment.from_flat(sys, [-1, 1]))
        eta2 = EtaOperator.identity(2)
        l = (np.sqrt(2.0) / 2.0) * np.array([[0.5, 0.25j], [1j, 0.5]])
        expected = np.sqrt(2.0) * np.array([[2.0, 1j], [-4j, -2.0]])
        assert np.allclose(pseudo_adjoint(l, eta1, eta2), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_double_adjoint_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        eta_p = EtaOperator.from_matrix(positive_definite(3, rng))
        eta_m = EtaOperator.from_matrix(positive_definite(4, rng))
        sharp = pseudo_adjoint(a, eta_p, eta_m)
        # the adjoint of the sharp goes the other way: swap the metrics
        back = pseudo_adjoint(sharp, eta_m, eta_p)
        assert np.allclose(back, a, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pseudo_adjoint(np.eye(2), EtaOperator.identity(3), EtaOperator.identity(2))


class TestCanonicalEta:
    def test_hermitian_orthonormal_gives_identity(self):
        sys = decompose(np.diag([1.0, -1.0]))
        eta = canonical_eta(sys)
        assert np.allclose(eta.matrix, np.eye(2), atol=1e-14)
        assert np.allclose(eta.inverse, np.eye(2), atol=1e-14)

    def test_oscillator_signed_metric(self):
        # canonical form from the closed-form dual vectors; the commonly
        # displayed variant is omega^2 times this matrix
        sys = oscillator_system()
        eta = canonical_eta(sys, SignAssignment.from_flat(sys, [-1, 1]))
        expected = np.array([[-12.0, 10j], [-10j, -3.0]]) / 64.0
        assert np.allclose(eta.matrix, expected, atol=1e-14)
        expected_inv = np.array([[3.0, 10j], [-10j, 12.0]])
        assert np.allclose(eta.inverse, expected_inv, atol=1e-12)
        assert np.allclose(eta.matrix @ eta.inverse, np.eye(2), atol=1e-12)

    def test_conjugate_pair_swap_metric(self):
        params = TwoLevelParams.from_coefficients(0.0, 1.0, -4.0)
        sys = closed_form_system(params)
        eta = canonical_eta(sys)
        # swap form |phi_u><phi_l| + |phi_l><phi_u| from the closed-form duals
        phi_u, phi_l = sys.phi[:, 0], sys.phi[:, 1]
        expected = np.outer(phi_u, phi_l.conj()) + np.outer(phi_l, phi_u.conj())
        assert np.allclose(eta.matrix, expected, atol=1e-14)
        assert np.allclose(eta.matrix, eta.matrix.conj().T, atol=1e-14)
        h = np.array([[0.0, 1.0], [-4.0, 0.0]])
        assert verify_pseudo_hermiticity(h, eta).passed

    def test_refuses_unpairable(self):
        sys = decompose(np.diag([1.0, 2 + 3j]))
        with pytest.raises(NotPseudoHermitian):
            canonical_eta(sys)

    def test_rejects_fewer_signs_than_the_cluster_multiplicity(self):
        # one sign for the doubly degenerate cluster at 1 would leave a zero
        # column in eta
        sys = decompose(np.diag([1.0, 1.0, 3.0]))
        with pytest.raises(ValueError, match="expected 3 signs for the real eigenvectors, got 2"):
            canonical_eta(sys, SignAssignment(sys.clusters, (1, 1)))

    def test_rejects_a_sign_other_than_plus_or_minus_one(self):
        sys = decompose(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match=r"signs must be \+1 or -1"):
            canonical_eta(sys, SignAssignment(sys.clusters, (1, 2, 1)))

    def test_rejects_signs_on_a_cluster_that_is_not_real(self):
        # clusters 0 and 1 are the pair +-i, cluster 2 the real eigenvalue;
        # signs drawn for three real clusters put signs on the pair
        sys = decompose(np.diag([1j, -1j, 2.0]))
        signs = SignAssignment.uniform(decompose(np.diag([1.0, 2.0, 3.0])))
        with pytest.raises(ValueError, match="another cluster layout"):
            canonical_eta(sys, signs)

    def test_missing_real_cluster_raises_key_error(self):
        # signs drawn for diag(1) know no cluster 1, and canonical_eta
        # refuses them for the two real clusters of diag(1, 2)
        sys = decompose(np.diag([1.0, 2.0]))
        short = SignAssignment.from_flat(decompose(np.diag([1.0])), [1])
        with pytest.raises(KeyError, match="cluster 1"):
            short.signs_for(1)
        with pytest.raises(ValueError, match="another cluster layout"):
            canonical_eta(sys, short)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_all_sign_choices_verify(self, seed):
        rng = np.random.default_rng(seed)
        h = random_paired_hamiltonian(rng, 5)
        sys = decompose(h)
        flats = [c.multiplicity for i, c in enumerate(sys.clusters) if c.kind == "Real"]
        total = sum(flats)
        signs = rng.choice([-1, 1], size=total)
        eta = canonical_eta(sys, SignAssignment.from_flat(sys, signs))
        assert np.allclose(eta.matrix, eta.matrix.conj().T, atol=1e-10)
        assert np.allclose(eta.matrix @ eta.inverse, np.eye(5), atol=1e-8)
        assert verify_pseudo_hermiticity(h, eta).passed


class TestSignAssignment:
    def test_flat_round_trip(self):
        sys = decompose(np.diag([1.0, 2.0, 3.0]))
        sa = SignAssignment.from_flat(sys, [-1, 1, -1])
        assert sa.flat == (-1, 1, -1)

    def test_wrong_length_rejected(self):
        sys = decompose(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            SignAssignment.from_flat(sys, [1])

    def test_bad_entry_rejected(self):
        sys = decompose(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            SignAssignment.from_flat(sys, [1, 2])

    def test_non_integer_entry_rejected(self):
        sys = decompose(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            SignAssignment.from_flat(sys, [1.5, -1.7])
        flat = SignAssignment.from_flat(sys, [1.0, -1.0]).flat
        assert flat == (1, -1) and all(type(s) is int for s in flat)

    @settings(max_examples=40, deadline=None)
    @given(
        reals=st.lists(st.integers(1, 3), max_size=3),
        pairs=st.lists(st.integers(1, 3), max_size=2),
        other=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_signs_follow_the_columns(self, reals, pairs, other, seed):
        # real clusters at -1.5, -0.5, 0.5 and pairs at +-i, 1 +- i, with the
        # multiplicities drawn; `other` lays out real clusters only
        assume(reals or pairs)
        rng = np.random.default_rng(seed)
        values = [k - 1.5 for k, m in enumerate(reals) for _ in range(m)]
        for k, m in enumerate(pairs):
            values += [complex(k, 1.0)] * m + [complex(k, -1.0)] * m
        sys = decompose(matrix_with_spectrum(values, rng))
        flat = tuple(int(s) for s in rng.choice([-1, 1], size=sum(reals)))
        signs = SignAssignment.from_flat(sys, flat)
        assert signs.flat == flat
        start = 0
        for i in sys.real_cluster_indices():
            stop = start + sys.clusters[i].multiplicity
            assert signs.signs_for(i) == flat[start:stop]
            start = stop

        # Sylvester's law: eta = phi B phi^H has the inertia of B, one -1 per
        # negative sign and one per PairUpper column
        eta = canonical_eta(sys, signs).matrix
        w = np.linalg.eigvalsh((eta + eta.conj().T) / 2)
        upper = sum(c.multiplicity for c in sys.clusters if c.kind == KIND_UPPER)
        assert upper == sum(pairs)
        assert int(np.sum(w < 0)) == flat.count(-1) + upper

        diag = [float(k) for k, m in enumerate(other) for _ in range(m)]
        foreign = SignAssignment.uniform(decompose(np.diag(diag)))
        if pairs or other != reals:
            with pytest.raises(ValueError, match="another cluster layout"):
                canonical_eta(sys, foreign)
        else:
            canonical_eta(sys, foreign)


class TestEtaFromM:
    def test_identity_blocks_match_canonical(self):
        rng = np.random.default_rng(3)
        h = matrix_with_spectrum([1.0, -2.0, 0.5], rng)
        sys = decompose(h)
        eta_general = eta_from_M(sys, real_blocks=[np.eye(1)] * 3)
        eta_canonical = canonical_eta(sys)
        assert np.allclose(eta_general.matrix, eta_canonical.matrix, atol=1e-12)

    def test_degenerate_block(self):
        rng = np.random.default_rng(4)
        h = matrix_with_spectrum([2.0, 2.0, 5.0], rng)
        sys = decompose(h)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        eta = eta_from_M(sys, real_blocks=[m, np.eye(1)])
        assert np.allclose(eta.matrix, eta.matrix.conj().T, atol=1e-10)
        check = verify_pseudo_hermiticity(h, eta)
        assert check.value <= 1e-10

    def test_sign_block_matches_canonical(self):
        rng = np.random.default_rng(5)
        h = matrix_with_spectrum([2.0, 2.0], rng)
        sys = decompose(h)
        eta_general = eta_from_M(sys, real_blocks=[np.diag([1.0, -1.0])])
        signs = SignAssignment.from_flat(sys, [1, -1])
        eta_canonical = canonical_eta(sys, signs)
        assert np.allclose(eta_general.matrix, eta_canonical.matrix, atol=1e-12)

    def test_pair_blocks(self):
        rng = np.random.default_rng(6)
        h = matrix_with_spectrum([1 + 1j, 1 - 1j, 3.0], rng)
        sys = decompose(h)
        eta = eta_from_M(
            sys, real_blocks=[np.eye(1)], pair_blocks=[np.array([[2.0 + 1j]])]
        )
        assert verify_pseudo_hermiticity(h, eta).passed

    def test_singular_block_rejected(self):
        rng = np.random.default_rng(7)
        sys = decompose(matrix_with_spectrum([2.0, 2.0, 5.0], rng))
        with pytest.raises(InvalidEta):
            eta_from_M(sys, real_blocks=[np.zeros((2, 2)), np.eye(1)])

    def test_non_hermitian_block_rejected(self):
        rng = np.random.default_rng(8)
        sys = decompose(matrix_with_spectrum([2.0, 2.0, 5.0], rng))
        with pytest.raises(InvalidEta):
            eta_from_M(sys, real_blocks=[np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(1)])

    def test_non_hermitian_before_singular_block(self):
        # the blocks share from_matrix's tests, Hermiticity first
        rng = np.random.default_rng(8)
        sys = decompose(matrix_with_spectrum([2.0, 2.0, 5.0], rng))
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidEta, match="real-cluster block is not Hermitian"):
            eta_from_M(sys, real_blocks=[nilpotent, np.eye(1)])

    def test_singular_pair_block_rejected(self):
        rng = np.random.default_rng(6)
        sys = decompose(matrix_with_spectrum([1 + 1j, 1 - 1j, 3.0], rng))
        with pytest.raises(InvalidEta, match="pair block is numerically singular"):
            eta_from_M(sys, real_blocks=[np.eye(1)], pair_blocks=[np.zeros((1, 1))])

    def test_one_svd_per_block(self, monkeypatch):
        import pseudoherm.metric as metric

        calls = []

        def counted(m):
            calls.append(m.shape)
            return singular_values(m)

        rng = np.random.default_rng(7)
        sys = decompose(matrix_with_spectrum([2.0, 2.0, 5.0], rng))
        monkeypatch.setattr(metric, "singular_values", counted)
        eta_from_M(sys, real_blocks=[positive_definite(2, rng), np.eye(1)])
        assert sorted(calls) == [(1, 1), (2, 2)]

    @pytest.mark.parametrize("seed", range(4))
    def test_basis_covariance(self, seed):
        # mixing the columns of a degenerate cluster by V and transforming the
        # block as V^H M V reproduces the same metric matrix
        rng = np.random.default_rng(seed)
        h = matrix_with_spectrum([2.0, 2.0, 2.0, -1.0], rng)
        sys = decompose(h)
        idx = next(
            i for i, c in enumerate(sys.clusters) if c.multiplicity == 3
        )
        m = positive_definite(3, rng)
        real_blocks = []
        for i in sys.real_cluster_indices():
            real_blocks.append(m if i == idx else np.eye(sys.clusters[i].multiplicity))
        eta_before = eta_from_M(sys, real_blocks=real_blocks)

        v = well_conditioned(3, rng)
        cols = sys.clusters[idx].cols
        psi, phi = sys.psi.copy(), sys.phi.copy()
        psi[:, cols] = psi[:, cols] @ v
        phi[:, cols] = phi[:, cols] @ np.linalg.inv(v).conj().T
        sys = replace(sys, psi=psi, phi=phi)
        real_blocks_t = []
        for i in sys.real_cluster_indices():
            real_blocks_t.append(
                v.conj().T @ m @ v if i == idx else np.eye(sys.clusters[i].multiplicity)
            )
        eta_after = eta_from_M(sys, real_blocks=real_blocks_t)
        assert np.allclose(eta_before.matrix, eta_after.matrix, atol=1e-9)


class TestVerifyPseudoHermiticity:
    def test_hermitian_with_identity(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        check = verify_pseudo_hermiticity(h, EtaOperator.identity(2))
        assert check.value < 1e-15
        assert check.passed

    def test_oscillator_metric(self):
        sys = oscillator_system()
        eta = canonical_eta(sys, SignAssignment.from_flat(sys, [-1, 1]))
        h = np.array([[0, 1j], [-4j, 0]])
        check = verify_pseudo_hermiticity(h, eta)
        assert check.value <= 1e-10

    def test_nilpotent_with_identity_fails(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        check = verify_pseudo_hermiticity(h, EtaOperator.identity(2))
        # Frobenius norm of H - H^H = [[0, 1], [-1, 0]]
        assert check.value == pytest.approx(np.sqrt(2.0))
        assert not check.passed


class TestEtaOperator:
    def test_from_matrix_rejects_non_hermitian(self):
        with pytest.raises(InvalidEta):
            EtaOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_from_matrix_rejects_singular(self):
        with pytest.raises(InvalidEta):
            EtaOperator.from_matrix(np.diag([1.0, 0.0]))

    def test_from_matrix_inverse(self):
        rng = np.random.default_rng(9)
        g = positive_definite(4, rng)
        eta = EtaOperator.from_matrix(g)
        assert np.allclose(eta.matrix @ eta.inverse, np.eye(4), atol=1e-12)

    def test_from_matrix_non_hermitian_before_singular(self):
        # both non-Hermitian and singular: the Hermiticity test decides first
        with pytest.raises(InvalidEta, match="not Hermitian"):
            EtaOperator.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_from_matrix_takes_one_svd(self, monkeypatch):
        # construction validates from one SVD; the norm takes one more, once
        import pseudoherm.metric as metric

        calls = []

        def counted(name, f):
            def wrapped(m):
                calls.append(name)
                return f(m)

            return wrapped

        monkeypatch.setattr(metric, "singular_values", counted("svd", singular_values))
        monkeypatch.setattr(metric, "spectral_norm", counted("norm", spectral_norm))
        g = positive_definite(4, np.random.default_rng(9))
        eta = EtaOperator.from_matrix(g)
        assert calls == ["svd"]
        assert eta.norm == pytest.approx(np.linalg.norm(g, 2), rel=1e-14)
        assert eta.norm == eta.norm
        assert calls == ["svd", "norm"]


def bits(a):
    """The entries of a complex array as int64 pairs, so that equality is
    bit for bit, the signs of zeros included."""
    return np.ascontiguousarray(a).view(np.int64)


class TestFormedInverse:
    """A canonical metric holds eta^-1 as its `CanonicalInverse` and forms it
    on each access; it and every pseudo-adjoint keep the bits of the direct
    products (psi[:, p] * s) @ psi.conj().T and eta+^-1 @ A^H @ eta-."""

    def assert_exact(self, sys, eta, a, eta_plus, eta_minus):
        form = eta.inverse_form
        assert isinstance(form, CanonicalInverse)
        assert np.shares_memory(form.psi, sys.psi)
        direct = (sys.psi[:, form.p] * form.s) @ sys.psi.conj().T
        first, second = eta.inverse, eta.inverse
        assert np.array_equal(bits(first), bits(direct))
        assert not np.shares_memory(first, second)
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0
        direct = eta_plus.inverse @ a.conj().T @ eta_minus.matrix
        assert np.array_equal(bits(pseudo_adjoint(a, eta_plus, eta_minus)), bits(direct))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["pair_simple", "pair_degenerate"])
    def test_benchmark_pairs(self, bench_inputs, workload, seed):
        first, second = bench_inputs.pair_inputs(workload, seed)
        sys1, sys2 = decompose(first.h), decompose(second.h)
        fact = canonical_factorization(sys1, sys2)
        self.assert_exact(sys1, fact.eta1, fact.matrix, fact.eta1, fact.eta2)
        self.assert_exact(sys2, fact.eta2, fact.matrix.conj().T, fact.eta2, fact.eta1)

    def test_real_eigenvectors(self):
        # psi is a real permutation matrix, so nearly every entry and every
        # imaginary part of each product is an exact zero: moving a
        # conjugation turns their signs, and only adding 0.0 turns them back
        sys = decompose(np.diag(np.linspace(-2.5, 3.5, 6)[::-1]))
        assert not np.any(sys.psi.imag)
        eta = canonical_eta(sys, SignAssignment.from_flat(sys, [1, -1] * 3))
        fact = self_factorization(sys)
        self.assert_exact(sys, eta, fact.matrix, eta, eta)
        self.assert_exact(sys, fact.eta1, fact.matrix, fact.eta1, fact.eta2)

    def test_explicit_pair_keeps_its_inverse(self):
        g = positive_definite(4, np.random.default_rng(9))
        inverse = np.linalg.inv(g)
        eta = EtaOperator(matrix=g, inverse_form=inverse)
        assert np.shares_memory(eta.inverse, inverse) and eta.inverse is eta.inverse
        assert not eta.inverse.flags.writeable and inverse.flags.writeable
        a = np.random.default_rng(10).standard_normal((4, 4)) + 0j
        assert np.array_equal(bits(pseudo_adjoint(a, eta, eta)), bits(inverse @ a.conj().T @ g))


class TestAntilinearSymmetry:
    def test_real_matrix(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((4, 4))
        sys = decompose(h)
        op = antilinear_symmetry(sys)
        assert op.commutation_residual(h) <= 1e-8 * np.linalg.norm(h, 2)

    def test_diagonal_imaginary_pair_gives_swap(self):
        sys = decompose(np.diag([1j, -1j]))
        op = antilinear_symmetry(sys)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(op.linear_part, swap, atol=1e-14)
        h = np.diag([1j, -1j])
        assert op.commutation_residual(h) == 0.0

    def test_oscillator(self):
        h = np.array([[0, 1j], [-4j, 0]])
        op = antilinear_symmetry(decompose(h))
        assert op.commutation_residual(h) <= 1e-10

    def test_apply_conjugates(self):
        sys = decompose(np.diag([1j, -1j]))
        op = antilinear_symmetry(sys)
        v = np.array([1.0 + 2j, 3.0])
        assert np.allclose(op(v), op.linear_part @ v.conj())

    def test_refuses_unpairable(self):
        sys = decompose(np.diag([1.0, 2 + 3j]))
        with pytest.raises(NotPseudoHermitian):
            antilinear_symmetry(sys)

    @pytest.mark.parametrize("case", ["zero_cluster", "pair_degenerate"])
    def test_matches_the_dense_permutation_reference(self, case, request):
        if case == "zero_cluster":
            rng = np.random.default_rng(12)
            values = [0.0, 0.0, 1 + 1j, 1 - 1j, 2.0, 2.0 + 0.5j, 2.0 - 0.5j]
            sys = decompose(matrix_with_spectrum(values, rng))
        else:
            sys = request.getfixturevalue("degenerate_pair_system")
        assert any(sys.is_zero_cluster(i) for i in sys.real_cluster_indices())
        expected = dense_antilinear_symmetry(sys).linear_part
        assert np.array_equal(antilinear_symmetry(sys).linear_part, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_paired_systems(self, seed):
        rng = np.random.default_rng(seed)
        h = random_paired_hamiltonian(rng, 6)
        sys = decompose(h)
        op = antilinear_symmetry(sys)
        bound = 1e-8 * np.linalg.norm(h, 2) * sys.psi_cond**2
        assert op.commutation_residual(h) <= bound


class TestHermitianSimilarity:
    def test_hermitian_input(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = x + x.conj().T
        sys = decompose(h)
        o, diag, eta = hermitian_similarity(sys)
        assert np.allclose(o @ h @ np.linalg.inv(o), diag, atol=1e-10)
        # orthonormal eigenbasis: O is unitary and eta is close to identity
        assert np.allclose(o @ o.conj().T, np.eye(4), atol=1e-8)
        assert np.min(np.linalg.eigvalsh(eta.matrix)) > 0
        # the all-+1 canonical metric of a real spectrum
        assert np.array_equal(eta.matrix, sys.phi @ sys.phi.conj().T)
        assert np.array_equal(eta.inverse, sys.psi @ sys.psi.conj().T)

    def test_upper_triangular_example(self):
        h = np.array([[1.0, 1.0], [0.0, 2.0]])
        sys = decompose(h)
        o, diag, eta = hermitian_similarity(sys)
        assert np.allclose(np.diag(diag), [1.0, 2.0])
        assert np.linalg.norm(o @ h @ np.linalg.inv(o) - diag, 2) <= 1e-12
        assert np.min(np.linalg.eigvalsh(eta.matrix)) > 0
        check = verify_pseudo_hermiticity(h, eta)
        assert check.passed

    def test_oscillator(self):
        h = np.array([[0, 1j], [-4j, 0]])
        sys = decompose(h)
        o, diag, eta = hermitian_similarity(sys)
        assert np.allclose(np.diag(diag), [-2.0, 2.0], atol=1e-10)
        assert np.min(np.linalg.eigvalsh(eta.matrix)) > 0

    def test_rejects_complex_spectrum(self):
        sys = decompose(np.array([[0.0, 1.0], [-4.0, 0.0]]))
        with pytest.raises(RealSpectrumRequired):
            hermitian_similarity(sys)


def dense_metric(sys_, real_blocks, pair_blocks):
    """phi B phi^H and psi B^-1 psi^H with B and B^-1 laid out densely."""
    n = sys_.dim
    b = np.zeros((n, n), dtype=complex)
    b_inv = np.zeros((n, n), dtype=complex)
    for i, block in real_blocks.items():
        c = sys_.clusters[i].cols
        b[c, c] = block
        b_inv[c, c] = np.linalg.inv(block)
    for upper, block in pair_blocks.items():
        u = sys_.clusters[upper].cols
        w = sys_.clusters[sys_.clusters[upper].partner].cols
        b[u, w] = block
        b[w, u] = block.conj().T
        b_inv[u, w] = np.linalg.inv(block.conj().T)
        b_inv[w, u] = np.linalg.inv(block)
    return sys_.phi @ b @ sys_.phi.conj().T, sys_.psi @ b_inv @ sys_.psi.conj().T


class TestBlockAssembly:
    # "degen": the seed-1 `pair_degenerate` system; ids short enough that the
    # printed test names stay whole
    @pytest.mark.parametrize("case", ["n40", "degen"])
    def test_canonical_eta_equals_the_dense_product_bit_for_bit(self, case, request):
        if case == "n40":
            rng = np.random.default_rng(7)
            sys_ = decompose(matrix_with_spectrum(draw_spectrum(rng, 40), rng))
        else:
            rng = np.random.default_rng(1)
            sys_ = request.getfixturevalue("degenerate_pair_system")
        flat = rng.choice([-1, 1], size=sum(
            sys_.clusters[i].multiplicity for i in sys_.real_cluster_indices()
        ))
        signs = SignAssignment.from_flat(sys_, flat)
        eta = canonical_eta(sys_, signs)
        real = {
            i: np.diag(np.asarray(signs.signs_for(i), dtype=complex))
            for i in sys_.real_cluster_indices()
        }
        pairs = {
            u: np.eye(sys_.clusters[u].multiplicity, dtype=complex)
            for u, _ in sys_.pair_groups()
        }
        matrix, inverse = dense_metric(sys_, real, pairs)
        assert np.array_equal(eta.matrix, matrix)
        assert np.array_equal(eta.inverse, inverse)

    def test_general_blocks_agree_with_the_dense_product(self):
        rng = np.random.default_rng(8)
        sys_ = decompose(matrix_with_spectrum(draw_spectrum(rng, 30), rng))
        real, pairs = {}, {}
        for i in sys_.real_cluster_indices():
            m = rng.standard_normal((sys_.clusters[i].multiplicity,) * 2)
            real[i] = (m + m.T + 4 * np.eye(len(m))).astype(complex)
        for u, _ in sys_.pair_groups():
            mu = sys_.clusters[u].multiplicity
            pairs[u] = (np.eye(mu) + 0.3 * rng.standard_normal((mu, mu))).astype(complex)
        eta = eta_from_M(sys_, list(real.values()), list(pairs.values()))
        matrix, inverse = dense_metric(sys_, real, pairs)
        assert frobenius_norm(eta.matrix - matrix) <= 1e-12 * frobenius_norm(matrix)
        assert frobenius_norm(eta.inverse - inverse) <= 1e-12 * frobenius_norm(inverse)
