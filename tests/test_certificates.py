"""Certificates that let the pair pipeline skip an SVD: an empty Witten
kernel, cond(psi) <= cond_max and a non-null metric restriction are each
first decided from matrices already held, and every decision must equal the
one the exact SVD rule makes.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import spectral, susy
from pseudoherm.errors import NonDiagonalizable
from pseudoherm.intertwine import canonical_factorization, verify_intertwining
from pseudoherm.linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _residual_bound,
    certified_inverse,
    cond,
    frobenius_norm,
    kernel_basis,
)
from pseudoherm.metric import EtaOperator, verify_pseudo_hermiticity
from pseudoherm.spectral import _cond_checked_inverse, decompose
from pseudoherm.susy import _non_null, from_factorization, verify_algebra, witten_index

from support import draw_spectrum, matrix_with_spectrum, random_unitary

def with_singular_values(s, rng):
    n = len(s)
    return (random_unitary(n, rng) * np.asarray(s)) @ random_unitary(n, rng).conj().T


def kernel_cutoff(h, tol=DEFAULT_TOLERANCE):
    """kernel_basis's cutoff as a function of s_max, as witten_index passes it."""
    return lambda smax: tol.svd_cutoff(h.shape, smax)


class TestInvertibilityCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(32, 80),
        log_scale=st.floats(-200, 200),
        k=st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_passes_a_matrix_with_a_kernel(self, n, log_scale, k, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        s = scale * rng.uniform(1.0, 2.0, size=n)
        s[-1] = k * DEFAULT_TOLERANCE.svd_cutoff((n, n), float(s.max()))
        h = with_singular_values(s, rng)
        if certified_inverse(h, kernel_cutoff(h)) is not None:
            assert kernel_basis(h).shape[1] == 0

    def test_passes_the_partners_of_a_simple_benchmark_pair(self, bench_inputs):
        first, second = bench_inputs.pair_inputs("pair_simple", 1)
        fact = canonical_factorization(decompose(first.h), decompose(second.h))
        psys = from_factorization(fact)
        assert psys.dim_plus == 256
        for h in (psys.h_plus, psys.h_minus):
            assert certified_inverse(h, kernel_cutoff(h)) is not None

    def test_residual_bound_covers_a_residual_that_rounds_away(self):
        # fl(3 * fl(1/3)) = 1, so the computed residual of x = fl(1/3) I is 0,
        # while 3 * fl(1/3) - 1 = -2**-54 exactly
        n = 40
        a = 3.0 * np.eye(n, dtype=complex)
        x = np.linalg.inv(a)
        r = a @ x
        r.reshape(-1)[:: n + 1] -= 1.0
        assert frobenius_norm(r) == 0.0
        bound = _residual_bound(a, x, frobenius_norm(a), frobenius_norm(x))
        assert bound >= np.sqrt(n) * 2.0**-54

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 48),
        log_cond=st.floats(1, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_bound_covers_the_exact_residual(self, n, log_cond, seed):
        rng = np.random.default_rng(seed)
        a = with_singular_values(np.geomspace(1.0, 10.0**-log_cond, n), rng)
        x = np.linalg.inv(a)
        wide = np.clongdouble
        exact = a.astype(wide) @ x.astype(wide) - np.eye(n, dtype=wide)
        bound = _residual_bound(a, x, frobenius_norm(a), frobenius_norm(x))
        assert bound >= float(np.sqrt(np.sum(np.abs(exact) ** 2)))

    def test_singular_or_empty_input_is_not_certified(self):
        tiny = lambda smax: 1e-300  # noqa: E731
        assert certified_inverse(np.zeros((4, 4), dtype=complex), tiny) is None
        assert certified_inverse(np.zeros((0, 0), dtype=complex), tiny) is None


class TestCondCertificate:
    @pytest.mark.parametrize("n", [2, 40])
    @pytest.mark.parametrize("log_cond", [4, 12, 15])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_decision_matches_cond_at_the_boundary(self, n, log_cond, factor):
        # one dominant and one tiny singular value, so ||psi||_F ||psi^-1||_F
        # is within rounding of cond(psi) once cond(psi) >> 1e4 sqrt(n)
        s = np.full(n, 1e-4)
        s[0], s[-1] = 1.0, 10.0**-log_cond
        for seed in range(25):
            psi = with_singular_values(s, np.random.default_rng(seed))
            exact = cond(psi)
            tol = Tolerance(cond_max=exact * factor)
            if factor > 1:
                inverse, _ = _cond_checked_inverse(psi, tol)
                assert np.array_equal(inverse, np.linalg.inv(psi))
            else:
                with pytest.raises(NonDiagonalizable, match=re.escape(f"{exact:.3e}")):
                    _cond_checked_inverse(psi, tol)

    def test_well_conditioned_psi_skips_the_svd(self, monkeypatch):
        psi = with_singular_values(np.linspace(1.0, 2.0, 40), np.random.default_rng(0))
        monkeypatch.setattr(spectral, "cond", lambda m: pytest.fail())
        inverse, psi_cond = _cond_checked_inverse(psi, DEFAULT_TOLERANCE)
        assert psi_cond is None
        assert np.array_equal(inverse, np.linalg.inv(psi))

    @pytest.mark.parametrize("k", range(1, 16))
    def test_near_jordan_family_keeps_its_decisions(self, k):
        eps = 10.0**-k
        h = np.array([[1.0, 1.0], [0.0, 1.0 + eps]])
        # clusters stay apart down to eps = 1e-15, so cond(psi) alone decides
        loose = Tolerance(rtol=1e-17, atol=1e-30, cond_max=1e300)
        exact = decompose(h, loose).psi_cond
        for factor in (1 - 1e-3, 1 + 1e-3):
            tol = Tolerance(rtol=1e-17, atol=1e-30, cond_max=exact * factor)
            if factor > 1:
                assert decompose(h, tol).psi_cond == exact
            else:
                with pytest.raises(NonDiagonalizable, match="condition number"):
                    decompose(h, tol)
        merged = eps <= DEFAULT_TOLERANCE.cluster_tol(np.linalg.norm(h, 2))
        if exact <= DEFAULT_TOLERANCE.cond_max and not merged:
            decompose(h)
        else:
            with pytest.raises(NonDiagonalizable):
                decompose(h)

    def test_phi_is_the_inverse_either_way(self):
        rng = np.random.default_rng(3)
        h = matrix_with_spectrum(draw_spectrum(rng, 12), rng)
        sys_ = decompose(h)
        assert np.array_equal(sys_.phi, np.linalg.inv(sys_.psi).conj().T)


def metric_with_kernel(planted, rng, n=12, spread=True):
    """(kernel, eta): eta has eigenvalues planted and 4 = ||eta||_2 on the
    two orthonormal kernel columns (mixed by a unitary), and n - 2 more of
    either sign. With `spread` those are of order one, so ||eta||_F is well
    above ||eta||_2; without it they are below 1e-6, so ||eta||_F is within
    1e-5 of ||eta||_2."""
    rest = rng.uniform(0.5, 3.0, size=n - 2) * rng.choice([-1, 1], size=n - 2)
    if not spread:
        rest *= 1e-7
    u = random_unitary(n, rng)
    eta = (u * np.concatenate([[planted, 4.0], rest])) @ u.conj().T
    eta = 0.5 * (eta + eta.conj().T)
    kernel = u[:, :2] @ random_unitary(2, rng)
    return kernel, EtaOperator(matrix=eta, inverse=np.linalg.inv(eta))


class TestNonNull:
    @pytest.mark.parametrize("spread", [True, False])
    @pytest.mark.parametrize("k", [0.5, 0.999, 1.001, 2.0])
    def test_flag_equals_the_exact_rule(self, k, spread):
        tol = Tolerance(atol=1e-3)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            kernel, eta = metric_with_kernel(k * tol.atol * 4.0, rng, spread=spread)
            norm2 = float(np.linalg.norm(eta.matrix, 2))
            restricted = kernel.conj().T @ eta.matrix @ kernel
            restricted = 0.5 * (restricted + restricted.conj().T)
            smallest = float(np.min(np.abs(np.linalg.eigvalsh(restricted))))
            assert _non_null(kernel, eta, tol) == (smallest > tol.atol * norm2)

    def test_exact_norm_only_below_the_frobenius_cutoff(self, monkeypatch):
        rng = np.random.default_rng(1)
        tol = Tolerance(atol=1e-3)
        kernel, eta = metric_with_kernel(2.0 * tol.atol * 4.0, rng, spread=False)
        monkeypatch.setattr(EtaOperator, "norm", property(lambda self: pytest.fail()))
        assert _non_null(kernel, eta, tol)


def svd_counter(monkeypatch):
    """Record compute_uv of every numpy SVD, including those inside norm()."""
    calls = []
    impl = np.linalg._linalg
    svd = impl.svd

    def counted(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(impl, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def pair_pipeline(h1, h2):
    """The benchmark's pair pipeline: decompose x2 -> factor -> verify ->
    graded system -> algebra -> Witten index."""
    fact = canonical_factorization(decompose(h1), decompose(h2))
    verify_pseudo_hermiticity(h1, fact.eta1)
    verify_pseudo_hermiticity(h2, fact.eta2)
    verify_intertwining(fact.matrix, h1, h2)
    psys = from_factorization(fact)
    verify_algebra(psys)
    return witten_index(psys)


def spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestCounts:
    def test_simple_pair_runs_three_singular_value_svds(self, monkeypatch):
        rng = np.random.default_rng(64)
        values = draw_spectrum(rng, 64, allow_degenerate=False)
        h1 = matrix_with_spectrum(values, rng)
        h2 = matrix_with_spectrum(values, rng)
        calls = svd_counter(monkeypatch)
        kernels = spy(monkeypatch, susy, "kernel_basis")
        wit = pair_pipeline(h1, h2)
        assert (wit.d0_plus, wit.d0_minus, wit.delta) == (0, 0, 0)
        assert calls == [False, False, False]  # two ||H||, one rank(D)
        assert kernels == []

    def test_pair_with_a_zero_cluster_reaches_kernel_basis(self, monkeypatch):
        rng = np.random.default_rng(5)
        values = [0.0] + draw_spectrum(rng, 39, allow_degenerate=False)
        h1 = matrix_with_spectrum(values, rng)
        h2 = matrix_with_spectrum(values, rng)
        certificates = spy(monkeypatch, susy, "certified_inverse")
        kernels = spy(monkeypatch, susy, "kernel_basis")
        wit = pair_pipeline(h1, h2)
        assert (wit.d0_plus, wit.d0_minus, wit.ker_d, wit.ker_d_dagger) == (1, 1, 1, 1)
        assert len(kernels) == 2
        assert certificates == []  # ker D != 0 on both sectors: no certificate tried

    def test_witten_flags_match_kernel_basis_on_benchmark_pairs(self, bench_inputs):
        for workload in ("pair_simple", "pair_degenerate"):
            first, second = bench_inputs.pair_inputs(workload, 2)
            fact = canonical_factorization(decompose(first.h), decompose(second.h))
            psys = from_factorization(fact)
            wit = witten_index(psys)
            assert wit.d0_plus == kernel_basis(psys.h_plus).shape[1]
            assert wit.d0_minus == kernel_basis(psys.h_minus).shape[1]
