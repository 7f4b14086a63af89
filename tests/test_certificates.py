"""Certificates that let the pair pipeline skip an SVD: cond(psi) <=
cond_max and a non-null metric restriction are each first decided from
matrices already held, and every decision must equal the one the exact SVD
rule makes. `certified_inverse` is also checked under a rank cutoff, where it
must never pass a matrix with a kernel. The Witten counts of a square D take
its rank from its singular values and its kernels from two LU solves, whose
certificate must give the counts and flags of D's SVD, or defer to it.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import spectral, susy
from pseudoherm.errors import NonDiagonalizable
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _residual_bound,
    certified_inverse,
    cond,
    frobenius_norm,
    kernels_from_solves,
    rank,
    singular_values,
)
from pseudoherm.metric import EtaOperator
from pseudoherm.spectral import _cond_checked_inverse, cluster_eigenvalues, decompose
from pseudoherm.susy import (
    _ANGLE_MAX,
    _non_null,
    assemble,
    from_factorization,
    witten_index,
)

from support import (
    draw_spectrum,
    kernel_basis,
    matrix_with_spectrum,
    pair_pipeline,
    random_metric,
    random_unitary,
    well_conditioned,
)

def with_singular_values(s, rng):
    n = len(s)
    return (random_unitary(n, rng) * np.asarray(s)) @ random_unitary(n, rng).conj().T


def kernel_cutoff(h, tol=DEFAULT_TOLERANCE):
    """kernel_basis's cutoff as a function of s_max."""
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
                inverse = _cond_checked_inverse(psi, tol)
                assert np.array_equal(inverse, np.linalg.inv(psi))
            else:
                with pytest.raises(NonDiagonalizable, match=re.escape(f"{exact:.3e}")):
                    _cond_checked_inverse(psi, tol)

    def test_well_conditioned_psi_skips_the_svd(self, monkeypatch):
        psi = with_singular_values(np.linspace(1.0, 2.0, 40), np.random.default_rng(0))
        monkeypatch.setattr(spectral, "cond", lambda m: pytest.fail())
        inverse = _cond_checked_inverse(psi, DEFAULT_TOLERANCE)
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


def spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestCounts:
    def test_simple_pair_runs_one_singular_value_svd(self, monkeypatch):
        rng = np.random.default_rng(64)
        values = draw_spectrum(rng, 64, allow_degenerate=False)
        h1 = matrix_with_spectrum(values, rng)
        h2 = matrix_with_spectrum(values, rng)
        calls = svd_counter(monkeypatch)
        systems = spy(monkeypatch, susy, "singular_system")
        wit = pair_pipeline(h1, h2)
        assert (wit.d0_plus, wit.d0_minus, wit.delta) == (0, 0, 0)
        # D's singular values; decompose's norm brackets decide every cluster
        assert calls == [False]
        assert systems == []

    def test_pair_with_a_zero_cluster_takes_no_svd_with_vectors(self, monkeypatch):
        rng = np.random.default_rng(5)
        values = [0.0] + draw_spectrum(rng, 39, allow_degenerate=False)
        h1 = matrix_with_spectrum(values, rng)
        h2 = matrix_with_spectrum(values, rng)
        calls = svd_counter(monkeypatch)
        systems = spy(monkeypatch, susy, "singular_system")
        wit = pair_pipeline(h1, h2)
        assert (wit.d0_plus, wit.d0_minus, wit.ker_d, wit.ker_d_dagger) == (1, 1, 1, 1)
        assert (wit.betti_plus, wit.betti_minus) == (1, 1)
        # D's singular values; the kernels of D and D^H come from two LU
        # solves, so no SVD with vectors and no n x n SVD of H+-
        assert calls == [False]
        assert systems == []

    @pytest.mark.parametrize("merged", [True, False])
    def test_a_gap_inside_the_band_takes_one_svd(self, merged, monkeypatch):
        # 62 simple eigenvalues and a gap g at 3.5 between w(lo) and w(hi),
        # the widths at the ends of decompose's norm bracket: only the exact
        # ||H|| can decide the merge, so it takes exactly that one SVD. g lies
        # just below the exact width (the pair merges) or at twice it (it
        # does not)
        rng = np.random.default_rng(11)
        base = draw_spectrum(rng, 62, allow_degenerate=False)
        v = well_conditioned(64, rng)

        def with_gap(gap):
            values = np.array(base + [3.5, 3.5 + gap], dtype=complex)
            return v @ np.diag(values) @ np.linalg.inv(v)

        h = with_gap(0.0)
        values, vectors = np.linalg.eig(h)
        lo, _ = spectral._norm_bracket(h, values, vectors)
        exact = DEFAULT_TOLERANCE.cluster_tol(np.linalg.norm(h, 2))
        low = DEFAULT_TOLERANCE.cluster_tol(lo)
        h = with_gap(0.5 * (low + exact) if merged else 2.0 * exact)
        calls = svd_counter(monkeypatch)
        sys_ = decompose(h)
        assert calls == [False]
        values, vectors = np.linalg.eig(h)
        top = np.sort_complex(values)[-2:]
        assert sys_.width.low < abs(top[1] - top[0]) < sys_.width.high
        exact = DEFAULT_TOLERANCE.cluster_tol(np.linalg.norm(h, 2))
        clusters, order = cluster_eigenvalues(values, exact)
        assert sys_.clusters == clusters
        assert np.array_equal(sys_.psi, vectors[:, order])
        assert max(c.multiplicity for c in clusters) == (2 if merged else 1)

    @pytest.mark.parametrize("n", [2, 7, 16, 31])
    def test_small_self_factorization_takes_two_svds(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        h = matrix_with_spectrum(draw_spectrum(rng, n, allow_degenerate=False), rng)
        calls = svd_counter(monkeypatch)
        fact = self_factorization(decompose(h))
        assert all(c.passed for c in fact.checks)
        # ||H|| in decompose and the exact cond(psi) of the factorization
        # threshold; the inverse that gives phi certifies cond(psi) <=
        # cond_max without one
        assert calls == [False, False]

    def test_witten_flags_match_kernel_basis_on_benchmark_pairs(self, bench_inputs):
        for workload in ("pair_simple", "pair_degenerate"):
            first, second = bench_inputs.pair_inputs(workload, 2)
            fact = canonical_factorization(decompose(first.h), decompose(second.h))
            psys = from_factorization(fact)
            wit = witten_index(psys)
            assert wit.d0_plus == kernel_basis(psys.h_plus).shape[1]
            assert wit.d0_minus == kernel_basis(psys.h_minus).shape[1]


def sine_to(span: np.ndarray, basis: np.ndarray) -> float:
    """Sine of the largest angle from span(basis) to span(span); both
    orthonormal."""
    return float(np.linalg.norm(basis - span @ (span.conj().T @ basis), 2))


def square_system(sigma, definite, rng):
    n = len(sigma)
    d = with_singular_values(sigma, rng)
    return assemble(d, random_metric(n, definite, rng), random_metric(n, definite, rng))


def svd_outcomes(psys, tol=DEFAULT_TOLERANCE):
    """d0+-, ker_d and the two flags from the bases of D's full SVD; the
    flags are `_non_null` on those bases, which the flags `_kernels` returns
    must equal."""
    r, k_plus, k_minus, *flags = susy._kernels(psys, tol)
    non_null = [_non_null(k_plus, psys.eta_plus, tol), _non_null(k_minus, psys.eta_minus, tol)]
    assert flags == non_null
    return (k_plus.shape[1], k_minus.shape[1], psys.dim_plus - r, *non_null)


def witten_outcomes(wit):
    return (wit.d0_plus, wit.d0_minus, wit.ker_d, wit.non_null_plus, wit.non_null_minus)


class TestKernelCertificate:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 24),
        zeros=st.integers(0, 24),
        definite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_solved_kernels_give_the_svd_outcomes(self, n, zeros, definite, seed):
        # sigma log-uniform on [1e-14, 1] with planted exact zeros, so
        # singular values fall on both sides of rank's cutoff
        rng = np.random.default_rng(seed)
        sigma = 10.0 ** rng.uniform(-14.0, 0.0, size=n)
        sigma[: min(zeros, n)] = 0.0
        psys = square_system(sigma, definite, rng)
        wit = witten_index(psys)
        expected = svd_outcomes(psys)
        assert witten_outcomes(wit) == expected
        assert wit.delta_equals_analytic_d == (expected[0] == expected[1])

        d = psys.d
        s = singular_values(d)
        r = rank(d)
        if not 0 < r < n:
            return
        found = kernels_from_solves(d, s, r)
        if found is None:
            return
        w, w_sharp, theta = found
        # the SVD's own subspaces are within n eps s_max / gap of the exact ones
        u, s_full, vh = np.linalg.svd(d)
        gap = s_full[r - 1] - s_full[r]
        svd_error = n * np.finfo(float).eps * s_full[0] / gap if gap > 0 else np.inf
        assert sine_to(vh[r:].conj().T, w) <= theta + svd_error
        assert sine_to(u[:, r:], w_sharp) <= theta + svd_error
        eta_m = psys.eta_minus
        widening = frobenius_norm(eta_m.matrix) * frobenius_norm(eta_m.inverse)
        k_sharp = np.linalg.qr(eta_m.inverse @ w_sharp)[0]
        svd_sharp = np.linalg.qr(eta_m.inverse @ u[:, r:])[0]
        assert sine_to(svd_sharp, k_sharp) <= widening * (theta + svd_error)

    @pytest.mark.parametrize("rows", [24, 26])
    def test_kernel_flags_take_no_second_restricted_form(self, rows, monkeypatch):
        # a square D of rank n - 3 takes the certified solves, a rectangular
        # one the SVD; neither widens a basis, so the two flags come from the
        # restricted forms `_kernels` already took, one per sector
        rng = np.random.default_rng(14)
        d = (random_unitary(rows, rng)[:, :21] * rng.uniform(0.5, 2.0, size=21)) @ (
            random_unitary(24, rng)[:, :21].conj().T
        )
        psys = assemble(d, random_metric(24, True, rng), random_metric(rows, True, rng))
        forms = spy(monkeypatch, susy, "_restricted_form")
        systems = spy(monkeypatch, susy, "singular_system")
        wit = witten_index(psys)
        assert (wit.ker_d, wit.ker_d_dagger, wit.non_null_kernels) == (3, rows - 21, True)
        assert (len(forms), len(systems)) == (2, int(rows != 24))

    def test_an_exact_zero_pivot_reaches_the_svd(self, monkeypatch):
        rng = np.random.default_rng(0)
        psys = square_system(rng.uniform(0.5, 2.0, size=6), True, rng)
        d = psys.d.copy()
        d[:, 2] = 0.0  # partial pivoting meets an exact zero in column 2
        psys = assemble(d, psys.eta_plus, psys.eta_minus)
        assert kernels_from_solves(psys.d, singular_values(psys.d), 5) is None
        systems = spy(monkeypatch, susy, "singular_system")
        wit = witten_index(psys)
        assert len(systems) == 1
        assert witten_outcomes(wit) == svd_outcomes(psys) == (1, 1, 1, True, True)

    def test_zero_map_reaches_the_svd(self, monkeypatch):
        rng = np.random.default_rng(1)
        psys = square_system(np.zeros(4), False, rng)
        systems = spy(monkeypatch, susy, "singular_system")
        wit = witten_index(psys)
        assert len(systems) == 1
        assert witten_outcomes(wit) == svd_outcomes(psys)
        assert (wit.d0_plus, wit.d0_minus) == (4, 4)

    @pytest.mark.parametrize("sector", ["plus", "minus"])
    @pytest.mark.parametrize("margins, solved", [(0.5, False), (2.0, True)])
    def test_an_eigenvalue_inside_the_margin_reaches_the_svd(
        self, sector, margins, solved, monkeypatch
    ):
        # one sector's metric is indefinite and well conditioned, and its form
        # on that sector's kernel vector is lam = c ||eta||_F, `margins`
        # certificate margins above the null cutoff atol ||eta||_F
        # (1 + n^2 eps): inside the margin only the SVD decides, outside it
        # the solves do. The other sector's metric is definite.
        n, tol = 6, DEFAULT_TOLERANCE
        rng = np.random.default_rng(2)
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        d = (u * np.array([1.0, 0.5, 0.3, 0.1, 1e-4, 0.0])) @ v.conj().T
        _, _, theta = kernels_from_solves(d, singular_values(d), n - 1)
        m = np.diag(np.append(rng.uniform(0.5, 2.0, size=n - 2), [0.0, 0.0]))
        m[-1, -2] = m[-2, -1] = 1.0

        def lam_over_norm(angle):
            eps = np.finfo(float).eps
            return tol.atol * (1.0 + n**2 * eps) + margins * 2.0 * angle * (1.0 + angle)

        if sector == "plus":
            # ker D is spanned by v[:, -1], so eta+ = V m V^H has the form
            # lam = m[-1, -1] on it, and ||eta+||_F^2 = lam^2 + ||m||_F^2
            angle = theta
            c = lam_over_norm(angle)
            m[-1, -1] = c * np.linalg.norm(m) / np.sqrt(1.0 - c**2)
            eta_p, eta_m = EtaOperator.from_matrix(v @ m @ v.conj().T), random_metric(n, True, rng)
        else:
            # ker D^H is spanned by u[:, -1] and ker D# = eta-^-1 ker D^H, so
            # eta-^-1 = U m U^H with m[-1, -1] = b gives ker D# the vector
            # U (.., 1, b) / sqrt(1 + b^2), and eta-'s form on it is
            # b / (1 + b^2); the margin widens by ||eta-||_F ||eta-^-1||_F
            b = 0.0
            for _ in range(4):
                m[-1, -1] = b
                metric = np.linalg.inv(m)
                angle = theta * np.linalg.norm(metric) * np.linalg.norm(m)
                b = lam_over_norm(angle) * np.linalg.norm(metric) * (1.0 + b**2)
            m[-1, -1] = b
            eta_p, eta_m = random_metric(n, True, rng), EtaOperator.from_matrix(
                u @ np.linalg.inv(m) @ u.conj().T
            )
        assert angle <= _ANGLE_MAX
        psys = assemble(d, eta_p, eta_m)
        systems = spy(monkeypatch, susy, "singular_system")
        wit = witten_index(psys)
        assert len(systems) == (0 if solved else 1)
        assert witten_outcomes(wit) == svd_outcomes(psys) == (1, 1, 1, True, True)
