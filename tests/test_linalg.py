import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm.linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    as_matrix,
    eig,
    kernel_basis,
    rank,
)

from support import well_conditioned


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rtol == 1e-8
        assert tol.atol == 1e-12
        assert tol.cond_max == 1e12

    @pytest.mark.parametrize("bad", [{"rtol": 0}, {"atol": -1}, {"cond_max": 0}])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0], [0, 1]])

    def test_rejects_nonsquare_when_required(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 3)), square=True)

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            as_matrix([1, 2, 3])


class TestEig:
    def test_diagonal(self):
        values, vectors = eig(np.diag([1.0, 2.0]))
        assert sorted(values.real) == [1.0, 2.0]
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_oscillator_two_level(self):
        # a=0, b=i, c=-i omega^2 at omega=2 has eigenvalues +/- omega
        h = np.array([[0, 1j], [-4j, 0]])
        values, _ = eig(h)
        assert np.allclose(sorted(values.real), [-2.0, 2.0])
        assert np.allclose(values.imag, 0.0, atol=1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(-3, 3, 6) + 1j * rng.uniform(-1, 1, 6)
        v = well_conditioned(6, rng)
        m = v @ np.diag(e) @ np.linalg.inv(v)
        values, vectors = eig(m)
        # columns are eigenvectors: M V = V diag(values)
        resid = np.linalg.norm(m @ vectors - vectors * values, 2)
        assert resid <= DEFAULT_TOLERANCE.rtol * np.linalg.norm(m, 2)
        got = np.sort_complex(values)
        assert np.allclose(got, np.sort_complex(e), atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3)))


class TestKernelBasis:
    def test_zero_matrix(self):
        k = kernel_basis(np.zeros((2, 2)))
        assert k.shape == (2, 2)
        assert np.allclose(k.conj().T @ k, np.eye(2))

    def test_diag_zero_one(self):
        k = kernel_basis(np.diag([0.0, 1.0]))
        assert k.shape == (2, 1)
        assert abs(abs(k[0, 0]) - 1.0) < 1e-14

    def test_engineered_rank_two(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        m = a @ b
        k = kernel_basis(m)
        assert k.shape == (4, 2)
        assert np.linalg.norm(m @ k, 2) <= 1e-10
        assert np.allclose(k.conj().T @ k, np.eye(2), atol=1e-12)

    def test_full_rank_gives_empty_kernel(self):
        rng = np.random.default_rng(3)
        k = kernel_basis(well_conditioned(4, rng))
        assert k.shape == (4, 0)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_outer_product(self):
        x = np.array([1.0, 2.0, -1.0])
        y = np.array([0.5, 1j, 2.0])
        assert rank(np.outer(x, y)) == 1

    @pytest.mark.parametrize("seed,m,n,r", [(0, 5, 4, 2), (1, 3, 6, 3), (2, 4, 4, 1)])
    def test_engineered_rank(self, seed, m, n, r):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        assert rank(a @ b) == r

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_plus_kernel_dim_is_cols(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 7), rng.integers(2, 7)
        r = rng.integers(0, min(m, n) + 1)
        a = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        mat = a @ b if r else np.zeros((m, n), dtype=complex)
        assert rank(mat) + kernel_basis(mat).shape[1] == n

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        r=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_plus_kernel_dim_is_cols_property(self, m, n, r, seed):
        # decompose counts eigenvectors as n - rank, relying on this identity
        rng = np.random.default_rng(seed)
        r = min(r, m, n)
        a = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        mat = a @ b
        assert rank(mat) + kernel_basis(mat).shape[1] == n
