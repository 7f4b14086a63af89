import math
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm import susy
from pseudoherm.errors import NumericalFailure
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.linalg import (
    DEFAULT_TOLERANCE,
    frobenius_norm,
    kernel_basis,
    norm_lower_bound,
    rank,
)
from pseudoherm.metric import EtaOperator, pseudo_adjoint
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
    draw_spectrum,
    engineered_rank_map,
    match_value_multisets,
    matrix_with_spectrum,
    pair_pipeline,
    positive_definite,
    random_metric,
    random_unitary,
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


def direct_sum(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


class TestAssemble:
    def test_zero_map(self):
        psys = assemble(np.zeros((2, 2)), EtaOperator.identity(2), EtaOperator.identity(2))
        assert not np.any(psys.h_plus)
        assert not np.any(psys.h_minus)

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

    def test_stores_only_sector_matrices(self):
        assert [f.name for f in fields(PseudoSusySystem)] == [
            "d", "d_sharp", "eta_plus", "eta_minus"
        ]
        assert all(f.init for f in fields(PseudoSusySystem))

    def test_partners_are_derived_and_fixed(self):
        rng = np.random.default_rng(1)
        h = matrix_with_spectrum([0.0, 1.0, -1.0, 2 + 1j, 2 - 1j], rng)
        for psys in (
            random_susy_system(rng, rows=3, cols=2),
            from_factorization(self_factorization(decompose(h))),
        ):
            assert np.array_equal(psys.h_plus, 0.5 * (psys.d_sharp @ psys.d))
            assert np.array_equal(psys.h_minus, 0.5 * (psys.d @ psys.d_sharp))
            for name in ("h_plus", "h_minus"):
                with pytest.raises(TypeError, match="unexpected keyword argument"):
                    replace(psys, **{name: np.zeros_like(getattr(psys, name))})
                with pytest.raises(FrozenInstanceError):
                    setattr(psys, name, np.zeros_like(getattr(psys, name)))
            with pytest.raises(FrozenInstanceError):
                psys.d = 2.0 * psys.d
            # a replaced D forms its partners anew
            doubled = replace(psys, d=2.0 * psys.d)
            assert np.array_equal(doubled.h_plus, 0.5 * (psys.d_sharp @ (2.0 * psys.d)))
            assert np.array_equal(doubled.h_minus, 0.5 * ((2.0 * psys.d) @ psys.d_sharp))

    def test_arrays_are_read_only(self):
        rng = np.random.default_rng(2)
        h = matrix_with_spectrum([0.0, 1.0, -1.0, 2 + 1j, 2 - 1j], rng)
        for psys in (
            random_susy_system(rng, rows=3, cols=2),
            from_factorization(self_factorization(decompose(h))),
        ):
            h_plus = psys.h_plus.copy()
            for name in ("d", "d_sharp", "h_plus", "h_minus"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(psys, name)[0, 0] = 5.0
            assert np.array_equal(psys.h_plus, h_plus)
            # a replaced D still forms its partners anew
            doubled = replace(psys, d=2.0 * psys.d)
            assert np.array_equal(doubled.h_plus, 0.5 * (psys.d_sharp @ (2.0 * psys.d)))
            assert not doubled.d.flags.writeable

    @pytest.mark.parametrize(
        "d, d_sharp, n_plus, n_minus",
        [
            (np.eye(2), np.eye(2, 3), 2, 3),  # D is not (n-, n+)
            (np.eye(3, 2), np.eye(3, 2), 2, 3),  # D# is not (n+, n-)
            (np.eye(2), np.eye(2), 3, 2),  # eta_plus does not fit D's columns
            (np.eye(2), np.eye(2), 2, 3),  # eta_minus does not fit D's rows
        ],
    )
    def test_shapes_must_fit_the_metrics(self, d, d_sharp, n_plus, n_minus):
        with pytest.raises(ValueError, match="do not fit"):
            PseudoSusySystem(
                d, d_sharp, EtaOperator.identity(n_plus), EtaOperator.identity(n_minus)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        k=st.integers(140, 160),
        definite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raises_exactly_when_a_partner_is_not_finite(self, rows, cols, k, definite, seed):
        # scales around 1e154, where D# D first overflows, so both the
        # ||D#||_F ||D||_F certificate and the formed products decide
        rng = np.random.default_rng(seed)
        d = 10.0**k * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        eta_p, eta_m = random_metric(cols, definite, rng), random_metric(rows, definite, rng)
        d_sharp = pseudo_adjoint(d, eta_p, eta_m)
        with np.errstate(over="ignore", invalid="ignore"):
            h_plus, h_minus = 0.5 * (d_sharp @ d), 0.5 * (d @ d_sharp)
        if not (np.all(np.isfinite(h_plus)) and np.all(np.isfinite(h_minus))):
            with pytest.raises(NumericalFailure, match="not finite"):
                PseudoSusySystem(d, d_sharp, eta_p, eta_m)
            return
        psys = PseudoSusySystem(d, d_sharp, eta_p, eta_m)
        assert np.all(np.isfinite(psys.h_plus)) and np.all(np.isfinite(psys.h_minus))
        assert np.array_equal(psys.h_plus, h_plus)
        assert np.array_equal(psys.h_minus, h_minus)

    def test_caller_arrays_stay_writable(self):
        d, d_sharp = np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)
        eta = EtaOperator.identity(2)
        psys = PseudoSusySystem(d=d, d_sharp=d_sharp, eta_plus=eta, eta_minus=eta)
        assert np.shares_memory(psys.d, d)  # a view, not a copy
        d[0, 0] = 5.0  # raises ValueError if the caller's flag flipped
        d_sharp[1, 1] = 5.0


class TestVerifyAlgebra:
    def test_oscillator_spin_residuals(self):
        osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
        spin = decompose(np.diag([2.0, -2.0]))
        psys = from_factorization(canonical_factorization(osc, spin))
        checks = verify_algebra(psys, generators=[psys.d])
        assert [c.name for c in checks] == ["extended[1,1]", "hermitian_combo[1.1,1.1]"]
        assert all(c.passed for c in checks)
        assert all(c.value <= 1e-10 for c in checks)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems_pass(self, seed):
        rng = np.random.default_rng(seed)
        psys = random_susy_system(rng)
        assert verify_algebra(psys) == ()
        assert all(c.passed for c in verify_algebra(psys, generators=[psys.d]))

    def test_scaled_generator_breaks_extended_algebra(self):
        # Q2 = i Q1 gives {Q1, Q2#} = -2iH, which is nonzero
        rng = np.random.default_rng(3)
        psys = random_susy_system(rng, rows=3, cols=3, deficiency=1)
        checks = verify_algebra(psys, generators=[psys.d, 1j * psys.d])
        cross = {c.name: c for c in checks}["extended[1,2]"]
        assert not cross.passed
        h_norm = math.hypot(frobenius_norm(psys.h_plus), frobenius_norm(psys.h_minus))
        assert cross.value == pytest.approx(2.0 * h_norm, rel=1e-6)

    def test_single_generator_extended_algebra_passes(self):
        rng = np.random.default_rng(4)
        psys = random_susy_system(rng)
        assert all(c.passed for c in verify_algebra(psys, generators=[psys.d]))

    def test_two_null_generators_pass_on_vanishing_h(self):
        # with indefinite metrics a nonzero D can satisfy D# D = D D# = 0;
        # then D and iD generate a consistent (H = 0) extended algebra
        eta = EtaOperator.from_matrix(np.diag([1.0, -1.0]))
        d = np.array([[1.0, 1.0], [1.0, 1.0]])
        psys = assemble(d, eta, eta)
        assert np.allclose(psys.h_plus, 0.0)
        assert all(c.passed for c in verify_algebra(psys, generators=[d, 1j * d]))


def _indefinite_metric(n, rng):
    """Hermitian invertible metric with both signs in its inertia."""
    s = well_conditioned(n, rng)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return EtaOperator.from_matrix(s.conj().T @ np.diag(signs) @ s)


def _dense_extended_reference(psys, generators, tol):
    """(name, value, threshold) of every distinct extended and
    hermitian_combo relation, evaluated on dense (n+m)-sized block matrices:
    values are Frobenius norms, threshold scales `norm_lower_bound`s."""
    p, m = psys.dim_plus, psys.dim_minus

    def blocks(plus, upper, lower, minus):
        return np.block([[plus, upper], [lower, minus]])

    def scale(x):
        return 1.0 + norm_lower_bound(x)

    zpp, zpm = np.zeros((p, p)), np.zeros((p, m))
    zmp, zmm = np.zeros((m, p)), np.zeros((m, m))
    h = blocks(psys.h_plus, zpm, zmp, psys.h_minus)
    hscale = scale(h)
    qs = []
    for g in generators:
        g_sharp = psys.eta_plus.inverse @ g.conj().T @ psys.eta_minus.matrix
        qs.append((blocks(zpp, zpm, g, zmm), blocks(zpp, g_sharp, zmp, zmm)))

    def norm(x):
        return np.linalg.norm(x)

    def anti(a, b):
        return a @ b + b @ a

    out = []
    for (i, (qi, _)), (j, (_, qjs)) in product(enumerate(qs, 1), repeat=2):
        target = 2.0 * h if i == j else 0.0
        out.append((
            f"extended[{i},{j}]",
            norm(anti(qi, qjs) - target),
            tol.rtol * scale(qi) * scale(qjs) * hscale,
        ))
    combos = [
        ((qi + qis) / np.sqrt(2.0), (qi - qis) / (np.sqrt(2.0) * 1j))
        for qi, qis in qs
    ]
    # the distinct relations: [i.2,j.2] repeats [i.1,j.1], [i.2,j.1]
    # repeats [i.1,j.2], and [i.1,i.2] is 0
    for i, j, b in product(range(len(qs)), range(len(qs)), (0, 1)):
        if b == 1 and i == j:
            continue
        qa, qb = combos[i][0], combos[j][b]
        target = 2.0 * h if (i == j and b == 0) else 0.0
        out.append((
            f"hermitian_combo[{i + 1}.1,{j + 1}.{b + 1}]",
            norm(anti(qa, qb) - target),
            tol.rtol * scale(qa) * scale(qb) * hscale,
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


class TestExtendedAlgebraReference:
    @pytest.mark.parametrize("case", range(3))
    def test_sector_relations_match_dense_blocks(self, case):
        psys, generators = list(_reference_cases())[case]
        tol = DEFAULT_TOLERANCE
        checks = verify_algebra(psys, tol, generators=generators)
        reference = _dense_extended_reference(psys, generators, tol)
        k = len(generators)
        assert len(checks) == k * k + 2 * k * k - k
        assert [c.name for c in checks] == [r[0] for r in reference]
        for check, (name, value, threshold) in zip(checks, reference):
            assert check.threshold == pytest.approx(threshold, rel=1e-12), name
            assert check.passed == (value <= threshold), name
            assert abs(check.value - value) <= 1e-13 * threshold / tol.rtol, name
        if case == 0:
            assert not all(c.passed for c in checks)
        if case == 2:
            assert all(c.passed for c in checks)

    def test_pipeline_builds_no_block_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an (n+m)-sized block matrix was built")

        monkeypatch.setattr(np, "block", refuse)
        rng = np.random.default_rng(13)
        h = matrix_with_spectrum([0.0, 1.0, -1.0, 2 + 1j, 2 - 1j], rng)
        psys = from_factorization(self_factorization(decompose(h)))
        assert verify_algebra(psys) == ()
        assert verify_algebra(psys, generators=[psys.d, 1j * psys.d])
        assert witten_index(psys).delta == 0


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


def null_count(basis, eta, tol=DEFAULT_TOLERANCE):
    """Eigenvalues of eta on span(basis) (orthonormal) of modulus at most
    atol * ||eta||_2."""
    if basis.shape[1] == 0:
        return 0
    values = np.linalg.eigvalsh(basis.conj().T @ eta @ basis)
    return int(np.count_nonzero(np.abs(values) <= tol.atol * np.linalg.norm(eta, 2)))


class TestWittenCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 16),
        zeros=st.integers(0, 12),
        definite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_from_the_rank_of_d(self, rows, cols, zeros, definite, seed):
        # D = U diag(sigma) V^H with sigma log-uniform on [1e-14, 1] and some
        # planted exact zeros, so singular values fall on both sides of rank's
        # cutoff and far below sqrt(n rtol), where H+- = D# D / 2, D D# / 2
        # hold them squared
        rng = np.random.default_rng(seed)
        k = min(rows, cols)
        sigma = 10.0 ** rng.uniform(-14.0, 0.0, size=k)
        sigma[: min(zeros, k)] = 0.0
        u, v = random_unitary(rows, rng)[:, :k], random_unitary(cols, rng)[:, :k]
        eta_p, eta_m = random_metric(cols, definite, rng), random_metric(rows, definite, rng)
        psys = assemble((u * sigma) @ v.conj().T, eta_p, eta_m)
        wit = witten_index(psys)

        r = rank(psys.d)
        # the forms of the metrics on ker D and on ker D# = eta-^-1 ker D^H
        uu, _, vh = np.linalg.svd(psys.d)
        v_perp = vh[r:].conj().T
        w = uu[:, r:]
        k_sharp = np.linalg.qr(eta_m.inverse @ w)[0] if w.shape[1] else w
        z_plus = null_count(v_perp, eta_p.matrix)
        z_minus = null_count(k_sharp, eta_m.matrix)
        assert wit.ker_d == wit.ker_d0 == cols - r
        assert wit.ker_d_dagger == wit.ker_d0_flat == rows - r
        assert (wit.d0_plus, wit.d0_minus) == (cols - r + z_minus, rows - r + z_plus)
        assert (wit.betti_plus, wit.betti_minus) == (cols - r - z_plus, rows - r - z_minus)
        dimensions = ("d0_plus", "d0_minus", "ker_d", "ker_d_dagger", "ker_d0",
                      "ker_d0_flat", "betti_plus", "betti_minus")
        assert min(getattr(wit, name) for name in dimensions) >= 0
        assert wit.delta == wit.betti_plus - wit.betti_minus == wit.d0_plus - wit.d0_minus
        assert wit.analytic_index_d == cols - rows
        if wit.non_null_kernels:
            assert wit.delta_equals_analytic_d
        if definite:
            assert (wit.d0_plus, wit.d0_minus) == (wit.ker_d, wit.ker_d_dagger)


def metric_null_system(null):
    """A graded system whose zero modes are metric-null in the minus sector,
    the plus sector or both.

    The anti-diagonal metric on C^3 is null on e3 and on e1. With D = e3
    (3 x 1) and eta- anti-diagonal, D e1 = e3 spans ker D# & range D
    (z- = 1), so ker H+ is the preimage of e3, outside ker D = 0. The
    transposed system puts the null mode in ker D & range D# (z+ = 1) and
    widens ker H- instead; "both" is their direct sum, a square D of rank 2.
    Random unitary frames hide the structure from the SVD.
    """
    anti = np.fliplr(np.eye(3))
    e3 = np.array([[0.0], [0.0], [1.0]])
    blocks = {
        "minus": (e3, np.eye(1), anti),
        "plus": (e3.T, anti, np.eye(1)),
    }
    if null == "both":
        d, eta_p, eta_m = map(direct_sum, blocks["minus"], blocks["plus"])
    else:
        d, eta_p, eta_m = blocks[null]
    rng = np.random.default_rng(7)
    up, um = random_unitary(d.shape[1], rng), random_unitary(d.shape[0], rng)
    return assemble(
        um @ d @ up.conj().T,
        EtaOperator.from_matrix(up @ eta_p @ up.conj().T),
        EtaOperator.from_matrix(um @ eta_m @ um.conj().T),
    )


class TestWittenIndex:
    def test_diagonal_example(self):
        psys = assemble(
            np.diag([0.0, 1.0]), EtaOperator.identity(2), EtaOperator.identity(2)
        )
        wit = witten_index(psys)
        assert (wit.d0_plus, wit.d0_minus, wit.delta) == (1, 1, 0)
        assert wit.ker_d == wit.ker_d_dagger == 1
        assert wit.betti_plus == wit.betti_minus == 1
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

    @pytest.mark.parametrize("null", ["minus", "plus", "both"])
    def test_metric_null_zero_modes_widen_the_kernels(self, null):
        psys = metric_null_system(null)
        wit = witten_index(psys)
        z_plus, z_minus = int(null != "minus"), int(null != "plus")
        rank_d = 2 if null == "both" else 1
        assert wit.ker_d == wit.ker_d0 == psys.dim_plus - rank_d
        assert wit.ker_d_dagger == wit.ker_d0_flat == psys.dim_minus - rank_d
        assert (wit.d0_plus, wit.d0_minus) == (wit.ker_d + z_minus, wit.ker_d_dagger + z_plus)
        assert (wit.betti_plus, wit.betti_minus) == (wit.ker_d - z_plus, wit.ker_d_dagger - z_minus)
        assert (wit.non_null_plus, wit.non_null_minus) == (not z_plus, not z_minus)
        assert wit.delta_equals_analytic_d == (z_plus == z_minus)
        _, k_plus, k_minus, _, _ = susy._kernels(psys, DEFAULT_TOLERANCE)
        for h, k in ((psys.h_plus, k_plus), (psys.h_minus, k_minus)):
            assert k.shape[1] == kernel_basis(h).shape[1]
            assert frobenius_norm(k.conj().T @ k - np.eye(k.shape[1])) <= 1e-14
            assert frobenius_norm(h @ k) <= 1e-14

    @pytest.mark.parametrize("null", ["minus", "plus", "both"])
    def test_metric_null_zero_modes_reach_the_svd(self, null, monkeypatch):
        # a null mode's preimage under D needs the SVD's U_r S_r V_r^H, so the
        # square "both" system falls back from the LU solves as well
        psys = metric_null_system(null)
        calls = []
        original = susy.singular_system
        monkeypatch.setattr(
            susy, "singular_system", lambda *args: calls.append(args) or original(*args)
        )
        wit = witten_index(psys)
        assert len(calls) == 1
        assert (wit.non_null_plus, wit.non_null_minus) == (null == "minus", null == "plus")

    @pytest.mark.parametrize("seed", range(10))
    def test_identities_on_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        psys = random_susy_system(rng)
        wit = witten_index(psys)
        assert wit.delta == wit.d0_plus - wit.d0_minus
        assert wit.delta == wit.betti_plus - wit.betti_minus
        assert wit.analytic_index_d == psys.dim_plus - psys.dim_minus
        if wit.non_null_kernels:
            assert wit.delta == wit.ker_d - wit.ker_d_dagger
        assert {c.name: c for c in wit.checks}["kernel_complex"].value <= 1e-10

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
        # D H+ = H- D and D# H- = H+ D# hold up to the rounding of the
        # products that form H+-, and D# is the pseudo-adjoint of D
        rng = np.random.default_rng(9)
        h = matrix_with_spectrum([1.0, -1.0, 2 + 1j, 2 - 1j], rng)
        psys = from_factorization(self_factorization(decompose(h)))
        d, ds, hp, hm = psys.d, psys.d_sharp, psys.h_plus, psys.h_minus
        scale = frobenius_norm(d) * frobenius_norm(ds) * frobenius_norm(d)
        assert frobenius_norm(d @ hp - hm @ d) <= 1e-12 * scale
        assert frobenius_norm(ds @ hm - hp @ ds) <= 1e-12 * scale
        assert all(c.passed for c in verify_algebra(psys, generators=[d]))


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
        zero = np.zeros((n, n))
        sys_ = decompose(np.block([[psys.h_plus, zero], [zero, psys.h_minus]]))
        assert classify_spectrum(sys_).tag != TAG_UNPAIRABLE


def test_from_factorization_takes_d_sharp_from_the_factorization():
    rng = np.random.default_rng(11)
    values = draw_spectrum(rng, 16)
    fact = canonical_factorization(
        decompose(matrix_with_spectrum(values, rng)),
        decompose(matrix_with_spectrum(values, rng)),
    )
    psys = from_factorization(fact)
    assert np.array_equal(psys.d_sharp, np.sqrt(2.0) * fact.lsharp)
    adjoint = fact.eta1.inverse @ psys.d.conj().T @ fact.eta2.matrix
    assert frobenius_norm(psys.d_sharp - adjoint) <= 1e-12 * frobenius_norm(adjoint)


def _traced_peak(call):
    """`call()` and the peak of tracemalloc's traced memory while it ran, in
    bytes above what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_graded_system_keeps_no_partner_arrays():
    # D and D# are the only n x n arrays the system allocates; witten_index on
    # an invertible square D reads singular values only and allocates none
    n = 128
    rng = np.random.default_rng(12)
    values = draw_spectrum(rng, n)
    fact = canonical_factorization(
        decompose(matrix_with_spectrum(values, rng)),
        decompose(matrix_with_spectrum(values, rng)),
    )
    matrix_bytes = n * n * np.dtype(complex).itemsize
    psys, peak = _traced_peak(lambda: from_factorization(fact))
    assert peak <= 2.1 * matrix_bytes
    assert rank(psys.d) == n
    witten_index(psys)  # first call: caches and lazy imports
    wit, peak = _traced_peak(lambda: witten_index(psys))
    assert (wit.d0_plus, wit.d0_minus) == (0, 0)
    assert peak < matrix_bytes / 4


def test_witten_index_of_a_singular_square_d_takes_no_full_svd():
    # a square D of rank n - 3 gets its kernels from two LU solves on n x 3
    # blocks; a full SVD would allocate its n x n U and V^H
    n = 128
    rng = np.random.default_rng(13)
    sigma = np.append(rng.uniform(0.5, 2.0, size=n - 3), np.zeros(3))
    u, v = random_unitary(n, rng), random_unitary(n, rng)
    psys = assemble(
        (u * sigma) @ v.conj().T,
        EtaOperator.from_matrix(positive_definite(n, rng)),
        EtaOperator.from_matrix(positive_definite(n, rng)),
    )
    witten_index(psys)  # first call: caches and lazy imports
    wit, peak = _traced_peak(lambda: witten_index(psys))
    assert (wit.d0_plus, wit.d0_minus) == (3, 3)
    assert peak < n * n * np.dtype(complex).itemsize / 4



def test_pair_pipeline_peak_is_its_kept_arrays_and_two_temporaries(bench_inputs):
    # one n = 256 pair with a three-dimensional zero cluster. From the
    # factorization on, nine n x n arrays are kept: psi and phi of both
    # systems, the two metrics and their inverses, and L. L# is formed only
    # while a stage needs it and every residual is formed in place, so no
    # stage adds more than two n x n arrays to them (D and D# at the end)
    first, second = bench_inputs.pair_inputs("pair_degenerate", 1)
    n = first.h.shape[0]
    pair_pipeline(first.h, second.h)  # first call: caches and lazy imports
    wit, peak = _traced_peak(lambda: pair_pipeline(first.h, second.h))
    assert (n, wit.d0_plus, wit.d0_minus) == (256, 3, 3)
    assert peak / (n * n * np.dtype(complex).itemsize) <= 11.5
