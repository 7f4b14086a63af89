"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import numpy as np
import pytest

from pseudoherm.errors import NotPseudoHermitian
from pseudoherm.intertwine import canonical_factorization, self_factorization
from pseudoherm.metric import (
    EtaOperator,
    antilinear_symmetry,
    canonical_eta,
    hermitian_similarity,
    verify_pseudo_hermiticity,
)
from pseudoherm.spectral import (
    TAG_UNPAIRABLE,
    classify_spectrum,
    decompose,
    verify_biorthonormality,
)
from pseudoherm.susy import assemble, from_factorization, verify_algebra, witten_index
from pseudoherm.twolevel import (
    TwoLevelParams,
    closed_form_system,
    oscillator_demo,
    oscillator_hamiltonian,
    spin_hamiltonian,
    spin_intertwine_demo,
    two_level_factorization,
)

from support import (
    draw_spectrum,
    engineered_rank_map,
    match_value_multisets,
    matrix_with_spectrum,
    positive_definite,
    well_conditioned,
)

OMEGAS = [0.5, 1.0, 2.0, 5.0]


def _finish(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"acceptance criterion {number} ({name}): {status}")
    assert not failures, (
        f"criterion {number} ({name}): {len(failures)} failure(s); "
        f"first: {failures[0]}"
    )


def _entrywise(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def oscillator_reference_forms(w: float):
    """Reference eta1, eta1_inv, eta2, L, L# for the oscillator system."""
    pref = 1.0 / (4.0 * w * w)
    eta1 = pref * np.array(
        [
            [w * w * (1.0 - w * w), 1j * w * (1.0 + w * w)],
            [-1j * w * (1.0 + w * w), 1.0 - w * w],
        ]
    )
    eta1_inv = pref * np.array(
        [
            [w * w - 1.0, 1j * w * (1.0 + w * w)],
            [-1j * w * (1.0 + w * w), w * w * (w * w - 1.0)],
        ]
    )
    eta2 = pref * np.array(
        [
            [w * w * (1.0 + w * w), 1j * w * (1.0 - w * w)],
            [-1j * w * (1.0 - w * w), 1.0 + w * w],
        ]
    )
    l = np.sqrt(w) * np.eye(2, dtype=complex)
    lsharp = np.array([[0.0, 1j], [-1j * w * w, 0.0]]) / np.sqrt(w)
    return eta1, eta1_inv, eta2, l, lsharp


# frozen spot values, checked by hand against the reference displays
FROZEN_ETA1 = {
    1.0: np.array([[0.0, 0.5j], [-0.5j, 0.0]]),
    2.0: np.array([[-12.0, 10j], [-10j, -3.0]]) / 16.0,
}
FROZEN_ETA1_INV = {
    2.0: np.array([[3.0, 10j], [-10j, 12.0]]) / 16.0,
}
FROZEN_ETA2 = {
    1.0: np.array([[0.5, 0.0], [0.0, 0.5]]),
    2.0: np.array([[20.0, -6j], [6j, 5.0]]) / 16.0,
}


def test_criterion_1_oscillator_golden():
    failures = []
    for w in OMEGAS:
        demo = oscillator_demo(w)
        eta1, eta1_inv, eta2, l, lsharp = oscillator_reference_forms(w)
        for name, got, want in [
            ("eta1", demo.eta1, eta1),
            ("eta1_inv", demo.eta1_inv, eta1_inv),
            ("eta2", demo.eta2, eta2),
            ("l", demo.intertwiner, l),
            ("l_sharp", demo.intertwiner_sharp, lsharp),
        ]:
            err = _entrywise(got, want)
            if err > 1e-12:
                failures.append(f"omega={w} {name} deviates by {err:.2e}")
        if w in FROZEN_ETA1 and _entrywise(demo.eta1, FROZEN_ETA1[w]) > 1e-12:
            failures.append(f"omega={w} eta1 differs from frozen literal")
        if w in FROZEN_ETA1_INV and _entrywise(demo.eta1_inv, FROZEN_ETA1_INV[w]) > 1e-12:
            failures.append(f"omega={w} eta1_inv differs from frozen literal")
        if w in FROZEN_ETA2 and _entrywise(demo.eta2, FROZEN_ETA2[w]) > 1e-12:
            failures.append(f"omega={w} eta2 differs from frozen literal")
        h = oscillator_hamiltonian(w)
        resid = np.linalg.norm(demo.intertwiner_sharp @ demo.intertwiner - h, 2)
        if resid > 1e-12:
            failures.append(f"omega={w} case-one factorization residual {resid:.2e}")
    _finish(1, "oscillator golden forms", failures)


def test_criterion_2_spin_intertwining_golden():
    failures = []
    for w in OMEGAS:
        demo = spin_intertwine_demo(w)
        root = np.sqrt(w)
        l_ref = (root / 2.0) * np.array([[1.0 / w, 1j / w**2], [1j, 1.0 / w]])
        lsharp_ref = root * np.array([[w, 1j], [-1j * w**2, -w]])
        if _entrywise(demo.intertwiner, l_ref) > 1e-12:
            failures.append(f"omega={w} intertwiner deviates")
        if _entrywise(demo.intertwiner_sharp, lsharp_ref) > 1e-12:
            failures.append(f"omega={w} sharp deviates")
        ho, hs = oscillator_hamiltonian(w), spin_hamiltonian(w)
        r1 = np.linalg.norm(demo.intertwiner_sharp @ demo.intertwiner - ho, 2)
        r2 = np.linalg.norm(demo.intertwiner @ demo.intertwiner_sharp - hs, 2)
        if r1 > 1e-10:
            failures.append(f"omega={w} L#L residual {r1:.2e}")
        if r2 > 1e-10:
            failures.append(f"omega={w} LL# residual {r2:.2e}")
    _finish(2, "spin intertwining golden forms", failures)


@pytest.fixture(scope="module")
def paired_corpus():
    rng = np.random.default_rng(20240811)
    cases = []
    for k in range(200):
        n = int(rng.integers(2, 17))
        values = draw_spectrum(
            rng,
            n,
            allow_zero=(k % 7 == 0),
            allow_degenerate=True,
        )
        h1 = matrix_with_spectrum(values, rng)
        w = well_conditioned(n, rng)
        h2 = w @ h1 @ np.linalg.inv(w)
        cases.append((h1, h2))
    return cases


def test_criterion_3_factorization_suite(paired_corpus):
    failures = []
    for k, (h1, h2) in enumerate(paired_corpus):
        sys1 = decompose(h1)
        sys2 = decompose(h2)
        fact = canonical_factorization(sys1, sys2)
        checks = {c.name: c for c in fact.checks}
        if not all(c.passed for c in fact.checks):
            failures.append(
                f"case {k}: residuals ({checks['factorization_h1'].value:.2e}, "
                f"{checks['factorization_h2'].value:.2e}) "
                f"over {checks['factorization_h1'].threshold:.2e}"
            )
            continue
        recon = fact.lsharp @ fact.matrix
        worst = match_value_multisets(
            np.linalg.eigvals(recon), np.linalg.eigvals(h1)
        )
        if worst > checks["factorization_h1"].threshold:
            failures.append(f"case {k}: spectrum deviates by {worst:.2e}")
    _finish(3, "factorization property suite", failures)


def test_criterion_4_metric_and_antilinear_suite(paired_corpus):
    failures = []
    for k, (h1, _) in enumerate(paired_corpus):
        sys1 = decompose(h1)
        eta = canonical_eta(sys1)
        check = verify_pseudo_hermiticity(h1, eta)
        if not check.passed:
            failures.append(f"case {k}: metric residual {check.value:.2e}")
        op = antilinear_symmetry(sys1)
        bound = 1e-8 * np.linalg.norm(h1, 2) * sys1.psi_cond**2
        resid = op.commutation_residual(h1)
        if resid > bound:
            failures.append(f"case {k}: antilinear residual {resid:.2e} > {bound:.2e}")

    rng = np.random.default_rng(77)
    for k in range(50):
        n = int(rng.integers(2, 9))
        values = draw_spectrum(rng, n, force_unpaired=True)
        h = matrix_with_spectrum(values, rng)
        sys_ = decompose(h)
        if classify_spectrum(sys_).tag != TAG_UNPAIRABLE:
            failures.append(f"unpaired case {k}: not classified Unpairable")
            continue
        try:
            canonical_eta(sys_)
            failures.append(f"unpaired case {k}: metric construction did not refuse")
        except NotPseudoHermitian:
            pass
    _finish(4, "metric and antilinear-symmetry suite", failures)


def test_criterion_5_hermitian_similarity_suite():
    failures = []
    rng = np.random.default_rng(501)
    for k in range(100):
        n = int(rng.integers(2, 13))
        values = draw_spectrum(rng, n, allow_pairs=False)
        h = matrix_with_spectrum(values, rng)
        sys_ = decompose(h)
        o, hdiag, eta = hermitian_similarity(sys_)
        resid = np.linalg.norm(o @ h @ np.linalg.inv(o) - hdiag, 2)
        if resid > 1e-10:
            failures.append(f"case {k}: similarity residual {resid:.2e}")
        if np.linalg.norm(hdiag - hdiag.conj().T, 2) > 0.0:
            failures.append(f"case {k}: h not Hermitian")
        if np.min(np.linalg.eigvalsh(eta.matrix)) <= 0:
            failures.append(f"case {k}: metric not positive definite")
    _finish(5, "Hermitian similarity suite", failures)


@pytest.fixture(scope="module")
def susy_corpus():
    rng = np.random.default_rng(606)
    systems = []
    for k in range(200):
        rows = int(rng.integers(2, 7))
        cols = rows if k % 3 == 0 else int(rng.integers(2, 7))
        deficiency = int(rng.integers(0, min(rows, cols) + 1))
        d = engineered_rank_map(rows, cols, deficiency, rng)
        eta_p = EtaOperator.from_matrix(positive_definite(cols, rng))
        eta_m = EtaOperator.from_matrix(positive_definite(rows, rng))
        systems.append(assemble(d, eta_p, eta_m))
    return systems


def test_criterion_6_witten_index_suite(susy_corpus):
    failures = []
    rng = np.random.default_rng(607)
    for k, psys in enumerate(susy_corpus):
        wit = witten_index(psys)
        if wit.delta != wit.d0_plus - wit.d0_minus:
            failures.append(f"case {k}: delta != d0+ - d0-")
        if wit.delta != wit.betti_plus - wit.betti_minus:
            failures.append(f"case {k}: delta != b+ - b-")
        if not (wit.non_null_plus and wit.non_null_minus and wit.non_null_kernels):
            failures.append(f"case {k}: positive metrics flagged null")
        elif wit.delta != wit.ker_d - wit.ker_d_dagger:
            failures.append(f"case {k}: delta != ker D - ker D^H")
        for _ in range(20):
            s_p = well_conditioned(psys.dim_plus, rng)
            s_m = well_conditioned(psys.dim_minus, rng)
            d2 = s_m @ psys.d @ np.linalg.inv(s_p)
            eta_p2 = EtaOperator.from_matrix(
                np.linalg.inv(s_p).conj().T @ psys.eta_plus.matrix @ np.linalg.inv(s_p)
            )
            eta_m2 = EtaOperator.from_matrix(
                np.linalg.inv(s_m).conj().T @ psys.eta_minus.matrix @ np.linalg.inv(s_m)
            )
            wit2 = witten_index(assemble(d2, eta_p2, eta_m2))
            if wit2.delta != wit.delta:
                failures.append(f"case {k}: index changed under deformation")
                break
    _finish(6, "Witten index suite", failures)


def test_criterion_7_two_level_exhaustive():
    failures = []
    rng = np.random.default_rng(700)
    for k in range(500):
        sign = 1 if k % 2 == 0 else -1  # alternate real / imaginary branches
        d = sign * rng.uniform(0.2, 4.0)
        while True:
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if abs(b) < 0.2:
                continue
            c = (d - a * a) / b
            e = np.sqrt(complex(d))
            if abs(a + e) > 0.05 and abs(a - e) > 0.05:
                break
        params = TwoLevelParams.from_coefficients(a, b, c)
        sys_ = closed_form_system(params)
        bio = {c.name: c for c in verify_biorthonormality(sys_)}
        if max(c.value for c in bio.values()) > 1e-12:
            left = bio["biorthonormality_left"].value
            failures.append(f"case {k}: biorthonormality {left:.2e}")
            continue
        fact = two_level_factorization(params)
        closed = {c.name: c for c in fact.checks}
        if max(c.value for c in closed.values()) > 1e-12:
            residual = closed["factorization_h1"].value
            failures.append(f"case {k}: closed-form residual {residual:.2e}")
            continue
        h = params.source_matrix()
        generic = self_factorization(decompose(h))
        scale = 1.0 + np.linalg.norm(h, 2)
        dl = np.linalg.norm(fact.matrix - generic.matrix, 2)
        dls = np.linalg.norm(fact.lsharp - generic.lsharp, 2)
        if dl > 1e-8 * scale or dls > 1e-8 * scale:
            failures.append(f"case {k}: paths disagree ({dl:.2e}, {dls:.2e})")
        residual = {c.name: c for c in generic.checks}["factorization_h1"].value
        if residual > 1e-8 * scale:
            failures.append(f"case {k}: generic residual {residual:.2e}")
    _finish(7, "two-level exhaustive check", failures)


def test_criterion_8_algebra_suite(susy_corpus):
    failures = []

    def check_system(label, psys):
        q = psys.q
        if np.any(q @ q):
            failures.append(f"{label}: Q^2 not exactly zero")
        for c in verify_algebra(psys):
            if c.value > 1e-10:
                failures.append(f"{label}: {c.name} residual {c.value:.2e}")

    for k, psys in enumerate(susy_corpus):
        check_system(f"susy case {k}", psys)

    # factorization-derived systems exercise nontrivial metrics
    rng = np.random.default_rng(808)
    for k in range(20):
        n = int(rng.integers(2, 9))
        h = matrix_with_spectrum(draw_spectrum(rng, n), rng)
        fact = self_factorization(decompose(h))
        check_system(f"factorization case {k}", from_factorization(fact))

    osc = closed_form_system(TwoLevelParams.from_coefficients(0, 1j, -4j))
    spin = decompose(spin_hamiltonian(2.0))
    check_system(
        "oscillator/spin", from_factorization(canonical_factorization(osc, spin))
    )
    _finish(8, "graded algebra suite", failures)
