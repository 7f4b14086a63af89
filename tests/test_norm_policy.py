"""The norm policy: residual values are Frobenius norms, threshold scales are
lower bounds on 2-norms, and only the clustering scale ||H||, cond(psi) and
the null-kernel cutoff take exact 2-norms.

The reference below recomputes every check of the pair pipeline under a
given rule. Under the policy it must reproduce the library; under the former
rule, an exact 2-norm for every value and every scale, it shows that no
check became looser.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm.intertwine import canonical_factorization, verify_intertwining
from pseudoherm.linalg import DEFAULT_TOLERANCE, ResidualCheck, kernel_basis, norm_lower_bound
from pseudoherm.metric import verify_pseudo_hermiticity
from pseudoherm.spectral import decompose, reconstruct, verify_biorthonormality
from pseudoherm.susy import from_factorization, verify_algebra, witten_index

from support import draw_spectrum, matrix_with_spectrum

EPS = float(np.finfo(float).eps)


def norm2(m):
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def fro(m):
    return float(np.linalg.norm(m))


FORMER = {"value": norm2, "pair": max, "scale": norm2}
POLICY = {"value": fro, "pair": math.hypot, "scale": norm_lower_bound}


def pipeline(h1, h2, tol=DEFAULT_TOLERANCE):
    """(name, value, threshold) of every check the pair pipeline makes, and
    the objects the former-rule reference needs."""
    sys1, sys2 = decompose(h1, tol), decompose(h2, tol)
    fact = canonical_factorization(sys1, sys2, tol)
    psys = from_factorization(fact)
    generators = [psys.d, 1j * psys.d]
    results = [
        verify_biorthonormality(sys1, tol),
        verify_biorthonormality(sys2, tol),
        fact.checks,
        verify_pseudo_hermiticity(h1, fact.eta1, tol),
        verify_pseudo_hermiticity(h2, fact.eta2, tol),
        verify_intertwining(fact.matrix, h1, h2, tol),
        verify_algebra(psys, tol, generators=generators),
        witten_index(psys, tol).checks,
    ]
    checks = [
        (c.name, c.value, c.threshold)
        for result in results
        for c in ((result,) if isinstance(result, ResidualCheck) else result)
    ]
    return checks, (sys1, sys2, fact, psys, generators)


def reference(h1, h2, sys1, sys2, fact, psys, generators, value, pair, scale):
    """The same checks with residual norm `value` (`pair` joins the norms of
    two sector blocks) and threshold scale `scale`."""
    tol = DEFAULT_TOLERANCE
    checks = []
    for sys in (sys1, sys2):
        eye, threshold = np.eye(sys.dim), tol.rtol * sys.dim
        checks += [
            ("biorthonormality_left", value(sys.phi.conj().T @ sys.psi - eye), threshold),
            ("biorthonormality_right", value(sys.psi @ sys.phi.conj().T - eye), threshold),
        ]
    l, ls = fact.matrix, fact.lsharp
    threshold = fact.checks[0].threshold
    checks += [
        ("factorization_h1", value(reconstruct(sys1) - ls @ l), threshold),
        ("factorization_h2", value(reconstruct(sys2) - l @ ls), threshold),
    ]
    for h, eta in ((h1, fact.eta1), (h2, fact.eta2)):
        residual = value(eta.matrix @ h @ eta.inverse - h.conj().T)
        threshold = tol.rtol * (1 + scale(h)) * scale(eta.matrix) * scale(eta.inverse)
        checks.append(("pseudo_hermiticity", residual, threshold))
    checks.append((
        "intertwining",
        value(l @ h1 - h2 @ l),
        tol.rtol * (1 + max(scale(h1), scale(h2))) * (1 + scale(l)),
    ))

    def sector(plus, minus):
        return pair(value(plus), value(minus))

    d, ds, hp, hm = psys.d, psys.d_sharp, psys.h_plus, psys.h_minus
    qscale, qsscale = 1 + scale(d), 1 + scale(ds)
    hscale = 1 + max(scale(hp), scale(hm))
    checks += [
        ("susy_anticommutator", sector(ds @ d - 2 * hp, d @ ds - 2 * hm),
         tol.rtol * qscale * qsscale),
        ("intertwine_plus", value(d @ hp - hm @ d), tol.rtol * qscale * hscale),
        ("intertwine_minus", value(ds @ hm - hp @ ds), tol.rtol * qsscale * hscale),
    ]
    maps = [(g, fact.eta1.inverse @ g.conj().T @ fact.eta2.matrix) for g in generators]
    norms = [(scale(g), scale(gs)) for g, gs in maps]
    res = {}
    for (i, (g, _)), (j, (_, gs)) in product(enumerate(maps), repeat=2):
        shift = 2.0 if i == j else 0.0
        res[i, j] = (gs @ g - shift * hp, g @ gs - shift * hm)
        checks.append((
            f"extended[{i + 1},{j + 1}]",
            sector(*res[i, j]),
            tol.rtol * (1 + norms[i][0]) * (1 + norms[j][1]) * hscale,
        ))
    combo = [1 + max(n) / np.sqrt(2.0) for n in norms]
    for i, a, j, b in product(range(len(maps)), (1, 2), range(len(maps)), (1, 2)):
        (pij, mij), (pji, mji) = res[i, j], res[j, i]
        sign = 1.0 if a == b else -1.0
        checks.append((
            f"hermitian_combo[{i + 1}.{a},{j + 1}.{b}]",
            0.5 * sector(pij + sign * pji, mij + sign * mji),
            tol.rtol * combo[i] * combo[j] * hscale,
        ))
    kp, km = kernel_basis(hp, tol), kernel_basis(hm, tol)
    d0 = km.conj().T @ d @ kp
    d0f = kp.conj().T @ ds @ km
    guard = max(tol.atol, tol.rtol * max(d.shape) * (1 + scale(d) + scale(ds)))
    checks += [
        ("kernel_complex", max(value(d0 @ d0f), value(d0f @ d0)), guard),
        ("kernel_map", max(value(d @ kp - km @ d0), value(ds @ km - kp @ d0f)), guard),
    ]
    return checks


class TestNormPolicy:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_policy_and_no_check_got_looser(self, n, seed):
        rng = np.random.default_rng(seed)
        values = draw_spectrum(rng, n, allow_zero=True)
        h1 = matrix_with_spectrum(values, rng)
        h2 = matrix_with_spectrum(values, rng)
        new, objects = pipeline(h1, h2)
        policy = reference(h1, h2, *objects, **POLICY)
        old = reference(h1, h2, *objects, **FORMER)
        assert [c[0] for c in new] == [c[0] for c in policy] == [c[0] for c in old]
        slack = 8 * n * EPS
        for (name, value, threshold), ref, (_, old_value, old_threshold) in zip(
            new, policy, old
        ):
            assert (value, threshold) == pytest.approx(ref[1:], rel=slack, abs=1e-300), name
            assert value >= old_value * (1 - slack), name
            assert threshold <= old_threshold * (1 + slack), name
            assert (value <= threshold) == (old_value <= old_threshold), name


def test_simple_pair_takes_two_exact_two_norms(monkeypatch):
    """decompose's two ||H|| are the only exact 2-norms of a simple pair."""
    rng = np.random.default_rng(64)
    values = draw_spectrum(rng, 64, allow_degenerate=False)
    h1 = matrix_with_spectrum(values, rng)
    h2 = matrix_with_spectrum(values, rng)
    seen = []
    norm = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        value = norm(x, ord, *args, **kwargs)
        if ord is not None:
            seen.append(float(value))
        return value

    monkeypatch.setattr(np.linalg, "norm", counted)
    _, (sys1, sys2, *_) = pipeline(h1, h2)
    assert sorted(seen) == sorted([sys1.scale, sys2.scale])
