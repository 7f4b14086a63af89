"""decompose's norm bracket: lo <= ||H||_2 <= hi, and every decision the
clustering width feeds comes out as with the exact ||H||_2.

The reference clusters the same eigenvalues at the exact width
tol.cluster_tol(||H||_2), matches with the all-pairs matcher of
`matching_reference` at the exact widths, and forms the zero clusters, the
canonical signs and the factorization threshold from exact norms.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matching_reference
from pseudoherm.errors import NonDiagonalizable, NotIsospectral, NotPseudoHermitian
from pseudoherm.intertwine import (
    _canonical_signs,
    _cond_lower_bound,
    canonical_factorization,
    match_spectra,
)
from pseudoherm.linalg import _EXACT_BELOW, DEFAULT_TOLERANCE
from pseudoherm.spectral import KIND_REAL, _norm_bracket, cluster_eigenvalues, decompose

from support import draw_spectrum, random_unitary, well_conditioned
from test_spectral import svd_rule_rejects

TOL = DEFAULT_TOLERANCE
# multiples of the exact width w: below the band [w(lo), w(hi)], around its
# lower end and w itself, inside it, and above it (hi / ||H||_2 is about 3
# to 6 for these matrices)
MULTIPLES = [0.5, 0.9, 0.97, 1.0, 1.03, 1.5, 2.5, 4.0, 6.0, 8.0, 12.0]


def norm2(h):
    return float(np.linalg.norm(h, 2))


def with_ties(base, ks, width, shifted=None):
    """`base` and seven values placed away from it (its real parts lie in
    (-3, 3)) with near-ties at multiples `ks` of `width`: a real twin (a
    merge), a conjugate partner off by ks[1] (a partner link), imaginary
    parts +-ks[2] (Real kinds or a pair), a value ks[3] from zero (the zero
    cluster); with `shifted`, base[shifted] moves by ks[4] (a match between
    two systems)."""
    values = list(base)
    if shifted is not None:
        values[shifted] += ks[4] * width
    z = -3.6 + 1.0j
    values += [3.6, 3.6 + ks[0] * width, z, z.conjugate() + ks[1] * width]
    values += [3.9 + 1j * ks[2] * width, 3.9 - 1j * ks[2] * width, ks[3] * width]
    return np.array(values, dtype=complex)


def planted_pair(rng, n, ks):
    """Two n x n matrices with the spectrum of `with_ties`, the second with
    one nonzero base value moved, a real one where there is one (moving a
    pair's member would unpair it). The second is the first but for that
    value, in a basis turned by a random unitary, so both have about the
    same ||H||_2 and the same width w (but for the turn's rounding, and the
    move's 1e-7 of ||H||), and their own decisions agree but near k = 1. The
    ties are placed at multiples of the larger exact w of the two matrices
    without them."""
    base = draw_spectrum(rng, n - 7, allow_zero=True)
    nonzero = [i for i, z in enumerate(base) if z != 0]
    shifted = next((i for i in nonzero if base[i].imag == 0), nonzero[0])
    v1 = well_conditioned(n, rng)
    v2 = random_unitary(n, rng) @ v1

    def similar(v, values):
        return v @ np.diag(values) @ np.linalg.inv(v)

    untied = with_ties(base, [0.0] * 5, 0.0)
    width = max(TOL.cluster_tol(norm2(similar(v, untied))) for v in (v1, v2))
    return (
        similar(v1, with_ties(base, ks, width)),
        similar(v2, with_ties(base, ks, width, shifted)),
    )


def reference_signs(clusters, width):
    """-1 on negative real clusters farther than `width` from zero."""
    flat = []
    for c in clusters:
        if c.kind == KIND_REAL:
            flat += [-1 if abs(c.value) > width and c.value.real < 0 else 1] * c.multiplicity
    return tuple(flat)


def pairing_key(pairing):
    return [(m.index1, m.index2, m.mu, m.value, m.is_zero) for m in pairing.matches]


class TestDecisions:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(32, 48),
        ks=st.lists(st.sampled_from(MULTIPLES), min_size=4, max_size=4),
        shift=st.sampled_from([0.0] + MULTIPLES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_the_exact_norms(self, n, ks, shift, seed):
        rng = np.random.default_rng(seed)
        hs = planted_pair(rng, n, ks + [shift])
        systems = []
        for h in hs:
            try:
                sys_ = decompose(h)
            except NonDiagonalizable:
                assert svd_rule_rejects(h)
                return
            assert not svd_rule_rejects(h)
            width = TOL.cluster_tol(norm2(h))
            values, vectors = np.linalg.eig(h)
            clusters, order = cluster_eigenvalues(values, width)
            assert sys_.clusters == clusters
            assert np.array_equal(sys_.psi, vectors[:, order])
            zeros = [sys_.is_zero_cluster(i) for i in range(len(clusters))]
            assert zeros == [abs(c.value) <= width for c in clusters]
            assert _canonical_signs(sys_).flat == reference_signs(clusters, width)
            systems.append(sys_)

        try:
            pairing = pairing_key(match_spectra(*systems))
        except NotIsospectral as exc:
            with pytest.raises(NotIsospectral, match=re.escape(str(exc))):
                matching_reference.match_spectra(*systems)
            return
        assert pairing == pairing_key(matching_reference.match_spectra(*systems))

        try:
            fact = canonical_factorization(*systems)
        except NotPseudoHermitian:
            return
        conds = [_cond_lower_bound(s) for s in systems]
        exact = TOL.rtol * (1.0 + max(norm2(h) for h in hs)) * conds[0] * conds[1]
        assert all(c.threshold <= exact for c in fact.checks)


class TestBracket:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(_EXACT_BELOW, 64),
        shape=st.sampled_from(["normal", "rank_one", "nonnormal", "graded"]),
        log_scale=st.floats(-150.0, 150.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_holds_the_svd_norm(self, n, shape, log_scale, seed):
        # a normal matrix and a rank-one one, where the eigenvector and the
        # power iteration reach ||H||_2 itself; a random one; and one graded
        # over twelve decades, whose balancing eig scales
        rng = np.random.default_rng(seed)
        if shape == "normal":
            u = random_unitary(n, rng)
            h = (u * rng.standard_normal(n)) @ u.conj().T
        elif shape == "rank_one":
            h = np.outer(rng.standard_normal(n), rng.standard_normal(n)).astype(complex)
        else:
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if shape == "graded":
                grades = np.logspace(-6.0, 6.0, n)
                h = grades[:, None] * h / grades
        h = h * 10.0**log_scale
        values, vectors = np.linalg.eig(h)
        lo, hi = _norm_bracket(h, values, vectors)
        assert 0.0 <= lo <= norm2(h) <= hi < np.inf

    @pytest.mark.parametrize("n", [2, _EXACT_BELOW - 1])
    def test_is_the_exact_norm_below_the_size_cutoff(self, n):
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n, n)) + 0j
        values, vectors = np.linalg.eig(h)
        assert _norm_bracket(h, values, vectors) == (norm2(h), norm2(h))

    def test_the_zero_matrix_is_bracketed_exactly(self):
        h = np.zeros((_EXACT_BELOW, _EXACT_BELOW), dtype=complex)
        sys_ = decompose(h)
        assert (sys_.width.lo, sys_.width.hi) == (0.0, 0.0)
        assert sys_.is_zero_cluster(0) and sys_.clusters[0].multiplicity == _EXACT_BELOW
