import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pseudoherm import cli
from pseudoherm.cli import (
    _parser,
    _pretty_lines,
    _resolve_tolerance,
    dispatch,
    emit_report,
    main,
)
from pseudoherm.errors import NumericalFailure, UsageError
from pseudoherm.report import (
    complex_pair,
    matrix_from_payload,
    matrix_payload,
    parse_matrix_file,
    vector_payload,
)
from pseudoherm.twolevel import TwoLevelParams, normalize_traceless

from support import matrix_with_spectrum, positive_definite, well_conditioned

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_payload(np.asarray(m, dtype=complex))))
    return str(path)


@pytest.fixture
def osc_file(tmp_path):
    return write_matrix(tmp_path / "osc.json", [[0, 1j], [-4j, 0]])


@pytest.fixture
def spin_file(tmp_path):
    return write_matrix(tmp_path / "spin.json", np.diag([2.0, -2.0]))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestMatrixFile:
    def test_one_by_one(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"rows":1,"cols":1,"entries":[[[1,0]]]}')
        m, _ = parse_matrix_file(p)
        assert np.allclose(m, np.eye(1))

    def test_oscillator_round_trip(self, tmp_path, osc_file):
        m, _ = parse_matrix_file(osc_file)
        assert np.array_equal(m, np.array([[0, 1j], [-4j, 0]]))

    def test_shape_mismatch(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"rows":2,"cols":2,"entries":[[[1,0]]]}')
        with pytest.raises(UsageError):
            parse_matrix_file(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        with pytest.raises(UsageError):
            parse_matrix_file(p)

    def test_huge_integer_entry_exits_two(self, capsys, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text('{"rows":1,"cols":1,"entries":[[[1' + "0" * 400 + ',0]]]}')
        with pytest.raises(UsageError):
            parse_matrix_file(p)
        assert main(["spectrum", str(p)]) == 2

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        p = tmp_path / "utf16.json"
        p.write_bytes(b'\xff\xfe{"rows":1,"cols":1,"entries":[[[1,0]]]}')
        with pytest.raises(UsageError):
            parse_matrix_file(p)
        assert main(["spectrum", str(p)]) == 2

    def test_payload_round_trip_is_lossless(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        recovered = matrix_from_payload(json.loads(json.dumps(matrix_payload(m))))
        assert np.array_equal(recovered, m)


class TestSpectrumCommand:
    def test_all_real_diagonal(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", np.diag([1.0, 2.0, 3.0]))
        code, out = run(capsys, "spectrum", f)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["tag"] == "AllReal"
        assert report["passed"] is True

    def test_conjugate_paired(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "p.json", [[0.0, 1.0], [-4.0, 0.0]])
        code, out = run(capsys, "spectrum", f)
        assert code == 0
        assert json.loads(out)["result"]["tag"] == "ConjugatePaired"

    def test_jordan_block_exits_one(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "j.json", [[1.0, 1.0], [0.0, 1.0]])
        code, out = run(capsys, "spectrum", f)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NonDiagonalizable"

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code = main(["spectrum", str(tmp_path / "missing.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            '{"rows":"1","cols":1,"entries":[[[1,0]]]}',
            '{"rows":1,"cols":true,"entries":[[[1,0]]]}',
            '{"rows":2.5,"cols":1,"entries":[[[1,0]],[[1,0]]]}',
            '{"rows":1,"cols":1,"entries":[[[true,0]]]}',
            '{"rows":1,"cols":1,"entries":[[[1,false]]]}',
            '{"rows":2,"cols":2,"entries":[[[1,0],[0,0]],[[1,0]]]}',
            '{"rows":1,"cols":1,"entries":[[[1,0,0]]]}',
            '{"rows":1,"cols":1,"entries":[[["1",0]]]}',
            '{"rows":1,"cols":1,"entries":[[1]]}',
        ],
        ids=[
            "string_rows",
            "bool_cols",
            "fractional_rows",
            "bool_re",
            "bool_im",
            "ragged_row",
            "three_element_pair",
            "string_entry",
            "non_list_entry",
        ],
    )
    def test_malformed_payload_exits_two(self, capsys, tmp_path, payload):
        p = tmp_path / "bad.json"
        p.write_text(payload)
        with pytest.raises(UsageError):
            parse_matrix_file(p)
        assert main(["spectrum", str(p)]) == 2

    def test_psi_matrix_round_trips(self, capsys, tmp_path, osc_file):
        code, out = run(capsys, "spectrum", osc_file)
        payload = json.loads(out)["result"]["psi"]
        psi = matrix_from_payload(payload)
        assert psi.shape == (2, 2)


class TestEtaCommand:
    def test_default_signs(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "h.json", np.diag([1.0, -1.0]))
        code, out = run(capsys, "eta", f)
        assert code == 0
        report = json.loads(out)
        eta = matrix_from_payload(report["result"]["eta"])
        assert np.allclose(eta, np.eye(2))

    def test_explicit_signs(self, capsys, osc_file):
        code, out = run(capsys, "eta", osc_file, "--signs=-1,1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["signs"] == [-1, 1]
        assert report["checks"][0]["passed"] is True

    def test_wrong_sign_count_exits_two(self, capsys, osc_file):
        code = main(["eta", osc_file, "--signs", "1"])
        assert code == 2

    def test_empty_signs_for_a_spectrum_with_no_real_eigenvector(self, capsys, tmp_path):
        # +-i: zero signs are expected, and an empty value spells them
        f = write_matrix(tmp_path / "paired.json", [[0.0, 1.0], [-1.0, 0.0]])
        code, out = run(capsys, "eta", f, "--signs=")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["signs"] == []
        assert report["checks"][0]["passed"] is True

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--signs=", "expected 2 signs for the real eigenvectors, got 0"),
            ("--signs=1,,-1", "--signs must be comma-separated integers"),
        ],
    )
    def test_empty_signs_on_real_eigenvalues_exit_two(self, capsys, spin_file, flag, message):
        assert main(["eta", spin_file, flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_unpairable_exits_one(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "u.json", np.diag([1.0, 2 + 3j]))
        code, out = run(capsys, "eta", f)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotPseudoHermitian"


class TestFactorCommand:
    def test_oscillator(self, capsys, osc_file):
        code, out = run(capsys, "factor", osc_file)
        assert code == 0
        report = json.loads(out)
        l = matrix_from_payload(report["result"]["l"])
        assert np.allclose(l, np.sqrt(2.0) * np.eye(2), atol=1e-10)
        assert all(c["passed"] for c in report["checks"])


class TestIntertwineCommand:
    def test_oscillator_spin(self, capsys, osc_file, spin_file):
        # the emitted L depends on the eigendecomposition's normalization,
        # but the factorization identities pin it down as a map
        code, out = run(capsys, "intertwine", osc_file, spin_file)
        assert code == 0
        report = json.loads(out)
        l = matrix_from_payload(report["result"]["l"])
        lsharp = matrix_from_payload(report["result"]["l_sharp"])
        ho = np.array([[0, 1j], [-4j, 0]])
        hs = np.diag([2.0, -2.0])
        assert np.allclose(lsharp @ l, ho, atol=1e-9)
        assert np.allclose(l @ lsharp, hs, atol=1e-9)
        assert all(c["passed"] for c in report["checks"])
        assert report["result"]["witten"]["delta"] == 0

    def test_not_isospectral_exits_one(self, capsys, tmp_path):
        f1 = write_matrix(tmp_path / "a.json", np.diag([1.0, 2.0]))
        f2 = write_matrix(tmp_path / "b.json", np.diag([1.0, 3.0]))
        code, out = run(capsys, "intertwine", f1, f2)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotIsospectral"

    @pytest.mark.parametrize("unpairable_first", [True, False])
    def test_unpairable_before_not_isospectral(self, capsys, tmp_path, unpairable_first):
        f1 = write_matrix(tmp_path / "u.json", np.diag([1.0, 2 + 3j]))
        f2 = write_matrix(tmp_path / "b.json", np.diag([3.0, 4.0]))
        argv = [f1, f2] if unpairable_first else [f2, f1]
        code, out = run(capsys, "intertwine", *argv)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotPseudoHermitian"

    def test_malformed_second_file_exits_two_before_any_decomposition(
        self, capsys, tmp_path
    ):
        jordan = write_matrix(tmp_path / "jordan.json", [[1.0, 1.0], [0.0, 1.0]])
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["intertwine", jordan, str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{bad} is not valid JSON" in err


    def test_malformed_signs_exit_two_before_any_decomposition(self, capsys, tmp_path):
        jordan = write_matrix(tmp_path / "jordan.json", [[1.0, 1.0], [0.0, 1.0]])
        assert main(["eta", jordan, "--signs=x"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--signs must be comma-separated integers" in err


class TestPsusyWittenCommands:
    def test_psusy_identity_metrics(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", [[0.0, 1.0], [1.0, 0.0]])
        code, out = run(capsys, "psusy", f)
        assert code == 0
        report = json.loads(out)
        assert report["checks"] == []
        assert report["passed"] is True

    def test_witten_full_rank_2x3(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((2, 3))
        f = write_matrix(tmp_path / "d23.json", d)
        code, out = run(capsys, "witten", f)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["delta"] == 1
        assert result["delta_equals_analytic_d"] is True

    def test_witten_with_metric_files(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", np.diag([0.0, 1.0]))
        ep = write_matrix(tmp_path / "ep.json", np.diag([1.0, 2.0]))
        em = write_matrix(tmp_path / "em.json", np.diag([2.0, 1.0]))
        code, out = run(
            capsys, "witten", f, "--eta-plus", ep, "--eta-minus", em
        )
        assert code == 0
        assert json.loads(out)["result"]["delta"] == 0

    @pytest.mark.parametrize("s, zero_modes", [(1e-3, 0), (1e-5, 0), (1e-7, 0), (1e-9, 1)])
    def test_witten_betti_numbers_follow_the_rank_of_d(self, capsys, tmp_path, s, zero_modes):
        # rank's cutoff for D = diag(1, s) is 2 rtol = 2e-8: only s = 1e-9
        # is a zero mode, and it is one in both sectors and in the complex
        f = write_matrix(tmp_path / "d.json", np.diag([1.0, s]))
        code, out = run(capsys, "witten", f)
        assert code == 0
        result = json.loads(out)["result"]
        counts = ("d0_plus", "d0_minus", "ker_d", "ker_d_dagger", "betti_plus", "betti_minus")
        assert [result[k] for k in counts] == [zero_modes] * len(counts)
        assert result["delta"] == 0 and result["delta_equals_analytic_d"] is True

    def test_metric_of_the_wrong_size_exits_two_before_it_is_validated(
        self, capsys, tmp_path
    ):
        d = write_matrix(tmp_path / "d23.json", np.ones((2, 3)))
        non_hermitian = write_matrix(tmp_path / "nh.json", [[1.0, 1.0], [0.0, 1.0]])
        assert main(["psusy", d, "--eta-plus", non_hermitian]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "metric dimensions (2, 2) do not fit D of shape (2, 3)" in err

    def test_non_hermitian_metric_exits_one(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", np.eye(2))
        bad = write_matrix(tmp_path / "bad.json", [[1.0, 1.0], [0.0, 1.0]])
        code, out = run(capsys, "witten", f, "--eta-plus", bad)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidEta"

    def test_malformed_metric_exits_two_before_any_metric_is_built(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", np.eye(2))
        non_hermitian = write_matrix(tmp_path / "nh.json", [[1.0, 1.0], [0.0, 1.0]])
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": 2}')
        argv = ["psusy", f, "--eta-plus", non_hermitian, "--eta-minus", str(bad)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "missing rows/cols/entries" in err


class TestTwoLevelCommand:
    def test_case_two(self, capsys):
        code, out = run(
            capsys, "twolevel", "--a", "0,0", "--b", "1,0", "--c=-4,0"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["e"] == [0.0, 2.0]
        assert all(c["passed"] for c in report["checks"])

    def test_complex_determinant_exits_one(self, capsys):
        code, out = run(
            capsys, "twolevel", "--a", "1,1", "--b", "1,0", "--c", "1,0"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NonRealDeterminant"

    def test_bad_complex_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["twolevel", "--a", "x", "--b", "1,0", "--c", "1,0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag", ["--a=nan,0", "--b=1,inf", "--c=-inf"])
    def test_nonfinite_complex_flag_exits_two(self, capsys, flag):
        argv = ["twolevel", "--a=0,0", "--b=1,0", "--c=-4,0", flag]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


class TestDemoCommand:
    def test_spin_golden(self, capsys):
        code, out = run(capsys, "demo", "spin", "--omega", "2")
        assert code == 0
        report = json.loads(out)
        l = matrix_from_payload(report["result"]["l"])
        expected = (np.sqrt(2.0) / 2.0) * np.array([[0.5, 0.25j], [1j, 0.5]])
        assert np.array_equal(l, expected)
        assert all(c["passed"] for c in report["checks"])

    def test_oscillator_golden(self, capsys):
        code, out = run(capsys, "demo", "oscillator", "--omega", "2")
        assert code == 0
        report = json.loads(out)
        eta2 = matrix_from_payload(report["result"]["eta2"])
        assert np.allclose(eta2, np.array([[20.0, -6j], [6j, 5.0]]) / 16.0)

    def test_nonpositive_omega_exits_two(self, capsys):
        code = main(["demo", "oscillator", "--omega", "-1"])
        assert code == 2

    @pytest.mark.parametrize(
        "which,omega",
        [
            ("oscillator", "nan"),
            ("spin", "inf"),
            ("oscillator", "1e200"),  # omega^2 overflows
            ("spin", "1e-200"),  # omega^2 underflows to 0
            ("oscillator", "1e-160"),  # 1/(4 omega^2) overflows
            ("oscillator", "1e80"),  # omega^4 overflows
            ("oscillator", "1e150"),
            ("spin", "1e-160"),  # 1/omega^2 overflows
            ("spin", "1e130"),  # omega^2.5 overflows
            ("spin", "1e150"),
            # the first doubles outside OMEGA_RANGE
            ("oscillator", "1.4916681462400412e-154"),
            ("oscillator", "5.789604461865811e+76"),
            ("spin", "1.3221119375804975e+123"),
        ],
    )
    def test_unusable_omega_exits_two(self, capsys, which, omega):
        code, out = run(capsys, "demo", which, "--omega", omega)
        assert code == 2
        assert out == ""


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, osc_file):
        _, first = run(capsys, "factor", osc_file)
        _, second = run(capsys, "factor", osc_file)
        assert first == second

    def test_pretty_mode_has_markers(self, capsys, osc_file):
        code, out = run(capsys, "factor", osc_file, "--pretty")
        assert code == 0
        assert "PASS" in out
        assert "residual" in out

    def test_tol_env_override(self, capsys, tmp_path, monkeypatch, osc_file):
        monkeypatch.setenv("PSEUDOHERM_TOL", "1e-6")
        code, out = run(capsys, "spectrum", osc_file)
        assert code == 0
        assert json.loads(out)["tolerance"]["rtol"] == 1e-6

    def test_bad_env_exits_two(self, capsys, monkeypatch, osc_file):
        monkeypatch.setenv("PSEUDOHERM_TOL", "zzz")
        assert main(["spectrum", osc_file]) == 2

    def test_tol_flag_wins(self, capsys, monkeypatch, osc_file):
        monkeypatch.setenv("PSEUDOHERM_TOL", "1e-6")
        code, out = run(capsys, "spectrum", osc_file, "--tol", "1e-9")
        assert json.loads(out)["tolerance"]["rtol"] == 1e-9

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_tol_flag_exits_two(self, capsys, osc_file, value):
        code, out = run(capsys, "factor", osc_file, f"--tol={value}")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_tol_env_exits_two(self, capsys, monkeypatch, osc_file, value):
        monkeypatch.setenv("PSEUDOHERM_TOL", value)
        code, out = run(capsys, "factor", osc_file)
        assert code == 2
        assert out == ""

    def test_parser_built_once(self, capsys, osc_file):
        _parser.cache_clear()
        _, first = run(capsys, "factor", osc_file)
        # a usage error between two calls still exits 2 and leaves no state
        with pytest.raises(SystemExit) as err:
            main(["twolevel", "--a", "x", "--b", "1,0", "--c", "1,0"])
        assert err.value.code == 2
        assert main(["eta", osc_file, "--signs", "1"]) == 2
        _, second = run(capsys, "factor", osc_file)
        assert first == second
        assert _parser.cache_info().misses == 1
        assert _parser() is _parser()


def report_of(*argv):
    args = _parser().parse_args(list(argv))
    return dispatch(args, _resolve_tolerance(args))


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2, default=matrix_payload)


@pytest.fixture
def command_files(tmp_path):
    """Matrix files with full-precision entries for every command."""
    rng = np.random.default_rng(7)
    spectrum = np.diag([-2.0, -0.5, 0.75, 1.5, 3.0])
    files = {}
    for name in ("h1", "h2"):
        v = well_conditioned(5, rng)
        files[name] = write_matrix(tmp_path / f"{name}.json", v @ spectrum @ np.linalg.inv(v))
    files["d"] = write_matrix(tmp_path / "d.json", rng.standard_normal((3, 4)))
    files["ep"] = write_matrix(tmp_path / "ep.json", positive_definite(4, rng))
    files["em"] = write_matrix(tmp_path / "em.json", positive_definite(3, rng))
    return files


def large_files(tmp_path, n, shift=0.25):
    """Two isospectral n x n matrices, each with n/4 doubly degenerate real
    eigenvalues 0.5k and n/4 simple conjugate pairs 0.5k + shift +- i, and a
    rank-deficient map D.

    With the default shift no pair shares its real part with a real
    eigenvalue; with shift 0 every pair does."""
    q = n // 4
    reals = [0.5 * k for k in range(1, q + 1)]
    spectrum = reals * 2 + [x + shift + s * 1j for x in reals for s in (1, -1)]
    rng = np.random.default_rng(11)
    files = {
        name: write_matrix(tmp_path / f"{name}.json", matrix_with_spectrum(spectrum, rng))
        for name in ("h1", "h2")
    }
    d = rng.standard_normal((40, 30)) @ rng.standard_normal((30, 48))
    files["d"] = write_matrix(tmp_path / "d.json", d)
    return files


@pytest.fixture
def files64(tmp_path):
    return large_files(tmp_path, 64)


def cli_subprocess(*argv, **kwargs):
    """`python -m pseudoherm.cli` in a fresh interpreter with ./src importable."""
    env = dict(os.environ, PYTHONPATH=SRC, **kwargs.pop("env", {}))
    return subprocess.Popen(
        [sys.executable, "-m", "pseudoherm.cli", *argv], env=env, **kwargs
    )


finite_pairs = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2
)
special_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, math.nan, math.inf, -math.inf]
)
any_floats = st.floats() | special_floats
leaves = st.none() | st.booleans() | st.integers() | any_floats | st.text()
rectangular_entries = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(finite_pairs, min_size=width, max_size=width), min_size=1, max_size=4
    )
)
odd_entries = st.one_of(
    st.just([]),
    st.just([[]]),
    leaves,
    st.lists(st.lists(st.lists(any_floats, min_size=2, max_size=2), max_size=3), max_size=3),
    st.lists(
        st.lists(st.lists(st.integers(), min_size=2, max_size=2), min_size=1), min_size=1
    ),
    st.lists(st.lists(st.lists(any_floats, max_size=3), min_size=1), min_size=1),
)
payloads = st.fixed_dictionaries(
    {
        "rows": st.integers(0, 4),
        "cols": st.integers(0, 4),
        "entries": rectangular_entries | odd_entries,
    }
)


def _laid_out(m, layout):
    """The same values in C order, Fortran order or as a strided view."""
    if layout == "fortran":
        return np.asfortranarray(m)
    if layout == "strided":
        return np.repeat(m, 2, axis=1)[:, ::2]
    return m


matrix_elements = {float: any_floats, complex: st.builds(complex, any_floats, any_floats)}
matrices = st.builds(
    _laid_out,
    st.sampled_from([float, complex]).flatmap(
        lambda dtype: hnp.arrays(
            dtype, st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=matrix_elements[dtype],
        )
    ),
    st.sampled_from(["C", "fortran", "strided"]),
)
zero_size = st.sampled_from([np.zeros((0, 3)), np.zeros((2, 0), dtype=complex), np.zeros((0, 0))])
report_like = st.recursive(
    leaves | payloads | matrices | zero_size,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text() | st.just("entries"), children, max_size=4),
    max_leaves=24,
)


# one argument set or more per command, over the files of `command_files`
COMMAND_ARGVS = [
    ("spectrum", "h1"),
    ("eta", "h1"),
    ("eta", "h1", "--signs=-1,1,1,-1,1"),
    ("factor", "h1"),
    ("intertwine", "h1", "h2"),
    ("psusy", "d", "--eta-plus", "ep", "--eta-minus", "em"),
    ("witten", "d", "--eta-plus", "ep", "--eta-minus", "em"),
    ("twolevel", "--a", "0.3,0", "--b", "1.7,0", "--c=-4.1,0"),
    ("demo", "oscillator", "--omega", "2.5"),
    ("demo", "spin", "--omega", "0.7"),
]


def argv_id(argv):
    return "-".join(a.strip("-") for a in argv[:2])


class TestEmitReport:
    """The default JSON is exactly
    json.dumps(report, sort_keys=True, indent=2, default=matrix_payload)."""

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=argv_id)
    def test_every_command(self, command_files, argv):
        report = report_of(*(command_files.get(a, a) for a in argv))
        assert report["passed"] is True
        assert emit_report(report) == dumps(report)

    def test_error_report(self):
        failure = {
            "command": "spectrum",
            "error": {
                "type": "NonDiagonalizable",
                "message": 'tab\t "quote" \u00e9 \U0001d53c',
            },
            "passed": False,
        }
        assert emit_report(failure) == dumps(failure)

    def test_matrix_entries_take_the_row_templates(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        m[0, 0] = -0.0
        m[2, 1] = complex(5e-324, -1e16)
        report = {"result": {"l": m, "f": np.asfortranarray(m.T), "s": m[:, ::2], "r": m.real}}
        expected = dumps(report)
        monkeypatch.setattr(cli, "matrix_payload", None)  # unused on this path
        assert emit_report(report) == expected

    @pytest.mark.parametrize(
        "entries",
        [[], [[]], [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]], [[[1, 2]]], [[[1.0, math.nan]]],
         [[[-math.inf, 0.0]]], [[[1.0, 2.0, 3.0]]], [[(1.0, 2.0)]], "entries"],
        ids=[
            "empty", "empty_row", "ragged", "int", "nan", "inf", "triple", "tuple", "string"
        ],
    )
    def test_other_entries_take_the_generic_path(self, entries):
        report = {"l": {"rows": 1, "cols": 1, "entries": entries}}
        assert emit_report(report) == dumps(report)

    @pytest.mark.parametrize(
        "m",
        [np.array([[1.0, math.nan]]), np.array([[complex(0.0, -math.inf)]]),
         np.zeros((0, 3)), np.zeros((3, 0), dtype=complex), np.arange(3.0), np.array(2j)],
        ids=["nan", "inf", "no_rows", "no_cols", "vector", "scalar"],
    )
    def test_other_arrays_fall_back_to_matrix_payload(self, monkeypatch, m):
        calls = []

        def spy(value):
            calls.append(value)
            return matrix_payload(value)

        monkeypatch.setattr(cli, "matrix_payload", spy)
        assert emit_report({"l": m}) == dumps({"l": m})
        assert len(calls) == 1

    def test_non_string_keys(self):
        report = {
            "result": {2: "a", 1.5: {"entries": [[[1.0, 2.0]]]}, -1: [{3: None, False: 1}]}
        }
        assert emit_report(report) == dumps(report)
        with pytest.raises(TypeError):
            emit_report({"result": {"x": 1, 2: 3}})

    @settings(max_examples=300, deadline=None)
    @given(report_like)
    # strings and keys whose JSON text is the placeholder's, next to arrays
    @example({"a": np.eye(2), "b": "\x00"})
    @example({"\x00": [np.eye(2), np.ones((1, 3))], "z": np.eye(1)})
    @example(['x"\x00', np.eye(2), "\x00x"])
    def test_matches_json_dumps(self, value):
        assert emit_report(value) == dumps(value)

    @settings(max_examples=100, deadline=None)
    @given(matrices | zero_size)
    def test_pretty_array_matches_its_payload(self, m):
        assert _pretty_lines("l", m, 1) == _pretty_lines("l", matrix_payload(m), 1)

    def test_peak_memory_stays_near_the_output_size(self, files64):
        argv = ["factor", files64["h1"]]
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)  # first call: caches and lazy imports
        out = io.StringIO()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stdout(out):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2.5 * len(out.getvalue())


WITTEN_KEYS = [
    "analytic_index_d", "betti_minus", "betti_plus", "complex_residual", "d0_minus",
    "d0_plus", "delta", "delta_equals_analytic_d", "ker_d", "ker_d0", "ker_d0_flat",
    "ker_d_dagger", "non_null_kernels", "non_null_minus", "non_null_plus",
]
FACTOR_KEYS = ["alpha", "eta1", "eta2", "l", "l_sharp"]
FACTOR_CHECKS = ["factorization_h1", "factorization_h2"]
BIORTHONORMALITY = ["biorthonormality_left", "biorthonormality_right"]
# sorted result keys and ordered check names of each command's report
REPORT_SCHEMAS = {
    "spectrum": (["clusters", "phi", "psi", "tag"], BIORTHONORMALITY),
    "eta": (["clusters", "eta", "eta_inverse", "signs"], ["pseudo_hermiticity"]),
    "factor": (sorted(FACTOR_KEYS + ["clusters"]), FACTOR_CHECKS),
    "intertwine": (sorted(FACTOR_KEYS + ["witten"]), FACTOR_CHECKS),
    "psusy": (["d_sharp", "h_minus", "h_plus"], []),
    "witten": (WITTEN_KEYS, ["kernel_complex"]),
    "twolevel": (
        sorted(FACTOR_KEYS + ["clusters", "determinant", "e", "n", "phi", "psi", "swapped"]),
        BIORTHONORMALITY + FACTOR_CHECKS,
    ),
    "demo oscillator": (
        ["eta1", "eta1_inv", "eta2", "hamiltonian", "l", "l_sharp", "phi1", "phi2",
         "psi1", "psi2"],
        ["lsharp_l", "l_lsharp"],
    ),
    "demo spin": (["l", "l_sharp", "oscillator_h", "spin_h"], ["lsharp_l", "l_lsharp"]),
}


class TestReportSchema:
    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=argv_id)
    def test_result_keys_and_check_names(self, command_files, argv):
        report = report_of(*(command_files.get(a, a) for a in argv))
        keys, checks = REPORT_SCHEMAS[" ".join(argv[:2]) if argv[0] == "demo" else argv[0]]
        assert sorted(report["result"]) == keys
        assert [c["name"] for c in report["checks"]] == checks
        if argv[0] == "intertwine":
            assert sorted(report["result"]["witten"]) == WITTEN_KEYS


NON_FINITE_TOKEN = re.compile(r"\b(?:nan|inf|NaN|Infinity)\b")


def _refuse_constant(token):
    raise ValueError(f"non-finite number {token} in a report")


class TestFiniteReports:
    """No exit-0 report holds a NaN or infinite number."""

    @pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
    @pytest.mark.parametrize(
        "argv",
        COMMAND_ARGVS
        + [("factor", "h_osc"), ("intertwine", "h_osc", "h_spin"), ("witten", "d")],
        ids=argv_id,
    )
    def test_every_number_is_finite(
        self, capsys, command_files, osc_file, spin_file, argv, pretty
    ):
        files = dict(command_files, h_osc=osc_file, h_spin=spin_file)
        flags = ["--pretty"] if pretty else []
        code, out = run(capsys, *(files.get(a, a) for a in argv), *flags)
        assert code == 0
        if pretty:
            assert NON_FINITE_TOKEN.search(out) is None
        else:
            json.loads(out, parse_constant=_refuse_constant)


class TestSubprocesses:
    def test_closed_pipe_leaves_stderr_empty(self, files64):
        with cli_subprocess(
            "factor", files64["h1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            head = proc.stdout.read(10)
            proc.stdout.close()  # the 1.5 MB report is far from written
            _, err = proc.communicate(timeout=120)
        assert head == b'{\n  "check'
        assert err == b""
        assert proc.returncode == 1

    @staticmethod
    def outcome(files, argv, threads):
        """Exit code, tag, cluster multiplicities, check flags and Witten
        counts of one call under a given OpenBLAS thread count."""
        with cli_subprocess(
            *(files.get(a, a) for a in argv),
            env={"OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
        ) as proc:
            out, _ = proc.communicate(timeout=120)
        report = json.loads(out)
        result = report["result"]
        witten = result["witten"] if argv[0] == "intertwine" else result
        return (
            proc.returncode,
            result.get("tag"),
            [c["multiplicity"] for c in result.get("clusters", [])],
            [(c["name"], c["passed"]) for c in report["checks"]],
            {k: v for k, v in witten.items() if k in WITTEN_KEYS and k != "complex_residual"},
        )

    def test_discrete_outcomes_do_not_depend_on_blas_threads(self, tmp_path):
        # from n = 128 on, OpenBLAS splits the products over two threads and
        # the residual digits differ between the two runs
        files = large_files(tmp_path, 128)
        argvs = [("spectrum", "h1"), ("factor", "h1"), ("intertwine", "h1", "h2"), ("witten", "d")]
        one, two = ([self.outcome(files, argv, threads) for argv in argvs] for threads in "12")
        assert one == two
        assert [o[0] for o in one] == [0, 0, 0, 0]
        assert one[0][2].count(2) == 32
        assert one[3][4]["ker_d"] == 48 - 30

    def test_real_cluster_precedes_the_pair_of_its_real_part(self, tmp_path):
        # each pair 0.5k +- i has the real part of the real cluster 0.5k, so
        # only the order rule, not eig's rounding, decides which comes first
        files = large_files(tmp_path, 128, shift=0.0)
        argvs = [("spectrum", "h1"), ("factor", "h1")]
        one, two = ([self.outcome(files, argv, threads) for argv in argvs] for threads in "12")
        assert one == two
        assert [o[0] for o in one] == [0, 0]
        assert one[0][2] == [2, 1, 1] * 32


class TestInputFiles:
    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=argv_id)
    def test_each_file_is_read_once(self, capsys, monkeypatch, command_files, argv):
        argv = [command_files.get(a, a) for a in argv]
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(argv) == 0
        files = set(command_files.values())
        assert {f: opened[f] for f in files} == {f: argv.count(f) for f in files}

    def test_matrix_piped_to_dev_stdin(self, osc_file):
        data = Path(osc_file).read_bytes()
        with cli_subprocess(
            "factor", "/dev/stdin", stdin=subprocess.PIPE, stdout=subprocess.PIPE
        ) as proc:
            out, _ = proc.communicate(data, timeout=120)
        assert proc.returncode == 0
        digest = {"path": "/dev/stdin", "sha256": hashlib.sha256(data).hexdigest()}
        assert json.loads(out)["inputs"]["matrix"] == digest


# every argument that names a file of a square matrix, given a 2x3 one
NON_SQUARE_ARGVS = [
    ("spectrum", "rect"),
    ("eta", "rect"),
    ("factor", "rect"),
    ("intertwine", "rect", "h1"),
    ("intertwine", "h1", "rect"),
    ("psusy", "d", "--eta-plus", "rect"),
    ("psusy", "d", "--eta-minus", "rect"),
    ("witten", "d", "--eta-plus", "rect"),
    ("witten", "d", "--eta-minus", "rect"),
]


class TestUnusableMatrices:
    @pytest.mark.parametrize(
        "argv", NON_SQUARE_ARGVS, ids=lambda argv: "-".join(a.strip("-") for a in argv)
    )
    def test_non_square_file_exits_two(self, capsys, command_files, tmp_path, argv):
        rect = write_matrix(tmp_path / "rect.json", np.ones((2, 3)))
        files = dict(command_files, rect=rect)
        assert main([files.get(a, a) for a in argv]) == 2
        assert f"{rect} holds a 2x3 matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["psusy", "witten"])
    def test_overflowing_partners_give_an_error_report(self, capsys, tmp_path, command):
        d = write_matrix(tmp_path / "d.json", np.full((2, 2), 1e300))
        code, out = run(capsys, command, d)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NumericalFailure"

    def test_overflowing_two_level_coefficients_raise(self):
        with pytest.raises(ValueError, match="finite"):
            TwoLevelParams.from_coefficients(math.nan, 1, 1)
        # E = sqrt(a^2 + bc) overflows; then only n = 2E(a + E) does
        for coefficients in ((1e200, 1e200, 1e200), (1e154, 5e153, 5e153)):
            with pytest.raises(NumericalFailure, match="not finite"):
                TwoLevelParams.from_coefficients(*coefficients)
        with pytest.raises(NumericalFailure, match="not finite"):
            normalize_traceless(np.full((2, 2), 1e308))

    def test_overflowing_twolevel_gives_an_error_report(self, capsys):
        code = main(["twolevel", "--a=1e200,0", "--b=1e200,0", "--c=1e200,0"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["type"] == "NumericalFailure"
        assert captured.err == ""


class TestPayloads:
    """Array-built payloads equal the per-entry complex_pair construction."""

    def test_matrix_payload(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        m[1, 2] = complex(-0.0, -0.0)
        m[2, 0] = complex(0.0, -0.0)
        payload = matrix_payload(m)
        assert payload["rows"] == 4 and payload["cols"] == 3
        old = [[complex_pair(z) for z in row] for row in m]
        assert dumps(payload["entries"]) == dumps(old)
        assert all(type(x) is float for row in payload["entries"] for p in row for x in p)

    def test_vector_payload(self):
        v = np.array([1.5 - 0.0j, complex(-0.0, 2.0), 5e-324j, -3.0])
        payload = vector_payload(v)
        assert dumps(payload) == dumps([complex_pair(z) for z in v])
        assert all(type(x) is float for p in payload for x in p)

    def test_real_and_scalar_inputs(self):
        assert matrix_payload(np.array([[1, -2]])) == {
            "rows": 1, "cols": 2, "entries": [[[1.0, 0.0], [-2.0, 0.0]]]
        }
        assert matrix_payload(3.0)["entries"] == [[[3.0, 0.0]]]
        assert vector_payload(np.eye(2)) == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
