import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoherm.cli import (
    _entries_json,
    _parser,
    _resolve_tolerance,
    dispatch,
    emit_report,
    main,
)
from pseudoherm.errors import UsageError
from pseudoherm.report import (
    complex_pair,
    matrix_from_payload,
    matrix_payload,
    parse_matrix_file,
    vector_payload,
)

from support import positive_definite, well_conditioned


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
        assert np.allclose(parse_matrix_file(p), np.eye(1))

    def test_oscillator_round_trip(self, tmp_path, osc_file):
        m = parse_matrix_file(osc_file)
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


class TestPsusyWittenCommands:
    def test_psusy_identity_metrics(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", [[0.0, 1.0], [1.0, 0.0]])
        code, out = run(capsys, "psusy", f)
        assert code == 0
        report = json.loads(out)
        assert all(c["passed"] for c in report["checks"])
        assert [c["name"] for c in report["checks"]] == [
            "susy_anticommutator", "intertwine_plus", "intertwine_minus"
        ]

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

    def test_non_hermitian_metric_exits_one(self, capsys, tmp_path):
        f = write_matrix(tmp_path / "d.json", np.eye(2))
        bad = write_matrix(tmp_path / "bad.json", [[1.0, 1.0], [0.0, 1.0]])
        code, out = run(capsys, "witten", f, "--eta-plus", bad)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidEta"


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
    return json.dumps(value, sort_keys=True, indent=2)


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
report_like = st.recursive(
    leaves | payloads,
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
    """The default JSON is exactly json.dumps(report, sort_keys=True, indent=2)."""

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

    def test_matrix_entries_take_the_row_templates(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        m[0, 0] = -0.0
        entries = matrix_payload(m)["entries"]
        assert _entries_json(entries, "\n    ") == dumps(entries).replace("\n", "\n    ")

    @pytest.mark.parametrize(
        "entries",
        [[], [[]], [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]], [[[1, 2]]], [[[1.0, math.nan]]],
         [[[-math.inf, 0.0]]], [[[1.0, 2.0, 3.0]]], [[(1.0, 2.0)]], "entries"],
        ids=[
            "empty", "empty_row", "ragged", "int", "nan", "inf", "triple", "tuple", "string"
        ],
    )
    def test_other_entries_take_the_generic_path(self, entries):
        assert _entries_json(entries, "\n") is None
        report = {"l": {"rows": 1, "cols": 1, "entries": entries}}
        assert emit_report(report) == dumps(report)

    def test_non_string_keys(self):
        report = {
            "result": {2: "a", 1.5: {"entries": [[[1.0, 2.0]]]}, -1: [{3: None, False: 1}]}
        }
        assert emit_report(report) == dumps(report)
        with pytest.raises(TypeError):
            emit_report({"result": {"x": 1, 2: 3}})

    @settings(max_examples=300, deadline=None)
    @given(report_like)
    def test_matches_json_dumps(self, value):
        assert emit_report(value) == dumps(value)


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
