import json

import numpy as np
import pytest

from pseudoherm.cli import main
from pseudoherm.errors import UsageError
from pseudoherm.report import matrix_from_payload, matrix_payload, parse_matrix_file


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
        ],
        ids=["string_rows", "bool_cols", "fractional_rows", "bool_re", "bool_im"],
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
