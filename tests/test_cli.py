import json

import pytest

from picard_eisenstein.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_lattice_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "lattice")
        assert code == 0
        assert "all 4 checks passed" in out

    def test_microlocal_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "microlocal")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2

    def test_report_file(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, _ = run(capsys, "verify", "lattice", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert "check,deviation,tolerance,status" in lines
        assert sum(1 for ln in lines if ln.endswith(",pass")) == 4


class TestEval:
    def test_two_routes_agree(self, capsys):
        code, out, _ = run(capsys, "eval", "--series", "scalar",
                           "--route", "both", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["deviation"] < 1e-2
        assert abs(data["coset_re"] - data["fourier_re"]) == \
            pytest.approx(data["deviation"])

    def test_general_index(self, capsys):
        code, out, _ = run(capsys, "eval", "--series", "general", "--l", "1",
                           "--point", "0.2,0.1,1.3", "--route", "fourier",
                           "--format", "json")
        assert code == 0
        assert "fourier_re" in json.loads(out)

    def test_coset_route_needs_convergence(self, capsys):
        code, _, err = run(capsys, "eval", "--route", "coset",
                           "--s-re", "0.5")
        assert code == 2
        assert "Re(s) > 1" in err

    def test_bad_point_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--point", "1,2")
        assert code == 2


class TestScan:
    ARGS = ("scan", "--task", "incomplete", "--t-min", "10", "--t-max", "40",
            "--steps", "3", "--no-contour")

    def test_csv_shape(self, capsys, tmp_path):
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, *self.ARGS, "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert any(ln.startswith("# task=") for ln in comments)
        assert body[0] == "t,value_re,value_im,main_term,value_over_lnt"
        assert len(body) == 4
        ts = [float(ln.split(",")[0]) for ln in body[1:]]
        assert ts == sorted(ts) == [10.0, 25.0, 40.0]

    def test_worker_pool_size_does_not_change_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *self.ARGS, "--out", str(a), "--workers", "1")[0] == 0
        assert run(capsys, *self.ARGS, "--out", str(b), "--workers", "4")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cusp_task_json(self, capsys):
        code, out, _ = run(capsys, "scan", "--task", "cusp", "--t-min", "20",
                           "--t-max", "40", "--steps", "2",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["columns"][0] == "t"
        assert len(data["rows"]) == 2

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "scan", "--t-min", "40", "--t-max", "10",
                         "--steps", "3")
        assert code == 2


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "seed": 7}))
        code, out, _ = run(capsys, "scan", "--task", "cusp", "--t-min", "20",
                           "--t-max", "40", "--steps", "2",
                           "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 7
        code, out, _ = run(capsys, "scan", "--task", "cusp", "--t-min", "20",
                           "--t-max", "40", "--steps", "2",
                           "--config", str(cfg), "--format", "csv")
        assert code == 0
        assert out.startswith("#")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run(capsys, "verify", "lattice", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_tolerance_knob_is_gone(self, capsys, tmp_path):
        # no suite reads a global tolerance, so neither form is accepted
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lattice", "--tol", "1e-6"])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-6}))
        code, _, err = run(capsys, "verify", "lattice", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err
