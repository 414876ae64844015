import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import picard_eisenstein
from picard_eisenstein import eisenstein
from picard_eisenstein.cli import RunConfig, main

SRC_DIR = str(Path(picard_eisenstein.__file__).resolve().parent.parent)


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
        code, out, _ = run(capsys, "eval", "--route", "both",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["deviation"] < 1e-2
        assert abs(data["coset_re"] - data["fourier_re"]) == \
            pytest.approx(data["deviation"])

    def test_general_index(self, capsys):
        code, out, _ = run(capsys, "eval", "--l", "1", "--point",
                           "0.2,0.1,1.3", "--route", "fourier",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert "fourier_re" in data
        assert (data["l"], data["k"], data["m"]) == ("1", "0", "0")

    def test_fourier_route_truncates_at_its_frequency_cut(self, capsys,
                                                          monkeypatch):
        # at height 0.9 and Im s = 180 the cut needs |2w|^2 <= 3411; a cut
        # widened so that the norm bound is 5.29 times that changes nothing
        argv = ("eval", "--route", "fourier", "--point", "0.13,0.21,0.9",
                "--s-re", "0.5", "--s-im", "180", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        value = complex(data["fourier_re"], data["fourier_im"])
        assert abs(value - (5.360086019 + 3.332382587j)) < 1e-9
        cut = eisenstein._frequency_cut
        monkeypatch.setattr(eisenstein, "_frequency_cut",
                            lambda s: 2.3 * cut(s))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert abs(complex(data["fourier_re"], data["fourier_im"])
                   - value) <= 1e-10

    def test_fourier_route_refuses_oversized_need(self, capsys):
        # height 1e-3 needs |2w|^2 up to 5.7e7, above the lattice cap
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--route", "fourier",
                             "--point", "0,0,0.001")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert "exceeds" in err

    def test_fourier_route_refuses_tiny_height(self, capsys):
        # the need (x_cut / (2 pi lam))^2 is compared with the lattice cap
        # before it is squared, which would overflow at this height
        code, out, err = run(capsys, "eval", "--route", "fourier",
                             "--point", "0,0,1e-200")
        assert (code, out) == (2, "")
        assert "exceeds" in err

    def test_coset_route_needs_convergence(self, capsys):
        code, _, err = run(capsys, "eval", "--route", "coset",
                           "--s-re", "0.5")
        assert code == 2
        assert "Re(s) > 1" in err

    def test_bad_point_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--point", "1,2")
        assert code == 2

    @pytest.mark.parametrize("point", ["nan,0,1", "inf,0,1", "0,-inf,1",
                                       "0,0,inf", "0,0,nan"])
    def test_non_finite_point_is_usage_error(self, capsys, point):
        code, out, err = run(capsys, "eval", "--route", "fourier",
                             "--point", point)
        assert (code, out) == (2, "")
        assert "point must be finite" in err

    @pytest.mark.parametrize("flag", ["--s-re", "--s-im"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_s_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--route", "fourier", f"{flag}={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: invalid finite value: '{value}'" in err


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

    @pytest.mark.parametrize("flag", ["--t-min", "--t-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_t_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--task", "cusp", f"{flag}={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: invalid finite value: '{value}'" in err

    @pytest.mark.parametrize("flag", [["--l", "0"], ["--a", "2"],
                                      ["--b", "0"], ["--no-contour"]])
    def test_cusp_task_refuses_incomplete_flags(self, capsys, flag):
        code, out, err = run(capsys, "scan", "--task", "cusp", "--t-min",
                             "20", "--t-max", "40", "--steps", "2", *flag)
        assert code == 2
        assert out == ""
        assert flag[0] in err


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out, _ = run(capsys, "scan", "--task", "cusp", "--t-min", "20",
                           "--t-max", "40", "--steps", "2",
                           "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["task"] == "cusp"
        code, out, _ = run(capsys, "scan", "--task", "cusp", "--t-min", "20",
                           "--t-max", "40", "--steps", "2",
                           "--config", str(cfg), "--format", "csv")
        assert code == 0
        assert out.startswith("#")
        report = tmp_path / "report.json"
        cfg.write_text(json.dumps({"format": "json", "seed": 7,
                                   "out": str(report)}))
        code, _, _ = run(capsys, "verify", "lattice", "--config", str(cfg))
        assert code == 0
        assert json.loads(report.read_text())["config"]["seed"] == 7
        code, _, _ = run(capsys, "verify", "lattice", "--config", str(cfg),
                         "--seed", "8")
        assert code == 0
        assert json.loads(report.read_text())["config"]["seed"] == 8

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

    @pytest.mark.parametrize("key", ["seed", "coset_norm_bound",
                                     "lattice_norm_bound"])
    def test_key_without_flag_rejected(self, capsys, tmp_path, key):
        # scan reads neither a seed nor the truncation bounds
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        code, _, err = run(capsys, "scan", "--task", "cusp", "--t-min", "20",
                           "--t-max", "40", "--steps", "2",
                           "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["verify", "lattice", "--workers", "2"],
        ["eval", "--workers", "1"],
        ["scan", "--task", "cusp", "--workers", "1"],
        ["verify", "lattice", "--index-gamma-inf", "4"],
        ["eval", "--index-gamma-inf", "4"],
        ["eval", "--series", "scalar"],
        ["eval", "--seed", "1"],
        ["scan", "--task", "cusp", "--seed", "1"],
        ["scan", "--task", "cusp", "--coset-bound", "100"],
        ["scan", "--task", "cusp", "--lattice-bound", "100"],
        ["eval", "--lattice-bound", "400"],
        ["verify", "eisenstein", "--lattice-bound", "400"],
    ])
    def test_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["workers", "index_gamma_inf"])
    def test_config_key_is_unknown(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "verify", "lattice", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("argv", [["eval"], ["verify", "eisenstein"]])
    def test_lattice_bound_key_is_unknown(self, capsys, tmp_path, argv):
        # the expansion's truncation follows from s and the height
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lattice_norm_bound": 400}))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "unknown config keys: ['lattice_norm_bound']" in err


class TestOversizedTruncation:
    @pytest.mark.parametrize("argv", [
        ["eval", "--coset-bound", "1000000000"],
        ["eval", "--coset-bound", "1000001"],
        ["verify", "lfunctions", "--coset-bound", "1000000000"],
    ])
    def test_flag_refused_before_work(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert "truncation bounds" in err

    def test_config_file_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coset_norm_bound": 10 ** 9}))
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "truncation bounds" in err

    def test_largest_bound_accepted(self):
        cfg = RunConfig(coset_norm_bound=10 ** 6)
        assert cfg.coset_norm_bound == 10 ** 6


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports the package from src."""
    path = os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


class TestWithoutMpmath:
    """mpmath is a test-only dependency: the package runs with it blocked."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--route", "both", "--s-im", "15", "--l", "1"],
        ["scan", "--task", "incomplete", "--steps", "2"],
    ])
    def test_commands_exit_zero(self, argv):
        res = run_python('import sys\nsys.modules["mpmath"] = None\n'
                         "from picard_eisenstein.cli import main\n"
                         f"sys.exit(main({argv!r}))\n")
        assert res.returncode == 0, res.stderr

    def test_import_does_not_load_mpmath(self):
        res = run_python("import sys, picard_eisenstein.cli\n"
                         "print('mpmath' in sys.modules)")
        assert res.stdout.strip() == "False", res.stderr
