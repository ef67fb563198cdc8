"""Command-line front end: CSV contracts, exit codes, manifests."""

import importlib.resources
import math

import numpy as np
import pytest

from vdl import cli


def run(argv):
    return cli.main(argv)


def read_rows(path):
    """(manifest_lines, header, data_rows) of a CSV artifact."""
    lines = path.read_text().splitlines()
    manifest = [ln for ln in lines if ln.startswith("#")]
    payload = [ln for ln in lines if not ln.startswith("#")]
    return manifest, payload[0], payload[1:]


def bundled_config(name: str):
    return importlib.resources.files("vdl") / "configs" / name


class TestKernelSweep:
    def test_two_point_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "10.5",
                    "--points", "2", "--alpha", "0.5", "--kappa", "1e8",
                    "--out", str(out)])
        assert code == 0
        manifest, header, rows = read_rows(out)
        assert header == "tau,alpha,kappa,gamma,D,status"
        assert any("command = kernel-sweep" in ln for ln in manifest)
        first = rows[0].split(",")
        last = rows[1].split(",")
        assert float(first[4]) == 1.0
        assert float(last[4]) == pytest.approx(0.592, abs=0.02)
        assert all(r.endswith(",ok") for r in rows)

    def test_repeat_runs_byte_identical_payload(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "3",
                "--points", "7", "--alpha", "0.4", "--kappa", "1e6"]
        assert run(argv + ["--out", str(out_a)]) == 0
        assert run(argv + ["--out", str(out_b)]) == 0
        _, header_a, rows_a = read_rows(out_a)
        _, header_b, rows_b = read_rows(out_b)
        assert header_a == header_b and rows_a == rows_b

    def test_alpha_sweep_monotone(self, tmp_path):
        out = tmp_path / "alpha.csv"
        assert run(["kernel-sweep", "--sweep", "alpha", "--start", "0", "--stop", "1",
                    "--points", "11", "--tau", "10.5", "--kappa", "1e8",
                    "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        d_values = [float(r.split(",")[4]) for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(d_values, d_values[1:]))

    def test_seventeen_digit_format(self, tmp_path):
        out = tmp_path / "fmt.csv"
        assert run(["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "1",
                    "--points", "2", "--alpha", "0.5", "--kappa", "1e8",
                    "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        gamma_text = rows[1].split(",")[3]
        assert float(gamma_text) > 0
        digits = gamma_text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits.split("e")[0]) >= 16

    def test_missing_out_is_usage_error(self):
        assert run(["kernel-sweep", "--sweep", "tau", "--start", "0",
                    "--stop", "1"]) == 2

    def test_bad_range_is_usage_error(self):
        assert run(["kernel-sweep", "--sweep", "tau", "--start", "2", "--stop", "1",
                    "--out", "/tmp/x.csv"]) == 2

    def test_log_scale_needs_positive_start(self):
        assert run(["kernel-sweep", "--sweep", "kappa", "--start", "0", "--stop", "1e8",
                    "--scale", "log", "--points", "3", "--out", "/tmp/x.csv"]) == 2

    def test_unwritable_path_is_io_error(self):
        assert run(["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "1",
                    "--points", "2", "--out", "/proc/definitely/not/writable.csv"]) == 4

    def test_non_convergent_rows_flagged_run_continues(self, tmp_path):
        out = tmp_path / "flagged.csv"
        code = run(["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "2",
                    "--points", "3", "--alpha", "0.5", "--kappa", "1e8",
                    "--tail-bound", "1e-300", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 3
        # the tail majorant cannot certify 1e-300 for any parameters, so
        # every row is flagged, but the run itself completes
        assert all(r.endswith(",no_convergence") for r in rows)
        assert all(r.split(",")[3] == "nan" for r in rows)


class TestOracleCheck:
    def test_small_grid_passes(self, capsys):
        code = run(["oracle-check", "--m-max", "3", "--kappa-grid", "50,200",
                    "--tau-grid", "0.3,1.0", "--tolerance", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst rel_err" in out
        assert "FAIL" not in out

    def test_resonance_row_included(self, capsys):
        code = run(["oracle-check", "--m-max", "2", "--kappa-grid", "50",
                    "--tau-grid", "1.0", "--tolerance", "1e-6"])
        assert code == 0

    def test_machine_epsilon_tolerance_fails(self, capsys):
        code = run(["oracle-check", "--m-max", "2", "--kappa-grid", "50",
                    "--tau-grid", "0.3", "--tolerance", "1e-15"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_report_file(self, tmp_path):
        out = tmp_path / "oracle.txt"
        assert run(["oracle-check", "--m-max", "2", "--kappa-grid", "50",
                    "--tau-grid", "0.3", "--out", str(out)]) == 0
        assert "worst rel_err" in out.read_text()


class TestFeasibilityCommand:
    def test_na_cluster_config(self, tmp_path, capsys):
        out = tmp_path / "na.csv"
        code = run(["feasibility", "--config", str(bundled_config("na_cluster.cfg")),
                    "--out", str(out)])
        assert code == 0
        text = out.read_text()
        stdout = capsys.readouterr().out
        assert "verdicts" in stdout
        dipole = float([ln for ln in text.splitlines()
                        if ln.startswith("dipole_C_m,")][0].split(",")[1])
        assert 1e-22 / 3 <= dipole <= 1e-22 * 3
        assert "verdict.dipole_above_threshold,pass" in text

    def test_c60_config_fails_threshold(self, tmp_path):
        out = tmp_path / "c60.csv"
        code = run(["feasibility", "--config", str(bundled_config("c60.cfg")),
                    "--out", str(out)])
        assert code == 0
        text = out.read_text()
        dipole = float([ln for ln in text.splitlines()
                        if ln.startswith("dipole_C_m,")][0].split(",")[1])
        assert 1e-25 / 3 <= dipole <= 1e-25 * 3
        assert "verdict.dipole_above_threshold,fail" in text

    def test_empty_config_names_missing_keys(self, tmp_path, capsys):
        empty = tmp_path / "empty.cfg"
        empty.write_text("# nothing here\n")
        code = run(["feasibility", "--config", str(empty)])
        assert code == 2
        err = capsys.readouterr().err
        for key in ("molecule.polarizability", "laser.power", "cavity.L"):
            assert key in err

    def test_flags_override_config(self, capsys):
        code = run(["feasibility", "--config", str(bundled_config("na_cluster.cfg")),
                    "--power", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dipole_C_m = 0" in out

    def test_nonphysical_value_rejected(self, capsys):
        code = run(["feasibility", "--config", str(bundled_config("na_cluster.cfg")),
                    "--plate-separation", "-1"])
        assert code == 2


class TestFigure2:
    def test_curves(self, tmp_path):
        out_dir = tmp_path / "fig2"
        code = run(["figure2", "--out-dir", str(out_dir), "--points", "11",
                    "--alphas", "0.1,0.5", "--tau-max", "2.0"])
        assert code == 0
        for alpha in ("0.1", "0.5"):
            path = out_dir / f"figure2_alpha{alpha}.csv"
            assert path.exists()
            _, header, rows = read_rows(path)
            assert header == "tau,alpha,kappa,gamma,D,status"
            assert float(rows[0].split(",")[4]) == 1.0  # D(tau=0) = 1
        d_weak = float(read_rows(out_dir / "figure2_alpha0.1.csv")[2][-1].split(",")[4])
        d_strong = float(read_rows(out_dir / "figure2_alpha0.5.csv")[2][-1].split(",")[4])
        assert d_weak > d_strong  # weak coupling stays closer to 1

    def test_non_convergent_rows_flagged_run_continues(self, tmp_path):
        out_dir = tmp_path / "fig2"
        code = run(["figure2", "--out-dir", str(out_dir), "--points", "3",
                    "--alphas", "0.5", "--tau-max", "2.0", "--tail-bound", "1e-300"])
        assert code == 0
        _, _, rows = read_rows(out_dir / "figure2_alpha0.5.csv")
        assert len(rows) == 3
        # as in kernel-sweep: every row is flagged, the curve is still written
        assert all(r.endswith(",no_convergence") for r in rows)
        assert all(r.split(",")[3] == "nan" for r in rows)


class TestModesDemo:
    def test_center_convergence(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = run(["modes-demo", "--kappa", "30", "--tau", "0.4",
                    "--grids", "40,80,160", "--m-max", "80", "--out", str(out)])
        assert code == 0
        _, header, rows = read_rows(out)
        assert header == "grid_size,overlap_grid,overlap_reference,rel_dev"
        devs = [float(r.split(",")[3]) for r in rows]
        assert devs[0] > devs[-1]

    def test_zero_dipole_overlap_is_one(self, tmp_path):
        out = tmp_path / "zero.csv"
        code = run(["modes-demo", "--kappa", "30", "--tau", "0.4", "--dipole", "0",
                    "--grids", "20,40", "--m-max", "10", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        for row in rows:
            assert float(row.split(",")[1]) == 1.0

    def test_plates_demo_matches_closed_form(self, tmp_path):
        out = tmp_path / "plates.csv"
        code = run(["modes-demo", "--kappa", "30", "--tau", "0.4", "--plates",
                    "--grids", "160", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert float(rows[0].split(",")[3]) <= 0.01

    def test_kappa_budget(self, tmp_path):
        assert run(["modes-demo", "--kappa", "200", "--out",
                    str(tmp_path / "x.csv")]) == 2


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["kernel-sweep", "--start", "0", "--stop", "1", "--out", "x.csv",
         "--threads", "2"],
        ["kernel-sweep", "--start", "0", "--stop", "1", "--out", "x.csv",
         "--config", "x.cfg"],
        ["feasibility", "--tail-bound", "1e-10"],
        ["oracle-check", "--tail-bound", "1e-10"],
        ["modes-demo", "--out", "x.csv", "--tail-bound", "1e-10"],
        ["figure2", "--out", "x.csv"],
    ], ids=["sweep-threads", "sweep-config", "feasibility-tail-bound",
            "oracle-tail-bound", "modes-tail-bound", "figure2-out"])
    def test_flag_not_read_by_command_is_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
