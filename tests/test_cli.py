"""Command-line front end: CSV contracts, exit codes, manifests."""

import importlib.resources
import math
import warnings

import numpy as np
import pytest

from vdl import cli
from vdl.constants import dipole_coupling_scale
from vdl.kernel import DimensionlessParams, decoherence_kernel


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
        assert f"# input out = {out}" in manifest
        assert "# input tail_bound = 9.9999999999999998e-13" in manifest
        assert any(ln.startswith("# platform python = ") and " ; numpy = " in ln
                   and " ; machine = " in ln for ln in manifest)
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
        with pytest.raises(SystemExit) as exc:
            run(["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "1"])
        assert exc.value.code == 2

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
        # at tau = 0 the truncation estimate is 0, so that row is exact; it
        # cannot certify 1e-300 at tau > 0, so those rows are flagged,
        # but the run itself completes
        assert rows[0].endswith(",ok") and float(rows[0].split(",")[3]) == 0.0
        assert all(r.endswith(",no_convergence") for r in rows[1:])
        assert all(r.split(",")[3] == "nan" for r in rows[1:])

    def test_largest_kappa_rows_are_finite(self, tmp_path, capsys):
        # kappa tau reaches 1 at kappa = 1e301; no row labelled ok holds
        # nan, and Ci's auxiliary series at x ~ 1e301 warns about nothing
        out = tmp_path / "edge.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["kernel-sweep", "--kappa", "1e301", "--start", "0",
                        "--stop", "1e-301", "--points", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 2 and all(r.endswith(",ok") for r in rows)
        assert not any("nan" in r for r in rows)
        assert capsys.readouterr().err == ""

    def test_overflowing_alpha_squared_rows_flagged(self, tmp_path):
        # alpha^2 = inf: the tail majorant meets no bound, so the rows
        # fail the typed way instead of raising OverflowError
        out = tmp_path / "huge_alpha.csv"
        code = run(["kernel-sweep", "--sweep", "tau", "--alpha", "1e200", "--start", "0.5",
                    "--stop", "1", "--points", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 2 and all(r.endswith(",no_convergence") for r in rows)

    def test_overflowing_alpha_squared_exact_at_tau_zero(self, tmp_path):
        # at tau = 0 every term vanishes, so alpha^2 = inf leaves gamma = 0
        out = tmp_path / "huge_alpha_zero.csv"
        code = run(["kernel-sweep", "--sweep", "tau", "--alpha", "1e200", "--start", "0",
                    "--stop", "1", "--points", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert rows[0].split(",")[3:] == ["0", "1", "ok"]
        assert rows[1].endswith(",no_convergence")


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

    def test_partly_skipped_grid_passes_and_lists_skips(self, capsys):
        code = run(["oracle-check", "--m-max", "2", "--kappa-grid", "50",
                    "--tau-grid", "0.3,3e4"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        rows = lines[1:-1]
        assert len(rows) == 4
        assert [r.split()[-1] for r in rows[:2]] == ["ok", "ok"]
        assert all("capability:" in r and "30000" in r for r in rows[2:])
        assert lines[-1].startswith("# worst rel_err")

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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        text = bundled_config("na_cluster.cfg").read_text()
        typo = tmp_path / "typo.cfg"
        typo.write_text(text.replace("run.transit_convention   = sigma",
                                     "run.transit_conventon = two_sigma"))
        assert run(["feasibility", "--config", str(typo)]) == 2
        assert "run.transit_conventon" in capsys.readouterr().err

    def test_duplicate_config_key_rejected(self, tmp_path, capsys):
        text = bundled_config("na_cluster.cfg").read_text()
        first = 1 + next(i for i, ln in enumerate(text.splitlines())
                         if ln.startswith("laser.power"))
        dup = tmp_path / "dup.cfg"
        dup.write_text(text + "laser.power = 0.001\n")
        second = len(text.splitlines()) + 1
        assert run(["feasibility", "--config", str(dup)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{dup}:{second}: 'laser.power' already set on line {first}" in captured.err

    def test_nonphysical_value_rejected(self, capsys):
        code = run(["feasibility", "--config", str(bundled_config("na_cluster.cfg")),
                    "--plate-separation", "-1"])
        assert code == 2

    def test_bad_config_value_names_key_flag_and_file(self, tmp_path, capsys):
        text = bundled_config("na_cluster.cfg").read_text()
        bad = tmp_path / "bad.cfg"
        bad.write_text("".join("cavity.k_max = -1\n" if ln.startswith("cavity.k_max")
                               else ln + "\n" for ln in text.splitlines()))
        assert run(["feasibility", "--config", str(bad)]) == 2
        assert (f"{bad}: configuration key cavity.k_max (or --k-max): "
                "cutoff_wavenumber must be finite and > 0, got -1.0") in capsys.readouterr().err

    def test_bad_override_names_flag_and_key(self, capsys):
        code = run(["feasibility", "--config", str(bundled_config("na_cluster.cfg")),
                    "--period=-1e-7"])
        assert code == 2
        assert ("--period (configuration key laser.period): "
                "grating_period must be finite and > 0, got -1e-07") in capsys.readouterr().err


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
        # as in kernel-sweep: the tau = 0 row is exact, every other row
        # is flagged, and the curve is still written
        assert rows[0].endswith(",ok") and float(rows[0].split(",")[3]) == 0.0
        assert all(r.endswith(",no_convergence") for r in rows[1:])
        assert all(r.split(",")[3] == "nan" for r in rows[1:])


class TestModesDemo:
    def test_center_convergence(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = run(["modes-demo", "--kappa", "30", "--tau", "0.4",
                    "--grids", "40,80,160", "--out", str(out)])
        assert code == 0
        _, header, rows = read_rows(out)
        assert header == "grid_size,overlap_grid,overlap_reference,rel_dev"
        devs = [float(r.split(",")[3]) for r in rows]
        assert devs[0] > devs[-1]

    def test_zero_dipole_overlap_is_one(self, tmp_path):
        out = tmp_path / "zero.csv"
        code = run(["modes-demo", "--kappa", "30", "--tau", "0.4", "--dipole", "0",
                    "--grids", "20,40", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        for row in rows:
            assert float(row.split(",")[1]) == 1.0

    def test_center_reference_is_closed_form(self, tmp_path):
        # the image sum is exact, so the reference is the kernel itself
        out = tmp_path / "demo.csv"
        assert run(["modes-demo", "--kappa", "30", "--tau", "0.4",
                    "--grids", "20", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        alpha = 1e-22 / dipole_coupling_scale(1e-3)  # the --dipole and L defaults
        gamma = decoherence_kernel(DimensionlessParams(alpha, 30.0, 0.4)).gamma
        assert float(rows[0].split(",")[2]) == pytest.approx(math.exp(-gamma), rel=1e-12)

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
        ["modes-demo", "--out", "x.csv", "--m-max", "80"],
        ["modes-demo", "--out", "x.csv", "--plates", "--m-max", "80"],
        ["figure2", "--out", "x.csv"],
    ], ids=["sweep-threads", "sweep-config", "feasibility-tail-bound",
            "oracle-tail-bound", "modes-tail-bound", "modes-m-max", "modes-plates-m-max",
            "figure2-out"])
    def test_flag_not_read_by_command_is_rejected(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, named", [
        (["oracle-check", "--m-max", "0", "--out", "x.txt"], "--m-max"),
        (["oracle-check", "--kappa-grid", "", "--out", "x.txt"], "--kappa-grid"),
        (["oracle-check", "--tau-grid", "", "--out", "x.txt"], "--tau-grid"),
        (["oracle-check", "--tolerance", "nan", "--out", "x.txt"], "--tolerance"),
        (["oracle-check", "--tolerance", "inf", "--out", "x.txt"], "--tolerance"),
        (["oracle-check", "--tolerance", "-1", "--out", "x.txt"], "--tolerance"),
        (["oracle-check", "--m-max", "1", "--kappa-grid", "2e6", "--tau-grid", "0.3",
          "--out", "x.txt"], "quadrature budget kappa*max(m, tau) <= 1e+06"),
        (["figure2", "--points", "1"], "--points"),
        (["figure2", "--alphas", ""], "--alphas"),
        (["figure2", "--points", "3", "--alphas", "0.1,-1"], "alpha"),
        (["modes-demo", "--grids", "", "--out", "x.csv"], "--grids"),
        (["modes-demo", "--grids", "20.9,40.2", "--out", "x.csv"], "--grids"),
        (["modes-demo", "--plate-separation", "0", "--out", "x.csv"], "plate separation"),
        (["modes-demo", "--plate-separation=-1e-3", "--out", "x.csv"], "plate separation"),
        (["modes-demo", "--plates", "--plate-separation", "0", "--out", "x.csv"],
         "plate separation"),
        (["modes-demo", "--plates", "--plate-separation=-1e-3", "--out", "x.csv"],
         "plate separation"),
        (["feasibility", "--config", str(bundled_config("na_cluster.cfg")),
          "--plate-separation", "0"], "plate separation"),
        (["kernel-sweep", "--sweep", "tau", "--tau", "3", "--start", "0.5", "--stop", "1.5",
          "--out", "x.csv"], "--tau"),
        (["kernel-sweep", "--sweep", "alpha", "--alpha", "0.9", "--start", "0.5",
          "--stop", "1.5", "--out", "x.csv"], "--alpha"),
        (["kernel-sweep", "--sweep", "kappa", "--kappa", "10", "--start", "1",
          "--stop", "1e3", "--out", "x.csv"], "--kappa"),
        (["kernel-sweep", "--start", "0.5", "--stop", "2", "--points", "3",
          "--tail-bound", "inf", "--out", "x.csv"], "tail_bound"),
        (["figure2", "--points", "3", "--tail-bound", "inf"], "tail_bound"),
    ], ids=["oracle-m-max", "oracle-kappa-grid", "oracle-tau-grid", "oracle-tolerance-nan",
            "oracle-tolerance-inf", "oracle-tolerance-negative", "oracle-nothing-compared",
            "figure2-points", "figure2-alphas", "figure2-alphas-negative", "modes-grids", "modes-grids-fraction",
            "modes-plate-separation-zero", "modes-plate-separation-negative",
            "modes-plates-plate-separation-zero", "modes-plates-plate-separation-negative",
            "feasibility-plate-separation-zero", "sweep-tau-swept-flag", "sweep-alpha-swept-flag", "sweep-kappa-swept-flag",
            "sweep-tail-bound-inf", "figure2-tail-bound-inf"])
    def test_empty_input_is_usage_error(self, argv, named, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert not any(tmp_path.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
