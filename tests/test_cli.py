"""End-to-end tests of the command-line interface: config handling, artifacts,
manifest bookkeeping, exit codes and reproducibility."""

import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprlock import cli, kernels, model
from eprlock.model import ConfigError


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


class TestConfigHandling:
    def test_defaults_returned_without_file(self):
        cfg = cli.load_config(None, [])
        assert cfg["pump"]["epsilon"] == 0.8
        assert cfg["run"]["rng_seed"] == 12345

    def test_file_merges_over_defaults(self, tmp_path):
        user = tmp_path / "cfg.json"
        user.write_text(json.dumps({"pump": {"epsilon": 0.5}}))
        cfg = cli.load_config(str(user), [])
        assert cfg["pump"]["epsilon"] == 0.5
        # untouched siblings survive the merge
        assert cfg["pump"]["phi_p"] == 0.0
        assert cfg["cavity"]["gamma_out"] == 12e6

    def test_set_override_parses_json_values(self):
        cfg = cli.load_config(None, ["pump.epsilon=0.3", "synth_epr.dark_noise=true"])
        assert cfg["pump"]["epsilon"] == 0.3
        assert cfg["synth_epr"]["dark_noise"] is True

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_config(None, ["no-equals-sign"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_config("/nonexistent/cfg.json", [])

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_config(str(bad), [])

    def test_int_accepted_where_default_is_float(self):
        assert cli.load_config(None, ["lock_sim.rate=200000"])["lock_sim"]["rate"] == 200000

    @pytest.mark.parametrize(
        "override, path",
        [
            ("synth_epr.duraton=5.0", "synth_epr.duraton"),
            ("reproduce_fig4.epsilons=[0.1, NaN]", r"reproduce_fig4.epsilons\[1\]"),
            ("lock_sim.disturbance_s.sinusoids=[[50, true, 0]]", r"disturbance_s.sinusoids\[0\]\[1\]"),
        ],
    )
    def test_shape_error_names_the_path(self, override, path):
        with pytest.raises(ConfigError, match=path):
            cli.load_config(None, [override])

    def test_file_with_unknown_key_rejected(self, tmp_path):
        user = tmp_path / "cfg.json"
        user.write_text(json.dumps({"detection": {"g_weight": 1.0}}))
        with pytest.raises(ConfigError, match="detection.g_weight"):
            cli.load_config(str(user), [])


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        code = cli.main(["steady-state", "--config", "/nonexistent.json", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_physics_error_is_3(self, tmp_path, capsys):
        code = cli.main(
            ["steady-state", "--set", "pump.epsilon=1.2", "--out", str(tmp_path / "o")]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "physics"

    def test_integrate_above_threshold_is_3(self, tmp_path, capsys):
        code = cli.main(["integrate", "--set", "pump.epsilon=1.2", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "eigenvalue" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "o" / "trajectory.csv").exists()

    def test_unstable_integration_step_is_4(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["integrate", "--set", "cavity.delta=1e9", "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "integrate.dt_over_gamma" in err["message"]
        assert not out.exists()

    def test_undetermined_fit_is_4(self, tmp_path, capsys):
        table = tmp_path / "dataset.csv"
        table.write_text("epsilon,var_minus,var_plus,uncert\n" + "0.0,1.0,1.0,0.01\n" * 4)
        out = tmp_path / "o"
        assert cli.main(["fit", "--input", str(table), "--out", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"
        assert not (out / "fit.json").exists()

    def test_near_singular_fit_is_4(self, tmp_path, capsys):
        # Was exit 0 with converged: true, eta_err 1.39 and sigma_err 10.8 rad.
        table = tmp_path / "dataset.csv"
        rows = "".join(f"{k}e-6,1.0,1.0,0.01\n" for k in range(1, 5))
        table.write_text("epsilon,var_minus,var_plus,uncert\n" + rows)
        out = tmp_path / "o"
        assert cli.main(["fit", "--input", str(table), "--out", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, rows",
        [
            # Every PSD bin overflows to inf; psd.csv would hold it.
            ("psd", ["t,value"] + [f"{k * 1e-3},1e308" for k in range(100)]),
            # The fringe's peak-to-peak overflows to inf; calibration.json would hold it.
            ("calibrate", ["t,signal"] + [f"{k * 1e-3},{(-1) ** k * 1e308}" for k in range(100)]),
        ],
    )
    def test_non_finite_artifact_is_4(self, tmp_path, capsys, command, rows):
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        # The overflow is the error; numpy must not also warn on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--input", str(table), "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numerical"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, override",
        [
            (["integrate"], "integrate.t_end_over_gamma=1e9"),
            (["lock-sim"], "lock_sim.duration=1e9"),
            (["reproduce", "fig4"], "reproduce_fig4.duration=1e9"),
            (["reproduce", "fig4"], "reproduce_fig4.rate=1e300"),
            (["spectra"], "spectra_scan.points=1000000000"),
        ],
    )
    def test_over_the_sample_budget_is_2(self, tmp_path, capsys, command, override):
        # Each would ask numpy for gigabytes; the budget refuses it first.
        out = tmp_path / "o"
        assert cli.main(command + ["--set", override, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "sample budget" in err["message"]
        assert not out.exists()

    def test_overflow_in_a_fig4_point_is_4(self, tmp_path, capsys, monkeypatch):
        """The points run on worker threads, which must keep run()'s
        errstate: an overflow there is exit 4, not a warning."""

        def overflowing_band_power(series, f_lo, f_hi):
            return float(np.float64(1e308) * np.float64(10.0))

        monkeypatch.setattr(cli.locksim, "band_power", overflowing_band_power)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["reproduce", "fig4", "--set", "reproduce_fig4.duration=0.05", "--out", str(out)])
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "FloatingPointError"
        assert not out.exists()

    def test_first_failing_fig4_point_is_reported(self, tmp_path, capsys):
        # Points 1 and 3 both fail; a serial loop would stop at point 1.
        args = ["--set", "reproduce_fig4.epsilons=[0.1, 1.5, 0.2, 2.0]", "--set", "reproduce_fig4.duration=0.05"]
        assert cli.main(["reproduce", "fig4", *args, "--out", str(tmp_path / "o")]) == 3
        assert "epsilon = 1.5 " in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("dead, live", [("eta_s", "eta_i"), ("eta_i", "eta_s")])
    def test_fig4_with_a_dead_arm_is_3(self, tmp_path, capsys, dead, live):
        out = tmp_path / "o"
        args = ["--set", f"detection.{dead}=0", "--set", f"detection.{live}=0.9"]
        assert cli.main(["reproduce", "fig4", *args, "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "PhysicsDomainError"
        assert f"detection.{dead} = 0" in err["message"]
        assert not out.exists()

    def test_energy_conservation_violation_is_2(self, tmp_path, capsys):
        code = cli.main(
            ["steady-state", "--set", "frequency_plan.lambda_p=500e-9", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "energy conservation" in capsys.readouterr().err


class TestRejectedSettings:
    """Config values outside the defaults' shape, and inputs a library call
    rejects, end as a config error, not a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["integrate", "--set", "integrate.dt_over_gamma=1"],
            ["lock-sim", "--set", "lock_sim.rate=1000"],
            ["synth-epr", "--set", "synth_epr.duration=0"],
            ["psd", "--input", "{one_row}"],
            ["psd", "--input", "{two_rows}"],
            ["spectra", "--set", "spectra_scan.points=0"],
            ["sweep", "--set", "sweep_scan.points=0"],
            ["reproduce", "fig5", "--set", "reproduce_fig5.points=-3"],
            ["spectra", "--set", "spectra_scan.points=2.5"],
            ["synth-epr", "--set", "synth_epr.duraton=1.0"],
            ["lock-sim", "--set", "lock_sim.loop_s.theta_ref=0.0"],
            ["steady-state", "--set", "detection.g_weight=1.0"],
            ["integrate", "--set", "integrate=null"],
            ["lock-sim", "--set", 'lock_sim.duration="x"'],
            ["steady-state", "--set", 'run.rng_seed="a"'],
            ["spectra", "--set", "pump.epsilon=true"],
            ["spectra", "--set", "spectra_scan.omega_norm_max=NaN"],
            ["sweep", "--set", "sweep_scan.epsilon_max=Infinity"],
            ["fit", "--input", "{dataset}", "--set", "fit_settings.mode=bogus"],
            ["fit", "--input", "{three_rows}"],
            ["reproduce", "fig4", "--set", "reproduce_fig4.duration=0.1", "--set", "reproduce_fig4.band=[0,2e6]"],
            ["psd", "--input", "{constant_t}"],
            ["calibrate", "--input", "{constant_t}"],
            ["psd", "--input", "{nan_value}"],
            ["calibrate", "--input", "{nan_value}"],
            ["integrate", "--set", "integrate.dt_over_gamma=0"],
            ["lock-sim", "--set", "lock_sim.disturbance_pump.sinusoids=[5]"],
        ],
        ids=lambda args: " ".join(args),
    )
    def test_exit_2_with_one_json_line(self, tmp_path, capsys, args):
        dataset = "epsilon,var_minus,var_plus,uncert\n0.1,0.8,1.3,0.01\n0.3,0.5,2.5,0.01\n0.5,0.4,5.0,0.01\n"
        tables = {
            "one_row": "t,value\n0.0,1.0\n",
            "two_rows": "t,value\n0.0,1.0\n0.1,2.0\n",
            "constant_t": "t,value\n0.0,1.0\n0.0,2.0\n0.0,3.0\n",
            "nan_value": "t,value\n" + "".join(f"{k},{'nan' if k == 5 else k % 3}\n" for k in range(2000)),
            "three_rows": dataset,
            "dataset": dataset + "0.7,0.3,12.0,0.01\n",
        }
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
        args = [a.format(**{k: str(tmp_path / f"{k}.csv") for k in tables}) for a in args]
        out = tmp_path / "run"
        assert cli.main(args + ["--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert not out.exists()


class TestSteadyStateCommand:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["steady-state", "--out", str(out)]) == 0
        payload = _read_json(out / "steady_state.json")
        # the phase sum of the two lock fields equals the pump phase (zero here)
        mismatch = payload["phi_cls"] + payload["phi_cli"]
        assert abs(math.remainder(mismatch, 2.0 * math.pi)) < 1e-9
        assert payload["gain"] == pytest.approx(5.0)  # 1/(1 - 0.8)
        manifest = _read_json(out / "manifest.json")
        assert manifest["tool"] == "eprlock"
        assert manifest["subcommand"] == "steady-state"
        assert manifest["seed"] == 12345
        assert manifest["outputs"] == ["steady_state.json"]
        assert len(manifest["config_sha256"]) == 64

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["steady-state", "--out", str(out), "--seed", "7"])
        assert _read_json(out / "manifest.json")["seed"] == 7


class TestIntegrateCommand:
    def test_trajectory_converges(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["integrate", "--out", str(out)]) == 0
        header, data = _read_csv(out / "trajectory.csv")
        assert header == ["t", "alpha_s_re", "alpha_s_im", "alpha_i_re", "alpha_i_im"]
        # late-time samples settle toward the steady state
        tail = data[-5:, 1]
        assert np.ptp(tail) < 1e-2 * abs(tail[-1])


class TestSpectraCommands:
    def test_spectra_scan(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["spectra", "--out", str(out)]) == 0
        header, data = _read_csv(out / "spectra.csv")
        assert header[:3] == ["omega_norm", "var_minus", "var_plus"]
        assert data[0, 1] == pytest.approx(0.12098765432098772, rel=1e-12)
        assert data[0, 3] == pytest.approx(-9.17, abs=0.01)

    def test_sweep_minimum_near_operating_point(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["sweep", "--out", str(out)]) == 0
        _, data = _read_csv(out / "sweep.csv")
        best = data[np.argmin(data[:, 1]), 0]
        assert 0.7 <= best <= 0.9

    def test_duan_simon(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["duan-simon", "--out", str(out)]) == 0
        payload = _read_json(out / "duan_simon.json")
        assert payload["sum"] == pytest.approx(0.242, abs=1e-3)
        assert payload["entangled"] is True
        assert payload["sum_with_phase_noise"] > payload["sum"]

    def test_reproduce_fig5(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["reproduce", "fig5", "--out", str(out)]) == 0
        header, data = _read_csv(out / "fig5_spectra.csv")
        assert header[0] == "f_hz"
        assert data[0, 0] == 5e3 and data[-1, 0] == 1.7e4
        # anti-squeezing stays within a fraction of a dB of its DC value over the band
        assert np.all(data[:, 5] > 18.0)


@pytest.mark.parametrize("arms", [(0.0, 0.9), (0.9, 0.0), (0.0, 0.0)])
class TestDeadArmIsShotNoise:
    """With an arm at 0 the one efficiency is 0: every analytic row is shot noise."""

    @staticmethod
    def _run(tmp_path, command, arms):
        out = tmp_path / "run"
        args = ["--set", f"detection.eta_s={arms[0]}", "--set", f"detection.eta_i={arms[1]}"]
        assert cli.main([*command, *args, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize(
        "command, artifact, columns",
        [
            (["spectra"], "spectra.csv", [1, 2]),
            (["sweep"], "sweep.csv", [1, 2]),
            (["reproduce", "fig5"], "fig5_spectra.csv", [2, 3]),
        ],
    )
    def test_tables(self, tmp_path, arms, command, artifact, columns):
        _, data = _read_csv(self._run(tmp_path, command, arms) / artifact)
        np.testing.assert_allclose(data[:, columns], 1.0, rtol=1e-15)

    def test_duan_simon(self, tmp_path, arms):
        payload = _read_json(self._run(tmp_path, ["duan-simon"], arms) / "duan_simon.json")
        assert payload["sum"] == 2.0
        assert payload["entangled"] is False


class TestUnequalArms:
    def test_spectra_use_the_harmonic_mean(self, tmp_path):
        out = tmp_path / "run"
        args = ["--set", "detection.eta_s=0.95", "--set", "detection.eta_i=0.75", "--set", "pump.epsilon=0.8"]
        assert cli.main(["spectra", *args, "--out", str(out)]) == 0
        _, data = _read_csv(out / "spectra.csv")
        # The mean efficiency 0.85 would read -7.95 dB.
        assert data[0, 3] == pytest.approx(-7.64, abs=0.01)

    @pytest.mark.parametrize("eta_s, eta_i", [(0.95, 0.75), (0.99, 0.6)])
    def test_fig4_recovers_the_injected_phase_noise(self, tmp_path, eta_s, eta_i):
        """Weighting the idler cancels the arm imbalance that the mean
        efficiency read as 60 and 124 mrad of phase noise."""
        out = tmp_path / "run"
        args = ["--seed", "12345", "--set", f"detection.eta_s={eta_s}", "--set", f"detection.eta_i={eta_i}"]
        assert cli.main(["reproduce", "fig4", *args, "--out", str(out)]) == 0
        fit = _read_json(out / "fig4_fit.json")
        assert fit["injected_eta"] == pytest.approx(2 * eta_s * eta_i / (eta_s + eta_i), rel=1e-15)
        assert abs(fit["sigma_hat"] - fit["injected_sigma_theta"]) <= 0.003
        assert abs(fit["eta_hat"] - fit["injected_eta"]) <= 0.02

    @pytest.mark.parametrize("eta_i", ["1e-200", "1e-320"])
    def test_fig4_with_a_nearly_dead_arm_is_4(self, tmp_path, capsys, eta_i):
        """Data that hold no squeezing pin sigma_Theta at its upper bound. At
        1e-200 that was exit 0 with sigma_hat 0.49999; at 1e-320 g*g overflowed
        into a bare "invalid value encountered in divide"."""
        out = tmp_path / "run"
        args = ["--set", f"detection.eta_i={eta_i}", "--set", "reproduce_fig4.duration=0.2"]
        assert cli.main(["reproduce", "fig4", *args, "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numerical"
        assert "upper bound 0.5 rad" in err["message"]
        assert not out.exists()


class TestFig4AtZeroPhaseNoise:
    def test_a_pinned_sigma_reports_a_finite_error(self, tmp_path):
        """A sigma_hat pinned at 0 reported sigma_err of 948-1652 rad; the
        one-sided bound in sigma^2 is a few mrad."""
        pinned = {}
        for seed in range(100, 112):
            out = tmp_path / str(seed)
            args = ["--seed", str(seed), "--set", "reproduce_fig4.sigma_theta=0", "--set", "reproduce_fig4.n_bootstrap=0"]
            assert cli.main(["reproduce", "fig4", *args, "--out", str(out)]) == 0
            fit = _read_json(out / "fig4_fit.json")
            if fit["at_boundary"]:
                pinned[seed] = fit["sigma_err"]
        assert pinned
        assert max(pinned.values()) < 0.05, pinned


class TestLockSimCommand:
    def test_summary_and_traces(self, tmp_path):
        out = tmp_path / "run"
        args = ["lock-sim", "--out", str(out), "--set", "lock_sim.duration=0.5"]
        assert cli.main(args) == 0
        summary = _read_json(out / "lock_summary.json")
        assert summary["sigma_theta_rms"] < 0.02
        assert summary["in_lock_fraction"] == 1.0
        assert summary["unstable"] is False
        header, data = _read_csv(out / "lock_traces.csv")
        assert header == ["t", "theta_s", "theta_i", "theta_common"]
        np.testing.assert_allclose(data[:, 3], 0.5 * (data[:, 1] + data[:, 2]), atol=1e-15)


class TestReproduceFig3Command:
    def test_calibrated_phase_noise_summary(self, tmp_path):
        out = tmp_path / "run"
        args = ["reproduce", "fig3", "--out", str(out), "--set", "lock_sim.duration=0.5"]
        assert cli.main(args) == 0
        summary = _read_json(out / "fig3_summary.json")
        assert summary["in_lock_fraction"] == 1.0
        # calibrated spectral estimate agrees with the direct time-domain RMS
        assert summary["sigma_theta"] == pytest.approx(
            summary["sigma_theta_time_domain"], rel=0.25
        )
        header, _ = _read_csv(out / "fig3_theta_psd.csv")
        assert header == ["f", "density"]


class TestFig4Points:
    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_dataset_is_the_points_in_order(self, seed):
        """The thread pool returns what a serial loop over the points returns."""
        cfg = cli.load_config(None, ["reproduce_fig4.duration=0.2", f"run.rng_seed={seed}"])
        sys_cfg = cli._system_config(cfg)
        block = cfg["reproduce_fig4"]
        serial = [cli._fig4_point(block, sys_cfg, seed, k, eps) for k, eps in enumerate(block["epsilons"])]
        assert cli._fig4_dataset(cfg, sys_cfg).points == tuple(serial)


class TestSynthEprCommand:
    def test_photocurrents_written(self, tmp_path):
        out = tmp_path / "run"
        args = ["synth-epr", "--out", str(out), "--set", "synth_epr.duration=0.5"]
        assert cli.main(args) == 0
        _, data = _read_csv(out / "photocurrents.csv")
        assert data.shape == (100000, 3)
        _, shot = _read_csv(out / "shot_reference.csv")
        assert np.var(shot[:, 1]) == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("duration", [0.05, 0.050005])  # 10,000 and 10,001 samples
    def test_with_phase_noise(self, tmp_path, duration):
        out = tmp_path / "run"
        args = ["synth-epr", "--out", str(out), "--set", f"synth_epr.duration={duration}"]
        assert cli.main(args + ["--set", "synth_epr.sigma_theta=0.01"]) == 0
        _, data = _read_csv(out / "photocurrents.csv")
        assert data.shape == (round(duration * 2e5), 3)


class TestInputCommands:
    def test_calibrate_round_trip(self, tmp_path):
        theta = np.linspace(0.0, 2.0 * math.pi, 4097)
        fringe = tmp_path / "fringe.csv"
        with open(fringe, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "phase", "signal"])
            for k, (p, s) in enumerate(zip(theta, 0.7 * np.sin(theta))):
                writer.writerow([k * 1e-3, p, s])
        out = tmp_path / "run"
        assert cli.main(["calibrate", "--input", str(fringe), "--out", str(out)]) == 0
        payload = _read_json(out / "calibration.json")
        assert payload["s_pp"] == pytest.approx(1.4, rel=1e-12)
        assert payload["beta"] * 0.7 == pytest.approx(1.0, rel=1e-12)

    def test_calibrate_incomplete_fringe_is_3(self, tmp_path, capsys):
        theta = np.linspace(0.0, 3.0, 200)
        fringe = tmp_path / "fringe.csv"
        with open(fringe, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "phase", "signal"])
            for k, (p, s) in enumerate(zip(theta, np.sin(theta))):
                writer.writerow([k * 1e-3, p, s])
        assert cli.main(["calibrate", "--input", str(fringe), "--out", str(tmp_path / "o")]) == 3
        capsys.readouterr()

    def test_calibrate_requires_input(self, tmp_path, capsys):
        assert cli.main(["calibrate", "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_psd_of_tone(self, tmp_path):
        rate, f0 = 1e4, 1e3
        t = np.arange(50000) / rate
        trace = tmp_path / "trace.csv"
        with open(trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value"])
            for ti, vi in zip(t, np.sin(2.0 * np.pi * f0 * t)):
                writer.writerow([repr(float(ti)), repr(float(vi))])
        out = tmp_path / "run"
        assert cli.main(["psd", "--input", str(trace), "--out", str(out)]) == 0
        _, data = _read_csv(out / "psd.csv")
        peak = data[np.argmax(data[:, 1]), 0]
        assert peak == pytest.approx(f0, rel=0.01)

    def test_fit_on_synthetic_table(self, tmp_path):
        from eprlock import spectra

        rows = []
        for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            vm = spectra.two_mode_variance(eps, 0.89, 0.0, "minus")
            vp = spectra.two_mode_variance(eps, 0.89, 0.0, "plus")
            rows.append(
                (
                    eps,
                    spectra.phase_noise_variance(vm, vp, 0.01),
                    spectra.phase_noise_variance(vp, vm, 0.01),
                    0.01,
                )
            )
        table = tmp_path / "dataset.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "var_minus", "var_plus", "uncert"])
            writer.writerows(rows)
        out = tmp_path / "run"
        args = ["fit", "--input", str(table), "--out", str(out), "--set", "fit_settings.n_bootstrap=0"]
        assert cli.main(args) == 0
        payload = _read_json(out / "fit.json")
        assert payload["eta_hat"] == pytest.approx(0.89, abs=1e-4)
        assert payload["sigma_hat"] == pytest.approx(0.01, abs=1e-4)

    @pytest.mark.parametrize(
        "bad_row",
        [(0.5, "nan", 5.0, 0.01), (0.5, "inf", 5.0, 0.01), (0.5, 0.4, 5.0, -0.01)],
        ids=["nan", "inf", "negative-uncert"],
    )
    def test_fit_rejected_input_is_2(self, tmp_path, capsys, bad_row):
        table = tmp_path / "dataset.csv"
        rows = [(0.1, 0.8, 1.3, 0.01), (0.3, 0.5, 2.5, 0.01), bad_row, (0.7, 0.3, 12.0, 0.01)]
        with open(table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epsilon", "var_minus", "var_plus", "uncert"])
            writer.writerows(rows)
        out = tmp_path / "run"
        assert cli.main(["fit", "--input", str(table), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"
        assert not (out / "fit.json").exists()


_EVERY_COMMAND = [
    ["steady-state"],
    ["integrate"],
    ["spectra"],
    ["sweep"],
    ["duan-simon"],
    ["lock-sim", "--set", "lock_sim.duration=0.1"],
    ["synth-epr", "--set", "synth_epr.duration=0.05"],
    ["calibrate", "--input", "{fringe}"],
    ["psd", "--input", "{trace}"],
    ["fit", "--input", "{dataset}", "--set", "fit_settings.n_bootstrap=0"],
    ["reproduce", "fig3", "--set", "lock_sim.duration=0.1"],
    ["reproduce", "fig4", "--set", "reproduce_fig4.duration=0.1", "--set", "reproduce_fig4.n_bootstrap=0"],
    ["reproduce", "fig5"],
]


class TestManifest:
    @pytest.mark.parametrize("args", _EVERY_COMMAND, ids=lambda args: " ".join(args))
    def test_outputs_are_the_files_written(self, tmp_path, args):
        theta = np.linspace(0.0, 2.0 * math.pi, 257)
        fringe = "".join(f"{k * 1e-3},{p},{math.sin(p)}\n" for k, p in enumerate(theta))
        tables = {
            "fringe": "t,phase,signal\n" + fringe,
            "trace": "t,value\n" + "".join(f"{k * 1e-3},{math.sin(0.3 * k)}\n" for k in range(256)),
            "dataset": "epsilon,var_minus,var_plus,uncert\n"
            "0.1,0.8,1.3,0.01\n0.3,0.5,2.5,0.01\n0.5,0.4,5.0,0.01\n0.7,0.3,12.0,0.01\n",
        }
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
        args = [a.format(**{k: str(tmp_path / f"{k}.csv") for k in tables}) for a in args]
        out = tmp_path / "run"
        assert cli.main(args + ["--out", str(out)]) == 0
        outputs = _read_json(out / "manifest.json")["outputs"]
        assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


class TestWrite:
    @pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193, 16383, 16384, 16385, 3 * 8192 + 5])
    def test_csv_bytes_match_csv_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        header = ["t", "special", "wide"]
        columns = [
            list(range(-3, rows - 3)),  # ints are written as floats
            np.resize([-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0], rows),
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
        ]
        path = tmp_path / "table.csv"
        cli._write(path, cli._encode(path.name, (header, columns)))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([repr(float(x)) for x in row])
        assert path.read_bytes() == reference.read_bytes()


class TestImport:
    @staticmethod
    def _printed(tmp_path, code):
        """Lines printed by ``code`` run in a fresh interpreter, with
        ``scipy()`` listing the scipy modules loaded and ``out`` a scratch path."""
        path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        code = (
            "import sys, eprlock.cli as cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "out = sys.argv[1]\n" + code
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, check=True
        )
        return proc.stdout.splitlines()

    def test_cli_imports_no_scipy(self, tmp_path):
        """The package loads no scipy: not on import, nor in a command. The
        import also leaves out concurrent.futures, which only reproduce fig4
        uses, and multiprocessing, which only the forked worker uses."""
        code = (
            "print(scipy(), 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
            "assert cli.main(['steady-state', '--out', out + '/s']) == 0\n"
            "assert cli.main(['lock-sim', '--set', 'lock_sim.duration=0.05', '--out', out + '/l']) == 0\n"
            "print(scipy())\n"
        )
        assert self._printed(tmp_path, code) == ["[] False False", "[]"]

    def test_fits_import_no_scipy(self, tmp_path):
        """The (eta, sigma_Theta) fit is solved in closed form and the optimal
        pump by golden section: neither reproduce fig4, fit nor
        optimal_epsilon loads scipy."""
        code = (
            "assert cli.main(['reproduce', 'fig4', '--set', 'reproduce_fig4.duration=0.1', '--out', out + '/f']) == 0\n"
            "print(scipy())\n"
            "assert cli.main(['fit', '--input', out + '/f/fig4_dataset.csv', '--out', out + '/t']) == 0\n"
            "print(scipy())\n"
            "cli.spectra.optimal_epsilon(0.89, 0.01)\n"
            "print(scipy())\n"
        )
        assert self._printed(tmp_path, code) == ["[]", "[]", "[]"]


class TestReproducibility:
    def test_identical_runs_produce_identical_artifacts(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--set", "synth_epr.duration=0.2"]
        assert cli.main(["synth-epr", "--out", str(out_a)] + args) == 0
        assert cli.main(["synth-epr", "--out", str(out_b)] + args) == 0
        for name in ("photocurrents.csv", "shot_reference.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # manifests agree except for the wall-clock timestamp
        ma, mb = _read_json(out_a / "manifest.json"), _read_json(out_b / "manifest.json")
        ma.pop("timestamp")
        mb.pop("timestamp")
        assert ma == mb


class TestForkedWorker:
    """lock-sim's idler arm and the second half of a large CSV run in a forked
    worker when two CPUs are usable, and inline otherwise."""

    @pytest.mark.parametrize(
        "args",
        [["lock-sim", "--set", "lock_sim.duration=0.2"], ["synth-epr", "--set", "synth_epr.duration=0.2"]],
        ids=lambda args: args[0],
    )
    def test_inline_and_forked_artifacts_are_identical(self, tmp_path, monkeypatch, args):
        outs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert cli.main(args + ["--out", str(outs[cpus])]) == 0
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == sorted(p.name for p in outs[2].iterdir())
        for name in names:
            if name != "manifest.json":
                assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_failing_idler_arm_keeps_the_exit_contract(self, tmp_path, capfd, monkeypatch, cpus):
        servo_loop = kernels.servo_loop

        def failing_idler(dist, dt, amp, kp, *rest):
            if kp == 0.0125:
                raise ValueError("idler servo rejected its input")
            return servo_loop(dist, dt, amp, kp, *rest)

        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(kernels, "servo_loop", failing_idler)
        out = tmp_path / "run"
        args = ["lock-sim", "--set", "lock_sim.duration=0.2", "--set", "lock_sim.loop_i.kp=0.0125"]
        assert cli.main(args + ["--out", str(out)]) == 2
        err = capfd.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0]) == {
            "error": "config",
            "type": "ValueError",
            "message": "idler servo rejected its input",
        }
        assert not out.exists()
        assert multiprocessing.active_children() == []


def _leaves(node, path=""):
    if not isinstance(node, dict):
        yield path
        return
    for key, sub in node.items():
        yield from _leaves(sub, f"{path}.{key}" if path else key)


_FAST_COMMANDS = [["steady-state"], ["integrate"], ["spectra"], ["sweep"], ["duan-simon"], ["reproduce", "fig5"]]
_VALUES = ["null", '"x"', "true", "[]", "{}", "-1", "-0.5", "0", "0.5", "2", "1000", "NaN"]
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_INPUT_COLUMNS = {
    "psd": ["t", "value"],
    "calibrate": ["t", "phase", "signal"],
    "fit": ["epsilon", "var_minus", "var_plus", "uncert"],
}
_CELLS = ["0", "0.01", "0.3", "0.9", "1", "-1", "20", "5e-324", "1e-300", "1e300", "-1e308", "1e308"]


class TestConfigContract:
    def test_default_config_has_70_leaves(self):
        assert len(list(_leaves(cli.DEFAULT_CONFIG))) == 70

    @settings(deadline=None, max_examples=120)
    @given(
        command=st.sampled_from(_FAST_COMMANDS),
        leaf=st.sampled_from(sorted(_leaves(cli.DEFAULT_CONFIG))),
        value=st.sampled_from(_VALUES),
    )
    def test_any_single_override_keeps_the_exit_contract(self, command, leaf, value):
        with tempfile.TemporaryDirectory() as tmp:
            _assert_exit_contract(command + ["--set", f"{leaf}={value}"], Path(tmp))

    @settings(deadline=None, max_examples=120)
    @given(command=st.sampled_from(sorted(_INPUT_COLUMNS)), data=st.data())
    def test_any_input_table_keeps_the_exit_contract(self, command, data):
        """The same contract for the --input commands, on tables drawn from a
        few values among zeros, subnormals and values near the float limits."""
        pool = data.draw(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=3))
        rows = []
        for k in range(data.draw(st.integers(1, 24))):
            row = []
            for name in _INPUT_COLUMNS[command]:
                # A valid time column and pump values let the values reach the numerics.
                choices = {"t": [f"{k * 1e-3}"], "epsilon": ["0", "0.1", "0.5", "0.9"]}.get(name, pool)
                row.append(data.draw(st.sampled_from(choices)))
            rows.append(",".join(row))
        with tempfile.TemporaryDirectory() as tmp:
            table = Path(tmp) / "table.csv"
            table.write_text("\n".join([",".join(_INPUT_COLUMNS[command]), *rows]) + "\n")
            args = [command, "--input", str(table), "--set", "fit_settings.n_bootstrap=10"]
            _assert_exit_contract(args, Path(tmp))


def _assert_exit_contract(args, tmp):
    """Exit 0/2/3/4 without raising or warning; an error is one JSON line and
    no output directory; a success writes no NaN or infinite value."""
    out = tmp / "run"
    with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(args + ["--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in ("config", "physics", "numerical")
        assert not out.exists()
    else:
        for artifact in out.iterdir():
            assert not _NON_FINITE.search(artifact.read_text()), artifact.name
