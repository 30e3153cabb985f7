"""End-to-end tests of the command-line interface: config handling, artifacts,
manifest bookkeeping, exit codes and reproducibility."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child_left
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprlock import cli, estimation, kernels, locksim, model
from eprlock.model import ConfigError


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]])


def _squeezing_table(path, rel_noise=0.0):
    """A fit table of the model at eta 0.89, sigma_Theta 0.01 on eight pump
    points, each variance times 1 + rel_noise * (a seeded normal draw)."""
    from eprlock import spectra

    noise = 1.0 + rel_noise * np.random.default_rng(3).standard_normal((8, 2))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "var_minus", "var_plus", "uncert"])
        for (n_minus, n_plus), eps in zip(noise, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)):
            vm = spectra.two_mode_variance(eps, 0.89, 0.0, "minus")
            vp = spectra.two_mode_variance(eps, 0.89, 0.0, "plus")
            pn_minus, pn_plus = spectra.phase_noise_variance(vm, vp, 0.01), spectra.phase_noise_variance(vp, vm, 0.01)
            writer.writerow((eps, pn_minus * n_minus, pn_plus * n_plus, 0.01))
    return path


@pytest.fixture(params=[1, 2, 4], ids=lambda workers: f"{workers}-workers")
def fig4_workers(request, monkeypatch):
    """fig4_dataset on 1, 2 or 4 worker threads (4 is more than a 2-core host
    has), with the interpreter switching threads every microsecond."""
    monkeypatch.setattr(locksim, "usable_cpus", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


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

        def overflowing_band_power(series, f_lo, f_hi, *, scratch=None):
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

    def test_first_failing_fig4_point_is_reported(self, tmp_path, capsys, fig4_workers):
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


_EXIT_2_CASES = [
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
    ["reproduce", "fig4", "--set", "reproduce_fig4.duration=0.05", "--set", "reproduce_fig4.band=[15000, 5000]"],
    ["fit", "--input", "{dataset}", "--set", "fit_settings.n_bootstrap=0"],
    ["reproduce", "fig4", "--set", "reproduce_fig4.n_bootstrap=50"],
    ["steady-state", "--set", "frequency_plan.lambda_p=500e-9"],
    ["psd", "--input", "{constant_t}"],
    ["calibrate", "--input", "{constant_t}"],
    ["psd", "--input", "{nan_value}"],
    ["calibrate", "--input", "{nan_value}"],
    ["integrate", "--set", "integrate.dt_over_gamma=0"],
    ["lock-sim", "--set", "lock_sim.disturbance_pump.sinusoids=[5]"],
    ["lock-sim", "--set", "lock_sim.disturbance_s.sinusoids=[[1.5e5, 0.01, 0.0]]"],
    ["reproduce", "fig3", "--set", "lock_sim.disturbance_pump.sinusoids=[[50, 0.01, 0], [-1e5, 0.01, 0]]"],
    ["steady-state", "--set", "phase_noise.sigma_s=0.01"],
    ["calibrate", "--input", "{t_only}"],
    ["calibrate", "--input", "{no_t}"],
    ["calibrate", "--input", "{narrow}"],
    ["steady-state", "--out", "{one_row}"],
    ["steady-state", "--out", "{one_row}/run"],
    ["synth-epr", "--set", "synth_epr.sigma_theta=-0.01"],
    ["reproduce", "fig4", "--set", "reproduce_fig4.sigma_theta=-0.01"],
    ["reproduce", "fig4", "--set", 'fit_settings.mode="bogus"'],
    ["reproduce", "fig4", "--set", "reproduce_fig4.epsilons=[0.1,0.2,0.3]"],
    ["reproduce", "fig4", "--set", "reproduce_fig4.band=[5000,5000.5]"],
    ["reproduce", "fig4", "--set", "reproduce_fig4.theta_cutoff=-1"],
    ["synth-epr", "--set", "synth_epr.theta_cutoff=0"],
    ["lock-sim", "--set", "lock_sim.disturbance_i.rng_seed=-1"],
    ["reproduce", "fig4", "--seed", "-1"],
    ["reproduce", "fig4", "--set", "run.rng_seed=-1"],
    ["reproduce", "fig3", "--set", "lock_sim.duration=2e-5"],
]

# The entry points of every simulated command: a config they are given has passed its checks.
_SIMULATION = [
    (locksim, "fig4_dataset"),
    (locksim, "run_closed_loop"),
    (locksim, "synth_epr_photocurrents"),
    (locksim, "synth_theta_process"),
    (estimation, "fit_phase_noise_model"),
]


class TestRejectedSettings:
    """Config values outside the defaults' shape, and inputs a library call
    rejects, end as a config error, not a traceback."""

    @pytest.mark.parametrize("args", _EXIT_2_CASES, ids=lambda args: " ".join(args))
    def test_exit_2_with_one_json_line(self, tmp_path, capsys, args):
        dataset = "epsilon,var_minus,var_plus,uncert\n0.1,0.8,1.3,0.01\n0.3,0.5,2.5,0.01\n0.5,0.4,5.0,0.01\n"
        tables = {
            "one_row": "t,value\n0.0,1.0\n",
            "two_rows": "t,value\n0.0,1.0\n0.1,2.0\n",
            "constant_t": "t,value\n0.0,1.0\n0.0,2.0\n0.0,3.0\n",
            "nan_value": "t,value\n" + "".join(f"{k},{'nan' if k == 5 else k % 3}\n" for k in range(2000)),
            "three_rows": dataset,
            "dataset": dataset + "0.7,0.3,12.0,0.01\n",
            "t_only": "t\n0\n1\n2\n",
            # "signal" would be read as its own time column.
            "no_t": "signal,phase\n" + "".join(f"{k / 100},{k / 10}\n" for k in range(70)),
            "narrow": "t,phase,signal\n0,1\n1,2\n2,3\n",
        }
        for name, text in tables.items():
            (tmp_path / f"{name}.csv").write_text(text)
        args = [a.format(**{k: str(tmp_path / f"{k}.csv") for k in tables}) for a in args]
        out = tmp_path / "run"
        # An --out that cannot be created or written is named in the error.
        named = args[args.index("--out") + 1] if "--out" in args else None
        assert cli.main(args if named else args + ["--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert named is None or named in err["message"]
        assert not out.exists()

    def test_a_short_record_names_its_length(self, tmp_path, capsys):
        """A record shorter than one Welch segment is refused with its length and the minimum."""
        table = tmp_path / "five_rows.csv"
        table.write_text("t,value\n" + "".join(f"{k},{k % 3}\n" for k in range(5)))
        cases = [
            (["reproduce", "fig3", "--set", "lock_sim.duration=2e-5"], ["lock_sim.duration", "of 4 samples"]),
            (["psd", "--input", str(table)], ["of 5 samples"]),
        ]
        for args, names in cases:
            assert cli.main([*args, "--out", str(tmp_path / "run")]) == 2
            message = json.loads(capsys.readouterr().err)["message"]
            for name in [*names, "shorter than one segment of 8"]:
                assert name in message, message

    @pytest.mark.parametrize(
        "args, name, line",
        [
            (["lock-sim"], "disturbance_s", [150000.0, 0.01, 0.0]),
            (["lock-sim"], "disturbance_i", [100000.0, 0.01, 0.0]),
            (["reproduce", "fig3"], "disturbance_pump", [-100000.0, 0.01, 0.0]),
        ],
    )
    def test_a_line_at_or_above_nyquist_names_its_disturbance(self, tmp_path, capsys, args, name, line):
        """lock_sim.rate is 2e5 Hz: a line at or above 1e5 Hz would alias, so the run exits 2."""
        override = f"lock_sim.{name}.sinusoids={json.dumps([line])}"
        assert cli.main([*args, "--set", override, "--out", str(tmp_path / "run")]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert f"{name} line {line}" in message and "Nyquist frequency 100000 Hz" in message, message
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "args", [args for args in _EXIT_2_CASES if "--set" in args], ids=lambda args: " ".join(args)
    )
    def test_no_refused_config_reaches_the_simulation(self, tmp_path, capsys, monkeypatch, args):
        """Each command checks its blocks before it draws a record or fits."""

        def reached(*_args, **_kwargs):
            pytest.fail("a refused config reached the simulation")

        for module, name in _SIMULATION:
            monkeypatch.setattr(module, name, reached)
        self.test_exit_2_with_one_json_line(tmp_path, capsys, args)


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

    def test_time_column_is_the_sample_index_times_the_step(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["integrate", "--out", str(out)]) == 0
        _, data = _read_csv(out / "trajectory.csv")
        cfg = cli.load_config(None, [])
        dt = cfg["integrate"]["dt_over_gamma"] / model.config_from_dict(cfg).cavity.gamma_total
        assert data[:, 0].tobytes() == (np.arange(len(data)) * dt).tobytes()


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

    # eta * eps is 0 or at least about 1e-9, and the sigma_Theta grid is
    # 1 mrad, so each step of the sum lies far above its rounding.
    @settings(max_examples=100, deadline=None)
    @given(
        eps=st.just(0.0) | st.floats(3.2e-5, 0.95),
        eta_s=st.just(0.0) | st.floats(3.2e-5, 1.0),
        eta_i=st.just(0.0) | st.floats(3.2e-5, 1.0),
        mrad=st.lists(st.integers(0, 500), min_size=2, max_size=6, unique=True),
    )
    def test_duan_simon_sum_rises_with_phase_noise(self, eps, eta_s, eta_i, mrad):
        """duan-simon's sum_with_phase_noise rises strictly with sigma_Theta
        in [0, 0.5] rad where eta * eps > 0, and stays put where it is 0."""
        sums = []
        for k in sorted(mrad):
            overrides = [
                f"pump.epsilon={eps!r}", f"detection.eta_s={eta_s!r}", f"detection.eta_i={eta_i!r}",
                f"phase_noise.sigma_theta={k / 1000.0!r}",
            ]
            cfg = cli.load_config(None, overrides)
            payload = cli._COMMANDS["duan-simon"](cfg, model.config_from_dict(cfg), None)["duan_simon.json"]
            sums.append(payload["sum_with_phase_noise"])
        if model.DetectionParams(eta_s, eta_i).eta * eps > 0:
            assert all(a < b for a, b in zip(sums, sums[1:])), sums
        else:
            assert sums == [sums[0]] * len(sums)

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
            args = ["--seed", str(seed), "--set", "reproduce_fig4.sigma_theta=0", "--set", "reproduce_fig4.duration=0.5"]
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
        # The RMS about the lock point, which differs from np.std by 2e-5 here.
        assert summary["sigma_theta_rms"] == pytest.approx(math.sqrt(np.mean(data[:, 3] ** 2)), rel=1e-12)

    @pytest.mark.parametrize("cpus, budget", [(2, 3.5), (1, 4.5)], ids=["forked", "inline"])
    def test_peak_holds_three_records_forked_and_four_inline(self, tmp_path, monkeypatch, cpus, budget):
        """numpy's traced peak of a 0.5 s lock-sim in this process, in
        100,000-sample records. Forked it is three: a disturbance record, its
        time grid and one line term while the signal arm draws, and as much
        while the CSV writer formats a chunk (about 1.5 MB) beside the signal
        residual. Inline, the idler arm draws while the signal residual is
        held, one more. The idler's residual lies in a shared map, which
        tracemalloc does not trace; t and theta_common exist only a chunk at
        a time."""
        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        assert cli.main(["lock-sim", "--set", "lock_sim.duration=0.01", "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert cli.main(["lock-sim", "--set", "lock_sim.duration=0.5", "--out", str(tmp_path / "run")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * 100_000) <= budget

    def test_a_loop_on_the_wrong_fringe_reads_its_offset(self, tmp_path):
        """A sign-inverted signal loop locks half a fringe away: the common
        mode sits near pi/2, which np.std would have hidden (it read 48 mrad)."""
        out = tmp_path / "run"
        inverted = ["--set", "lock_sim.loop_s.kp=-0.01", "--set", "lock_sim.loop_s.ki=-5e3"]
        assert cli.main(["lock-sim", "--out", str(out), "--set", "lock_sim.duration=0.5", *inverted]) == 0
        summary = _read_json(out / "lock_summary.json")
        assert summary["sigma_theta_rms"] == pytest.approx(math.pi / 2, rel=0.02)


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
    def test_dataset_is_the_points_in_order(self, seed, fig4_workers):
        """The thread pool returns what a serial loop over the points returns,
        each worker thread reusing its one set of record buffers."""
        epsilons = cli.DEFAULT_CONFIG["reproduce_fig4"]["epsilons"]
        settings = locksim.Fig4Settings(
            duration=0.2, rate=2e5, sigma_theta=0.01, theta_cutoff=200.0, epsilons=epsilons, band=(5e3, 1.5e4),
            detection=model.DetectionParams(0.95, 0.75), gamma=15e6,
        )
        buffers = locksim.RecordBuffers.empty(settings.samples)
        serial = [locksim.fig4_point(eps, settings, seed, k, buffers=buffers) for k, eps in enumerate(epsilons)]
        assert locksim.fig4_dataset(settings, seed).points == tuple(serial)


class TestRandomStreams:
    """Each fig4 and synth-epr draw takes the key (run seed, stream, index),
    so runs at different seeds share no draw, where integer seed offsets
    made runs 1000 apart share them."""

    def test_fig4_runs_a_thousand_apart_share_no_row(self, tmp_path):
        """The shifted pump list at seed 13345 wrote seven of its eight rows
        bit-identical to rows of seed 12345."""
        shifted = ["--set", "reproduce_fig4.epsilons=[0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.85]"]
        rows = []
        for seed, extra in (("12345", []), ("13345", shifted)):
            out = tmp_path / seed
            args = ["--seed", seed, "--set", "reproduce_fig4.duration=1.0", *extra, "--out", str(out)]
            assert cli.main(["reproduce", "fig4", *args]) == 0
            rows.append({tuple(row) for row in _read_csv(out / "fig4_dataset.csv")[1]})
        assert len(rows[0]) == len(rows[1]) == 8
        assert not rows[0] & rows[1]

    def test_synth_epr_differs_from_fig4_point_0_a_thousand_below(self, tmp_path, monkeypatch):
        """At equal record settings, synth-epr --seed S drew the theta,
        photocurrent and shot records of fig4's point 0 at S - 1000."""
        records = {"synth-epr": [], "fig4": []}
        command = "synth-epr"

        def spy(name):
            real = getattr(locksim, name)

            def draw(*args, **kwargs):
                result = real(*args, **kwargs)
                if name != "synth_epr_photocurrents" or args[0] == 0.8:  # the photocurrents of point 0 alone
                    for record in result if isinstance(result, tuple) else (result,):
                        records[command].append((name, record.samples.tobytes()))
                return result

            return draw

        for name in ("synth_theta_process", "synth_epr_photocurrents", "shot_noise_reference"):
            monkeypatch.setattr(locksim, name, spy(name))
        same = ["synth_epr.duration=0.2", "synth_epr.rate=5e4", "synth_epr.sigma_theta=0.01", "pump.epsilon=0.8"]
        same += ["reproduce_fig4.duration=0.2", "reproduce_fig4.rate=5e4", "reproduce_fig4.sigma_theta=0.01"]
        same += ["reproduce_fig4.epsilons=[0.8,0.1,0.3,0.5]"]
        settings = [f"--set={o}" for o in same]
        assert cli.main(["synth-epr", "--seed", "5000", *settings, "--out", str(tmp_path / "epr")]) == 0
        command = "fig4"
        assert cli.main(["reproduce", "fig4", "--seed", "4000", *settings, "--out", str(tmp_path / "f4")]) == 0
        # theta, q_s, q_i and shot; fig4's four theta and shot records and point 0's q_s and q_i.
        assert len(records["synth-epr"]) == 4 and len(records["fig4"]) == 10
        shared = set(records["synth-epr"]) & set(records["fig4"])
        assert not shared, sorted(name for name, _ in shared)


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
        table = _squeezing_table(tmp_path / "dataset.csv")
        out = tmp_path / "run"
        args = ["fit", "--input", str(table), "--out", str(out)]
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

    @staticmethod
    def _table_lines(command):
        """A header and data lines that ``command`` accepts."""
        if command == "psd":
            return ["t,value", *(f"{k * 1e-3},{math.sin(0.3 * k)}" for k in range(200))]
        if command == "calibrate":
            phases = np.linspace(0.0, 2.0 * math.pi, 200)
            return ["t,phase,signal", *(f"{k * 1e-3},{p},{0.7 * math.sin(p)}" for k, p in enumerate(phases))]
        rows = ("0.1,0.8,1.3,0.01", "0.3,0.5,2.5,0.01", "0.5,0.4,5.0,0.01", "0.7,0.3,12.0,0.01")
        return ["epsilon,var_minus,var_plus,uncert", *rows]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("command", ["psd", "calibrate", "fit"])
    def test_trailing_blank_line_changes_no_artifact(self, tmp_path, command, eol):
        text = eol.join(self._table_lines(command)) + eol
        artifacts = []
        for name, body in (("plain", text), ("blank", text + eol)):
            table = tmp_path / f"{name}.csv"
            table.write_bytes(body.encode())
            out = tmp_path / name
            assert cli.main([command, "--input", str(table), "--out", str(out)]) == 0
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert artifacts[0] and artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("command", ["psd", "calibrate", "fit"])
    def test_ragged_row_names_the_row(self, tmp_path, capsys, command):
        lines = self._table_lines(command)
        lines[3] += ",1.0"
        table = tmp_path / "table.csv"
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert cli.main([command, "--input", str(table), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        width = lines[0].count(",") + 1
        message = json.loads(err[0])["message"]
        assert f"data row 3 has {width + 1} values under {width} column names" in message
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, words",
        [
            ("t,value\n0,1\n1,x\n2,3\n", "non-numeric data in"),
            ("t,phase,signal\n0,1\n1,2\n2,3\n", "has 2 values per row under 3 column names"),
        ],
        ids=["non-numeric", "uniform-width"],
    )
    def test_table_messages(self, tmp_path, capsys, text, words):
        table = tmp_path / "table.csv"
        table.write_text(text)
        assert cli.main(["calibrate", "--input", str(table), "--out", str(tmp_path / "run")]) == 2
        assert words in json.loads(capsys.readouterr().err)["message"]


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
    ["fit", "--input", "{dataset}"],
    ["reproduce", "fig3", "--set", "lock_sim.duration=0.1"],
    ["reproduce", "fig4", "--set", "reproduce_fig4.duration=0.1"],
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


_WRITE_ROWS = [0, 1, 8191, 8192, 8193, 16383, 16384, 16385, 3 * 8192 + 5]


def _one_per_layout():
    """Cells that together fill every layout kernels.format_csv_rows has for repr's
    text: each decimal-point position of [1e-6, 1e16) and digit count 1-17, both
    signs, in the middle and at the end of a row (two columns)."""
    rng = random.Random(21)
    values = []
    for p in range(-5, 17):
        for n in range(1, 18):
            while True:
                x = float("".join(rng.choices("123456789", k=n)) + f"e{p - n}")
                digits = repr(x).split("e")[0].replace(".", "").strip("0")
                if len(digits) == n and math.frexp(x)[0] != 0.5:
                    break
            values += [x, x, -x, -x]
    return values


def _csv_reference(path, header, columns):
    """The table written with csv.writer and repr(float) cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(x)) for x in row])
    return path.read_bytes()


class TestWrite:
    @pytest.mark.parametrize(
        "rows, width",
        [
            pytest.param(rows, width, id=str(rows) if width == 3 else f"{width}cols-{rows}")
            for width in (1, 2, 3, 4, 5, 10)
            for rows in _WRITE_ROWS
        ],
    )
    def test_csv_bytes_match_csv_writer(self, tmp_path, rows, width):
        rng = np.random.default_rng(rows)
        header = ["t", "special", "wide", "unit", "tiny", "pow2", "pow10", "small", "big16", "grid"][:width]
        twos, tens = 2.0 ** np.arange(-40, 60), np.array([f"1e{k}" for k in range(-7, 17)], dtype=float)
        sign = np.resize([1.0, -1.0, -1.0], rows)
        columns = [
            list(range(-3, rows - 3)),  # ints are written as floats
            np.resize([-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0], rows),
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
            rng.uniform(-1.0, 1.0, rows),
            np.resize([1e-310, -2.5e-308, 123456789.0, 1.0 / 3.0, 1e16, -7.0], rows),
            # Powers of two and of ten, each with the doubles on either side.
            sign * np.resize(np.concatenate([twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf)]), rows),
            sign * np.resize(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]), rows),
            sign * rng.uniform(1e-6, 1e-4, rows),  # written as d.ddde-05 or e-06
            # 16-digit values whose digits, as an integer, reach past 2**53.
            sign * rng.integers(9_007_200_000_000_000, 10**16, rows) / 10.0 ** rng.integers(1, 22, rows),
            np.arange(rows) / 2e5,  # lock-sim's time grid
        ][:width]
        path = tmp_path / "table.csv"
        cli._write(path, cli._encode(path.name, (header, columns)))
        assert path.read_bytes() == _csv_reference(tmp_path / "reference.csv", header, columns)

    @settings(deadline=None, max_examples=400)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e16, 1e16), max_size=48),
        width=st.integers(1, 4),
    )
    @example(values=[5e-324, -2.2250738585072014e-308, 1e-300, -1e-7, 1e-6], width=1)  # |x| <= 1e-6
    @example(values=[1e16, -1.7976931348623157e308, 1e300, 123456789012345680.0], width=2)  # |x| >= 1e16
    @example(values=[0.5, -1.0, 2.0**-19, 1024.0, 2.0**52, -(2.0**53)], width=3)  # significand 1
    @example(values=[73267686754106.12, -891707755721283.2, 734465618292686.8], width=1)  # 16-digit tie
    @example(values=[1110518093783264.2, -2163026451812660.2], width=2)  # two 17-digit decimals tie
    @example(values=[999.9999999999999, 1000.0, 1.0000000000000002e-5, 9.999999999999999e-6], width=4)
    @example(values=[0.0, -0.0, 1.5e-5, -9.99e-5, 0.000125, 1e15 + 0.5, 9999999999999998.0, 1 / 3], width=4)
    @example(values=_one_per_layout(), width=2)
    def test_kernel_matches_repr_on_any_finite_doubles(self, values, width):
        """kernels.format_csv_rows writes each finite double as repr does, under
        the floating-point checks cli.run sets; the examples are the values it
        leaves to repr, the exact ties, log10 rounding across a power of ten
        (999.99..., 1000.0), zeros, e-notation, the 16-digit edge and every
        cell layout."""
        block = np.array(values[: len(values) // width * width], dtype=float).reshape(-1, width)
        expected = ("%r," * (width - 1) + "%r\r\n") * len(block) % tuple(block.ravel().tolist())
        with np.errstate(all="raise", under="ignore"):
            assert kernels.format_csv_rows(block) == expected.encode()

    @pytest.mark.parametrize(
        "lengths", [(3, 2), (2, 3), (4, 4, 0)], ids=["longer-first", "shorter-first", "empty-last"]
    )
    def test_columns_of_unequal_length_are_refused(self, lengths):
        columns = [np.zeros(n) for n in lengths]
        with pytest.raises(ValueError, match="unequal length"):
            cli._encode("table.csv", ([f"c{k}" for k in range(len(lengths))], columns))


# Row counts around the CSV chunk of 2048 rows: one chunk, its edges, and four chunks.
_DERIVED_ROWS = [1, 2047, 2048, 2049, 3 * 2048 + 1]


class TestDerivedColumns:
    """A table column may be a function of the row range, formed a chunk at a
    time: lock-sim's t and theta_common and synth-epr's t columns."""

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    @pytest.mark.parametrize("rows", _DERIVED_ROWS)
    def test_bytes_match_the_materialized_columns(self, tmp_path, monkeypatch, rows, cpus):
        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        rng = np.random.default_rng(rows)
        res_s, res_i = (locksim.TimeSeries(2e5, rng.standard_normal(rows) * 0.01) for _ in range(2))
        result = locksim.LockRunResult(res_s, res_i, 0, 1.0)
        header = ["t", "theta_s", "theta_i", "theta_common"]
        derived = [res_s.times, res_s.samples, res_i.samples, result.common_mode]
        materialized = [res_s.times(), res_s.samples, res_i.samples, result.common_mode()]
        for name, columns in (("derived.csv", derived), ("materialized.csv", materialized)):
            cli._write(tmp_path / name, cli._encode(name, (header, columns)))
        assert (tmp_path / "derived.csv").read_bytes() == (tmp_path / "materialized.csv").read_bytes()
        assert_no_child_left()

    # The commands draw at least two samples: 2 stands in for 1.
    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    @pytest.mark.parametrize("rows", [2, *_DERIVED_ROWS[1:]])
    @pytest.mark.parametrize("command", ["lock-sim", "synth-epr"])
    def test_commands_write_the_plain_expressions(self, tmp_path, monkeypatch, command, rows, cpus):
        """Every derived cell is that of np.arange(n) / rate or 0.5 * (theta_s
        + theta_i), written as csv.writer writes repr(float)."""
        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        block = "lock_sim" if command == "lock-sim" else "synth_epr"
        rate = cli.DEFAULT_CONFIG[block]["rate"]
        out = tmp_path / "run"
        assert cli.main([command, "--set", f"{block}.duration={rows / rate!r}", "--out", str(out)]) == 0
        t = np.arange(rows) / rate
        if command == "lock-sim":
            header, data = _read_csv(out / "lock_traces.csv")
            s, i = data[:, 1], data[:, 2]
            tables = {"lock_traces.csv": (header, [t, s, i, 0.5 * (s + i)])}
        else:
            tables = {}
            for name in ("photocurrents.csv", "shot_reference.csv"):
                header, data = _read_csv(out / name)
                tables[name] = (header, [t, *data[:, 1:].T])
        for name, (header, columns) in tables.items():
            assert len(columns[0]) == rows
            assert (out / name).read_bytes() == _csv_reference(tmp_path / "reference.csv", header, columns), name
        assert_no_child_left()

    @pytest.mark.parametrize("cell", ["time", "common", "inf"])
    def test_a_non_finite_derived_cell_is_4(self, tmp_path, capsys, monkeypatch, cell):
        """Only the last of four chunks holds the bad cell, and a JSON payload
        comes first: _encode forms every chunk before any file is written."""
        rows = 3 * 2048 + 1
        big = np.zeros(rows)
        big[-1] = 1e308
        # k / rate overflows from k = 6144 on.
        tiny = locksim.TimeSeries(6143.5 / sys.float_info.max, np.zeros(rows))
        result = locksim.LockRunResult(locksim.TimeSeries(1.0, big), locksim.TimeSeries(1.0, big), 0, 1.0)
        derived = {
            "time": tiny.times,
            "common": result.common_mode,
            "inf": lambda start, stop: np.where(np.arange(start, stop) == rows - 1, np.inf, 0.0),
        }[cell]

        def handler(cfg, sys_cfg, input_path):
            return {"first.json": {"rows": rows}, "table.csv": (["t", "x"], [derived, np.zeros(rows)])}

        monkeypatch.setitem(cli._COMMANDS, "steady-state", handler)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["steady-state", "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numerical"
        assert not out.exists()

    def test_psd_and_integrate_write_array_columns(self, tmp_path):
        """psd (on 5,000 rows) and integrate keep their materialized columns,
        written as csv.writer writes repr(float)."""
        table = tmp_path / "table.csv"
        rows = np.random.default_rng(5).standard_normal(5000).tolist()
        table.write_text("t,value\n" + "".join(f"{k / 1e3!r},{x!r}\n" for k, x in enumerate(rows)))
        cfg = cli.load_config(None, [])
        sys_cfg = model.config_from_dict(cfg)
        for command, handler, input_path in (("psd", cli._cmd_psd, str(table)), ("integrate", cli._cmd_integrate, None)):
            ((name, (header, columns)),) = handler(cfg, sys_cfg, input_path).items()
            assert all(isinstance(col, np.ndarray) for col in columns)
            args = [command, "--out", str(tmp_path / command)] + (["--input", input_path] if input_path else [])
            assert cli.main(args) == 0
            reference = _csv_reference(tmp_path / "reference.csv", header, columns)
            assert (tmp_path / command / name).read_bytes() == reference


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
        uses. No command loads multiprocessing: lock-sim and synth-epr,
        made to fork on any host, run their worker with a bare os.fork, two
        forks each (lock-sim's idler arm and CSV half, synth-epr's two CSV
        halves)."""
        code = (
            "print(scipy(), 'concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n"
            "import os, eprlock.model\n"
            "eprlock.model.usable_cpus = lambda: 2\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "assert cli.main(['steady-state', '--out', out + '/s']) == 0\n"
            "assert cli.main(['lock-sim', '--set', 'lock_sim.duration=0.05', '--out', out + '/l']) == 0\n"
            "assert cli.main(['synth-epr', '--set', 'synth_epr.duration=0.05', '--out', out + '/e']) == 0\n"
            "print(scipy(), 'multiprocessing' in sys.modules, len(forks))\n"
        )
        assert self._printed(tmp_path, code) == ["[] False False", "[] False 4"]

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

    def test_fit_does_not_depend_on_the_seed(self, tmp_path):
        """The fit draws nothing, so one table gives the same fit.json at any --seed."""
        table = _squeezing_table(tmp_path / "dataset.csv", rel_noise=0.01)
        written = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert cli.main(["fit", "--input", str(table), "--out", str(out), "--seed", seed]) == 0
            written.append((out / "fit.json").read_bytes())
        assert written[0] == written[1]


class TestForkedWorker:
    """lock-sim's idler arm and the second half of a large CSV run in a forked
    worker when two CPUs are usable, and inline otherwise."""

    @pytest.mark.parametrize(
        "args",
        [
            ["lock-sim", "--set", "lock_sim.duration=0.2"],
            ["synth-epr", "--set", "synth_epr.duration=0.2"],
            ["reproduce", "fig3", "--set", "lock_sim.duration=0.2"],
        ],
        ids=["lock-sim", "synth-epr", "fig3"],
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
        assert_no_child_left()

    @staticmethod
    def _assert_one_config_error(args, out, capfd, message):
        """Exit 2 with one JSON line on fd 2, no --out directory and no live worker."""
        assert cli.main(args + ["--out", str(out)]) == 2
        err = capfd.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0]) == {"error": "config", "type": "ValueError", "message": message}
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_failing_idler_arm_keeps_the_exit_contract(self, tmp_path, capfd, monkeypatch, cpus):
        servo_loop = kernels.servo_loop

        def failing_idler(dist, dt, amp, kp, *rest):
            if kp == 0.0125:
                raise ValueError("idler servo rejected its input")
            return servo_loop(dist, dt, amp, kp, *rest)

        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(kernels, "servo_loop", failing_idler)
        args = ["lock-sim", "--set", "lock_sim.duration=0.2", "--set", "lock_sim.loop_i.kp=0.0125"]
        self._assert_one_config_error(args, tmp_path / "run", capfd, "idler servo rejected its input")

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "inline"])
    def test_failing_worker_side_synthesis_keeps_the_exit_contract(self, tmp_path, capfd, monkeypatch, cpus):
        """The worker draws the idler and pump disturbances itself; a pump
        draw that fails there ends the run like a failure in this process."""
        synth_disturbance = locksim.synth_disturbance
        pump_seed = cli.DEFAULT_CONFIG["lock_sim"]["disturbance_pump"]["rng_seed"]

        def failing_pump(spec, duration, rate):
            if spec.rng_seed == pump_seed:
                raise ValueError("pump disturbance rejected its input")
            return synth_disturbance(spec, duration, rate)

        monkeypatch.setattr(model, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(locksim, "synth_disturbance", failing_pump)
        args = ["lock-sim", "--set", "lock_sim.duration=0.2"]
        self._assert_one_config_error(args, tmp_path / "run", capfd, "pump disturbance rejected its input")


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
# The commands that read each simulated block.
_BLOCK_COMMANDS = {
    "reproduce_fig4": [["reproduce", "fig4"]],
    "fit_settings": [["fit", "--input", "{dataset}"]],
    "lock_sim": [["lock-sim"], ["reproduce", "fig3"]],
    "synth_epr": [["synth-epr"]],
}


# The blocks only the simulated commands read, and run.rng_seed, which only they use.
_SIMULATED_BLOCKS = {*_BLOCK_COMMANDS, "run"}


def _artifacts(args, out):
    """The artifacts, but the manifest, that ``args`` writes into ``out``, by
    name; None if it does not exit 0."""
    with contextlib.redirect_stderr(io.StringIO()):
        if cli.main(args + ["--out", str(out)]):
            return None
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


class _Reached(Exception):
    """Raised in place of a simulation entry point, with its name and arguments."""


def _reach(name):
    def stub(*args, **kwargs):
        raise _Reached(name, args, kwargs)

    return stub


def _given(name, args, kwargs) -> dict:
    """The config values an entry point was given, by the key of their block;
    a record draw's ``samples`` is the length of the set it draws into."""
    if name == "synth_theta_process":
        return {**dict(zip(["sigma_theta", "theta_cutoff", "rate"], args)), "samples": kwargs["buffers"].minus.size}
    if name == "synth_epr_photocurrents":
        return {"rate": args[5], "samples": kwargs["buffers"].minus.size, "dark_noise": kwargs["dark_noise"]}
    return dataclasses.asdict(args[1] if name == "fit_phase_noise_model" else args[0])


def _as_json(value):
    """``value`` with its tuples as lists, as JSON holds them."""
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_as_json(v) for v in value]
    return value


class TestConfigContract:
    def test_default_config_has_63_leaves(self):
        assert len(list(_leaves(cli.DEFAULT_CONFIG))) == 63

    def test_every_leaf_a_fast_command_may_read_reaches_an_artifact(self, tmp_path):
        """Raising any leaf outside the simulated blocks by 1% (a zero to 0.013)
        changes the artifacts of at least one fast command that still exits 0:
        no such key is read by nothing."""
        base = [_artifacts(command, tmp_path / f"base{k}") for k, command in enumerate(_FAST_COMMANDS)]
        unread = []
        for leaf in _leaves(cli.DEFAULT_CONFIG):
            if leaf.split(".")[0] in _SIMULATED_BLOCKS:
                continue
            value = cli.DEFAULT_CONFIG
            for key in leaf.split("."):
                value = value[key]
            value = math.ceil(1.01 * value) if isinstance(value, int) else 1.01 * value or 0.013
            override = ["--set", f"{leaf}={json.dumps(value)}"]
            changed = (
                _artifacts(command + override, tmp_path / leaf / str(k)) not in (None, before)
                for k, (command, before) in enumerate(zip(_FAST_COMMANDS, base))
            )
            if not any(changed):
                unread.append(leaf)
        assert unread == []

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
            args = [command, "--input", str(table)]
            _assert_exit_contract(args, Path(tmp))

    @settings(deadline=None, max_examples=100)
    @given(block=st.sampled_from(sorted(_BLOCK_COMMANDS)), data=st.data())
    def test_a_simulated_block_is_checked_before_the_simulation(self, block, data):
        """The same contract for the slow commands, with their simulation and
        fit stubbed out: one override of a block they read either exits 2 or
        3 before the stub, or reaches it with the config's values."""
        leaf = data.draw(st.sampled_from(sorted(_leaves(cli.DEFAULT_CONFIG[block], block))))
        override = f"{leaf}={data.draw(st.sampled_from(_VALUES))}"
        command = data.draw(st.sampled_from(_BLOCK_COMMANDS[block]))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            table = Path(tmp) / "dataset.csv"
            rows = "".join(f"0.{k},0.5,2.5,0.01\n" for k in (1, 3, 5, 7))
            table.write_text("epsilon,var_minus,var_plus,uncert\n" + rows)
            for module, name in _SIMULATION:
                patch.setattr(module, name, _reach(name))
            args = [a.format(dataset=table) for a in command] + ["--set", override]
            try:
                assert _assert_exit_contract(args, Path(tmp)) in (2, 3)
            except _Reached as reached:
                given_values = _given(*reached.args)
                expected = cli.load_config(None, [override])[block]
                if "samples" in given_values:
                    expected["samples"] = round(expected["duration"] * expected["rate"])
                keys = given_values.keys() & expected.keys()
                assert keys
                assert {k: _as_json(given_values[k]) for k in keys} == {k: expected[k] for k in keys}


def _assert_exit_contract(args, tmp):
    """Exit 0/2/3/4 without raising or warning; an error is one JSON line and
    no output directory; a success writes no NaN or infinite value. Returns the exit code."""
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
    return code
