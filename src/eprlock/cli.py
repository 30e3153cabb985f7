"""Unified command-line entry point.

Every run reads a JSON configuration (built-in defaults, optionally merged
with a user file and ``--set`` dot-path overrides), executes one
subcommand, and writes its artifacts plus a manifest recording the config
hash, seed and tool version. Exit codes: 0 success, 2 config error (a
config that does not match the shape of DEFAULT_CONFIG, or a value or input
that a library call rejects with a plain ValueError), 3 physics domain
error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextvars
import copy
import csv
import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, estimation, locksim, nopo, spectra
from .model import (
    ConfigError,
    NumericalError,
    PhysicsDomainError,
    SystemConfig,
    complex_to_pair,
    config_from_dict,
    db,
    fork_join,
    sample_budget,
    usable_cpus,
    validate_frequency_plan,
)

DEFAULT_CONFIG: dict = {
    "frequency_plan": {"lambda_s": 1064e-9, "lambda_i": 852e-9, "lambda_p": 473e-9},
    "cavity": {"gamma_in": 2e6, "gamma_out": 12e6, "mu": 1e6, "delta": 0.0},
    "pump": {"epsilon": 0.8, "phi_p": 0.0},
    "seed": {"alpha_cl": 1.0, "seed_phase": 0.0},
    "detection": {"eta_s": 0.89, "eta_i": 0.89},
    "phase_noise": {"sigma_s": 0.01414213562373095, "sigma_i": 0.01414213562373095, "cov_si": 0.0},
    "run": {"rng_seed": 12345},
    "integrate": {"t_end_over_gamma": 20.0, "dt_over_gamma": 0.05},
    "spectra_scan": {"omega_norm_max": 5.0, "points": 201},
    "sweep_scan": {"epsilon_min": 0.0, "epsilon_max": 0.9, "points": 19},
    "lock_sim": {
        "duration": 2.0,
        "rate": 2e5,
        "loop_s": {
            "kp": 0.01,
            "ki": 5e3,
            "lpf_cutoff": 1e4,
            "actuator_range": 20.0,
            "actuator_resonance": 2e4,
            "actuator_q": 10.0,
        },
        "loop_i": {
            "kp": 0.01,
            "ki": 5e3,
            "lpf_cutoff": 1e4,
            "actuator_range": 20.0,
            "actuator_resonance": 2e4,
            "actuator_q": 10.0,
        },
        "disturbance_s": {
            "random_walk_diffusion": 1.5,
            "white_noise_density": 1e-9,
            "sinusoids": [[50.0, 0.05, 0.0], [120.0, 0.02, 1.0]],
            "ramp_rate": 0.0,
            "rng_seed": 101,
        },
        "disturbance_i": {
            "random_walk_diffusion": 1.5,
            "white_noise_density": 1e-9,
            "sinusoids": [[50.0, 0.04, 0.5]],
            "ramp_rate": 0.0,
            "rng_seed": 202,
        },
        "disturbance_pump": {
            "random_walk_diffusion": 0.5,
            "white_noise_density": 0.0,
            "sinusoids": [],
            "ramp_rate": 0.0,
            "rng_seed": 303,
        },
    },
    "synth_epr": {
        "duration": 5.0,
        "rate": 2e5,
        "sigma_theta": 0.0,
        "theta_cutoff": 200.0,
        "dark_noise": False,
    },
    "fit_settings": {"mode": "small-angle", "n_bootstrap": 200},
    "reproduce_fig4": {
        "epsilons": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "sigma_theta": 0.01,
        "theta_cutoff": 200.0,
        "duration": 5.0,
        "rate": 2e5,
        "band": [5e3, 1.5e4],
        "n_bootstrap": 50,
    },
    "reproduce_fig5": {"f_lo": 5e3, "f_hi": 1.7e4, "points": 121},
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_override(cfg: dict, expr: str) -> None:
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    path, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object value")
    node[keys[-1]] = value


def _check_shape(value, default, path: str = "") -> None:
    """Require ``value`` to have the JSON shape of ``default``.

    Objects have exactly the default's keys, list items follow the default's
    first item (the library checks items of an empty default list), a
    str/bool/int stays its type and a float may be any finite number; a bool
    never counts as a number. A mismatch is a ConfigError naming the path.
    """
    where = path or "config"
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        for key in {**default, **value}:
            name = f"{path}.{key}" if path else key
            if key not in default:
                raise ConfigError(f"unknown config key {name}")
            if key not in value:
                raise ConfigError(f"missing config key {name}")
            _check_shape(value[key], default[key], name)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        for k, item in enumerate(value if default else ()):
            _check_shape(item, default[0], f"{where}[{k}]")
    elif isinstance(default, (str, bool, int)):
        if type(value) is not type(default):
            raise ConfigError(f"{where} must be a {type(default).__name__}, got {value!r}")
    # abs(x) <= max is False for NaN, +-inf and ints too large for a float.
    elif isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def load_config(config_path: str | None, overrides: list[str]) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("top-level config must be a JSON object")
        cfg = _deep_merge(cfg, user)
    for expr in overrides:
        _apply_override(cfg, expr)
    _check_shape(cfg, DEFAULT_CONFIG)
    return cfg


def _system_config(cfg: dict) -> SystemConfig:
    sys_cfg = config_from_dict(cfg)
    ok, msg = validate_frequency_plan(sys_cfg.plan)
    if not ok:
        raise ConfigError(f"frequency plan violates energy conservation: {msg}")
    return sys_cfg


# Rows per write of a CSV artifact: large enough to amortize the join,
# small enough that the row strings stay a small part of peak memory.
_CSV_CHUNK = 8192


def _encode(name: str, content):
    """Refuse an artifact with a non-finite value; a JSON payload becomes its text.

    A dict is a JSON payload; a (header, columns) pair is a CSV table, whose
    columns come back as float arrays.
    """
    if isinstance(content, dict):
        try:
            return json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NumericalError(f"{name} would hold a non-finite value") from exc
    header, columns = content
    columns = [np.asarray(col, dtype=float) for col in columns]
    if not all(np.isfinite(col).all() for col in columns):
        raise NumericalError(f"{name} would hold a non-finite value")
    return header, columns


def _write_rows(fh, columns, starts) -> None:
    for start in starts:
        cells = [map(repr, col[start : start + _CSV_CHUNK].tolist()) for col in columns]
        fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _write(path: Path, content) -> None:
    """Write an encoded artifact: JSON text, or CSV rows of repr(float) cells.

    A table of more than one chunk is split in two: this process writes the
    first half of the chunks while a forked worker (model.fork_join) writes
    the rest into an unnamed file beside it, which is then appended.
    """
    if isinstance(content, str):
        path.write_text(content)
        return
    header, columns = content
    starts = range(0, min(map(len, columns)), _CSV_CHUNK)
    half = len(starts) // 2
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        if half == 0:
            _write_rows(fh, columns, starts)
            return
        with tempfile.TemporaryFile("w+", newline="", dir=path.parent) as tail:

            def write_tail():
                _write_rows(tail, columns, starts[half:])
                tail.flush()  # the worker ends without flushing its buffers

            fork_join(write_tail, lambda: _write_rows(fh, columns, starts[:half]))
            tail.seek(0)
            shutil.copyfileobj(tail, fh)


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _scan_points(cfg: dict, block: str) -> int:
    points = cfg[block]["points"]
    if points < 1:
        raise ConfigError(f"{block}.points must be at least 1, got {points}")
    return sample_budget(points, f"{block}.points")


def _sample_rate(t: np.ndarray) -> float:
    """Mean sample rate of a strictly increasing time column (1.0 for one row)."""
    if t.size < 2:
        return 1.0
    steps = np.diff(t)
    if not np.all(steps > 0):
        raise ConfigError("the time column must be strictly increasing")
    return 1.0 / float(np.mean(steps))


def _read_table(path: str | None) -> tuple[list[str], np.ndarray]:
    if path is None:
        raise ConfigError("this subcommand requires --input <csv file>")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"input {path} is empty")
    header = [c.strip() for c in rows[0]]
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"non-numeric data in {path}: {exc}") from exc
    if data.size == 0:
        raise ConfigError(f"input {path} has no data rows")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"input {path} holds a NaN or infinite value")
    return header, data


# --- subcommand handlers -------------------------------------------------
#
# Each handler maps (cfg, sys_cfg, input_path) to its artifacts, a dict
# {file name: content} in manifest order; ``_encode`` defines the contents.


def _cmd_steady_state(cfg, sys_cfg, input_path):
    state = nopo.steady_state_linear_solve(sys_cfg.cavity, sys_cfg.pump, sys_cfg.seed)
    payload = {
        "a_cls": complex_to_pair(state.a_cls),
        "a_cli": complex_to_pair(state.a_cli),
        "phi_cls": state.phi_cls,
        "phi_cli": state.phi_cli,
        "gain": nopo.parametric_gain(sys_cfg.pump.epsilon),
    }
    return {"steady_state.json": payload}


def _cmd_integrate(cfg, sys_cfg, input_path):
    gamma = sys_cfg.cavity.gamma_total
    block = cfg["integrate"]
    traj = nopo.integrate_dynamics(
        sys_cfg.cavity,
        sys_cfg.pump,
        sys_cfg.seed,
        t_end=block["t_end_over_gamma"] / gamma,
        dt=block["dt_over_gamma"] / gamma,
    )
    header = ["t", "alpha_s_re", "alpha_s_im", "alpha_i_re", "alpha_i_im"]
    columns = [traj.times, traj.alpha_s.real, traj.alpha_s.imag, traj.alpha_i.real, traj.alpha_i.imag]
    return {"trajectory.csv": (header, columns)}


def _spectra_table(sys_cfg, omega, f_hz=None):
    """Squeezing/anti-squeezing spectra on ``omega``, with an optional leading f_hz column."""
    eps = sys_cfg.pump.epsilon
    eta = sys_cfg.detection.eta
    vm = spectra.two_mode_variance(eps, eta, omega, "minus")
    vp = spectra.two_mode_variance(eps, eta, omega, "plus")
    header = ["omega_norm", "var_minus", "var_plus", "var_minus_db", "var_plus_db"]
    columns = [omega, vm, vp, db(vm), db(vp)]
    if f_hz is not None:
        header.insert(0, "f_hz")
        columns.insert(0, f_hz)
    return header, columns


def _cmd_spectra(cfg, sys_cfg, input_path):
    omega = np.linspace(0.0, cfg["spectra_scan"]["omega_norm_max"], _scan_points(cfg, "spectra_scan"))
    return {"spectra.csv": _spectra_table(sys_cfg, omega)}


def _cmd_sweep(cfg, sys_cfg, input_path):
    block = cfg["sweep_scan"]
    eps_grid = np.linspace(block["epsilon_min"], block["epsilon_max"], _scan_points(cfg, "sweep_scan"))
    eta = sys_cfg.detection.eta
    sigma = sys_cfg.phase_noise.sigma_theta
    vm = spectra.two_mode_variance(eps_grid, eta, 0.0, "minus")
    vp = spectra.two_mode_variance(eps_grid, eta, 0.0, "plus")
    pn_minus = spectra.phase_noise_variance(vm, vp, sigma)
    pn_plus = spectra.phase_noise_variance(vp, vm, sigma)
    return {"sweep.csv": (["epsilon", "var_minus_pn", "var_plus_pn"], [eps_grid, pn_minus, pn_plus])}


def _cmd_duan_simon(cfg, sys_cfg, input_path):
    eps = sys_cfg.pump.epsilon
    eta = sys_cfg.detection.eta
    vm = spectra.two_mode_variance(eps, eta, 0.0, "minus")
    vp = spectra.two_mode_variance(eps, eta, 0.0, "plus")
    vp_orth = spectra.orthogonal_variance(vp, vm, "plus")
    result = spectra.duan_simon(vm, vp_orth)
    sigma = sys_cfg.phase_noise.sigma_theta
    sum_pn = spectra.phase_noise_variance(vm, vp, sigma) + spectra.phase_noise_variance(
        vp_orth, vp, sigma
    )
    payload = {
        "sum": result.total,
        "entangled": result.entangled,
        "sum_with_phase_noise": sum_pn,
    }
    return {"duan_simon.json": payload}


def _run_lock(cfg, sys_cfg):
    block = cfg["lock_sim"]
    fields = nopo.steady_state_linear_solve(sys_cfg.cavity, sys_cfg.pump, sys_cfg.seed)
    return locksim.run_closed_loop(
        locksim.LoopConfig(**block["loop_s"]),
        locksim.LoopConfig(**block["loop_i"]),
        tuple(locksim.DisturbanceSpec(**block[f"disturbance_{arm}"]) for arm in ("s", "i", "pump")),
        fields,
        duration=block["duration"],
        rate=block["rate"],
    )


def _cmd_lock_sim(cfg, sys_cfg, input_path):
    result = _run_lock(cfg, sys_cfg)
    theta_s, theta_i = result.residual_theta_s, result.residual_theta_i
    common = result.common_mode_theta.samples
    summary = {
        "sigma_theta_rms": float(np.std(common)),
        "in_lock_fraction": result.in_lock_fraction,
        "saturation_count": int(result.saturation_events.size),
        "unstable": result.unstable,
    }
    return {
        "lock_traces.csv": (
            ["t", "theta_s", "theta_i", "theta_common"],
            [theta_s.times, theta_s.samples, theta_i.samples, common],
        ),
        "lock_summary.json": summary,
    }


def _cmd_synth_epr(cfg, sys_cfg, input_path):
    block = cfg["synth_epr"]
    seed = cfg["run"]["rng_seed"]
    theta = None
    if block["sigma_theta"] > 0:
        theta = locksim.synth_theta_process(
            block["sigma_theta"], block["theta_cutoff"], block["duration"], block["rate"], seed + 1
        )
    q_s, q_i = locksim.synth_epr_photocurrents(
        sys_cfg.pump.epsilon,
        sys_cfg.detection.eta_s,
        sys_cfg.detection.eta_i,
        sys_cfg.cavity.gamma_total,
        theta,
        block["duration"],
        block["rate"],
        seed,
        dark_noise=block["dark_noise"],
    )
    shot = locksim.shot_noise_reference(block["duration"], block["rate"], seed + 2)
    return {
        "photocurrents.csv": (["t", "q_s", "q_i"], [q_s.times, q_s.samples, q_i.samples]),
        "shot_reference.csv": (["t", "shot"], [shot.times, shot.samples]),
    }


def _cmd_calibrate(cfg, sys_cfg, input_path):
    header, data = _read_table(input_path)
    phase_span = None
    if "phase" in header:
        phase = data[:, header.index("phase")]
        phase_span = float(np.max(phase) - np.min(phase))
    sig_col = header.index("signal") if "signal" in header else len(header) - 1
    t_col = header.index("t") if "t" in header else 0
    rate = _sample_rate(data[:, t_col])
    scan = locksim.TimeSeries(sample_rate=rate, samples=data[:, sig_col], label="error signal")
    s_pp, beta = locksim.calibrate_error_signal(scan, phase_span)
    return {"calibration.json": {"s_pp": s_pp, "beta": beta}}


def _cmd_psd(cfg, sys_cfg, input_path):
    header, data = _read_table(input_path)
    if data.shape[1] < 2:
        raise ConfigError("psd input needs a time column and a value column")
    series = locksim.TimeSeries(sample_rate=_sample_rate(data[:, 0]), samples=data[:, 1], label="input")
    psd = estimation.welch_psd(series)
    return {"psd.csv": (["f", "density"], [psd.frequencies, psd.densities])}


def _cmd_fit(cfg, sys_cfg, input_path):
    header, data = _read_table(input_path)
    if data.shape[1] < 4:
        raise ConfigError("fit input needs columns epsilon,var_minus,var_plus,uncert")
    dataset = estimation.SqueezingDataset(points=tuple(map(tuple, data[:, :4])))
    settings = cfg["fit_settings"]
    result = estimation.fit_phase_noise_model(
        dataset,
        mode=settings["mode"],
        n_bootstrap=settings["n_bootstrap"],
        bootstrap_seed=cfg["run"]["rng_seed"],
    )
    return {"fit.json": asdict(result)}


def _cmd_reproduce_fig3(cfg, sys_cfg, input_path):
    result = _run_lock(cfg, sys_cfg)
    fields = nopo.steady_state_linear_solve(sys_cfg.cavity, sys_cfg.pump, sys_cfg.seed)
    common = result.common_mode_theta
    rate = common.sample_rate

    # Calibration chain: fringe scan -> beta -> calibrated common-mode trace.
    phase_scan = np.linspace(0.0, 2.0 * np.pi, 4096)
    amp = abs(fields.a_cls)
    fringe = locksim.TimeSeries(
        sample_rate=rate, samples=locksim.error_signal(phase_scan, 1.0, amp, 0.0, 1), label="scan"
    )
    s_pp, beta = locksim.calibrate_error_signal(fringe, float(phase_scan[-1] - phase_scan[0]))
    raw = locksim.TimeSeries(
        sample_rate=rate,
        samples=locksim.error_signal(common.samples, 1.0, amp, 0.0, 1),
        label="error signal",
    )
    theta_cal = estimation.apply_calibration(raw, beta)
    psd = estimation.welch_psd(theta_cal)
    sigma = estimation.integrate_psd(psd, psd.frequencies[1], psd.frequencies[-1])
    summary = {
        "s_pp": s_pp,
        "beta": beta,
        "sigma_theta": sigma,
        "sigma_theta_time_domain": float(np.std(common.samples)),
        "in_lock_fraction": result.in_lock_fraction,
    }
    return {
        "fig3_theta_psd.csv": (["f", "density"], [psd.frequencies, psd.densities]),
        "fig3_summary.json": summary,
    }


def _fig4_point(block, sys_cfg, seed, k, eps):
    """One pump point of fig4: (eps, var_minus, var_plus, relative uncertainty).

    Every record it draws dies inside it, and its seeds derive from the run
    seed and k alone, so points can run in any order or at once.
    """
    duration, rate = block["duration"], block["rate"]
    f_lo, f_hi = block["band"]
    g = sys_cfg.detection.idler_weight
    run_seed = seed + 1000 * (k + 1)
    q_s, q_i = locksim.synth_epr_photocurrents(
        eps,
        sys_cfg.detection.eta_s,
        sys_cfg.detection.eta_i,
        sys_cfg.cavity.gamma_total,
        locksim.synth_theta_process(block["sigma_theta"], block["theta_cutoff"], duration, rate, run_seed + 1),
        duration,
        rate,
        run_seed,
    )
    shot_power = locksim.band_power(locksim.shot_noise_reference(duration, rate, run_seed + 2), f_lo, f_hi)
    # The joint quadratures (q_s -+ g q_i)/sqrt(1 + g^2) see the loss
    # detection.eta exactly; q_i is weighted in place.
    q_s, q_i = q_s.samples, q_i.samples
    q_i *= g
    norm = math.hypot(1.0, g)
    vm = locksim.band_rms(locksim.TimeSeries(rate, (q_s - q_i) / norm), f_lo, f_hi, shot_power)
    vp = locksim.band_rms(locksim.TimeSeries(rate, (q_s + q_i) / norm), f_lo, f_hi, shot_power)
    # Relative band-power scatter of the Welch estimate: one over the
    # square root of (averaged segments x frequency bins in band).
    nperseg = estimation.default_segment_length(int(duration * rate))
    n_avg = max(1, 2 * int(duration * rate) // nperseg - 1)
    n_bins = max(1, int((f_hi - f_lo) * nperseg / rate))
    return eps, vm, vp, 1.0 / np.sqrt(n_avg * n_bins)


def _fig4_dataset(cfg, sys_cfg) -> estimation.SqueezingDataset:
    """fig4's points, computed on up to one thread per usable CPU.

    The points share no data and their time is spent in numpy calls that
    release the GIL. Results are taken in point order, so the dataset and
    the first failing point's exception are those of a serial loop.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: its import would cost every command

    block = cfg["reproduce_fig4"]
    seed = cfg["run"]["rng_seed"]
    epsilons = block["epsilons"]
    pool = ThreadPoolExecutor(max_workers=max(1, min(len(epsilons), usable_cpus())))
    try:
        # A worker thread starts from a fresh context; run() sets np.errstate in this one.
        futures = [
            pool.submit(contextvars.copy_context().run, _fig4_point, block, sys_cfg, seed, k, eps)
            for k, eps in enumerate(epsilons)
        ]
        points = [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    return estimation.SqueezingDataset(points=tuple(points))


def _cmd_reproduce_fig4(cfg, sys_cfg, input_path):
    block = cfg["reproduce_fig4"]
    dataset = _fig4_dataset(cfg, sys_cfg)
    result = estimation.fit_phase_noise_model(
        dataset,
        mode=cfg["fit_settings"]["mode"],
        n_bootstrap=block["n_bootstrap"],
        bootstrap_seed=cfg["run"]["rng_seed"],
    )
    payload = asdict(result)
    payload["injected_sigma_theta"] = block["sigma_theta"]
    payload["injected_eta"] = sys_cfg.detection.eta
    return {
        "fig4_dataset.csv": (["epsilon", "var_minus", "var_plus", "uncert"], list(zip(*dataset.points))),
        "fig4_fit.json": payload,
    }


def _cmd_reproduce_fig5(cfg, sys_cfg, input_path):
    block = cfg["reproduce_fig5"]
    f = np.linspace(block["f_lo"], block["f_hi"], _scan_points(cfg, "reproduce_fig5"))
    return {"fig5_spectra.csv": _spectra_table(sys_cfg, f / sys_cfg.cavity.gamma_total, f_hz=f)}


_REPRODUCE = {"fig3": _cmd_reproduce_fig3, "fig4": _cmd_reproduce_fig4, "fig5": _cmd_reproduce_fig5}

_COMMANDS = {
    "steady-state": _cmd_steady_state,
    "integrate": _cmd_integrate,
    "spectra": _cmd_spectra,
    "sweep": _cmd_sweep,
    "duan-simon": _cmd_duan_simon,
    "lock-sim": _cmd_lock_sim,
    "synth-epr": _cmd_synth_epr,
    "calibrate": _cmd_calibrate,
    "psd": _cmd_psd,
    "fit": _cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprlock",
        description="Simulation and analysis toolkit for a coherently phase-controlled "
        "two-color EPR source",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in [*_COMMANDS, "reproduce"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file merged over defaults")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dot-path config override, value parsed as JSON",
        )
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run.rng_seed")
        if name in ("calibrate", "psd", "fit"):
            p.add_argument("--input", default=None, help="input CSV file")
        if name == "reproduce":
            p.add_argument("target", choices=sorted(_REPRODUCE))
    return parser


# Overflow, invalid values and division by zero end as exit 4, not as stderr warnings.
@np.errstate(all="raise", under="ignore")
def run(argv: list[str] | None = None) -> int:
    """Compute the subcommand's artifacts, then write them and the manifest."""
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, args.overrides)
    if args.seed is not None:
        cfg["run"]["rng_seed"] = args.seed
    sys_cfg = _system_config(cfg)
    handler = _REPRODUCE[args.target] if args.subcommand == "reproduce" else _COMMANDS[args.subcommand]
    artifacts = handler(cfg, sys_cfg, getattr(args, "input", None))
    manifest = {
        "tool": "eprlock",
        "version": __version__,
        "subcommand": args.subcommand,
        "config_sha256": _config_hash(cfg),
        "seed": cfg["run"]["rng_seed"],
        "outputs": list(artifacts),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    artifacts["manifest.json"] = manifest
    encoded = {name: _encode(name, content) for name, content in artifacts.items()}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in encoded.items():
        _write(outdir / name, content)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except PhysicsDomainError as exc:
        _emit_error("physics", exc)
        return EXIT_PHYSICS
    except (NumericalError, FloatingPointError) as exc:
        _emit_error("numerical", exc)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # Any other value a library call rejects came from the config or input.
        _emit_error("config", exc)
        return EXIT_CONFIG


def _emit_error(kind: str, exc: Exception) -> None:
    json.dump({"error": kind, "type": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
