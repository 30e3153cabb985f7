"""Unified command-line entry point.

Every run reads a JSON configuration (built-in defaults, optionally merged
with a user file and ``--set`` dot-path overrides), executes one
subcommand, and writes its artifacts plus a manifest recording the config
hash, seed and tool version. Exit codes: 0 success, 2 config error (a
config that does not match the shape of DEFAULT_CONFIG, a value that the
settings of its block refuse, or an input that a library call rejects with
a plain ValueError; each simulated command checks its blocks before it
draws anything), 3 physics domain error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import itertools
import json
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, estimation, kernels, locksim, nopo, spectra
from .model import (
    ConfigError,
    NumericalError,
    PhysicsDomainError,
    complex_to_pair,
    config_from_dict,
    db,
    fork_join,
    sample_budget,
)

DEFAULT_CONFIG: dict = {
    "cavity": {"gamma_in": 2e6, "gamma_out": 12e6, "mu": 1e6, "delta": 0.0},
    "pump": {"epsilon": 0.8, "phi_p": 0.0},
    "seed": {"alpha_cl": 1.0, "seed_phase": 0.0},
    "detection": {"eta_s": 0.89, "eta_i": 0.89},
    "phase_noise": {"sigma_theta": 0.01},
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
    "fit_settings": {"mode": "small-angle"},
    "reproduce_fig4": {
        "epsilons": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "sigma_theta": 0.01,
        "theta_cutoff": 200.0,
        "duration": 10.0,
        "rate": 5e4,
        "band": [5e3, 1.5e4],
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


# Rows per kernels.format_csv_rows call: enough to amortize its ~100 array
# operations. Its working set is about 190 bytes a cell (int64 and float64
# temporaries, the 40-byte rows and templates, the mask and the bytes), 1.5 MB
# for a 4-column chunk, small next to the columns of a long record.
_CSV_CHUNK = 2048


def _chunk(columns, start: int, rows: int) -> list:
    """The cells of rows start to start + _CSV_CHUNK (at most ``rows``) of
    each column: a slice of an array, or what a derived column, a function of
    the row range (start, stop), forms for them."""
    stop = min(start + _CSV_CHUNK, rows)
    return [col(start, stop) if callable(col) else col[start:stop] for col in columns]


def _encode(name: str, content):
    """Refuse an artifact with a non-finite value; a JSON payload becomes its text.

    A dict is a JSON payload. A (header, columns) pair is a CSV table of at
    least one array column; it comes back as (header, columns, rows), its
    array columns as float arrays of one length, ``rows``. A derived column
    is formed here chunk by chunk for the check, and again when written.
    """
    if isinstance(content, dict):
        try:
            return json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NumericalError(f"{name} would hold a non-finite value") from exc
    header, columns = content
    columns = [col if callable(col) else np.asarray(col, dtype=float) for col in columns]
    arrays = [col for col in columns if not callable(col)]
    derived = [col for col in columns if callable(col)]
    if len({col.shape for col in arrays}) > 1:
        raise ValueError(f"{name} has columns of unequal length")
    rows = len(arrays[0])
    chunks = (cells for start in range(0, rows, _CSV_CHUNK) for cells in _chunk(derived, start, rows))
    if not all(np.isfinite(cells).all() for cells in itertools.chain(arrays, chunks)):
        raise NumericalError(f"{name} would hold a non-finite value")
    return header, columns, rows


def _write_rows(fh, columns, starts, rows) -> None:
    """Write the chunks of rows at ``starts``, each formatted by kernels.format_csv_rows."""
    for start in starts:
        fh.write(kernels.format_csv_rows(np.stack(_chunk(columns, start, rows), axis=1)))


def _write(path: Path, content) -> None:
    """Write an encoded artifact: JSON text, or CSV rows of repr(float) cells.

    A table of more than one chunk is split in two: this process writes the
    first half of the chunks while a forked worker (model.fork_join) writes
    the rest into an unnamed file beside it, whose bytes are then appended.
    """
    if isinstance(content, str):
        path.write_text(content)
        return
    header, columns, rows = content
    starts = range(0, rows, _CSV_CHUNK)
    half = len(starts) // 2
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if half == 0:
            _write_rows(fh, columns, starts, rows)
            return
        with tempfile.TemporaryFile(dir=path.parent) as tail:

            def write_tail():
                _write_rows(tail, columns, starts[half:], rows)
                tail.flush()  # the worker ends without flushing its buffers

            fork_join(write_tail, lambda: _write_rows(fh, columns, starts[:half], rows))
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


def _rms_about_lock_point(theta: np.ndarray) -> float:
    """sqrt(mean(theta^2)), squaring ``theta`` in place: the residual's RMS
    about theta = 0, where np.std would hide a loop that holds the wrong fringe."""
    return float(np.sqrt(np.mean(np.square(theta, out=theta))))


def _read_table(path: str | None) -> tuple[list[str], np.ndarray]:
    if path is None:
        raise ConfigError("this subcommand requires --input <csv file>")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]  # a blank line reads as []
    except OSError as exc:
        raise ConfigError(f"cannot read input {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"input {path} is empty")
    header = [c.strip() for c in rows[0]]
    try:
        values = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise ConfigError(f"non-numeric data in {path}: {exc}") from exc
    if not values:
        raise ConfigError(f"input {path} has no data rows")
    if len({len(row) for row in values}) > 1:
        k, row = next((k, row) for k, row in enumerate(values, 1) if len(row) != len(header))
        raise ConfigError(f"input {path}: data row {k} has {len(row)} values under {len(header)} column names")
    data = np.array(values)
    if data.shape[1] != len(header):
        raise ConfigError(f"input {path} has {data.shape[1]} values per row under {len(header)} column names")
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
    t_end, dt = block["t_end_over_gamma"] / gamma, block["dt_over_gamma"] / gamma
    traj = nopo.integrate_dynamics(sys_cfg.cavity, sys_cfg.pump, sys_cfg.seed, t_end=t_end, dt=dt)
    header = ["t", "alpha_s_re", "alpha_s_im", "alpha_i_re", "alpha_i_im"]
    columns = [traj.times, traj.alpha_s.real, traj.alpha_s.imag, traj.alpha_i.real, traj.alpha_i.imag]
    return {"trajectory.csv": (header, columns)}


def _squeezing_pair(sys_cfg, epsilon, omega):
    """(var_minus, var_plus) at pump ``epsilon`` and normalized frequency ``omega``
    under the configured detection: the one place the commands evaluate them."""
    return tuple(spectra.two_mode_variance(epsilon, sys_cfg.detection.eta, omega, sign) for sign in ("minus", "plus"))


def _spectra_table(sys_cfg, omega, f_hz=None):
    """Squeezing/anti-squeezing spectra on ``omega``, with an optional leading f_hz column."""
    vm, vp = _squeezing_pair(sys_cfg, sys_cfg.pump.epsilon, omega)
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
    sigma = sys_cfg.phase_noise.sigma_theta
    vm, vp = _squeezing_pair(sys_cfg, eps_grid, 0.0)
    pn_minus = spectra.phase_noise_variance(vm, vp, sigma)
    pn_plus = spectra.phase_noise_variance(vp, vm, sigma)
    return {"sweep.csv": (["epsilon", "var_minus_pn", "var_plus_pn"], [eps_grid, pn_minus, pn_plus])}


def _cmd_duan_simon(cfg, sys_cfg, input_path):
    vm, vp = _squeezing_pair(sys_cfg, sys_cfg.pump.epsilon, 0.0)
    vp_orth = spectra.orthogonal_variance(vp, vm, "plus")
    result = spectra.duan_simon(vm, vp_orth)
    sigma = sys_cfg.phase_noise.sigma_theta
    sum_pn = spectra.phase_noise_variance(vm, vp, sigma) + spectra.phase_noise_variance(vp_orth, vp, sigma)
    return {"duan_simon.json": {"sum": result.total, "entangled": result.entangled, "sum_with_phase_noise": sum_pn}}


def _cmd_lock_sim(cfg, sys_cfg, input_path):
    settings = locksim.LockSettings(**cfg["lock_sim"])
    fields = nopo.steady_state_linear_solve(sys_cfg.cavity, sys_cfg.pump, sys_cfg.seed)
    result = locksim.run_closed_loop(settings, fields)
    theta_s, theta_i = result.residual_theta_s, result.residual_theta_i
    summary = {
        "sigma_theta_rms": _rms_about_lock_point(result.common_mode()),
        "in_lock_fraction": result.in_lock_fraction,
        "saturation_count": result.saturation_count,
        "unstable": result.unstable,
    }
    # t and theta_common are derived a chunk at a time: only the residuals exist whole.
    columns = [theta_s.times, theta_s.samples, theta_i.samples, result.common_mode]
    return {"lock_traces.csv": (["t", "theta_s", "theta_i", "theta_common"], columns), "lock_summary.json": summary}


def _cmd_synth_epr(cfg, sys_cfg, input_path):
    settings = locksim.SynthSettings(**cfg["synth_epr"])
    rate, seed = settings.rate, cfg["run"]["rng_seed"]
    # One set, drawn as fig4's point 0 draws it, with its stream keys: q_s
    # ends in mix, q_i in minus, the shot record in plus.
    buffers = locksim.RecordBuffers.empty(settings.samples)
    theta = None
    if settings.sigma_theta > 0:
        sigma, cutoff = settings.sigma_theta, settings.theta_cutoff
        theta = locksim.synth_theta_process(sigma, cutoff, rate, (seed, locksim.THETA_STREAM, 0), buffers=buffers)
    detection, gamma = sys_cfg.detection, sys_cfg.cavity.gamma_total
    q_s, q_i = locksim.synth_epr_photocurrents(
        sys_cfg.pump.epsilon, detection.eta_s, detection.eta_i, gamma, theta, rate,
        (seed, locksim.PHOTOCURRENT_STREAM, 0), dark_noise=settings.dark_noise, buffers=buffers,
    )
    shot = locksim.shot_noise_reference(rate, (seed, locksim.SHOT_STREAM, 0), buffers=buffers)
    # The t columns are derived a chunk at a time.
    return {
        "photocurrents.csv": (["t", "q_s", "q_i"], [q_s.times, q_s.samples, q_i.samples]),
        "shot_reference.csv": (["t", "shot"], [shot.times, shot.samples]),
    }


def _cmd_calibrate(cfg, sys_cfg, input_path):
    header, data = _read_table(input_path)
    sig_col = header.index("signal") if "signal" in header else len(header) - 1
    t_col = header.index("t") if "t" in header else 0
    if sig_col == t_col:
        raise ConfigError("calibrate input needs a time column and a signal column")
    phase_span = None
    if "phase" in header:
        phase = data[:, header.index("phase")]
        phase_span = float(np.max(phase) - np.min(phase))
    scan = locksim.TimeSeries(sample_rate=_sample_rate(data[:, t_col]), samples=data[:, sig_col])
    s_pp, beta = locksim.calibrate_error_signal(scan, phase_span)
    return {"calibration.json": {"s_pp": s_pp, "beta": beta}}


def _cmd_psd(cfg, sys_cfg, input_path):
    header, data = _read_table(input_path)
    if data.shape[1] < 2:
        raise ConfigError("psd input needs a time column and a value column")
    series = locksim.TimeSeries(sample_rate=_sample_rate(data[:, 0]), samples=data[:, 1])
    psd = estimation.welch_psd(series)
    return {"psd.csv": (["f", "density"], [psd.frequencies, psd.densities])}


def _cmd_fit(cfg, sys_cfg, input_path):
    settings = estimation.FitSettings(**cfg["fit_settings"])
    header, data = _read_table(input_path)
    if data.shape[1] < 4:
        raise ConfigError("fit input needs columns epsilon,var_minus,var_plus,uncert")
    dataset = estimation.SqueezingDataset(points=tuple(map(tuple, data[:, :4])))
    result = estimation.fit_phase_noise_model(dataset, settings)
    return {"fit.json": asdict(result)}


def _cmd_reproduce_fig3(cfg, sys_cfg, input_path):
    settings = locksim.LockSettings(**cfg["lock_sim"])
    try:
        estimation.welch_frequencies(settings.samples, settings.rate)
    except ValueError as exc:
        raise ConfigError(f"lock_sim.duration = {settings.duration} s is too short for fig3's PSD: {exc}") from exc
    fields = nopo.steady_state_linear_solve(sys_cfg.cavity, sys_cfg.pump, sys_cfg.seed)
    result = locksim.run_closed_loop(settings, fields)
    common = locksim.TimeSeries(settings.rate, result.common_mode())
    s_pp, beta, psd = locksim.calibrated_theta_psd(common, abs(fields.a_cls))
    summary = {
        "s_pp": s_pp,
        "beta": beta,
        "sigma_theta": estimation.integrate_psd(psd, psd.frequencies[1], psd.frequencies[-1]),
        "sigma_theta_time_domain": _rms_about_lock_point(common.samples),
        "in_lock_fraction": result.in_lock_fraction,
    }
    return {
        "fig3_theta_psd.csv": (["f", "density"], [psd.frequencies, psd.densities]),
        "fig3_summary.json": summary,
    }


def _cmd_reproduce_fig4(cfg, sys_cfg, input_path):
    settings = locksim.Fig4Settings(
        **cfg["reproduce_fig4"], detection=sys_cfg.detection, gamma=sys_cfg.cavity.gamma_total
    )
    fit = estimation.FitSettings(**cfg["fit_settings"])
    dataset = locksim.fig4_dataset(settings, cfg["run"]["rng_seed"])
    result = estimation.fit_phase_noise_model(dataset, fit)
    payload = asdict(result)
    payload["injected_sigma_theta"] = settings.sigma_theta
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
            "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
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
    if cfg["run"]["rng_seed"] < 0:
        raise ConfigError(f"run.rng_seed = {cfg['run']['rng_seed']} is negative")
    sys_cfg = config_from_dict(cfg)
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
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, content in encoded.items():
            _write(outdir / name, content)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {outdir}: {exc}") from exc
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
