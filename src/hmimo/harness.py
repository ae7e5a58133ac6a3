"""Monte-Carlo experiment orchestration.

Runs sweeps over SNR, pilot length, receive-patch count or RF-chain count,
executes every configured estimator on identical channel/pilot/noise
realizations, and writes the metric table as CSV.  Configuration is a YAML
key tree; two built-in profiles ("ci" desk-scale and "paper" full-scale)
provide complete defaults that a user file can override.
"""

import copy
import csv
import math
import numbers
import time

import numpy as np

from hmimo.geometry import SurfaceGeometry
from hmimo.green import QuadratureRule, SingularityError, WaveConfig, full_channel
from hmimo.surrogate import (CoordinateBox, HybridNet, TrainConfig,
                             generate_training_set, min_training_samples,
                             stacked_channel, train)
from hmimo.signals import (PreprocessError, combine_channel, gen_combiner,
                           gen_pilots, noise_precision, simulate_rx,
                           unitary_transform)
from hmimo.estimator import (EstimatorConfig, NumericalFailure,
                             estimate_full_digital, estimate_hybrid,
                             unitary_ls_estimate)
from hmimo.crlb import SingularInformationError, crlb_position_normalized, fim

CSV_COLUMNS = ["sweep_var", "sweep_value", "estimator", "trials_ok",
               "trials_failed", "nmse_h_db", "nmse_h_stderr_db", "nmse_p_db",
               "nmse_p_stderr_db", "crlb_db", "wall_s"]

ESTIMATOR_NAMES = ("mp-hybrid", "mp-approx", "ls", "known-location")
# The surrogate each output row reads (the crlb row is always computed),
# and each surrogate's training target channel and `paths` key.
SURROGATE_OF = {"mp-hybrid": "exact", "mp-approx": "approx",
                "known-location": "exact", "crlb": "exact"}
SURROGATES = {"exact": ("quadrature", "weights"),
              "approx": ("approx", "weights_approx")}
SWEEP_VARIABLES = ("snr", "length", "patches", "chains")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


PROFILES = {
    "ci": {
        "geometry": {"rx_rows": 6, "rx_cols": 6, "tx_rows": 3, "tx_cols": 3,
                     "rx_dx": 0.05, "rx_dy": 0.05, "tx_dx": 0.01, "tx_dy": 0.01},
        "wave": {"frequency": 3.0e9},
        "prior": {"x": [-1.0, 1.0], "y": [-1.0, 1.0], "z": [20.0, 40.0]},
        "sweep": {"variable": "snr", "values": [0.0, 4.0, 8.0, 12.0]},
        "fixed": {"snr": 8.0, "length": 100, "chains": None},
        "trials": 20,
        "quadrature_order": 4,
        "estimators": ["mp-hybrid", "ls", "known-location"],
        "estimator": {"max_iters": 50, "tol": 1e-6, "grid_points": 9},
        "training": {"samples": 20000, "hidden_count": 50, "epochs": 150,
                     "seed": 3, "sample_seed": 11},
        "seed": 0,
        "record_timing": True,
        "paths": {"weights": "weights.json",
                  "weights_approx": "weights_approx.json",
                  "out": "sweep.csv"},
    },
}
# the paper profile is the ci profile at full scale
PROFILES["paper"] = _deep_merge(PROFILES["ci"], {
    "geometry": {"rx_rows": 10, "rx_cols": 10, "tx_rows": 5, "tx_cols": 5},
    "sweep": {"values": [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]},
    "trials": 100,
    "estimators": ["mp-hybrid", "mp-approx", "ls", "known-location"],
    "training": {"samples": 50000, "epochs": 300},
})


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def load_config(path=None, profile="ci", overrides=None) -> dict:
    """Assemble the experiment config from a profile plus optional YAML file."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cfg = copy.deepcopy(PROFILES[profile])
    if path is not None:
        import yaml                       # only a config file needs PyYAML
        try:
            with open(path) as fh:
                user = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if user is None:
            user = {}
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must be a mapping")
        cfg = _deep_merge(cfg, user)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    validate_config(cfg)
    return cfg


# Keys the program reads beyond those every profile sets: ``fixed.patches``
# (a fixed receive-patch count) and ``threads`` (a removed option, accepted
# at 1 only).  The values only give the keys' types: both are integers.
_OPTIONAL_KEYS = {"threads": 1, "fixed": {"patches": 16}}


def _unknown_keys(cfg: dict, schema: dict, prefix=""):
    for key, val in cfg.items():
        if key not in schema:
            yield f"{prefix}{key}"
        elif isinstance(schema[key], dict) and isinstance(val, dict):
            yield from _unknown_keys(val, schema[key], f"{prefix}{key}.")


def _is_number(value, integral=False, inf_ok=False) -> bool:
    """Not a bool, and a finite float once converted (+inf passes if
    ``inf_ok``); an integer too large for a float is not finite."""
    kind = numbers.Integral if integral else numbers.Real
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        value = float(value)
    except OverflowError:
        return False
    return math.isfinite(value) or (inf_ok and value == math.inf)


def _mistyped_keys(cfg: dict, schema: dict, prefix=""):
    """Keys holding a value of another kind than the schema's: a non-mapping
    for a mapping, a non-list for a list, a non-string for a string, a
    non-bool for a bool, a non-number, NaN or an infinity for a number (a
    non-integer for an integer); lists of numbers are checked per element."""
    for key, val in cfg.items():
        ref = schema.get(key)
        # an SNR of +inf is noiseless data; validate_config allows it in the
        # values of an snr sweep only
        inf_ok = f"{prefix}{key}" in ("fixed.snr", "sweep.values")
        if isinstance(ref, dict) and isinstance(val, dict):
            yield from _mistyped_keys(val, ref, f"{prefix}{key}.")
        elif isinstance(ref, dict):
            yield f"{prefix}{key} (a mapping, got {val!r})"
        elif isinstance(ref, list) and ref and _is_number(ref[0]):
            if not (isinstance(val, list)
                    and all(_is_number(v, inf_ok=inf_ok) for v in val)):
                yield f"{prefix}{key} (a list of finite numbers, got {val!r})"
        elif isinstance(ref, list) and not isinstance(val, list):
            yield f"{prefix}{key} (a list, got {val!r})"
        elif isinstance(ref, str) and not isinstance(val, str):
            yield f"{prefix}{key} (a string, got {val!r})"
        elif isinstance(ref, bool) and not isinstance(val, bool):
            yield f"{prefix}{key} (a bool, got {val!r})"
        elif _is_number(ref) and not _is_number(val, isinstance(ref, int), inf_ok):
            kind = "an integer" if isinstance(ref, int) else "a finite number"
            yield f"{prefix}{key} ({kind}, got {val!r})"


def _check_built(label: str, make, *args) -> None:
    """Run a constructor for its own range checks; a ValueError it raises
    is a ConfigError naming ``label``."""
    try:
        make(*args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def validate_config(cfg: dict) -> None:
    schema = _deep_merge(PROFILES["ci"], _OPTIONAL_KEYS)
    unknown = list(_unknown_keys(cfg, schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    mistyped = list(_mistyped_keys(cfg, schema))
    if mistyped:
        raise ConfigError(f"config values of the wrong type: {', '.join(mistyped)}")
    # a merge onto a profile only adds keys, and every section is a mapping
    var = cfg["sweep"]["variable"]
    values = cfg["sweep"]["values"]
    trials = cfg["trials"]
    prior = cfg["prior"]
    geom = cfg["geometry"]
    fixed_length = cfg["fixed"]["length"]
    if var not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep variable {var!r} not in {SWEEP_VARIABLES}")
    if not values:
        raise ConfigError("sweep grid is empty")
    if var != "snr" and np.inf in values:
        raise ConfigError(f"sweep values {values!r}: only snr values may be .inf")
    if var in ("length", "patches") and not all(
            isinstance(v, numbers.Integral) for v in values):
        raise ConfigError(f"sweep.values {values!r}: a {var} sweep takes integers")
    if cfg.get("threads", 1) != 1:
        raise ConfigError(f"threads {cfg['threads']!r}: the option was removed "
                          "and trials run one after another; only 1 is accepted")
    if trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    for axis in ("x", "y", "z"):
        if len(prior[axis]) != 2 or not prior[axis][0] < prior[axis][1]:
            raise ConfigError(f"degenerate prior range for {axis}: {prior[axis]!r}"
                              " (need two numbers [lo, hi] with lo < hi)")
    estimators = cfg["estimators"]
    for name in estimators:
        if name not in ESTIMATOR_NAMES:
            raise ConfigError(f"unknown estimator {name!r}")
    if not estimators:
        raise ConfigError("estimators is empty: a run needs at least one")
    repeated = sorted({name for name in estimators if estimators.count(name) > 1})
    if repeated:
        raise ConfigError(f"estimators lists {', '.join(repeated)} more than once")
    training = cfg["training"]
    for key, seed in (("seed", cfg["seed"]), ("training.seed", training["seed"]),
                      ("training.sample_seed", training["sample_seed"])):
        _check_built(key, np.random.SeedSequence, seed)
    _check_built("training", TrainConfig, training["hidden_count"],
                 training["epochs"], training["seed"])
    n_min = min_training_samples(training["hidden_count"])
    if training["samples"] < n_min:
        raise ConfigError(f"training.samples {training['samples']} is below the "
                          f"{n_min} that hidden_count={training['hidden_count']} "
                          "needs")
    # S is (3L, 6N), and the unitary preprocessing needs at least as many
    # rows as columns
    min_length = 2 * geom["tx_rows"] * geom["tx_cols"]
    lengths = [fixed_length] + (list(values) if var == "length" else [])
    for length in lengths:
        if length < min_length:
            raise ConfigError(f"pilot length {length!r} is below 2N = {min_length}"
                              " for the transmit geometry")
    fixed = cfg["fixed"]
    patch_counts = ([fixed["patches"]] if "patches" in fixed else []) + (
        list(values) if var == "patches" else [])
    for v in patch_counts:
        if not (v >= 0 and math.isqrt(v) ** 2 == v):
            raise ConfigError(f"patch count {v} is not a square")
    _check_built("wave", WaveConfig, cfg["wave"]["frequency"])
    _check_built("quadrature_order", QuadratureRule, cfg["quadrature_order"])
    for v in [None, *patch_counts]:
        _check_built("geometry", build_geometry, cfg, v)
    _check_built("estimator", estimator_config, cfg)
    # the combiner has P <= M rows, for every receive-patch count a run uses
    m_min = min(patch_counts, default=geom["rx_rows"] * geom["rx_cols"])
    chains = [fixed.get("chains")] + (list(values) if var == "chains" else [])
    for p in chains:
        if p is not None and not (_is_number(p, integral=True)
                                  and 1 <= p <= m_min):
            raise ConfigError(f"chains {p!r} must be an integer in 1..M = {m_min}"
                              " for the receive geometry")


def build_geometry(cfg: dict, patches=None) -> SurfaceGeometry:
    g = cfg["geometry"]
    rx_rows, rx_cols = g["rx_rows"], g["rx_cols"]
    if patches is not None:
        rx_rows = rx_cols = math.isqrt(patches)
    return SurfaceGeometry(rx_rows, rx_cols, g["tx_rows"], g["tx_cols"],
                           g["rx_dx"], g["rx_dy"], g["tx_dx"], g["tx_dy"])


def estimator_config(cfg: dict) -> EstimatorConfig:
    e = cfg["estimator"]
    prior = cfg["prior"]
    return EstimatorConfig(max_iters=e["max_iters"], tol=e["tol"],
                           grid_points=e["grid_points"],
                           prior_x=tuple(prior["x"]), prior_y=tuple(prior["y"]),
                           prior_z=tuple(prior["z"]))


# --- training entry point ---------------------------------------------------


def _surrogate_users(cfg: dict) -> dict:
    """Map each surrogate the run reads to the output rows that read it."""
    users = {}
    for name in (*cfg["estimators"], "crlb"):
        if name in SURROGATE_OF:
            users.setdefault(SURROGATE_OF[name], []).append(name)
    return users


def training_data(cfg: dict, target="quadrature"):
    """(inputs, targets) of the config's training set for the ``target``
    channel, "quadrature" (at the truth oracle's ``quadrature_order``) or
    "approx", over the box that its prior reaches."""
    t, prior = cfg["training"], cfg["prior"]
    geom = build_geometry(cfg)
    box = CoordinateBox.from_prior(geom, *(tuple(prior[a]) for a in "xyz"))
    return generate_training_set(box, geom, WaveConfig(cfg["wave"]["frequency"]),
                                 QuadratureRule(cfg["quadrature_order"]),
                                 t["samples"], seed=t["sample_seed"],
                                 channel=target)


def train_net(cfg: dict, target="quadrature"):
    """(net, report) of ``train`` on ``training_data(cfg, target)``, with the
    config's training settings."""
    t = cfg["training"]
    tc = TrainConfig(hidden_count=t["hidden_count"], epochs=t["epochs"],
                     seed=t["seed"])
    return train(*training_data(cfg, target), tc,
                 WaveConfig(cfg["wave"]["frequency"]).frequency)


def train_surrogates(cfg: dict, progress=None):
    """Train and save the surrogates the run reads: the exact-target net
    always (paths.weights), the closed-form-target net only when mp-approx
    is configured (paths.weights_approx).  Returns {kind: (net, report)}."""
    users = _surrogate_users(cfg)
    out = {}
    for kind, (target, path_key) in SURROGATES.items():
        if kind not in users:
            if progress is not None:
                progress(f"{kind} surrogate: skipped (no configured estimator uses it)")
            continue
        net, report = out[kind] = train_net(cfg, target)
        net.save(cfg["paths"][path_key])
        if progress is not None:
            progress(f"{kind} surrogate: validation NMSE "
                     f"{report['val_nmse_db']:.1f} dB -> "
                     f"{cfg['paths'][path_key]}")
    return out


# --- Monte-Carlo trials -----------------------------------------------------


def point_trials(cfg: dict, variable: str, value, point_seed: int):
    """A sweep point's (fixed, geom, seqs): the fixed settings at ``variable``
    = ``value``, their geometry (``fixed.patches`` honoured) and one
    SeedSequence per trial, spawned from (``cfg["seed"]``, ``point_seed``)."""
    fixed = {**cfg["fixed"], variable: value}
    seqs = np.random.SeedSequence(entropy=cfg["seed"],
                                  spawn_key=(point_seed,)).spawn(cfg["trials"])
    return fixed, build_geometry(cfg, patches=fixed.get("patches")), seqs


def _draw_trial(cfg: dict, geom: SurfaceGeometry, fixed: dict, seed_seq):
    """A trial's four child seeds, its true location p1 (child 0), its
    pilots (child 1) and its combiner (child 3; None without ``chains``);
    child 2 is for the noise.  They are a first ``spawn(4)``'s children,
    made without advancing ``seed_seq``, so one sequence draws one trial."""
    prior = cfg["prior"]
    seeds = [np.random.SeedSequence(seed_seq.entropy,
                                    spawn_key=seed_seq.spawn_key + (i,),
                                    pool_size=seed_seq.pool_size)
             for i in range(4)]
    rng = np.random.default_rng(seeds[0])
    p1 = np.array([rng.uniform(*prior["x"]), rng.uniform(*prior["y"]),
                   rng.uniform(*prior["z"])])
    pilots = gen_pilots(geom.n_patches, int(fixed["length"]), seed=seeds[1])
    chains = fixed.get("chains")
    f = None if chains is None else gen_combiner(int(chains), geom.m_patches,
                                                 seed=seeds[3])
    return seeds, p1, pilots, f


def run_trial(cfg, nets, fixed, geom, seed_seq):
    """One Monte-Carlo realization at a point's ``fixed`` settings and
    ``geom``.  Every estimator sees the identical (H, S, W) realization;
    each maps to nmse_h and nmse_p (None without a location), an mp one
    also to its estimate's position, iterations and converged.  The
    normalized CRLB at the realized position and precision is "crlb".
    A SingularityError or PreprocessError of the draw, the oracle, the
    simulation or the unitary preprocessing fails the trial for every
    estimator, with its error, and makes "crlb" NaN."""
    quad = QuadratureRule(cfg["quadrature_order"])
    try:
        seeds, p1, pilots, f = _draw_trial(cfg, geom, fixed, seed_seq)
        h_true = full_channel(geom, p1, WaveConfig(cfg["wave"]["frequency"]),
                              quad).stacked
        y, gamma = simulate_rx(combine_channel(f, h_true), pilots,
                               float(fixed["snr"]), seed=seeds[2])
        model = unitary_transform(pilots.matrix, y)
    except (SingularityError, PreprocessError) as exc:
        return {**{name: {"ok": False, "error": str(exc), "wall_s": 0.0}
                   for name in cfg["estimators"]}, "crlb": float("nan")}
    ecfg = estimator_config(cfg)

    ref_power = np.linalg.norm(h_true) ** 2
    p_power = float(np.sum(p1 ** 2))
    results = {}
    for name in cfg["estimators"]:
        t0 = time.perf_counter()
        try:
            if name in ("mp-hybrid", "mp-approx"):
                net = nets[SURROGATE_OF[name]]
                res = (estimate_full_digital(model, net, geom, ecfg) if f is None
                       else estimate_hybrid(model, f, net, geom, ecfg))
                nmse_h = np.linalg.norm(res.h_hat - h_true) ** 2 / ref_power
                # not the result itself: its h_hat would be held per trial
                row = {"nmse_p": float(np.sum((res.position - p1) ** 2)) / p_power,
                       "position": res.position.tolist(),
                       "iterations": res.iterations, "converged": res.converged}
            elif name == "ls":
                g_ls = unitary_ls_estimate(model)
                # minimum-norm completion through the combiner
                h_ls = g_ls if f is None else g_ls @ np.linalg.pinv(f.T)
                nmse_h = np.linalg.norm(h_ls - h_true) ** 2 / ref_power
                row = {"nmse_p": None}
            elif name == "known-location":
                h_model = stacked_channel(nets["exact"], geom, p1)
                nmse_h = np.linalg.norm(h_model - h_true) ** 2 / ref_power
                row = {"nmse_p": None}
            else:  # pragma: no cover - guarded by validate_config
                raise ConfigError(f"unknown estimator {name!r}")
            results[name] = {"ok": True, "nmse_h": float(nmse_h), **row,
                             "wall_s": time.perf_counter() - t0}
        except (NumericalFailure, np.linalg.LinAlgError) as exc:
            results[name] = {"ok": False, "error": str(exc),
                             "wall_s": time.perf_counter() - t0}

    results["crlb"] = _draw_bound(p1, nets["exact"], geom, pilots, gamma, f)
    return results


def _draw_bound(p1, net, geom, pilots, gamma, f) -> float:
    """Normalized CRLB of one trial draw; NaN where gamma is not finite
    (noiseless data) or the information matrix is singular."""
    if not np.isfinite(gamma):
        return float("nan")
    try:
        return crlb_position_normalized(
            fim(p1, net, geom, pilots.matrix, gamma, f=f), p1)
    except SingularInformationError:
        return float("nan")


def _bound_db(vals) -> float:
    """dB of the mean of the finite per-draw bounds; NaN if none is finite."""
    ok = [v for v in vals if np.isfinite(v)]
    return 10 * np.log10(np.mean(ok)) if ok else float("nan")


def _mean_stderr_db(values):
    """dB of the linear mean plus the delta-method stderr in dB."""
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    if mean <= 0 or values.size == 0:
        return -np.inf, 0.0
    if values.size == 1:
        return 10 * np.log10(mean), 0.0
    se = values.std(ddof=1) / np.sqrt(values.size)
    return 10 * np.log10(mean), 10 / np.log(10) * se / mean


def run_point(cfg, nets, variable, value, point_seed) -> list:
    """All trials of one sweep point; returns one CSV row dict per estimator."""
    trials = cfg["trials"]
    fixed, geom, seqs = point_trials(cfg, variable, value, point_seed)
    outcomes = [run_trial(cfg, nets, fixed, geom, seq) for seq in seqs]

    crlb_db = _bound_db([o["crlb"] for o in outcomes])
    rows = []
    for name in cfg["estimators"]:
        ok = [o[name] for o in outcomes if o[name]["ok"]]
        failed = trials - len(ok)
        if not ok:
            raise NumericalFailure(
                f"all {trials} trials failed for {name} at {variable}={value} "
                f"(first error: {outcomes[0][name]['error']})")
        nmse_h_db, nmse_h_se = _mean_stderr_db([o["nmse_h"] for o in ok])
        p_vals = [o["nmse_p"] for o in ok if o["nmse_p"] is not None]
        if p_vals:
            nmse_p_db, nmse_p_se = _mean_stderr_db(p_vals)
        else:
            nmse_p_db, nmse_p_se = float("nan"), float("nan")
        wall = sum(o[name]["wall_s"] for o in outcomes)
        rows.append({"sweep_var": variable, "sweep_value": value,
                     "estimator": name, "trials_ok": len(ok),
                     "trials_failed": failed, "nmse_h_db": nmse_h_db,
                     "nmse_h_stderr_db": nmse_h_se, "nmse_p_db": nmse_p_db,
                     "nmse_p_stderr_db": nmse_p_se, "crlb_db": crlb_db,
                     "wall_s": wall if cfg.get("record_timing", True) else 0.0})
    return rows


def sweep(cfg, nets, progress=None) -> list:
    """Run every sweep point; returns the list of CSV row dicts."""
    variable = cfg["sweep"]["variable"]
    rows = []
    for idx, value in enumerate(cfg["sweep"]["values"]):
        point_rows = run_point(cfg, nets, variable, value, idx)
        rows.extend(point_rows)
        if progress is not None:
            for row in point_rows:
                progress(f"{variable}={value} {row['estimator']}: "
                         f"NMSE_H {row['nmse_h_db']:.1f} dB "
                         f"(ok {row['trials_ok']}/{cfg['trials']})")
    return rows


def _format_cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_rows_csv(path, rows) -> None:
    """Write metric rows with the fixed column order and full precision."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])
    except OSError as exc:
        raise IOError(f"cannot write CSV {path}: {exc}") from exc


def load_nets(cfg) -> dict:
    """Load the surrogates the run reads, as train_surrogates writes them."""
    nets = {}
    frequency = float(cfg["wave"]["frequency"])
    for kind, users in _surrogate_users(cfg).items():
        path = cfg["paths"][SURROGATES[kind][1]]
        try:
            nets[kind] = HybridNet.load(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"cannot read {kind} surrogate weights {path}, needed by "
                f"{', '.join(users)}: {type(exc).__name__}: {exc} "
                "(run the train subcommand first)") from exc
        if not np.isclose(nets[kind].frequency, frequency, rtol=1e-9, atol=0.0):
            raise ConfigError(
                f"{kind} surrogate {path} was trained at "
                f"{nets[kind].frequency:.6g} Hz, but the config's wave is at "
                f"{frequency:.6g} Hz")
    return nets


def crlb_rows(cfg, net) -> list:
    """Normalized CRLB per sweep point, averaged over prior draws."""
    variable = cfg["sweep"]["variable"]
    rows = []
    for idx, value in enumerate(cfg["sweep"]["values"]):
        fixed, geom, seqs = point_trials(cfg, variable, value, idx)
        vals = []
        for seq in seqs:
            _, p1, pilots, f = _draw_trial(cfg, geom, fixed, seq)
            # gamma is referenced to the (combined) surrogate channel at p1
            h_model = stacked_channel(net, geom, p1, f=f)
            gamma = noise_precision(pilots.matrix @ h_model, float(fixed["snr"]))
            vals.append(_draw_bound(p1, net, geom, pilots, gamma, f))
        n_ok = int(np.sum(np.isfinite(vals)))
        rows.append({**dict.fromkeys(CSV_COLUMNS, float("nan")),
                     "sweep_var": variable, "sweep_value": value,
                     "estimator": "crlb", "trials_ok": n_ok,
                     "trials_failed": len(vals) - n_ok,
                     "crlb_db": _bound_db(vals), "wall_s": 0.0})
    return rows
