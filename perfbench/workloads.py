"""The benchmark's workloads: configuration, set-up and the timed trials.

Every workload is built from a ``harness`` profile.  Set-up is what
``hmimo train`` does with the ``ci`` training settings: train the exact and
closed-form surrogates, then load them.  The trials differ:

* ``ci-digital-cold``: ``harness.run_point`` on the ``ci`` profile, exactly
  what ``hmimo point --profile ci`` runs (grid-search init on every trial).
* ``paper-hybrid-warm``: ``paper`` geometry with P = 32 chains.  Trial draws
  go through the public functions ``run_trial`` uses; ``estimate_hybrid`` is
  then warm-started near the truth, so grid init does no work.

The trial seeds are ``run_point``'s: child ``i`` of
``SeedSequence(entropy=seed, spawn_key=(0,))``.
"""

import contextlib
import dataclasses

import numpy as np

from hmimo import crlb, estimator, green, harness, signals

# Seconds one trial took when this benchmark was added, on a 2-core Intel
# Xeon with one BLAS thread.  The trial count of a run is fixed from
# ``--seconds`` and these figures, not from the clock, so that every commit
# runs the same trials and the accuracy figures and counts repeat exactly
# at one seed.
NOMINAL_TRIAL_S = {
    "ci-digital-cold": 5.1,
    "paper-hybrid-warm": 13.2,
}
# A warm trial costs 10-16 s depending on when MP stops, so the warm mean
# needs more trials than --seconds alone would give to be steady from seed
# to seed.
MIN_TRIALS = {
    "ci-digital-cold": 2,
    "paper-hybrid-warm": 5,
}

# The floor the test suite's surrogate fixture asserts; the known-location
# column of a ci row must reach it.
KNOWN_LOCATION_FLOOR_DB = -40.0


@dataclasses.dataclass
class Outcome:
    """Operations attempted and failed, failed checks and accuracy figures.

    An operation is one (trial, estimator) pair or one CRLB.
    """

    attempted: int
    est_failed: int = 0
    crlb_failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    accuracy: dict = dataclasses.field(default_factory=dict)

    @property
    def failed(self):
        return self.est_failed + self.crlb_failed


def trial_count(name, seconds):
    return max(MIN_TRIALS[name], int(np.ceil(seconds / NOMINAL_TRIAL_S[name])))


def config(name, seed, trials, workdir):
    """Experiment config of a workload; weights go to ``workdir``."""
    common = {"seed": seed, "trials": trials, "threads": 1,
              "paths": {"weights": str(workdir / "weights.json"),
                        "weights_approx": str(workdir / "weights_approx.json")}}
    if name == "ci-digital-cold":
        return harness.load_config(profile="ci", overrides=common)
    if name == "paper-hybrid-warm":
        return harness.load_config(profile="paper", overrides={
            **common, "fixed": {"chains": 32}, "estimators": ["mp-hybrid"],
            "training": harness.PROFILES["ci"]["training"]})
    raise ValueError(f"unknown workload {name!r}")


def setup(cfg):
    """Train and load the surrogates; returns (nets, exact validation NMSE dB)."""
    trained = harness.train_surrogates(cfg)
    nets = harness.load_nets(cfg)
    return nets, trained["exact"][1]["val_nmse_db"]


def run(name, cfg, nets, span=None):
    """Run the workload's trials and check every output."""
    span = span or (lambda _name: contextlib.nullcontext())
    if name == "paper-hybrid-warm":
        return _run_warm(cfg, nets, span)
    return _run_point(cfg, nets)


def _db(values):
    return float(10 * np.log10(np.mean(values))) if values else float("nan")


def _run_point(cfg, nets):
    trials = cfg["trials"]
    names = cfg["estimators"]
    out = Outcome(attempted=trials * (len(names) + 1))
    try:
        rows = harness.run_point(cfg, nets, "snr", cfg["fixed"]["snr"], 0)
    except estimator.NumericalFailure as exc:
        out.est_failed = trials * len(names)
        out.crlb_failed = trials
        out.problems.append(f"run_point: {exc}")
        out.accuracy = dict.fromkeys(("nmse_h_db", "nmse_p_db", "crlb_db"),
                                     float("nan"))
        return out
    by_name = {row["estimator"]: row for row in rows}
    for name in names:
        row = by_name[name]
        out.est_failed += row["trials_failed"]
        if row["trials_ok"] + row["trials_failed"] != trials:
            out.problems.append(f"{name}: trials_ok + trials_failed != {trials}")
        if not np.isfinite(row["nmse_h_db"]):
            out.problems.append(f"{name}: non-finite NMSE_h")
        if name != "mp-hybrid":
            out.accuracy[f"{name}.nmse_h_db"] = row["nmse_h_db"]
    mp = by_name["mp-hybrid"]
    if not np.isfinite(mp["nmse_p_db"]):
        out.problems.append("mp-hybrid: non-finite NMSE_p")
    known = by_name["known-location"]["nmse_h_db"]
    if not known <= KNOWN_LOCATION_FLOOR_DB:
        out.problems.append(f"known-location NMSE_h {known:.2f} dB is above "
                            f"the {KNOWN_LOCATION_FLOOR_DB} dB floor")
    crlb_db = rows[0]["crlb_db"]
    if not np.isfinite(crlb_db):
        # the row averages the finite CRLBs, so NaN means all of them failed
        out.crlb_failed = trials
    out.accuracy.update({"nmse_h_db": mp["nmse_h_db"],
                         "nmse_p_db": mp["nmse_p_db"], "crlb_db": crlb_db})
    return out


def estimate_ok(res, geom):
    """An estimate is finite and its channel has the stacked (6N, M) shape."""
    return (res.h_hat.shape == (6 * geom.n_patches, geom.m_patches)
            and np.all(np.isfinite(res.h_hat))
            and np.all(np.isfinite(res.position))
            and np.all(np.isfinite(res.position_var)))


def crlb_ok(value):
    return bool(np.isfinite(value) and value > 0)


def _run_warm(cfg, nets, span):
    trials = cfg["trials"]
    out = Outcome(attempted=2 * trials)
    geom = harness.build_geometry(cfg)
    wave = green.WaveConfig(cfg["wave"]["frequency"])
    quad = green.QuadratureRule(cfg["quadrature_order"])
    prior = cfg["prior"]
    fixed = cfg["fixed"]
    net = nets["exact"]
    base = harness.estimator_config(cfg)
    # the spread of grid_search_init's own output variance
    lam = wave.wavelength
    start_sd = np.array([lam / 4, lam / 4, lam / 8])
    seqs = np.random.SeedSequence(entropy=cfg["seed"],
                                  spawn_key=(0,)).spawn(trials)
    nmse_h, nmse_p, bounds = [], [], []
    for seq in seqs:
        with span("bench.trial"):
            # children 0-3 are run_trial's draws; child 4 is the start offset
            seeds = seq.spawn(5)
            rng = np.random.default_rng(seeds[0])
            p1 = np.array([rng.uniform(*prior["x"]), rng.uniform(*prior["y"]),
                           rng.uniform(*prior["z"])])
            h_true = green.full_channel(geom, p1, wave, quad).stacked
            pilots = signals.gen_pilots(geom.n_patches, int(fixed["length"]),
                                        seed=seeds[1])
            f = signals.gen_combiner(int(fixed["chains"]), geom.m_patches,
                                     seed=seeds[3])
            y, gamma = signals.simulate_rx_hybrid(f, h_true, pilots,
                                                  float(fixed["snr"]),
                                                  seed=seeds[2])
            model = signals.unitary_transform(pilots.matrix, y)
            p0 = p1 + np.random.default_rng(seeds[4]).normal(scale=start_sd)
            ecfg = dataclasses.replace(base, init_position=tuple(p0))
            try:
                res = estimator.estimate_hybrid(model, f, net, geom, ecfg)
            except (estimator.NumericalFailure, np.linalg.LinAlgError) as exc:
                out.est_failed += 1
                out.problems.append(f"estimate_hybrid: {exc}")
            else:
                if estimate_ok(res, geom):
                    nmse_h.append(np.linalg.norm(res.h_hat - h_true) ** 2
                                  / np.linalg.norm(h_true) ** 2)
                    nmse_p.append(np.sum((res.position - p1) ** 2)
                                  / np.sum(p1 ** 2))
                else:
                    out.est_failed += 1
                    out.problems.append("estimate_hybrid: non-finite or "
                                        "mis-shaped estimate")
            try:
                value = crlb.crlb_position_normalized(
                    crlb.fim(p1, net, geom, pilots.matrix, gamma, wave), p1)
            except crlb.SingularInformationError as exc:
                out.crlb_failed += 1
                out.problems.append(f"crlb: {exc}")
            else:
                if crlb_ok(value):
                    bounds.append(value)
                else:
                    out.crlb_failed += 1
                    out.problems.append(f"crlb: invalid bound {value!r}")
    out.accuracy.update({"nmse_h_db": _db(nmse_h), "nmse_p_db": _db(nmse_p),
                         "crlb_db": _db(bounds)})
    return out
