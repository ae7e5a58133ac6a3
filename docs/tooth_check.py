"""Record or compare the location init's start p0 on the ci profile's draws.

The init (``estimator.grid_search_init``) picks one z-tooth of a comb one
wavelength apart; a change to it that is meant to move its output only at
round-off must keep the winning tooth of every draw.  This script runs the
full-digital estimator on the 60 draws of ``run_point`` on the ci profile
(seed 0, point seed 0: 20 trials each at 0, 8 and 20 dB), records the p0
that each init returns and the CPU time of each init, and, for the
message passing that follows, each draw's final p-hat, iteration count
and ``converged`` flag (null for a draw whose estimate raised), and
writes them to a JSON file:

    PYTHONPATH=src python docs/tooth_check.py p0_before.json
    PYTHONPATH=src python docs/tooth_check.py p0_after.json --weights w.json
    python docs/tooth_check.py --compare p0_before.json p0_after.json

With ``--chains P`` it runs the hybrid estimator (``estimate_hybrid``) on
the same draws instead, each behind its trial's P-chain combiner (child 3
of the trial's seed, as ``run_trial`` draws it).  Without ``--weights`` it
trains the ci profile's surrogate first (about 2 s) through
``harness.train_net``, as ``hmimo train`` does.  ``--compare`` prints
"same tooth k of 60, max |dp0| ... m" and exits 1 if any draw's p0 lies
on another tooth, that is, if its z moved by half a wavelength or more,
or if the draw counts differ.  When both files carry the init CPU times
(files written before they were recorded do not), it also prints each
file's median CPU seconds per init.  When both carry the final
estimates, it prints the largest |dp-hat| over the draws that both
finished, how many iteration counts agree, and each file's count of
converged draws; these do not change the exit code.
"""

import argparse
import json
import sys
import time

import numpy as np

SNRS = (0.0, 8.0, 20.0)


def _ci_net(cfg, weights):
    from hmimo.harness import train_net
    from hmimo.surrogate import HybridNet
    return HybridNet.load(weights) if weights is not None else train_net(cfg)[0]


def record(path, weights, chains=None):
    from hmimo import estimator
    from hmimo.green import QuadratureRule, WaveConfig, full_channel
    from hmimo.harness import (PROFILES, _draw_trial, build_geometry,
                               estimator_config)
    from hmimo.signals import combine_channel, simulate_rx, unitary_transform

    cfg = PROFILES["ci"]
    net = _ci_net(cfg, weights)
    geom, wave = build_geometry(cfg), WaveConfig(cfg["wave"]["frequency"])
    ecfg = estimator_config(cfg)
    init = estimator.grid_search_init
    starts, cpu, finals = [], [], []

    def recorded(*args, **kwargs):
        t0 = time.process_time()
        p0, var0 = init(*args, **kwargs)
        cpu.append(time.process_time() - t0)
        starts.append(p0.tolist())
        return p0, var0

    # the draws of run_point's first sweep point
    seqs = np.random.SeedSequence(entropy=cfg["seed"],
                                  spawn_key=(0,)).spawn(cfg["trials"])
    fixed = dict(cfg["fixed"], chains=chains) if chains else cfg["fixed"]
    estimator.grid_search_init = recorded
    try:
        for snr in SNRS:
            for seq in seqs:
                seeds, p1, pilots, f = _draw_trial(cfg, geom, fixed, seq)
                h = full_channel(geom, p1, wave,
                                 QuadratureRule(cfg["quadrature_order"])).stacked
                y, _ = simulate_rx(combine_channel(f, h), pilots, snr,
                                   seed=seeds[2])
                model = unitary_transform(pilots.matrix, y)
                try:
                    res = (estimator.estimate_full_digital(model, net, geom, ecfg)
                           if f is None else
                           estimator.estimate_hybrid(model, f, net, geom, ecfg))
                    finals.append({"p_hat": res.position.tolist(),
                                   "iterations": res.iterations,
                                   "converged": res.converged})
                except (estimator.NumericalFailure, np.linalg.LinAlgError):
                    finals.append(None)     # the init has run; its p0 is recorded
    finally:
        estimator.grid_search_init = init
    with open(path, "w") as fh:
        json.dump({"snr_db": SNRS, "trials": cfg["trials"], "chains": chains,
                   "wavelength_m": wave.wavelength, "p0": starts,
                   "cpu_s": cpu, "final": finals}, fh)
    print(f"{len(starts)} inits, CPU s per init: min {min(cpu):.3f}, "
          f"median {np.median(cpu):.3f}, max {max(cpu):.3f} -> {path}")


def compare(path_a, path_b) -> int:
    docs = []
    for path in (path_a, path_b):
        with open(path) as fh:
            docs.append(json.load(fh))
    a, b = (np.array(d["p0"]) for d in docs)
    if a.shape != b.shape:
        print(f"draw counts differ: {len(a)} and {len(b)}")
        return 1
    same = np.abs(a[:, 2] - b[:, 2]) < docs[0]["wavelength_m"] / 2
    print(f"same tooth {int(same.sum())} of {len(a)}, "
          f"max |dp0| {np.max(np.abs(a - b)):.3g} m")
    for i in np.flatnonzero(~same):
        print(f"  draw {i}: z {a[i, 2]:.6f} -> {b[i, 2]:.6f} m")
    if all("cpu_s" in d for d in docs):
        print("median CPU s per init: " + " -> ".join(
            f"{np.median(d['cpu_s']):.4f}" for d in docs))
    if all("final" in d for d in docs):
        fa, fb = (d["final"] for d in docs)
        both = [(x, y) for x, y in zip(fa, fb) if x and y]
        dp = max((np.max(np.abs(np.subtract(x["p_hat"], y["p_hat"])))
                  for x, y in both), default=float("nan"))
        agree = sum(x["iterations"] == y["iterations"] for x, y in both)
        print(f"max |dp_hat| {dp:.3g} m and iterations agree on {agree} of "
              f"{len(both)} draws that both finished; converged "
              + " -> ".join(str(sum(bool(x and x["converged"]) for x in f))
                            for f in (fa, fb)))
    return 0 if same.all() else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="JSON file to write the p0s to")
    ap.add_argument("--weights", help="surrogate weights file (default: train)")
    ap.add_argument("--chains", type=int, metavar="P",
                    help="run the hybrid receiver behind P-chain combiners")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two recorded files instead")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        ap.error("give an output file or --compare A B")
    record(args.out, args.weights, args.chains)
    return 0


if __name__ == "__main__":
    sys.exit(main())
