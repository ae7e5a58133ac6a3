"""Traced run: which hmimo functions are wrapped, and the per-layer metrics.

Trial-phase figures are per trial; set-up figures are per set-up.  A
layer's ``.s`` is the inclusive time of its spans unless named otherwise;
the ``<module>.self.s`` figures are self times, which partition the traced
trial time across the modules.
"""

import tracemalloc

from hmimo.geometry import SurfaceGeometry

import tracer as tr
from workloads import crlb_ok, estimate_ok

ESTIMATES = ("estimator.estimate_full_digital", "estimator.estimate_hybrid")
MODULES = ("harness", "green", "surrogate", "estimator", "signals", "crlb")


def _geom(args):
    return next(a for a in args if isinstance(a, SurfaceGeometry))


def _quad_nodes(attrs, args, kwargs, out):
    quad = args[3] if len(args) > 3 else kwargs["quad"]
    attrs["rows"] = out.shape[0]
    attrs["nodes"] = out.shape[0] * quad.order ** 4


def _pairs(attrs, args, kwargs, out):
    geom = args[0] if args else kwargs["geom"]
    attrs["pairs"] = geom.n_patches * geom.m_patches


def _points(attrs, args, kwargs, out):
    attrs["points"] = (out[0] if isinstance(out, tuple) else out).shape[0]


def _estimate(attrs, args, kwargs, out):
    attrs["iters"] = out.iterations
    attrs["converged"] = out.converged
    attrs["bad"] = not estimate_ok(out, _geom(args))


def _bound(attrs, args, kwargs, out):
    attrs["bad"] = not crlb_ok(out)


def _epochs(attrs, args, kwargs, out):
    attrs["epochs"] = out[1]["epochs_run"]


def _trace_memory():
    tracemalloc.start()


def _peak(attrs, args, kwargs, out):
    attrs["peak_b"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()


# (defining module, function, span name, enter, observe)
TARGETS = [
    ("hmimo.harness", "run_point", "harness.run_point", None, None),
    ("hmimo.harness", "run_trial", "harness.run_trial", None, None),
    ("hmimo.surrogate", "generate_training_set",
     "surrogate.generate_training_set", _trace_memory, _peak),
    ("hmimo.surrogate", "train", "surrogate.train", None, _epochs),
    ("hmimo.surrogate", "channel_first_derivs",
     "surrogate.channel_first_derivs", None, _points),
    ("hmimo.surrogate", "hybrid_channel", "surrogate.hybrid_channel",
     None, _points),
    ("hmimo.green", "full_channel", "green.full_channel", None, _pairs),
    ("hmimo.green", "patch_channel_batch", "green.patch_channel_batch",
     None, _quad_nodes),
    ("hmimo.green", "approx_channel_batch", "green.approx_channel_batch",
     None, None),
    ("hmimo.estimator", "estimate_full_digital",
     "estimator.estimate_full_digital", None, _estimate),
    ("hmimo.estimator", "estimate_hybrid", "estimator.estimate_hybrid",
     None, _estimate),
    ("hmimo.estimator", "grid_search_init", "estimator.grid_search_init",
     None, None),
    ("hmimo.estimator", "ls_estimate", "estimator.ls_estimate", None, None),
    ("hmimo.estimator", "uamp_linear_step", "estimator.uamp_linear_step",
     None, None),
    ("hmimo.estimator", "taylor_linearize", "estimator.taylor_linearize",
     None, None),
    ("hmimo.estimator", "location_round", "estimator.location_round",
     None, None),
    ("hmimo.estimator", "channel_belief", "estimator.channel_belief",
     None, None),
    ("hmimo.crlb", "fim", "crlb.fim", None, None),
    ("hmimo.crlb", "crlb_position_normalized", "crlb.position_normalized",
     None, _bound),
] + [("hmimo.signals", fn, f"signals.{fn}", None, None)
     for fn in ("gen_pilots", "gen_combiner", "simulate_rx",
                "simulate_rx_hybrid", "unitary_transform", "combine_channel")]


def install_all(tracer):
    for module, attr, name, enter, observe in TARGETS:
        tr.install(tracer, module, attr, name, enter=enter, observe=observe)


def _module(name):
    return "harness" if name.startswith("bench.") else name.split(".")[0]


def setup_metrics(spans):
    def of(name):
        return [s for s in spans if s[0] == name]

    gen = of("surrogate.generate_training_set")
    train = of("surrogate.train")
    return {
        "surrogate.generate_training_set.s": sum(s[3] - s[2] for s in gen),
        "surrogate.generate_training_set.peak_mb":
            max(s[4]["peak_b"] for s in gen) / 2 ** 20,
        "surrogate.train.s": sum(s[3] - s[2] for s in train),
    }, {
        "surrogate.train.epochs": sum(s[4]["epochs"] for s in train),
        "green.training.quad_nodes": sum(
            s[4]["nodes"] for i, s in enumerate(spans)
            if s[0] == "green.patch_channel_batch"
            and tr.has_ancestor(spans, i, "surrogate.generate_training_set")),
    }


def trial_metrics(spans, trials):
    """Per-trial figures of the trial phase, and the names of the counts."""
    self_s = tr.self_times(spans)

    def idx(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def dur(ids):
        return sum(spans[i][3] - spans[i][2] for i in ids)

    def under(name, ancestor):
        return [i for i in idx(name) if tr.has_ancestor(spans, i, ancestor)]

    est = [i for name in ESTIMATES for i in idx(name)]
    done = [i for i in est if "raised" not in spans[i][4]]
    inner = [i for name in ("estimator.grid_search_init",
                            "estimator.ls_estimate")
             for i in idx(name)
             if any(tr.has_ancestor(spans, i, e) for e in ESTIMATES)]
    fc = idx("green.full_channel")
    fc_batches = under("green.patch_channel_batch", "green.full_channel")
    pairs = sum(spans[i][4]["pairs"] for i in fc)
    times = {
        "green.full_channel.s": dur(fc),
        "estimator.grid_search_init.s": dur(idx("estimator.grid_search_init")),
        "estimator.mp.s": dur(est) - dur(inner),
        "estimator.conditioning.s": sum(
            self_s[i] for i in idx("estimator.estimate_hybrid")),
        "crlb.fim.s": dur(idx("crlb.fim")),
        "estimator.ls_estimate.s": dur(idx("estimator.ls_estimate")),
    }
    for name in ("taylor_linearize", "location_round", "uamp_linear_step",
                 "channel_belief"):
        times[f"estimator.{name}.s"] = dur(idx(f"estimator.{name}"))
    for name in ("channel_first_derivs", "hybrid_channel"):
        times[f"surrogate.{name}.s"] = dur(idx(f"surrogate.{name}"))
    for module in MODULES:
        key = "signals.s" if module == "signals" else f"{module}.self.s"
        times[key] = sum(t for s, t in zip(spans, self_s)
                         if _module(s[0]) == module)
    counts = {
        "green.full_channel.calls": len(fc),
        "green.full_channel.quad_nodes": sum(spans[i][4]["nodes"]
                                             for i in fc_batches),
        "estimator.grid_search_init.calls":
            len(idx("estimator.grid_search_init")),
        "estimator.grid_search_init.jacobian_calls": len(under(
            "surrogate.channel_first_derivs", "estimator.grid_search_init")),
        "estimator.grid_search_init.forward_calls": len(under(
            "surrogate.hybrid_channel", "estimator.grid_search_init")),
        "estimator.mp.iters": sum(spans[i][4]["iters"] for i in done),
        "crlb.fim.calls": len(idx("crlb.fim")),
    }
    for name in ("channel_first_derivs", "hybrid_channel"):
        ids = idx(f"surrogate.{name}")
        counts[f"surrogate.{name}.calls"] = len(ids)
        counts[f"surrogate.{name}.points"] = sum(spans[i][4]["points"]
                                                 for i in ids)
    per_trial = {k: v / trials for k, v in {**times, **counts}.items()}
    per_trial["green.full_channel.unique_frac"] = (
        sum(spans[i][4]["rows"] for i in fc_batches) / pairs
        if pairs else float("nan"))
    per_trial["estimator.mp.converged_frac"] = (
        sum(bool(spans[i][4]["converged"]) for i in done) / len(done)
        if done else float("nan"))
    per_trial["trace.self_sum_s"] = sum(self_s) / trials
    return per_trial, sorted(counts) + ["green.full_channel.unique_frac",
                                        "estimator.mp.converged_frac"]


def failed_outputs(spans):
    """(bad estimates that did not raise, CRLBs that raised or were invalid)."""
    bad_est = sum(1 for s in spans if s[0] in ESTIMATES and s[4].get("bad"))
    bad_crlb = sum(1 for s in spans if s[0] == "crlb.position_normalized"
                   and (s[4].get("raised") or s[4].get("bad")))
    return bad_est, bad_crlb


def overhead_frac(spans, traced_s):
    """Estimated traced / untraced trial time - 1 from the wrapper cost."""
    cost = tr.wrapper_cost() * len(spans)
    return cost / max(traced_s - cost, 1e-12)
