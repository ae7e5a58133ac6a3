"""Benchmark of hmimo's Monte-Carlo trials: set-up, trial cost and accuracy.

Run from the root of a checkout that holds ``src/hmimo``:

    python3 perfbench/run.py --workload ci-digital-cold --seed 1 \\
        --seconds 15 --trace 0

One run is one process on one BLAS thread.  It sets up (trains and loads
the surrogates, as ``hmimo train`` does), then runs a fixed number of
trials of the workload and checks every output.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` wraps hmimo's
public functions (see ``layers.py``) and prints the per-layer metrics
instead.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits 1 if a check fails and 2 if its inputs are missing.  Results,
the environment record, spans and exact-repeat records go to
``.perfbench_work/`` in the checkout.  A second run of the same hmimo
sources at a seed already run in the same checkout must reproduce that
run's accuracy figures and counts exactly, or it fails.
"""

import os

# one BLAS/OpenMP thread; these must be set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="target length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "commit": _git_commit(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _source_digest():
    """Digest of the hmimo sources, so records of other code never compare."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hmimo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _check_repeat(path, record):
    """Compare with the record of an earlier run at the same seed."""
    problems = []
    if path.is_file():
        old = json.loads(path.read_text())
        for part in ("accuracy", "counts"):
            common = set(old.get(part, {})) & set(record.get(part, {}))
            for key in sorted(common):
                if old[part][key] != record[part][key]:
                    problems.append(
                        f"exact repeat: {key} was {old[part][key]!r}, "
                        f"now {record[part][key]!r}")
        for part in ("accuracy", "counts"):
            record.setdefault(part, old.get(part, {}))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def _finite(values):
    """JSON has no NaN: write non-finite figures as null."""
    return {k: (v if math.isfinite(v) else None) for k, v in values.items()}


def measure(args, cfg, trials):
    import workloads

    tracer = None
    if args.trace:
        import layers
        import tracer as tr
        tracer = tr.Tracer()
        layers.install_all(tracer)

    t0 = time.perf_counter()
    nets, val_nmse_db = workloads.setup(cfg)
    setup_s = time.perf_counter() - t0
    setup_spans = tracer.take() if tracer else []

    t0 = time.perf_counter()
    out = workloads.run(args.workload, cfg, nets,
                        span=tracer.span if tracer else None)
    trial_s = (time.perf_counter() - t0) / trials
    trial_spans = tracer.take() if tracer else []

    found = {
        "trial_s": trial_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "train_val_nmse": 10 ** (val_nmse_db / 10),
    }
    record = {"accuracy": {**out.accuracy, "train_val_nmse_db": val_nmse_db}}
    if tracer:
        if args.workload != "paper-hybrid-warm":
            # run_point hides estimates and bounds; the wrappers see them
            bad_est, out.crlb_failed = layers.failed_outputs(trial_spans)
            out.est_failed += bad_est
            if bad_est or out.crlb_failed:
                out.problems.append(f"{bad_est} invalid estimates, "
                                    f"{out.crlb_failed} failed CRLBs")
        setup_times, setup_counts = layers.setup_metrics(setup_spans)
        per_trial, count_keys = layers.trial_metrics(trial_spans, trials)
        found.update(setup_times)
        found.update(setup_counts)
        found.update(per_trial)
        found["trace.trial_s"] = trial_s
        found["trace.overhead_frac"] = layers.overhead_frac(
            trial_spans, trial_s * trials)
        record["counts"] = {k: found[k] for k in
                            sorted(setup_counts) + count_keys}
        if abs(per_trial["trace.self_sum_s"] - trial_s) > 0.05 * trial_s:
            out.problems.append(
                f"self times add up to {per_trial['trace.self_sum_s']:.4f} s,"
                f" not the traced {trial_s:.4f} s per trial")
        spans_path = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"setup": setup_spans,
                                          "trials": trial_spans}))
    found.update({"estimator.nmse_h_db": out.accuracy["nmse_h_db"],
                  "estimator.nmse_p_db": out.accuracy["nmse_p_db"],
                  "train_val_nmse_db": val_nmse_db,
                  "estimator.failures": out.est_failed,
                  "crlb.failures": out.crlb_failed,
                  "fail_frac": out.failed / out.attempted})
    key = f"{args.workload}-seed{args.seed}-trials{trials}-{_source_digest()}"
    out.problems += _check_repeat(WORK / "repeat" / f"{key}.json", record)
    return out, found


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "hmimo" / "__init__.py").is_file():
        print(f"hmimo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hmimo
    if pathlib.Path(hmimo.__file__).resolve().parent != SRC / "hmimo":
        print(f"imported hmimo from {hmimo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    env = environment()
    trials = workloads.trial_count(args.workload, args.seconds)
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cfg = workloads.config(args.workload, args.seed, trials, tmp)
        out, found = measure(args, cfg, trials)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = float(found[m["name"]])
        if not math.isfinite(value):
            out.problems.append(f"metric {m['name']} is {value}")
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": not out.problems and out.failed == 0,
              "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}

    results_path = (WORK / "results"
                    / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(
        {"environment": env, "workload": args.workload, "seed": args.seed,
         "trials": trials, "trace": args.trace, "problems": out.problems,
         "accuracy": _finite(out.accuracy), "all_metrics": _finite(found),
         "result": result}, indent=1))

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {trials} trials, "
          f"trace {args.trace}")
    for key, value in (*out.accuracy.items(),
                       ("train_val_nmse_db", found["train_val_nmse_db"])):
        print(f"  {key:<34} {value: .6g} dB")
    print(f"  {'fail_frac':<34} {out.failed / out.attempted: .6g} "
          f"({out.failed} of {out.attempted} operations)")
    for name, m in metrics.items():
        print(f"  {name:<34} {found[name]: .6g} {m['unit']}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
