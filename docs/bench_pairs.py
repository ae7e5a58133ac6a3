"""Run the benchmark in two checkouts as alternating pairs and compare them.

    python docs/bench_pairs.py BASE NEW --workload paper-hybrid-warm \\
        --seeds 21-30

BASE and NEW are the roots of two checkouts, each with its own
``perfbench/run.py``.  For every seed, one pair of runs of
``perfbench/run.py --trace 0`` is made, one in each checkout, and which
side runs first alternates from pair to pair.  For each end-to-end metric
it prints both sides' median, quartiles, minimum and maximum, whether
every NEW run beats every BASE run (``beats_every``, so that a metric as
steady as a peak RSS reads at a glance), how many pairs NEW is lower in
and how many tie, the median of the per-pair ratios NEW / BASE, the gap
of the medians against BASE's interquartile range, and whether the claim
rule of ``claim_verdict`` holds.  For each end-to-end metric of
BASE's ``BENCHMARK.json`` (read, never written) it also prints the verdict
of the no-regression rule of ``regression_verdict`` at that metric's bound
and better direction.  It exits 1 if any run reports ``correct: false`` or
prints no result, and 2 on bad arguments, among them two checkouts whose
resolved paths differ in length: on ``ci-digital-cold`` that alone moved
``peak_rss_mb`` by 0.2 MB between two copies of one commit.  Only the
standard library is used.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def _seeds(text):
    """'21-30' or '1,4,9' (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(root, workload, seed, seconds):
    """One benchmark run in the checkout ``root``: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


# The smallest gap, relative to BASE's median, that the claim rule counts:
# a deterministic metric's runs all agree, and a zero interquartile range
# must not let a move at round-off count as a gain
GAP_FLOOR = 1e-9


def claim_verdict(base, new):
    """The claim rule for a lower-is-better metric on paired runs: NEW is
    lower in at least nine tenths of all pairs, a tie counting for neither
    side, and BASE's median exceeds NEW's by more than BASE's
    interquartile range and by more than ``GAP_FLOOR`` times BASE's
    median.  Returns (pairs NEW is lower in, ties, median gap, BASE's
    interquartile range, whether the rule holds)."""
    lower = sum(b < a for a, b in zip(base, new))
    ties = sum(b == a for a, b in zip(base, new))
    q1, med, q3 = _quartiles(base)
    gap = med - statistics.median(new)
    floor = max(q3 - q1, GAP_FLOOR * abs(med))
    return lower, ties, gap, q3 - q1, 10 * lower >= 9 * len(base) and gap > floor


def beats_every(base, new, better="lower"):
    """Whether every NEW run is better than every BASE run, in the
    ``better`` direction ("lower" or "higher"): the runs of the two sides
    do not overlap at all."""
    sign = 1.0 if better == "lower" else -1.0
    return max(sign * v for v in new) < min(sign * v for v in base)


def regression_verdict(base, new, bound, better="lower"):
    """The no-regression rule for one end-to-end metric on paired runs:
    "worse" when NEW's median is worse than BASE's, in the ``better``
    direction ("lower" or "higher"), by more than ``bound`` times BASE's
    median, and "no worse" otherwise.  When BASE's interquartile range
    exceeds ``bound`` times its median, the runs spread too widely to tell:
    the verdict is then "unresolved", unless every NEW run beats every
    BASE run."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = _quartiles(base)
    if q3 - q1 > bound * abs(med):
        return "no worse" if beats_every(base, new, better) else "unresolved"
    worse = sign * (statistics.median(new) - med) > bound * abs(med)
    return "worse" if worse else "no worse"


def end_to_end_bounds(root):
    """{metric: (bound, better)} for the end-to-end metrics that
    ``root``'s BENCHMARK.json declares."""
    with open(root / "BENCHMARK.json") as fh:
        return {m["name"]: (m["bound"], m["better"])
                for m in json.load(fh)["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="e.g. 21-30 or 1,3,5")
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "new": args.new.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    lengths = [len(str(root)) for root in sides.values()]
    if lengths[0] != lengths[1]:
        parser.error(f"the checkouts' paths are {lengths[0]} and {lengths[1]} "
                     "characters long; the length alone moves peak_rss_mb, "
                     "so give paths of equal length")
    if len(args.seeds) < 2:
        parser.error("need at least two seeds")
    if not (sides["base"] / "BENCHMARK.json").is_file():
        parser.error(f"no BENCHMARK.json under {sides['base']}")
    bounds = end_to_end_bounds(sides["base"])

    runs = {side: [] for side in sides}
    correct = True
    for i, seed in enumerate(args.seeds):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            result = _run(sides[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            if not result.get("correct"):
                correct = False
                print(f"seed {seed}: {side} run is not correct", file=sys.stderr)
        print(f"seed {seed}: " + "  ".join(
            f"{side} trial_s {runs[side][-1]['metrics'].get('trial_s', {}).get('value')}"
            for side in sides), flush=True)

    names = [n for n in runs["base"][0]["metrics"]
             if all(n in r["metrics"] for side in sides for r in runs[side])]
    n = len(args.seeds)
    print(f"\n{args.workload}, {n} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}")
    print(f"{'metric':<16}{'side':<6}" + "".join(
        f"{h:>12}" for h in ("median", "q1", "q3", "min", "max")))
    for name in names:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in sides}
        if any(v is None for vs in values.values() for v in vs):
            print(f"{name:<16}(missing values)")
            continue
        stats = {side: _quartiles(values[side]) for side in sides}
        for side in sides:
            q1, med, q3 = stats[side]
            label = name if side == "base" else ""
            print(f"{label:<16}{side:<6}" + "".join(
                f"{v:>12.6g}" for v in (med, q1, q3, min(values[side]),
                                       max(values[side]))))
        better = bounds.get(name, (None, "lower"))[1]
        print(f"{'':<16}every new run {better} than every base run: "
              f"{'yes' if beats_every(values['base'], values['new'], better) else 'no'}")
        lower, ties, gap, iqr, holds = claim_verdict(values["base"], values["new"])
        ratios = [b / a for a, b in zip(values["base"], values["new"]) if a]
        ratio = f"{statistics.median(ratios):.4f}" if ratios else "n/a"
        print(f"{'':<16}new lower in {lower} of {n}, {ties} ties; median ratio "
              f"{ratio}; median gap {gap:.4g} vs base IQR {iqr:.4g}")
        print(f"{'':<16}claim rule (lower in >= 9/10, gap > IQR and "
              f"> {GAP_FLOOR:g} x base median): "
              f"{'holds' if holds else 'does not hold'}")
        if name in bounds:
            bound, better = bounds[name]
            print(f"{'':<16}no-regression rule (bound {bound:g}, {better} is "
                  f"better): {regression_verdict(values['base'], values['new'], bound, better)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
