"""Print the resident-memory peak after set-up and after each stage of a trial.

    PYTHONPATH=src python docs/rss_phases.py --profile ci
    PYTHONPATH=src python docs/rss_phases.py --profile paper --chains 32

Set-up trains the exact-target surrogate at the profile's geometry with
the ``ci`` profile's training settings, as the benchmark's set-up does.
The trial is ``harness.run_trial`` at the profile's fixed settings, with
the estimators that read that net (mp-hybrid, ls and known-location), on
the first trial draw of ``run_point`` at point seed 0 (as the benchmark
draws it), behind that draw's P-chain combiner with ``--chains P``.  The
stages are told apart by wrapping the names ``run_trial`` calls them by:
``oracle`` (``full_channel``, with the trial's draws of p1, pilots and
combiner before it), ``draws`` (the noisy observation, ``simulate_rx``),
``unitary_transform``, ``estimate`` (mp-hybrid, location init included),
``ls``, ``known-location`` and ``fim``.

For each phase it prints ``ru_maxrss`` after it, the process's peak
resident set so far (MB, as the benchmark's ``peak_rss_mb``), glibc
malloc's heap size and the bytes in use in it after the phase (MB, read
with ``mallinfo2``; ``n/a`` on a C library without it), and the
``tracemalloc`` peak within it (MiB), then names the phase after which
``ru_maxrss`` first reached its final value: the phase that set the run's
peak.  The heap counts what malloc holds from the system, its mmapped
blocks included, so a heap that grows while the bytes in use do not is
allocator growth, not live memory.  ``tracemalloc``'s own bookkeeping
adds to the resident set, and enough to move that phase, so set-up and
trial run twice in the process: untraced for ``ru_maxrss`` and the heap,
then traced for the traced peaks.  Only the standard library and hmimo
are used.
"""

import argparse
import ctypes
import os
import resource
import sys
import tracemalloc

# the benchmark's one BLAS thread; set before hmimo first imports numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def maxrss_mb():
    """The process's peak resident set so far, in MB (Linux counts KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Mallinfo2(ctypes.Structure):
    """glibc's ``struct mallinfo2`` (glibc 2.33 and later): ten size_t."""
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _load_mallinfo2():
    """The C library's ``mallinfo2``, or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = Mallinfo2
    return fn


MALLINFO2 = _load_mallinfo2()


def heap_mb():
    """(heap size, bytes in use) of glibc's malloc in MB, each with the
    mmapped blocks, or (None, None) without ``mallinfo2``."""
    if MALLINFO2 is None:
        return None, None
    m = MALLINFO2()
    return (m.arena + m.hblkhd) / 2**20, (m.uordblks + m.hblkhd) / 2**20


class Phases:
    """Per-phase bookkeeping: ``mark(name)`` closes a phase and records
    (name, ru_maxrss MB, tracemalloc peak MiB since the previous mark, 0
    when ``tracemalloc`` is not tracing, then ``heap_mb()``)."""

    def __init__(self):
        self.rows = []
        tracemalloc.reset_peak()

    def mark(self, name):
        self.rows.append((name, maxrss_mb(),
                          tracemalloc.get_traced_memory()[1] / 2**20, *heap_mb()))
        tracemalloc.reset_peak()

    def wrap(self, name, fn):
        """``fn``, marking the phase ``name`` as each call returns."""
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.mark(name)
            return out
        return wrapped


def peak_phase(rows):
    """The first phase whose ``ru_maxrss`` equals the last (the peak only
    grows, so that phase set it)."""
    return next(name for name, rss, *_ in rows if rss >= rows[-1][1])


def table(rows, traced):
    """The printed lines: each phase of the untraced ``rows`` with its
    heap, and the traced peak of the same phase of ``traced``."""
    def mb(v):
        return "n/a" if v is None else f"{v:.2f}"

    lines = [f"{'phase':<18} {'ru_maxrss MB':>12} {'heap MB':>8} {'in use MB':>9} "
             f"{'traced peak MiB':>16}"]
    for (name, rss, _, heap, used), (_, _, peak, *_) in zip(rows, traced):
        lines.append(f"{name:<18} {rss:>12.2f} {mb(heap):>8} {mb(used):>9} "
                     f"{peak:>16.3f}")
    lines.append(f"peak set in: {peak_phase(rows)}")
    return lines


# the estimators that read the exact-target net, the one set-up trains
ESTIMATORS = ("mp-hybrid", "ls", "known-location")
# the names run_trial calls each stage by, in hmimo.harness
STAGES = {"full_channel": "oracle", "simulate_rx": "draws",
          "unitary_transform": "unitary_transform",
          "estimate_full_digital": "estimate", "estimate_hybrid": "estimate",
          "unitary_ls_estimate": "ls", "stacked_channel": "known-location",
          "fim": "fim"}


def run(profile, chains, traced):
    """The phases of a set-up and one trial, as ``Phases.rows``, under
    ``tracemalloc`` if ``traced``."""
    import numpy as np
    from hmimo import harness

    fixed = {"chains": chains} if chains else {}
    cfg = harness.load_config(profile=profile, overrides={
        "training": harness.PROFILES["ci"]["training"], "fixed": fixed,
        "estimators": list(ESTIMATORS)})
    if traced:
        tracemalloc.start()
    try:
        phases = Phases()
        nets = {"exact": harness.train_net(cfg)[0]}
        phases.mark("set-up")
        saved = {name: getattr(harness, name) for name in STAGES}
        try:
            for name, stage in STAGES.items():
                setattr(harness, name, phases.wrap(stage, saved[name]))
            variable = cfg["sweep"]["variable"]
            seq = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(0,))
            harness.run_trial(cfg, nets, variable, cfg["fixed"][variable],
                              seq.spawn(1)[0])
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)
        return phases.rows
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--profile", choices=("ci", "paper"), default="ci")
    ap.add_argument("--chains", type=int, metavar="P",
                    help="run the hybrid receiver behind a P-chain combiner")
    args = ap.parse_args(argv)
    rows = run(args.profile, args.chains, traced=False)
    traced = run(args.profile, args.chains, traced=True)
    print("\n".join(table(rows, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
