"""In-memory span tracer that wraps hmimo functions from outside the package.

A wrapper replaces a function at every import site: the modules use
``from hmimo.x import f``, so ``hmimo.estimator.channel_first_derivs`` and
``hmimo.crlb.channel_first_derivs`` are separate names bound to one function
object, and each binding must be swapped for calls through it to be seen.
Nothing here is imported or installed by an untraced run.
"""

import contextlib
import functools
import sys
import time


class Tracer:
    """Spans as ``[name, parent, start, end, attrs]`` lists, kept in memory.

    ``parent`` is the index of the enclosing span or -1.  Observers attach
    counts to ``attrs`` after a wrapped call returns.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, 0.0, 0.0, {}])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body of a ``with`` block."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def take(self):
        """Return the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, enter=None, observe=None):
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``enter()`` runs before the call; ``observe(attrs, args, kwargs,
        out)`` runs after a successful return.  A call that raises is
        marked ``raised``.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter()
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.spans[idx][4]["raised"] = True
                raise
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.spans[idx][4], args, kwargs, out)
            return out
        return traced


def install(tracer, module_name, attr, span_name, enter=None, observe=None):
    """Replace ``module.attr`` at every binding inside the hmimo package.

    Returns the number of bindings replaced; a target with none is an
    error, because its calls would silently go untraced.
    """
    orig = getattr(sys.modules[module_name], attr)
    wrapper = tracer.wrap(span_name, orig, enter=enter, observe=observe)
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hmimo"
                               or mod_name.startswith("hmimo.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
                sites += 1
    if sites == 0:
        raise RuntimeError(f"{module_name}.{attr} is bound nowhere in hmimo")
    return sites


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def has_ancestor(spans, idx, name):
    parent = spans[idx][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def wrapper_cost(calls=20000):
    """Seconds one wrapped call adds over a plain call, measured here.

    The traced run multiplies it by its wrapped-call count to estimate
    its own overhead, which is steadier than differencing two runs.
    """
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - plain, 0.0) / calls
