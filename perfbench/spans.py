"""Timing helpers: in-memory spans for the traced run, and the iteration
clock that prices long layout runs.

A span is a named interval on the benchmark's one thread. Spans nest: each
knows the time its children covered, so a span's self time is its length
minus that. Totals per name are kept, not individual spans, which is all
the per-layer metrics need.

`Tracer.wrap` replaces a module attribute with a timed wrapper for the
duration of the traced rounds, which is how the calls the engine makes
into its own helpers, the crossing scan and the force kernels are timed
without editing the program. A name that no longer exists in its module is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext

import numpy as np

_NULL = nullcontext()


class NullTracer:
    """Tracing switched off: spans cost one attribute lookup."""

    def span(self, name):
        return _NULL


class Tracer:
    """Per-name span totals and counters, plus the wrappers it installed."""

    def __init__(self):
        self.totals: dict[str, list] = {}   # name -> [calls, total_s, child_s]
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack: list[list] = []        # open spans: [child_s]
        self._patched: list = []

    @contextmanager
    def span(self, name):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            rec = self.totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += frame[0]

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, module, attr: str, name: str, after=None) -> bool:
        """Time every call of module.attr as span `name` until `restore`.

        `after(args, result)` runs outside the span, for counters. Returns
        False (and marks `name` absent) when the attribute does not exist.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(name)
            return False

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, timed)
        self._patched.append((module, attr, fn))
        return True

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def calls(self, name) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def per_call(self, name, self_only=False) -> float | None:
        """Mean seconds per call (self time only, if asked), or None when
        the span never ran."""
        calls, total, child = self.totals.get(name, [0, 0.0, 0.0])
        if calls == 0:
            return None
        return (total - child if self_only else total) / calls


class IterationClock:
    """Reads the clock around every layout iteration, to time long runs.

    A capped run is 80000 iterations and tens of seconds; it cannot be
    repeated to keep the fastest repeat, and the host's slow phases last
    long enough to cover much of it. The clock splits a run's loop into
    windows of `window` iterations and prices every iteration at the fast
    end (`QUANTILE`) of the window times, which the slow phases do not move.
    What a run does before its first iteration and after its last is added
    as measured. Installed on `engine._step_arrays`, the function the loop
    calls once per iteration; where that name is gone, `present` is False
    and runs are timed whole.
    """

    QUANTILE = 0.05
    TARGET = "_step_arrays"

    def __init__(self, engine, window: int = 50):
        self.engine = engine
        self.window = window
        self.real = getattr(engine, self.TARGET, None)
        self.present = self.real is not None
        self.entries: list[float] = []
        self.stamps: list[float] = []

    def __enter__(self):
        if self.present:
            real, entries, stamps = self.real, self.entries, self.stamps
            clock = time.perf_counter

            @functools.wraps(real)
            def clocked(*args, **kwargs):
                entries.append(clock())
                result = real(*args, **kwargs)
                stamps.append(clock())
                return result

            setattr(self.engine, self.TARGET, clocked)
        return self

    def __exit__(self, *exc):
        if self.present:
            setattr(self.engine, self.TARGET, self.real)

    def mark(self) -> int:
        return len(self.stamps)

    def estimate(self, t_start: float, t_end: float, first: int, last: int) -> float:
        """Seconds for the run between `t_start` and `t_end`, whose
        iterations entered and left the clock at indices first..last-1."""
        iters = last - first
        w = self.window
        windows = iters // w
        if windows == 0:
            return t_end - t_start
        loop_start = self.entries[first]
        edges = [loop_start] + self.stamps[first + w - 1:first + windows * w:w]
        fast = float(np.quantile(np.diff(edges), self.QUANTILE))
        return ((loop_start - t_start) + iters / w * fast
                + (t_end - self.stamps[last - 1]))


def install_layer_spans(tracer):
    """Wrap, at run time, the functions through which the layers are called."""
    from bigcross import bench, engine, metrics

    def count_scan(args, result):
        pairs = getattr(args[0], "nonadjacent_edge_pairs", None)
        if pairs is not None:
            tracer.count("pairs_tested", pairs.shape[0])
        tracer.count("found", result[0].shape[0])

    tracer.wrap(engine, "_step_arrays", "engine.step")
    tracer.wrap(engine, "_resolve_coincidences", "engine.coincidence")
    tracer.wrap(engine, "_crossing_arrays", "crossings.scan", after=count_scan)
    tracer.wrap(engine, "_force_arrays", "forces.total")
    for kernel in ("_parallel_arrays", "_rotational_arrays", "_attract_repel_arrays"):
        tracer.wrap(engine, kernel, "forces.cosine")
    tracer.wrap(bench, "measure", "metrics.measure")
    tracer.wrap(metrics, "find_crossings", "crossings.oneshot")
    tracer.wrap(metrics, "angular_resolution", "metrics.angular_resolution")
