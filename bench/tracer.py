"""Span tracer that wraps graphbandit's public entry points from outside.

Nothing under ``src/`` is edited: `Tracer.patched()` swaps module and class
attributes for timing wrappers and restores them on exit, so untraced runs
execute the package untouched.

Every wrapped call is a span with a name, start, end and parent. Self time is
the span's duration minus the durations of its direct children. Spans named in
``RECORDED`` (games, sweeps, one graph operation of the benchmark) are kept as records;
every other span is folded into per-name aggregates on its nearest recorded
ancestor, so per-round calls cost a few counters per game instead of a record
each.
"""

from __future__ import annotations

import contextlib
import time

from graphbandit import environments, graph, harness, learners, partial_monitoring

RECORDED = frozenset({
    "bench.job", "bench.profile", "bench.pm_check", "harness.sweep", "harness.run_game",
    "harness.doubling_wrapper",
})

# (span name, owner, attribute); the same callable may be bound in several
# modules, and every binding the package calls through is listed.
TARGETS = (
    ("harness.sweep", harness, "sweep"),
    ("harness.run_game", harness, "run_game"),
    ("harness.doubling_wrapper", harness, "doubling_wrapper"),
    ("harness.aggregate", harness.ExperimentReport, "mean_regret"),
    ("harness.aggregate", harness.ExperimentReport, "slope"),
    ("harness.aggregate", harness.ExperimentReport, "write_csv"),
    ("environments.build_environment", environments, "build_environment"),
    ("environments.build_environment", harness, "build_environment"),
    ("learners.act", learners.Exp3G, "act"),
    ("learners.update", learners.Exp3G, "update"),
    ("learners.set_round_graph", learners.Exp3G, "set_round_graph"),
    ("learners.exponential_weights", learners, "exponential_weights"),
    ("learners.sample_index", learners, "sample_index"),
    ("learners.importance_weighted_estimates", learners, "importance_weighted_estimates"),
    ("graph.profile", graph, "profile"),
    ("graph.profile", harness, "graph_profile"),
    ("graph.profile", learners, "graph_profile"),
    ("graph.classify_graph", graph, "classify_graph"),
    ("graph.independence_number", graph, "independence_number"),
    ("graph.weak_domination_number", graph, "weak_domination_number"),
    ("partial_monitoring.encode", partial_monitoring, "encode"),
    ("partial_monitoring.check_global_observability", partial_monitoring,
     "check_global_observability"),
    ("partial_monitoring.check_local_observability", partial_monitoring,
     "check_local_observability"),
)

PROFILE_CACHE = graph.profile  # the lru_cache object, kept for cache_info/cache_clear


class Tracer:
    def __init__(self):
        self.records = []  # (id, name, start, end, parent id, self seconds, aggregates)
        self.totals = {}  # name -> [calls, total seconds, self seconds]
        self.profile_misses = 0
        self._stack = []  # open frames: [name, start, child seconds, id, aggregates]
        self._next_id = 0

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name):
        frame = [name, time.perf_counter(), 0.0, None, None]
        if name in RECORDED:
            self._next_id += 1
            frame[3] = self._next_id
            frame[4] = {}
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, children, span_id, aggregates = frame
        duration = end - start
        self_time = duration - children
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += self_time
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.records.append((span_id, name, start, end, parent, self_time, aggregates))
            return
        owner = next((f[4] for f in reversed(self._stack) if f[4] is not None), None)
        if owner is not None:
            agg = owner.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_time

    def wrap(self, name, fn):
        tracer = self
        is_profile = fn is PROFILE_CACHE

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            misses = PROFILE_CACHE.cache_info().misses if is_profile else 0
            try:
                return fn(*args, **kwargs)
            finally:
                if is_profile:
                    tracer.profile_misses += PROFILE_CACHE.cache_info().misses - misses
                tracer._close(frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in TARGETS]
        try:
            for (name, owner, attr), (_, _, original) in zip(TARGETS, saved):
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


class _Span:
    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._frame = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._frame)
        return False
