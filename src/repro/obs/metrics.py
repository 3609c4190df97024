"""Counters, gauges and quantile histograms for the corroboration pipeline.

A :class:`MetricsRegistry` is a plain in-process aggregate — counters are
monotonic floats, gauges are last-write-wins, histograms keep summary
statistics (count / sum / min / max), a fixed set of cumulative buckets
and a *bounded* raw-sample prefix, so a long-lived server's registry
never grows with traffic: per histogram name the memory is one bucket
array plus at most :data:`HISTOGRAM_SAMPLE_CAP` floats, full stop.
:meth:`MetricsRegistry.quantile` serves p50/p95/p99-style summaries from
that state — exact (numpy-percentile identical) while the observation
count is within the sample cap, bucket-interpolated beyond it.
:data:`NULL_METRICS` is the no-op default that instrumented code can
call unconditionally.

Metric names are dotted paths.  The ones the library emits:

=====================================  =====================================
``session.time_points``                time points executed (counter)
``session.rounds``                     RoundRecords committed (counter)
``session.facts_evaluated``            facts committed (counter)
``session.votes_touched``              Σ |signature| × facts per selection
``session.label_flips``                facts whose label overrode Eq. 2
``session.entropy_destroyed``          Σ H(σ(FG)) × n over the picks (bits)
``session.group_size_selected``        facts taken per selection (histogram)
``selection.flush_rounds``             one-sided flush time points (counter)
``selection.delta_h_rounds``           time points that ranked by ΔH
``selection.delta_h_groups_scored``    candidate groups scored by Eq. 9
``selection.candidates_rescored``      (cand, other) pairs recomputed by the
                                       incremental engine (counter)
``selection.candidates_skipped``       pairs served from the pair cache
                                       without recomputation (counter)
``selection.groups_per_round``         active groups per time point (hist.)
``selection.greedy_rounds``            IncEstPS selections (counter)
``baseline.<name>.iterations``         fixpoint iterations per baseline run
``trust.time_points``                  trust vectors recorded (counter)
``trust.facts_marked``                 facts stamped with t(f) (counter)
``serve.requests``                     HTTP requests handled (counter)
``serve.request_seconds``              request latency (histogram)
``serve.requests_by_route.<M> <tpl>``  per route-template requests (counter)
``serve.responses_by_status.<N>xx``    responses per status class (counter)
``serve.errors``                       5xx responses (counter)
``serve.slow_requests``                requests over ``--slow-ms`` (counter)
``serve.refresh_seconds``              service refresh latency (histogram)
``serve.query_seconds``                fact/trust query latency (histogram)
``store.batches``                      ledger batches committed (counter)
``store.votes_ingested``               votes committed to the store
``store.ingest_seconds``               batch ingest latency (histogram)
=====================================  =====================================

Cache traffic on the shared array structures is process-global (the caches
live on the vote matrix, not in any one session), so it lands in the
always-on :func:`global_metrics` registry under ``arrays.*``:
``arrays.group_arrays_cache.{hit,miss}``,
``arrays.group_index_cache.{hit,miss}``,
``arrays.engine_template_cache.{hit,miss}``,
``arrays.deltah_static_cache.{hit,miss}``.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Fixed histogram bucket upper bounds.  Log-spaced over the latency
#: range the serving layer lives in (100 µs … 60 s) — small integers
#: (group sizes, groups per round) land in the low buckets, anything
#: past the last bound goes to the implicit +Inf overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Raw observations retained per histogram before the bucket estimator
#: takes over.  Bounds a long-lived server's per-histogram memory while
#: keeping small-sample quantiles exact (numpy-percentile identical).
HISTOGRAM_SAMPLE_CAP = 512

#: The quantiles every snapshot / exposition summarises.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class _Histogram:
    """State of one named histogram: moments, buckets, capped samples."""

    __slots__ = ("count", "sum", "min", "max", "buckets", "samples")

    def __init__(self, bounds_len: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        # one slot per bound plus the +Inf overflow slot
        self.buckets = [0] * (bounds_len + 1)
        self.samples: list[float] = []


class NullMetrics:
    """Metrics sink that discards everything — the default."""

    __slots__ = ()

    enabled = False

    def inc(self, name: str, value: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def quantile(self, name: str, q: float) -> float:
        return math.nan

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Process-wide no-op metrics singleton.
NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """In-process metric aggregate (see the module docstring for names).

    Args:
        buckets: strictly increasing histogram bucket upper bounds shared
            by every histogram in the registry (default
            :data:`DEFAULT_BUCKETS`); an implicit +Inf overflow bucket is
            always appended.
        sample_cap: raw observations retained per histogram (default
            :data:`HISTOGRAM_SAMPLE_CAP`); quantiles are exact up to the
            cap and bucket-interpolated past it.
    """

    __slots__ = (
        "_counters",
        "_gauges",
        "_hists",
        "_bounds",
        "_sample_cap",
        "_lock",
    )

    enabled = True

    def __init__(
        self,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        sample_cap: int = HISTOGRAM_SAMPLE_CAP,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram buckets must be non-empty")
        if sample_cap < 2:
            raise ValueError("sample_cap must be >= 2")
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, _Histogram] = {}
        self._bounds = bounds
        self._sample_cap = int(sample_cap)
        # Handler threads of the threaded HTTP server bump one shared
        # registry; read-modify-write updates must not lose increments.
        # Reentrant because the summary readers compose locked methods.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        # The lock is process-local; the parallel sweep pickles obs
        # bundles into worker cells, so drop it and rebuild on unpickle.
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "hists": self._hists,
                "bounds": self._bounds,
                "sample_cap": self._sample_cap,
            }

    def __setstate__(self, state: dict) -> None:
        self._counters = state["counters"]
        self._gauges = state["gauges"]
        self._hists = state["hists"]
        self._bounds = state["bounds"]
        self._sample_cap = state["sample_cap"]
        self._lock = threading.RLock()

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        value = float(value)
        with self._lock:
            state = self._hists.get(name)
            if state is None:
                state = self._hists[name] = _Histogram(len(self._bounds))
            state.count += 1
            state.sum += value
            if value < state.min:
                state.min = value
            if value > state.max:
                state.max = value
            state.buckets[bisect.bisect_left(self._bounds, value)] += 1
            if len(state.samples) < self._sample_cap:
                state.samples.append(value)

    def fresh(self) -> "MetricsRegistry":
        """An empty registry with this one's buckets and sample cap."""
        return MetricsRegistry(self._bounds, self._sample_cap)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in as if its updates had come after this one's.

        Counters add, gauges take ``other``'s value (last write wins),
        histograms add their counts, sums and buckets, widen min/max and
        append ``other``'s samples up to the cap — so merging per-shard
        registries in cell order reproduces the registry of one serial
        run (histogram sums up to float summation order).
        """
        if other._bounds != self._bounds:
            raise ValueError("cannot merge registries with different buckets")
        with self._lock:
            for name, value in other._counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            self._gauges.update(other._gauges)
            for name, theirs in other._hists.items():
                state = self._hists.get(name)
                if state is None:
                    state = self._hists[name] = _Histogram(len(self._bounds))
                state.count += theirs.count
                state.sum += theirs.sum
                state.min = min(state.min, theirs.min)
                state.max = max(state.max, theirs.max)
                state.buckets = [a + b for a, b in zip(state.buckets, theirs.buckets)]
                room = self._sample_cap - len(state.samples)
                state.samples.extend(theirs.samples[:room])

    def counter(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float:
        """Current value of a gauge (NaN if never set)."""
        return self._gauges.get(name, math.nan)

    def histogram_buckets(self, name: str) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf.

        The Prometheus ``_bucket{le=...}`` series of the histogram; an
        unknown name returns the empty list.
        """
        with self._lock:
            state = self._hists.get(name)
            if state is None:
                return []
            out: list[tuple[float, int]] = []
            cumulative = 0
            for bound, count in zip((*self._bounds, math.inf), state.buckets):
                cumulative += count
                out.append((bound, cumulative))
            return out

    def quantile(self, name: str, q: float) -> float:
        """The ``q``-quantile (0 ≤ q ≤ 1) of the histogram ``name``.

        Exact (linear-interpolated order statistics, the numpy
        ``percentile`` default) while the histogram holds at most
        ``sample_cap`` observations; past the cap, linear interpolation
        within the cumulative fixed buckets, clamped to the observed
        [min, max].  NaN for an unknown name.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(name, q)

    def _quantile_locked(self, name: str, q: float) -> float:
        state = self._hists.get(name)
        if state is None or state.count == 0:
            return math.nan
        if state.count <= len(state.samples):
            ordered = sorted(state.samples)
            position = q * (len(ordered) - 1)
            lower = int(position)
            upper = min(lower + 1, len(ordered) - 1)
            fraction = position - lower
            return ordered[lower] + fraction * (ordered[upper] - ordered[lower])
        # Bucket path: rank the target observation, walk the cumulative
        # counts, interpolate linearly inside the bucket that holds it.
        target = q * state.count
        cumulative = 0
        previous_bound = state.min
        for bound, count in zip((*self._bounds, math.inf), state.buckets):
            if count == 0:
                if bound != math.inf:
                    previous_bound = max(previous_bound, min(bound, state.max))
                continue
            if cumulative + count >= target:
                if bound == math.inf:
                    return state.max
                lower = max(state.min, previous_bound)
                upper = min(state.max, bound)
                fraction = (target - cumulative) / count
                return lower + fraction * (upper - lower)
            cumulative += count
            previous_bound = max(previous_bound, min(bound, state.max))
        return state.max

    def histogram_summary(self, name: str) -> dict | None:
        """count/sum/min/max/mean plus p50/p95/p99 for one histogram."""
        with self._lock:
            state = self._hists.get(name)
            if state is None:
                return None
            summary = {
                "count": state.count,
                "sum": state.sum,
                "min": state.min,
                "max": state.max,
                "mean": state.sum / state.count if state.count else math.nan,
            }
            for q in SUMMARY_QUANTILES:
                summary[f"p{int(q * 100)}"] = self._quantile_locked(name, q)
            return summary

    def reset(self) -> None:
        """Drop every recorded metric (tests and long-lived processes)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    def snapshot(self) -> dict:
        """All metrics as one JSON-friendly dict (histograms summarised).

        Backward-compatible: histogram entries keep the historical
        ``count``/``sum``/``min``/``max``/``mean`` keys and add the
        ``p50``/``p95``/``p99`` quantile summaries.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: self.histogram_summary(name) for name in self._hists
                },
            }


#: Always-on registry for process-global instrumentation (array-cache
#: traffic).  A counter bump is a dict lookup plus a float add, paid once
#: per cache access — not per time point — so it stays on unconditionally.
_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-global always-on registry (``arrays.*`` cache metrics)."""
    return _GLOBAL
