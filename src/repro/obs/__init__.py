"""Observability for the corroboration pipeline: tracing, metrics, ledger.

The paper's algorithm is defined by *per-round* dynamics — which fact
groups IncEstHeu picks, how much entropy each round destroys, how each
source's multi-value trust trajectory moves — and this package makes
those dynamics inspectable without touching the numerics:

* :mod:`repro.obs.trace` — nestable span tracer with monotonic timings
  and Chrome trace-event / Perfetto JSON export;
* :mod:`repro.obs.metrics` — counters / gauges / histogram summaries
  (cache traffic, groups per round, votes touched, entropy destroyed,
  per-iteration deltas of the iterative baselines);
* :mod:`repro.obs.runlog` — an append-only JSONL run ledger with one
  record per round / iteration (selection decisions, trust snapshots,
  label flips).

The three sinks travel together as an :class:`Obs` bundle.  The default
bundle, :data:`NULL_OBS`, is wired to process-wide no-op singletons: a
disabled call site costs an attribute load and a discarded method call,
allocates nothing, and never reads algorithm state — so the untraced
path stays bit-identical and within timing noise of the uninstrumented
code (the equivalence tests and ``BENCH_core.json`` hold this).

Instrumented entry points accept the bundle explicitly::

    from repro import IncEstimate, motivating_example
    from repro.obs import make_obs

    obs = make_obs(trace=True, runlog="run.jsonl")
    result = IncEstimate(obs=obs).run(motivating_example())
    obs.tracer.write("trace.json")      # load in ui.perfetto.dev
    obs.runlog.close()

or via the CLI flags ``--trace`` / ``--runlog`` / ``--log-level`` on
``repro corroborate`` and ``repro experiment`` (see
``docs/observability.md``).
"""

from __future__ import annotations

import dataclasses
import logging
import pathlib
import sys
from typing import IO

from repro.obs.context import (
    coerce_trace_id,
    current_trace_id,
    new_trace_id,
    trace_scope,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    HISTOGRAM_SAMPLE_CAP,
    NULL_METRICS,
    SUMMARY_QUANTILES,
    MetricsRegistry,
    NullMetrics,
    global_metrics,
)
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.runlog import (
    NULL_RUNLOG,
    RUNLOG_SCHEMA_VERSION,
    JsonlRunLog,
    NullRunLog,
    read_runlog,
    summarize_records,
    validate_runlog_file,
    validate_runlog_records,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullSpan,
    NullTracer,
    Span,
    SpanTracer,
    load_trace,
    summarize_events,
    validate_chrome_trace,
)


@dataclasses.dataclass(frozen=True)
class Obs:
    """The observability bundle instrumented code carries around.

    Frozen so a bundle can serve as a dataclass-field default (e.g. on
    :class:`~repro.core.selection.SelectionContext`) and be shared across
    sessions without aliasing surprises; the sinks it points to do the
    accumulating.

    Attributes:
        tracer: span sink (:data:`NULL_TRACER` or a :class:`SpanTracer`).
        metrics: metric sink (:data:`NULL_METRICS` or a registry).
        runlog: ledger sink (:data:`NULL_RUNLOG` or a JSONL ledger).
        enabled: precomputed "any sink is real" flag — hot paths branch on
            this once per round instead of probing each sink.
    """

    tracer: NullTracer | SpanTracer = NULL_TRACER
    metrics: NullMetrics | MetricsRegistry = NULL_METRICS
    runlog: NullRunLog | JsonlRunLog = NULL_RUNLOG
    enabled: bool = dataclasses.field(init=False, default=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "enabled",
            self.tracer.enabled or self.metrics.enabled or self.runlog.enabled,
        )

    def close(self) -> None:
        """Close the sinks that own resources (currently the ledger)."""
        self.runlog.close()


#: The shared all-no-op bundle — the default of every instrumented API.
NULL_OBS = Obs()


def make_obs(
    trace: bool = False,
    runlog: str | pathlib.Path | IO[str] | None = None,
    metrics: bool | None = None,
) -> Obs:
    """Build an :class:`Obs` bundle from simple switches.

    Args:
        trace: collect spans into a fresh :class:`SpanTracer` (export with
            ``obs.tracer.write(path)``).
        runlog: path or open text handle for an append-only JSONL ledger.
        metrics: attach a fresh :class:`MetricsRegistry`; defaults to on
            whenever tracing or a ledger is requested (the snapshot rides
            along in the trace's ``otherData``), off otherwise.

    ``make_obs()`` with no arguments returns :data:`NULL_OBS` itself.
    """
    if not trace and runlog is None and not metrics:
        return NULL_OBS
    if metrics is None:
        metrics = trace or runlog is not None
    return Obs(
        tracer=SpanTracer() if trace else NULL_TRACER,
        metrics=MetricsRegistry() if metrics else NULL_METRICS,
        runlog=JsonlRunLog(runlog) if runlog is not None else NULL_RUNLOG,
    )


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
#: Root logger name of the whole library.
LOGGER_NAME = "repro"

#: Marker attribute identifying the handler :func:`configure_logging` owns.
_HANDLER_MARK = "_repro_obs_handler"


class _StderrHandler(logging.StreamHandler):
    """A stream handler on whatever ``sys.stderr`` is when it emits, not
    when it was made: a caller that swaps stderr and closes the old one
    (pytest's ``capsys``) never leaves the logger on a closed stream."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> IO[str]:
        return sys.stderr


def get_logger(name: str | None = None) -> logging.Logger:
    """The library logger, or a child of it.

    Modules call ``get_logger(__name__)``; anything not already under the
    ``repro`` namespace is parented beneath it so one
    :func:`configure_logging` call governs all library output.
    """
    if name is None or name == LOGGER_NAME:
        return logging.getLogger(LOGGER_NAME)
    if name.startswith(LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def configure_logging(
    level: int | str = "warning", stream: IO[str] | None = None
) -> logging.Logger:
    """Point the ``repro`` logger at ``stream`` at ``level``; with no
    ``stream``, at the live ``sys.stderr`` of each record's emit.

    Idempotent: re-configuring replaces the handler this function installed
    earlier rather than stacking duplicates, and never touches handlers an
    embedding application added itself.  Progress output of the experiment
    harness and CLI flows through this logger (``--log-level`` on the CLI),
    keeping stdout clean for actual results.
    """
    if isinstance(level, str):
        numeric = logging.getLevelName(level.upper())
        if not isinstance(numeric, int):
            raise ValueError(f"unknown log level {level!r}")
        level = numeric
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_MARK, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    setattr(handler, _HANDLER_MARK, True)
    logger.addHandler(handler)
    return logger


__all__ = [
    "DEFAULT_BUCKETS",
    "HISTOGRAM_SAMPLE_CAP",
    "LOGGER_NAME",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_RUNLOG",
    "NULL_SPAN",
    "NULL_TRACER",
    "PROMETHEUS_CONTENT_TYPE",
    "RUNLOG_SCHEMA_VERSION",
    "SUMMARY_QUANTILES",
    "TRACE_SCHEMA_VERSION",
    "JsonlRunLog",
    "MetricsRegistry",
    "NullMetrics",
    "NullRunLog",
    "NullSpan",
    "NullTracer",
    "Obs",
    "Span",
    "SpanTracer",
    "coerce_trace_id",
    "configure_logging",
    "current_trace_id",
    "get_logger",
    "global_metrics",
    "load_trace",
    "make_obs",
    "new_trace_id",
    "parse_prometheus_text",
    "read_runlog",
    "render_prometheus",
    "sanitize_metric_name",
    "summarize_events",
    "summarize_records",
    "trace_scope",
    "validate_chrome_trace",
    "validate_runlog_file",
    "validate_runlog_records",
]
