"""Ordered merge of per-shard observability output into the parent bundle.

A sharded sweep produces one in-memory ledger / span list / counter set
per cell.  Completion order is nondeterministic, so nothing is written to
the parent sinks while shards run; instead the runner collects every
shard's output and this module replays it **in cell order**, which makes
the merged ledger a deterministic function of the work — byte-identical
across worker counts (modulo the wall-clock ``seconds`` fields some record
kinds carry).

Merged ledger layout (see :mod:`repro.obs.runlog` for the record schema)::

    ... parent records ...
    {"kind": "shard_start", "shard": 0, "label": "cell-0"}
    ... shard 0's records, verbatim, in shard-local order ...
    {"kind": "shard_start", "shard": 1, "label": "cell-1"}
    ... shard 1's records ...
    {"kind": "shard_merge", "shards": 2, "records": 37, "failures": 0}

Traces merge with each shard's events on its own Chrome ``tid`` (shard
index + 2; the parent keeps ``tid`` 1), so a Perfetto view of a sharded
run shows one lane per cell.  Metrics fold in cell order
(:meth:`~repro.obs.MetricsRegistry.merge`): counters sum, gauges keep the
last cell's write, histograms add counts, buckets and sums and append
samples up to the cap — what one serial run would have recorded.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.obs import Obs

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (shards ↔ merge)
    from repro.parallel.shards import CellOutcome

#: ``tid`` of the first shard lane in a merged trace (1 is the parent).
_FIRST_SHARD_TID = 2


def merge_shard_runlogs(obs: Obs, outcomes: Sequence["CellOutcome"]) -> int:
    """Replay shard ledger records into ``obs.runlog`` in cell order.

    Each shard's block is framed by a ``shard_start`` record; one
    ``shard_merge`` summary closes the merge.  Returns the number of
    shard records replayed (framing excluded).
    """
    if not obs.runlog.enabled:
        return 0
    replayed = 0
    failures = 0
    for outcome in outcomes:
        obs.runlog.emit("shard_start", shard=outcome.index, label=outcome.label)
        if outcome.failed:
            failures += 1
        for record in outcome.runlog_records:
            fields = {k: v for k, v in record.items() if k != "kind"}
            obs.runlog.emit(record["kind"], **fields)
            replayed += 1
    obs.runlog.emit(
        "shard_merge",
        shards=len(outcomes),
        records=replayed,
        failures=failures,
    )
    return replayed


def merge_shard_traces(obs: Obs, outcomes: Sequence["CellOutcome"]) -> int:
    """Append shard spans to ``obs.tracer``, one Chrome lane per shard.

    Shard timestamps are relative to each shard tracer's origin, so lanes
    align at zero rather than at wall-clock submission time — the per-cell
    anatomy is what the lanes are for, not cross-cell scheduling.  Returns
    the number of events merged.
    """
    if not obs.tracer.enabled:
        return 0
    merged = 0
    for outcome in outcomes:
        tid = _FIRST_SHARD_TID + outcome.index
        for event in outcome.trace_events:
            obs.tracer.events.append({**event, "tid": tid})
            merged += 1
    return merged


def merge_shard_metrics(obs: Obs, outcomes: Sequence["CellOutcome"]) -> int:
    """Fold shard registries into ``obs.metrics`` in cell order; returns
    the number of shard registries merged."""
    if not obs.metrics.enabled:
        return 0
    merged = 0
    for outcome in outcomes:
        if outcome.metrics is not None:
            obs.metrics.merge(outcome.metrics)
            merged += 1
    return merged


def merge_shard_outcomes(
    obs: Obs, outcomes: Sequence["CellOutcome"], label: str = "shard"
) -> None:
    """Merge every observability stream of a finished shard batch.

    No-op on the default :data:`~repro.obs.NULL_OBS` bundle — the
    untraced sharded path allocates and writes nothing, matching the
    library-wide zero-cost-when-disabled contract.
    """
    if not obs.enabled:
        return
    with obs.tracer.span(f"{label}.merge", shards=len(outcomes)):
        merge_shard_runlogs(obs, outcomes)
        merge_shard_traces(obs, outcomes)
        merge_shard_metrics(obs, outcomes)
