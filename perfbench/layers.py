"""Per-layer split of a traced run (spans written by ``launcher.py``).

Self time of a span is its duration minus its children's.  Summing each
request's span self times by metric, plus ``http.transport_ms`` (client
latency minus handler time), accounts for the whole client latency of
that request.  Each per-layer metric is the median over the ops it
concerns: write metrics over POSTs, read metrics over every read, and
the ``http.*`` metrics over the workload ops (connection 1).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from loadgen import Result

#: The store functions each ``store.*`` time metric covers; any other
#: ledger call lands in ``store.other_ms``.
STORE_METRICS = {
    "ingest_votes": "store.ingest_votes_ms",
    "pending_facts": "store.pending_facts_ms",
    "load_session_state": "store.state_load_ms",
    "record_epoch": "store.persist_ms",
    "record_stream_epoch": "store.persist_ms",
    "sources_up_to_batch": "store.delta_read_ms",
    "votes_on": "store.delta_read_ms",
    "fact_record": "store.read_ms",
    "source_record": "store.read_ms",
}

#: The core functions of the named ``core.*`` metrics; the rest of the
#: wrapped core functions (snapshot, restore and the carry/graft state
#: splicing) land in ``core.snapshot_restore_ms``.
CORE_METRICS = {
    "step": "core.step_ms",
    "session": "core.session_build_ms",
    "finalize": "core.finalize_ms",
}

#: (metric, unit, population) in report order.  Populations: ``ops``
#: (the workload ops on connection 1), ``write`` (every POST), ``read``
#: (every GET).
METRICS = (
    ("http.transport_ms", "ms", "ops"),
    ("http.self_ms", "ms", "ops"),
    ("service.self_ms", "ms", "write"),
    ("service.ledger_calls_per_write", "count", "write"),
    ("service.read_lock_wait_ms", "ms", "read"),
    ("store.ingest_votes_ms", "ms", "write"),
    ("store.pending_facts_ms", "ms", "write"),
    ("store.state_load_ms", "ms", "write"),
    ("store.persist_ms", "ms", "write"),
    ("store.trajectory_rows", "count", "write"),
    ("store.delta_read_ms", "ms", "write"),
    ("store.read_ms", "ms", "read"),
    ("store.other_ms", "ms", "ops"),
    ("stream.epoch_ms", "ms", "write"),
    ("core.step_ms", "ms", "write"),
    ("core.steps_per_write", "count", "write"),
    ("core.snapshot_restore_ms", "ms", "write"),
    ("core.session_build_ms", "ms", "write"),
    ("core.finalize_ms", "ms", "write"),
)

#: Reported beside the span metrics, from the store and the two runs.
EXTRA_METRICS = (("store.state_bytes", "bytes"), ("trace.overhead_pct", "%"))

#: Allowed gap between (sum of per-layer medians + transport median) and
#: the traced client p50 over the workload ops, as a share of that p50.
#: Medians do not add exactly; per op the split is exact by construction.
RECONCILE_TOLERANCE = 0.10


def metric_of(layer: str, name: str, write: bool) -> str:
    if layer == "http":
        return "http.self_ms"
    if layer == "service":
        return "service.self_ms" if write else "service.read_lock_wait_ms"
    if layer == "store":
        return STORE_METRICS.get(name, "store.other_ms")
    if layer == "stream":
        return "stream.epoch_ms"
    return CORE_METRICS.get(name, "core.snapshot_restore_ms")


def load_spans(path) -> tuple[dict, dict[str, list]]:
    """The launcher's header and its spans grouped by request id."""
    by_request: dict[str, list] = defaultdict(list)
    with open(path) as lines:
        header = json.loads(next(lines))
        for line in lines:
            span = json.loads(line)
            by_request[span[0]].append(span)
    return header, by_request


def split(spans: list, client_s: float) -> dict[str, float]:
    """One request's client latency split by metric (ms and counts)."""
    child_time: dict[int, float] = defaultdict(float)
    for _rid, _layer, _name, start, end, _id, parent, _rows in spans:
        child_time[parent] += end - start
    root = next(s for s in spans if s[6] == -1)
    write = root[2] == "do_POST"
    out: dict[str, float] = defaultdict(float)
    for _rid, layer, name, start, end, span_id, _parent, rows in spans:
        own = end - start - child_time[span_id]
        out[metric_of(layer, name, write)] += own * 1000.0
        if layer == "store" and write:
            out["service.ledger_calls_per_write"] += 1
        if layer == "core" and name == "step":
            out["core.steps_per_write"] += 1
        if rows is not None:
            out["store.trajectory_rows"] += rows
    out["http.transport_ms"] = (client_s - (root[4] - root[3])) * 1000.0
    return out


def report(spans_path, phase_ops: list[Result], phase_probe: list[Result]) -> dict:
    """Per-layer medians, means and the reconciliation check."""
    header, by_request = load_spans(spans_path)
    op_ids = {r.op.op_id for r in phase_ops}
    splits: dict[str, dict[str, float]] = {}
    populations: dict[str, list[str]] = {"ops": [], "write": [], "read": []}
    client_ms: dict[str, float] = {}
    for result in [*phase_ops, *phase_probe]:
        spans = by_request.get(result.op.op_id)
        if not spans:
            continue
        op_id = result.op.op_id
        # Probe latency runs from the due time; the split needs send time.
        sent_s = result.latency - result.late
        splits[op_id] = split(spans, sent_s)
        client_ms[op_id] = sent_s * 1000.0
        populations["write" if result.op.method == "POST" else "read"].append(op_id)
        if op_id in op_ids:
            populations["ops"].append(op_id)
    medians, means = {}, {}
    for metric, _unit, population in METRICS:
        values = [splits[i].get(metric, 0.0) for i in populations[population]]
        medians[metric] = statistics.median(values) if values else 0.0
        means[metric] = statistics.fmean(values) if values else 0.0
    ops = populations["ops"]
    client_p50 = statistics.median(client_ms[i] for i in ops) if ops else 0.0
    client_mean = statistics.fmean(client_ms[i] for i in ops) if ops else 0.0
    op_metrics = {m for i in ops for m in splits[i] if m.endswith("_ms")}
    layer_sum = sum(
        statistics.median(splits[i].get(m, 0.0) for i in ops) for m in op_metrics
    ) if ops else 0.0
    gap = abs(layer_sum - client_p50) / client_p50 if client_p50 else 0.0
    return {
        "medians": medians,
        "means": means,
        "shares": {
            m: 100.0 * statistics.fmean(splits[i].get(m, 0.0) for i in ops) / client_mean
            for m in sorted(op_metrics)
        } if ops and client_mean else {},
        "client_p50_ms": client_p50,
        "layer_sum_ms": layer_sum,
        "reconciled": gap <= RECONCILE_TOLERANCE,
        "gap": gap,
        "absent": header["absent"],
    }


def format_table(workload: str, layer: dict) -> str:
    lines = [
        f"layer report ({workload}; per-op medians/means over the ops each metric "
        f"concerns; share = mean over workload ops / mean client latency):",
        f"  {'metric':34} {'median':>10} {'mean':>10} {'share':>7}",
    ]
    for metric, unit, _population in METRICS:
        share = layer["shares"].get(metric)
        share_text = "" if share is None or unit != "ms" else f"{share:6.1f}%"
        lines.append(
            f"  {metric:34} {layer['medians'][metric]:10.3f} "
            f"{layer['means'][metric]:10.3f} {share_text:>7}  {unit}"
        )
    lines.append(
        f"  reconcile: sum of workload-op layer medians {layer['layer_sum_ms']:.3f} ms "
        f"vs traced client p50 {layer['client_p50_ms']:.3f} ms "
        f"(gap {100 * layer['gap']:.1f}%, tolerance {100 * RECONCILE_TOLERANCE:.0f}%): "
        + ("ok" if layer["reconciled"] else "FAILED")
    )
    if layer["absent"]:
        lines.append("  absent (not wrapped): " + ", ".join(layer["absent"]))
    return "\n".join(lines)
