"""Append-only JSONL run ledger: the provenance of every trust estimate.

Dong et al.'s Knowledge-Based Trust line of work argues that a trust score
without the evidence trail that produced it is unauditable; the run ledger
keeps that trail for this library.  One JSON object per line, written in
execution order, so a finished file replays the run: which fact groups the
selection strategy committed at each time point, under which trust vector,
with how much entropy destroyed, and (for the iterative baselines) how
each fixpoint iteration moved.

Record kinds (all carry ``kind``; the header is always the first line of
an appended block):

``runlog_header``
    ``schema_version`` — bump when any record shape changes.
``run_start``
    ``method``, ``facts``, ``groups``, ``sources`` — one per corroboration
    run.
``trust``
    ``time_point``, ``trust`` (source → σi(s)) — the vector the facts
    selected at that time point were evaluated with; the final vector
    (Table 5's) is emitted once more at finalize time.
``round``
    ``time_point``, ``signature`` (list of ``[source, symbol]`` pairs),
    ``probability``, ``label``, ``num_facts``, ``facts``,
    ``entropy_destroyed`` (H(σ(FG)) × n, bits), ``label_flip`` (label
    overrode the Equation 2 threshold) — exactly one per
    :class:`~repro.core.incestimate.RoundRecord`, reconciling field by
    field.
``run_end``
    ``method``, ``time_points``, ``rounds``, ``facts_evaluated``,
    ``label_flips``.
``iteration``
    ``method``, ``iteration`` plus per-method convergence extras
    (``label_flips``, ``max_trust_delta``, ``converged``) — one per
    fixpoint iteration of TwoEstimate / ThreeEstimate / TruthFinder.
``ingest_report``
    ``source``, ``policy``, ``rows_read``, ``rows_kept``, ``rows_dropped``,
    ``reasons`` (reason code → count) and the itemised ``issues`` — the
    :class:`~repro.resilience.errors.IngestReport` of one validated ingest.
``method_failure``
    ``method``, ``error_type``, ``error``, ``seconds`` — a supervised sweep
    isolated this method's failure (see
    :mod:`repro.resilience.supervisor`); the method's partial ``iteration``
    / ``round`` records precede it in the ledger.
``checkpoint``
    ``event`` (``save`` / ``restore``), ``time_point`` — the
    checkpoint/resume trail of a ``--checkpoint`` run.
``ingest_batch``
    ``store``, ``batch_id``, ``batch_kind`` (``import`` / ``votes``),
    ``rows_read``, ``rows_kept``, ``new_facts``, ``new_sources`` — one
    committed batch in the persistent vote ledger (:mod:`repro.store`).
``refresh``
    ``action`` (``stream`` / ``none`` / ``skipped``), ``epoch``,
    ``dirty_facts``, ``seconds`` — one refresh decision of the
    corroboration service (:mod:`repro.serve`); ``skipped`` means the
    circuit breaker was open and the pending backlog was left for a
    later refresh.
``stream_epoch``
    ``epoch``, ``base``, ``time_points``, ``labels``, ``rows``,
    ``new_sources``, ``compact_before`` — the rows one committed refresh
    epoch wrote (:class:`~repro.stream.StreamDelta`).
``refresh_failed``
    ``reason`` (``refresh_failed``), ``error_type``, ``error``,
    ``seconds``, ``breaker`` (the breaker snapshot after recording the
    failure) — a guarded refresh raised; the ingested batch stayed
    committed and the breaker absorbed the failure instead of the client
    seeing a raw 500.
``startup_recovery``
    ``store``, ``torn_batches``, ``orphan_labels``, ``pending`` — the
    crash-recovery reconciliation report of one service startup
    (:meth:`repro.store.ledger.VoteLedger.reconcile`).
``drain``
    ``state`` — the service entered graceful drain (SIGTERM): new writes
    are rejected, in-flight requests finish, telemetry is flushed.
``serve_request``
    ``request_method``, ``path``, ``status``, ``seconds``, ``client`` (the
    peer address), ``ts`` (wall-clock seconds since the epoch) — one
    handled HTTP request of the serving API: the service's only request
    log.

``ingest_batch``, ``refresh`` and ``serve_request`` records emitted while
a request trace is bound (:func:`repro.obs.trace_scope`) additionally
carry the optional ``trace_id`` field, joining one request's records
across the HTTP, service and store layers; records from batch CLI runs
omit it, so those ledgers stay byte-identical.
``shard_start``
    ``shard`` (cell index), ``label`` — opens one shard's block in a
    merged parallel-sweep ledger (:mod:`repro.parallel.merge`); the
    shard's own records follow verbatim, in shard-local order.
``shard_merge``
    ``shards``, ``records``, ``failures`` — closes a shard merge: how many
    cells were merged, how many shard records were replayed, and how many
    cells ended as isolated failures.  Merges happen in cell order, so a
    sharded ledger is deterministic across worker counts.
``dependence_report``
    ``sources``, ``candidate_pairs``, ``scored_pairs``,
    ``truncated_pairs``, ``flagged``, ``min_lift``, ``min_shared`` (plus
    the optional ``top`` flagged pairs) — one copy-detection scan of
    :func:`repro.analysis.dependence.copying_pairs`: how many source
    pairs passed the min-shared-false prefilter, how many the candidate
    cap truncated, and how many ended flagged as likely copiers.

:data:`NULL_RUNLOG` is the no-op default; :class:`JsonlRunLog` appends to
a file (``mode="a"``: re-running a command extends the ledger, it never
rewrites history).

Crash-safety: the ledger is append-only, so it cannot go through the
write-temp-then-replace helper the whole-file artifacts use.  Instead
every record is a single ``write`` of one complete line followed by a
``flush``, so a kill can lose or truncate at most the final line — and
:func:`read_runlog` takes ``tolerate_truncation=True`` to drop exactly
that torn tail when auditing a ledger left behind by a crash.

A failed write (disk full, a yanked volume, a handle closed under the
ledger) never fails the work it records: :meth:`JsonlRunLog.emit` counts
it in ``write_errors``, warns once, and returns.  The ledger records
provenance; it is not part of the work: a vote batch that committed
stays committed and a request that succeeded still answers.  The server
exports the lost-record count on ``/metrics`` as
``repro_serve_telemetry_errors``.
"""

from __future__ import annotations

import json
import logging
import pathlib
import threading
from typing import IO

#: Bump when any record shape changes.
RUNLOG_SCHEMA_VERSION = 2

logger = logging.getLogger(__name__)

#: Required fields per record kind (beyond ``kind`` itself).
_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "runlog_header": ("schema_version",),
    "run_start": ("method", "facts", "groups", "sources"),
    "trust": ("time_point", "trust"),
    "round": (
        "time_point",
        "signature",
        "probability",
        "label",
        "num_facts",
        "facts",
        "entropy_destroyed",
        "label_flip",
    ),
    "run_end": ("method", "time_points", "rounds", "facts_evaluated", "label_flips"),
    "iteration": ("method", "iteration"),
    "ingest_report": (
        "source",
        "policy",
        "rows_read",
        "rows_kept",
        "rows_dropped",
        "reasons",
    ),
    "method_failure": ("method", "error_type", "error", "seconds"),
    "checkpoint": ("event", "time_point"),
    "ingest_batch": (
        "store",
        "batch_id",
        "batch_kind",
        "rows_read",
        "rows_kept",
        "new_facts",
        "new_sources",
    ),
    "refresh": ("action", "epoch", "dirty_facts", "seconds"),
    "stream_epoch": (
        "epoch",
        "base",
        "time_points",
        "labels",
        "rows",
        "new_sources",
        "compact_before",
    ),
    "refresh_failed": (
        "reason",
        "error_type",
        "error",
        "seconds",
        "breaker",
    ),
    "startup_recovery": ("store", "torn_batches", "orphan_labels", "pending"),
    "drain": ("state",),
    "serve_request": (
        "request_method",
        "path",
        "status",
        "seconds",
        "client",
        "ts",
    ),
    "shard_start": ("shard", "label"),
    "shard_merge": ("shards", "records", "failures"),
    "dependence_report": (
        "sources",
        "candidate_pairs",
        "scored_pairs",
        "truncated_pairs",
        "flagged",
        "min_lift",
        "min_shared",
    ),
}


class NullRunLog:
    """Ledger that writes nothing — the default."""

    __slots__ = ()

    enabled = False
    write_errors = 0

    def emit(self, kind: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullRunLog":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Process-wide no-op ledger singleton.
NULL_RUNLOG = NullRunLog()


class JsonlRunLog:
    """Append-only JSONL ledger bound to a file path or open handle."""

    enabled = True

    def __init__(self, path_or_handle: str | pathlib.Path | IO[str]) -> None:
        if hasattr(path_or_handle, "write"):
            self._handle: IO[str] = path_or_handle  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(path_or_handle, "a")
            self._owns_handle = True
        self._lock = threading.Lock()
        #: Record writes that failed (see :meth:`emit`).
        self.write_errors = 0
        self.emit("runlog_header", schema_version=RUNLOG_SCHEMA_VERSION)

    def emit(self, kind: str, **fields) -> None:
        """Append one record; tuples (signatures) serialise as JSON arrays.

        One complete line per ``write`` plus a ``flush``, so a killed
        process can leave at most one torn line at the end of the file
        (which :func:`read_runlog` can tolerate) — never interleaved or
        buffered-away records.  The write is locked: the threaded HTTP
        server emits ``serve_request`` records from concurrent handler
        threads into one shared ledger.

        A write that fails (``OSError``, or ``ValueError`` from a closed
        handle) is counted in ``write_errors`` and warned about once,
        never raised.  A record ``json.dumps`` cannot encode still raises
        ``TypeError``: that is a bug in the caller, not a failed write.
        """
        record = {"kind": kind, **fields}
        line = json.dumps(record) + "\n"
        with self._lock:
            try:
                self._handle.write(line)
                self._handle.flush()
            except (OSError, ValueError) as exc:
                self.write_errors += 1
                if self.write_errors == 1:
                    logger.warning(
                        "runlog write failed (suppressing further "
                        "warnings): %s: %s",
                        type(exc).__name__,
                        exc,
                    )

    def __getstate__(self) -> dict:
        # The lock is process-local; the parallel sweep pickles cells
        # holding buffer-backed ledgers, so drop it and rebuild.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            try:
                self._handle.close()
            except (OSError, ValueError):
                # Only a record whose write already failed (and was
                # counted) can still be buffered; the file closes anyway.
                pass

    def __enter__(self) -> "JsonlRunLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_runlog(
    path: str | pathlib.Path, *, tolerate_truncation: bool = False
) -> list[dict]:
    """Parse a runlog file into its records (blank lines skipped).

    With ``tolerate_truncation=True`` a JSON parse error on the *final*
    line is swallowed — a process killed mid-``write`` leaves exactly one
    torn trailing line, and a crash audit must still read everything
    before it.  A parse error anywhere else always raises: that is
    corruption, not truncation.
    """
    records = []
    lines: list[tuple[int, str]] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                lines.append((number, line))
    for index, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if tolerate_truncation and index == len(lines) - 1:
                break
            raise
    return records


def validate_runlog_records(records: list[dict]) -> None:
    """Raise ``ValueError`` unless ``records`` form a schema-valid ledger.

    Checks the header (first record, matching schema version), that every
    record is an object with a known ``kind``, and that each kind carries
    its required fields.  Used by the CI smoke step and the test suite.
    """
    if not records:
        raise ValueError("runlog is empty")
    header = records[0]
    if header.get("kind") != "runlog_header":
        raise ValueError(f"first record kind is {header.get('kind')!r}, "
                         "expected 'runlog_header'")
    if header.get("schema_version") != RUNLOG_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected runlog schema_version: {header.get('schema_version')!r}"
        )
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"records[{i}] is not an object")
        kind = record.get("kind")
        required = _REQUIRED_FIELDS.get(kind)  # type: ignore[arg-type]
        if required is None:
            raise ValueError(f"records[{i}] has unknown kind {kind!r}")
        missing = [field for field in required if field not in record]
        if missing:
            raise ValueError(f"records[{i}] ({kind}) is missing {missing}")
        if kind == "round":
            if not isinstance(record["facts"], list):
                raise ValueError(f"records[{i}].facts is not a list")
            if record["num_facts"] != len(record["facts"]):
                raise ValueError(
                    f"records[{i}].num_facts {record['num_facts']} != "
                    f"len(facts) {len(record['facts'])}"
                )


def validate_runlog_file(path: str | pathlib.Path) -> int:
    """Validate the ledger at ``path``; returns the number of records."""
    records = read_runlog(path)
    validate_runlog_records(records)
    return len(records)


def summarize_records(records: list[dict]) -> dict:
    """Aggregate a ledger for display: record counts plus round totals."""
    kinds: dict[str, int] = {}
    facts = 0
    entropy = 0.0
    flips = 0
    dependence_flagged = 0
    dependence_truncated = 0
    for record in records:
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "round":
            facts += record["num_facts"]
            entropy += record["entropy_destroyed"]
            if record["label_flip"]:
                flips += record["num_facts"]
        elif kind == "dependence_report":
            dependence_flagged += record.get("flagged", 0)
            dependence_truncated += record.get("truncated_pairs", 0)
    summary = {
        "records_by_kind": kinds,
        "facts_evaluated": facts,
        "entropy_destroyed_bits": round(entropy, 6),
        "label_flip_facts": flips,
    }
    if kinds.get("dependence_report"):
        summary["dependence_flagged_pairs"] = dependence_flagged
        summary["dependence_truncated_pairs"] = dependence_truncated
    return summary
