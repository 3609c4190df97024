"""Incremental corroboration service over a persistent vote ledger.

:class:`CorroborationService` owns one :class:`~repro.store.VoteLedger`
and keeps its labels current as vote batches arrive.  The canonical
result is defined by **epoch replay**: the ingest log partitions the
stream into refresh epochs, and each epoch runs Algorithm 1 over exactly
the facts that were pending when the refresh fired, *continuing* from the
trust state the previous epochs left behind.  This is the stream reading
of the paper's incremental algorithm — IncEstHeu's ΔH heuristic scores
against the groups still on the table, so the order votes arrived in is
part of the problem statement, not an implementation accident.

Every refresh runs on one core, :class:`~repro.stream.StreamEngine`:
it loads the stored per-source trust counters (O(sources), see
:class:`~repro.stream.StreamState`), runs only the pending facts, and
appends the epoch's labels and trajectory rows (action ``stream``) —
O(new facts).  The differential oracle in ``tests/stream_oracle.py``
proves the stream epoch bit-identical to carry/graft epoch replay:
same labels, probabilities and trust.

Cold replay has one role, :meth:`CorroborationService.verify`: a
read-only integrity check of the stored labels against the ingest log,
called explicitly and never inside a request.  See ``docs/serving.md``
and ``docs/streaming.md``.

Fault tolerance (``docs/robustness.md`` — "Serving under failure"): the
service runs a real state machine ``healthy | degraded | draining``.
Startup reconciles the ledger
(:meth:`~repro.store.ledger.VoteLedger.reconcile`) before serving.  A
refresh that raises is absorbed by a
:class:`~repro.resilience.breaker.CircuitBreaker` instead of surfacing
as a raw 500 — the ingested batch stays committed, consecutive failures
trip the service into ``degraded`` where queries keep answering from the
last-good snapshot (marked ``stale`` with the last-good epoch), and the
breaker half-opens with exponential backoff until a clean refresh
recovers it.  Writes pass admission control (a bounded pending backlog →
typed 429 + ``Retry-After``), and SIGTERM drains gracefully
(:meth:`CorroborationService.begin_drain`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable

from repro.obs import NULL_OBS, MetricsRegistry, Obs
from repro.obs.context import current_trace_id
from repro.obs.prom import render_prometheus
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.errors import ErrorPolicy
from repro.store.ledger import IngestBatch, LedgerError, VoteLedger
from repro.stream.engine import StreamDelta, StreamEngine, StreamState

#: The serving state machine, in lifecycle order.  ``/healthz`` returns
#: 503 for every state but ``healthy`` so orchestrators can gate on it.
SERVICE_STATES = ("healthy", "degraded", "draining")

#: The ``Retry-After`` hint (seconds) of a rejection or failed refresh
#: when the breaker has no backoff of its own to report.
RETRY_AFTER_S = 1.0


class ServeRejected(Exception):
    """A typed serving rejection; the HTTP layer maps it to ``status``.

    Carries a stable ``reason`` code and an optional ``retry_after``
    hint (seconds) surfaced as the ``Retry-After`` response header.
    """

    status = 503

    def __init__(
        self, message: str, *, reason: str, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class AdmissionRejected(ServeRejected):
    """Admission control refused a write: backlog or refresh debt (429)."""

    status = 429


class ServiceDraining(ServeRejected):
    """The service is draining after SIGTERM; writes are rejected (503)."""

    def __init__(self, message: str = "service is draining") -> None:
        super().__init__(message, reason="draining")


@dataclasses.dataclass(frozen=True)
class RefreshDecision:
    """What one :meth:`CorroborationService.refresh` call did."""

    action: str  # "stream" | "none" | "skipped"
    epoch: int | None
    dirty_facts: int
    seconds: float

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class RefreshFailure:
    """A guarded refresh raised; the batch stayed committed.

    Returned (never raised) by :meth:`CorroborationService
    .guarded_refresh`: the breaker recorded the failure, the pending
    backlog is intact, and the HTTP layer turns this into a typed 503
    whose body still acknowledges the ingested batch.
    """

    reason: str  # "refresh_failed": the stable code of the 503 body
    error_type: str
    error: str
    seconds: float
    breaker_state: str
    retry_after: float

    def to_record(self) -> dict:
        return {"action": "failed", **dataclasses.asdict(self)}


class CorroborationService:
    """A live corroboration session over a persistent vote ledger.

    Every refresh runs IncEstimate with the IncEstHeu heuristic
    (:class:`~repro.stream.StreamEngine`), so the stored labels are a
    function of the ingest log alone and :meth:`verify` can replay them.
    Startup runs the ledger's crash-recovery
    :meth:`~repro.store.ledger.VoteLedger.reconcile` pass before serving;
    its report is kept at :attr:`recovery_report` and emitted as a
    ``startup_recovery`` runlog record.

    Args:
        ledger: the store to serve; the service assumes exclusive access
            and serialises all operations behind one lock.
        retain_points: trajectory compaction — keep only the newest
            ``retain_points`` time points in the store (``None``, the
            default, keeps the full trajectory).  Values below 1 raise
            ``ValueError`` before the store is touched.  Compaction is
            one-way: dropped rows are never rebuilt.
        obs: observability bundle; refreshes emit ``refresh`` ledger
            records, ``serve.*`` / ``stream.*`` metrics and epoch spans.
        max_pending: admission-control budget — ``POST /votes`` is
            rejected with a typed 429 once this many facts are pending
            *and* a refresh cannot run right now (``None`` disables).
        breaker: the circuit breaker guarding the refresh path (a
            default-configured :class:`~repro.resilience.breaker
            .CircuitBreaker` when omitted).
        refresh_fault: fault-injection hook (chaos drills): called with
            the epoch at the top of every refresh that has pending work;
            raising aborts the refresh (see
            :meth:`~repro.resilience.faults.FaultPlan.failing_refreshes`).
    """

    def __init__(
        self,
        ledger: VoteLedger,
        *,
        retain_points: int | None = None,
        obs: Obs = NULL_OBS,
        max_pending: int | None = None,
        breaker: CircuitBreaker | None = None,
        refresh_fault: Callable[[int], None] | None = None,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None to disable)")
        self.stream_engine = StreamEngine(obs=obs, retain_points=retain_points)
        self.ledger = ledger
        self.obs = obs
        self.max_pending = max_pending
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.refresh_fault = refresh_fault
        self.started_at = time.time()
        self.last_refresh_at: float | None = None
        self.last_refresh_epoch: int | None = None
        self.last_refresh_action: str | None = None
        self.rejected_total = 0
        self.rejections: dict[str, int] = {}
        self._draining = False
        self._lock = threading.RLock()
        state = self.ledger.load_session_state()
        #: The epoch queries fall back to while degraded.
        self.last_good_epoch: int | None = None if state is None else state[0]
        self.recovery_report: dict = self.ledger.reconcile()
        if self.obs.enabled:
            self.obs.runlog.emit("startup_recovery", **self.recovery_report)

    @property
    def state(self) -> str:
        """The serving state: one of :data:`SERVICE_STATES`.

        Draining dominates (it is terminal); otherwise the breaker
        decides — any non-closed breaker means the labels may lag the
        votes, i.e. ``degraded``.  Recovery back to ``healthy`` is
        implicit in the breaker closing on a clean refresh.
        """
        if self._draining:
            return "draining"
        if self.breaker.state != "closed":
            return "degraded"
        return "healthy"

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def _persist(
        self, out: StreamDelta, state: StreamState, last_batch: int
    ) -> None:
        """Commit one epoch in one store transaction: labels, appended
        trajectory rows (λ-backfill for sources that joined, compaction
        below the watermark), epoch row and state."""
        stats = self.ledger.record_stream_epoch(
            epoch=out.epoch,
            last_batch=last_batch,
            labels=out.labels,
            base=out.base,
            rows=out.rows,
            new_sources=out.new_sources,
            backfill_start=out.backfill_start,
            backfill_trust=out.default_trust,
            compact_before=out.compact_before,
            time_points=out.time_points,
            state=state.to_dict(),
        )
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.inc("stream.rows_appended", stats["rows_appended"])
            metrics.inc("stream.rows_backfilled", stats["rows_backfilled"])
            metrics.inc("stream.rows_compacted", stats["rows_compacted"])
            self.obs.runlog.emit("stream_epoch", **out.to_record())

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def refresh(self) -> RefreshDecision:
        """Bring the store's labels up to date with its votes.

        Runs one stream epoch over the pending facts and persists labels,
        trajectory, epoch row and continuation state in one store
        transaction.  With nothing pending this is a cheap no-op
        (``action="none"``).

        The run is wrapped in a ``serve.refresh`` span carrying the
        request's trace ID when one is bound (see
        :mod:`repro.obs.context`).
        """
        with self._lock:
            with self.obs.tracer.span(
                "serve.refresh", **self._span_args()
            ) as span:
                decision = self._refresh_locked()
                span.add(action=decision.action, epoch=decision.epoch)
                return decision

    def _refresh_locked(self) -> RefreshDecision:
        started = time.perf_counter()
        pending = self.ledger.pending_facts()
        stored = self.ledger.load_session_state()
        if not pending:
            decision = RefreshDecision(
                action="none",
                epoch=None if stored is None else stored[0],
                dirty_facts=0,
                seconds=time.perf_counter() - started,
            )
            self._observe_refresh(decision)
            return decision
        last_batch = self.ledger.max_batch_id()
        epoch = 0 if stored is None else stored[0] + 1
        if self.refresh_fault is not None:
            # Chaos hook: an injected fault aborts here, before any label
            # is computed or persisted — exactly where a real refresh
            # failure (bad batch, storage hiccup) would surface.
            self.refresh_fault(epoch)
        state = None if stored is None else StreamState.from_stored(stored[1])
        # Vote in → bounded deltas out; the first epoch streams from scratch.
        # No reference to the epoch's matrix outlives run_epoch's own.
        out, next_state = self.stream_engine.run_epoch(
            self.ledger.epoch_dataset(pending, last_batch), state, epoch
        )
        self._persist(out, next_state, last_batch)
        decision = RefreshDecision(
            action="stream",
            epoch=epoch,
            dirty_facts=len(pending),
            seconds=time.perf_counter() - started,
        )
        self.last_good_epoch = epoch
        self._observe_refresh(decision)
        return decision

    def guarded_refresh(self) -> RefreshDecision | RefreshFailure:
        """Refresh behind the circuit breaker — the serving entry point.

        Unlike :meth:`refresh` this never raises: an open breaker skips
        the refresh (``action="skipped"``, the backlog waits), a raising
        refresh is recorded against the breaker and returned as a
        :class:`RefreshFailure` (``refresh_failed`` runlog record, typed
        503 upstream), and a clean refresh closes the breaker — which is
        what moves the service ``degraded`` → ``healthy``.
        """
        with self._lock:
            if not self.breaker.allow():
                return self._skip_refresh()
            started = time.perf_counter()
            try:
                decision = self.refresh()
            except Exception as exc:
                return self._refresh_failed(exc, time.perf_counter() - started)
            self.breaker.record_success()
            return decision

    def _skip_refresh(self) -> RefreshDecision:
        """The breaker is open: leave the backlog for a later refresh."""
        decision = RefreshDecision(
            action="skipped",
            epoch=self.last_good_epoch,
            dirty_facts=len(self.ledger.pending_facts()),
            seconds=0.0,
        )
        self._observe_refresh(decision)
        return decision

    def _refresh_failed(self, exc: Exception, seconds: float) -> RefreshFailure:
        self.breaker.record_failure(f"{type(exc).__name__}: {exc}")
        failure = RefreshFailure(
            reason="refresh_failed",
            error_type=type(exc).__name__,
            error=str(exc),
            seconds=seconds,
            breaker_state=self.breaker.state,
            retry_after=self.breaker.retry_in() or RETRY_AFTER_S,
        )
        obs = self.obs
        if obs.enabled:
            obs.metrics.inc("serve.refresh.failed")
            obs.metrics.set_gauge(
                "serve.staleness_facts", len(self.ledger.pending_facts())
            )
            obs.metrics.set_gauge("serve.breaker_trips", self.breaker.trips)
            record = {
                "reason": failure.reason,
                "error_type": failure.error_type,
                "error": failure.error,
                "seconds": failure.seconds,
                "breaker": self.breaker.to_record(),
            }
            trace_id = current_trace_id()
            if trace_id is not None:
                record["trace_id"] = trace_id
            obs.runlog.emit("refresh_failed", **record)
        return failure

    def _count_rejection(self, reason: str) -> None:
        self.rejected_total += 1
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        if self.obs.enabled:
            # Exposed as ``repro_serve_rejected_total`` (+ per-reason).
            self.obs.metrics.inc("serve.rejected")
            self.obs.metrics.inc(f"serve.rejected.{reason}")

    def _admit(self, *, refresh: bool) -> None:
        """Admission control for one write; raises a typed rejection.

        Draining rejects every write.  Otherwise a write is rejected
        only when the pending backlog has hit ``max_pending`` *and* this
        request cannot clear it — either it carries ``refresh=false`` or
        the breaker's cool-down has not elapsed.  A refresh-bearing
        request the breaker would let run is always admitted: rejecting
        it would starve the half-open probe and deadlock recovery.
        """
        if self._draining:
            self._count_rejection("draining")
            raise ServiceDraining()
        if self.max_pending is None:
            return
        pending = self.ledger.counts()["pending"]
        if pending < self.max_pending:
            return
        if refresh and self.breaker.allow():
            return
        reason = (
            "refresh_debt" if self.breaker.state != "closed" else "backlog_full"
        )
        retry_after = self.breaker.retry_in() or RETRY_AFTER_S
        self._count_rejection(reason)
        raise AdmissionRejected(
            f"pending backlog {pending} >= max_pending {self.max_pending}",
            reason=reason,
            retry_after=retry_after,
        )

    def begin_drain(self) -> dict:
        """Enter graceful drain (idempotent); returns the health payload.

        New writes are rejected with a typed 503 (reason ``draining``),
        reads keep answering, and ``/healthz`` reports ``draining`` so
        orchestrators stop routing.  The CLI calls this from its SIGTERM
        handler before stopping the accept loop.
        """
        with self._lock:
            if not self._draining:
                self._draining = True
                if self.obs.enabled:
                    self.obs.metrics.inc("serve.drain")
                    self.obs.runlog.emit("drain", state="draining")
            return self.healthz()

    def apply_votes(
        self,
        rows,
        *,
        on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
        refresh: bool = True,
    ) -> tuple[IngestBatch, RefreshDecision | RefreshFailure | None]:
        """Ingest one vote batch and (by default) refresh the labels.

        Admission control runs first (typed 429/503 rejections), then
        the ingest commits its own transaction, then the refresh runs
        behind the circuit breaker — so a refresh exception can never
        half-apply the batch: the votes stay committed and the outcome
        reports a :class:`RefreshFailure` (or an ``action="skipped"``
        decision while the breaker is open) instead of propagating.
        """
        with self._lock:
            self._admit(refresh=refresh)
            batch = self.ledger.ingest_votes(rows, on_error=on_error)
            if refresh:
                return batch, self.guarded_refresh()
            if self.obs.enabled:
                self.obs.metrics.set_gauge(
                    "serve.staleness_facts", len(self.ledger.pending_facts())
                )
            return batch, None

    def verify(self) -> int:
        """Cold-replay the full log against the stored labels.

        The service's only cold replay: read-only, called explicitly,
        never inside a request.  Each committed epoch re-runs from the
        ingest log on the exact delta it originally saw, and its labels
        must equal the stored ones exactly — no tolerance; a mismatch
        means the store and the log disagree and raises
        :class:`~repro.store.LedgerError`.  Nothing is persisted, and the
        replay never reads the trajectory, so a compacted store verifies
        too.  Returns the number of labelled facts checked.
        """
        with self._lock:
            stored = self.ledger.labels_map()
            state: StreamState | None = None
            for row in self.ledger.list_epochs():
                epoch = int(row["epoch"])
                facts = self.ledger.facts_in_epoch(epoch)
                out, state = self.stream_engine.run_epoch(
                    self.ledger.epoch_dataset(facts, int(row["last_batch"])),
                    state,
                    epoch,
                )
                for label in out.labels:
                    fact = label.fact
                    kept = stored[fact]
                    if (
                        label.probability != kept["probability"]
                        or int(label.label) != kept["label"]
                        or int(label.flipped) != kept["flipped"]
                    ):
                        raise LedgerError(
                            f"replay mismatch at epoch {epoch}, fact {fact!r}: "
                            f"stored probability {kept['probability']!r}, "
                            f"replayed {label.probability!r}"
                        )
            return self.ledger.counts()["labels"]

    def _span_args(self, **args) -> dict:
        trace_id = current_trace_id()
        if trace_id is not None:
            args["trace_id"] = trace_id
        return args

    def _annotate_staleness(self, record: dict | None) -> dict | None:
        """Degraded-mode read contract: last-good snapshot, marked stale.

        While the breaker is non-closed the stored labels may lag the
        votes, so every query answer carries ``stale: true`` plus the
        last epoch that committed cleanly — explicit staleness instead
        of refusing reads (the Knowledge-Based Trust serving posture).
        """
        if record is not None and self.state == "degraded":
            record = dict(record)
            record["stale"] = True
            record["last_good_epoch"] = self.last_good_epoch
        return record

    def fact(self, fact_id: str) -> dict | None:
        with self._lock:
            started = time.perf_counter()
            with self.obs.tracer.span(
                "serve.query", **self._span_args(kind="fact")
            ):
                record = self.ledger.fact_record(fact_id)
            if self.obs.enabled:
                self.obs.metrics.observe(
                    "serve.query_seconds", time.perf_counter() - started
                )
            return self._annotate_staleness(record)

    def source_trust(self, source_id: str) -> dict | None:
        with self._lock:
            started = time.perf_counter()
            with self.obs.tracer.span(
                "serve.query", **self._span_args(kind="source_trust")
            ):
                record = self.ledger.source_record(source_id)
            if self.obs.enabled:
                self.obs.metrics.observe(
                    "serve.query_seconds", time.perf_counter() - started
                )
            return self._annotate_staleness(record)

    def healthz(self) -> dict:
        with self._lock:
            counts = self.ledger.counts()
            return {
                "status": self.state,
                # The one served algorithm; kept for clients that read it.
                "method": "incestimate",
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "pending": counts["pending"],
                "facts": counts["facts"],
                "epochs": counts["epochs"],
                "last_good_epoch": self.last_good_epoch,
                "breaker": self.breaker.to_record(),
            }

    def _refresh_age(self) -> float | None:
        if self.last_refresh_at is None:
            return None
        return max(0.0, time.time() - self.last_refresh_at)

    def statusz(self) -> dict:
        """The full serving status snapshot (the ``/statusz`` payload).

        Ledger row counts, ingest/quarantine totals, the last refresh
        (epoch, action, age in seconds) and — when a metrics registry is
        attached — request counts and latency quantile summaries for the
        request and refresh histograms.
        """
        with self._lock:
            counts = self.ledger.counts()
            status: dict = {
                "status": self.state,
                "method": "incestimate",
                "compaction": {
                    "retain_points": self.stream_engine.retain_points,
                },
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "counts": counts,
                "pending": counts["pending"],
                "last_good_epoch": self.last_good_epoch,
                "breaker": self.breaker.to_record(),
                "admission": {
                    "max_pending": self.max_pending,
                    "rejected_total": self.rejected_total,
                    "rejections": dict(self.rejections),
                },
                "recovery": self.recovery_report,
                "ingest": self.ledger.ingest_totals(),
                "last_refresh": None
                if self.last_refresh_at is None
                else {
                    "epoch": self.last_refresh_epoch,
                    "action": self.last_refresh_action,
                    "at": round(self.last_refresh_at, 3),
                    "age_seconds": round(self._refresh_age() or 0.0, 3),
                },
            }
            metrics = self.obs.metrics
            if isinstance(metrics, MetricsRegistry):
                status["requests"] = metrics.counter("serve.requests")
                status["slow_requests"] = metrics.counter("serve.slow_requests")
                status["latency"] = {
                    "request_seconds": metrics.histogram_summary(
                        "serve.request_seconds"
                    ),
                    "refresh_seconds": metrics.histogram_summary(
                        "serve.refresh_seconds"
                    ),
                }
            return status

    def prometheus_text(self) -> str:
        """The ``/metrics`` exposition body (Prometheus text 0.0.4).

        The metrics registry (when one is attached) plus point-in-time
        serving gauges — uptime, pending facts, last-refresh epoch/age,
        ledger row counts, quarantine totals and the run-ledger records
        lost to failed writes — so a scrape needs no second endpoint.
        """
        with self._lock:
            counts = self.ledger.counts()
            ingest = self.ledger.ingest_totals()
            extra = {
                "serve.uptime_seconds": round(time.time() - self.started_at, 3),
                "serve.pending_facts": counts["pending"],
                "store.facts": counts["facts"],
                "store.sources": counts["sources"],
                "store.votes": counts["votes"],
                "store.labels": counts["labels"],
                "store.epochs": counts["epochs"],
                "store.ingest_rows_read": ingest["rows_read"],
                "store.ingest_rows_kept": ingest["rows_kept"],
                "store.ingest_rows_dropped": ingest["rows_dropped"],
                "serve.telemetry_errors": self.obs.runlog.write_errors,
            }
            extra["serve.breaker_open"] = (
                0 if self.breaker.state == "closed" else 1
            )
            extra["serve.draining"] = 1 if self._draining else 0
            if self.last_good_epoch is not None:
                extra["serve.last_good_epoch"] = self.last_good_epoch
            if self.last_refresh_epoch is not None:
                extra["serve.last_refresh_epoch"] = self.last_refresh_epoch
            age = self._refresh_age()
            if age is not None:
                extra["serve.refresh_age_seconds"] = round(age, 3)
            metrics = self.obs.metrics
            registry = metrics if isinstance(metrics, MetricsRegistry) else None
            return render_prometheus(registry, extra_gauges=extra)

    def _observe_refresh(self, decision: RefreshDecision) -> None:
        self.last_refresh_at = time.time()
        self.last_refresh_epoch = decision.epoch
        self.last_refresh_action = decision.action
        obs = self.obs
        if not obs.enabled:
            return
        obs.metrics.inc(f"serve.refresh.{decision.action}")
        if decision.action == "skipped":
            # The breaker held the refresh back: the backlog stays dirty.
            obs.metrics.set_gauge("serve.staleness_facts", decision.dirty_facts)
        else:
            obs.metrics.inc("serve.facts_labelled", decision.dirty_facts)
            obs.metrics.observe("serve.refresh_seconds", decision.seconds)
            # A completed refresh leaves nothing pending by construction.
            obs.metrics.set_gauge("serve.staleness_facts", 0)
        record = decision.to_record()
        trace_id = current_trace_id()
        if trace_id is not None:
            record["trace_id"] = trace_id
        obs.runlog.emit("refresh", **record)
