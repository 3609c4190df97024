"""Process-pool shard execution: the ``(dataset, method, seed, config)`` cell.

Every sweep in this repository — the Table 4 harness, the Figure 3
synthetic grid, the ML cross-validation folds — is a list of *cells* that
are independent given their inputs.  :class:`ShardRunner` executes such a
list on a ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
while preserving three contracts the test suite pins:

**Determinism.**  A cell function must be a pure function of its payload
(seeds included — see :mod:`repro.parallel.seeds`), so the merged outcome
list is bit-identical for any worker count, including the inline
``workers=1`` path.  The runner always assembles outcomes in cell order,
never completion order.

**Isolation.**  A raising cell becomes a structured failure outcome, not
a dead sweep — this is the one place a sweep isolates errors; a
*hard-crashed* worker process (the pool breaks) degrades every cell still
in flight to a failure outcome instead of propagating
``BrokenProcessPool``.  With ``isolate_errors=False`` the runner raises
:class:`ShardError` for the first failing cell, in cell order, once every
cell has run.

**Observability.**  Each cell runs with its own in-memory observability
bundle; the per-shard ledgers, trace spans and metrics are merged back
into the parent :class:`~repro.obs.Obs` in cell order under
``shard_start`` / ``shard_merge`` framing records
(:mod:`repro.parallel.merge`), so a sharded run leaves one ordered ledger.

``spawn`` (not ``fork``) is deliberate: workers start from a fresh
interpreter, so they cannot inherit parent file descriptors — in
particular an open SQLite connection of a :class:`~repro.store.VoteLedger`,
which is neither fork-safe nor picklable.  Cells that need a ledger-backed
dataset carry a :class:`DatasetSpec` (the *path*), and each worker opens
and closes its own connection.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any

from repro.model.dataset import Dataset
from repro.obs import (
    NULL_METRICS,
    NULL_OBS,
    NULL_RUNLOG,
    NULL_TRACER,
    JsonlRunLog,
    MetricsRegistry,
    Obs,
    SpanTracer,
    get_logger,
)
from repro.resilience.errors import ResilienceError

_LOG = get_logger(__name__)

#: A cell function: module-level (picklable by reference), taking the
#: cell payload and a per-shard observability bundle.
CellFn = Callable[[Any, Obs], Any]


class ShardError(ResilienceError):
    """A shard failed under ``isolate_errors=False`` (fail-fast sweeps)."""


def resolve_workers(workers: int) -> int:
    """Normalise a ``--workers`` value: ``0`` means the CPU count."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers or os.cpu_count() or 1


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """A picklable *reference* to a dataset, materialised inside a worker.

    Sharded sweeps must not close over live resources: an open
    :class:`~repro.store.VoteLedger` holds a ``sqlite3.Connection`` that
    cannot cross a process boundary.  A spec carries only the path; each
    worker opens its own handle, reads, and closes it again.
    """

    kind: str  #: ``"json"`` (a saved dataset file) or ``"ledger"`` (SQLite).
    path: str

    _KINDS = ("json", "ledger")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown dataset spec kind {self.kind!r}; expected one of "
                f"{self._KINDS}"
            )

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "DatasetSpec":
        """A spec for a dataset JSON written by ``save_dataset``."""
        return cls(kind="json", path=os.fspath(path))

    @classmethod
    def from_ledger(cls, path: str | os.PathLike) -> "DatasetSpec":
        """A spec for a persistent vote ledger (:mod:`repro.store`).

        The returned spec never touches the caller's connection: workers
        materialising it open a fresh read connection on their side of the
        ``spawn`` boundary and close it before returning.
        """
        return cls(kind="ledger", path=os.fspath(path))

    def materialize(self) -> Dataset:
        """Load the dataset this spec points at (fresh handles only)."""
        if self.kind == "json":
            from repro.model.io import load_dataset

            return load_dataset(self.path)
        from repro.store import VoteLedger

        with VoteLedger(self.path) as ledger:
            return ledger.export_dataset()


def resolve_dataset(dataset: Dataset | DatasetSpec) -> Dataset:
    """Materialise ``dataset`` if it is a spec; return it unchanged if not."""
    if isinstance(dataset, DatasetSpec):
        return dataset.materialize()
    return dataset


@dataclasses.dataclass
class CellOutcome:
    """One executed cell: its value or isolated failure, plus shard obs.

    ``value`` is whatever the cell function returned (``None`` on
    failure); ``runlog_records`` / ``trace_events`` / ``metrics`` hold the
    shard-local observability output awaiting the ordered merge.
    """

    index: int
    label: str
    value: Any = None
    seconds: float = 0.0
    error: str | None = None
    error_type: str | None = None
    runlog_records: list[dict] = dataclasses.field(default_factory=list)
    trace_events: list[dict] = dataclasses.field(default_factory=list)
    metrics: MetricsRegistry | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass(frozen=True)
class _Capture:
    """Which observability sinks the parent wants shards to record.

    ``metrics`` is an empty registry configured like the parent's; each
    cell records into its own :meth:`~repro.obs.MetricsRegistry.fresh`
    copy, so the merge can fold histograms bucket for bucket.
    """

    runlog: bool = False
    trace: bool = False
    metrics: MetricsRegistry | None = None

    @classmethod
    def for_obs(cls, obs: Obs) -> "_Capture":
        return cls(
            runlog=obs.runlog.enabled,
            trace=obs.tracer.enabled,
            metrics=obs.metrics.fresh() if obs.metrics.enabled else None,
        )


def _execute_cell(
    fn: CellFn, index: int, label: str, payload: Any, capture: _Capture
) -> CellOutcome:
    """Run one cell under an in-memory shard bundle; never raises.

    Module-level so the ``spawn`` pool can import it by reference, and the
    *same* function serves the inline ``workers=1`` path — both paths run
    bit-identical code, which is what makes worker-count invariance a
    structural property rather than a hope.
    """
    buffer = io.StringIO() if capture.runlog else None
    metrics = capture.metrics.fresh() if capture.metrics is not None else None
    shard_obs = Obs(
        tracer=SpanTracer() if capture.trace else NULL_TRACER,
        metrics=metrics if metrics is not None else NULL_METRICS,
        runlog=JsonlRunLog(buffer) if buffer is not None else NULL_RUNLOG,
    )
    outcome = CellOutcome(index=index, label=label, metrics=metrics)
    started = time.perf_counter()
    try:
        outcome.value = fn(payload, shard_obs)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        outcome.error = str(exc)
        outcome.error_type = type(exc).__name__
    outcome.seconds = time.perf_counter() - started
    if buffer is not None:
        import json

        for line in buffer.getvalue().splitlines():
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "runlog_header":
                continue  # the parent ledger already has one
            outcome.runlog_records.append(record)
    if capture.trace:
        outcome.trace_events = list(shard_obs.tracer.events)
    return outcome


class ShardRunner:
    """Execute independent cells across a ``spawn`` process pool.

    Args:
        workers: pool size; ``0`` means the machine's CPU count, ``1``
            (default) runs every cell inline (no pool — the reference path,
            bit-identical to any pooled run).
        isolate_errors: when ``True`` (default) a raising cell becomes a
            failure :class:`CellOutcome`; when ``False`` the first failure
            in cell order raises :class:`ShardError` after all cells
            settle.
        obs: parent observability bundle.  Shard ledgers / spans / metrics
            are merged into it in cell order after the run.
        label: prefix for default cell labels and the merge framing record.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        isolate_errors: bool = True,
        obs: Obs = NULL_OBS,
        label: str = "shard",
    ) -> None:
        self.workers = resolve_workers(workers)
        self.isolate_errors = isolate_errors
        self.obs = obs
        self.label = label

    def run(
        self,
        fn: CellFn,
        payloads: Sequence[Any],
        labels: Sequence[str] | None = None,
    ) -> list[CellOutcome]:
        """Run ``fn`` over every payload; outcomes ordered by cell index."""
        from repro.parallel.merge import merge_shard_outcomes

        if labels is None:
            labels = [f"{self.label}-{i}" for i in range(len(payloads))]
        if len(labels) != len(payloads):
            raise ValueError(
                f"{len(labels)} labels for {len(payloads)} payloads"
            )
        capture = _Capture.for_obs(self.obs)
        pool_size = min(self.workers, len(payloads))
        if pool_size <= 1:
            outcomes = [
                _execute_cell(fn, i, labels[i], payload, capture)
                for i, payload in enumerate(payloads)
            ]
        else:
            outcomes = self._run_pooled(fn, payloads, labels, capture, pool_size)
        merge_shard_outcomes(self.obs, outcomes, label=self.label)
        for outcome in outcomes:
            if outcome.failed:
                _LOG.warning(
                    "%s failed after %.3fs (%s: %s)%s",
                    outcome.label,
                    outcome.seconds,
                    outcome.error_type,
                    outcome.error,
                    " — continuing sweep" if self.isolate_errors else "",
                )
        if not self.isolate_errors:
            first = next((o for o in outcomes if o.failed), None)
            if first is not None:
                raise ShardError(
                    f"{first.label} failed ({first.error_type}): {first.error}"
                )
        return outcomes

    def _run_pooled(
        self,
        fn: CellFn,
        payloads: Sequence[Any],
        labels: Sequence[str],
        capture: _Capture,
        pool_size: int,
    ) -> list[CellOutcome]:
        """The process-pool path; broken workers degrade to failure rows."""
        context = multiprocessing.get_context("spawn")
        outcomes: list[CellOutcome | None] = [None] * len(payloads)
        with ProcessPoolExecutor(
            max_workers=pool_size, mp_context=context
        ) as pool:
            futures = {
                pool.submit(
                    _execute_cell, fn, i, labels[i], payload, capture
                ): i
                for i, payload in enumerate(payloads)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        outcomes[index] = future.result()
                    except Exception as exc:  # pool/pickling/crash failures
                        outcomes[index] = CellOutcome(
                            index=index,
                            label=labels[index],
                            error=(
                                f"{exc} (hint: cells must be picklable — "
                                "pass live resources such as a VoteLedger "
                                "as a DatasetSpec path, not a handle)"
                            )
                            if "pickle" in str(exc).lower()
                            else str(exc),
                            error_type=type(exc).__name__,
                        )
        return [outcome for outcome in outcomes if outcome is not None]
