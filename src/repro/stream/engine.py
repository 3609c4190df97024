"""The streaming refresh engine and its bounded continuation state.

Within one epoch, Equations 3–9 depend on exactly three things: the
pending fact groups, the per-source counters ``(correct, total)``
anchored by the epoch-0 prior k0 (Equation 8), and the source order
(tie breaks).  The trust history is bookkeeping — it is *recorded* but
never *read* by a later step.  So :class:`StreamState` carries the
counter triples plus three scalars, O(sources) however long the stream
runs, and each refresh:

1. builds a session over the epoch's delta dataset (pending facts, all
   known sources in store position order) that starts from the carried
   triples — new sources enter with ``[λ·k0, k0, λ]``, the counters of a
   voteless source present from the start;
2. runs to completion and emits a :class:`StreamDelta`: the epoch's
   label rows and its **new** trajectory rows only, positioned at the
   global time-point offset ``base``, with the next state's triples read
   from the live session (never a snapshot, so any source count works).

This is the only refresh core (:mod:`repro.serve`).  Its reference is
epoch replay: re-running every epoch with the *entire* post-finalize
session snapshot — full trust history, all committed probabilities,
every round record — grafted into the next epoch's session.  A grafted
replay epoch records its steps at global time points ``base … base+n``,
while the fresh stream session records the *same trust values* at local
points ``0 … n`` — the seeded counters are equal, and the first
recorded vector of both is the previous epoch's final vector extended
with λ for new sources.  Shifting the local rows by ``base`` therefore
reproduces the replayed table row for row, and label time points shift
the same way.  The differential oracle (``tests/stream_oracle.py``)
keeps that reference and asserts the identity bit for bit.

``retain_points`` bounds the *persisted* trajectory: a watermark
``compact_before`` rises so at most ``retain_points`` time points stay
in the store, and the engine's own state never grows with stream length
at all (it is O(S)).  Compaction is one-way and lossy only for the
recorded history: labels and trust are unaffected, because no later
epoch reads the trajectory, and ``verify()`` still cold-replays the
ingest log against the stored labels.

The per-epoch session always runs on the array engine
(:class:`~repro.core.arrays.SessionArrays`), so candidate scoring inside
each epoch goes through the :class:`~repro.core.deltah.DeltaHEngine`
pair cache with lazy invalidation — only (candidate, other) pairs among
the groups the vote batch touched are ever rescored.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping
from typing import NamedTuple

from repro.core.incestimate import IncEstimate
from repro.core.selection import IncEstHeu
from repro.model.dataset import Dataset
from repro.obs import NULL_OBS, Obs
from repro.store.ledger import LedgerError
from repro.store.schema import STREAM_STATE_FORMAT


@dataclasses.dataclass
class StreamState:
    """The O(sources) continuation state between stream epochs.

    ``counters`` maps source id → ``[correct, total, trust]`` in store
    position order; ``prior`` is the epoch-0 anchor k0; ``base`` is the
    total number of trajectory time points emitted so far (the global
    offset of the next epoch's first row); ``compacted_before`` is the
    store-side compaction watermark.
    """

    epoch: int
    prior: float
    base: int
    counters: dict[str, list[float]]
    compacted_before: int = 0

    def to_dict(self) -> dict:
        return {
            "format": STREAM_STATE_FORMAT,
            "epoch": self.epoch,
            "prior": self.prior,
            "base": self.base,
            "sources": list(self.counters),
            "counters": self.counters,
            "compacted_before": self.compacted_before,
        }

    @classmethod
    def from_stored(cls, state: dict) -> "StreamState":
        """Load the continuation state a store holds (schema v4 and up)."""
        if state.get("format") != STREAM_STATE_FORMAT:
            raise LedgerError(
                f"not a {STREAM_STATE_FORMAT} state: {state.get('format')!r}"
            )
        counters = state["counters"]
        return cls(
            epoch=int(state["epoch"]),
            prior=float(state["prior"]),
            base=int(state["base"]),
            counters={
                str(s): [float(x) for x in counters[s]]
                for s in state["sources"]
            },
            compacted_before=int(state.get("compacted_before", 0)),
        )


class LabelRow(NamedTuple):
    """One fact's label row: tuple-sized, since an epoch emits one per
    pending fact (36,916 in a bootstrap of the restaurant store)."""

    fact: str
    probability: float
    label: bool
    flipped: bool
    time_point: int


@dataclasses.dataclass(frozen=True)
class StreamDelta:
    """One stream epoch's bounded output: new labels and new rows only.

    ``rows`` are the epoch's local trajectory vectors (full, per-source);
    row ``i`` belongs at global time point ``base + i``.  ``new_sources``
    joined this epoch and need λ-backfill rows over the retained range
    ``[backfill_start, base)`` so the stored table stays identical to the
    replayed one (replay densifies history with λ for late sources).
    ``compact_before`` is the post-epoch watermark: the store drops every
    time point below it.
    """

    epoch: int
    base: int
    time_points: int
    labels: list[LabelRow]
    rows: list[dict[str, float]]
    new_sources: list[str]
    backfill_start: int
    compact_before: int
    default_trust: float

    def to_record(self) -> dict:
        """Runlog-sized summary (the full rows stay out of the ledger)."""
        return {
            "epoch": self.epoch,
            "base": self.base,
            "time_points": self.time_points,
            "labels": len(self.labels),
            "rows": len(self.rows),
            "new_sources": len(self.new_sources),
            "compact_before": self.compact_before,
        }


class StreamEngine:
    """Runs refresh epochs directly off the vote stream (no replay).

    Stateless between calls — all continuation state lives in the
    :class:`StreamState` the caller threads through — so one engine can
    serve any number of stores and an engine crash loses nothing.  Every
    epoch runs IncEstimate with the IncEstHeu heuristic on the array
    engine: a store's labels are a function of its ingest log alone,
    which is what ``CorroborationService.verify()`` replays.

    Args:
        obs: observability bundle; each epoch runs under a
            ``stream.epoch`` span and bumps ``stream.*`` metrics.
        retain_points: keep only the newest ``retain_points`` trajectory
            time points in the store (``None``, the default, keeps the
            full trajectory).  The watermark only ever rises, and the
            continuation state never contains trajectory rows.
    """

    def __init__(
        self,
        *,
        obs: Obs = NULL_OBS,
        retain_points: int | None = None,
    ) -> None:
        if retain_points is not None and retain_points < 1:
            raise ValueError("retain_points must be >= 1 (or None to disable)")
        self.obs = obs
        self.retain_points = retain_points

    def run_epoch(
        self,
        delta: Dataset,
        state: StreamState | None,
        epoch: int,
    ) -> tuple[StreamDelta, StreamState]:
        """Run one epoch over ``delta`` continuing from ``state``.

        ``delta`` is the epoch's problem instance — the pending facts and
        every known source in store position order
        (:meth:`~repro.store.ledger.VoteLedger.epoch_dataset`).
        ``state=None`` starts a stream from scratch (epoch 0).  The epoch
        always runs to completion: Algorithm 1 labels nothing until every
        pending fact is evaluated, so an epoch stopped part-way would only
        be redone, larger, by the next refresh.

        Returns ``(delta_out, next_state)``; the caller persists
        ``delta_out`` (e.g. via :meth:`~repro.store.ledger.VoteLedger
        .record_stream_epoch`) and threads ``next_state`` into the next
        call.  The epoch's matrix is released before the label rows are
        built, so pass ``delta`` without keeping a reference to it: one
        copy of the epoch's inputs is alive at a time.
        """
        started = time.perf_counter()
        estimator = IncEstimate(IncEstHeu(), obs=self.obs)
        facts = delta.matrix.facts
        sources = delta.matrix.sources
        with self.obs.tracer.span("stream.epoch", epoch=epoch, facts=len(facts)):
            if state is None:
                prior = estimator.trust_prior_strength * len(facts)
                base = 0
                compacted = 0
                known: Mapping[str, list[float]] = {}
            else:
                prior = float(state.prior)
                base = int(state.base)
                compacted = int(state.compacted_before)
                known = state.counters
                if list(known) != sources[: len(known)]:
                    raise LedgerError(
                        "carried sources are not a prefix of the delta source "
                        "list; the store's position order was violated"
                    )
            session = estimator.session(delta, counters=known, prior=prior)
            result = session.run_to_completion()
            counters = session.counters()
        # The label rows below are the epoch's memory high-water mark;
        # neither the finished session's arrays nor the matrix need be
        # alive for it.
        del session, delta
        rows = result.trajectory.as_rows()
        labels = [
            LabelRow(
                fact,
                result.probabilities[fact],
                result.label(fact),
                fact in result.label_overrides,
                base + result.trajectory.evaluation_time(fact),
            )
            for fact in facts
        ]
        total = base + len(rows)
        compact_before = (
            compacted
            if self.retain_points is None
            else max(compacted, total - self.retain_points)
        )
        next_state = StreamState(
            epoch=epoch,
            prior=prior,
            base=total,
            counters=counters,
            compacted_before=compact_before,
        )
        delta_out = StreamDelta(
            epoch=epoch,
            base=base,
            time_points=total,
            labels=labels,
            rows=rows,
            new_sources=sources[len(known) :],
            backfill_start=max(compacted, compact_before),
            compact_before=compact_before,
            default_trust=estimator.default_trust,
        )
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.inc("stream.epochs")
            metrics.inc("stream.labels", len(labels))
            metrics.inc("stream.rows_emitted", len(rows))
            metrics.observe(
                "stream.epoch_seconds", time.perf_counter() - started
            )
            metrics.set_gauge("stream.state_points", total)
            metrics.set_gauge("stream.compacted_before", compact_before)
        return delta_out, next_state
