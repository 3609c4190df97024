"""Metamorphic properties of the streaming core.

Where the differential oracle pins the stream core to epoch replay,
these tests pin it to *itself* under transformations that must not
change the answer: splitting an ingest into sub-batches (one refresh at
the end), re-delivering a batch that is already fully applied, and
turning trajectory compaction on (labels and trust never depend on
compacted rows).  Plus the long-stream resource bounds: a ≥50-epoch
stream under compaction keeps the stored trajectory, the continuation
state and the peak working set bounded.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.datasets import generate_restaurants
from repro.store import VoteLedger

from tests.stream_oracle import (
    ScheduleStep,
    final_trust,
    labels_table,
    random_schedule,
    run_reference,
    run_schedule,
    trajectory_table,
    vote_rows,
)

DATASET = generate_restaurants(
    num_facts=200,
    golden_true=6,
    golden_false=4,
    golden_false_with_f_votes=2,
    seed=17,
).dataset


def semantic_state(ledger: VoteLedger):
    """What a transformation must preserve: labels, trust table, carry."""
    return (
        labels_table(ledger),
        trajectory_table(ledger),
        final_trust(ledger),
    )


# ---------------------------------------------------------------------------
# Batch-split invariance
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pieces", [2, 5])
def test_batch_split_invariance(tmp_path, pieces):
    """k sub-batch ingests + one refresh ≡ one batch ingest + refresh.

    The epoch boundary is the *refresh*, not the ingest — so slicing one
    delivery into k deliveries (no intermediate refresh) must produce
    the bit-identical store.  (Refreshing between slices would change
    the epoch partition itself, which is a different problem, not a
    metamorphic image of the same one.)
    """
    facts = DATASET.matrix.facts
    base, delta = facts[:120], facts[120:]
    whole = [
        ScheduleStep(rows=tuple(vote_rows(DATASET, base))),
        ScheduleStep(rows=tuple(vote_rows(DATASET, delta))),
    ]
    size = (len(delta) + pieces - 1) // pieces
    slices = [
        ScheduleStep(
            rows=tuple(
                vote_rows(DATASET, delta[i * size : (i + 1) * size])
            ),
            refresh=False,
        )
        for i in range(pieces - 1)
    ]
    split = [
        whole[0],
        *slices,
        ScheduleStep(
            rows=tuple(vote_rows(DATASET, delta[(pieces - 1) * size :]))
        ),
    ]
    led_whole, _, _ = run_schedule(
        tmp_path / "whole.db", whole
    )
    led_split, _, decisions = run_schedule(
        tmp_path / "split.db", split
    )
    assert [d.action for d in decisions] == ["stream", "stream"]
    assert semantic_state(led_whole) == semantic_state(led_split)
    led_whole.close()
    led_split.close()


# ---------------------------------------------------------------------------
# Idempotent re-delivery
# ---------------------------------------------------------------------------
def test_redelivery_is_idempotent(tmp_path):
    """Re-delivering an already-applied batch changes nothing.

    Every row of the repeated batch is a duplicate or stale vote, the
    quarantine policy drops them all, the refresh sees no pending facts
    and records no epoch — the store's semantic state is untouched.
    """
    schedule = random_schedule(DATASET, 23, stale=False, duplicates=False)
    led_once, _, _ = run_schedule(tmp_path / "once.db", schedule)
    redelivered = []
    for step in schedule:
        redelivered.append(step)
        redelivered.append(step)  # the exact same batch, again
    led_twice, _, decisions = run_schedule(
        tmp_path / "twice.db", redelivered
    )
    assert semantic_state(led_once) == semantic_state(led_twice)
    # The duplicate deliveries must not have produced epochs.
    assert len(led_twice.list_epochs()) == len(led_once.list_epochs())
    assert {d.action for d in decisions} == {"stream", "none"}
    led_once.close()
    led_twice.close()


# ---------------------------------------------------------------------------
# Compaction equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("retain", [4, 16])
def test_compaction_preserves_labels_and_trust(tmp_path, retain):
    """Compaction drops only history: labels, final trust and the
    *retained* trajectory suffix are bit-identical to the uncompacted
    run, the stored table respects the bound, and a cold replay still
    verifies every label — it reads the ingest log, not the trajectory."""
    schedule = random_schedule(DATASET, 29, max_batch=25)
    led_full, _, _ = run_schedule(tmp_path / "full.db", schedule)
    led_compact, service, _ = run_schedule(
        tmp_path / "compact.db", schedule, retain_points=retain
    )
    assert labels_table(led_compact) == labels_table(led_full)
    assert final_trust(led_compact) == final_trust(led_full)
    full_table = trajectory_table(led_full)
    compact_table = trajectory_table(led_compact)
    # The compacted table is exactly the tail of the uncompacted one.
    retained_points = {tp for tp, _ in compact_table}
    assert len(retained_points) <= retain
    total_points = max(tp for tp, _ in full_table) + 1
    assert retained_points == set(
        range(max(0, total_points - retain), total_points)
    )
    assert compact_table == {
        key: trust
        for key, trust in full_table.items()
        if key[0] in retained_points
    }
    # verify() persists nothing: compaction stays one-way.
    assert service.verify() == led_compact.counts()["labels"]
    assert trajectory_table(led_compact) == compact_table
    led_compact.close()
    led_full.close()


# ---------------------------------------------------------------------------
# Long-stream resource bounds
# ---------------------------------------------------------------------------
def test_long_stream_stays_bounded(tmp_path):
    """≥50 epochs under compaction: bounded table, state and memory."""
    epochs = 55
    retain = 12
    facts = DATASET.matrix.facts
    base_count = len(facts) - epochs
    assert base_count > 0
    steps = [ScheduleStep(rows=tuple(vote_rows(DATASET, facts[:base_count])))]
    steps += [
        ScheduleStep(rows=tuple(vote_rows(DATASET, [fact])))
        for fact in facts[base_count:]
    ]
    tracemalloc.start()
    ledger, _, decisions = run_schedule(
        tmp_path / "long.db", steps, retain_points=retain
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(decisions) == epochs + 1
    assert {d.action for d in decisions} == {"stream"}
    # Stored trajectory: at most `retain` time points survive.
    points = {tp for tp, _ in trajectory_table(ledger)}
    assert 0 < len(points) <= retain
    state = ledger.load_session_state()
    assert state is not None
    payload = state[1]
    assert payload["base"] > retain, "the stream really was long"
    # O(sources) continuation state: a few KB, and independent of the
    # number of epochs (counters + scalars only, no history).
    state_bytes = len(json.dumps(payload))
    sources = ledger.counts()["sources"]
    assert len(payload["counters"]) == sources
    assert state_bytes < 200 * sources + 1000
    # The 55-epoch stream's peak working set stays modest (each epoch's
    # session holds one delta instance, never the stream's history).
    assert peak < 64 * 1024 * 1024
    ledger.close()


def test_stream_state_smaller_than_replay_carry(tmp_path):
    """The stream continuation is much smaller than the epoch-replay
    reference's carry for the same long stream (O(S) vs O(T·S))."""
    schedule = random_schedule(DATASET, 31, max_batch=5)
    assert len(schedule) >= 20
    led_stream, _, _ = run_schedule(tmp_path / "s.db", schedule)
    led_replay, _ = run_reference(tmp_path / "r.db", schedule)
    stream_bytes = len(json.dumps(led_stream.load_session_state()[1]))
    replay_bytes = len(json.dumps(led_replay.load_session_state()[1]))
    assert stream_bytes * 4 < replay_bytes
    led_stream.close()
    led_replay.close()
