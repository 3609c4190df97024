"""Differential fuzz: the stream core vs carry/graft epoch replay.

Every test here feeds one seeded adversarial batch schedule (random
batch sizes, in-batch reordering, duplicate and stale re-deliveries) to
the service and to the epoch-replay reference and requires the two
stores to come out bit-identical — labels, trust trajectory, epoch
accounting and final continuation trust.  The service runs the array
engine; it is held to the reference running on the engine and on the
scalar oracle (``tests/scalar_reference.py``), and the counters-seeded
session a stream epoch runs is held to the oracle directly.  The helpers
and the reference live in ``tests/stream_oracle.py``.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3

import pytest

from repro.core.incestimate import IncEstimate
from repro.core.selection import IncEstHeu
from repro.core.session import CorroborationSession
from repro.datasets import (
    generate_hubdub_like,
    generate_restaurants,
    generate_sparse_synthetic,
)
from repro.serve import CorroborationService
from repro.store import SCHEMA_VERSION, LedgerError, VoteLedger
from repro.store.schema import schema_version, stream_state_from_carry
from repro.stream import STREAM_STATE_FORMAT, StreamEngine, StreamState

from tests.scalar_reference import ScalarIncEstimate
from tests.stream_oracle import (
    REFERENCE_CARRY,
    ReferenceReplay,
    assert_identical,
    continue_reference,
    continue_schedule,
    copy_as_v3,
    random_schedule,
    run_differential,
    run_reference,
    run_schedule,
)
from tests.test_engine_equivalence import assert_results_identical

RESTAURANTS = generate_restaurants(
    num_facts=150,
    golden_true=6,
    golden_false=4,
    golden_false_with_f_votes=2,
    seed=7,
).dataset
HUBDUB = generate_hubdub_like(
    num_questions=12, num_users=20, num_answer_facts=30, seed=5
).questions.to_dataset()
SPARSE = generate_sparse_synthetic(
    num_facts=400,
    num_sources=80,
    num_templates=40,
    num_hubs=12,
    seed=11,
).dataset

# Its store registers 1,219 sources, past the 1,024 at which the old
# grouping changed shape.
WIDE = generate_sparse_synthetic(
    num_facts=600,
    num_sources=2000,
    num_templates=600,
    num_hubs=8,
    hub_bias=0.0,
    min_voters=4,
    max_voters=6,
    seed=11,
).dataset

DATASETS = {
    "restaurants": RESTAURANTS,
    "hubdub-like": HUBDUB,
    "sparse-synthetic": SPARSE,
    "sparse-wide": WIDE,
}

#: Per-world schedule options: larger batches keep the wide world to 6–9
#: epochs (57+ at the default 40 facts per batch).
SCHEDULE_OPTIONS = {"sparse-wide": {"max_batch": 150}}


# ---------------------------------------------------------------------------
# Acceptance: fuzzed schedules, four worlds, reference on engine and oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "reference_engine", [True, False], ids=["arrays", "scalar"]
)
@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_schedules_bit_identical(tmp_path, name, reference_engine, seed):
    dataset = DATASETS[name]
    schedule = random_schedule(dataset, seed, **SCHEDULE_OPTIONS.get(name, {}))
    assert len(schedule) >= 2, "schedule must span multiple epochs"
    stream_decisions, reference_decisions, _ = run_differential(
        tmp_path, schedule, engine=reference_engine, tag=f"{name}-{seed}"
    )
    if dataset is WIDE:
        # Guards the world against drifting back under the limit.
        with VoteLedger(tmp_path / f"{name}-{seed}-service.db") as ledger:
            assert ledger.counts()["sources"] > 1024
    stream_actions = {d.action for d in stream_decisions}
    assert stream_actions <= {"stream", "none"}
    assert "stream" in stream_actions
    assert {d.action for d in reference_decisions} <= {
        "full",
        "incremental",
        "none",
    }


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_seeded_session_bit_identical_across_backends(name):
    # A stream epoch's session starts from carried counters.  Carry half
    # the sources (a prefix, as a stored state is) from a finished session
    # over the first half of the facts; the rest enter at [λ·k0, k0, λ].
    dataset = DATASETS[name]
    facts = dataset.matrix.facts
    sources = dataset.matrix.sources
    head, tail = facts[: len(facts) // 2], facts[len(facts) // 2 :]
    estimator = IncEstimate(IncEstHeu())
    first = estimator.session(dataset.restricted_to(head))
    first.run_to_completion()
    counters = first.counters()
    carried = {s: counters[s] for s in sources[: len(sources) // 2]}
    prior = estimator.trust_prior_strength * len(head)
    delta = dataset.restricted_to(tail)

    def run(method):
        session = method(IncEstHeu()).session(delta, counters=carried, prior=prior)
        return session, session.run_to_completion()

    arrays, engine_result = run(IncEstimate)
    oracle, oracle_result = run(ScalarIncEstimate)
    assert_results_identical(engine_result, oracle_result)
    assert arrays.counters() == oracle.counters()


def test_epochs_table_records_stream_action(tmp_path):
    schedule = random_schedule(RESTAURANTS, 3)
    ledger, _, _ = run_schedule(tmp_path / "actions.db", schedule)
    epochs = ledger.list_epochs()
    assert {row["action"] for row in epochs} == {"stream"}
    assert {row["entropy_mass"] for row in epochs} == {None}
    state = ledger.load_session_state()
    assert state is not None
    assert state[1]["format"] == STREAM_STATE_FORMAT
    ledger.close()


# ---------------------------------------------------------------------------
# Core switching mid-stream: a v3 store's replay carry upgrades to stream
# state (schema v4); the replay reference takes over a stream-written store
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "first_core,second_core",
    [("replay", "stream"), ("stream", "replay")],
)
def test_core_switch_mid_stream(tmp_path, first_core, second_core):
    schedule = random_schedule(RESTAURANTS, 13)
    assert len(schedule) >= 2
    cut = len(schedule) // 2 or 1
    path = tmp_path / "switched.db"
    if first_core == "replay":
        half, _ = run_reference(tmp_path / "half.db", schedule[:cut])
        half.close()
        copy_as_v3(tmp_path / "half.db", path)
        conn = sqlite3.connect(path)
        assert schema_version(conn) == 3
        carry = json.loads(
            conn.execute("SELECT state FROM session_state").fetchone()[0]
        )
        actions = [row[0] for row in conn.execute("SELECT action FROM epochs")]
        conn.close()
        assert carry["format"] == REFERENCE_CARRY
        assert "incremental" in actions
    else:
        half, _, _ = run_schedule(path, schedule[:cut])
        half.close()

    switched = VoteLedger(path)  # opening a v3 store runs the v4 upgrade
    try:
        if second_core == "stream":
            stored = switched.load_session_state()
            assert stored is not None
            state = StreamState.from_stored(stored[1])
            assert state.base == carry["time_point"]
            assert state.counters == carry["counters"]
            assert state.prior == carry["prior"]
            # Historical epoch rows keep their tags.
            assert [row["action"] for row in switched.list_epochs()] == actions
            service = CorroborationService(switched)
            decisions = continue_schedule(service, schedule[cut:])
            # A replay carry converts in place — no rebuild epoch.
            assert {d.action for d in decisions} <= {"stream", "none"}
        else:
            decisions = continue_reference(
                ReferenceReplay(switched), schedule[cut:]
            )
            # The reference rebuilds its carry once from the log (checking
            # every label the stream core committed), then carries.
            actions = [d.action for d in decisions if d.action != "none"]
            assert actions[0] == "full"
            assert set(actions[1:]) <= {"incremental"}
        reference, _ = run_reference(tmp_path / "reference.db", schedule)
        assert_identical(switched, reference)
        reference.close()
        if second_core == "stream":
            assert service.verify() == switched.counts()["labels"]
    finally:
        switched.close()
    if second_core == "stream":
        conn = sqlite3.connect(path)
        assert schema_version(conn) == SCHEMA_VERSION == 4
        conn.close()
        # The upgrade is one-shot: reopening finds a current store.
        with VoteLedger(path) as reopened:
            stored = reopened.load_session_state()
            assert stored[1]["format"] == STREAM_STATE_FORMAT


# ---------------------------------------------------------------------------
# State-format unit guards
# ---------------------------------------------------------------------------
def test_stream_state_round_trips():
    state = StreamState(
        epoch=4,
        prior=37.5,
        base=11,
        counters={"a": [1.0, 2.0, 0.5], "b": [0.25, 1.0, 0.25]},
        compacted_before=3,
    )
    assert StreamState.from_stored(state.to_dict()) == state
    # The store keeps it as JSON text.
    assert StreamState.from_stored(json.loads(json.dumps(state.to_dict()))) == state


def test_stream_state_rejects_unknown_format():
    with pytest.raises(LedgerError):
        StreamState.from_stored({"format": "not-a-state"})
    # A v4 store holds one format; a replay carry is converted at open.
    with pytest.raises(LedgerError):
        StreamState.from_stored({"format": "serve-epoch-carry"})


def test_compaction_policy_validation():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="retain_points"):
            StreamEngine(retain_points=bad)
    first, state = StreamEngine().run_epoch(RESTAURANTS, None, 0)
    assert first.time_points > 5
    assert first.compact_before == 0  # no bound: the full trajectory stays

    def watermark(retain_points, previous):
        engine = StreamEngine(retain_points=retain_points)
        carried = dataclasses.replace(state, compacted_before=previous)
        out, _ = engine.run_epoch(RESTAURANTS, carried, 1)
        return out.time_points, out.compact_before

    # The newest retain_points time points stay; the watermark never
    # regresses, and without a bound it stays where it was.
    points, compact_before = watermark(5, 0)
    assert compact_before == points - 5
    assert watermark(10**6, 9)[1] == 9
    assert watermark(None, 4)[1] == 4


def test_replay_carry_conversion_rejects_wrong_format():
    with pytest.raises(ValueError, match="unknown continuation state"):
        stream_state_from_carry({"format": "serve-stream-state"})


def test_stream_engine_supervised_epoch_emits_metrics():
    from repro.obs import make_obs

    obs = make_obs(metrics=True)
    engine = StreamEngine(obs=obs, retain_points=4)
    delta, state = engine.run_epoch(RESTAURANTS, None, 0)
    snap = obs.metrics.snapshot()
    assert snap["counters"]["stream.epochs"] == 1.0
    assert snap["counters"]["stream.rows_emitted"] == float(len(delta.rows))
    assert snap["gauges"]["stream.compacted_before"] == float(
        delta.compact_before
    )
    assert "stream.epoch_seconds" in snap["histograms"]
    # to_record() is the runlog-sized summary: counts, never the rows.
    record = delta.to_record()
    assert record["labels"] == len(delta.labels)
    assert record["rows"] == len(delta.rows)
    assert record["compact_before"] == delta.compact_before
    assert "counters" not in record
    assert state.compacted_before == delta.compact_before


def test_stream_epoch_requires_prefix_order():
    state = StreamState(
        epoch=0,
        prior=10.0,
        base=2,
        counters={"not-a-real-source": [1.0, 2.0, 0.5]},
    )
    with pytest.raises(LedgerError, match="prefix"):
        StreamEngine().run_epoch(RESTAURANTS, state, 1)


def test_stream_epochs_never_checkpoint(tmp_path, monkeypatch):
    # Each epoch seeds its session from the carried counters and reads
    # them back live; a snapshot or restore anywhere on the way (serving
    # or the verify() replay) is a regression.
    def refuse(self, *args):
        raise AssertionError("a stream epoch must not checkpoint its session")

    monkeypatch.setattr(CorroborationSession, "snapshot", refuse)
    monkeypatch.setattr(CorroborationSession, "restore", refuse)
    schedule = random_schedule(RESTAURANTS, 3)[:3]
    ledger, service, decisions = run_schedule(
        tmp_path / "no-checkpoint.db", schedule
    )
    try:
        assert [d.action for d in decisions] == ["stream"] * 3
        assert service.verify() == ledger.counts()["labels"]
    finally:
        ledger.close()
