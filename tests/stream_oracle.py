"""Epoch-replay reference and differential oracle for the refresh core.

The service runs every refresh on the stream engine (:mod:`repro.stream`).
This module keeps the definition that engine must reproduce: **carry/
graft epoch replay**.  Each epoch builds a fresh session over its delta
(pending facts, every known source), grafts the *entire* post-finalize
snapshot of the previous epoch into it — full trust history, committed
probabilities, verdict history, counters — runs it, and persists by
rewriting the whole trust trajectory.  It is deliberately independent of
the production core: nothing here calls :class:`~repro.stream.StreamEngine`,
and its dirty set is its own anti-join over every fact
(:func:`unlabelled_facts`), not the ledger's watermark read; it shares
only the ingest path and, on its ``engine`` variant, the session itself.
Its other variant runs each epoch on the scalar test oracle
(``tests/scalar_reference.py``), seeded straight from the carried state.

The oracle feeds **one seeded batch schedule** to the service and to the
reference and asserts the stores they leave behind are *bit-identical*:
every label row (probability, label, flip, time point), every
trust-trajectory row, every epoch row (modulo the ``action`` tag and
wall-clock timestamp), and the final trust vector of the continuation
state.  No tolerances anywhere: the stream engine's claim is exact
equivalence, not numerical closeness (see ``docs/streaming.md``).

The pieces are reusable on purpose: :func:`random_schedule` builds
seeded adversarial schedules (random batch sizes, in-batch reordering,
duplicate and stale votes that the quarantine policy must drop),
:func:`run_schedule` drives one service over a schedule,
:func:`run_reference` drives the reference (:func:`continue_schedule` /
:func:`continue_reference` carry either on over an existing store), and
:func:`assert_identical`
is the bit-for-bit comparison.  The fuzz suite
(``tests/test_stream_oracle.py``) and the metamorphic suite build on
these.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sqlite3
from pathlib import Path

from repro.core.incestimate import IncEstimate
from repro.core.scoring import decide
from repro.core.selection import IncEstHeu
from repro.model.dataset import Dataset
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote
from repro.serve import CorroborationService, RefreshDecision
from repro.store import VoteLedger
from repro.store.schema import create_schema

from tests.scalar_reference import ScalarIncEstimate

#: The ingest policy every adversarial schedule runs under: duplicate and
#: stale votes are quarantined rows, not errors.
SCHEDULE_POLICY = "quarantine"

#: Format marker of the reference's continuation state (the carry a v3
#: store holds).
REFERENCE_CARRY = "serve-epoch-carry"


@dataclasses.dataclass(frozen=True)
class ScheduleStep:
    """One ingest step: a vote batch, optionally followed by a refresh."""

    rows: tuple[tuple[str, str, str], ...]
    refresh: bool = True


def vote_rows(dataset: Dataset, facts: list[str]) -> list[tuple[str, str, str]]:
    """The ``(fact, source, symbol)`` triples of ``facts``, source-sorted."""
    return [
        (fact, source, vote.value)
        for fact in facts
        for source, vote in sorted(dataset.matrix.votes_on(fact).items())
    ]


def random_schedule(
    dataset: Dataset,
    seed: int,
    *,
    max_batch: int = 40,
    duplicates: bool = True,
    stale: bool = True,
) -> list[ScheduleStep]:
    """A seeded adversarial batch schedule over ``dataset``'s votes.

    Splits the fact list into random-size batches (1..``max_batch``
    facts), shuffles the vote rows *within* each batch (vote order inside
    an epoch must not matter), and salts later batches with a duplicate
    of one of their own rows and with a re-delivered vote on an
    already-labelled fact — both must be quarantined identically by the
    service and the reference.  Same ``seed`` → same schedule, so every
    oracle failure is replayable.
    """
    rng = random.Random(seed)
    facts = list(dataset.matrix.facts)
    steps: list[ScheduleStep] = []
    position = 0
    while position < len(facts):
        size = rng.randint(1, max_batch)
        chunk = facts[position : position + size]
        position += size
        rows = vote_rows(dataset, chunk)
        rng.shuffle(rows)
        if duplicates and rows and rng.random() < 0.5:
            rows.append(rng.choice(rows))
        if stale and steps and rng.random() < 0.5:
            prior_step = rng.choice(steps)
            if prior_step.rows:
                rows.append(rng.choice(prior_step.rows))
        steps.append(ScheduleStep(rows=tuple(rows)))
    return steps


def run_schedule(
    path: Path,
    schedule: list[ScheduleStep],
    **service_kwargs,
) -> tuple[VoteLedger, CorroborationService, list[RefreshDecision]]:
    """Drive one fresh service over ``schedule``; caller closes the ledger."""
    ledger = VoteLedger(path)
    service = CorroborationService(ledger, **service_kwargs)
    return ledger, service, continue_schedule(service, schedule)


def continue_schedule(
    service: CorroborationService, schedule: list[ScheduleStep]
) -> list[RefreshDecision]:
    """Apply ``schedule`` to an existing service; its refresh decisions.

    Before every refresh the service's dirty set (read from the batch
    watermark) must equal the reference's anti-join over the same store.
    """
    decisions: list[RefreshDecision] = []
    for step in schedule:
        if step.rows:
            service.apply_votes(
                step.rows, on_error=SCHEDULE_POLICY, refresh=False
            )
        if step.refresh:
            assert service.ledger.pending_facts() == unlabelled_facts(
                service.ledger
            )
            decisions.append(service.refresh())
    return decisions


def unlabelled_facts(ledger: VoteLedger) -> list[str]:
    """Every fact without a label, in registration order: the reference's
    dirty set, an anti-join over the whole store that does not rely on
    the batch watermark the service reads."""
    return [
        row[0]
        for row in ledger._conn.execute(
            "SELECT fact_id FROM facts WHERE fact_id NOT IN "
            "(SELECT fact_id FROM labels) ORDER BY position"
        )
    ]


# ---------------------------------------------------------------------------
# The reference: carry/graft epoch replay
# ---------------------------------------------------------------------------
def carry_from_snapshot(snapshot: dict, prior: float, epoch: int) -> dict:
    """Distil a finalized epoch's session snapshot into the carry state.

    Per-source ``[correct, total, trust]`` counters keyed by source id
    (from the engine's position-ordered arrays), the full trajectory, the
    verdict history, and the epoch-0 prior ``k0`` that anchors every later
    source's counters.
    """
    sources = list(snapshot["trajectory"]["sources"])
    engine = snapshot["engine"]
    counters = {
        source: [
            float(engine["correct"][index]),
            float(engine["total"][index]),
            float(engine["trust"][index]),
        ]
        for index, source in enumerate(sources)
    }
    return {
        "format": REFERENCE_CARRY,
        "epoch": epoch,
        "prior": prior,
        "time_point": snapshot["time_point"],
        "sources": sources,
        "counters": counters,
        "trajectory": snapshot["trajectory"],
        "probabilities": snapshot["probabilities"],
        "label_overrides": snapshot["label_overrides"],
        "rounds": snapshot["rounds"],
    }


def graft_snapshot(base: dict, carry: dict, default_trust: float) -> dict:
    """Splice ``carry`` into a fresh delta session's snapshot ``base``.

    The fresh session's fingerprint, params and group state stay; the
    carried trajectory, counters and verdict history replace the blank
    ones.  Carried sources form a prefix of the delta source list; a
    source the carry has never seen gets λ over the carried history and
    the counters of a voteless source present from the start
    (``correct = λ·k0, total = k0``, Equation 8).  ``finalized`` is
    forced ``False`` so the epoch's own finalize records its trust
    vector.
    """
    assert carry["format"] == REFERENCE_CARRY
    grafted = dict(base)
    delta_sources = list(base["trajectory"]["sources"])
    assert carry["sources"] == delta_sources[: len(carry["sources"])]
    prior = float(carry["prior"])
    grafted["trajectory"] = {
        "sources": delta_sources,
        "history": [
            {s: vector.get(s, default_trust) for s in delta_sources}
            for vector in carry["trajectory"]["history"]
        ],
        "evaluation_time": dict(carry["trajectory"]["evaluation_time"]),
    }
    grafted["time_point"] = carry["time_point"]
    grafted["finalized"] = False
    grafted["probabilities"] = dict(carry["probabilities"])
    grafted["label_overrides"] = dict(carry["label_overrides"])
    grafted["rounds"] = list(carry["rounds"])
    fresh = [default_trust * prior, prior, default_trust]
    triples = [list(carry["counters"].get(s, fresh)) for s in delta_sources]
    engine = dict(base["engine"])
    for index, key in enumerate(("correct", "total", "trust")):
        engine[key] = [triple[index] for triple in triples]
    grafted["engine"] = engine
    grafted["evaluated_count"] = len(carry["probabilities"])
    return grafted


class ReferenceReplay:
    """Carry/graft epoch replay over a :class:`VoteLedger`.

    Refreshes the way the serving layer did before the stream engine:
    each ``incremental`` epoch grafts the stored carry and rewrites the
    whole trajectory.  The first epoch is ``full`` by definition, and a
    store whose continuation state is not a carry (the stream core wrote
    it) is taken over by one ``full`` rebuild — replaying every committed
    epoch from the log, checking each stored probability exactly — before
    the ``incremental`` epochs resume.  ``engine=False`` runs every epoch
    on the scalar oracle, seeded from the carry, instead of grafting the
    carry into a session.
    """

    def __init__(self, ledger: VoteLedger, *, engine: bool = True) -> None:
        self.ledger = ledger
        self.engine = engine

    def delta(self, facts: list[str], last_batch: int) -> Dataset:
        matrix = VoteMatrix()
        for source in self.ledger.sources_up_to_batch(last_batch):
            matrix.add_source(source)
        for fact in facts:
            matrix.add_fact(fact)
        for fact in facts:
            for source, symbol in self.ledger.votes_on(fact):
                matrix.add_vote(fact, source, Vote.from_symbol(symbol))
        return Dataset(matrix=matrix, truth={}, name=self.ledger.name)

    def run_epoch(self, delta: Dataset, carry: dict | None, epoch: int) -> dict:
        """Run one epoch over ``delta`` on top of ``carry``; the new carry."""
        if not self.engine:
            return self._oracle_epoch(delta, carry, epoch)
        estimator = IncEstimate(IncEstHeu())
        session = estimator.session(delta)
        if carry is None:
            prior = estimator.trust_prior_strength * delta.matrix.num_facts
        else:
            prior = float(carry["prior"])
            session.restore(
                graft_snapshot(session.snapshot(), carry, estimator.default_trust)
            )
        session.run_to_completion()
        return carry_from_snapshot(session.snapshot(), prior, epoch)

    @staticmethod
    def _oracle_epoch(delta: Dataset, carry: dict | None, epoch: int) -> dict:
        """The epoch on the scalar oracle, seeded straight from ``carry``:
        its time points, rounds and verdicts continue the carried ones."""
        oracle = ScalarIncEstimate(IncEstHeu())
        carry = carry or {
            "prior": oracle.trust_prior_strength * delta.matrix.num_facts,
            "time_point": 0,
            "trajectory": {"history": [], "evaluation_time": {}},
            "probabilities": {},
            "label_overrides": {},
            "rounds": [],
        }
        session = oracle.session(
            delta, counters=carry.get("counters"), prior=carry["prior"]
        )
        result = session.run_to_completion()
        trajectory, base = result.trajectory, carry["time_point"]
        sources = list(delta.matrix.sources)
        history = [
            {s: vector.get(s, oracle.default_trust) for s in sources}
            for vector in carry["trajectory"]["history"]
        ] + trajectory.as_rows()
        evaluation_time = dict(carry["trajectory"]["evaluation_time"])
        for fact in result.probabilities:
            evaluation_time[fact] = base + trajectory.evaluation_time(fact)
        rounds = [
            {**dataclasses.asdict(record), "time_point": base + record.time_point}
            for record in result.rounds
        ]
        return {
            "format": REFERENCE_CARRY,
            "epoch": epoch,
            "prior": carry["prior"],
            "time_point": base + trajectory.num_time_points,
            "sources": sources,
            "counters": session.counters(),
            "trajectory": {
                "sources": sources,
                "history": history,
                "evaluation_time": evaluation_time,
            },
            "probabilities": {**carry["probabilities"], **result.probabilities},
            "label_overrides": {
                **carry["label_overrides"],
                **result.label_overrides,
            },
            "rounds": carry["rounds"] + rounds,
        }

    def replay(self) -> dict | None:
        carry = None
        stored = self.ledger.labels_map()
        for row in self.ledger.list_epochs():
            epoch = int(row["epoch"])
            facts = self.ledger.facts_in_epoch(epoch)
            carry = self.run_epoch(
                self.delta(facts, int(row["last_batch"])), carry, epoch
            )
            for fact in facts:
                assert carry["probabilities"][fact] == stored[fact]["probability"]
        return carry

    def refresh(self) -> RefreshDecision:
        pending = unlabelled_facts(self.ledger)
        stored = self.ledger.load_session_state()
        if not pending:
            return RefreshDecision(
                "none", None if stored is None else stored[0], 0, 0.0
            )
        last_batch = self.ledger.max_batch_id()
        epoch = 0 if stored is None else stored[0] + 1
        delta = self.delta(pending, last_batch)
        if stored is None:
            action, carry = "full", None
        elif stored[1].get("format") != REFERENCE_CARRY:
            action, carry = "full", self.replay()
        else:
            action, carry = "incremental", stored[1]
        carry = self.run_epoch(delta, carry, epoch)
        self.record(epoch, action, last_batch, pending, carry)
        return RefreshDecision(action, epoch, len(pending), 0.0)

    def record(self, epoch, action, last_batch, facts, carry):
        """Commit one epoch: new labels, the rewritten trajectory, the
        epoch row and the carry — in one transaction."""
        history = carry["trajectory"]["history"]
        evaluation_time = carry["trajectory"]["evaluation_time"]
        probabilities = carry["probabilities"]
        overrides = carry["label_overrides"]
        conn = self.ledger._conn
        with conn:
            conn.executemany(
                "INSERT INTO labels (fact_id, probability, label, flipped, "
                "epoch, time_point) VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        fact,
                        probabilities[fact],
                        int(overrides.get(fact, decide(probabilities[fact]))),
                        int(fact in overrides),
                        epoch,
                        evaluation_time[fact],
                    )
                    for fact in facts
                ],
            )
            conn.execute("DELETE FROM trust_trajectory")
            conn.executemany(
                "INSERT INTO trust_trajectory (time_point, source_id, trust) "
                "VALUES (?, ?, ?)",
                [
                    (time_point, source, float(trust))
                    for time_point, vector in enumerate(history)
                    for source, trust in vector.items()
                ],
            )
            conn.execute(
                "INSERT INTO epochs (epoch, last_batch, action, facts, "
                "time_points, entropy_mass, created_at) "
                "VALUES (?, ?, ?, ?, ?, NULL, 'reference')",
                (epoch, last_batch, action, len(facts), len(history)),
            )
            conn.execute(
                "INSERT INTO session_state (id, epoch, state) VALUES (1, ?, ?) "
                "ON CONFLICT(id) DO UPDATE SET epoch=excluded.epoch, "
                "state=excluded.state",
                (epoch, json.dumps(carry, separators=(",", ":"))),
            )


def run_reference(
    path: Path,
    schedule: list[ScheduleStep],
    *,
    engine: bool = True,
) -> tuple[VoteLedger, list[RefreshDecision]]:
    """Drive the reference over ``schedule``; caller closes the ledger."""
    ledger = VoteLedger(path)
    reference = ReferenceReplay(ledger, engine=engine)
    return ledger, continue_reference(reference, schedule)


def continue_reference(
    reference: ReferenceReplay, schedule: list[ScheduleStep]
) -> list[RefreshDecision]:
    """Apply ``schedule`` to the reference's ledger; its decisions."""
    decisions = []
    for step in schedule:
        if step.rows:
            reference.ledger.ingest_votes(step.rows, on_error=SCHEDULE_POLICY)
        if step.refresh:
            decisions.append(reference.refresh())
    return decisions


def copy_as_v3(source: Path, target: Path) -> None:
    """Copy a reference store's rows into a fresh genuine v3 store.

    ``target`` is created by :func:`~repro.store.schema.create_schema` at
    version 3, so it is exactly what a v3 library left behind: a carry in
    ``session_state`` and ``full`` / ``incremental`` epoch rows.
    """
    conn = sqlite3.connect(target)
    with conn:
        create_schema(conn, version=3)
    conn.execute("ATTACH DATABASE ? AS ref", (str(source),))
    with conn:
        conn.execute(
            "INSERT INTO meta SELECT * FROM ref.meta "
            "WHERE key NOT IN ('schema_version', 'format')"
        )
        for table in (
            "ingest_log",
            "sources",
            "facts",
            "votes",
            "labels",
            "trust_trajectory",
            "epochs",
            "session_state",
        ):
            conn.execute(f"INSERT INTO {table} SELECT * FROM ref.{table}")
    conn.execute("DETACH DATABASE ref")
    conn.close()


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------
def labels_table(ledger: VoteLedger) -> dict[str, tuple]:
    """Every label row as a comparable tuple (no timestamps involved)."""
    return {
        fact: (
            row["probability"],
            row["label"],
            row["flipped"],
            row["epoch"],
            row["time_point"],
        )
        for fact, row in ledger.labels_map().items()
    }


def trajectory_table(ledger: VoteLedger) -> dict[tuple[int, str], float]:
    """The raw trust table keyed by ``(time_point, source)``.

    Unlike :meth:`VoteLedger.trajectory_rows` this keeps the *absolute*
    time points, which is what compaction-aware comparisons need (a
    compacted store holds a suffix of the uncompacted table).
    """
    return {
        (row["time_point"], row["source_id"]): row["trust"]
        for row in ledger._conn.execute(
            "SELECT time_point, source_id, trust FROM trust_trajectory"
        )
    }


def epochs_table(ledger: VoteLedger) -> list[tuple]:
    """Epoch rows minus the path-dependent fields (action, timestamp)."""
    return [
        (
            row["epoch"],
            row["last_batch"],
            row["facts"],
            row["time_points"],
            row["entropy_mass"],
        )
        for row in ledger.list_epochs()
    ]


def final_trust(ledger: VoteLedger) -> dict[str, float]:
    """The continuation state's trust vector, whichever format is stored.

    A stream state's counter trust and a reference carry's last history
    vector are the same mathematical object (the trust vector after the
    last finalize); the oracle checks they are the same *bits*.
    """
    state = ledger.load_session_state()
    assert state is not None, "no continuation state stored"
    payload = state[1]
    if payload.get("format") == REFERENCE_CARRY:
        return dict(payload["trajectory"]["history"][-1])
    return {s: c[2] for s, c in payload["counters"].items()}


def assert_identical(ledger: VoteLedger, reference: VoteLedger) -> None:
    """Bit-for-bit store equivalence (the oracle's verdict).

    Exact ``==`` on floats throughout — the differential claim is
    identity, not closeness.
    """
    assert labels_table(ledger) == labels_table(reference)
    assert trajectory_table(ledger) == trajectory_table(reference)
    assert epochs_table(ledger) == epochs_table(reference)
    assert final_trust(ledger) == final_trust(reference)
    counts = ledger.counts()
    reference_counts = reference.counts()
    for key in ("facts", "sources", "votes", "labels", "pending"):
        assert counts[key] == reference_counts[key]


def run_differential(
    tmp_path: Path,
    schedule: list[ScheduleStep],
    *,
    engine: bool = True,
    tag: str = "oracle",
    **service_kwargs,
) -> tuple[list[RefreshDecision], list[RefreshDecision], CorroborationService]:
    """Run one schedule through the service and the reference; assert
    store identity.

    ``engine`` picks the *reference's* epoch runner; the service always
    runs the array engine, so ``engine=False`` holds the served store to
    the scalar oracle.  Also cold-replays the service's store from its
    ingest log (``service.verify()``) — the stream core must leave a log
    a cold replay reproduces exactly.  Returns the service's and the
    reference's decisions plus the service (callers assert on actions /
    verify further).
    """
    reference, reference_decisions = run_reference(
        tmp_path / f"{tag}-reference.db", schedule, engine=engine
    )
    ledger, service, decisions = run_schedule(
        tmp_path / f"{tag}-service.db", schedule, **service_kwargs
    )
    try:
        assert_identical(ledger, reference)
        assert service.verify() == ledger.counts()["labels"]
    finally:
        reference.close()
        ledger.close()
    return decisions, reference_decisions, service
