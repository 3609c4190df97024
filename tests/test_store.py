"""Persistent vote ledger: round-trips, policies, migrations, crash safety."""

from __future__ import annotations

import io
import json
import os
import random
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from repro.datasets import generate_synthetic, motivating_example
from repro.model.dataset import Dataset
from repro.model.io import dataset_to_json, save_dataset, write_votes_csv
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote
from repro.resilience.errors import (
    BAD_VOTE_SYMBOL,
    CONFLICTING_VOTE,
    DUPLICATE_FACT,
    DUPLICATE_VOTE,
    MISSING_FIELD,
    STALE_FACT,
    ErrorPolicy,
    IngestError,
)
from repro.resilience.faults import FaultPlan
from repro.store import SCHEMA_VERSION, LedgerError, VoteLedger
from repro.store.schema import MIGRATIONS, create_schema, schema_version


def edge_dataset() -> Dataset:
    """Voteless facts, a voteless source, truth + golden membership."""
    matrix = VoteMatrix()
    matrix.add_source("idle")  # registered, never votes
    matrix.add_vote("f1", "s1", Vote.TRUE)
    matrix.add_vote("f1", "s2", Vote.FALSE)
    matrix.add_vote("f2", "s2", Vote.TRUE)
    matrix.add_fact("orphan")  # registered, no votes
    return Dataset(
        matrix=matrix,
        truth={"f1": True, "f2": False},
        golden_set=frozenset({"f2"}),
        name="edge-case",
    )


def assert_identical(a: Dataset, b: Dataset) -> None:
    """Full structural identity, registration order included."""
    assert a.matrix.facts == b.matrix.facts
    assert a.matrix.sources == b.matrix.sources
    for fact in a.matrix.facts:
        assert a.matrix.votes_on(fact) == b.matrix.votes_on(fact)
    assert a.truth == b.truth
    assert a.golden_set == b.golden_set
    assert a.name == b.name


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "make",
    [
        motivating_example,
        edge_dataset,
        lambda: generate_synthetic(num_facts=300, seed=3).dataset,
    ],
    ids=["motivating", "edge", "synthetic"],
)
def test_import_export_identity(tmp_path, make):
    dataset = make()
    with VoteLedger(tmp_path / "s.db") as ledger:
        batch = ledger.import_dataset(dataset)
        assert batch.kind == "import"
        assert batch.report.rows_read == dataset.matrix.num_facts
        assert batch.report.rows_kept == dataset.matrix.num_facts
        assert_identical(ledger.export_dataset(), dataset)
    # identity survives a close/reopen cycle too
    with VoteLedger(tmp_path / "s.db") as ledger:
        assert_identical(ledger.export_dataset(), dataset)


def test_round_trip_property_random(tmp_path):
    """Seeded property loop: arbitrary matrices survive the store."""
    rng = random.Random(20140324)
    for case in range(8):
        matrix = VoteMatrix()
        sources = [f"s{i}" for i in range(rng.randint(2, 7))]
        for fact_index in range(rng.randint(1, 40)):
            fact = f"f{fact_index}"
            matrix.add_fact(fact)
            for source in rng.sample(sources, rng.randint(0, len(sources))):
                matrix.add_vote(
                    fact, source, Vote.TRUE if rng.random() < 0.7 else Vote.FALSE
                )
        facts = matrix.facts
        truth = {f: rng.random() < 0.5 for f in facts if rng.random() < 0.6}
        golden = frozenset(f for f in truth if rng.random() < 0.3)
        dataset = Dataset(
            matrix=matrix, truth=truth, golden_set=golden, name=f"case-{case}"
        )
        with VoteLedger(tmp_path / f"case{case}.db") as ledger:
            ledger.import_dataset(dataset)
            assert_identical(ledger.export_dataset(), dataset)


def test_export_to_file_round_trip_is_byte_stable(tmp_path):
    """Dataset -> store -> JSON/CSV file -> store -> identical bytes.

    Relies on the deterministic writers: rows come out in sorted order
    regardless of insertion history, so two stores holding the same data
    serialise to byte-identical files.
    """
    dataset = generate_synthetic(num_facts=200, seed=5).dataset
    with VoteLedger(tmp_path / "a.db") as ledger:
        ledger.import_dataset(dataset)
        exported = ledger.export_dataset()
    save_dataset(exported, tmp_path / "a.json")
    write_votes_csv(exported, tmp_path / "a.csv")
    # reimport the exported JSON into a second store, export, save again
    from repro.model.io import load_dataset

    with VoteLedger(tmp_path / "b.db") as ledger:
        ledger.import_dataset(load_dataset(tmp_path / "a.json"))
        save_dataset(ledger.export_dataset(), tmp_path / "b.json")
        write_votes_csv(ledger.export_dataset(), tmp_path / "b.csv")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_json_writer_sorts_votes_and_truth():
    dataset = edge_dataset()
    document = json.loads(dataset_to_json(dataset))
    assert list(document["votes"]) == sorted(document["votes"])
    for votes in document["votes"].values():
        assert list(votes) == sorted(votes)
    assert list(document["truth"]) == sorted(document["truth"])
    # facts/sources arrays keep registration order (they define reload
    # order and therefore tie breaks) — sortedness is NOT expected here.
    assert document["facts"] == list(dataset.matrix.facts)
    assert document["sources"] == list(dataset.matrix.sources)


def test_csv_writer_sorts_rows(tmp_path):
    dataset = edge_dataset()
    write_votes_csv(dataset, tmp_path / "v.csv")
    rows = (tmp_path / "v.csv").read_text().strip().splitlines()[1:]
    keys = [tuple(row.split(",")[:2]) for row in rows]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Ingest policies
# ---------------------------------------------------------------------------
def test_import_duplicate_fact_strict_rolls_back_whole_batch(tmp_path):
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(motivating_example())
        before = ledger.counts()
        with pytest.raises(IngestError) as excinfo:
            ledger.import_dataset(motivating_example())
        assert excinfo.value.reason == DUPLICATE_FACT
        assert ledger.counts() == before  # no partial batch, no log row


def test_import_duplicate_fact_skip_keeps_new_facts(tmp_path):
    first = motivating_example()
    overlap = VoteMatrix()
    overlap.add_vote("r1", "newsrc", Vote.TRUE)  # r1 already stored
    overlap.add_vote("brand-new", "newsrc", Vote.TRUE)
    second = Dataset(matrix=overlap, truth={}, name="overlap")
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(first)
        batch = ledger.import_dataset(second, on_error=ErrorPolicy.SKIP)
        assert batch.new_facts == ("brand-new",)
        assert batch.report.reasons() == {DUPLICATE_FACT: 1}
        # the duplicate fact's votes were skipped with it
        assert dict(ledger.votes_on("r1")) == {
            s: v.value for s, v in first.matrix.votes_on("r1").items()
        }


def test_ingest_votes_duplicate_and_conflict_against_store(tmp_path):
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.ingest_votes([("f1", "s1", "T")])
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes([("f1", "s1", "T")])
        assert excinfo.value.reason == DUPLICATE_VOTE
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes([("f1", "s1", "F")])
        assert excinfo.value.reason == CONFLICTING_VOTE
        batch = ledger.ingest_votes(
            [("f1", "s1", "T"), ("f1", "s2", "F")], on_error=ErrorPolicy.QUARANTINE
        )
        assert batch.report.reasons() == {DUPLICATE_VOTE: 1}
        assert batch.report.issues[0].row == {
            "fact": "f1",
            "source": "s1",
            "vote": "T",
        }
        assert batch.votes_added == 1


def test_stale_vote_on_labelled_fact_rejected(tmp_path):
    from repro.serve import CorroborationService

    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(motivating_example())
        CorroborationService(ledger).refresh()
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes([("r1", "latecomer", "T")])
        assert excinfo.value.reason == STALE_FACT
        batch = ledger.ingest_votes(
            [("r1", "latecomer", "T"), ("fresh", "latecomer", "T")],
            on_error=ErrorPolicy.SKIP,
        )
        assert batch.report.reasons() == {STALE_FACT: 1}
        assert batch.new_facts == ("fresh",)


@pytest.mark.parametrize("policy", list(ErrorPolicy), ids=lambda p: p.value)
def test_bare_string_row_is_missing_field(tmp_path, policy):
    """A 3-character string is not a (fact, source, vote) row, although
    it unpacks like one."""
    rows = ["abT", b"abT", ("f1", "s1", "T")]
    with VoteLedger(tmp_path / "s.db") as ledger:
        if policy is ErrorPolicy.STRICT:
            with pytest.raises(IngestError) as excinfo:
                ledger.ingest_votes(rows)
            assert excinfo.value.reason == MISSING_FIELD
            assert excinfo.value.location == "row 1"
            assert ledger.counts()["votes"] == 0
        else:
            batch = ledger.ingest_votes(rows, on_error=policy)
            assert batch.report.reasons() == {MISSING_FIELD: 2}
            assert [i.location for i in batch.report.issues] == [
                "row 1",
                "row 2",
            ]
            assert batch.new_facts == ("f1",)
            assert batch.votes_added == 1
        assert ledger.fact_record("a") is None
        assert ledger.source_record("b") is None


#: Four votes in no canonical order: the first vote names ``s2``, and a
#: sorted re-read would register ``s1`` first.
UNSORTED_VOTES = [
    ("b", "s2", "T"), ("a", "s3", "T"), ("b", "s1", "F"), ("a", "s2", "F"),
]


def csv_handle(rows) -> io.StringIO:
    return io.StringIO(
        "fact,source,vote\n" + "".join(f"{f},{s},{v}\n" for f, s, v in rows)
    )


def test_csv_ingest_equals_posting_the_same_rows(tmp_path):
    """A CSV ingests in file order, exactly as the same rows posted."""
    from repro.serve import CorroborationService

    with VoteLedger(tmp_path / "csv.db") as by_csv, VoteLedger(
        tmp_path / "rows.db"
    ) as by_rows:
        for ledger, batch in (
            (by_csv, by_csv.ingest_votes_csv(csv_handle(UNSORTED_VOTES))),
            (by_rows, by_rows.ingest_votes(UNSORTED_VOTES)),
        ):
            assert ledger.sources_up_to_batch(batch.batch_id) == ["s2", "s3", "s1"]
            CorroborationService(ledger).refresh()
        for fact in ("a", "b"):
            assert by_csv.votes_on(fact) == by_rows.votes_on(fact)
        assert by_csv.labels_map() == by_rows.labels_map()
        assert len(by_csv.labels_map()) == 2


def test_csv_ingest_locates_store_rejects_by_file_line(tmp_path):
    from repro.serve import CorroborationService

    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.ingest_votes([("done", "s1", "T")])
        CorroborationService(ledger).refresh()
        batch = ledger.ingest_votes_csv(
            csv_handle([("x", "s1", "T"), ("y", "s2", "F"), ("done", "s2", "T")]),
            on_error="quarantine",
        )
        (issue,) = batch.report.issues
        assert (issue.location, issue.reason) == ("line 4", STALE_FACT)
        assert issue.message.startswith("line 4: fact 'done'")
        assert batch.new_facts == ("x", "y")


def test_csv_ingest_strict_raises_the_first_bad_line(tmp_path):
    """File-level and store-level rejects raise in file order, and the
    batch rolls back whole."""
    from repro.serve import CorroborationService

    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.ingest_votes([("done", "s1", "T")])
        CorroborationService(ledger).refresh()
        before = ledger.counts()
        rows = [
            ("done", "s2", "T"), ("x", "s1", "T"), ("y", "s1", "T"), ("z", "s1", "Q"),
        ]
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes_csv(csv_handle(rows))
        assert (excinfo.value.reason, excinfo.value.location) == (
            STALE_FACT, "line 2",
        )
        assert ledger.counts() == before
        text = csv_handle([("x", "s1", "T"), ("y", "s1", "Q")]).getvalue()
        text += "".join(f"f{i},s1,T\n" for i in range(50))
        flaky = FaultPlan(seed=4).flaky_handle(text, fail_after=60)
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes_csv(flaky)
        assert (excinfo.value.reason, excinfo.value.location) == (
            BAD_VOTE_SYMBOL, "line 3",
        )
        assert ledger.counts() == before


def test_ingest_work_does_not_grow_with_the_store(tmp_path):
    """One vote batch costs the same SQLite work in a 1,500-fact and a
    36,916-fact labelled store, both ingested alone and as a whole
    ``apply_votes`` (ingest plus refresh): ingest looks up only the
    batch's own facts and sources, by key, and the refresh reads its
    dirty set from the batch watermark (counted in SQLite VM steps, which
    do not depend on the host's speed)."""
    from repro.datasets import generate_restaurants
    from repro.serve import CorroborationService

    small = generate_restaurants(num_facts=1_500).dataset
    big = generate_restaurants().dataset
    assert big.matrix.num_facts == 36_916
    sources = small.matrix.sources[:4]
    assert set(sources) <= set(big.matrix.sources)
    rows = [
        (f"new-{i}", source, "T" if (i + j) % 3 else "F")
        for i in range(25)
        for j, source in enumerate(sources)
    ]

    def counted(ledger, call):
        steps = 0

        def tick():
            nonlocal steps
            steps += 1
            return 0

        ledger._conn.set_progress_handler(tick, 1)
        try:
            result = call()
        finally:
            ledger._conn.set_progress_handler(None, 1)
        return steps, result

    def batch_steps(dataset, name):
        """VM steps of the batch's ingest, and of a whole ``apply_votes``
        of it on an identical copy of the labelled store."""
        copy = tmp_path / f"{name}-copy.db"
        with VoteLedger(tmp_path / f"{name}.db") as ledger:
            ledger.import_dataset(dataset)
            CorroborationService(ledger).refresh()
            assert ledger.counts()["pending"] == 0
            target = sqlite3.connect(copy)
            ledger._conn.backup(target)
            target.close()
            ingest, batch = counted(ledger, lambda: ledger.ingest_votes(rows))
            assert batch.votes_added == 100
        with VoteLedger(copy) as ledger:
            service = CorroborationService(ledger)
            post, (batch, decision) = counted(
                ledger, lambda: service.apply_votes(rows)
            )
            assert batch.votes_added == 100
            assert decision.dirty_facts == 25
            assert ledger.counts()["pending"] == 0
        return ingest, post

    small_ingest, small_post = batch_steps(small, "small")
    big_ingest, big_post = batch_steps(big, "big")
    assert big_ingest < 1.5 * small_ingest, (small_ingest, big_ingest)
    assert big_post < 1.5 * small_post, (small_post, big_post)


def test_ingest_log_traceability(tmp_path):
    """Every fact/vote carries its batch; reports survive in the log."""
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(motivating_example())
        ledger.ingest_votes(
            [("x1", "s1", "T"), ("x1", "s1", "T")], on_error=ErrorPolicy.SKIP
        )
        batches = ledger.list_batches()
        assert [b["kind"] for b in batches] == ["import", "votes"]
        assert batches[1]["rows_read"] == 2
        assert batches[1]["rows_kept"] == 1
        assert batches[1]["report"]["reasons"] == {DUPLICATE_VOTE: 1}
        assert ledger.fact_record("x1")["batch_id"] == batches[1]["batch_id"]


def test_ledger_rejects_foreign_sqlite_file(tmp_path):
    path = tmp_path / "notaledger.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE stuff (x)")
    conn.commit()
    conn.close()
    with pytest.raises(LedgerError):
        VoteLedger(path)


def test_import_names_fresh_store(tmp_path):
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(motivating_example())
        assert ledger.name == motivating_example().name
    with VoteLedger(tmp_path / "named.db", name="keepme") as ledger:
        ledger.import_dataset(motivating_example())
        assert ledger.name == "keepme"


# ---------------------------------------------------------------------------
# Schema versioning
# ---------------------------------------------------------------------------
def test_migration_v1_to_current(tmp_path):
    """A genuine v1 store opens, migrates in place, and keeps its data."""
    path = tmp_path / "old.db"
    conn = sqlite3.connect(path)
    with conn:
        create_schema(conn, version=1)
        conn.execute("INSERT INTO meta (key, value) VALUES ('name', 'old')")
        conn.execute(
            "INSERT INTO ingest_log (kind, created_at) VALUES ('votes', 't0')"
        )
        conn.execute(
            "INSERT INTO sources (source_id, batch_id) VALUES ('s1', 1)"
        )
        conn.execute(
            "INSERT INTO facts (fact_id, batch_id) VALUES ('f1', 1)"
        )
        conn.execute(
            "INSERT INTO votes (fact_id, source_id, vote, batch_id) "
            "VALUES ('f1', 's1', 'T', 1)"
        )
    assert schema_version(conn) == 1
    # v1 has no labels.time_point column
    columns = {row[1] for row in conn.execute("PRAGMA table_info(labels)")}
    assert "time_point" not in columns
    conn.close()

    with VoteLedger(path) as ledger:  # opening migrates
        assert ledger.name == "old"
        assert ledger.counts()["votes"] == 1
        exported = ledger.export_dataset()
        assert exported.matrix.facts == ["f1"]
    conn = sqlite3.connect(path)
    assert schema_version(conn) == SCHEMA_VERSION
    columns = {row[1] for row in conn.execute("PRAGMA table_info(labels)")}
    assert "time_point" in columns
    indexes = {row[1] for row in conn.execute("PRAGMA index_list(votes)")}
    assert "idx_votes_source" in indexes
    conn.close()


def test_newer_store_refused(tmp_path):
    path = tmp_path / "future.db"
    with VoteLedger(path) as ledger:
        ledger.import_dataset(motivating_example())
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
    conn.close()
    with pytest.raises(LedgerError):
        VoteLedger(path)


def test_v4_upgrade_keeps_stream_state_and_refuses_unknown(tmp_path):
    """The v3 → v4 step converts only replay carries (see the oracle
    suite): a stream state passes through untouched, and a state it
    cannot read rolls the whole migration back, DDL of earlier steps
    included."""

    def old_store(path, state, version=3):
        conn = sqlite3.connect(path)
        with conn:
            create_schema(conn, version=version)
            conn.execute(
                "INSERT INTO session_state (id, epoch, state) VALUES (1, 0, ?)",
                (json.dumps(state),),
            )
        conn.close()

    stream = {
        "format": "serve-stream-state",
        "epoch": 0,
        "prior": 1.5,
        "base": 2,
        "sources": ["s1"],
        "counters": {"s1": [0.75, 1.5, 0.5]},
        "compacted_before": 0,
    }
    old_store(tmp_path / "stream.db", stream)
    with VoteLedger(tmp_path / "stream.db") as ledger:
        assert ledger.load_session_state() == (0, stream)
    old_store(tmp_path / "odd.db", {"format": "something-else"}, version=2)
    for _ in range(2):  # a failed upgrade leaves a store it can retry
        with pytest.raises(LedgerError, match="unknown continuation state"):
            VoteLedger(tmp_path / "odd.db")
    conn = sqlite3.connect(tmp_path / "odd.db")
    assert schema_version(conn) == 2
    tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
    assert "epochs_v3" not in tables
    conn.close()


def test_fresh_and_migrated_layouts_match(tmp_path):
    """One path to the current schema: fresh create == v1 + migrations."""
    fresh = sqlite3.connect(tmp_path / "fresh.db")
    with fresh:
        create_schema(fresh)
    old = sqlite3.connect(tmp_path / "old.db")
    with old:
        create_schema(old, version=1)
        for from_version in sorted(MIGRATIONS):
            for statement in MIGRATIONS[from_version]:
                old.execute(statement)

    def layout(conn):
        return sorted(
            (row[0], row[1])
            for row in conn.execute(
                "SELECT name, sql FROM sqlite_master "
                "WHERE name NOT LIKE 'sqlite_%'"
            )
        )

    # Table layouts must agree on columns; CREATE TABLE text can differ
    # (ALTER TABLE appends), so compare PRAGMA table_info per table.
    tables = [name for name, _ in layout(fresh)]
    assert tables == [name for name, _ in layout(old)]
    for name in tables:
        fresh_info = list(fresh.execute(f"PRAGMA table_info({name})"))
        old_info = list(old.execute(f"PRAGMA table_info({name})"))
        assert fresh_info == old_info, name
    fresh.close()
    old.close()


# ---------------------------------------------------------------------------
# Crash safety
# ---------------------------------------------------------------------------
def test_flaky_csv_leaves_store_untouched(tmp_path):
    """An I/O fault mid-read rolls the CSV's batch transaction back."""
    plan = FaultPlan(seed=4)
    text = "fact,source,vote\n" + "".join(
        f"f{i},s1,T\n" for i in range(50)
    )
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.ingest_votes([("base", "s0", "T")])
        before = ledger.counts()
        with pytest.raises(IngestError):
            ledger.ingest_votes_csv(plan.flaky_handle(text, fail_after=20))
        assert ledger.counts() == before


def test_fault_mid_ingest_rolls_back(tmp_path):
    """An exception thrown while rows stream in commits nothing."""
    from repro.resilience.errors import FaultInjected

    def rows():
        yield ("a", "s1", "T")
        yield ("b", "s1", "T")
        raise FaultInjected("killed mid-batch")

    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.ingest_votes([("base", "s0", "T")])
        before = ledger.counts()
        with pytest.raises(FaultInjected):
            ledger.ingest_votes(rows())
        assert ledger.counts() == before
        assert ledger.fact_record("a") is None


def test_killed_process_mid_ingest_never_partially_commits(tmp_path):
    """A hard-killed writer (os._exit inside the transaction) leaves the
    previous committed state intact on reopen — SQLite's WAL rollback."""
    path = tmp_path / "s.db"
    with VoteLedger(path) as ledger:
        ledger.import_dataset(motivating_example())
        before = ledger.counts()
    script = textwrap.dedent(
        f"""
        import os
        from repro.store import VoteLedger

        ledger = VoteLedger({str(path)!r})

        def rows():
            for i in range(1000):
                yield (f"k{{i}}", "killer", "T")
                if i == 500:
                    os._exit(9)  # hard kill inside the open transaction

        ledger.ingest_votes(rows())
        """
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True
    )
    assert proc.returncode == 9, proc.stderr.decode()
    with VoteLedger(path) as ledger:
        assert ledger.counts() == before
        assert ledger.fact_record("k0") is None
        assert_identical(ledger.export_dataset(), motivating_example())
