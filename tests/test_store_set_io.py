"""Set-at-a-time ledger I/O: statement counts, shared ids, equivalence.

Every bulk ledger path issues a fixed number of SQL statements whatever
its batch size (counted through a thin proxy on the connection), the
epoch matrix holds each id once, and the set reads return exactly what
the per-fact reads of the differential oracle return.
"""

from __future__ import annotations

import contextlib
import weakref

import pytest

from repro.model.dataset import Dataset
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote
from repro.resilience.errors import MALFORMED_ROW, IngestError
from repro.serve import CorroborationService
from repro.store import LedgerError, VoteLedger
from repro.stream.engine import LabelRow

from tests.stream_oracle import ReferenceReplay


class CountingConnection:
    """Proxy on a ledger's connection that counts statement calls."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.calls = 0

    def execute(self, *args):
        self.calls += 1
        return self.conn.execute(*args)

    def executemany(self, *args):
        self.calls += 1
        return self.conn.executemany(*args)

    def __getattr__(self, name):
        return getattr(self.conn, name)

    def __enter__(self):
        return self.conn.__enter__()

    def __exit__(self, *exc):
        return self.conn.__exit__(*exc)


@contextlib.contextmanager
def counting(ledger: VoteLedger):
    proxy = CountingConnection(ledger._conn)
    ledger._conn = proxy
    try:
        yield proxy
    finally:
        ledger._conn = proxy.conn


def statements(ledger: VoteLedger, call) -> int:
    with counting(ledger) as proxy:
        call()
    return proxy.calls


def grid_dataset(num_facts: int, prefix: str = "fact") -> Dataset:
    """Five sources; each fact voted on by three or four of them."""
    matrix = VoteMatrix()
    for s in range(5):
        matrix.add_source(f"source-{s}")
    for f in range(num_facts):
        for s in range(5):
            if (f + s) % 3:
                vote = Vote.TRUE if (f * s) % 4 else Vote.FALSE
                matrix.add_vote(f"{prefix}-{f}", f"source-{s}", vote)
    truth = {f"{prefix}-{f}": f % 2 == 0 for f in range(0, num_facts, 7)}
    return Dataset(matrix=matrix, truth=truth, name=f"grid-{num_facts}")


# ---------------------------------------------------------------------------
# Statement counts do not grow with the batch
# ---------------------------------------------------------------------------
def test_import_statements_constant_in_dataset_size(tmp_path):
    counts = []
    for size in (100, 10_000):
        with VoteLedger(tmp_path / f"{size}.db") as ledger:
            ledger.import_dataset(grid_dataset(10))  # a non-empty store
            dataset = grid_dataset(size, prefix="more")
            counts.append(
                statements(ledger, lambda: ledger.import_dataset(dataset))
            )
            assert ledger.counts()["facts"] == 10 + size
    assert counts[0] == counts[1], counts


def test_ingest_statements_constant_in_batch_size(tmp_path):
    """Every row kind — new and pending facts, known and new sources,
    stale and duplicate rejects — in a 4-row and a 400-row batch."""

    def rows(size):
        out = [("done", "s-old", "T"), ("open", "s-old", "T")]
        out += [
            (f"new-{i}", f"s-{i % 7}" if i % 2 else "s-old", "T" if i % 3 else "F")
            for i in range(size - 2)
        ]
        return out

    counts = []
    for size in (4, 400):
        with VoteLedger(tmp_path / f"{size}.db") as ledger:
            ledger.ingest_votes([("done", "s-old", "F")])
            CorroborationService(ledger).refresh()
            ledger.ingest_votes([("open", "s-old", "T")])
            counts.append(
                statements(
                    ledger,
                    lambda: ledger.ingest_votes(rows(size), on_error="skip"),
                )
            )
            assert ledger.counts()["votes"] == size
    assert counts[0] == counts[1], counts


def test_epoch_dataset_statements_constant_in_fact_count(tmp_path):
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(grid_dataset(2_500))
        facts = ledger.pending_facts()
        last = ledger.max_batch_id()
        few = statements(ledger, lambda: ledger.epoch_dataset(facts[:25], last))
        every = statements(ledger, lambda: ledger.epoch_dataset(facts, last))
    assert few == every, (few, every)


def test_record_stream_epoch_statements_constant_in_time_points(tmp_path):
    counts = []
    for points in (1, 50):
        with VoteLedger(tmp_path / f"{points}.db") as ledger:
            ledger.ingest_votes([("f1", "s1", "T"), ("f2", "s2", "F")])
            vectors = [{"s1": 0.5 + p / 1e3, "s2": 0.5} for p in range(points)]

            def record(epoch, base, facts, sources, new):
                return ledger.record_stream_epoch(
                    epoch=epoch,
                    last_batch=ledger.max_batch_id(),
                    labels=[
                        LabelRow(f, 0.75, True, False, base) for f in facts
                    ],
                    base=base,
                    rows=[{s: 0.5 for s in sources} | v for v in vectors],
                    new_sources=new,
                    backfill_start=0,
                    backfill_trust=0.5,
                    compact_before=0,
                    time_points=base + points,
                    state={"epoch": epoch},
                )

            first = statements(
                ledger, lambda: record(0, 0, ["f1", "f2"], ["s1", "s2"], [])
            )
            ledger.ingest_votes([("f3", "s3", "T")])
            with counting(ledger) as proxy:
                stats = record(1, points, ["f3"], ["s1", "s2", "s3"], ["s3"])
            assert stats == {
                "rows_appended": 3 * points,
                "rows_backfilled": points,
                "rows_compacted": 0,
            }
            assert ledger.label_row("f3")["time_point"] == points
            counts.append((first, proxy.calls))
    assert counts[0] == counts[1], counts


# ---------------------------------------------------------------------------
# One object per id
# ---------------------------------------------------------------------------
def test_epoch_matrix_holds_each_id_once(tmp_path):
    """Every vote key in the epoch matrix *is* the registered source
    object or the caller's fact object, never a per-vote copy."""
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(grid_dataset(300))
        facts = ledger.pending_facts()
        matrix = ledger.epoch_dataset(facts, ledger.max_batch_id()).matrix
    sources = {id(source) for source in matrix.sources}
    callers = {id(fact) for fact in facts}
    assert all(a is b for a, b in zip(matrix.facts, facts))
    votes = 0
    for fact in matrix.facts:
        for source, _vote in matrix.iter_votes_on(fact):
            assert id(source) in sources
            votes += 1
    for source in matrix.sources:
        for fact, _vote in matrix.iter_votes_by(source):
            assert id(fact) in callers
    assert votes == matrix.num_votes == 1_000


def test_refresh_frees_the_epoch_matrix_before_persisting(tmp_path, monkeypatch):
    """An epoch holds one copy of its inputs at a time: its matrix is dead
    before its label rows are built, so before they are persisted."""
    matrices: list[weakref.ref] = []
    alive_at_persist: list[bool] = []
    epoch_dataset = VoteLedger.epoch_dataset
    record_stream_epoch = VoteLedger.record_stream_epoch

    def tracked_epoch_dataset(self, *args, **kwargs):
        delta = epoch_dataset(self, *args, **kwargs)
        matrices.append(weakref.ref(delta.matrix))
        return delta

    def checked_record_stream_epoch(self, *args, **kwargs):
        alive_at_persist.append(any(ref() is not None for ref in matrices))
        return record_stream_epoch(self, *args, **kwargs)

    monkeypatch.setattr(VoteLedger, "epoch_dataset", tracked_epoch_dataset)
    monkeypatch.setattr(
        VoteLedger, "record_stream_epoch", checked_record_stream_epoch
    )
    with VoteLedger(tmp_path / "s.db") as ledger:
        ledger.import_dataset(grid_dataset(300))
        service = CorroborationService(ledger)
        assert service.refresh().action == "stream"
        service.apply_votes([("late-fact", "source-1", "T")])
    assert alive_at_persist == [False, False]
    assert len(matrices) == 2


# ---------------------------------------------------------------------------
# Equivalence with the per-row and per-fact reads
# ---------------------------------------------------------------------------
AWKWARD = ['say "hi"', "back\\slash", "a/b", "100%", "two words", "café noir"]


def assert_same_matrix(a: VoteMatrix, b: VoteMatrix) -> None:
    assert a.sources == b.sources
    assert a.facts == b.facts
    for fact in a.facts:
        assert list(a.iter_votes_on(fact)) == list(b.iter_votes_on(fact))
    for source in a.sources:
        assert list(a.iter_votes_by(source)) == list(b.iter_votes_by(source))


def test_epoch_dataset_equals_the_oracle_per_fact_build(tmp_path):
    """Several batches and epochs, a late-joining source and ids that
    need JSON escapes: each epoch's set read equals the oracle's
    ``votes_on`` build exactly, and so does the pending epoch's."""
    batches = [
        [(f, s, "T") for f in AWKWARD[:3] for s in ("s/1", 'q"s')],
        [(AWKWARD[3], "s/1", "F"), (AWKWARD[4], 'q"s', "T")],
        # "late source" joins after two epochs, votes on new facts only.
        [(AWKWARD[5], "late source", "T"), (AWKWARD[5], "s/1", "F")]
        + [("plain", "late source", "F"), ("plain", 'q"s', "T")],
        [("pending é", "late source", "T"), ("pending é", "s/1", "T")],
    ]
    with VoteLedger(tmp_path / "s.db") as ledger:
        service = CorroborationService(ledger)
        for rows in batches[:-1]:
            service.apply_votes(rows)
        ledger.ingest_votes(batches[-1])
        reference = ReferenceReplay(ledger)
        epochs = ledger.list_epochs()
        assert len(epochs) == 3
        for row in epochs:
            facts = ledger.facts_in_epoch(int(row["epoch"]))
            last = int(row["last_batch"])
            assert_same_matrix(
                ledger.epoch_dataset(facts, last).matrix,
                reference.delta(facts, last).matrix,
            )
        pending = ledger.pending_facts()
        assert pending == ["pending é"]
        last = ledger.max_batch_id()
        delta = ledger.epoch_dataset(pending, last)
        assert_same_matrix(delta.matrix, reference.delta(pending, last).matrix)
        assert delta.matrix.sources == ["s/1", 'q"s', "late source"]
        assert delta.name == ledger.name
        assert service.verify() == 7


def test_nul_ids_are_refused(tmp_path):
    with VoteLedger(tmp_path / "s.db") as ledger:
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes([("a\x00b", "s1", "T")])
        assert excinfo.value.reason == MALFORMED_ROW
        batch = ledger.ingest_votes(
            [("f1", "s\x001", "T"), ("f1", "s1", "T")], on_error="skip"
        )
        assert batch.report.reasons() == {MALFORMED_ROW: 1}
        with pytest.raises(LedgerError, match="NUL"):
            ledger.epoch_dataset(["f1", "x\x00"], ledger.max_batch_id())
        nul = Dataset(matrix=VoteMatrix.from_rows(["s1"], {"n\x00": ["T"]}), truth={})
        with pytest.raises(LedgerError, match="NUL"):
            ledger.import_dataset(nul)
        assert ledger.counts()["facts"] == 1


def test_ids_outside_the_allow_list_are_refused(tmp_path):
    """Only a string, an ``int`` or a finite ``float`` is an id: the
    ``str()`` of anything else is a repr, or folds distinct ids into one.
    An ``int`` past Python's ``str()`` digit limit has no text at all."""
    rows = [
        (b"f1", "s1", "T"),
        (frozenset({"f1"}), "s1", "T"),
        (VoteMatrix, "s1", "T"),
        ("f1", float("nan"), "T"),
        (float("inf"), "s1", "T"),
        (10**5000, "s1", "T"),
        ("f1", "s1", "T"),
    ]
    with VoteLedger(tmp_path / "s.db") as ledger:
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes([(10**5000, "s1", "T")])
        assert excinfo.value.reason == MALFORMED_ROW
        batch = ledger.ingest_votes(rows, on_error="quarantine")
        assert batch.report.reasons() == {MALFORMED_ROW: 6}
        assert batch.report.issues[0].row == {
            "fact": b"f1", "source": "s1", "vote": "T",
        }
        assert batch.report.issues[5].row is None
        assert batch.new_facts == ("f1",)
        assert batch.new_sources == ("s1",)
        # The stored quarantine report stays JSON: bytes keep their repr.
        (stored,) = [
            b["report"] for b in ledger.list_batches()
            if b["batch_id"] == batch.batch_id
        ]
        assert stored["issues"][0]["row"]["fact"] == "b'f1'"


#: One batch holding every ``ingest_votes`` reject reason, against a store
#: with a labelled fact ``done`` and a pending fact ``open`` (voted T by
#: ``s-1``).
EVERY_REASON = [
    "abT",
    ("only", "two"),
    {"fact": "x", "source": "", "vote": "T"},
    {"fact": ["x"], "source": "s-2", "vote": "T"},
    {"fact": "x", "source": {"a": 1}, "vote": "T"},
    {"fact": True, "source": "s-2", "vote": "T"},
    ("x", "s-2", "maybe"),
    ("x", "s-2", 1),
    ("x", "s-2", "-"),
    ("done", "s-2", "T"),
    ("open", "s-1", "T"),
    ("open", "s-1", "F"),
    ("fresh", "s-2", "T"),
    ("fresh", "s-2", "T"),
    ("fresh", "s-2", "F"),
    (7, 8.5, "F"),
    ("open", "s-3", " t "),
]

#: What the per-row ingest reported for EVERY_REASON, plus rows 4–6: it
#: stored those as the facts "['x']" and "True" and the source
#: "{'a': 1}" until ids that are lists, mappings or booleans became
#: ``malformed_row``.  (location, reason, message, quarantined row)
EVERY_REASON_ISSUES = [
    ("row 1", "missing_field",
     "row 1: expected (fact, source, vote), got a bare string", None),
    ("row 2", "missing_field", "row 2: expected (fact, source, vote)", None),
    ("row 3", "missing_field", "row 3: missing fact, source or vote",
     {"fact": "x", "source": "", "vote": "T"}),
    ("row 4", "malformed_row",
     "row 4: fact and source must be strings or numbers, without NUL",
     {"fact": ["x"], "source": "s-2", "vote": "T"}),
    ("row 5", "malformed_row",
     "row 5: fact and source must be strings or numbers, without NUL",
     {"fact": "x", "source": {"a": 1}, "vote": "T"}),
    ("row 6", "malformed_row",
     "row 6: fact and source must be strings or numbers, without NUL",
     {"fact": True, "source": "s-2", "vote": "T"}),
    ("row 7", "bad_vote_symbol", "row 7: unrecognised vote symbol 'maybe'",
     {"fact": "x", "source": "s-2", "vote": "maybe"}),
    ("row 8", "bad_vote_symbol", "row 8: vote symbol must be a string",
     {"fact": "x", "source": "s-2", "vote": 1}),
    ("row 9", "dash_vote", "row 9: '-' votes must simply be omitted",
     {"fact": "x", "source": "s-2", "vote": "-"}),
    ("row 10", "stale_fact",
     "row 10: fact 'done' is already corroborated; late votes are rejected",
     {"fact": "done", "source": "s-2", "vote": "T"}),
    ("row 11", "duplicate_vote",
     "row 11: duplicate vote for fact='open' source='s-1'",
     {"fact": "open", "source": "s-1", "vote": "T"}),
    ("row 12", "conflicting_vote",
     "row 12: conflicting vote for fact='open' source='s-1'",
     {"fact": "open", "source": "s-1", "vote": "F"}),
    ("row 14", "duplicate_vote",
     "row 14: duplicate vote for fact='fresh' source='s-2'",
     {"fact": "fresh", "source": "s-2", "vote": "T"}),
    ("row 15", "conflicting_vote",
     "row 15: conflicting vote for fact='fresh' source='s-2'",
     {"fact": "fresh", "source": "s-2", "vote": "F"}),
]


def reason_store(path) -> VoteLedger:
    ledger = VoteLedger(path)
    ledger.ingest_votes([("done", "s-1", "T")])
    CorroborationService(ledger).refresh()
    ledger.ingest_votes([("open", "s-1", "T")])
    return ledger


@pytest.mark.parametrize("policy", ["skip", "quarantine"])
def test_every_reject_reason_reports_as_the_per_row_ingest(tmp_path, policy):
    with reason_store(tmp_path / "s.db") as ledger:
        batch = ledger.ingest_votes(EVERY_REASON, on_error=policy)
        issues = [
            {"location": location, "reason": reason, "message": message}
            | ({"row": row} if row is not None and policy == "quarantine" else {})
            for location, reason, message, row in EVERY_REASON_ISSUES
        ]
        assert batch.report.to_record() == {
            "source": f"{ledger.path}::votes",
            "policy": policy,
            "rows_read": 17,
            "rows_kept": 3,
            "rows_dropped": 14,
            "reasons": {
                "missing_field": 3,
                "malformed_row": 3,
                "bad_vote_symbol": 2,
                "dash_vote": 1,
                "stale_fact": 1,
                "duplicate_vote": 2,
                "conflicting_vote": 2,
            },
            "issues": issues,
        }
        assert batch.new_facts == ("fresh", "7")
        assert batch.new_sources == ("s-2", "8.5", "s-3")
        assert batch.votes_added == 3
        assert ledger.fact_record("open")["votes"] == {"s-1": "T", "s-3": "T"}


@pytest.mark.parametrize("start", [0, 3, 9])
def test_every_reject_reason_strict_raises_the_first(tmp_path, start):
    """Strict raises the batch's first dirty row and commits nothing."""
    with reason_store(tmp_path / "s.db") as ledger:
        before = ledger.counts()
        with pytest.raises(IngestError) as excinfo:
            ledger.ingest_votes(EVERY_REASON[start:])
        _, reason, message, _ = EVERY_REASON_ISSUES[start]
        first = message.split(": ", 1)[1]
        assert excinfo.value.reason == reason
        assert excinfo.value.location == "row 1"
        assert str(excinfo.value) == f"row 1: {first}"
        assert ledger.counts() == before
