"""The persistent vote ledger: a corroboration problem that survives.

:class:`VoteLedger` wraps one SQLite database (WAL mode, stdlib
``sqlite3``) holding the schema of :mod:`repro.store.schema`.  It is the
storage half of the serving layer: batch pipelines ``import_dataset`` a
:class:`~repro.model.dataset.Dataset` into it, the corroboration service
(:mod:`repro.serve`) appends vote batches through ``ingest_votes`` and
persists each refresh epoch's verdicts transactionally through
``record_stream_epoch``, and ``export_dataset`` round-trips the stored matrix
back into a ``Dataset`` losslessly — same facts, sources, votes, truth,
golden set and *registration order*.

Ingest semantics are the file readers' own: every row, posted or read
from a CSV in one pass, passes :mod:`repro.model.io`'s one row rule, and
every batch runs under an :class:`~repro.resilience.errors.ErrorPolicy`
(``strict`` raises on the first dirty row and the transaction rolls back
whole; ``skip`` / ``quarantine`` drop dirty rows and account for each in
an :class:`~repro.resilience.errors.IngestReport`).  Beyond the row rule
the ledger enforces two store-level rules: a ``(fact, source)``
pair may hold one vote ever (``duplicate_vote`` / ``conflicting_vote``
against the stored symbol), and a vote on an already-labelled fact is
rejected as ``stale_fact`` and counted — the append-only stream
semantics evaluate each fact exactly once, so late votes on a
corroborated fact never re-open it (see ``docs/serving.md``).

Bulk paths are set-at-a-time: a batch's ids go to SQLite as one
``json_each`` list that drives a keyed join, so a batch is a few reads
and one ``executemany`` per table, and a refresh epoch's votes are one
ordered statement (:meth:`VoteLedger.epoch_dataset`).  The epoch's
matrix keys every vote on the caller's fact object and the registered
source object, so each id is held once however many votes name it.

Crash safety is SQLite's: every mutation runs inside one transaction, so
a process killed mid-ingest rolls back to the previous committed state on
the next open — the store is never partially committed (the chaos suite
kills a subprocess mid-batch to prove it).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib
import sqlite3
import time
from collections.abc import Iterable, Mapping, Sequence
from datetime import datetime, timezone
from operator import itemgetter

from repro.model.dataset import Dataset
from repro.model.io import (
    _csv_votes,
    _issue,
    _open_text,
    _prepare_report,
    _reject,
    _repeated_vote,
    _vote_fields,
)
from repro.model.matrix import FactId, SourceId, VoteMatrix
from repro.model.votes import VOTE_OF_SYMBOL
from repro.obs import NULL_OBS, Obs
from repro.obs.context import current_trace_id
from repro.resilience.errors import (
    DUPLICATE_FACT,
    STALE_FACT,
    ErrorPolicy,
    IngestReport,
    ResilienceError,
    RowIssue,
    reject_row,
)

PathLike = str | pathlib.Path


class LedgerError(ResilienceError):
    """The store is not a vote ledger, or its state is inconsistent."""


@dataclasses.dataclass(frozen=True)
class IngestBatch:
    """One committed batch: its log id and what it changed."""

    batch_id: int
    kind: str
    report: IngestReport
    new_facts: tuple[FactId, ...]
    new_sources: tuple[SourceId, ...]
    votes_added: int


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _json_ids(ids: Iterable[str]) -> str:
    """``ids`` as the JSON array a ``json_each(?)`` set read joins on.

    SQLite's JSON reader ends a string at an escaped NUL, so an id holding
    one would silently match nothing; the store refuses such ids instead.
    """
    ids = list(ids)
    if any("\x00" in i for i in ids):
        raise LedgerError("ids containing NUL cannot be stored or read")
    return json.dumps(ids, ensure_ascii=False)


class VoteLedger:
    """One persistent corroboration store (see module docstring).

    Args:
        path: SQLite file; created (with the current schema) when absent,
            validated and forward-migrated when present.
        name: dataset name recorded in a *freshly created* store's meta
            (existing stores keep theirs).
        obs: observability bundle; committed batches emit ``ingest_batch``
            ledger records and ``store.*`` metrics.

    The connection is created with ``check_same_thread=False`` so the
    threaded HTTP frontend can share it; the serving layer serialises all
    access behind one lock (SQLite itself is not the concurrency story
    here — the service owns the store exclusively).
    """

    def __init__(
        self,
        path: PathLike,
        *,
        name: str = "dataset",
        obs: Obs = NULL_OBS,
    ) -> None:
        from repro.store.schema import (
            SCHEMA_VERSION,
            STORE_FORMAT,
            create_schema,
            migrate,
        )

        self.path = pathlib.Path(path)
        self._obs = obs
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        existing = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        if existing is None:
            if self._conn.execute("SELECT name FROM sqlite_master").fetchone():
                raise LedgerError(
                    f"{self.path} is a SQLite database but not a vote ledger"
                )
            with self._conn:
                create_schema(self._conn)
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('name', ?)", (name,)
                )
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('created_at', ?)",
                    (_utc_now(),),
                )
        else:
            marker = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'format'"
            ).fetchone()
            if marker is None or marker[0] != STORE_FORMAT:
                raise LedgerError(f"{self.path} is not a {STORE_FORMAT} store")
            try:
                steps = migrate(self._conn)
            except ValueError as exc:
                raise LedgerError(str(exc)) from exc
            if steps and obs.enabled:
                obs.metrics.inc("store.migrations", steps)
        self.schema_version = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "VoteLedger":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @property
    def name(self) -> str:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'name'"
        ).fetchone()
        return row[0] if row is not None else "dataset"

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def import_dataset(
        self,
        dataset: Dataset,
        *,
        on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
        report: IngestReport | None = None,
    ) -> IngestBatch:
        """Bulk-load ``dataset`` as one ``import`` batch.

        Sources and facts are inserted in registration order (the order
        :meth:`export_dataset` reproduces).  A fact id the store already
        holds is a dirty row (``duplicate_fact``): strict rolls the whole
        batch back, the lenient policies skip the fact — votes included —
        and account for it.  Truth and golden membership ride on the fact
        rows.  Only the dataset's own ids are looked up, and each table is
        written with one ``executemany``.
        """
        policy = ErrorPolicy.coerce(on_error)
        report = _prepare_report(report, f"{self.path}::import", policy)
        matrix = dataset.matrix
        started = time.perf_counter()
        with self._conn:
            batch_id = self._open_batch("import")
            existing_facts = self._known_ids("facts", "fact_id", matrix.facts)
            kept_facts: list[str] = []
            for fact in matrix.facts:
                report.rows_read += 1
                if fact in existing_facts:
                    reject_row(
                        policy,
                        report,
                        location=f"facts[{fact!r}]",
                        reason=DUPLICATE_FACT,
                        message=f"fact {fact!r} already exists in {self.path}",
                        row={"fact": fact},
                    )
                    continue
                kept_facts.append(fact)
                report.rows_kept += 1
            truth = dataset.truth
            self._conn.executemany(
                "INSERT INTO facts (fact_id, truth, golden, batch_id) "
                "VALUES (?, ?, ?, ?)",
                (
                    (
                        fact,
                        None if truth.get(fact) is None else int(truth[fact]),
                        int(fact in dataset.golden_set),
                        batch_id,
                    )
                    for fact in kept_facts
                ),
            )
            known_sources = self._known_ids(
                "sources", "source_id", matrix.sources
            )
            new_sources = [s for s in matrix.sources if s not in known_sources]
            self._conn.executemany(
                "INSERT INTO sources (source_id, batch_id) VALUES (?, ?)",
                ((source, batch_id) for source in new_sources),
            )
            votes_added = self._conn.executemany(
                "INSERT INTO votes (fact_id, source_id, vote, batch_id) "
                "VALUES (?, ?, ?, ?)",
                (
                    (fact, source, vote.value, batch_id)
                    for fact in kept_facts
                    for source, vote in sorted(matrix.iter_votes_on(fact))
                ),
            ).rowcount
            if dataset.name and self.name == "dataset":
                # A fresh store inherits the first import's name, so the
                # export round-trip preserves ``Dataset.name``.
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'name'",
                    (dataset.name,),
                )
            self._close_batch(batch_id, report)
        batch = IngestBatch(
            batch_id=batch_id,
            kind="import",
            report=report,
            new_facts=tuple(kept_facts),
            new_sources=tuple(new_sources),
            votes_added=votes_added,
        )
        self._observe_batch(batch, time.perf_counter() - started)
        return batch

    def ingest_votes(
        self,
        rows: Iterable[tuple[str, str, str] | Mapping[str, object]],
        *,
        on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
        report: IngestReport | None = None,
    ) -> IngestBatch:
        """Append one ``votes`` batch; returns the committed batch.

        ``rows`` are ``(fact, source, symbol)`` triples or mappings with
        ``fact`` / ``source`` / ``vote`` keys (the HTTP payload shape),
        located ``row N``.  Each passes :mod:`repro.model.io`'s one row
        rule: a row that is neither, a bare string included, is a
        ``missing_field`` reject, and an id that is a list, tuple, mapping
        or boolean, or holds a NUL, is ``malformed_row`` (numbers coerce
        with ``str()``; an ``int`` past its digit limit is
        ``malformed_row`` too).  New facts and sources register
        themselves, in row order; votes on *pending* (not yet labelled)
        facts are welcome, votes on labelled facts are ``stale_fact``
        rejects, and repeats of a stored ``(fact, source)`` pair are
        ``duplicate_vote`` / ``conflicting_vote``.  Only the batch's own
        facts, sources and pairs are read, in three keyed set reads, and
        each table is written with one ``executemany``, so the cost is
        O(batch) whatever the store's size.
        """
        policy = ErrorPolicy.coerce(on_error)
        report = _prepare_report(report, f"{self.path}::votes", policy)

        def checked() -> Iterable[tuple[str, tuple | RowIssue]]:
            for index, raw in enumerate(rows, 1):
                report.rows_read += 1
                location = f"row {index}"
                yield location, _vote_fields(raw, location)

        return self._append_votes(checked(), policy, report)

    def ingest_votes_csv(
        self,
        path_or_handle,
        *,
        on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
        report: IngestReport | None = None,
    ) -> IngestBatch:
        """One ``votes`` batch read from a ``fact,source,vote`` CSV.

        One pass: the file's lines, located ``line N``, stream through the
        row rule into :meth:`ingest_votes`' batch writer inside the batch
        transaction.  Sources register in file order, as ``POST /votes``
        registers them, and a line repeating a pair of the same file is
        ``duplicate_vote`` / ``conflicting_vote`` like any in-batch
        repeat.  Under ``strict`` the first bad line in file order raises,
        and a file that fails mid-read rolls the whole batch back.
        """
        policy = ErrorPolicy.coerce(on_error)
        handle, owns_handle, name = _open_text(path_or_handle)
        report = _prepare_report(report, f"{name} -> {self.path}", policy)
        try:
            return self._append_votes(_csv_votes(handle, name, report), policy, report)
        finally:
            if owns_handle:
                handle.close()

    def _append_votes(
        self,
        rows: Iterable[tuple[str, tuple | RowIssue]],
        policy: ErrorPolicy,
        report: IngestReport,
    ) -> IngestBatch:
        """The batch writer of both vote ingests: ``rows`` are ``(location,
        fields)`` pairs, ``fields`` as :func:`repro.model.io._vote_fields`
        returns them; every reject is applied in row order."""
        started = time.perf_counter()
        with self._conn:
            batch_id = self._open_batch("votes")
            # Read inside the transaction: a row iterator that raises (or
            # kills the process) part-way still aborts the whole batch.
            rows = list(rows)
            clean = [row for _, row in rows if not isinstance(row, RowIssue)]
            fact_status = self._fact_statuses(
                dict.fromkeys(fact for fact, _, _, _ in clean)
            )
            stored = self._stored_votes(
                dict.fromkeys((fact, source) for fact, source, _, _ in clean)
            )
            known_sources = self._known_ids(
                "sources",
                "source_id",
                dict.fromkeys(source for _, source, _, _ in clean),
            )
            new_facts: list[str] = []
            new_sources: list[str] = []
            votes: list[tuple[str, str, str, int]] = []
            for location, row in rows:
                if isinstance(row, RowIssue):
                    _reject(policy, report, row)
                    continue
                fact, source, vote, payload = row
                status = fact_status.get(fact, "new")
                prior_symbol = stored.get((fact, source))
                if status == "labelled":
                    row = _issue(
                        location,
                        STALE_FACT,
                        f"fact {fact!r} is already corroborated; "
                        "late votes are rejected",
                        payload,
                    )
                elif prior_symbol is not None:
                    same = prior_symbol == vote.value
                    row = _repeated_vote(location, fact, source, same, payload)
                if isinstance(row, RowIssue):
                    _reject(policy, report, row)
                    continue
                if status == "new":
                    fact_status[fact] = "pending"
                    new_facts.append(fact)
                if source not in known_sources:
                    known_sources.add(source)
                    new_sources.append(source)
                stored[fact, source] = vote.value
                votes.append((fact, source, vote.value, batch_id))
                report.rows_kept += 1
            self._conn.executemany(
                "INSERT INTO facts (fact_id, batch_id) VALUES (?, ?)",
                ((fact, batch_id) for fact in new_facts),
            )
            self._conn.executemany(
                "INSERT INTO sources (source_id, batch_id) VALUES (?, ?)",
                ((source, batch_id) for source in new_sources),
            )
            self._conn.executemany(
                "INSERT INTO votes (fact_id, source_id, vote, batch_id) "
                "VALUES (?, ?, ?, ?)",
                votes,
            )
            self._close_batch(batch_id, report)
        batch = IngestBatch(
            batch_id=batch_id,
            kind="votes",
            report=report,
            new_facts=tuple(new_facts),
            new_sources=tuple(new_sources),
            votes_added=len(votes),
        )
        self._observe_batch(batch, time.perf_counter() - started)
        return batch

    def _open_batch(self, kind: str) -> int:
        cursor = self._conn.execute(
            "INSERT INTO ingest_log (kind, created_at) VALUES (?, ?)",
            (kind, _utc_now()),
        )
        return int(cursor.lastrowid)

    def _close_batch(self, batch_id: int, report: IngestReport) -> None:
        self._conn.execute(
            "UPDATE ingest_log SET rows_read=?, rows_kept=?, report=? "
            "WHERE batch_id=?",
            (
                report.rows_read,
                report.rows_kept,
                # A quarantined row from a library caller may hold
                # values JSON cannot encode (bytes); keep their repr.
                json.dumps(report.to_record(), default=repr),
                batch_id,
            ),
        )

    # Set reads: the ids arrive as one ``json_each`` list that drives the
    # join, so each is one keyed lookup whatever the table's size.
    def _known_ids(
        self, table: str, column: str, ids: Iterable[str]
    ) -> set[str]:
        """Those of ``ids`` that ``table`` already holds."""
        return {
            row[0]
            for row in self._conn.execute(
                f"SELECT t.{column} FROM json_each(?) j "
                f"JOIN {table} t ON t.{column} = j.value",
                (_json_ids(ids),),
            )
        }

    def _fact_statuses(self, facts: Iterable[FactId]) -> dict[FactId, str]:
        """``pending`` or ``labelled`` for each of ``facts`` the store
        holds; an absent fact is new."""
        return {
            fact: "labelled" if labelled else "pending"
            for fact, labelled in self._conn.execute(
                "SELECT f.fact_id, EXISTS "
                "(SELECT 1 FROM labels l WHERE l.fact_id = f.fact_id) "
                "FROM json_each(?) j JOIN facts f ON f.fact_id = j.value",
                (_json_ids(facts),),
            )
        }

    def _stored_votes(
        self, pairs: Iterable[tuple[FactId, SourceId]]
    ) -> dict[tuple[FactId, SourceId], str]:
        """The stored symbol of each ``(fact, source)`` pair that has one."""
        # The ids passed the row rule, so none holds a NUL.
        return {
            (fact, source): symbol
            for fact, source, symbol in self._conn.execute(
                "SELECT v.fact_id, v.source_id, v.vote FROM json_each(?) j "
                "JOIN votes v ON v.fact_id = json_extract(j.value, '$[0]') "
                "AND v.source_id = json_extract(j.value, '$[1]')",
                (json.dumps(list(pairs), ensure_ascii=False),),
            )
        }

    def _observe_batch(self, batch: IngestBatch, seconds: float) -> None:
        obs = self._obs
        if not obs.enabled:
            return
        trace_id = current_trace_id()
        span_args = {"batch_id": batch.batch_id, "batch_kind": batch.kind}
        if trace_id is not None:
            span_args["trace_id"] = trace_id
        # The batch already committed; record it as an instant marker so
        # the store's ingests line up with the serve spans in one trace.
        obs.tracer.instant("store.ingest", seconds=seconds, **span_args)
        obs.metrics.inc("store.batches")
        obs.metrics.inc("store.votes_ingested", batch.votes_added)
        obs.metrics.observe("store.ingest_seconds", seconds)
        record = {
            "store": str(self.path),
            "batch_id": batch.batch_id,
            "batch_kind": batch.kind,
            "rows_read": batch.report.rows_read,
            "rows_kept": batch.report.rows_kept,
            "new_facts": len(batch.new_facts),
            "new_sources": len(batch.new_sources),
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        obs.runlog.emit("ingest_batch", **record)

    # ------------------------------------------------------------------
    # Export / queries
    # ------------------------------------------------------------------
    def export_dataset(self) -> Dataset:
        """The stored problem instance as a :class:`Dataset` — losslessly.

        Sources and facts come back in their stored ``position`` order
        (identical to the original registration order), so the export is
        the *identity* inverse of :meth:`import_dataset`: same lists, same
        fact-group order, same tie breaks downstream.  The matrix is
        :meth:`epoch_dataset`'s over every fact and source.
        """
        facts: list[FactId] = []
        truth: dict[str, bool] = {}
        golden: set[str] = set()
        for fact, fact_truth, is_golden in self._conn.execute(
            "SELECT fact_id, truth, golden FROM facts ORDER BY position"
        ):
            facts.append(fact)
            if fact_truth is not None:
                truth[fact] = bool(fact_truth)
            if is_golden:
                golden.add(fact)
        return Dataset(
            matrix=self.epoch_dataset(facts, self.max_batch_id()).matrix,
            truth=truth,
            golden_set=frozenset(golden),
            name=self.name,
        )

    def epoch_dataset(self, facts: Sequence[FactId], last_batch: int) -> Dataset:
        """One epoch's problem instance: ``facts``, every source known once
        ``last_batch`` had committed, and their votes.

        Sources register first, in store position order, so carried
        sources form a prefix of the delta source list
        (``StreamEngine.run_epoch`` checks it) and a replayed epoch sees
        the exact source set it originally ran with; facts register in the
        given order.  All the votes come back in one statement — ``facts``
        as a ``json_each`` list joined to ``votes`` by key, ordered by list
        index, then source position — streamed into the matrix.  Every key
        the matrix holds is the caller's fact object or the registered
        source object, never SQLite's fresh copy of the id per vote.
        Every vote on an epoch's facts predates its ``last_batch`` (a later
        one is ``stale_fact``), so its source is among the registered ones.
        """
        matrix = VoteMatrix()
        registered: dict[SourceId, SourceId] = {}
        for source in self.sources_up_to_batch(last_batch):
            matrix.add_source(source)
            registered[source] = source
        for fact in facts:
            matrix.add_fact(fact)
        rows = self._conn.execute(
            "SELECT j.key, v.source_id, v.vote FROM json_each(?) j "
            "JOIN votes v ON v.fact_id = j.value "
            "JOIN sources s ON s.source_id = v.source_id "
            "ORDER BY j.key, s.position",
            (_json_ids(facts),),
        )
        for index, votes in itertools.groupby(rows, key=itemgetter(0)):
            matrix.add_votes(
                facts[index],
                (
                    (registered[source], VOTE_OF_SYMBOL[symbol])
                    for _, source, symbol in votes
                ),
            )
        return Dataset(matrix=matrix, truth={}, name=self.name)

    def counts(self) -> dict:
        """Row counts per table (summary / test assertions)."""
        tables = ("sources", "facts", "votes", "labels", "ingest_log", "epochs")
        out = {
            table: self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in tables
        }
        out["pending"] = out["facts"] - out["labels"]
        return out

    def ingest_totals(self) -> dict:
        """Lifetime ingest accounting summed over the ingest log.

        ``rows_dropped`` is the quarantine/skip total: rows read but not
        kept across every committed batch (open batches count as zero).
        """
        row = self._conn.execute(
            "SELECT COUNT(*), "
            "COALESCE(SUM(COALESCE(rows_read, 0)), 0), "
            "COALESCE(SUM(COALESCE(rows_kept, 0)), 0) FROM ingest_log"
        ).fetchone()
        batches, rows_read, rows_kept = int(row[0]), int(row[1]), int(row[2])
        return {
            "batches": batches,
            "rows_read": rows_read,
            "rows_kept": rows_kept,
            "rows_dropped": rows_read - rows_kept,
        }

    def _watermark(self) -> int:
        """The last committed epoch's ``last_batch`` (0 before any epoch)."""
        row = self._conn.execute(
            "SELECT last_batch FROM epochs ORDER BY epoch DESC LIMIT 1"
        ).fetchone()
        return 0 if row is None else int(row[0])

    def pending_facts(self) -> list[FactId]:
        """The dirty set: unlabelled facts registered after the last
        committed epoch's ``last_batch``, in registration order.

        Every refresh labels the whole pending set and commits those
        labels with its epoch row, and batch ids only grow, so no fact at
        or below the watermark is unlabelled (:meth:`reconcile` refuses a
        store where one is).  The read walks ``idx_facts_batch`` from the
        watermark and sorts only those rows: O(pending), whatever the
        store's size.
        """
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT fact_id FROM facts INDEXED BY idx_facts_batch "
                "WHERE batch_id > ? AND NOT EXISTS "
                "(SELECT 1 FROM labels WHERE labels.fact_id = facts.fact_id) "
                "ORDER BY position",
                (self._watermark(),),
            )
        ]

    def facts_in_epoch(self, epoch: int) -> list[FactId]:
        """Facts labelled by refresh ``epoch``, in registration order."""
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT f.fact_id FROM labels l "
                "JOIN facts f ON f.fact_id = l.fact_id "
                "WHERE l.epoch = ? ORDER BY f.position",
                (epoch,),
            )
        ]

    def sources_up_to_batch(self, batch_id: int) -> list[SourceId]:
        """Sources known once ``batch_id`` had committed, in order."""
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT source_id FROM sources WHERE batch_id <= ? "
                "ORDER BY position",
                (batch_id,),
            )
        ]

    def votes_on(self, fact: FactId) -> list[tuple[SourceId, str]]:
        """``(source, symbol)`` votes on ``fact``, in source order."""
        return [
            (row[0], row[1])
            for row in self._conn.execute(
                "SELECT v.source_id, v.vote FROM votes v "
                "JOIN sources s ON s.source_id = v.source_id "
                "WHERE v.fact_id = ? ORDER BY s.position",
                (fact,),
            )
        ]

    def max_batch_id(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(batch_id), 0) FROM ingest_log"
        ).fetchone()
        return int(row[0])

    def list_epochs(self) -> list[dict]:
        return [
            dict(row)
            for row in self._conn.execute("SELECT * FROM epochs ORDER BY epoch")
        ]

    def list_batches(self) -> list[dict]:
        """The append-only ingest log, oldest first (reports parsed)."""
        batches = []
        for row in self._conn.execute(
            "SELECT * FROM ingest_log ORDER BY batch_id"
        ):
            record = dict(row)
            if record.get("report"):
                record["report"] = json.loads(record["report"])
            batches.append(record)
        return batches

    def label_row(self, fact: FactId) -> dict | None:
        row = self._conn.execute(
            "SELECT * FROM labels WHERE fact_id = ?", (fact,)
        ).fetchone()
        return dict(row) if row is not None else None

    def fact_record(self, fact: FactId) -> dict | None:
        """Everything the store knows about one fact (the API payload)."""
        row = self._conn.execute(
            "SELECT * FROM facts WHERE fact_id = ?", (fact,)
        ).fetchone()
        if row is None:
            return None
        record = {
            "fact": fact,
            "batch_id": row["batch_id"],
            "truth": None if row["truth"] is None else bool(row["truth"]),
            "golden": bool(row["golden"]),
            "votes": {source: symbol for source, symbol in self.votes_on(fact)},
        }
        label = self.label_row(fact)
        if label is None:
            record["status"] = "pending"
        else:
            record.update(
                status="corroborated",
                probability=label["probability"],
                label=bool(label["label"]),
                flipped=bool(label["flipped"]),
                epoch=label["epoch"],
                time_point=label.get("time_point"),
            )
        return record

    def source_record(self, source: SourceId) -> dict | None:
        """Current trust plus the full trajectory of one source."""
        row = self._conn.execute(
            "SELECT * FROM sources WHERE source_id = ?", (source,)
        ).fetchone()
        if row is None:
            return None
        trajectory = [
            r[0]
            for r in self._conn.execute(
                "SELECT trust FROM trust_trajectory WHERE source_id = ? "
                "ORDER BY time_point",
                (source,),
            )
        ]
        votes = self._conn.execute(
            "SELECT COUNT(*) FROM votes WHERE source_id = ?", (source,)
        ).fetchone()[0]
        return {
            "source": source,
            "batch_id": row["batch_id"],
            "votes": votes,
            "trust": trajectory[-1] if trajectory else None,
            "trajectory": trajectory,
        }

    def summary(self) -> dict:
        """One structured overview row (the ``query --summary`` payload)."""
        state = self.load_session_state()
        return {
            "store": str(self.path),
            "name": self.name,
            "schema_version": self.schema_version,
            "epoch": None if state is None else state[0],
            **self.counts(),
        }

    # ------------------------------------------------------------------
    # Refresh persistence
    # ------------------------------------------------------------------
    def load_session_state(self) -> tuple[int, dict] | None:
        """The continuation state of the last committed epoch, if any."""
        row = self._conn.execute(
            "SELECT epoch, state FROM session_state WHERE id = 1"
        ).fetchone()
        if row is None:
            return None
        return int(row["epoch"]), json.loads(row["state"])

    def record_stream_epoch(
        self,
        *,
        epoch: int,
        last_batch: int,
        labels: Sequence[tuple],
        base: int,
        rows: Iterable[Mapping[SourceId, float]],
        new_sources: Iterable[SourceId],
        backfill_start: int,
        backfill_trust: float,
        compact_before: int,
        time_points: int,
        state: dict,
    ) -> dict:
        """Persist one refresh epoch in a single transaction.

        Writes the epoch's new ``labels`` — ``(fact, probability, label,
        flipped, time_point)`` rows (:class:`~repro.stream.engine
        .LabelRow`) — inserts its trajectory ``rows`` at global time
        points ``base + i``, gives late-joining ``new_sources`` λ
        (``backfill_trust``) rows over the retained prefix
        ``[backfill_start, base)`` — exactly the densification an epoch
        replay applies to its carried history — drops every time point
        below ``compact_before`` (trajectory compaction; labels and
        continuation state never depend on dropped rows), appends the
        ``epochs`` row (``action='stream'``, ``entropy_mass`` NULL) and
        upserts the continuation ``state`` — atomically, so a kill
        between refresh and commit leaves the previous epoch fully
        intact.  Compaction is one-way: nothing rebuilds dropped rows.
        Labels, trajectory rows and backfill rows are one ``executemany``
        each, fed by generators.

        Returns the write accounting (rows appended / backfilled /
        compacted) for the ``stream.*`` metrics.
        """
        insert_trust = (
            "INSERT INTO trust_trajectory (time_point, source_id, trust) "
            "VALUES (?, ?, ?)"
        )
        retained = range(max(backfill_start, compact_before), base)
        with self._conn:
            self._conn.executemany(
                "INSERT INTO labels (fact_id, probability, label, flipped, "
                "epoch, time_point) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    (fact, probability, int(label), int(flipped), epoch, point)
                    for fact, probability, label, flipped, point in labels
                ),
            )
            appended = self._conn.executemany(
                insert_trust,
                (
                    (base + offset, source, float(trust))
                    for offset, vector in enumerate(rows)
                    if base + offset >= compact_before
                    for source, trust in vector.items()
                ),
            ).rowcount
            backfilled = self._conn.executemany(
                insert_trust,
                (
                    (time_point, source, float(backfill_trust))
                    for source in new_sources
                    for time_point in retained
                ),
            ).rowcount
            compacted = self._conn.execute(
                "DELETE FROM trust_trajectory WHERE time_point < ?",
                (compact_before,),
            ).rowcount
            self._conn.execute(
                "INSERT INTO epochs (epoch, last_batch, action, facts, "
                "time_points, entropy_mass, created_at) "
                "VALUES (?, ?, 'stream', ?, ?, NULL, ?)",
                (epoch, last_batch, len(labels), time_points, _utc_now()),
            )
            self._conn.execute(
                "INSERT INTO session_state (id, epoch, state) VALUES (1, ?, ?) "
                "ON CONFLICT(id) DO UPDATE SET epoch=excluded.epoch, "
                "state=excluded.state",
                (epoch, json.dumps(state, separators=(",", ":"))),
            )
        return {
            "rows_appended": appended,
            "rows_backfilled": backfilled,
            "rows_compacted": compacted,
        }

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def reconcile(self) -> dict:
        """Startup integrity pass — the crash-recovery contract.

        Every ledger mutation runs in one SQLite transaction, so a
        ``kill -9`` normally rolls back whole (the chaos suite proves
        it).  ``reconcile`` is the defense-in-depth audit a service runs
        before serving a store it did not shut down cleanly:

        1. **Orphan labels** — label rows whose epoch never committed
           are deleted, returning their facts to the pending set.
        2. **Torn batches** — ``ingest_log`` rows that never closed
           (``report`` still NULL, as left by a foreign writer or a
           partial file copy).  A batch at or below the last committed
           epoch's ``last_batch`` was read by that epoch, so its body is
           real and only its closing row was lost: the data is kept and
           the log row closed as ``reconciled: kept``.  No epoch read a
           batch above it, so there the batch's votes, its
           now-unreferenced facts and its now-voteless sources are
           removed and the row closed as ``reconciled: quarantined`` —
           the log itself stays append-only either way.
        3. **Session state** — the continuation epoch must match the
           last committed ``epochs`` row; a mismatch is unrepairable
           corruption and raises :class:`LedgerError`.
        4. **Batch watermark** — every fact registered at or below the
           last committed epoch's ``last_batch`` must carry a label, as
           every refresh leaves it; :meth:`pending_facts` reads only
           above the watermark, so an unlabelled fact below it would stay
           pending for ever and raises :class:`LedgerError` instead.

        The pass is idempotent, runs in a single transaction, and
        deterministically restores the pending set: after it, a refresh
        labels exactly the facts an uninterrupted run would have.  The
        returned report feeds the ``startup_recovery`` runlog record.
        """
        with self._conn:
            orphan_labels = self._conn.execute(
                "DELETE FROM labels WHERE epoch NOT IN (SELECT epoch FROM epochs)"
            ).rowcount
            watermark = self._watermark()
            torn = [
                int(row[0])
                for row in self._conn.execute(
                    "SELECT batch_id FROM ingest_log WHERE report IS NULL "
                    "ORDER BY batch_id"
                )
            ]
            quarantined: list[int] = []
            kept: list[int] = []
            votes_removed = facts_removed = sources_removed = 0
            for batch_id in torn:
                if batch_id <= watermark:
                    kept.append(batch_id)
                    self._conn.execute(
                        "UPDATE ingest_log SET report = ? WHERE batch_id = ?",
                        (json.dumps({"reconciled": "kept"}), batch_id),
                    )
                    continue
                quarantined.append(batch_id)
                votes_removed += self._conn.execute(
                    "DELETE FROM votes WHERE batch_id = ?", (batch_id,)
                ).rowcount
                facts_removed += self._conn.execute(
                    "DELETE FROM facts WHERE batch_id = ? "
                    "AND fact_id NOT IN (SELECT fact_id FROM votes) "
                    "AND fact_id NOT IN (SELECT fact_id FROM labels)",
                    (batch_id,),
                ).rowcount
                sources_removed += self._conn.execute(
                    "DELETE FROM sources WHERE batch_id = ? "
                    "AND source_id NOT IN (SELECT source_id FROM votes)",
                    (batch_id,),
                ).rowcount
                self._conn.execute(
                    "UPDATE ingest_log SET rows_kept = 0, report = ? "
                    "WHERE batch_id = ?",
                    (json.dumps({"reconciled": "quarantined"}), batch_id),
                )
            row = self._conn.execute("SELECT MAX(epoch) FROM epochs").fetchone()
            last_epoch = None if row[0] is None else int(row[0])
        state = self.load_session_state()
        state_epoch = None if state is None else state[0]
        if state_epoch != last_epoch:
            raise LedgerError(
                f"{self.path}: session_state epoch {state_epoch!r} does not "
                f"match last committed epoch {last_epoch!r}"
            )
        unlabelled = self._conn.execute(
            "SELECT COUNT(*) FROM facts WHERE batch_id <= ? AND NOT EXISTS "
            "(SELECT 1 FROM labels WHERE labels.fact_id = facts.fact_id)",
            (watermark,),
        ).fetchone()[0]
        if unlabelled:
            raise LedgerError(
                f"{self.path}: {unlabelled} fact(s) registered at or below "
                f"the batch watermark {watermark} of committed epoch "
                f"{last_epoch!r} have no label"
            )
        return {
            "store": str(self.path),
            "torn_batches": len(torn),
            "quarantined_batches": quarantined,
            "kept_batches": kept,
            "votes_removed": votes_removed,
            "facts_removed": facts_removed,
            "sources_removed": sources_removed,
            "orphan_labels": orphan_labels,
            "last_epoch": last_epoch,
            "pending": self.counts()["pending"],
            "clean": not torn and not orphan_labels,
        }

    def trajectory_rows(self) -> list[dict[SourceId, float]]:
        """The stored trust trajectory as per-time-point vectors."""
        rows: dict[int, dict[SourceId, float]] = {}
        for row in self._conn.execute(
            "SELECT tt.time_point, tt.source_id, tt.trust FROM trust_trajectory "
            "tt JOIN sources s ON s.source_id = tt.source_id "
            "ORDER BY tt.time_point, s.position"
        ):
            rows.setdefault(row["time_point"], {})[row["source_id"]] = row["trust"]
        return [rows[tp] for tp in sorted(rows)]

    def labels_map(self) -> dict[FactId, dict]:
        """All label rows keyed by fact (bit-identity comparisons)."""
        return {
            row["fact_id"]: dict(row)
            for row in self._conn.execute("SELECT * FROM labels")
        }
