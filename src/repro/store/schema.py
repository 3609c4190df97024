"""SQLite schema of the persistent vote ledger, with forward migrations.

The store keeps the full corroboration state of one problem instance on
disk: the vote matrix (``sources`` / ``facts`` / ``votes``), ground truth
and golden-set membership (columns of ``facts``), the per-fact verdicts
(``labels``), the multi-value trust trajectory (``trust_trajectory``),
the epoch history that partitions facts by the refresh that evaluated
them (``epochs``), the serialized continuation state of the live session
(``session_state``), and — crucially — an append-only ``ingest_log``.
Every source, fact and vote carries the ``batch_id`` that introduced it,
and every label carries the ``epoch`` that produced it, so any verdict is
traceable back to the exact batch of evidence it rests on, and a full
recompute can *replay* the log batch-for-batch (see
``docs/serving.md`` for the epoch-replay semantics).

Registration order matters to the algorithm (fact-group order and argmax
tie breaks follow it), so ``sources`` and ``facts`` carry an explicit
``position`` rowid and every export reads ``ORDER BY position`` — a
round-trip through the store preserves :class:`~repro.model.dataset
.Dataset` exactly, list order included.

Versioning: ``meta.schema_version`` records the layout and the format of
the stored continuation state; opening an older store applies the
statements in :data:`MIGRATIONS` (and the data steps in :data:`UPGRADES`)
in version order inside one transaction, opening a newer store refuses
(downgrades cannot be safe for a format that encodes algorithm state).
"""

from __future__ import annotations

import json
import sqlite3
from collections.abc import Callable

#: Current layout version (see :data:`MIGRATIONS` for history).
SCHEMA_VERSION = 4

#: Format marker of the stream continuation state in ``session_state`` —
#: the only continuation format a v4 store holds (:mod:`repro.stream`
#: reads and writes it; defined here so the v4 upgrade needs no import of
#: the stream layer).
STREAM_STATE_FORMAT = "serve-stream-state"

#: Format marker of the epoch-replay continuation ("carry") that v3 and
#: older stores may hold; the v4 upgrade converts it.
_V3_CARRY = "serve-epoch-carry"

#: ``meta.format`` marker distinguishing our stores from arbitrary SQLite
#: files a caller might point us at by mistake.
STORE_FORMAT = "repro-vote-ledger"

#: DDL of the version-1 layout (kept verbatim so migration tests can build
#: a genuine old store; never edit historically shipped statements).
_DDL_V1: tuple[str, ...] = (
    """
    CREATE TABLE meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE ingest_log (
        batch_id INTEGER PRIMARY KEY AUTOINCREMENT,
        kind TEXT NOT NULL CHECK (kind IN ('import', 'votes')),
        created_at TEXT NOT NULL,
        rows_read INTEGER NOT NULL DEFAULT 0,
        rows_kept INTEGER NOT NULL DEFAULT 0,
        report TEXT
    )
    """,
    """
    CREATE TABLE sources (
        position INTEGER PRIMARY KEY AUTOINCREMENT,
        source_id TEXT NOT NULL UNIQUE,
        batch_id INTEGER NOT NULL REFERENCES ingest_log(batch_id)
    )
    """,
    """
    CREATE TABLE facts (
        position INTEGER PRIMARY KEY AUTOINCREMENT,
        fact_id TEXT NOT NULL UNIQUE,
        truth INTEGER CHECK (truth IN (0, 1)),
        golden INTEGER NOT NULL DEFAULT 0 CHECK (golden IN (0, 1)),
        batch_id INTEGER NOT NULL REFERENCES ingest_log(batch_id)
    )
    """,
    """
    CREATE TABLE votes (
        fact_id TEXT NOT NULL REFERENCES facts(fact_id),
        source_id TEXT NOT NULL REFERENCES sources(source_id),
        vote TEXT NOT NULL CHECK (vote IN ('T', 'F')),
        batch_id INTEGER NOT NULL REFERENCES ingest_log(batch_id),
        PRIMARY KEY (fact_id, source_id)
    )
    """,
    """
    CREATE TABLE labels (
        fact_id TEXT PRIMARY KEY REFERENCES facts(fact_id),
        probability REAL NOT NULL,
        label INTEGER NOT NULL CHECK (label IN (0, 1)),
        flipped INTEGER NOT NULL DEFAULT 0 CHECK (flipped IN (0, 1)),
        epoch INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE trust_trajectory (
        time_point INTEGER NOT NULL,
        source_id TEXT NOT NULL REFERENCES sources(source_id),
        trust REAL NOT NULL,
        PRIMARY KEY (time_point, source_id)
    )
    """,
    """
    CREATE TABLE epochs (
        epoch INTEGER PRIMARY KEY,
        last_batch INTEGER NOT NULL REFERENCES ingest_log(batch_id),
        action TEXT NOT NULL CHECK (action IN ('full', 'incremental')),
        facts INTEGER NOT NULL,
        time_points INTEGER NOT NULL,
        entropy_mass REAL,
        created_at TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE session_state (
        id INTEGER PRIMARY KEY CHECK (id = 1),
        epoch INTEGER NOT NULL,
        state TEXT NOT NULL
    )
    """,
    "CREATE INDEX idx_facts_batch ON facts(batch_id)",
    "CREATE INDEX idx_votes_batch ON votes(batch_id)",
)

#: Forward migrations: statements that take a store *from* the keyed
#: version to the next one.  Applied in version order by :func:`migrate`.
#:
#: * 1 → 2: ``labels.time_point`` records t(f) — the time point Definition
#:   1 evaluated the fact at — so ``query --fact`` can cite it without
#:   replaying the trajectory; plus the by-source vote index the serving
#:   queries use.
#: * 2 → 3: ``epochs.action`` admits ``'stream'`` — refreshes run by the
#:   streaming engine (:mod:`repro.stream`), which appends trajectory rows
#:   instead of rewriting the table.  SQLite cannot alter a CHECK
#:   constraint in place, so the table is rebuilt and the rows copied
#:   (order and rowids are preserved by the epoch PRIMARY KEY).
#: * 3 → 4: no DDL; the stored continuation state becomes stream-only
#:   (the data step in :data:`UPGRADES`).
MIGRATIONS: dict[int, tuple[str, ...]] = {
    1: (
        "ALTER TABLE labels ADD COLUMN time_point INTEGER",
        "CREATE INDEX idx_votes_source ON votes(source_id)",
    ),
    2: (
        """
        CREATE TABLE epochs_v3 (
            epoch INTEGER PRIMARY KEY,
            last_batch INTEGER NOT NULL REFERENCES ingest_log(batch_id),
            action TEXT NOT NULL
                CHECK (action IN ('full', 'incremental', 'stream')),
            facts INTEGER NOT NULL,
            time_points INTEGER NOT NULL,
            entropy_mass REAL,
            created_at TEXT NOT NULL
        )
        """,
        "INSERT INTO epochs_v3 SELECT * FROM epochs",
        "DROP TABLE epochs",
        "ALTER TABLE epochs_v3 RENAME TO epochs",
    ),
    3: (),
}


def stream_state_from_carry(carry: dict) -> dict:
    """A v3 epoch-replay carry as the stream state that continues it.

    The carry's per-source ``[correct, total, trust]`` counters and the
    epoch-0 prior are exactly what a stream epoch feeds back into the
    fixpoint; its ``time_point`` is the length of the full trajectory it
    persisted, so it becomes ``base``, and nothing was compacted.  The
    trajectory, probabilities and round history it also carried are
    never read by a later epoch and are dropped.  Raises ``ValueError``
    for any other format.
    """
    if carry.get("format") != _V3_CARRY:
        raise ValueError(
            f"unknown continuation state format {carry.get('format')!r}"
        )
    sources = [str(s) for s in carry["sources"]]
    return {
        "format": STREAM_STATE_FORMAT,
        "epoch": int(carry["epoch"]),
        "prior": float(carry["prior"]),
        "base": int(carry["time_point"]),
        "sources": sources,
        "counters": {
            s: [float(x) for x in carry["counters"][s]] for s in sources
        },
        "compacted_before": 0,
    }


def _carry_to_stream_state(conn: sqlite3.Connection) -> None:
    """3 → 4: rewrite a stored replay carry as stream state, in place.

    Epoch rows keep their historical ``action`` tags; a store whose last
    refresh already ran on the stream core is left as it is.
    """
    row = conn.execute("SELECT state FROM session_state WHERE id = 1").fetchone()
    if row is None:
        return
    state = json.loads(row[0])
    if state.get("format") == STREAM_STATE_FORMAT:
        return
    conn.execute(
        "UPDATE session_state SET state = ? WHERE id = 1",
        (json.dumps(stream_state_from_carry(state), separators=(",", ":")),),
    )


#: Data steps that run right after the statements of the same version
#: step, in the same transaction.
UPGRADES: dict[int, Callable[[sqlite3.Connection], None]] = {
    3: _carry_to_stream_state,
}


def _apply_step(conn: sqlite3.Connection, from_version: int) -> None:
    for statement in MIGRATIONS[from_version]:
        conn.execute(statement)
    upgrade = UPGRADES.get(from_version)
    if upgrade is not None:
        upgrade(conn)


def create_schema(conn: sqlite3.Connection, version: int = SCHEMA_VERSION) -> None:
    """Create the schema at ``version`` (default: current) on a fresh DB.

    Building from the v1 DDL plus recorded migrations guarantees a freshly
    created store and a migrated old store have the identical layout —
    there is exactly one path to the current schema.
    """
    if version < 1 or version > SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    for statement in _DDL_V1:
        conn.execute(statement)
    for from_version in range(1, version):
        _apply_step(conn, from_version)
    conn.execute(
        "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
        (str(version),),
    )
    conn.execute(
        "INSERT INTO meta (key, value) VALUES ('format', ?)", (STORE_FORMAT,)
    )


def schema_version(conn: sqlite3.Connection) -> int:
    """The ``meta.schema_version`` of an existing store."""
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    if row is None:
        raise ValueError("store has no schema_version in meta")
    return int(row[0])


def migrate(conn: sqlite3.Connection) -> int:
    """Bring an opened store forward to :data:`SCHEMA_VERSION`.

    Returns the number of version steps applied (0 when already current).
    All steps and the version bump run in one explicit transaction (DDL
    included): a kill mid-migration leaves the old version intact, never a
    half-migrated layout.  A store *newer* than this code, or one whose
    data a step cannot convert, raises ``ValueError``.
    """
    current = schema_version(conn)
    if current > SCHEMA_VERSION:
        raise ValueError(
            f"store schema version {current} is newer than this library "
            f"supports ({SCHEMA_VERSION}); upgrade the library instead"
        )
    if current == SCHEMA_VERSION:
        return 0
    steps = 0
    with conn:
        conn.execute("BEGIN")
        for from_version in range(current, SCHEMA_VERSION):
            _apply_step(conn, from_version)
            steps += 1
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION),),
        )
    return steps
