"""Round-level checkpoint/resume for the incremental algorithm.

A :class:`~repro.core.session.CorroborationSession` can snapshot its entire
round state (trust ledger, per-source counters, remaining fact groups,
trajectory, committed rounds, and any selection-strategy RNG state) into a
plain-JSON document; a fresh session restored from that document continues
**bit-identically** to the uninterrupted run — same probabilities, labels,
tie breaks, trust trajectories and round records (the resilience test suite
asserts exactly this, against the uninterrupted session and against the
scalar test oracle).  Exactness rests on two facts: Python's ``json``
round-trips every finite float to the identical bits (shortest-repr
encoding), and the engine's derived arrays (size-scaled incidence matrices,
ΔH caches) are recomputed from the snapshot with the same elementwise
operations the live session uses.  Snapshots name their backend
(``"engine"``); one an older version wrote for its removed ``"scalar"``
backend is refused with a :class:`~repro.resilience.errors.CheckpointError`.

:class:`CheckpointManager` owns the on-disk artifact: one rolling
``checkpoint.json`` per directory, written crash-safely through
:func:`~repro.resilience.atomic.atomic_write_text` after every round, so a
killed process always leaves either the previous or the new complete
checkpoint — never a half-written one.  Snapshots embed a fingerprint of
the vote matrix and the session parameters; resuming against a different
dataset or configuration raises
:class:`~repro.resilience.errors.CheckpointError` instead of silently
diverging.

See ``docs/robustness.md`` for the checkpoint format and compatibility
rules.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.model.dataset import Dataset
from repro.model.votes import Vote
from repro.resilience.atomic import atomic_write_text
from repro.resilience.errors import CheckpointError

#: Bump whenever the snapshot layout changes incompatibly.  A manager
#: refuses to load a checkpoint with a different version (the safe default
#: for a format that encodes algorithm state bit-exactly).
CHECKPOINT_SCHEMA_VERSION = 1

#: Rolling checkpoint filename inside a checkpoint directory.
CHECKPOINT_FILENAME = "checkpoint.json"

#: Up to this many sources :func:`dataset_fingerprint` hashes each fact's
#: votes as one packed integer, past it as a JSON signature.  Checkpoints
#: on disk embed the digest, so the boundary is part of the format.
_PACKED_SOURCE_LIMIT = 1024

#: Key of the cached digest in the matrix's derived-structure cache.
_FINGERPRINT_KEY = "dataset_fingerprint"


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash of the vote matrix (sources, facts, votes).

    The corroboration run is a pure function of the vote matrix and the
    session parameters, so this is exactly the state a checkpoint must be
    validated against (ground-truth labels never influence the run).  Up
    to :data:`_PACKED_SOURCE_LIMIT` sources each fact hashes its votes
    packed into one integer, 2 bits per source column (1 for T, 2 for F,
    column = source registration index); past it, its canonical signature
    as JSON (``[["s1", "T"], ...]``).  The digest is cached on the matrix
    (:meth:`~repro.model.matrix.VoteMatrix.derived_cache`), so a run that
    checkpoints every round hashes its matrix once.
    """
    matrix = dataset.matrix
    cache = matrix.derived_cache()
    fingerprint = cache.get(_FINGERPRINT_KEY)
    if fingerprint is not None:
        return fingerprint
    sources = matrix.sources
    digest = hashlib.sha256()
    digest.update(json.dumps(sources).encode())
    if len(sources) <= _PACKED_SOURCE_LIMIT:
        shift = {source: 2 * column for column, source in enumerate(sources)}
        for fact in matrix.facts:
            code = 0
            for source, vote in matrix.iter_votes_on(fact):
                code += (1 if vote is Vote.TRUE else 2) << shift[source]
            digest.update(f"{fact}\x00{code}\x01".encode())
    else:
        for fact in matrix.facts:
            signature = json.dumps(matrix.signature(fact))
            digest.update(f"{fact}\x00{signature}\x01".encode())
    fingerprint = cache[_FINGERPRINT_KEY] = digest.hexdigest()
    return fingerprint


class CheckpointManager:
    """Owns the rolling checkpoint file of one corroboration run.

    Usage::

        manager = CheckpointManager("ckpt-dir")
        session = method.session(dataset)
        if resume and (snapshot := manager.load()) is not None:
            session.restore(snapshot)
        result = session.run_to_completion(checkpoint=manager)

    ``save`` is called by the session after every committed round (and is
    safe to call manually between ``step()`` calls); ``load`` returns the
    last complete snapshot or ``None`` when none exists yet.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        fsync: bool = True,
        every: int = 1,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._every = every
        self._saves_requested = 0

    @property
    def path(self) -> pathlib.Path:
        return self.directory / CHECKPOINT_FILENAME

    def save(self, session, *, force: bool = False) -> pathlib.Path | None:
        """Snapshot ``session`` and write it atomically; returns the path.

        With ``every=k`` only every k-th call actually writes (big sessions
        can make per-round snapshots expensive); a call on a completed
        session, or with ``force=True``, always writes.  Returns ``None``
        when the call was throttled away.
        """
        self._saves_requested += 1
        due = self._saves_requested % self._every == 0
        if not (due or force or session.done):
            return None
        payload = {
            "checkpoint_schema_version": CHECKPOINT_SCHEMA_VERSION,
            "session": session.snapshot(),
        }
        atomic_write_text(
            self.path, json.dumps(payload, separators=(",", ":")), fsync=self._fsync
        )
        return self.path

    def load(self) -> dict | None:
        """The last complete session snapshot, or ``None`` if none exists.

        Raises :class:`CheckpointError` when a file exists but is not a
        valid checkpoint (corrupt JSON, wrong schema version) — a corrupt
        checkpoint must be surfaced, not silently treated as a cold start.
        """
        if not self.path.exists():
            return None
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:  # JSON or UTF-8 decode errors
            raise CheckpointError(f"unreadable checkpoint {self.path}: {exc}") from exc
        if not isinstance(payload, dict) or "session" not in payload:
            raise CheckpointError(f"{self.path} is not a session checkpoint")
        version = payload.get("checkpoint_schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.path}: checkpoint schema version {version!r} is not "
                f"supported (expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        return payload["session"]

    def clear(self) -> None:
        """Delete the checkpoint file (e.g. after a successful finalize)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
