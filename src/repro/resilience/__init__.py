"""Resilience layer: validated ingestion, checkpoint/resume, fault injection.

The ROADMAP north-star is a corroboration *service*, and services meet
dirty inputs, kills, and diverging methods as a matter of course.  This
package holds the shared machinery the rest of the library threads
through:

* :mod:`repro.resilience.errors` — typed ingest errors, reason codes,
  the ``strict`` / ``skip`` / ``quarantine`` :class:`ErrorPolicy`, and the
  :class:`IngestReport` ledger payload;
* :mod:`repro.resilience.atomic` — crash-safe whole-file writes
  (temp file + ``os.replace``) used by every JSON artifact;
* :mod:`repro.resilience.checkpoint` — round-level session snapshots and
  the rolling :class:`CheckpointManager`;
* :mod:`repro.resilience.faults` — seeded ``FaultPlan`` fault
  injection powering the chaos test suite.  It builds on the algorithm
  stack (numpy, :mod:`repro.core`), so it is imported from its own
  module and stays out of this namespace: the store and the CLI load
  :mod:`repro.resilience.errors` without it;
* :mod:`repro.resilience.breaker` — the :class:`CircuitBreaker` guarding
  the serving refresh path (trip → degraded reads → half-open probe →
  recovery).

See ``docs/robustness.md`` for the full story.
"""

from repro.resilience.atomic import atomic_write_text
from repro.resilience.breaker import BREAKER_STATES, CircuitBreaker
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    dataset_fingerprint,
)
from repro.resilience.errors import (
    REASON_CODES,
    CheckpointError,
    DuplicateVoteError,
    ErrorPolicy,
    FaultInjected,
    IngestError,
    IngestReport,
    ResilienceError,
    RowIssue,
)

__all__ = [
    "BREAKER_STATES",
    "CHECKPOINT_SCHEMA_VERSION",
    "CircuitBreaker",
    "REASON_CODES",
    "CheckpointError",
    "CheckpointManager",
    "DuplicateVoteError",
    "ErrorPolicy",
    "FaultInjected",
    "IngestError",
    "IngestReport",
    "ResilienceError",
    "RowIssue",
    "atomic_write_text",
    "dataset_fingerprint",
]
