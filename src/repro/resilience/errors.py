"""Typed failure vocabulary of the resilience layer.

Real corroboration inputs are dirty — the truth-discovery literature (Li et
al.'s survey, Dong et al.'s Knowledge-Based Trust) treats extraction noise
and partial reads as the normal case — so every recoverable failure in this
library is classified by a *reason code* and carried by a typed exception.
Three rules keep the rest of the codebase simple:

* every ingest failure is an :class:`IngestError` (a ``ValueError``
  subclass, so pre-resilience callers that caught ``ValueError`` keep
  working) tagged with a reason code from :data:`REASON_CODES` and the
  location of the offending row;
* an :class:`ErrorPolicy` decides what a reader does with a bad row:
  ``strict`` raises (the default — today's fail-fast behavior), ``skip``
  drops the row and counts it, ``quarantine`` drops the row and keeps its
  payload for audit;
* whatever was dropped is accounted for in an :class:`IngestReport` that
  serialises into the JSONL run ledger (``ingest_report`` records), so a
  completed ingest always says exactly which rows it rejected and why.
"""

from __future__ import annotations

import dataclasses
import enum


# ---------------------------------------------------------------------------
# Reason codes
# ---------------------------------------------------------------------------
#: Machine-readable reason codes for rejected input rows.  Stable strings:
#: they land in ledgers and quarantine reports that outlive the process.
BAD_HEADER = "bad_header"
BAD_VOTE_SYMBOL = "bad_vote_symbol"
DASH_VOTE = "dash_vote"
DUPLICATE_VOTE = "duplicate_vote"
CONFLICTING_VOTE = "conflicting_vote"
MISSING_FIELD = "missing_field"
MALFORMED_ROW = "malformed_row"
BAD_TRUTH_LABEL = "bad_truth_label"
DUPLICATE_TRUTH = "duplicate_truth"
UNKNOWN_FACT = "unknown_fact"
BAD_JSON = "bad_json"
BAD_DOCUMENT = "bad_document"
TRUNCATED_FILE = "truncated_file"
IO_ERROR = "io_error"
#: A vote arrived for a fact the store has already corroborated and
#: labelled.  Append-only stream semantics evaluate each fact exactly once
#: (Definition 1 assigns one t(f) per fact), so a late vote cannot be
#: folded in without a rebuild; it is rejected and accounted for instead.
STALE_FACT = "stale_fact"
#: A bulk import carried a fact id the store already holds.
DUPLICATE_FACT = "duplicate_fact"

#: Every reason code a reader may emit.
REASON_CODES = frozenset(
    {
        BAD_HEADER,
        BAD_VOTE_SYMBOL,
        DASH_VOTE,
        DUPLICATE_VOTE,
        CONFLICTING_VOTE,
        MISSING_FIELD,
        MALFORMED_ROW,
        BAD_TRUTH_LABEL,
        DUPLICATE_TRUTH,
        UNKNOWN_FACT,
        BAD_JSON,
        BAD_DOCUMENT,
        TRUNCATED_FILE,
        IO_ERROR,
        STALE_FACT,
        DUPLICATE_FACT,
    }
)


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------
class ResilienceError(Exception):
    """Base class of every error the resilience layer raises itself."""


class IngestError(ResilienceError, ValueError):
    """A rejected input row / document, tagged with a reason code.

    Subclasses ``ValueError`` so pre-resilience callers (and tests) that
    matched the untyped errors keep working unchanged.

    Attributes:
        reason: machine-readable code from :data:`REASON_CODES`.
        location: where the problem is (``"line 7"``, ``"votes[f1][s2]"``).
    """

    def __init__(self, message: str, *, reason: str, location: str | None = None):
        if reason not in REASON_CODES:
            raise ValueError(f"unknown ingest reason code: {reason!r}")
        super().__init__(message)
        self.reason = reason
        self.location = location


class DuplicateVoteError(IngestError):
    """A repeated ``(source, fact)`` pair in a votes file (strict mode)."""


class CheckpointError(ResilienceError):
    """A checkpoint could not be written, read, or applied to a session."""


class FaultInjected(ResilienceError):
    """Raised by seeded fault-injection hooks (chaos tests only)."""


# ---------------------------------------------------------------------------
# Error policy
# ---------------------------------------------------------------------------
class ErrorPolicy(enum.Enum):
    """What an ingest routine does with a malformed or conflicting row."""

    #: Raise a typed :class:`IngestError` on the first bad row (default —
    #: preserves the historical fail-fast behavior).
    STRICT = "strict"
    #: Drop bad rows, counting them in the report (payload discarded).
    SKIP = "skip"
    #: Drop bad rows, keeping their payload in the report for audit.
    QUARANTINE = "quarantine"

    @classmethod
    def coerce(cls, value: "ErrorPolicy | str") -> "ErrorPolicy":
        """Accept an enum member or its string value (CLI flags)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown error policy {value!r}; expected one of "
                f"{sorted(p.value for p in cls)}"
            ) from None


# ---------------------------------------------------------------------------
# Ingest report
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class RowIssue:
    """One rejected row: where, why, and (under quarantine) what."""

    location: str
    reason: str
    message: str
    row: dict | None = None

    def to_record(self) -> dict:
        record = {
            "location": self.location,
            "reason": self.reason,
            "message": self.message,
        }
        if self.row is not None:
            record["row"] = self.row
        return record


@dataclasses.dataclass
class IngestReport:
    """Machine-readable account of one ingest: kept, dropped, and why.

    One report covers one input (a votes CSV, a truth CSV, a JSON
    document).  ``rows_read`` counts every data row the reader saw,
    ``rows_kept`` the ones that made it into the output structure; the
    difference is itemised in :attr:`issues`, so
    ``rows_read == rows_kept + len(issues)`` always holds for row-scoped
    rejections (file-scoped issues such as a truncation are additionally
    listed but drop no counted row).
    """

    source: str = "<memory>"
    policy: str = ErrorPolicy.STRICT.value
    rows_read: int = 0
    rows_kept: int = 0
    issues: list[RowIssue] = dataclasses.field(default_factory=list)

    @property
    def rows_dropped(self) -> int:
        return len(self.issues)

    def record(
        self,
        *,
        location: str,
        reason: str,
        message: str,
        row: dict | None = None,
    ) -> None:
        """Account for one rejected row."""
        if reason not in REASON_CODES:
            raise ValueError(f"unknown ingest reason code: {reason!r}")
        self.issues.append(
            RowIssue(location=location, reason=reason, message=message, row=row)
        )

    def reasons(self) -> dict[str, int]:
        """Issue count per reason code."""
        counts: dict[str, int] = {}
        for issue in self.issues:
            counts[issue.reason] = counts.get(issue.reason, 0) + 1
        return counts

    def to_record(self) -> dict:
        """The ``ingest_report`` ledger payload (see :mod:`repro.obs.runlog`)."""
        return {
            "source": self.source,
            "policy": self.policy,
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_dropped": self.rows_dropped,
            "reasons": self.reasons(),
            "issues": [issue.to_record() for issue in self.issues],
        }

    def summary(self) -> str:
        """One human line: ``kept 120/123 rows (2 bad_vote_symbol, 1 ...)``."""
        parts = ", ".join(
            f"{count} {reason}" for reason, count in sorted(self.reasons().items())
        )
        tail = f" ({parts})" if parts else ""
        return f"{self.source}: kept {self.rows_kept}/{self.rows_read} rows{tail}"


def reject_row(
    policy: ErrorPolicy,
    report: IngestReport,
    *,
    location: str,
    reason: str,
    message: str,
    row: dict | None = None,
    error_cls: type[IngestError] = IngestError,
) -> None:
    """Apply the error policy to one bad row: raise, or record and drop.

    The one policy hook of the file readers (:mod:`repro.model.io`) and
    the vote ledger (:mod:`repro.store.ledger`).
    """
    if policy is ErrorPolicy.STRICT:
        raise error_cls(message, reason=reason, location=location)
    report.record(
        location=location,
        reason=reason,
        message=message,
        row=row if policy is ErrorPolicy.QUARANTINE else None,
    )
