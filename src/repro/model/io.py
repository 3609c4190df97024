"""Serialisation: load and save datasets and corroboration results.

Two interchange formats:

* **CSV votes** — one row per informative vote (``fact,source,vote``), the
  layout crawl pipelines naturally produce.  Ground truth and golden-set
  membership travel in an optional second CSV (``fact,label,golden``).
* **JSON dataset** — a single self-contained document with votes, truth
  and metadata; round-trips exactly.

Results are saved as JSON (method, probabilities, trust, label overrides,
and — when present — the trust trajectory), so an expensive corroboration
run can be archived and re-analysed without re-running.

All readers take an ``on_error`` policy (:class:`~repro.resilience.errors
.ErrorPolicy`): ``strict`` (default) raises a typed
:class:`~repro.resilience.errors.IngestError` on the first bad row —
today's fail-fast behavior with a reason code and row location attached —
while ``skip`` and ``quarantine`` drop bad rows and account for every one
of them in an :class:`~repro.resilience.errors.IngestReport` (``quarantine``
additionally keeps the rejected payloads for audit).  All writers emit
rows and mapping keys in sorted order (registration-order ``facts`` /
``sources`` arrays excepted — they define reload order), so equal content
always serialises to equal bytes.  Duplicate
``(source, fact)`` pairs are defined behavior: strict raises a
:class:`~repro.resilience.errors.DuplicateVoteError` naming both lines;
the lenient policies keep the first occurrence and report the rest
(``duplicate_vote`` when the repeated vote agrees, ``conflicting_vote``
when it does not).  All writers go through
:func:`~repro.resilience.atomic.atomic_write_text`, so a killed process
never leaves a half-written artifact.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import IO, TYPE_CHECKING

from repro.model.dataset import Dataset
from repro.model.matrix import VoteMatrix
from repro.model.votes import VOTE_OF_SYMBOL, Vote
from repro.resilience.atomic import atomic_write_text
from repro.resilience.errors import (
    BAD_DOCUMENT,
    BAD_HEADER,
    BAD_JSON,
    BAD_TRUTH_LABEL,
    BAD_VOTE_SYMBOL,
    CONFLICTING_VOTE,
    DASH_VOTE,
    DUPLICATE_TRUTH,
    DUPLICATE_VOTE,
    IO_ERROR,
    MALFORMED_ROW,
    MISSING_FIELD,
    TRUNCATED_FILE,
    UNKNOWN_FACT,
    DuplicateVoteError,
    ErrorPolicy,
    IngestError,
    IngestReport,
    reject_row,
)

if TYPE_CHECKING:
    # Results need numpy; the dataset readers (``repro ingest``) do not.
    from repro.core.result import CorroborationResult

PathLike = str | pathlib.Path


def _open_text(source: PathLike | IO[str]) -> tuple[IO[str], bool, str]:
    """Normalise a path-or-handle into ``(handle, owns_handle, name)``."""
    if hasattr(source, "read"):
        handle = source  # type: ignore[assignment]
        return handle, False, str(getattr(source, "name", "<handle>"))
    return open(source, newline=""), True, str(source)


def _prepare_report(
    report: IngestReport | None, name: str, policy: ErrorPolicy
) -> IngestReport:
    report = report if report is not None else IngestReport()
    report.source = name
    report.policy = policy.value
    return report


# ---------------------------------------------------------------------------
# CSV votes
# ---------------------------------------------------------------------------
def write_votes_csv(dataset: Dataset, path: PathLike) -> None:
    """Write the informative votes as ``fact,source,vote`` rows.

    Rows are emitted in sorted ``(fact, source)`` order, so two datasets
    with the same votes produce byte-identical files regardless of
    registration order — the property the persistent store's
    export → file → import round-trip relies on to stay diffable.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["fact", "source", "vote"])
    for fact in sorted(dataset.matrix.facts):
        for source, vote in sorted(dataset.matrix.votes_on(fact).items()):
            writer.writerow([fact, source, vote.value])
    atomic_write_text(path, buffer.getvalue())


def read_votes_csv(
    path: PathLike | IO[str],
    facts: list[str] | None = None,
    sources: list[str] | None = None,
    *,
    on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
    report: IngestReport | None = None,
) -> VoteMatrix:
    """Read a ``fact,source,vote`` CSV into a :class:`VoteMatrix`.

    ``facts`` / ``sources`` pre-register items that may have no votes (a
    CSV cannot represent them otherwise).  ``path`` may also be an open
    text handle.  ``on_error`` picks the policy for malformed rows; pass a
    :class:`~repro.resilience.errors.IngestReport` as ``report`` to
    collect the per-row accounting under the lenient policies.
    """
    policy = ErrorPolicy.coerce(on_error)
    matrix = VoteMatrix()
    for source in sources or []:
        matrix.add_source(source)
    for fact in facts or []:
        matrix.add_fact(fact)
    handle, owns_handle, name = _open_text(path)
    report = _prepare_report(report, name, policy)
    try:
        reader = csv.DictReader(handle)
        required = {"fact", "source", "vote"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestError(
                f"votes CSV must have columns {sorted(required)}, "
                f"got {reader.fieldnames}",
                reason=BAD_HEADER,
                location="line 1",
            )
        seen: dict[tuple[str, str], tuple[int, Vote]] = {}
        rows = iter(reader)
        while True:
            try:
                row = next(rows)
            except StopIteration:
                break
            except csv.Error as exc:
                location = f"line {reader.line_num}"
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=MALFORMED_ROW,
                    message=f"{location}: malformed CSV row ({exc})",
                )
                report.rows_read += 1
                continue
            except OSError as exc:
                # A file-scoped fault: nothing after this point is
                # readable, so account for it once and stop.
                location = f"line {reader.line_num + 1}"
                if policy is ErrorPolicy.STRICT:
                    raise IngestError(
                        f"{name}: I/O error while reading votes ({exc})",
                        reason=IO_ERROR,
                        location=location,
                    ) from exc
                report.record(
                    location=location,
                    reason=IO_ERROR,
                    message=f"I/O error while reading votes ({exc})",
                )
                break
            line_number = reader.line_num
            location = f"line {line_number}"
            report.rows_read += 1
            fact = row.get("fact")
            source = row.get("source")
            symbol = row.get("vote")
            if not fact or not source or symbol is None:
                missing = [
                    field
                    for field, ok in (
                        ("fact", bool(fact)),
                        ("source", bool(source)),
                        ("vote", symbol is not None),
                    )
                    if not ok
                ]
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=MISSING_FIELD,
                    message=f"{location}: missing field(s) {missing}",
                    row=dict(row),
                )
                continue
            try:
                vote = Vote.from_symbol(symbol)
            except ValueError:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=BAD_VOTE_SYMBOL,
                    message=f"{location}: unrecognised vote symbol {symbol!r}",
                    row=dict(row),
                )
                continue
            if vote is None:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=DASH_VOTE,
                    message=f"{location}: '-' votes must simply be omitted",
                    row=dict(row),
                )
                continue
            key = (fact, source)
            if key in seen:
                first_line, first_vote = seen[key]
                reason = DUPLICATE_VOTE if vote is first_vote else CONFLICTING_VOTE
                verb = "duplicate" if vote is first_vote else "conflicting"
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=reason,
                    message=(
                        f"{location}: {verb} vote for fact={fact!r} "
                        f"source={source!r} (first at line {first_line})"
                    ),
                    row=dict(row),
                    error_cls=DuplicateVoteError,
                )
                continue
            seen[key] = (line_number, vote)
            matrix.add_vote(fact, source, vote)
            report.rows_kept += 1
    finally:
        if owns_handle:
            handle.close()
    return matrix


def write_truth_csv(dataset: Dataset, path: PathLike) -> None:
    """Write ground truth as ``fact,label,golden`` rows (sorted by fact)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["fact", "label", "golden"])
    for fact, label in sorted(dataset.truth.items()):
        writer.writerow(
            [fact, "true" if label else "false", int(fact in dataset.golden_set)]
        )
    atomic_write_text(path, buffer.getvalue())


def read_truth_csv(
    path: PathLike | IO[str],
    *,
    on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
    report: IngestReport | None = None,
    known_facts: "set[str] | frozenset[str] | None" = None,
) -> tuple[dict[str, bool], frozenset[str]]:
    """Read a ``fact,label,golden`` CSV; returns (truth, golden set).

    When ``known_facts`` is given, truth rows for facts outside it are
    rejected (``unknown_fact``); with the default ``None`` no membership
    check is performed.  Repeated fact rows keep the first occurrence and
    report the rest (strict raises).
    """
    policy = ErrorPolicy.coerce(on_error)
    truth: dict[str, bool] = {}
    golden: set[str] = set()
    handle, owns_handle, name = _open_text(path)
    report = _prepare_report(report, name, policy)
    try:
        reader = csv.DictReader(handle)
        required = {"fact", "label"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestError(
                f"truth CSV must have columns {sorted(required)}, "
                f"got {reader.fieldnames}",
                reason=BAD_HEADER,
                location="line 1",
            )
        first_seen: dict[str, int] = {}
        rows = iter(reader)
        while True:
            try:
                row = next(rows)
            except StopIteration:
                break
            except csv.Error as exc:
                location = f"line {reader.line_num}"
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=MALFORMED_ROW,
                    message=f"{location}: malformed CSV row ({exc})",
                )
                report.rows_read += 1
                continue
            except OSError as exc:
                location = f"line {reader.line_num + 1}"
                if policy is ErrorPolicy.STRICT:
                    raise IngestError(
                        f"{name}: I/O error while reading truth ({exc})",
                        reason=IO_ERROR,
                        location=location,
                    ) from exc
                report.record(
                    location=location,
                    reason=IO_ERROR,
                    message=f"I/O error while reading truth ({exc})",
                )
                break
            line_number = reader.line_num
            location = f"line {line_number}"
            report.rows_read += 1
            fact = row.get("fact")
            raw_label = row.get("label")
            if not fact or raw_label is None:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=MISSING_FIELD,
                    message=f"{location}: missing fact or label",
                    row=dict(row),
                )
                continue
            label = raw_label.strip().lower()
            if label not in {"true", "false"}:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=BAD_TRUTH_LABEL,
                    message=f"{location}: label must be true/false",
                    row=dict(row),
                )
                continue
            if known_facts is not None and fact not in known_facts:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=UNKNOWN_FACT,
                    message=f"{location}: truth row for unknown fact {fact!r}",
                    row=dict(row),
                )
                continue
            if fact in first_seen:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=DUPLICATE_TRUTH,
                    message=(
                        f"{location}: duplicate truth row for fact={fact!r} "
                        f"(first at line {first_seen[fact]})"
                    ),
                    row=dict(row),
                )
                continue
            try:
                golden_flag = int(row.get("golden") or 0)
            except ValueError:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=MALFORMED_ROW,
                    message=f"{location}: golden flag must be an integer",
                    row=dict(row),
                )
                continue
            first_seen[fact] = line_number
            truth[fact] = label == "true"
            if golden_flag:
                golden.add(fact)
            report.rows_kept += 1
    finally:
        if owns_handle:
            handle.close()
    return truth, frozenset(golden)


# ---------------------------------------------------------------------------
# JSON dataset
# ---------------------------------------------------------------------------
def dataset_to_json(dataset: Dataset) -> str:
    """Serialise a dataset (votes, truth, golden set, name) to JSON.

    The ``sources`` and ``facts`` arrays keep registration order — they
    *define* the order a reloaded matrix registers items in, which fixes
    fact-group order and argmax tie breaks, so reordering them would change
    algorithm output on reload.  Every mapping (``votes`` outer and inner,
    ``truth``) and the ``golden_set`` array are emitted key-sorted instead,
    so two datasets with identical content and registration order produce
    byte-identical documents however their dicts were populated.
    """
    votes = {
        fact: {s: v.value for s, v in sorted(dataset.matrix.votes_on(fact).items())}
        for fact in sorted(dataset.matrix.facts)
    }
    document = {
        "name": dataset.name,
        "sources": dataset.matrix.sources,
        "facts": dataset.matrix.facts,
        "votes": votes,
        "truth": dict(sorted(dataset.truth.items())),
        "golden_set": sorted(dataset.golden_set),
    }
    return json.dumps(document, indent=2)


def dataset_from_json(
    text: str,
    *,
    on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
    report: IngestReport | None = None,
) -> Dataset:
    """Inverse of :func:`dataset_to_json`.

    Structural damage (unparseable or truncated JSON, a document that is
    not shaped like a dataset) is unrecoverable and raises a typed
    :class:`~repro.resilience.errors.IngestError` under every policy;
    entry-level damage (bad vote symbols, truth for unknown facts) follows
    ``on_error`` like the CSV readers.
    """
    policy = ErrorPolicy.coerce(on_error)
    report = _prepare_report(report, "<json>", policy)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        truncated = exc.pos >= len(text.rstrip())
        reason = TRUNCATED_FILE if truncated else BAD_JSON
        message = (
            f"dataset JSON is {'truncated' if truncated else 'malformed'}: {exc}"
        )
        report.record(location=f"char {exc.pos}", reason=reason, message=message)
        raise IngestError(message, reason=reason, location=f"char {exc.pos}") from exc
    if not isinstance(document, dict):
        message = f"dataset JSON must be an object, got {type(document).__name__}"
        report.record(location="document", reason=BAD_DOCUMENT, message=message)
        raise IngestError(message, reason=BAD_DOCUMENT, location="document")
    for key, expected in (("sources", list), ("facts", list), ("votes", dict)):
        if not isinstance(document.get(key), expected):
            message = (
                f"dataset JSON is missing a valid {key!r} "
                f"({expected.__name__} required)"
            )
            report.record(location=key, reason=BAD_DOCUMENT, message=message)
            raise IngestError(message, reason=BAD_DOCUMENT, location=key)
    matrix = VoteMatrix()
    for source in document["sources"]:
        matrix.add_source(str(source))
    for fact in document["facts"]:
        matrix.add_fact(str(fact))
    for fact, votes in document["votes"].items():
        if not isinstance(votes, dict):
            reject_row(
                policy,
                report,
                location=f"votes[{fact!r}]",
                reason=BAD_DOCUMENT,
                message=f"votes[{fact!r}] must be an object",
            )
            continue
        # One add_votes call per fact, in document order: the same matrix
        # as one add_vote per vote.  A fact none of whose votes is kept
        # registers only if the "facts" list names it.
        kept: list[tuple[str, Vote]] = []
        for source, symbol in votes.items():
            report.rows_read += 1
            vote = VOTE_OF_SYMBOL.get(symbol) if isinstance(symbol, str) else None
            if vote is not None:
                kept.append((source, vote))
                report.rows_kept += 1
                continue
            location = f"votes[{fact!r}][{source!r}]"
            try:
                vote = Vote.from_symbol(symbol) if isinstance(symbol, str) else None
            except ValueError:
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=BAD_VOTE_SYMBOL,
                    message=f"{location}: unrecognised vote symbol {symbol!r}",
                    row={"fact": fact, "source": source, "vote": symbol},
                )
                continue
            if vote is None:
                if isinstance(symbol, str):
                    message = f"fact {fact!r}: '-' votes must be omitted"
                    reason = DASH_VOTE
                else:
                    message = f"{location}: vote symbol must be a string"
                    reason = BAD_VOTE_SYMBOL
                reject_row(
                    policy,
                    report,
                    location=location,
                    reason=reason,
                    message=message,
                    row={"fact": fact, "source": source, "vote": symbol},
                )
                continue
            kept.append((source, vote))
            report.rows_kept += 1
        if kept:
            matrix.add_votes(fact, kept)
    raw_truth = document.get("truth", {})
    if not isinstance(raw_truth, dict):
        message = "dataset JSON 'truth' must be an object"
        report.record(location="truth", reason=BAD_DOCUMENT, message=message)
        raise IngestError(message, reason=BAD_DOCUMENT, location="truth")
    truth: dict[str, bool] = {}
    for fact, value in raw_truth.items():
        if policy is not ErrorPolicy.STRICT:
            report.rows_read += 1
            if fact not in matrix:
                reject_row(
                    policy,
                    report,
                    location=f"truth[{fact!r}]",
                    reason=UNKNOWN_FACT,
                    message=f"truth entry for unknown fact {fact!r}",
                    row={"fact": fact, "label": value},
                )
                continue
            report.rows_kept += 1
        truth[fact] = bool(value)
    raw_golden = document.get("golden_set", [])
    if not isinstance(raw_golden, list):
        message = "dataset JSON 'golden_set' must be an array"
        report.record(location="golden_set", reason=BAD_DOCUMENT, message=message)
        raise IngestError(message, reason=BAD_DOCUMENT, location="golden_set")
    golden: list[str] = []
    for fact in raw_golden:
        if policy is not ErrorPolicy.STRICT and fact not in truth:
            reject_row(
                policy,
                report,
                location=f"golden_set[{fact!r}]",
                reason=UNKNOWN_FACT,
                message=f"golden-set entry for fact without truth: {fact!r}",
                row={"fact": fact},
            )
            continue
        golden.append(fact)
    return Dataset(
        matrix=matrix,
        truth=truth,
        golden_set=frozenset(golden),
        name=str(document.get("name", "dataset")),
    )


def save_dataset(dataset: Dataset, path: PathLike) -> None:
    """Write :func:`dataset_to_json` output to ``path`` (atomically)."""
    atomic_write_text(path, dataset_to_json(dataset))


def load_dataset(
    path: PathLike,
    *,
    on_error: ErrorPolicy | str = ErrorPolicy.STRICT,
    report: IngestReport | None = None,
) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    policy = ErrorPolicy.coerce(on_error)
    report = _prepare_report(report, str(path), policy)
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        message = f"{path}: I/O error while reading dataset ({exc})"
        report.record(location=str(path), reason=IO_ERROR, message=message)
        raise IngestError(message, reason=IO_ERROR, location=str(path)) from exc
    dataset = dataset_from_json(text, on_error=policy, report=report)
    report.source = str(path)
    return dataset


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
def result_to_json(result: CorroborationResult) -> str:
    """Serialise a corroboration result (probabilities, trust, trajectory).

    Mappings are emitted key-sorted so archived results are diffable.
    """
    document = {
        "method": result.method,
        "iterations": result.iterations,
        "probabilities": dict(sorted(result.probabilities.items())),
        "trust": dict(sorted(result.trust.items())),
        "label_overrides": dict(sorted(result.label_overrides.items())),
    }
    if result.trajectory is not None:
        document["trajectory"] = {
            "sources": result.trajectory.sources,
            "history": result.trajectory.as_rows(),
        }
    return json.dumps(document, indent=2)


def result_from_json(text: str) -> CorroborationResult:
    """Inverse of :func:`result_to_json` (round records are not persisted)."""
    from repro.core.result import CorroborationResult
    from repro.core.trust import TrustTrajectory

    document = json.loads(text)
    trajectory = None
    if "trajectory" in document:
        trajectory = TrustTrajectory(document["trajectory"]["sources"])
        for vector in document["trajectory"]["history"]:
            trajectory.record(vector)
    return CorroborationResult(
        method=document["method"],
        probabilities={f: float(p) for f, p in document["probabilities"].items()},
        trust={s: float(t) for s, t in document["trust"].items()},
        iterations=int(document.get("iterations", 0)),
        trajectory=trajectory,
        label_overrides={
            f: bool(v) for f, v in document.get("label_overrides", {}).items()
        },
    )


def save_result(result: CorroborationResult, path: PathLike) -> None:
    """Write :func:`result_to_json` output to ``path`` (atomically)."""
    atomic_write_text(path, result_to_json(result))


def load_result(path: PathLike) -> CorroborationResult:
    """Read a result previously written by :func:`save_result`."""
    return result_from_json(pathlib.Path(path).read_text())


def dataset_from_csv_strings(
    votes_csv: str,
    truth_csv: str | None = None,
    *,
    on_error: ErrorPolicy | str = ErrorPolicy.SKIP,
    report: IngestReport | None = None,
) -> Dataset:
    """Build a dataset from in-memory CSV text (convenience for the CLI).

    Historically lenient: the default policy is ``skip``, so dash votes
    (and any other malformed rows) are dropped rather than raising.
    """
    policy = ErrorPolicy.coerce(on_error)
    report = _prepare_report(report, "<csv strings>", policy)
    matrix = read_votes_csv(
        io.StringIO(votes_csv), on_error=policy, report=report
    )
    report.source = "<csv strings>"
    truth: dict[str, bool] = {}
    golden: frozenset[str] = frozenset()
    if truth_csv is not None:
        truth, golden = read_truth_csv(
            io.StringIO(truth_csv), on_error=policy, report=report
        )
        report.source = "<csv strings>"
    return Dataset(matrix=matrix, truth=truth, golden_set=golden)
