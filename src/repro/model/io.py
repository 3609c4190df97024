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

Every vote row — a CSV line, a dataset-JSON entry, a row posted to the
persistent store (:mod:`repro.store.ledger`) — passes one rule,
:func:`_vote_fields`, so the same dirty row gets the same reason code at
every entry point.  Both CSV readers and the store's CSV ingest read
their lines through one loop, :func:`_csv_rows`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import pathlib
from collections.abc import Iterator, Mapping
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
    RowIssue,
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
# The vote-row rule
# ---------------------------------------------------------------------------
def _is_id(value: object) -> bool:
    """Whether ``value``'s ``str()`` may be stored as an id: a string
    without NUL (the store's set reads cannot carry one), an ``int`` that
    is not a ``bool``, or a finite ``float`` (``7`` → ``"7"``, ``0`` →
    ``"0"``).  The ``str()`` of bytes, a container or a class is its
    repr, and NaN and the infinities would fold distinct inputs
    (``Infinity``, ``1e400``) into one fact."""
    if isinstance(value, str):
        return "\x00" not in value
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _id_reason(value: object) -> str | None:
    """Why the id rule refuses ``value``, or None for an id: only an
    absent or empty id is ``missing_field`` (the number 0 is the id
    ``"0"``); one :func:`_is_id` refuses is ``malformed_row``."""
    if value is None or value == "":
        return MISSING_FIELD
    return None if _is_id(value) else MALFORMED_ROW


def _issue(
    location: str, reason: str, message: str, row: dict | None = None
) -> RowIssue:
    """A dirty row at ``location``; its message starts with the location."""
    return RowIssue(location, reason, f"{location}: {message}", row)


def _vote_fields(raw: object, location: str) -> tuple[str, str, Vote, dict] | RowIssue:
    """One vote row as ``(fact, source, vote, payload)``, its ids coerced
    to the strings the store keys on, or the :class:`RowIssue` that says
    why it is dirty.

    ``raw`` is a ``(fact, source, vote)`` triple or a mapping with those
    keys (a CSV line, a JSON payload row); anything else, a bare string
    included, is ``missing_field``, as is an absent vote.  The ids follow
    :func:`_id_reason`; a vote is ``T`` or ``F`` (case and padding aside),
    ``-`` is ``dash_vote`` (omission is encoded by absence) and anything
    else ``bad_vote_symbol``.
    """
    if isinstance(raw, Mapping):
        fact, source, symbol = raw.get("fact"), raw.get("source"), raw.get("vote")
    elif isinstance(raw, (str, bytes)):
        # A 3-character string would unpack into a row.
        return _issue(
            location, MISSING_FIELD, "expected (fact, source, vote), got a bare string"
        )
    else:
        try:
            fact, source, symbol = raw
        except (TypeError, ValueError):
            return _issue(location, MISSING_FIELD, "expected (fact, source, vote)")
    payload = {"fact": fact, "source": source, "vote": symbol}
    reasons = (_id_reason(fact), _id_reason(source))
    if MISSING_FIELD in reasons or symbol is None:
        return _issue(location, MISSING_FIELD, "missing fact, source or vote", payload)
    if MALFORMED_ROW in reasons:
        return _issue(
            location,
            MALFORMED_ROW,
            "fact and source must be strings or numbers, without NUL",
            payload,
        )
    try:
        fact, source = str(fact), str(source)
    except ValueError:
        # An int past Python's str() digit limit: it has no decimal text
        # to key on, and would break the batch report's JSON if kept.
        return _issue(location, MALFORMED_ROW, "integer id too long to store")
    payload = {"fact": fact, "source": source, "vote": symbol}
    if not isinstance(symbol, str):
        return _issue(
            location, BAD_VOTE_SYMBOL, "vote symbol must be a string", payload
        )
    try:
        vote = Vote.from_symbol(symbol)
    except ValueError:
        return _issue(
            location, BAD_VOTE_SYMBOL, f"unrecognised vote symbol {symbol!r}", payload
        )
    if vote is None:
        return _issue(location, DASH_VOTE, "'-' votes must simply be omitted", payload)
    return fact, source, vote, payload


def _repeated_vote(
    location: str, fact: str, source: str, same: bool, row: dict, first: str = ""
) -> RowIssue:
    """A second vote on one ``(fact, source)`` pair; ``first`` locates the
    first one when the reader knows it."""
    verb = "duplicate" if same else "conflicting"
    where = f" (first at {first})" if first else ""
    return _issue(
        location,
        DUPLICATE_VOTE if same else CONFLICTING_VOTE,
        f"{verb} vote for fact={fact!r} source={source!r}{where}",
        row,
    )


def _reject(policy: ErrorPolicy, report: IngestReport, issue: RowIssue) -> None:
    """:func:`~repro.resilience.errors.reject_row` for ``issue``; a
    repeated pair raises :class:`~repro.resilience.errors.DuplicateVoteError`."""
    repeated = issue.reason in (DUPLICATE_VOTE, CONFLICTING_VOTE)
    reject_row(
        policy,
        report,
        location=issue.location,
        reason=issue.reason,
        message=issue.message,
        row=issue.row,
        error_cls=DuplicateVoteError if repeated else IngestError,
    )


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------
def _csv_rows(
    handle: IO[str], name: str, columns: tuple[str, ...], report: IngestReport
) -> Iterator[tuple[str, dict | RowIssue]]:
    """The data lines of a CSV as ``(location, row)``, in file order.

    ``row`` is the line's ``{column: value}`` dict, or the issue of a
    line the ``csv`` module cannot parse (``malformed_row``) or of a read
    that fails (``io_error``, the last item).  Every line counts in
    ``report.rows_read``; the file-scoped ``io_error`` does not.  The
    caller applies its policy to each issue in turn, so under ``strict``
    the first bad line in file order raises.  A header without
    ``columns`` is ``bad_header`` under every policy.
    """
    reader = csv.DictReader(handle)
    if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
        raise IngestError(
            f"{name}: CSV must have columns {sorted(columns)}, "
            f"got {reader.fieldnames}",
            reason=BAD_HEADER,
            location="line 1",
        )
    rows = iter(reader)
    while True:
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as exc:
            location = f"line {reader.line_num}"
            row = _issue(location, MALFORMED_ROW, f"malformed CSV row ({exc})")
        except OSError as exc:
            location = f"line {reader.line_num + 1}"
            message = f"I/O error while reading {name} ({exc})"
            yield location, _issue(location, IO_ERROR, message)
            return
        report.rows_read += 1
        yield f"line {reader.line_num}", row


def _csv_votes(
    handle: IO[str], name: str, report: IngestReport
) -> Iterator[tuple[str, tuple | RowIssue]]:
    """Each line of a votes CSV through the row rule, as ``(location,
    fields)`` with ``fields`` as :func:`_vote_fields` returns them."""
    for location, row in _csv_rows(handle, name, ("fact", "source", "vote"), report):
        if not isinstance(row, RowIssue):
            row = _vote_fields(row, location)
        yield location, row


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
    first_seen: dict[tuple[str, str], tuple[str, Vote]] = {}
    try:
        for location, fields in _csv_votes(handle, name, report):
            if isinstance(fields, RowIssue):
                _reject(policy, report, fields)
                continue
            fact, source, vote, payload = fields
            first, first_vote = first_seen.setdefault((fact, source), (location, vote))
            if first != location:
                same = vote is first_vote
                issue = _repeated_vote(location, fact, source, same, payload, first)
                _reject(policy, report, issue)
                continue
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
    first_seen: dict[str, str] = {}
    try:
        for location, row in _csv_rows(handle, name, ("fact", "label"), report):
            if isinstance(row, RowIssue):
                _reject(policy, report, row)
                continue
            fact, raw_label = row.get("fact"), row.get("label")
            problem = None
            if not fact or raw_label is None:
                problem = MISSING_FIELD, "missing fact or label"
            elif (label := raw_label.strip().lower()) not in {"true", "false"}:
                problem = BAD_TRUTH_LABEL, "label must be true/false"
            elif known_facts is not None and fact not in known_facts:
                problem = UNKNOWN_FACT, f"truth row for unknown fact {fact!r}"
            elif fact in first_seen:
                problem = DUPLICATE_TRUTH, (
                    f"duplicate truth row for fact={fact!r} "
                    f"(first at {first_seen[fact]})"
                )
            else:
                try:
                    golden_flag = int(row.get("golden") or 0)
                except ValueError:
                    problem = MALFORMED_ROW, "golden flag must be an integer"
            if problem is not None:
                _reject(policy, report, _issue(location, *problem, dict(row)))
                continue
            first_seen[fact] = location
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


def _plain_ids(ids: list) -> bool:
    """Whether the strings ``ids`` are all non-empty and without NUL: the
    id rule's common case, in two C-level scans."""
    return all(ids) and "\x00" not in "".join(ids)


def _listed_ids(
    document: dict, key: str, policy: ErrorPolicy, report: IngestReport
) -> list[str]:
    """A dataset's ``facts`` or ``sources`` list through the id rule; an
    entry it refuses is one row read and dropped."""
    values = document[key]
    if set(map(type, values)) <= {str} and _plain_ids(values):
        return values
    ids: list[str] = []
    for index, value in enumerate(values):
        reason = _id_reason(value)
        if reason is None:
            ids.append(str(value))
            continue
        report.rows_read += 1
        location = f"{key}[{index}]"
        message = f"{value!r} is not an id"
        _reject(policy, report, _issue(location, reason, message, {"id": value}))
    return ids


def _refused_keys(vote_maps: dict) -> set[str]:
    """The keys of a dataset's ``votes`` — facts and their voters, all
    strings in JSON — that the id rule refuses."""
    keys = list(
        itertools.chain(
            vote_maps,
            *(votes for votes in vote_maps.values() if isinstance(votes, dict)),
        )
    )
    return set() if _plain_ids(keys) else {key for key in keys if _id_reason(key)}


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
    entry-level damage (bad vote symbols, ids the store refuses, truth for
    unknown facts) follows ``on_error`` like the CSV readers.  Each vote
    ``votes[fact][source]`` is a row of the one row rule
    (:func:`_vote_fields`), and each ``facts`` / ``sources`` entry follows
    its id rule.
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
    for source in _listed_ids(document, "sources", policy, report):
        matrix.add_source(source)
    for fact in _listed_ids(document, "facts", policy, report):
        matrix.add_fact(fact)
    refused = _refused_keys(document["votes"])
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
        # registers only if the "facts" list names it.  A fact voted only
        # T or F costs one dict lookup per vote; the votes of any other,
        # or of one whose key or voters the id rule refuses, each go
        # through the row rule.
        try:
            kept = [(s, VOTE_OF_SYMBOL[symbol]) for s, symbol in votes.items()]
        except (KeyError, TypeError):  # a symbol other than "T" or "F"
            kept = None
        suspect = refused and (fact in refused or not refused.isdisjoint(votes))
        if kept is None or suspect:
            kept = []
            for source, symbol in votes.items():
                location = f"votes[{fact!r}][{source!r}]"
                fields = _vote_fields((fact, source, symbol), location)
                if isinstance(fields, RowIssue):
                    _reject(policy, report, fields)
                else:
                    kept.append((source, fields[2]))
        report.rows_read += len(votes)
        report.rows_kept += len(kept)
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
