"""Validated ingestion: error policies, duplicate semantics, and fuzzing.

Covers the three :class:`~repro.resilience.errors.ErrorPolicy` modes of the
CSV/JSON readers, the defined duplicate-``(source, fact)`` behavior, the
per-row :class:`~repro.resilience.errors.IngestReport` accounting, the one
row rule (each dirty row gets the same reason from both readers and both
store ingests), and a seeded fuzz suite asserting that arbitrarily mutated
input bytes only ever surface as typed
:class:`~repro.resilience.errors.IngestError` / ``ValueError`` — never as
a deep numpy/KeyError traceback.
"""

from __future__ import annotations

import csv
import io
import json
import random

import pytest

from repro.model.io import (
    dataset_from_json,
    dataset_to_json,
    read_truth_csv,
    read_votes_csv,
)
from repro.model.votes import Vote
from repro.resilience.errors import (
    BAD_HEADER,
    BAD_JSON,
    BAD_VOTE_SYMBOL,
    CONFLICTING_VOTE,
    DASH_VOTE,
    DUPLICATE_VOTE,
    MALFORMED_ROW,
    MISSING_FIELD,
    REASON_CODES,
    TRUNCATED_FILE,
    UNKNOWN_FACT,
    DuplicateVoteError,
    ErrorPolicy,
    IngestError,
    IngestReport,
)
from repro.store import VoteLedger

VOTES = "fact,source,vote\nf1,s1,T\nf2,s1,F\nf1,s2,T\nf3,s2,F\n"
TRUTH = "fact,label,golden\nf1,true,1\nf2,false,0\nf3,true,1\n"


def _votes(text: str, policy, report=None):
    return read_votes_csv(io.StringIO(text), on_error=policy, report=report)


def _truth(text: str, policy, report=None, known_facts=None):
    return read_truth_csv(
        io.StringIO(text),
        on_error=policy,
        report=report,
        known_facts=known_facts,
    )


class TestVotesPolicies:
    def test_clean_file_reads_under_every_policy(self):
        for policy in ErrorPolicy:
            report = IngestReport()
            matrix = _votes(VOTES, policy, report)
            assert len(matrix.facts) == 3
            assert report.rows_read == 4
            assert report.rows_kept == 4
            assert report.issues == []

    def test_strict_raises_typed_error_naming_the_row(self):
        bad = VOTES + "f4,s1,X\n"
        with pytest.raises(IngestError) as excinfo:
            _votes(bad, ErrorPolicy.STRICT)
        assert excinfo.value.reason == BAD_VOTE_SYMBOL
        assert excinfo.value.location == "line 6"
        assert "'X'" in str(excinfo.value)

    def test_ingest_error_is_a_value_error(self):
        # Callers matching the historical ValueError keep working.
        with pytest.raises(ValueError):
            _votes(VOTES + "f4,s1,X\n", ErrorPolicy.STRICT)

    def test_skip_drops_and_counts_without_payload(self):
        report = IngestReport()
        matrix = _votes(VOTES + "f4,s1,X\n", ErrorPolicy.SKIP, report)
        assert "f4" not in matrix
        assert report.rows_read == 5
        assert report.rows_kept == 4
        assert report.rows_dropped == 1
        (issue,) = report.issues
        assert issue.reason == BAD_VOTE_SYMBOL
        assert issue.row is None  # skip drops the payload

    def test_quarantine_keeps_the_rejected_payload(self):
        report = IngestReport()
        _votes(VOTES + "f4,s1,X\n", ErrorPolicy.QUARANTINE, report)
        (issue,) = report.issues
        assert issue.row == {"fact": "f4", "source": "s1", "vote": "X"}

    def test_accounting_invariant(self):
        bad = VOTES + "f4,s1,X\nf5,,T\nf1,s1,T\n"
        report = IngestReport()
        _votes(bad, ErrorPolicy.QUARANTINE, report)
        assert report.rows_read == report.rows_kept + report.rows_dropped
        assert all(issue.reason in REASON_CODES for issue in report.issues)

    def test_dash_vote_message_mentions_omitted(self):
        with pytest.raises(IngestError, match="omitted"):
            _votes(VOTES + "f4,s1,-\n", ErrorPolicy.STRICT)

    def test_bad_header_raises_under_every_policy(self):
        for policy in ErrorPolicy:
            with pytest.raises(IngestError, match="columns") as excinfo:
                _votes("a,b,c\n1,2,3\n", policy)
            assert excinfo.value.reason == BAD_HEADER


class TestDuplicateVotes:
    def test_strict_duplicate_names_both_lines(self):
        with pytest.raises(DuplicateVoteError) as excinfo:
            _votes(VOTES + "f1,s1,T\n", ErrorPolicy.STRICT)
        message = str(excinfo.value)
        assert "line 6" in message and "first at line 2" in message
        assert excinfo.value.reason == DUPLICATE_VOTE

    def test_strict_conflict_is_distinguished(self):
        with pytest.raises(DuplicateVoteError) as excinfo:
            _votes(VOTES + "f1,s1,F\n", ErrorPolicy.STRICT)
        assert excinfo.value.reason == CONFLICTING_VOTE
        assert "conflicting" in str(excinfo.value)

    def test_lenient_keeps_first_occurrence(self):
        report = IngestReport()
        matrix = _votes(VOTES + "f1,s1,F\n", ErrorPolicy.QUARANTINE, report)
        assert matrix.votes_on("f1")["s1"] is Vote.TRUE  # the line-2 vote
        assert report.reasons() == {CONFLICTING_VOTE: 1}


class TestTruthPolicies:
    def test_strict_bad_label(self):
        with pytest.raises(IngestError, match="true/false"):
            _truth(TRUTH + "f4,maybe,0\n", ErrorPolicy.STRICT)

    def test_unknown_fact_check_is_opt_in(self):
        truth, _ = _truth(TRUTH, ErrorPolicy.STRICT)  # no known_facts
        assert set(truth) == {"f1", "f2", "f3"}
        report = IngestReport()
        truth, _ = _truth(
            TRUTH,
            ErrorPolicy.SKIP,
            report,
            known_facts=frozenset({"f1", "f2"}),
        )
        assert set(truth) == {"f1", "f2"}
        assert report.reasons() == {UNKNOWN_FACT: 1}

    def test_duplicate_truth_keeps_first(self):
        report = IngestReport()
        truth, _ = _truth(
            TRUTH + "f1,false,0\n", ErrorPolicy.QUARANTINE, report
        )
        assert truth["f1"] is True
        assert report.rows_dropped == 1

    def test_golden_and_labels_round_trip(self):
        truth, golden = _truth(TRUTH, ErrorPolicy.STRICT)
        assert truth == {"f1": True, "f2": False, "f3": True}
        assert golden == frozenset({"f1", "f3"})


class TestJsonPolicies:
    def test_truncated_json_has_truncated_reason(self, motivating):
        text = dataset_to_json(motivating)
        for policy in ErrorPolicy:
            with pytest.raises(IngestError) as excinfo:
                dataset_from_json(text[: len(text) // 2], on_error=policy)
            assert excinfo.value.reason == TRUNCATED_FILE

    def test_mid_document_damage_is_bad_json(self, motivating):
        text = dataset_to_json(motivating)
        broken = text[:1] + "!!!" + text[1:]  # syntax damage mid-stream
        with pytest.raises(IngestError) as excinfo:
            dataset_from_json(broken, on_error=ErrorPolicy.QUARANTINE)
        assert excinfo.value.reason == BAD_JSON

    def test_structural_damage_raises_under_every_policy(self):
        document = '{"sources": [], "facts": [], "votes": "oops"}'
        for policy in ErrorPolicy:
            with pytest.raises(IngestError, match="votes"):
                dataset_from_json(document, on_error=policy)

    def test_entry_level_damage_follows_the_policy(self, motivating):
        import json

        document = json.loads(dataset_to_json(motivating))
        fact = motivating.matrix.facts[0]
        source = next(iter(document["votes"][fact]))
        document["votes"][fact][source] = "Z"
        text = json.dumps(document)
        with pytest.raises(IngestError):
            dataset_from_json(text, on_error=ErrorPolicy.STRICT)
        report = IngestReport()
        dataset = dataset_from_json(
            text, on_error=ErrorPolicy.QUARANTINE, report=report
        )
        assert report.reasons() == {BAD_VOTE_SYMBOL: 1}
        assert source not in dataset.matrix.votes_on(fact)


# ---------------------------------------------------------------------------
# One row rule at every entry point
# ---------------------------------------------------------------------------
def _csv_text(fact, source, vote) -> str:
    buffer = io.StringIO()
    # A missing vote is a short line.
    line = [fact, source] + ([] if vote is None else [vote])
    csv.writer(buffer).writerows([["fact", "source", "vote"], line])
    return buffer.getvalue()


def _json_text(fact, source, vote) -> str:
    if isinstance(fact, str) and isinstance(source, str):
        document = {"sources": [], "facts": [], "votes": {fact: {source: vote}}}
    else:
        # JSON keys are strings: other ids can only be listed.
        document = {"sources": [source], "facts": [fact], "votes": {}}
    return json.dumps(document)


def _read_votes_csv(row, policy, store):
    report = IngestReport()
    _votes(_csv_text(*row), policy, report)
    return report


def _dataset_from_json(row, policy, store):
    report = IngestReport()
    dataset_from_json(_json_text(*row), on_error=policy, report=report)
    return report


def _ingest_votes(row, policy, store):
    fact, source, vote = row
    with VoteLedger(store) as ledger:
        return ledger.ingest_votes(
            [{"fact": fact, "source": source, "vote": vote}], on_error=policy
        ).report


def _ingest_votes_csv(row, policy, store):
    with VoteLedger(store) as ledger:
        return ledger.ingest_votes_csv(
            io.StringIO(_csv_text(*row)), on_error=policy
        ).report


ENTRY_POINTS = {
    "read_votes_csv": _read_votes_csv,
    "dataset_from_json": _dataset_from_json,
    "ingest_votes": _ingest_votes,
    "ingest_votes_csv": _ingest_votes_csv,
}

#: One dirty row each, and the reason every entry point gives it; a
#: ``None`` vote is a short CSV line, a JSON ``null`` or a posted ``null``.
DIRTY_ROWS = {
    "empty-id": (("", "s1", "T"), MISSING_FIELD),
    "nul-id": (("f\x00x", "s1", "T"), MALFORMED_ROW),
    "unknown-symbol": (("f1", "s1", "Q"), BAD_VOTE_SYMBOL),
    "dash": (("f1", "s1", "-"), DASH_VOTE),
    "no-vote": (("f1", "s1", None), MISSING_FIELD),
    "list-id": ((["f1"], "s1", "T"), MALFORMED_ROW),
    "bool-id": (("f1", True, "T"), MALFORMED_ROW),
    "nan-id": ((float("nan"), "s1", "T"), MALFORMED_ROW),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in ENTRY_POINTS
        for case, ((fact, source, _), _) in DIRTY_ROWS.items()
        # A CSV cell is text: it cannot hold a list, a bool or a NaN.
        if "csv" not in entry or isinstance(fact, str) and isinstance(source, str)
    ],
)
def test_dirty_row_gets_one_reason_at_every_entry_point(tmp_path, entry, case):
    row, reason = DIRTY_ROWS[case]
    read = ENTRY_POINTS[entry]
    report = read(row, ErrorPolicy.QUARANTINE, tmp_path / "quarantine.db")
    assert [issue.reason for issue in report.issues] == [reason]
    assert report.rows_read == report.rows_kept + len(report.issues)
    with pytest.raises(IngestError) as excinfo:
        read(row, ErrorPolicy.STRICT, tmp_path / "strict.db")
    assert excinfo.value.reason == reason


class TestFuzz:
    """Mutated bytes must surface as typed errors, never deep tracebacks."""

    NASTY = list("\x00\"',\nTF0{}[]:") + ["é"]

    def _mutate(self, rng: random.Random, text: str) -> str:
        choice = rng.random()
        if choice < 0.3:  # truncate
            return text[: rng.randrange(len(text))]
        position = rng.randrange(len(text))
        replacement = rng.choice(self.NASTY)
        if choice < 0.65:  # replace
            return text[:position] + replacement + text[position + 1 :]
        return text[:position] + replacement + text[position:]  # insert

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_votes_csv(self, seed):
        rng = random.Random(seed)
        base = VOTES * 4
        for _ in range(60):
            mutated = self._mutate(rng, base)
            for policy in (ErrorPolicy.STRICT, ErrorPolicy.QUARANTINE):
                try:
                    report = IngestReport()
                    _votes(mutated, policy, report)
                except ValueError:
                    continue  # IngestError included — typed and expected
                assert report.rows_read == report.rows_kept + report.rows_dropped

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_dataset_json(self, seed, motivating):
        rng = random.Random(1000 + seed)
        base = dataset_to_json(motivating)
        for _ in range(40):
            mutated = self._mutate(rng, base)
            for policy in (ErrorPolicy.STRICT, ErrorPolicy.QUARANTINE):
                try:
                    dataset_from_json(mutated, on_error=policy)
                except ValueError:
                    continue
