"""Fact-at-a-time matrix fills equal vote-at-a-time fills.

``VoteMatrix.add_votes`` is the bulk path of the JSON loader, the sparse
generator and every refresh epoch's matrix; ``add_vote`` is its
reference.  Readers iterate ``votes_by`` in insertion order, so both
must match exactly, order included.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.io import dataset_from_json
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote
from repro.resilience.errors import IngestReport

#: One call's worth of votes: a fact and its (source, vote) pairs.  The
#: small alphabets make repeated facts, duplicate and conflicting votes
#: common; ``"T"`` is the non-``Vote`` a caller might pass.
RUNS = st.lists(
    st.tuples(
        st.sampled_from(["f1", "f2", "f3", "f4"]),
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2", "s3", "s4", "s5"]),
                st.sampled_from([Vote.TRUE, Vote.FALSE, Vote.TRUE, "T"]),
            ),
            max_size=6,
        ),
    ),
    max_size=8,
)


def fill(runs, *, per_fact: bool) -> tuple[VoteMatrix, tuple | None]:
    """The matrix after ``runs`` and the (type, message) of the error
    that stopped the fill, if one did."""
    matrix = VoteMatrix()
    try:
        for fact, votes in runs:
            if per_fact:
                matrix.add_votes(fact, votes)
            else:
                matrix.add_fact(fact)
                for source, vote in votes:
                    matrix.add_vote(fact, source, vote)
    except (TypeError, ValueError) as exc:
        return matrix, (type(exc), str(exc))
    return matrix, None


def contents(matrix: VoteMatrix) -> dict:
    return {
        "facts": list(matrix.facts),
        "sources": list(matrix.sources),
        "votes_on": [list(matrix.iter_votes_on(f)) for f in matrix.facts],
        "votes_by": [list(matrix.iter_votes_by(s)) for s in matrix.sources],
    }


@settings(max_examples=300, deadline=None)
@given(RUNS)
# A conflict after a stored vote, and a non-Vote.
@example([("f1", [("s1", Vote.TRUE), ("s2", Vote.TRUE), ("s1", Vote.FALSE)])])
@example([("f1", [("s1", Vote.FALSE)]), ("f2", [("s1", Vote.TRUE), ("s2", "T")])])
# One call that registers more than 1,024 sources.
@example([("f1", [(f"s{i}", Vote.TRUE) for i in range(1026)])])
def test_add_votes_equals_looped_add_vote(runs):
    bulk, bulk_error = fill(runs, per_fact=True)
    looped, looped_error = fill(runs, per_fact=False)
    assert bulk_error == looped_error
    assert contents(bulk) == contents(looped)


# ---------------------------------------------------------------------------
# The JSON loader
# ---------------------------------------------------------------------------
#: Canonical, lowercase and padded symbols, dashes, an unknown symbol, a
#: non-string symbol, a fact and a source the lists do not name, a fact
#: none of whose votes is kept, and a votes entry that is not an object.
MIXED = {
    "name": "mixed",
    "sources": ["s1", "s2", "s3"],
    "facts": ["f1", "f2", "f3"],
    "votes": {
        "f1": {"s1": "T", "s2": "f", "s3": " t "},
        "f2": {"s1": "-", "s2": "Q", "s3": "F"},
        "f3": {"s1": 1, "s4": "T", "s2": ""},
        "f4": {"s3": "F", "s1": None},
        "f5": {"s2": "Q"},
        "f6": "not an object",
    },
    "truth": {"f1": True},
    "golden_set": [],
}

#: (location, reason, message) of each MIXED issue.  The vote-at-a-time
#: loader reported them first; since every reader shares the row rule, the
#: dashes take its wording and the ``null`` vote is ``missing_field``.
MIXED_ISSUES = [
    ("votes['f2']['s1']", "dash_vote",
     "votes['f2']['s1']: '-' votes must simply be omitted"),
    ("votes['f2']['s2']", "bad_vote_symbol",
     "votes['f2']['s2']: unrecognised vote symbol 'Q'"),
    ("votes['f3']['s1']", "bad_vote_symbol",
     "votes['f3']['s1']: vote symbol must be a string"),
    ("votes['f3']['s2']", "dash_vote",
     "votes['f3']['s2']: '-' votes must simply be omitted"),
    ("votes['f4']['s1']", "missing_field",
     "votes['f4']['s1']: missing fact, source or vote"),
    ("votes['f5']['s2']", "bad_vote_symbol",
     "votes['f5']['s2']: unrecognised vote symbol 'Q'"),
    ("votes['f6']", "bad_document", "votes['f6'] must be an object"),
]


def test_json_loader_matrix_and_report_are_pinned():
    report = IngestReport()
    dataset = dataset_from_json(
        json.dumps(MIXED), on_error="quarantine", report=report
    )
    matrix = dataset.matrix
    T, F = Vote.TRUE, Vote.FALSE
    assert contents(matrix) == {
        "facts": ["f1", "f2", "f3", "f4"],
        "sources": ["s1", "s2", "s3", "s4"],
        "votes_on": [
            [("s1", T), ("s2", F), ("s3", T)],
            [("s3", F)],
            [("s4", T)],
            [("s3", F)],
        ],
        "votes_by": [
            [("f1", T)],
            [("f1", F)],
            [("f1", T), ("f2", F), ("f4", F)],
            [("f3", T)],
        ],
    }
    assert (report.rows_read, report.rows_kept) == (13, 7)
    assert report.reasons() == {
        "dash_vote": 2, "bad_vote_symbol": 3, "missing_field": 1,
        "bad_document": 1,
    }
    assert [
        (issue.location, issue.reason, issue.message) for issue in report.issues
    ] == MIXED_ISSUES
    assert report.issues[2].row == {"fact": "f3", "source": "s1", "vote": 1}
