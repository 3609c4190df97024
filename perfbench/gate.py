"""Correctness gate of every benchmark run.

A run is correct only if all of these hold:

* every POST answered 200 with ``votes_added`` equal to the votes sent;
* every read answered for the id it asked about, and 404 came back
  exactly for the planted misses;
* the store holds the seeded plus the driven votes, with nothing pending;
* a cold replay of the final store, ``CorroborationService(ledger)
  .verify()``, reproduces every stored label exactly.

The label digest printed with each run fingerprints the final labels.
"""

from __future__ import annotations

import hashlib
import json

from loadgen import Result


def failed(result: Result) -> bool:
    """A failed op: a connection error or a non-2xx that is not a
    planted miss's 404 (429 and 503 count as failures)."""
    if result.status is None:
        return True
    if result.op.miss:
        return result.status != 404
    return not 200 <= result.status < 300


def check_responses(results: list[Result]) -> list[str]:
    """What is wrong with the answers in ``results`` (empty when right)."""
    problems = []
    for result in results:
        op, body = result.op, result.body or {}
        if failed(result):
            problems.append(f"{op.op_id} {op.method} {op.path}: status {result.status}")
        elif op.method == "POST":
            if body.get("votes_added") != op.votes:
                problems.append(
                    f"{op.op_id}: votes_added {body.get('votes_added')!r} != {op.votes}"
                )
        elif op.miss:
            if body.get("reason") != "not_found":
                problems.append(f"{op.op_id}: planted miss answered {body!r:.80}")
        elif op.path.startswith("/facts/"):
            if body.get("fact") != op.ident or body.get("status") != "corroborated":
                problems.append(f"{op.op_id}: wrong fact answer {body!r:.80}")
        elif body.get("source") != op.ident:
            problems.append(f"{op.op_id}: wrong source answer {body!r:.80}")
    return problems


def label_digest(ledger) -> str:
    """SHA-256 over every stored label (fact, exact probability, flags)."""
    sha = hashlib.sha256()
    for fact, row in sorted(ledger.labels_map().items()):
        sha.update(
            f"{fact}\t{float(row['probability']).hex()}\t{row['label']}"
            f"\t{row['flipped']}\n".encode()
        )
    return sha.hexdigest()


def check_store(path, expected_votes: int) -> tuple[list[str], dict]:
    """Check a stopped server's store; returns (problems, store facts).

    The store facts are the label digest and the sizes the layer report
    quotes (``state_bytes``: the continuation state every refresh loads).
    """
    from repro.serve import CorroborationService
    from repro.store import LedgerError, VoteLedger

    problems = []
    with VoteLedger(path) as ledger:
        counts = ledger.counts()
        if counts["votes"] != expected_votes:
            problems.append(f"store holds {counts['votes']} votes, expected {expected_votes}")
        if counts["pending"]:
            problems.append(f"{counts['pending']} facts left pending")
        try:
            checked = CorroborationService(ledger).verify()
        except LedgerError as exc:
            problems.append(f"cold replay disagrees with the store: {exc}")
        else:
            if checked != counts["facts"]:
                problems.append(f"verify checked {checked} of {counts['facts']} facts")
        state = ledger.load_session_state()
        facts = {
            "digest": label_digest(ledger),
            "labels": counts["labels"],
            "epochs": counts["epochs"],
            "state_bytes": 0 if state is None else len(
                json.dumps(state[1], separators=(",", ":"))
            ),
        }
    return problems, facts
