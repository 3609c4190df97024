"""Seeded inputs of the serving benchmark's three workloads.

Everything a run sends is generated here before any clock starts: the
dataset the store is seeded with, the POST batches and the read mix.
The server only ever sees these generated inputs.  ``--seed`` draws the
op sequence; the seeded store is always the same world (the paper's
restaurant calibration, or :data:`WIDE_STORE`), because a different
world per seed changes the trajectory length every later refresh pays
for, which showed up as run-to-run spread.

``ingest``
    Paper-scale restaurant store (36,916 facts, 6 sources); one
    connection POSTs fresh 25-fact x 4-vote batches back to back while a
    second sends one probe read beside each POST.
``query``
    The same store, no writes: one connection loops the read mix
    closed-loop, with one probe read beside every fourth read.
``wide``
    A hubdub-like store (471 sources); one connection POSTs freshly
    seeded hubdub-like worlds over the same 471 users, with one probe
    read beside each POST.  Not in ``BENCHMARK.json``: its run-to-run
    spread exceeds the largest bound (see ``README.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random

#: Per-workload sizing.  Op counts scale with ``--seconds`` so a run
#: is a fixed op sequence (not a fixed duration) whose length still
#: follows the requested run time.
SIZES = {
    "ingest": {"posts_per_s": 2.2, "facts": 25, "votes_per_fact": 4,
               "probes_per_op": 1.0},
    "query": {"reads_per_s": 12.0, "probes_per_op": 0.25},
    "wide": {"posts_per_s": 0.85, "questions": 6, "answers": 15,
             "votes_per_user": 1.0, "probes_per_op": 1.0},
}

#: Share of fact reads that ask for an id the store never held.
MISS_RATE = 0.05

#: Share of reads that ask for a source's trust instead of a fact.
SOURCE_READ_RATE = 0.25

#: The smoke size the benchmark's own tests use (``--small``).
SMALL_RESTAURANT_FACTS = 1500
SMALL_HUBDUB = {"num_questions": 40, "num_answer_facts": 90}

#: The ``wide`` store: 471 users (sources) as in the paper's snapshot, on
#: fewer, more heavily answered questions, so the trajectory every replay
#: POST rewrites (T time points x 471 sources) leaves room for enough
#: POSTs per run.
WIDE_STORE = {"num_questions": 120, "num_answer_facts": 280, "votes_per_user": 15.0}

WORKLOADS = tuple(SIZES)


def derive(seed: int, *tags: object) -> int:
    """A 32-bit child seed of ``seed`` for the stream named by ``tags``."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclasses.dataclass(frozen=True)
class Op:
    """One request the load generator sends."""

    op_id: str  # doubles as the request's X-Trace-Id
    method: str
    path: str
    body: bytes | None = None
    votes: int = 0  # votes carried by a POST
    miss: bool = False  # a planted miss: must answer 404
    ident: str = ""  # the fact or source id a read asks for


@dataclasses.dataclass
class Inputs:
    workload: str
    dataset: dict  # the seeded store, as a dataset JSON document
    seeded_votes: int
    ops: list[Op]  # the closed-loop sequence on connection 1
    probe: list[Op]  # reads sent beside the workload ops
    probes_per_op: float

    def digest(self) -> str:
        """Fingerprint of everything the run sends."""
        sha = hashlib.sha256()
        sha.update(json.dumps(self.dataset, sort_keys=True).encode())
        for op in [*self.ops, *self.probe]:
            sha.update(f"{op.op_id} {op.method} {op.path}\n".encode())
            sha.update(op.body or b"")
        return sha.hexdigest()


def _dataset_json(dataset) -> dict:
    from repro.model.io import dataset_to_json

    return json.loads(dataset_to_json(dataset))


def _post(op_id: str, rows: list[dict]) -> Op:
    body = json.dumps({"votes": rows}, separators=(",", ":")).encode()
    return Op(op_id, "POST", "/votes", body=body, votes=len(rows))


def _reads(rng: random.Random, prefix: str, count: int, facts, sources) -> list[Op]:
    ops = []
    for index in range(count):
        op_id = f"{prefix}{index:05d}"
        if rng.random() < SOURCE_READ_RATE:
            source = rng.choice(sources)
            ops.append(Op(op_id, "GET", f"/sources/{source}/trust", ident=source))
        elif rng.random() < MISS_RATE:
            fact = f"missing-{rng.randrange(10**9)}"
            ops.append(Op(op_id, "GET", f"/facts/{fact}", miss=True, ident=fact))
        else:
            fact = rng.choice(facts)
            ops.append(Op(op_id, "GET", f"/facts/{fact}", ident=fact))
    return ops


def _ingest_batches(rng: random.Random, count: int, sources, size: dict) -> list[Op]:
    ops = []
    for batch in range(count):
        rows = []
        for index in range(size["facts"]):
            fact = f"ing{batch:04d}-{index:02d}"
            for source in rng.sample(sources, size["votes_per_fact"]):
                vote = "T" if rng.random() < 0.75 else "F"
                rows.append({"fact": fact, "source": source, "vote": vote})
        ops.append(_post(f"w{batch:05d}", rows))
    return ops


def _wide_batches(seed: int, count: int, size: dict, users: int) -> list[Op]:
    from repro.datasets import generate_hubdub_like

    ops = []
    for batch in range(count):
        world = generate_hubdub_like(
            num_questions=size["questions"],
            num_users=users,
            num_answer_facts=size["answers"],
            votes_per_user=size["votes_per_user"],
            seed=derive(seed, "wide-batch", batch),
        )
        matrix = world.questions.to_dataset().matrix
        rows = [
            {"fact": f"w{batch:04d}-{fact}", "source": source, "vote": vote.value}
            for fact in matrix.facts
            for source, vote in sorted(matrix.votes_on(fact).items())
        ]
        ops.append(_post(f"w{batch:05d}", rows))
    return ops


def build(workload: str, seed: int, seconds: float, small: bool = False) -> Inputs:
    """The full seeded input of one run of ``workload``."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    from repro.datasets import generate_hubdub_like, generate_restaurants

    size = SIZES[workload]
    # Enough workload ops for at least one probe read.
    least = 1 + math.ceil(1 / size["probes_per_op"])
    rng = random.Random(derive(seed, workload, "ops"))
    if workload == "wide":
        world = generate_hubdub_like(**(SMALL_HUBDUB if small else WIDE_STORE))
        dataset = world.questions.to_dataset(name="hubdub-like")
        users = dataset.matrix.num_sources
        count = max(least, round(size["posts_per_s"] * seconds))
        ops = _wide_batches(seed, count, size, users)
    else:
        kwargs = {"num_facts": SMALL_RESTAURANT_FACTS} if small else {}
        dataset = generate_restaurants(**kwargs).dataset
        if workload == "ingest":
            count = max(least, round(size["posts_per_s"] * seconds))
            ops = _ingest_batches(rng, count, list(dataset.matrix.sources), size)
        else:
            count = max(least, round(size["reads_per_s"] * seconds))
            ops = _reads(
                rng, "q", count, list(dataset.matrix.facts), list(dataset.matrix.sources)
            )
    probe = _reads(
        rng, "r", int(size["probes_per_op"] * (len(ops) - 1)),
        list(dataset.matrix.facts), list(dataset.matrix.sources),
    )
    return Inputs(
        workload=workload,
        dataset=_dataset_json(dataset),
        seeded_votes=dataset.matrix.num_votes,
        ops=ops,
        probe=probe,
        probes_per_op=size["probes_per_op"],
    )
