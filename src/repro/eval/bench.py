"""Machine-readable performance baseline for the selection engine.

Emits ``BENCH_core.json``: one timing record per (method, dataset, backend)
for the incremental algorithm, with per-phase wall-clock seconds and the
process peak RSS, so performance regressions are diffable across commits
instead of living in someone's terminal scrollback.

Record schema (one entry of ``records``)::

    {
      "method":   "IncEstimate[IncEstHeu]",
      "dataset":  "restaurants",
      "backend":  "engine" | "scalar",
      "facts":    36916,          # matrix facts
      "groups":   106,            # fact groups
      "sources":  14,
      "rounds":   205,            # RoundRecords emitted
      "repeats":  5,              # timing repetitions (best run reported)
      "phases":   {"setup": s, "steps": s, "finalize": s},
      "seconds":  s,              # sum of phases, best total across repeats
      "peak_rss_kb": 123456       # ru_maxrss after the run (Linux: KiB)
    }

The top level adds ``schema_version``, interpreter/numpy versions and a
``summary`` with the engine-vs-scalar speedup per (method, dataset).  Run
from the command line::

    PYTHONPATH=src python -m repro.eval.bench --output BENCH_core.json

or via the benchmark suite hook (``benchmarks/test_bench_engine.py``).
``--quick`` swaps the full-scale datasets for small ones — the CI smoke
uses it to validate the file shape in seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import platform
import resource
import sys
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.arrays import GroupArrays
from repro.core.incestimate import IncEstimate
from repro.core.selection import IncEstHeu, IncEstPS, SelectionStrategy
from repro.core.session import CorroborationSession
from repro.model.dataset import Dataset
from repro.obs.trace import SpanTracer

SCHEMA_VERSION = 1

#: Default output location (repository root).
DEFAULT_OUTPUT = "BENCH_core.json"

#: Schema / default output of the parallel-scaling benchmark (``--parallel``).
PARALLEL_SCHEMA_VERSION = 1
DEFAULT_PARALLEL_OUTPUT = "BENCH_parallel.json"

#: Schema / default output of the sparse scale-tier benchmark (``--scale``).
SCALE_SCHEMA_VERSION = 1
DEFAULT_SCALE_OUTPUT = "BENCH_scale.json"

#: Schema / default output of the serving load benchmark (``--load``).
LOAD_SCHEMA_VERSION = 1
DEFAULT_LOAD_OUTPUT = "BENCH_load.json"

#: Schema / default output of the streaming-core benchmark (``--stream``).
STREAM_SCHEMA_VERSION = 1
DEFAULT_STREAM_OUTPUT = "BENCH_stream.json"

#: Per-tier acceptance floors of the load bench, asserted by the
#: validator: minimum sustained ingest throughput (votes/second through
#: POST /votes including the incremental refresh) and a generous ceiling
#: on the client-observed query p99 (milliseconds).  Set far below/above
#: a healthy run so only a genuine serving regression — or a committed
#: file from a broken run — trips them, not host jitter.
LOAD_FLOORS = {
    "full": {"votes_per_second": 150.0, "query_p99_ms": 2500.0},
    "quick": {"votes_per_second": 25.0, "query_p99_ms": 2500.0},
}

#: Schema / default output of the fault-tolerance chaos benchmark
#: (``--robustness``).
ROBUSTNESS_SCHEMA_VERSION = 1
DEFAULT_ROBUSTNESS_OUTPUT = "BENCH_robustness.json"

#: Per-tier acceptance floors of the chaos bench.  The binary invariants
#: (zero acknowledged-vote loss, bit-identical labels after kill -9 +
#: restart, breaker trip + recovery, clean drain) are asserted outright;
#: only the wall-clock recovery ceiling and the read-availability floor
#: vary by tier, and both sit far from a healthy run so host jitter
#: cannot trip them.
ROBUSTNESS_FLOORS = {
    "full": {"max_recovery_seconds": 30.0, "min_read_availability": 0.97},
    "quick": {"max_recovery_seconds": 30.0, "min_read_availability": 0.95},
}

#: Schema / default output of the adversarial scenario benchmark
#: (``--scenarios``).
SCENARIOS_SCHEMA_VERSION = 1
DEFAULT_SCENARIOS_OUTPUT = "BENCH_scenarios.json"

#: Root seed of the committed scenario suite (see
#: :func:`repro.scenarios.scenario_suite`).
SCENARIOS_SEED = 0

#: Per-tier acceptance floors of the scenario bench, asserted by the
#: validator: the copying attack must cost the vanilla incremental method
#: a measurable accuracy gap versus the paired independent control, and
#: the dependence-aware variant must win back at least half of that gap.
#: The gap floors sit well below the committed runs (full ≈ 0.13,
#: quick ≈ 0.085) so only a genuine detection regression trips them.
SCENARIO_FLOORS = {
    "full": {"min_copying_gap": 0.05, "min_recovered_fraction": 0.5},
    "quick": {"min_copying_gap": 0.03, "min_recovered_fraction": 0.5},
}

#: Hard ceiling on the scale run's peak RSS: the million-fact tier must
#: stay sparse, and a dense (G × S) or per-fact-code structure sneaking
#: back in shows up here long before it ooms a CI runner.
SCALE_MEMORY_GUARD_KB = 6 * 1024 * 1024

#: Minimum instance sizes per tier, asserted by the validator so a
#: committed BENCH_scale.json cannot silently shrink below the paper-scale
#: claim (full) or below the wide-matrix code path (quick keeps the source
#: axis past the signature-code limit).
SCALE_FLOORS = {
    "full": {"facts": 1_000_000, "sources": 10_000},
    "quick": {"facts": 50_000, "sources": 2_000},
}


@dataclasses.dataclass
class BenchRecord:
    """One timed corroboration run (the schema in the module docstring)."""

    method: str
    dataset: str
    backend: str
    facts: int
    groups: int
    sources: int
    rounds: int
    repeats: int
    phases: dict[str, float]
    seconds: float
    peak_rss_kb: int

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _peak_rss_kb() -> int:
    """Process peak resident set size (KiB on Linux, bytes/1024 on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        rss //= 1024
    return int(rss)


def measure_incestimate(
    dataset: Dataset,
    dataset_name: str,
    strategy: SelectionStrategy,
    engine: bool,
    repeats: int = 5,
) -> BenchRecord:
    """Time one IncEstimate configuration; best-of-``repeats`` totals.

    Phases: ``setup`` (session construction, including the group-array
    build on the first repeat), ``steps`` (the Algorithm 1 loop) and
    ``finalize`` (result materialisation).  Each phase is a
    ``bench.<phase>`` span on a per-repeat :class:`~repro.obs.SpanTracer`
    — the phase seconds are the span durations, not hand-placed
    ``perf_counter`` pairs — while the session itself runs with the no-op
    bundle so the measured path is the untraced one.  The reported phases
    are the ones of the fastest total, which is the stable statistic on a
    shared machine; ``peak_rss_kb`` is read once after all repeats.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    estimator = IncEstimate(strategy=strategy, engine=engine)
    best: tuple[float, dict[str, float], int] | None = None
    for _ in range(repeats):
        tracer = SpanTracer()
        with tracer.span("bench.run", backend="engine" if engine else "scalar") as run_span:
            with tracer.span("bench.setup"):
                session = CorroborationSession(
                    dataset,
                    estimator.strategy,
                    estimator.default_trust,
                    estimator.default_fact_probability,
                    estimator.trust_prior_strength,
                    estimator.name,
                    engine=engine,
                )
            with tracer.span("bench.steps"):
                while not session.done:
                    session.step()
            with tracer.span("bench.finalize"):
                result = session.finalize()
        phases = {
            "setup": tracer.total_seconds("bench.setup"),
            "steps": tracer.total_seconds("bench.steps"),
            "finalize": tracer.total_seconds("bench.finalize"),
        }
        total = run_span.duration_s
        if best is None or total < best[0]:
            best = (total, phases, len(result.rounds))
    assert best is not None
    total, phases, rounds = best
    arrays = GroupArrays.for_matrix(dataset.matrix)
    return BenchRecord(
        method=estimator.name,
        dataset=dataset_name,
        backend="engine" if engine else "scalar",
        facts=dataset.matrix.num_facts,
        groups=arrays.num_groups,
        sources=dataset.matrix.num_sources,
        rounds=rounds,
        repeats=repeats,
        phases={k: round(v, 6) for k, v in phases.items()},
        seconds=round(total, 6),
        peak_rss_kb=_peak_rss_kb(),
    )


def _default_datasets(quick: bool) -> dict[str, Callable[[], Dataset]]:
    """Lazy dataset factories so --quick never pays full-scale generation."""
    if quick:
        from repro.datasets import generate_synthetic
        from repro.datasets.motivating import motivating_example

        return {
            "motivating": lambda: motivating_example(),
            "synthetic-1500": lambda: generate_synthetic(
                num_facts=1_500, seed=7
            ).dataset,
        }
    from repro.datasets import generate_hubdub_like, generate_restaurants

    return {
        "restaurants": lambda: generate_restaurants().dataset,
        "hubdub-like": lambda: generate_hubdub_like().questions.to_dataset(),
    }


def run_core_bench(
    datasets: dict[str, Dataset] | None = None,
    strategies: Sequence[SelectionStrategy] | None = None,
    repeats: int = 5,
    quick: bool = False,
) -> dict:
    """Run the core bench matrix and return the BENCH_core.json payload.

    Every (strategy × dataset) cell is timed on both backends so the
    payload carries its own engine-vs-scalar speedup, not just absolute
    numbers that drift with the host.
    """
    if datasets is None:
        datasets = {name: make() for name, make in _default_datasets(quick).items()}
    if strategies is None:
        strategies = [IncEstHeu(), IncEstPS()]
    records: list[BenchRecord] = []
    for dataset_name, dataset in datasets.items():
        for strategy in strategies:
            for engine in (True, False):
                records.append(
                    measure_incestimate(
                        dataset, dataset_name, strategy, engine, repeats=repeats
                    )
                )
    summary = []
    by_key = {(r.method, r.dataset, r.backend): r for r in records}
    for (method, dataset_name, backend), record in by_key.items():
        if backend != "engine":
            continue
        scalar = by_key.get((method, dataset_name, "scalar"))
        if scalar is None or record.seconds == 0:
            continue
        summary.append(
            {
                "method": method,
                "dataset": dataset_name,
                "engine_seconds": record.seconds,
                "scalar_seconds": scalar.seconds,
                "speedup": round(scalar.seconds / record.seconds, 2),
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "records": [r.to_json() for r in records],
        "summary": summary,
    }


def validate_payload(payload: dict) -> None:
    """Raise ``ValueError`` if the payload violates the record schema."""
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unexpected schema_version: {payload.get('schema_version')}")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError("records must be a non-empty list")
    required = {
        "method": str,
        "dataset": str,
        "backend": str,
        "facts": int,
        "groups": int,
        "sources": int,
        "rounds": int,
        "repeats": int,
        "phases": dict,
        "seconds": float,
        "peak_rss_kb": int,
    }
    for i, record in enumerate(records):
        for key, kind in required.items():
            if not isinstance(record.get(key), kind):
                raise ValueError(f"records[{i}].{key} is not a {kind.__name__}")
        if record["backend"] not in ("engine", "scalar"):
            raise ValueError(f"records[{i}].backend is {record['backend']!r}")
        if set(record["phases"]) != {"setup", "steps", "finalize"}:
            raise ValueError(f"records[{i}].phases has keys {set(record['phases'])}")
        if record["seconds"] < 0:
            raise ValueError(f"records[{i}].seconds is negative")


def write_bench(
    path: str | pathlib.Path = DEFAULT_OUTPUT,
    repeats: int = 5,
    quick: bool = False,
) -> dict:
    """Run the default bench matrix and write ``path``; returns the payload."""
    payload = run_core_bench(repeats=repeats, quick=quick)
    validate_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# Streaming-core benchmark (BENCH_stream.json)
# ---------------------------------------------------------------------------
#: The refresh modes the stream bench compares: ``stream`` is the
#: service's refresh (O(sources) state, append-only trajectory writes),
#: ``replay`` the same refresh followed by a cold replay of the whole log
#: (:meth:`~repro.serve.CorroborationService.verify`) on every batch.
STREAM_BENCH_MODES = ("replay", "stream")


def measure_stream_mode(
    dataset: Dataset,
    dataset_name: str,
    mode: str,
    batches: int,
    batch_facts: int,
    repeats: int = 3,
) -> dict:
    """Time one refresh mode applying ``batches`` delta vote batches.

    The dataset's fact list is split into a base (bulk-ingested, labelled
    by the untimed bootstrap epoch) and ``batches`` tail chunks of
    ``batch_facts`` facts; the timed loop applies each chunk's votes
    through :meth:`~repro.serve.CorroborationService.apply_votes` — ingest
    plus refresh, exactly the serving hot path.  The ``replay`` mode also
    runs :meth:`~repro.serve.CorroborationService.verify` after each
    batch, the cold replay of the whole log.  Best-of-``repeats`` totals,
    each repeat on a fresh store, so the modes are directly comparable.
    Each record also carries ``state_bytes``, the size of the
    continuation state the mode leaves behind.
    """
    import tempfile
    import time

    from repro.serve import CorroborationService
    from repro.store import VoteLedger

    if mode not in STREAM_BENCH_MODES:
        raise ValueError(f"unknown stream bench mode {mode!r}")
    matrix = dataset.matrix
    tail = batches * batch_facts
    if tail >= matrix.num_facts:
        raise ValueError(
            f"{batches} x {batch_facts} delta facts >= dataset size "
            f"{matrix.num_facts}"
        )
    facts = matrix.facts
    base_facts, delta_facts = facts[:-tail], facts[-tail:]
    chunks = [
        delta_facts[i * batch_facts : (i + 1) * batch_facts]
        for i in range(batches)
    ]

    def rows_for(fact_list: list[str]) -> list[tuple[str, str, str]]:
        return [
            (fact, source, vote.value)
            for fact in fact_list
            for source, vote in sorted(matrix.votes_on(fact).items())
        ]

    base_rows = rows_for(base_facts)
    chunk_rows = [rows_for(chunk) for chunk in chunks]
    votes_applied = sum(len(rows) for rows in chunk_rows)
    best: tuple[float, list[str], int] | None = None
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory() as tmp:
            with VoteLedger(pathlib.Path(tmp) / "bench.db") as ledger:
                ledger.ingest_votes(base_rows)
                service = CorroborationService(ledger)
                service.refresh()  # untimed bootstrap epoch 0
                actions: list[str] = []
                started = time.perf_counter()
                for rows in chunk_rows:
                    _, decision = service.apply_votes(rows)
                    actions.append(decision.action)
                    if mode == "replay":
                        service.verify()
                seconds = time.perf_counter() - started
                state = ledger.load_session_state()
                state_bytes = (
                    0
                    if state is None
                    else len(json.dumps(state[1], separators=(",", ":")))
                )
        if best is None or seconds < best[0]:
            best = (seconds, actions, state_bytes)
    assert best is not None
    seconds, actions, state_bytes = best
    return {
        "mode": mode,
        "dataset": dataset_name,
        "facts": matrix.num_facts,
        "base_facts": len(base_facts),
        "batches": batches,
        "batch_facts": batch_facts,
        "votes_applied": votes_applied,
        "repeats": repeats,
        "seconds": round(seconds, 6),
        "votes_per_second": round(votes_applied / seconds, 1)
        if seconds > 0
        else 0.0,
        "state_bytes": state_bytes,
        "actions": {action: actions.count(action) for action in set(actions)},
    }


def run_stream_bench(repeats: int = 3, quick: bool = False) -> dict:
    """Benchmark the stream core's refresh against cold replay.

    ``summary.stream_speedup`` is the headline number: how much faster
    the streaming core handles a stream of small dirty batches than the
    ``replay`` mode, which adds a cold replay of the whole log per batch
    (committed acceptance floor 4.5x, quick CI floor 3x).
    """
    from repro.datasets import generate_restaurants

    if quick:
        dataset = generate_restaurants(
            num_facts=250,
            golden_true=6,
            golden_false=4,
            golden_false_with_f_votes=2,
            seed=11,
        ).dataset
        name, batches, batch_facts = "restaurants-250", 3, 12
    else:
        dataset = generate_restaurants(num_facts=8_000, seed=11).dataset
        name, batches, batch_facts = "restaurants-8000", 8, 40
    records = [
        measure_stream_mode(
            dataset, name, mode, batches, batch_facts, repeats=repeats
        )
        for mode in STREAM_BENCH_MODES
    ]
    by_mode = {record["mode"]: record for record in records}
    stream_seconds = by_mode["stream"]["seconds"]
    summary = {
        "stream_speedup": round(
            by_mode["replay"]["seconds"] / stream_seconds, 2
        )
        if stream_seconds > 0
        else None,
    }
    return {
        "schema_version": STREAM_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "records": records,
        "summary": summary,
    }


def validate_stream_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid stream bench."""
    if payload.get("schema_version") != STREAM_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected schema_version: {payload.get('schema_version')}"
        )
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError("records must be a non-empty list")
    required = {
        "mode": str,
        "dataset": str,
        "facts": int,
        "base_facts": int,
        "batches": int,
        "batch_facts": int,
        "votes_applied": int,
        "repeats": int,
        "seconds": float,
        "votes_per_second": float,
        "state_bytes": int,
        "actions": dict,
    }
    modes = set()
    for i, record in enumerate(records):
        for key, kind in required.items():
            if not isinstance(record.get(key), kind):
                raise ValueError(f"records[{i}].{key} is not a {kind.__name__}")
        if record["mode"] not in STREAM_BENCH_MODES:
            raise ValueError(f"records[{i}].mode is {record['mode']!r}")
        if record["seconds"] < 0:
            raise ValueError(f"records[{i}].seconds is negative")
        modes.add(record["mode"])
    if modes != set(STREAM_BENCH_MODES):
        raise ValueError(
            f"expected modes {sorted(STREAM_BENCH_MODES)}, got {sorted(modes)}"
        )
    summary = payload.get("summary")
    if not isinstance(summary, dict) or "stream_speedup" not in summary:
        raise ValueError("summary.stream_speedup is missing")


def write_stream_bench(
    path: str | pathlib.Path = DEFAULT_STREAM_OUTPUT,
    repeats: int = 3,
    quick: bool = False,
) -> dict:
    """Run the stream bench and write ``path``; returns the payload."""
    payload = run_stream_bench(repeats=repeats, quick=quick)
    validate_stream_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# Sparse scale-tier benchmark (BENCH_scale.json)
# ---------------------------------------------------------------------------
def run_scale_bench(quick: bool = False) -> dict:
    """Run the sparse million-fact tier; the BENCH_scale.json payload.

    One end-to-end ``IncEstimate[IncEstHeu]`` engine run over the
    template-based sparse instance
    (:func:`~repro.datasets.synthetic.generate_sparse_synthetic`) — a
    million facts over ten thousand sources in full mode, a downsized but
    still wide-matrix instance (past the signature-code source limit) with
    ``quick``.  Phases cover the whole pipeline: ``generate`` (dataset
    synthesis), ``group`` (sparse grouping), ``setup`` (session build,
    including the ΔH pair graph), ``steps`` and ``finalize``.  A single
    timed run: at this scale, repeat-and-take-best would triple a CI job
    for a number whose guard (the memory ceiling) does not jitter.
    """
    import time

    from repro.core.arrays import GroupIndex
    from repro.datasets import generate_sparse_synthetic

    tier = "quick" if quick else "full"
    if quick:
        params = dict(
            num_facts=50_000,
            num_sources=2_000,
            num_templates=300,
            num_hubs=60,
            seed=17,
        )
    else:
        params = dict(
            num_facts=1_000_000,
            num_sources=10_000,
            num_templates=2_400,
            num_hubs=150,
            seed=17,
        )
    phases: dict[str, float] = {}
    started = time.perf_counter()
    world = generate_sparse_synthetic(**params)
    phases["generate"] = time.perf_counter() - started
    matrix = world.dataset.matrix

    started = time.perf_counter()
    index = GroupIndex.for_matrix(matrix)
    phases["group"] = time.perf_counter() - started

    estimator = IncEstimate(strategy=IncEstHeu(), engine=True)
    started = time.perf_counter()
    session = CorroborationSession(
        world.dataset,
        estimator.strategy,
        estimator.default_trust,
        estimator.default_fact_probability,
        estimator.trust_prior_strength,
        estimator.name,
        engine=True,
    )
    phases["setup"] = time.perf_counter() - started
    started = time.perf_counter()
    while not session.done:
        session.step()
    phases["steps"] = time.perf_counter() - started
    started = time.perf_counter()
    result = session.finalize()
    phases["finalize"] = time.perf_counter() - started

    record = {
        "method": estimator.name,
        "dataset": world.dataset.name,
        "backend": "engine",
        "facts": matrix.num_facts,
        "sources": matrix.num_sources,
        "groups": index.num_groups,
        "votes": world.votes,
        "rounds": len(result.rounds),
        "phases": {k: round(v, 6) for k, v in phases.items()},
        "seconds": round(sum(phases.values()), 6),
        "peak_rss_kb": _peak_rss_kb(),
    }
    return {
        "schema_version": SCALE_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "tier": tier,
        "memory_guard_kb": SCALE_MEMORY_GUARD_KB,
        "records": [record],
    }


def validate_scale_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid scale bench.

    Shape, the per-tier instance-size floors and the memory guard: a
    committed BENCH_scale.json must describe a genuinely web-scale run
    that stayed within the sparse-tier memory ceiling.
    """
    if payload.get("schema_version") != SCALE_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected schema_version: {payload.get('schema_version')}"
        )
    tier = payload.get("tier")
    if tier not in SCALE_FLOORS:
        raise ValueError(f"tier must be one of {sorted(SCALE_FLOORS)}, got {tier!r}")
    guard = payload.get("memory_guard_kb")
    if not isinstance(guard, int) or guard < 1:
        raise ValueError("memory_guard_kb must be a positive integer")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError("records must be a non-empty list")
    required = {
        "method": str,
        "dataset": str,
        "backend": str,
        "facts": int,
        "sources": int,
        "groups": int,
        "votes": int,
        "rounds": int,
        "phases": dict,
        "seconds": float,
        "peak_rss_kb": int,
    }
    floors = SCALE_FLOORS[tier]
    phase_keys = {"generate", "group", "setup", "steps", "finalize"}
    for i, record in enumerate(records):
        for key, kind in required.items():
            if not isinstance(record.get(key), kind):
                raise ValueError(f"records[{i}].{key} is not a {kind.__name__}")
        if set(record["phases"]) != phase_keys:
            raise ValueError(f"records[{i}].phases has keys {set(record['phases'])}")
        if record["seconds"] < 0:
            raise ValueError(f"records[{i}].seconds is negative")
        if record["facts"] < floors["facts"]:
            raise ValueError(
                f"records[{i}].facts={record['facts']} is below the "
                f"{tier}-tier floor {floors['facts']}"
            )
        if record["sources"] < floors["sources"]:
            raise ValueError(
                f"records[{i}].sources={record['sources']} is below the "
                f"{tier}-tier floor {floors['sources']}"
            )
        if record["groups"] < 1:
            raise ValueError(f"records[{i}].groups must be positive")
        if record["peak_rss_kb"] > guard:
            raise ValueError(
                f"records[{i}].peak_rss_kb={record['peak_rss_kb']} exceeds "
                f"the memory guard {guard} KiB"
            )


def write_scale_bench(
    path: str | pathlib.Path = DEFAULT_SCALE_OUTPUT,
    quick: bool = False,
) -> dict:
    """Run the scale bench and write ``path``; returns the payload."""
    payload = run_scale_bench(quick=quick)
    validate_scale_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# Serving load benchmark (BENCH_load.json)
# ---------------------------------------------------------------------------
def run_load_bench(
    quick: bool = False,
    artifacts_dir: str | pathlib.Path | None = None,
) -> dict:
    """Run the load generator against a live server; the BENCH_load payload.

    Delegates the traffic to :func:`repro.eval.loadgen.run_load` (which
    raises if the server's own ``/metrics`` / ``/statusz`` telemetry
    disagrees with the driven load) and wraps the results with the
    schema/platform header.  ``artifacts_dir`` keeps the run's access
    log, run ledger and span trace for inspection.
    """
    from repro.eval.loadgen import FULL_CONFIG, QUICK_CONFIG, run_load

    tier = "quick" if quick else "full"
    config = QUICK_CONFIG if quick else FULL_CONFIG
    results = run_load(config, artifacts_dir=artifacts_dir)
    return {
        "schema_version": LOAD_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "tier": tier,
        "floors": LOAD_FLOORS[tier],
        **results,
    }


def validate_load_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid load bench.

    Shape plus the per-tier floors: a committed BENCH_load.json must
    describe a run that sustained the minimum ingest throughput, kept the
    query p99 under the ceiling, finished with nothing pending and
    answered every query without client-side errors.
    """
    if payload.get("schema_version") != LOAD_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected schema_version: {payload.get('schema_version')}"
        )
    tier = payload.get("tier")
    if tier not in LOAD_FLOORS:
        raise ValueError(f"tier must be one of {sorted(LOAD_FLOORS)}, got {tier!r}")
    for section in ("config", "ingest", "query", "server"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"{section} section is missing")
    ingest, query, server = payload["ingest"], payload["query"], payload["server"]
    for section_name, section, keys in (
        ("ingest", ingest, ("batches", "votes", "seconds", "votes_per_second", "p50_ms", "p99_ms")),
        ("query", query, ("ops", "errors", "statuses", "p50_ms", "p99_ms")),
        ("server", server, ("requests", "slow_requests", "request_p50_ms", "request_p99_ms", "facts", "votes", "refresh_age_seconds")),
    ):
        for key in keys:
            if key not in section:
                raise ValueError(f"{section_name}.{key} is missing")
    floors = LOAD_FLOORS[tier]
    if ingest["votes_per_second"] < floors["votes_per_second"]:
        raise ValueError(
            f"ingest.votes_per_second={ingest['votes_per_second']} is below "
            f"the {tier}-tier floor {floors['votes_per_second']}"
        )
    if query["p99_ms"] > floors["query_p99_ms"]:
        raise ValueError(
            f"query.p99_ms={query['p99_ms']} exceeds the {tier}-tier "
            f"ceiling {floors['query_p99_ms']}"
        )
    if query["errors"] != 0:
        raise ValueError(f"query.errors={query['errors']} (expected 0)")
    if query["ops"] < 1:
        raise ValueError("query.ops must be positive")
    if server["votes"] != ingest["votes"]:
        raise ValueError(
            f"server.votes={server['votes']} != ingest.votes={ingest['votes']}"
        )
    if server["requests"] < ingest["batches"] + query["ops"]:
        raise ValueError(
            "server.requests is below the client-side request total"
        )


def write_load_bench(
    path: str | pathlib.Path = DEFAULT_LOAD_OUTPUT,
    quick: bool = False,
    artifacts_dir: str | pathlib.Path | None = None,
) -> dict:
    """Run the load bench and write ``path``; returns the payload."""
    payload = run_load_bench(quick=quick, artifacts_dir=artifacts_dir)
    validate_load_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# Fault-tolerance chaos benchmark (BENCH_robustness.json)
# ---------------------------------------------------------------------------
def run_robustness_bench(
    quick: bool = False,
    artifacts_dir: str | pathlib.Path | None = None,
) -> dict:
    """Run both chaos drills; the BENCH_robustness.json payload.

    Delegates to :func:`repro.eval.loadgen.run_chaos` (which raises if
    either drill violates a fault-tolerance invariant — a lost
    acknowledged vote, label drift after the crash, a breaker that never
    tripped or never recovered, an unclean exit) and wraps the results
    with the schema/platform header.  ``artifacts_dir`` keeps each
    drill's server run ledger for inspection.
    """
    from repro.eval.loadgen import CHAOS_FULL, CHAOS_QUICK, run_chaos

    tier = "quick" if quick else "full"
    config = CHAOS_QUICK if quick else CHAOS_FULL
    results = run_chaos(config, artifacts_dir=artifacts_dir)
    return {
        "schema_version": ROBUSTNESS_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "tier": tier,
        "floors": ROBUSTNESS_FLOORS[tier],
        **results,
    }


def validate_robustness_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid chaos bench.

    Shape plus the invariants a committed BENCH_robustness.json exists
    to prove: the crash drill lost nothing and converged bit-identically,
    the degraded drill tripped and recovered the breaker under real 429
    backpressure, reads stayed available, and both servers drained clean.
    """
    if payload.get("schema_version") != ROBUSTNESS_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected schema_version: {payload.get('schema_version')}"
        )
    tier = payload.get("tier")
    if tier not in ROBUSTNESS_FLOORS:
        raise ValueError(
            f"tier must be one of {sorted(ROBUSTNESS_FLOORS)}, got {tier!r}"
        )
    for section in ("config", "crash", "degraded"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"{section} section is missing")
    crash, degraded = payload["crash"], payload["degraded"]
    for section_name, section, keys in (
        (
            "crash",
            crash,
            (
                "restarts",
                "recovery_seconds",
                "acked_votes",
                "stored_votes",
                "lost_votes",
                "votes_match_control",
                "labels_identical",
                "pending_after",
                "clean_exit",
            ),
        ),
        (
            "degraded",
            degraded,
            (
                "refresh_actions",
                "rejected_429",
                "breaker_trips",
                "breaker_recoveries",
                "final_state",
                "states_seen",
                "reads",
                "read_failures",
                "read_availability",
                "clean_exit",
            ),
        ),
    ):
        for key in keys:
            if key not in section:
                raise ValueError(f"{section_name}.{key} is missing")
    floors = ROBUSTNESS_FLOORS[tier]
    if crash["lost_votes"] != 0:
        raise ValueError(
            f"crash.lost_votes={crash['lost_votes']} (acknowledged votes "
            "must never be lost)"
        )
    if not crash["votes_match_control"]:
        raise ValueError("crash.votes_match_control is false")
    if not crash["labels_identical"]:
        raise ValueError(
            "crash.labels_identical is false: the restarted store drifted "
            "from the uninterrupted control run"
        )
    if crash["restarts"] < 1:
        raise ValueError("crash.restarts must be at least 1")
    if crash["pending_after"] != 0:
        raise ValueError(
            f"crash.pending_after={crash['pending_after']} (expected 0)"
        )
    if crash["recovery_seconds"] > floors["max_recovery_seconds"]:
        raise ValueError(
            f"crash.recovery_seconds={crash['recovery_seconds']} exceeds "
            f"the {tier}-tier ceiling {floors['max_recovery_seconds']}"
        )
    if not crash["clean_exit"]:
        raise ValueError("crash.clean_exit is false")
    if degraded["breaker_trips"] < 1:
        raise ValueError("degraded.breaker_trips must be at least 1")
    if degraded["breaker_recoveries"] < 1:
        raise ValueError("degraded.breaker_recoveries must be at least 1")
    if degraded["rejected_429"] < 1:
        raise ValueError(
            "degraded.rejected_429 must be at least 1 (admission control "
            "never fired)"
        )
    if "degraded" not in degraded["states_seen"]:
        raise ValueError(
            f"degraded.states_seen={degraded['states_seen']} never "
            "included 'degraded'"
        )
    if degraded["final_state"] != "healthy":
        raise ValueError(
            f"degraded.final_state={degraded['final_state']!r} "
            "(expected 'healthy')"
        )
    if degraded["read_availability"] < floors["min_read_availability"]:
        raise ValueError(
            f"degraded.read_availability={degraded['read_availability']} is "
            f"below the {tier}-tier floor {floors['min_read_availability']}"
        )
    if not degraded["clean_exit"]:
        raise ValueError("degraded.clean_exit is false")


def write_robustness_bench(
    path: str | pathlib.Path = DEFAULT_ROBUSTNESS_OUTPUT,
    quick: bool = False,
    artifacts_dir: str | pathlib.Path | None = None,
) -> dict:
    """Run the chaos bench and write ``path``; returns the payload."""
    payload = run_robustness_bench(quick=quick, artifacts_dir=artifacts_dir)
    validate_robustness_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# Adversarial scenario benchmark (BENCH_scenarios.json)
# ---------------------------------------------------------------------------
def run_scenarios_bench(
    quick: bool = False,
    seed: int = SCENARIOS_SEED,
    workers: int | None = None,
) -> dict:
    """Run the scenario suite; the BENCH_scenarios.json payload.

    One row per (scenario, world, method): the standard line-up — the
    vanilla incremental method, fixpoint baselines and the
    dependence-aware variant — over each adversarial world *and* its
    paired independent control (see :mod:`repro.scenarios`).  The
    ``copying`` section carries the headline acceptance numbers: how much
    accuracy the copying attack costs IncEstimate[IncEstHeu] and what
    fraction of that gap the dependence-aware variant recovers.
    """
    from repro.scenarios import (
        copying_recovery,
        generate_scenario,
        run_scenario,
        scenario_rows,
        scenario_suite,
    )

    tier = "quick" if quick else "full"
    rows: list[dict] = []
    recoveries: list[dict] = []
    specs: list[dict] = []
    for spec in scenario_suite(quick=quick, seed=seed):
        result = run_scenario(generate_scenario(spec), workers=workers)
        specs.append(spec.to_json())
        rows.extend(scenario_rows(result))
        if spec.kind == "copying":
            recoveries.append(copying_recovery(result))
    return {
        "schema_version": SCENARIOS_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "tier": tier,
        "seed": seed,
        "floors": SCENARIO_FLOORS[tier],
        "specs": specs,
        "rows": rows,
        "copying": recoveries,
    }


def validate_scenarios_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid scenario bench.

    Shape plus the acceptance floors a committed BENCH_scenarios.json
    exists to prove: every suite kind ran, every successful row carries
    sane metrics, the copying attack measurably degraded the vanilla
    incremental method, and the dependence-aware variant recovered at
    least the floored fraction of the gap.
    """
    from repro.scenarios import SCENARIO_KINDS, ScenarioSpec

    if payload.get("schema_version") != SCENARIOS_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected schema_version: {payload.get('schema_version')}"
        )
    tier = payload.get("tier")
    if tier not in SCENARIO_FLOORS:
        raise ValueError(
            f"tier must be one of {sorted(SCENARIO_FLOORS)}, got {tier!r}"
        )
    specs = payload.get("specs")
    if not isinstance(specs, list) or not specs:
        raise ValueError("specs must be a non-empty list")
    kinds = set()
    for i, spec_payload in enumerate(specs):
        try:
            spec = ScenarioSpec.from_json(spec_payload)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"specs[{i}] does not round-trip: {exc}") from exc
        kinds.add(spec.kind)
    if kinds != set(SCENARIO_KINDS):
        raise ValueError(
            f"suite must cover every kind {sorted(SCENARIO_KINDS)}, "
            f"got {sorted(kinds)}"
        )
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError("rows must be a non-empty list")
    methods = set()
    for i, row in enumerate(rows):
        for key, kind in (
            ("scenario", str),
            ("kind", str),
            ("world", str),
            ("method", str),
            ("facts", int),
            ("sources", int),
            ("votes", int),
        ):
            if not isinstance(row.get(key), kind):
                raise ValueError(f"rows[{i}].{key} is not a {kind.__name__}")
        if row["world"] not in ("control", "adversarial"):
            raise ValueError(f"rows[{i}].world is {row['world']!r}")
        if not isinstance(row.get("seconds"), (int, float)) or row["seconds"] < 0:
            raise ValueError(f"rows[{i}].seconds is invalid")
        methods.add(row["method"])
        if "error" in row:
            continue
        for key in ("precision", "recall", "accuracy", "f1"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ValueError(f"rows[{i}].{key}={value!r} is not in [0, 1]")
    from repro.scenarios import BASE_METHOD

    if BASE_METHOD not in methods:
        raise ValueError(f"rows never ran the base method {BASE_METHOD}")
    if not any(m.startswith("DepAware[") for m in methods):
        raise ValueError("rows never ran the dependence-aware variant")
    floors = SCENARIO_FLOORS[tier]
    recoveries = payload.get("copying")
    if not isinstance(recoveries, list) or not recoveries:
        raise ValueError("copying must be a non-empty list")
    for i, recovery in enumerate(recoveries):
        gap = recovery.get("gap")
        fraction = recovery.get("recovered_fraction")
        if not isinstance(gap, (int, float)):
            raise ValueError(f"copying[{i}].gap is missing")
        if gap < floors["min_copying_gap"]:
            raise ValueError(
                f"copying[{i}].gap={gap} is below the {tier}-tier floor "
                f"{floors['min_copying_gap']} — the attack no longer "
                "degrades the vanilla method measurably"
            )
        if not isinstance(fraction, (int, float)):
            raise ValueError(f"copying[{i}].recovered_fraction is missing")
        if fraction < floors["min_recovered_fraction"]:
            raise ValueError(
                f"copying[{i}].recovered_fraction={fraction} is below the "
                f"{tier}-tier floor {floors['min_recovered_fraction']}"
            )


def write_scenarios_bench(
    path: str | pathlib.Path = DEFAULT_SCENARIOS_OUTPUT,
    quick: bool = False,
    seed: int = SCENARIOS_SEED,
) -> dict:
    """Run the scenario bench and write ``path``; returns the payload."""
    payload = run_scenarios_bench(quick=quick, seed=seed)
    validate_scenarios_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# ---------------------------------------------------------------------------
# Parallel-scaling benchmark (BENCH_parallel.json)
# ---------------------------------------------------------------------------
def measure_sweep_workers(
    workers: int | None,
    num_facts: int,
    source_counts: list[int],
    repeats: int,
    sweep_repeats: int,
) -> dict:
    """Time the Figure 3(a) synthetic sweep at one worker count.

    ``workers=None`` is the historical serial loop (the baseline);
    explicit counts go through the :class:`~repro.parallel.ShardRunner`
    ``spawn`` pool.  Returns the timing record plus the sweep rows so the
    caller can assert worker-count invariance of the results themselves.
    """
    import time

    from repro.experiments.synthetic_exp import figure3a

    best: tuple[float, list[dict]] | None = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        rows = figure3a(
            num_facts=num_facts,
            source_counts=source_counts,
            repeats=sweep_repeats,
            bayes_burn_in=5,
            bayes_samples=10,
            workers=workers,
        )
        seconds = time.perf_counter() - started
        if best is None or seconds < best[0]:
            best = (seconds, rows)
    assert best is not None
    seconds, rows = best
    return {
        "mode": "serial" if workers is None else "sharded",
        "workers": 0 if workers is None else workers,
        "cells": len(source_counts) * sweep_repeats,
        "num_facts": num_facts,
        "sweep_repeats": sweep_repeats,
        "repeats": repeats,
        "seconds": round(seconds, 6),
        "_rows": rows,  # stripped before serialisation
    }


def run_parallel_bench(
    worker_counts: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    quick: bool = False,
) -> dict:
    """Serial vs N-worker synthetic sweep; the BENCH_parallel.json payload.

    The payload records the host's ``cpu_count`` because the speedups are
    only meaningful relative to it: on a 1-core container the pooled runs
    *cannot* beat serial (they pay spawn overhead for no extra hardware),
    so consumers — ``benchmarks/test_bench_parallel.py`` and the CI gate —
    assert the ≥2x@4-workers floor only when ``cpu_count >= 4``.
    ``summary.identical_rows`` asserts the worker-count-invariance
    contract on every host: all runs, serial included, must produce
    exactly equal sweep rows.
    """
    import os

    if quick:
        num_facts, source_counts, sweep_repeats = 300, [4, 6], 2
    else:
        # Paper-scale cells (20k facts, Sec 6.3.1): each cell runs about a
        # second, so the pool's spawn overhead amortises and the measured
        # scaling reflects the work, not interpreter start-up.
        num_facts, source_counts, sweep_repeats = 20_000, [4, 6, 8, 10], 2
    records = [
        measure_sweep_workers(
            None, num_facts, source_counts, repeats, sweep_repeats
        )
    ]
    for workers in worker_counts:
        records.append(
            measure_sweep_workers(
                workers, num_facts, source_counts, repeats, sweep_repeats
            )
        )
    serial = records[0]
    identical = all(r["_rows"] == serial["_rows"] for r in records)
    summary: dict = {
        "identical_rows": identical,
        "serial_seconds": serial["seconds"],
        "speedups": {
            str(r["workers"]): round(serial["seconds"] / r["seconds"], 2)
            if r["seconds"] > 0
            else None
            for r in records[1:]
        },
    }
    for record in records:
        record.pop("_rows")
    return {
        "schema_version": PARALLEL_SCHEMA_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "records": records,
        "summary": summary,
    }


def validate_parallel_payload(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid parallel bench.

    Shape and invariance only: the speedup *floor* is asserted by the
    consumers (benchmark test / CI), gated on the recorded ``cpu_count``,
    because a valid file produced on a small host legitimately shows < 1x.
    """
    if payload.get("schema_version") != PARALLEL_SCHEMA_VERSION:
        raise ValueError(
            f"unexpected schema_version: {payload.get('schema_version')}"
        )
    if not isinstance(payload.get("cpu_count"), int) or payload["cpu_count"] < 1:
        raise ValueError("cpu_count must be a positive integer")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError("records must be a non-empty list")
    required = {
        "mode": str,
        "workers": int,
        "cells": int,
        "num_facts": int,
        "sweep_repeats": int,
        "repeats": int,
        "seconds": float,
    }
    seen: set[tuple[str, int]] = set()
    for i, record in enumerate(records):
        for key, kind in required.items():
            if not isinstance(record.get(key), kind):
                raise ValueError(f"records[{i}].{key} is not a {kind.__name__}")
        if record["mode"] not in ("serial", "sharded"):
            raise ValueError(f"records[{i}].mode is {record['mode']!r}")
        if record["seconds"] < 0:
            raise ValueError(f"records[{i}].seconds is negative")
        seen.add((record["mode"], record["workers"]))
    if ("serial", 0) not in seen:
        raise ValueError("missing the serial baseline record")
    for workers in (2, 4):
        if ("sharded", workers) not in seen:
            raise ValueError(f"missing the {workers}-worker record")
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        raise ValueError("summary is missing")
    if summary.get("identical_rows") is not True:
        raise ValueError(
            "summary.identical_rows is not true — worker-count invariance "
            "broke"
        )
    if not isinstance(summary.get("speedups"), dict):
        raise ValueError("summary.speedups is missing")


def write_parallel_bench(
    path: str | pathlib.Path = DEFAULT_PARALLEL_OUTPUT,
    repeats: int = 1,
    quick: bool = False,
) -> dict:
    """Run the parallel bench and write ``path``; returns the payload."""
    payload = run_parallel_bench(repeats=repeats, quick=quick)
    validate_parallel_payload(payload)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="bench small datasets only (CI smoke / schema validation)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "run the streaming-core benchmark (stream vs cold replay) "
            f"and write {DEFAULT_STREAM_OUTPUT} instead"
        ),
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help=(
            "run the parallel-scaling benchmark (serial vs sharded "
            f"synthetic sweep) and write {DEFAULT_PARALLEL_OUTPUT} instead"
        ),
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help=(
            "run the sparse million-fact scale tier and write "
            f"{DEFAULT_SCALE_OUTPUT} instead (--quick downsizes)"
        ),
    )
    parser.add_argument(
        "--load",
        action="store_true",
        help=(
            "run the serving load generator (mixed ingest/query traffic "
            f"against a live server) and write {DEFAULT_LOAD_OUTPUT} instead"
        ),
    )
    parser.add_argument(
        "--robustness",
        action="store_true",
        help=(
            "run the fault-tolerance chaos drills (kill -9 crash recovery "
            "+ breaker degradation against a subprocess server) and write "
            f"{DEFAULT_ROBUSTNESS_OUTPUT} instead"
        ),
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help=(
            "run the adversarial scenario suite (copying clusters, drift, "
            "multi-truth vs independent controls) and write "
            f"{DEFAULT_SCENARIOS_OUTPUT} instead (--quick downsizes)"
        ),
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help=(
            "(--load / --robustness only) keep the run's access log, run "
            "ledger(s) and trace in DIR"
        ),
    )
    args = parser.parse_args(argv)
    if args.scenarios:
        output = args.output or DEFAULT_SCENARIOS_OUTPUT
        payload = write_scenarios_bench(output, quick=args.quick)
        for recovery in payload["copying"]:
            print(
                f"copying   base {recovery['base_accuracy']:.4f} -> "
                f"attacked {recovery['attacked_accuracy']:.4f} "
                f"(gap {recovery['gap']:.4f}); dependence-aware "
                f"{recovery['dependence_accuracy']:.4f} "
                f"(recovered {recovery['recovered_fraction']:.2f} of the gap)"
            )
        adversarial = [r for r in payload["rows"] if r["world"] == "adversarial"]
        for row in adversarial:
            accuracy = row.get("accuracy")
            cell = f"{accuracy:.4f}" if accuracy is not None else row.get("error")
            print(
                f"{row['scenario']:>12s}  {row['method']:<42s} "
                f"accuracy {cell}  ({row['seconds']:.2f} s)"
            )
        print(f"wrote {output} ({len(payload['rows'])} rows)")
        return 0
    if args.robustness:
        output = args.output or DEFAULT_ROBUSTNESS_OUTPUT
        payload = write_robustness_bench(
            output, quick=args.quick, artifacts_dir=args.artifacts
        )
        crash, degraded = payload["crash"], payload["degraded"]
        print(
            f"crash     kill -9 at batch {payload['config']['kill_at_batch']}"
            f": recovered in {crash['recovery_seconds']:.2f} s, "
            f"{crash['acked_votes']} acked / {crash['stored_votes']} stored "
            f"({crash['lost_votes']} lost), "
            f"labels identical: {crash['labels_identical']}"
        )
        print(
            f"degraded  {int(degraded['breaker_trips'])} breaker trip(s), "
            f"{degraded['rejected_429']} x 429, "
            f"states {degraded['states_seen']}, "
            f"availability {degraded['read_availability']:.3f}, "
            f"final {degraded['final_state']}"
        )
        print(f"wrote {output}")
        return 0
    if args.load:
        output = args.output or DEFAULT_LOAD_OUTPUT
        payload = write_load_bench(
            output, quick=args.quick, artifacts_dir=args.artifacts
        )
        ingest, query, server = (
            payload["ingest"],
            payload["query"],
            payload["server"],
        )
        print(
            f"ingest  {ingest['votes']} votes in {ingest['seconds']:.2f} s  "
            f"({ingest['votes_per_second']:.1f} votes/s, "
            f"p99 {ingest['p99_ms']:.1f} ms/batch)"
        )
        print(
            f"query   {query['ops']} ops  "
            f"p50 {query['p50_ms']:.1f} ms  p99 {query['p99_ms']:.1f} ms  "
            f"statuses {query['statuses']}"
        )
        print(
            f"server  {int(server['requests'])} requests  "
            f"p50 {server['request_p50_ms']:.1f} ms  "
            f"p99 {server['request_p99_ms']:.1f} ms  "
            f"{int(server['slow_requests'])} slow"
        )
        print(f"wrote {output}")
        return 0
    if args.scale:
        output = args.output or DEFAULT_SCALE_OUTPUT
        payload = write_scale_bench(output, quick=args.quick)
        record = payload["records"][0]
        print(
            f"{record['method']} on {record['dataset']}: "
            f"{record['seconds']:.1f} s total "
            f"({record['facts']} facts, {record['sources']} sources, "
            f"{record['groups']} groups, {record['votes']} votes)"
        )
        for phase, seconds in record["phases"].items():
            print(f"{phase:>10s}  {seconds*1000:10.1f} ms")
        print(
            f"peak_rss {record['peak_rss_kb']} KiB "
            f"(guard {payload['memory_guard_kb']} KiB)"
        )
        print(f"wrote {output}")
        return 0
    if args.parallel:
        output = args.output or DEFAULT_PARALLEL_OUTPUT
        payload = write_parallel_bench(
            output,
            repeats=args.repeats if args.repeats is not None else 1,
            quick=args.quick,
        )
        for record in payload["records"]:
            label = (
                "serial"
                if record["mode"] == "serial"
                else f"{record['workers']} workers"
            )
            print(
                f"{label:>12s}  {record['seconds']*1000:10.1f} ms  "
                f"({record['cells']} cells)"
            )
        print(
            f"cpu_count {payload['cpu_count']}  "
            f"speedups {payload['summary']['speedups']}  "
            f"identical_rows {payload['summary']['identical_rows']}"
        )
        print(f"wrote {output} ({len(payload['records'])} records)")
        return 0
    if args.stream:
        output = args.output or DEFAULT_STREAM_OUTPUT
        payload = write_stream_bench(
            output,
            repeats=args.repeats if args.repeats is not None else 3,
            quick=args.quick,
        )
        for record in payload["records"]:
            print(
                f"{record['mode']:>12s} on {record['dataset']:<18s} "
                f"{record['seconds']*1000:8.1f} ms  "
                f"{record['votes_per_second']:10.1f} votes/s  "
                f"state {record['state_bytes']:>9d} B  "
                f"actions {record['actions']}"
            )
        summary = payload["summary"]
        print(f"stream speedup {summary['stream_speedup']}x vs cold replay")
        print(f"wrote {output} ({len(payload['records'])} records)")
        return 0
    output = args.output or DEFAULT_OUTPUT
    payload = write_bench(
        output,
        repeats=args.repeats if args.repeats is not None else 5,
        quick=args.quick,
    )
    for row in payload["summary"]:
        print(
            f"{row['method']:>24s} on {row['dataset']:<14s} "
            f"engine {row['engine_seconds']*1000:8.1f} ms  "
            f"scalar {row['scalar_seconds']*1000:8.1f} ms  "
            f"speedup {row['speedup']:.2f}x"
        )
    print(f"wrote {output} ({len(payload['records'])} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
