"""Machine-readable performance baselines: one harness, seven suites.

Each suite — ``core``, ``stream``, ``scale``, ``load``, ``robustness``,
``scenarios`` and ``parallel``, described by its ``run_<suite>``
docstring — writes one ``BENCH_<suite>.json`` at the repository root, so
performance regressions are diffable across commits instead of living in
someone's terminal scrollback.

Every file opens with the same envelope, followed by the suite's body::

    {
      "schema_version": 2,
      "suite":    "core",
      "tier":     "full" | "quick",
      "python":   "3.11.7",
      "numpy":    "2.4.6",
      "platform": "Linux-...",
      "floors":   {...},    # FLOORS[suite][tier], for the reader
      ...                   # the suite's body
    }

:func:`validate` checks the envelope, then the body against
``FLOORS[suite][tier]`` — floors come from this module, never from the
file — and :func:`write` validates every fresh run before writing it.
Run from the command line::

    PYTHONPATH=src python -m repro.eval.bench --suite stream
    PYTHONPATH=src python -m repro.eval.bench --suite load --quick --artifacts DIR

``--quick`` swaps each suite's full-tier inputs for small ones (seconds
per suite); ``--output`` overrides the ``BENCH_<suite>.json`` path.
"""

from __future__ import annotations

import argparse
import copy
import json
import pathlib
import platform
import resource
import sys
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from repro.core.arrays import GroupArrays
from repro.core.incestimate import IncEstimate
from repro.core.selection import IncEstHeu, IncEstPS, SelectionStrategy
from repro.model.dataset import Dataset
from repro.obs.trace import SpanTracer

SCHEMA_VERSION = 2

#: Acceptance floors per suite and tier, enforced by :func:`validate` on
#: committed files and fresh runs alike.  Each sits far from a healthy run
#: so only a genuine regression — or a committed file from a broken run —
#: trips it, not host jitter.
FLOORS: dict[str, dict[str, dict]] = {
    # Incremental Eq 9 scoring keeps the Hubdub-like IncEstHeu run under a
    # second (the seed's full-rescan engine took ~10 s on it).
    "core": {"full": {"max_hubdub_heu_engine_seconds": 1.0}, "quick": {}},
    # Bounded per-refresh work beats a cold replay of the whole ledger.
    "stream": {
        "full": {"min_stream_speedup": 4.5},
        "quick": {"min_stream_speedup": 3.0},
    },
    # Full holds the paper-scale claim; quick keeps the source axis past
    # 1,024 sources.  The RSS ceiling catches a dense (G x S) or per-fact
    # per-source structure long before it ooms a CI runner.
    "scale": {
        "full": {
            "min_facts": 1_000_000,
            "min_sources": 10_000,
            "max_peak_rss_kb": 6 * 1024 * 1024,
        },
        "quick": {
            "min_facts": 50_000,
            "min_sources": 2_000,
            "max_peak_rss_kb": 6 * 1024 * 1024,
        },
    },
    # Sustained ingest through POST /votes (refresh included) and the
    # client-observed query p99.
    "load": {
        "full": {"min_votes_per_second": 150.0, "max_query_p99_ms": 2500.0},
        "quick": {"min_votes_per_second": 25.0, "max_query_p99_ms": 2500.0},
    },
    # Wall-clock recovery after kill -9 and read availability while the
    # breaker is open; the binary invariants are asserted outright.
    "robustness": {
        "full": {"max_recovery_seconds": 30.0, "min_read_availability": 0.97},
        "quick": {"max_recovery_seconds": 30.0, "min_read_availability": 0.95},
    },
    # The copying attack costs vanilla IncEstimate a measurable accuracy
    # gap against its independent control, and the dependence-aware
    # variant wins back at least half of it.
    "scenarios": {
        "full": {"min_copying_gap": 0.05, "min_recovered_fraction": 0.5},
        "quick": {"min_copying_gap": 0.03, "min_recovered_fraction": 0.5},
    },
    # Speedup at N workers over the inline 1-worker run, asserted only
    # when cpu_count >= N: sharding cannot beat inline without cores to
    # shard onto.  The quick tier's 300-fact cells take ~11 ms, too little
    # for a spawn pool to win, so that tier holds only the worker-count
    # invariance.
    "parallel": {"full": {"min_speedups": {"2": 1.2, "4": 2.0}}, "quick": {}},
}

_NUMBER = (int, float)
_Dir = str | pathlib.Path | None


def _peak_rss_kb() -> int:
    """Process peak resident set size (KiB on Linux, bytes/1024 on macOS)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        rss //= 1024
    return int(rss)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _require(item: object, fields: dict, where: str) -> None:
    """Raise ``ValueError`` unless ``item`` is a dict holding every field
    of ``fields`` (name → type or tuple of types)."""
    _expect(isinstance(item, dict), f"{where} is missing or not an object")
    for key, kind in fields.items():
        if key not in item or not isinstance(item[key], kind):
            name = getattr(kind, "__name__", "number")
            raise ValueError(f"{where}.{key} is missing or not a {name}")


def _rows(payload: dict, key: str, fields: dict) -> list[dict]:
    """``payload[key]`` as a non-empty list whose items all hold ``fields``."""
    rows = payload.get(key)
    _expect(isinstance(rows, list) and bool(rows), f"{key} must be a non-empty list")
    for i, row in enumerate(rows):
        _require(row, fields, f"{key}[{i}]")
    return rows


def _at_least(value: float, floor: float, what: str) -> None:
    _expect(value >= floor, f"{what}={value} is below the floor {floor}")


def _at_most(value: float, ceiling: float, what: str) -> None:
    _expect(value <= ceiling, f"{what}={value} exceeds the ceiling {ceiling}")


# ---------------------------------------------------------------------------
# core: the incremental algorithm's session (BENCH_core.json)
# ---------------------------------------------------------------------------
def measure_incestimate(
    dataset: Dataset,
    dataset_name: str,
    strategy: SelectionStrategy,
    repeats: int = 5,
) -> dict:
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
    estimator = IncEstimate(strategy=strategy)
    best: tuple[float, dict[str, float], int] | None = None
    for _ in range(repeats):
        tracer = SpanTracer()
        with tracer.span("bench.run") as run_span:
            with tracer.span("bench.setup"):
                session = estimator.session(dataset)
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
    return {
        "method": estimator.name,
        "dataset": dataset_name,
        "backend": "engine",
        "facts": dataset.matrix.num_facts,
        "groups": arrays.num_groups,
        "sources": dataset.matrix.num_sources,
        "rounds": rounds,
        "repeats": repeats,
        "phases": {k: round(v, 6) for k, v in phases.items()},
        "seconds": round(total, 6),
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_core(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """Every (dataset × strategy) cell, best of 3 (1 quick)."""
    if quick:
        from repro.datasets import generate_synthetic
        from repro.datasets.motivating import motivating_example

        datasets = {
            "motivating": motivating_example(),
            "synthetic-1500": generate_synthetic(num_facts=1_500, seed=7).dataset,
        }
    else:
        from repro.datasets import generate_hubdub_like, generate_restaurants

        datasets = {
            "restaurants": generate_restaurants().dataset,
            "hubdub-like": generate_hubdub_like().questions.to_dataset(),
        }
    strategies = (IncEstHeu(), IncEstPS())
    records = [
        measure_incestimate(dataset, name, strategy, repeats=1 if quick else 3)
        for name, dataset in datasets.items()
        for strategy in strategies
    ]
    return {"records": records}


def check_core(payload: dict, floors: dict) -> None:
    """Record shape; with full-tier floors, Hubdub-like IncEstHeu stays
    under its ceiling."""
    records = _rows(
        payload,
        "records",
        {
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
        },
    )
    for i, record in enumerate(records):
        _expect(
            set(record["phases"]) == {"setup", "steps", "finalize"},
            f"records[{i}].phases has keys {sorted(record['phases'])}",
        )
        _expect(record["seconds"] >= 0, f"records[{i}].seconds is negative")
    if "max_hubdub_heu_engine_seconds" in floors:
        cell = ("hubdub-like", "IncEstimate[IncEstHeu]")
        hubdub = [r for r in records if (r["dataset"], r["method"]) == cell]
        _expect(bool(hubdub), "the hubdub-like IncEstHeu record is missing")
        _at_most(
            hubdub[0]["seconds"],
            floors["max_hubdub_heu_engine_seconds"],
            "hubdub-like IncEstHeu engine seconds",
        )


# ---------------------------------------------------------------------------
# stream: the stream core's refresh vs cold replay (BENCH_stream.json)
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


def run_stream(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """Both refresh modes over the same batches, best of 3 on both tiers.

    ``summary.stream_speedup`` is the headline: how much faster the
    streaming core handles a stream of small dirty batches than the
    ``replay`` mode, which adds a cold replay of the whole log per batch.
    The quick tier's runs take milliseconds, so a single repeat would put
    its floor inside the host's noise.
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
        measure_stream_mode(dataset, name, mode, batches, batch_facts)
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
    return {"records": records, "summary": summary}


def check_stream(payload: dict, floors: dict) -> None:
    """One record per refresh mode; the stream core beats cold replay by
    the tier's floor."""
    records = _rows(
        payload,
        "records",
        {
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
        },
    )
    for i, record in enumerate(records):
        _expect(record["seconds"] >= 0, f"records[{i}].seconds is negative")
    modes = sorted(record["mode"] for record in records)
    _expect(
        modes == sorted(STREAM_BENCH_MODES),
        f"expected modes {sorted(STREAM_BENCH_MODES)}, got {modes}",
    )
    _require(payload.get("summary"), {"stream_speedup": _NUMBER}, "summary")
    _at_least(
        payload["summary"]["stream_speedup"],
        floors["min_stream_speedup"],
        "summary.stream_speedup",
    )


# ---------------------------------------------------------------------------
# scale: the sparse million-fact tier (BENCH_scale.json)
# ---------------------------------------------------------------------------
def run_scale(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """One end-to-end ``IncEstimate[IncEstHeu]`` engine run, sparse world.

    The template-based sparse instance
    (:func:`~repro.datasets.synthetic.generate_sparse_synthetic`) is a
    million facts over ten thousand sources in full mode, a downsized but
    still wide-matrix instance (past 1,024 sources) with
    ``quick``.  Phases cover the whole pipeline: ``generate`` (dataset
    synthesis), ``group`` (sparse grouping), ``setup`` (session build,
    including the ΔH pair graph), ``steps`` and ``finalize``.  A single
    timed run: at this scale, repeat-and-take-best would triple a CI job
    for a number whose guard (the memory ceiling) does not jitter.
    """
    import time

    from repro.core.arrays import GroupIndex
    from repro.datasets import generate_sparse_synthetic

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

    estimator = IncEstimate(strategy=IncEstHeu())
    started = time.perf_counter()
    session = estimator.session(world.dataset)
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
    return {"records": [record]}


def check_scale(payload: dict, floors: dict) -> None:
    """A run at least the tier's size that stayed under the memory guard."""
    records = _rows(
        payload,
        "records",
        {
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
        },
    )
    phase_keys = {"generate", "group", "setup", "steps", "finalize"}
    for i, record in enumerate(records):
        _expect(
            set(record["phases"]) == phase_keys,
            f"records[{i}].phases has keys {sorted(record['phases'])}",
        )
        _expect(record["seconds"] >= 0, f"records[{i}].seconds is negative")
        _expect(record["groups"] >= 1, f"records[{i}].groups must be positive")
        _at_least(record["facts"], floors["min_facts"], f"records[{i}].facts")
        _at_least(record["sources"], floors["min_sources"], f"records[{i}].sources")
        _at_most(
            record["peak_rss_kb"],
            floors["max_peak_rss_kb"],
            f"records[{i}].peak_rss_kb",
        )


# ---------------------------------------------------------------------------
# load: the load generator against a live server (BENCH_load.json)
# ---------------------------------------------------------------------------
def run_load(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """Mixed ingest/query traffic via :func:`repro.eval.loadgen.run_load`,
    which raises if the server's own ``/metrics`` / ``/statusz``
    telemetry disagrees with the driven load.  ``artifacts_dir`` keeps the
    run's run ledger and span trace."""
    from repro.eval import loadgen

    config = loadgen.QUICK_CONFIG if quick else loadgen.FULL_CONFIG
    return loadgen.run_load(config, artifacts_dir=artifacts_dir)


def check_load(payload: dict, floors: dict) -> None:
    """The run sustained the ingest floor, kept the query p99 under the
    ceiling, answered every query and agrees with the server's totals."""
    _require(payload, {"config": dict}, "payload")
    ingest, query, server = (payload.get(k) for k in ("ingest", "query", "server"))
    _require(
        ingest,
        dict.fromkeys(
            ("batches", "votes", "seconds", "votes_per_second", "p50_ms", "p99_ms"),
            _NUMBER,
        ),
        "ingest",
    )
    _require(
        query,
        {
            "ops": int,
            "errors": int,
            "statuses": dict,
            "p50_ms": _NUMBER,
            "p99_ms": _NUMBER,
        },
        "query",
    )
    _require(
        server,
        dict.fromkeys(
            (
                "requests",
                "slow_requests",
                "request_p50_ms",
                "request_p99_ms",
                "facts",
                "votes",
                "refresh_age_seconds",
            ),
            _NUMBER,
        ),
        "server",
    )
    _at_least(
        ingest["votes_per_second"],
        floors["min_votes_per_second"],
        "ingest.votes_per_second",
    )
    _at_most(query["p99_ms"], floors["max_query_p99_ms"], "query.p99_ms")
    sent = ingest["batches"] + query["ops"]
    invariants = {
        "query.errors == 0": query["errors"] == 0,
        "query.ops >= 1": query["ops"] >= 1,
        "server.votes == ingest.votes": server["votes"] == ingest["votes"],
        "server.requests >= ingest.batches + query.ops": server["requests"] >= sent,
    }
    for invariant, holds in invariants.items():
        _expect(holds, f"{invariant} does not hold")


# ---------------------------------------------------------------------------
# robustness: the fault-tolerance chaos drills (BENCH_robustness.json)
# ---------------------------------------------------------------------------
def run_robustness(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """Both chaos drills via :func:`repro.eval.loadgen.run_chaos`, which
    raises if either violates a fault-tolerance invariant — a lost
    acknowledged vote, label drift after the crash, a breaker that never
    tripped or never recovered, an unclean exit.  ``artifacts_dir`` keeps
    each drill's server run ledger."""
    from repro.eval.loadgen import CHAOS_FULL, CHAOS_QUICK, run_chaos

    return run_chaos(CHAOS_QUICK if quick else CHAOS_FULL, artifacts_dir=artifacts_dir)


def check_robustness(payload: dict, floors: dict) -> None:
    """The crash drill lost nothing and converged bit-identically; the
    degraded drill tripped and recovered the breaker under real 429
    backpressure, reads stayed available, and both servers drained clean."""
    _require(payload, {"config": dict}, "payload")
    crash, degraded = payload.get("crash"), payload.get("degraded")
    _require(
        crash,
        {
            "restarts": int,
            "recovery_seconds": _NUMBER,
            "acked_votes": int,
            "stored_votes": int,
            "lost_votes": int,
            "votes_match_control": bool,
            "labels_identical": bool,
            "pending_after": int,
            "clean_exit": bool,
        },
        "crash",
    )
    _require(
        degraded,
        {
            "refresh_actions": dict,
            "rejected_429": int,
            "breaker_trips": _NUMBER,
            "breaker_recoveries": _NUMBER,
            "final_state": str,
            "states_seen": list,
            "reads": int,
            "read_failures": int,
            "read_availability": _NUMBER,
            "clean_exit": bool,
        },
        "degraded",
    )
    invariants = {
        "crash.lost_votes == 0": crash["lost_votes"] == 0,
        "crash.votes_match_control": crash["votes_match_control"],
        "crash.labels_identical": crash["labels_identical"],
        "crash.restarts >= 1": crash["restarts"] >= 1,
        "crash.pending_after == 0": crash["pending_after"] == 0,
        "crash.clean_exit": crash["clean_exit"],
        "degraded.breaker_trips >= 1": degraded["breaker_trips"] >= 1,
        "degraded.breaker_recoveries >= 1": degraded["breaker_recoveries"] >= 1,
        "degraded.rejected_429 >= 1": degraded["rejected_429"] >= 1,
        "'degraded' in degraded.states_seen": "degraded" in degraded["states_seen"],
        "degraded.final_state == 'healthy'": degraded["final_state"] == "healthy",
        "degraded.clean_exit": degraded["clean_exit"],
    }
    for invariant, holds in invariants.items():
        _expect(holds, f"{invariant} does not hold")
    _at_most(
        crash["recovery_seconds"],
        floors["max_recovery_seconds"],
        "crash.recovery_seconds",
    )
    _at_least(
        degraded["read_availability"],
        floors["min_read_availability"],
        "degraded.read_availability",
    )


# ---------------------------------------------------------------------------
# scenarios: adversarial worlds vs independent controls (BENCH_scenarios.json)
# ---------------------------------------------------------------------------
def run_scenarios(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """One row per (scenario, world, method) over the seed-0 suite.

    The standard line-up — the vanilla incremental method, fixpoint
    baselines and the dependence-aware variant — runs over each
    adversarial world *and* its paired independent control (see
    :mod:`repro.scenarios`).  The ``copying`` section carries the headline
    numbers: how much accuracy the copying attack costs
    IncEstimate[IncEstHeu] and what fraction of that gap the
    dependence-aware variant recovers.
    """
    from repro.scenarios import (
        copying_recovery,
        generate_scenario,
        run_scenario,
        scenario_rows,
        scenario_suite,
    )

    seed = 0  # the committed suite's root seed
    rows: list[dict] = []
    recoveries: list[dict] = []
    specs: list[dict] = []
    for spec in scenario_suite(quick=quick, seed=seed):
        result = run_scenario(generate_scenario(spec))
        specs.append(spec.to_json())
        rows.extend(scenario_rows(result))
        if spec.kind == "copying":
            recoveries.append(copying_recovery(result))
    return {"seed": seed, "specs": specs, "rows": rows, "copying": recoveries}


def check_scenarios(payload: dict, floors: dict) -> None:
    """Every suite kind ran and its spec round-trips, every successful row
    carries sane metrics, both worlds of the copying base method ran, and
    the copying gap and its recovered fraction hold the tier's floors."""
    from repro.scenarios import BASE_METHOD, SCENARIO_KINDS, ScenarioSpec

    specs = payload.get("specs")
    _expect(isinstance(specs, list) and bool(specs), "specs must be a non-empty list")
    kinds = set()
    for i, spec_payload in enumerate(specs):
        try:
            kinds.add(ScenarioSpec.from_json(spec_payload).kind)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"specs[{i}] does not round-trip: {exc}") from exc
    _expect(
        kinds == set(SCENARIO_KINDS),
        f"suite must cover every kind {sorted(SCENARIO_KINDS)}, got {sorted(kinds)}",
    )
    rows = _rows(
        payload,
        "rows",
        {
            "scenario": str,
            "kind": str,
            "world": str,
            "method": str,
            "facts": int,
            "sources": int,
            "votes": int,
            "seconds": _NUMBER,
        },
    )
    for i, row in enumerate(rows):
        _expect(
            row["world"] in ("control", "adversarial"),
            f"rows[{i}].world is {row['world']!r}",
        )
        _expect(row["seconds"] >= 0, f"rows[{i}].seconds is negative")
        if "error" in row:
            continue
        for key in ("precision", "recall", "accuracy", "f1"):
            value = row.get(key)
            _expect(
                isinstance(value, _NUMBER) and 0.0 <= value <= 1.0,
                f"rows[{i}].{key}={value!r} is not in [0, 1]",
            )
    methods = {row["method"] for row in rows}
    _expect(BASE_METHOD in methods, f"rows never ran the base method {BASE_METHOD}")
    _expect(
        any(m.startswith("DepAware[") for m in methods),
        "rows never ran the dependence-aware variant",
    )
    worlds = {
        row["world"]
        for row in rows
        if row["kind"] == "copying" and row["method"] == BASE_METHOD
    }
    _expect(
        worlds == {"control", "adversarial"},
        f"the copying base rows cover worlds {sorted(worlds)}, not both",
    )
    recoveries = _rows(
        payload, "copying", {"gap": _NUMBER, "recovered_fraction": _NUMBER}
    )
    for i, recovery in enumerate(recoveries):
        _at_least(recovery["gap"], floors["min_copying_gap"], f"copying[{i}].gap")
        _at_least(
            recovery["recovered_fraction"],
            floors["min_recovered_fraction"],
            f"copying[{i}].recovered_fraction",
        )


# ---------------------------------------------------------------------------
# parallel: the Figure 3(a) sweep at 1, 2 and 4 workers (BENCH_parallel.json)
# ---------------------------------------------------------------------------
def measure_sweep_workers(
    workers: int,
    num_facts: int,
    source_counts: list[int],
    sweep_repeats: int,
) -> dict:
    """Time the Figure 3(a) synthetic sweep at one worker count.

    ``workers=1`` runs the cells inline (the baseline); larger counts go
    through the :class:`~repro.parallel.ShardRunner` ``spawn`` pool.
    Returns the timing record plus the sweep rows so the caller can assert
    worker-count invariance of the results themselves.
    """
    import time

    from repro.experiments.synthetic_exp import figure3a

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
    return {
        "workers": workers,
        "cells": len(source_counts) * sweep_repeats,
        "num_facts": num_facts,
        "sweep_repeats": sweep_repeats,
        "seconds": round(seconds, 6),
        "_rows": rows,  # stripped before serialisation
    }


def run_parallel(quick: bool, artifacts_dir: _Dir = None) -> dict:
    """The sweep at 1, 2 and 4 workers, one timed run each.

    The body records the host's ``cpu_count`` because the speedups (over
    the inline 1-worker run) are only meaningful relative to it: on a
    1-core container the pooled runs *cannot* beat inline (they pay spawn
    overhead for no extra hardware).  ``summary.identical_rows`` is the
    worker-count-invariance contract on every host: all runs produce
    exactly equal rows.
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
        measure_sweep_workers(workers, num_facts, source_counts, sweep_repeats)
        for workers in (1, 2, 4)
    ]
    inline = records[0]
    summary = {
        "identical_rows": all(r["_rows"] == inline["_rows"] for r in records),
        "speedups": {
            str(r["workers"]): round(inline["seconds"] / r["seconds"], 2)
            if r["seconds"] > 0
            else None
            for r in records[1:]
        },
    }
    for record in records:
        record.pop("_rows")
    return {"cpu_count": os.cpu_count() or 1, "records": records, "summary": summary}


def check_parallel(payload: dict, floors: dict) -> None:
    """1-, 2- and 4-worker records with identical sweep rows; each worker
    count's speedup floor holds when ``cpu_count`` reaches it."""
    cpu_count = payload.get("cpu_count")
    _expect(
        isinstance(cpu_count, int) and cpu_count >= 1,
        "cpu_count must be a positive integer",
    )
    records = _rows(
        payload,
        "records",
        {
            "workers": int,
            "cells": int,
            "num_facts": int,
            "sweep_repeats": int,
            "seconds": float,
        },
    )
    for i, record in enumerate(records):
        _expect(record["seconds"] >= 0, f"records[{i}].seconds is negative")
    seen = {record["workers"] for record in records}
    for workers in (1, 2, 4):
        _expect(workers in seen, f"missing the {workers}-worker record")
    summary = payload.get("summary")
    _require(summary, {"identical_rows": bool, "speedups": dict}, "summary")
    _expect(
        summary["identical_rows"],
        "summary.identical_rows is false: worker-count invariance broke",
    )
    for workers, floor in floors.get("min_speedups", {}).items():
        if cpu_count >= int(workers):
            _require(summary["speedups"], {workers: _NUMBER}, "summary.speedups")
            _at_least(
                summary["speedups"][workers],
                floor,
                f"summary.speedups[{workers!r}] on {cpu_count} CPUs",
            )


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
class Suite(NamedTuple):
    """One suite: ``run(quick, artifacts_dir)`` returns the body (only load
    and robustness leave artifacts), ``check(payload, floors)`` raises
    ``ValueError`` on a bad one, and :func:`main` prints ``headline``."""

    run: Callable[..., dict]
    check: Callable[[dict, dict], None]
    headline: tuple[str, ...]


SUITES: dict[str, Suite] = {
    "core": Suite(run_core, check_core, ("records",)),
    "stream": Suite(run_stream, check_stream, ("summary",)),
    "scale": Suite(run_scale, check_scale, ("records",)),
    "load": Suite(run_load, check_load, ("ingest", "query", "server")),
    "robustness": Suite(run_robustness, check_robustness, ("crash", "degraded")),
    "scenarios": Suite(run_scenarios, check_scenarios, ("copying",)),
    "parallel": Suite(run_parallel, check_parallel, ("cpu_count", "summary")),
}


def run_suite(suite: str, quick: bool = False, artifacts_dir: _Dir = None) -> dict:
    """Run one suite; its payload, envelope first."""
    tier = "quick" if quick else "full"
    body = SUITES[suite].run(quick, artifacts_dir)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "tier": tier,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "floors": copy.deepcopy(FLOORS[suite][tier]),
        **body,
    }


def validate(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed
    ``BENCH_<suite>.json`` that holds ``FLOORS[suite][tier]``.

    The file's own ``floors`` is never read, so a file cannot weaken the
    floors it is held to.
    """
    _require(
        payload,
        {
            "schema_version": int,
            "suite": str,
            "tier": str,
            "python": str,
            "numpy": str,
            "platform": str,
            "floors": dict,
        },
        "payload",
    )
    _expect(
        payload["schema_version"] == SCHEMA_VERSION,
        f"unexpected schema_version: {payload['schema_version']}",
    )
    suite, tier = payload["suite"], payload["tier"]
    _expect(suite in SUITES, f"unknown suite {suite!r}")
    _expect(tier in ("full", "quick"), f"tier must be full or quick, got {tier!r}")
    SUITES[suite].check(payload, FLOORS[suite][tier])


def write(
    suite: str,
    path: str | pathlib.Path | None = None,
    quick: bool = False,
    artifacts_dir: _Dir = None,
) -> dict:
    """Run ``suite``, validate it and write ``path`` (default
    ``BENCH_<suite>.json``); returns the payload."""
    payload = run_suite(suite, quick=quick, artifacts_dir=artifacts_dir)
    validate(payload)
    path = pathlib.Path(path or f"BENCH_{suite}.json")
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", choices=list(SUITES), default="core", help="suite to run"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the suite's small quick tier (CI smoke, seconds)",
    )
    parser.add_argument(
        "--output", default=None, help="file to write (default BENCH_<suite>.json)"
    )
    parser.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="keep the load/robustness run's run ledgers and trace",
    )
    args = parser.parse_args(argv)
    output = args.output or f"BENCH_{args.suite}.json"
    payload = write(args.suite, output, quick=args.quick, artifacts_dir=args.artifacts)
    for key in SUITES[args.suite].headline:
        value = payload[key]
        for item in value if isinstance(value, list) else [value]:
            print(f"{key:>10s}  {json.dumps(item)}")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
