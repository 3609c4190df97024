"""Worker-count invariance: sharded sweeps must be bit-identical to inline.

The parallel engine's whole contract (``docs/parallelism.md``) is that
``workers=N`` changes wall-clock time and nothing else.  These tests pin
it property-style with seeded generators (no hypothesis): labels,
probabilities, trust trajectories, the merged run ledger (modulo the
wall-clock ``seconds`` fields) and the merged metrics are compared with
``==`` across worker counts 1/2/4 and against the default call, for the
array engine and the scalar test oracle (``tests/scalar_reference.py``)
alike — plus the seed-derivation algebra, shard error isolation, and the
no-inherited-sqlite-handle regression.

Every spawned pool costs a fresh interpreter per worker, so the pooled
tests share one small dataset and keep worker counts low where a pool is
not the point of the test.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.baselines import TwoEstimate, Voting
from repro.core import IncEstHeu, IncEstPS, IncEstimate
from repro.datasets import generate_restaurants, generate_synthetic
from repro.eval.harness import run_methods
from repro.experiments import figure3a
from repro.obs import (
    JsonlRunLog,
    MetricsRegistry,
    Obs,
    SpanTracer,
    validate_runlog_records,
)
from repro.parallel import (
    CellOutcome,
    DatasetSpec,
    ShardError,
    ShardRunner,
    derive_seed,
    resolve_workers,
    spawn_seeds,
)
from repro.resilience.errors import FaultInjected
from repro.resilience.faults import FailingCorroborator

from tests.scalar_reference import ScalarIncEstimate

WORKER_COUNTS = (1, 2, 4)


# ---------------------------------------------------------------------------
# Module-level cell functions (spawn pools pickle them by reference)
# ---------------------------------------------------------------------------
def square_cell(payload, obs):
    obs.metrics.inc("cells.run")
    obs.metrics.set_gauge("cells.last", payload)
    obs.metrics.observe("cells.value", payload)
    obs.runlog.emit("iteration", method="square", iteration=payload)
    with obs.tracer.span("square", index=payload):
        return payload * payload


def raising_cell(payload, obs):
    if payload % 2:
        raise FaultInjected(f"cell {payload} told to fail")
    return payload


def seeded_draw_cell(payload, obs):
    """Draw from the *payload* seed — schedule-independent by construction."""
    return float(np.random.default_rng(payload).random())


# ---------------------------------------------------------------------------
# Seed derivation (property-based, seeded generator)
# ---------------------------------------------------------------------------
class TestSeedDerivation:
    def _random_path(self, rng) -> tuple:
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.integers(0, 2):
                parts.append(int(rng.integers(0, 10_000)))
            else:
                length = int(rng.integers(1, 12))
                parts.append(
                    "".join(chr(int(c)) for c in rng.integers(97, 123, length))
                )
        return tuple(parts)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            root = int(rng.integers(0, 2**32))
            path = self._random_path(rng)
            assert derive_seed(root, *path) == derive_seed(root, *path)

    def test_distinct_paths_distinct_seeds(self):
        rng = np.random.default_rng(7)
        seen: dict[tuple, int] = {}
        for _ in range(300):
            path = self._random_path(rng)
            seed = derive_seed(99, *path)
            if path in seen:
                assert seen[path] == seed
            else:
                assert seed not in seen.values()
                seen[path] = seed

    def test_component_types_matter(self):
        # int 1 and str "1" are different identities, not the same cell.
        assert derive_seed(0, 1) != derive_seed(0, "1")
        # Order matters: ("a", 0) is not (0, "a").
        assert derive_seed(0, "a", 0) != derive_seed(0, 0, "a")

    def test_root_seed_matters(self):
        assert derive_seed(0, "figure3a", 4) != derive_seed(1, "figure3a", 4)

    def test_spawn_seeds_prefix_stable(self):
        # Growing the repeat count must not renumber existing cells.
        rng = np.random.default_rng(11)
        for _ in range(20):
            root = int(rng.integers(0, 2**31))
            short = spawn_seeds(root, 3, "sweep", 1)
            long = spawn_seeds(root, 7, "sweep", 1)
            assert long[:3] == short
            assert long[5] == derive_seed(root, "sweep", 1, 5)

    def test_range_and_rejections(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seed = derive_seed(int(rng.integers(0, 2**32)), *self._random_path(rng))
            assert 0 <= seed < 2**64
        with pytest.raises(TypeError):
            derive_seed(0, True)  # bool would silently alias int 1
        with pytest.raises(TypeError):
            derive_seed(0, 1.5)
        with pytest.raises(ValueError):
            derive_seed(-1, "x")
        with pytest.raises(ValueError):
            spawn_seeds(0, -1, "x")

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # the CPU count
        with pytest.raises(ValueError):
            resolve_workers(-2)
        with pytest.raises(TypeError):
            resolve_workers(None)  # not a worker count


# ---------------------------------------------------------------------------
# ShardRunner mechanics
# ---------------------------------------------------------------------------
class TestShardRunner:
    def test_outcomes_in_cell_order_any_worker_count(self):
        payloads = list(range(8))
        expected = [p * p for p in payloads]
        for workers in WORKER_COUNTS:
            outcomes = ShardRunner(workers=workers).run(square_cell, payloads)
            assert [o.value for o in outcomes] == expected
            assert [o.index for o in outcomes] == payloads

    def test_schedule_independent_seeds(self):
        # The cell's randomness comes from its payload seed, so any pool
        # schedule reproduces the serial draw exactly.
        seeds = spawn_seeds(123, 6, "draws")
        serial = [seeded_draw_cell(seed, None) for seed in seeds]
        pooled = ShardRunner(workers=3).run(seeded_draw_cell, seeds)
        assert [o.value for o in pooled] == serial

    def test_isolated_failures_become_outcomes(self):
        outcomes = ShardRunner(workers=2).run(raising_cell, [0, 1, 2, 3])
        assert [o.ok for o in outcomes] == [True, False, True, False]
        assert outcomes[1].error_type == "FaultInjected"
        assert "cell 1" in outcomes[1].error
        assert outcomes[2].value == 2

    def test_fail_fast_raises_shard_error(self):
        with pytest.raises(ShardError, match="FaultInjected"):
            ShardRunner(workers=2, isolate_errors=False).run(
                raising_cell, [0, 1]
            )

    def test_unpicklable_payload_degrades_with_hint(self):
        outcomes = ShardRunner(workers=2).run(
            square_cell, [2, lambda: None, 3]
        )
        assert outcomes[0].ok and outcomes[2].ok
        assert outcomes[1].failed
        assert "picklable" in outcomes[1].error

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ShardRunner(workers=1).run(square_cell, [1, 2], labels=["only-one"])


# ---------------------------------------------------------------------------
# Observability merge determinism
# ---------------------------------------------------------------------------
def _records_sans_seconds(buffer: io.StringIO) -> list[dict]:
    records = []
    for line in buffer.getvalue().splitlines():
        record = json.loads(line)
        record.pop("seconds", None)
        records.append(record)
    return records


class TestMergedObservability:
    def _run(self, workers: int):
        buffer = io.StringIO()
        obs = Obs(
            tracer=SpanTracer(),
            metrics=MetricsRegistry(),
            runlog=JsonlRunLog(buffer),
        )
        outcomes = ShardRunner(workers=workers, obs=obs, label="demo").run(
            square_cell, list(range(5))
        )
        return outcomes, buffer, obs

    def test_merged_ledger_identical_across_worker_counts(self):
        ledgers = {}
        for workers in WORKER_COUNTS:
            _, buffer, _ = self._run(workers)
            ledgers[workers] = _records_sans_seconds(buffer)
        assert ledgers[1] == ledgers[2] == ledgers[4]
        kinds = [r["kind"] for r in ledgers[1]]
        assert kinds[0] == "runlog_header"
        assert kinds.count("shard_start") == 5
        assert kinds[-1] == "shard_merge"
        validate_runlog_records(ledgers[1])

    def test_merge_summary_record(self):
        _, buffer, _ = self._run(2)
        merge = _records_sans_seconds(buffer)[-1]
        assert merge == {
            "kind": "shard_merge",
            "shards": 5,
            "records": 5,
            "failures": 0,
        }

    def test_counters_sum_and_traces_get_lanes(self):
        _, _, obs = self._run(3)
        assert obs.metrics.snapshot()["counters"]["cells.run"] == 5.0
        tids = {
            e["tid"]
            for e in obs.tracer.events
            if e.get("name") == "square"
        }
        assert tids == {2, 3, 4, 5, 6}  # one Chrome lane per shard

    def test_gauges_and_histograms_merge_as_one_serial_run(self):
        serial = MetricsRegistry()
        for payload in range(5):
            square_cell(payload, Obs(metrics=serial))
        for workers in (1, 3):
            _, _, obs = self._run(workers)
            # Last write wins in cell order; histograms keep every sample.
            assert obs.metrics.snapshot() == serial.snapshot()
            assert obs.metrics.histogram_buckets(
                "cells.value"
            ) == serial.histogram_buckets("cells.value")


# ---------------------------------------------------------------------------
# Harness invariance: the tentpole acceptance contract
# ---------------------------------------------------------------------------
def _methods():
    return [
        Voting(),
        TwoEstimate(),
        ScalarIncEstimate(strategy=IncEstHeu()),  # the test oracle
        IncEstimate(strategy=IncEstHeu()),
        IncEstimate(strategy=IncEstPS()),
    ]


def _observed(sweep, *args, **kwargs):
    """Run ``sweep(*args, obs=..., **kwargs)`` under a full bundle; return
    its value, its ledger without ``seconds`` and its metrics (counters,
    gauges and histogram counts)."""
    buffer = io.StringIO()
    obs = Obs(
        tracer=SpanTracer(),
        metrics=MetricsRegistry(),
        runlog=JsonlRunLog(buffer),
    )
    value = sweep(*args, obs=obs, **kwargs)
    snapshot = obs.metrics.snapshot()
    metrics = (
        snapshot["counters"],
        snapshot["gauges"],
        {name: h["count"] for name, h in snapshot["histograms"].items()},
    )
    return value, _records_sans_seconds(buffer), metrics


def _run_harness(dataset, **kwargs):
    return _observed(run_methods, _methods(), dataset, **kwargs)


def _assert_runs_identical(reference, other):
    assert [r.method for r in reference] == [r.method for r in other]
    for ref, run in zip(reference, other):
        assert ref.ok and run.ok
        assert run.result.probabilities == ref.result.probabilities
        assert run.result.labels() == ref.result.labels()
        assert run.result.trust == ref.result.trust
        assert run.result.label_overrides == ref.result.label_overrides
        if ref.result.trajectory is not None:
            assert (
                run.result.trajectory.as_rows()
                == ref.result.trajectory.as_rows()
            )


@pytest.fixture(scope="module")
def tiny_synthetic():
    return generate_synthetic(
        num_accurate=5, num_inaccurate=2, num_facts=160, seed=17
    ).dataset


@pytest.fixture(scope="module")
def tiny_restaurants():
    return generate_restaurants(num_facts=150, seed=23).dataset


class TestWorkerCountInvariance:
    def test_synthetic_bit_identical(self, tiny_synthetic):
        reference, ledger, metrics = _run_harness(tiny_synthetic)
        validate_runlog_records(ledger)
        assert metrics[1] and metrics[2]  # gauges and histograms merged
        for workers in WORKER_COUNTS:
            runs, other_ledger, other_metrics = _run_harness(
                tiny_synthetic, workers=workers
            )
            _assert_runs_identical(reference, runs)
            assert other_ledger == ledger
            assert other_metrics == metrics

    def test_restaurants_bit_identical(self, tiny_restaurants):
        reference, ledger, metrics = _run_harness(tiny_restaurants)
        for workers in (1, 4):
            runs, other_ledger, other_metrics = _run_harness(
                tiny_restaurants, workers=workers
            )
            _assert_runs_identical(reference, runs)
            assert other_ledger == ledger
            assert other_metrics == metrics

    def test_figure3a_rows_ledger_and_metrics_identical(self, monkeypatch):
        def sweep(**kwargs):
            return _observed(
                figure3a,
                num_facts=120,
                source_counts=[3, 5],
                repeats=2,
                bayes_burn_in=2,
                bayes_samples=4,
                **kwargs,
            )

        def no_pool(*args):
            raise AssertionError("the default sweep started a process pool")

        with monkeypatch.context() as patch:
            patch.setattr(ShardRunner, "_run_pooled", no_pool)
            reference = sweep()
        rows, ledger, _ = reference
        assert [row["num_sources"] for row in rows] == [3, 5]
        # Four cells, each running its methods inline through run_methods'
        # own runner, inside the sweep's runner.
        assert [r["kind"] for r in ledger].count("shard_merge") == 5
        for workers in (1, 2):
            assert sweep(workers=workers) == reference

    @pytest.mark.parametrize("workers", [1, 2])
    def test_methods_keep_their_own_obs(self, tiny_synthetic, workers):
        bundle = Obs(metrics=MetricsRegistry())
        voting = Voting()
        voting.obs = bundle
        run_methods([voting, TwoEstimate()], tiny_synthetic, workers=workers)
        assert voting.obs is bundle

    def test_sharded_failure_rows_match_serial_isolation(self, tiny_synthetic):
        methods = [Voting(), FailingCorroborator(), TwoEstimate()]
        runs = run_methods(methods, tiny_synthetic, workers=2)
        assert [r.ok for r in runs] == [True, False, True]
        assert runs[1].error_type == "FaultInjected"

    def test_sharded_fail_fast_raises(self, tiny_synthetic):
        with pytest.raises(ShardError):
            run_methods(
                [FailingCorroborator()],
                tiny_synthetic,
                isolate_errors=False,
                workers=2,
            )

    def test_method_failure_recorded_in_merged_ledger(self, tiny_synthetic):
        buffer = io.StringIO()
        obs = Obs(
            tracer=SpanTracer(),
            metrics=MetricsRegistry(),
            runlog=JsonlRunLog(buffer),
        )
        run_methods(
            [Voting(), FailingCorroborator()],
            tiny_synthetic,
            obs=obs,
            workers=2,
        )
        kinds = [r["kind"] for r in _records_sans_seconds(buffer)]
        assert "method_failure" in kinds
        assert obs.metrics.snapshot()["counters"]["harness.method_failures"] == 1.0


# ---------------------------------------------------------------------------
# Regression: spawn workers must not inherit the parent's sqlite handle
# ---------------------------------------------------------------------------
class TestLedgerBackedSweepUnderSpawn:
    def test_dataset_spec_keeps_connection_out_of_the_pool(
        self, tiny_restaurants, tmp_path
    ):
        from repro.store import VoteLedger

        path = tmp_path / "votes.db"
        ledger = VoteLedger(path)
        try:
            ledger.import_dataset(tiny_restaurants)
            spec = DatasetSpec.from_ledger(path)
            # The parent handle stays OPEN across the sharded sweep: the
            # workers must materialise their own connections from the
            # spec's path, never this one.
            runs = run_methods(
                [Voting(), IncEstimate(strategy=IncEstHeu())],
                spec,
                workers=2,
            )
            assert all(run.ok for run in runs), [
                (run.method, run.error) for run in runs
            ]
            reference = run_methods(
                [Voting(), IncEstimate(strategy=IncEstHeu())],
                ledger.export_dataset(),
            )
            _assert_runs_identical(reference, runs)
            # ... and the parent connection is still usable afterwards.
            assert ledger.summary()["facts"] >= 1
        finally:
            ledger.close()

    def test_live_ledger_in_payload_fails_with_hint(self, tmp_path):
        from repro.store import VoteLedger

        with VoteLedger(tmp_path / "votes.db") as ledger:
            outcomes = ShardRunner(workers=2).run(square_cell, [1, ledger])
            assert outcomes[1].failed
            assert "DatasetSpec" in outcomes[1].error

    def test_dataset_spec_validates_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            DatasetSpec(kind="csv", path=str(tmp_path / "x.csv"))


class TestCellOutcome:
    def test_flags(self):
        ok = CellOutcome(index=0, label="a", value=1)
        bad = CellOutcome(index=1, label="b", error="boom", error_type="X")
        assert ok.ok and not ok.failed
        assert bad.failed and not bad.ok
