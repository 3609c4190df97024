"""Observability must never change results.

Three guarantees pinned here:

* **No-op equivalence** — a fully instrumented run (tracer + metrics +
  ledger) returns bit-identical results to the default no-op bundle and
  to the uninstrumented scalar oracle (``tests/scalar_reference.py``), on
  the motivating example and the scaled restaurant world.
* **Ledger reconciliation** — the ``round`` records in the JSONL ledger
  match the returned :class:`RoundRecord` list field by field, and the
  oracle's, and the ``run_end`` totals match the result.
* **Convergence counters** — ``baseline.<name>.iterations`` equals the
  ``iterations`` each iterative baseline reports.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.baselines import ThreeEstimate, TruthFinder, TwoEstimate
from repro.core.incestimate import IncEstimate
from repro.core.selection import IncEstHeu, IncEstPS
from repro.obs import make_obs, validate_runlog_records

from tests.scalar_reference import ScalarIncEstimate


def _comparable(result):
    """Every result component that must be bit-identical, as one tuple."""
    return (
        result.probabilities,
        result.trust,
        result.label_overrides,
        result.iterations,
        result.trajectory.as_rows() if result.trajectory is not None else None,
        [
            (r.time_point, r.signature, r.probability, r.label, tuple(r.facts))
            for r in result.rounds
        ],
    )


def _run_instrumented(dataset, strategy_factory):
    obs = make_obs(trace=True, runlog=io.StringIO())
    result = IncEstimate(strategy=strategy_factory(), obs=obs).run(dataset)
    return result, obs


def _run_plain(dataset, strategy_factory, engine):
    """The uninstrumented run: the engine, or the scalar oracle."""
    method = IncEstimate if engine else ScalarIncEstimate
    return method(strategy=strategy_factory()).run(dataset)


class TestNoOpEquivalence:
    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "scalar"])
    @pytest.mark.parametrize(
        "strategy_factory", [IncEstHeu, IncEstPS], ids=["heu", "ps"]
    )
    def test_motivating(self, motivating, strategy_factory, engine):
        plain = _run_plain(motivating, strategy_factory, engine)
        instrumented, obs = _run_instrumented(motivating, strategy_factory)
        assert obs.tracer.events, "instrumented run recorded no spans"
        assert _comparable(plain) == _comparable(instrumented)

    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "scalar"])
    def test_scaled_restaurants(self, small_restaurant_world, engine):
        dataset = small_restaurant_world.dataset
        plain = _run_plain(dataset, IncEstHeu, engine)
        instrumented, _ = _run_instrumented(dataset, IncEstHeu)
        assert _comparable(plain) == _comparable(instrumented)

    def test_baselines_unchanged_by_obs(self, motivating):
        for factory in (TwoEstimate, ThreeEstimate, TruthFinder):
            plain = factory().run(motivating)
            method = factory()
            method.obs = make_obs(runlog=io.StringIO())
            instrumented = method.run(motivating)
            assert plain.probabilities == instrumented.probabilities
            assert plain.trust == instrumented.trust
            assert plain.iterations == instrumented.iterations


def _ledger_records(obs):
    handle = obs.runlog._handle
    records = [json.loads(line) for line in handle.getvalue().splitlines()]
    validate_runlog_records(records)
    return records


class TestLedgerReconciliation:
    @pytest.mark.parametrize("engine", [True, False], ids=["engine", "scalar"])
    def test_rounds_reconcile_exactly(self, motivating, engine):
        instrumented, obs = _run_instrumented(motivating, IncEstHeu)
        result = (
            instrumented if engine else _run_plain(motivating, IncEstHeu, False)
        )
        records = _ledger_records(obs)
        rounds = [r for r in records if r["kind"] == "round"]
        assert len(rounds) == len(result.rounds)
        for ledger, record in zip(rounds, result.rounds):
            assert ledger["time_point"] == record.time_point
            assert (
                tuple(tuple(pair) for pair in ledger["signature"]) == record.signature
            )
            assert ledger["probability"] == record.probability
            assert ledger["label"] == record.label
            assert ledger["num_facts"] == record.num_facts
            assert ledger["facts"] == list(record.facts)

    def test_run_end_totals_match_result(self, motivating):
        result, obs = _run_instrumented(motivating, IncEstHeu)
        records = _ledger_records(obs)
        (start,) = [r for r in records if r["kind"] == "run_start"]
        (end,) = [r for r in records if r["kind"] == "run_end"]
        assert start["method"] == end["method"] == "IncEstimate[IncEstHeu]"
        assert start["facts"] == len(result.probabilities)
        assert end["rounds"] == len(result.rounds)
        assert end["facts_evaluated"] == sum(r.num_facts for r in result.rounds)
        assert end["label_flips"] == len(result.label_overrides)
        assert end["time_points"] == len(result.trajectory.as_rows())

    def test_trust_records_match_trajectory(self, motivating):
        result, obs = _run_instrumented(motivating, IncEstHeu)
        records = _ledger_records(obs)
        trust_records = [r for r in records if r["kind"] == "trust"]
        rows = result.trajectory.as_rows()
        # One record per executed time point plus the final finalize-time
        # snapshot; each must equal the trajectory row it names.
        assert len(trust_records) == len(rows)
        for record in trust_records:
            assert record["trust"] == rows[record["time_point"]]

    def test_metrics_match_result(self, motivating):
        result, obs = _run_instrumented(motivating, IncEstHeu)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["session.runs"] == 1
        assert counters["session.rounds"] == len(result.rounds)
        assert counters["session.facts_evaluated"] == sum(
            r.num_facts for r in result.rounds
        )
        assert counters.get("session.label_flips", 0) == len(result.label_overrides)


class TestBaselineConvergenceCounters:
    @pytest.mark.parametrize(
        "factory", [TwoEstimate, ThreeEstimate, TruthFinder]
    )
    def test_iteration_counter_matches_result(self, motivating, factory):
        method = factory()
        obs = make_obs(metrics=True, runlog=io.StringIO())
        method.obs = obs
        result = method.run(motivating)
        assert result.iterations >= 1
        assert (
            obs.metrics.counter(f"baseline.{method.name}.iterations")
            == result.iterations
        )
        iteration_records = [
            r for r in _ledger_records(obs) if r["kind"] == "iteration"
        ]
        assert len(iteration_records) == result.iterations
        assert [r["iteration"] for r in iteration_records] == list(
            range(1, result.iterations + 1)
        )
        assert all(r["method"] == method.name for r in iteration_records)
        # Only the last iteration may be flagged converged.
        assert all(not r["converged"] for r in iteration_records[:-1])

    @pytest.mark.parametrize(
        "factory", [TwoEstimate, ThreeEstimate, TruthFinder]
    )
    def test_counters_on_scaled_world(self, small_restaurant_world, factory):
        method = factory()
        obs = make_obs(metrics=True)
        method.obs = obs
        result = method.run(small_restaurant_world.dataset)
        assert (
            obs.metrics.counter(f"baseline.{method.name}.iterations")
            == result.iterations
        )
