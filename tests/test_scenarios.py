"""Tests for the adversarial / temporal scenario engine."""

import json

import numpy as np
import pytest

from repro.datasets.synthetic import draw_source_specs
from repro.model.dataset import Dataset
from repro.scenarios import (
    BASE_METHOD,
    CopyingSpec,
    DriftSpec,
    MultiTruthSpec,
    ScenarioSpec,
    base_world_seed,
    copying_recovery,
    generate_scenario,
    run_scenario,
    scenario_rows,
    scenario_suite,
)


def world_fingerprint(dataset: Dataset):
    """Canonical bit-level identity of a dataset: order and content."""
    return (
        list(dataset.matrix.sources),
        list(dataset.matrix.facts),
        [
            (fact, source, vote.value)
            for fact in dataset.matrix.facts
            for source, vote in dataset.matrix.iter_votes_on(fact)
        ],
        dict(dataset.truth),
    )


QUICK_COPYING = ScenarioSpec(
    name="qc", kind="copying", seed=3, num_facts=600,
    copying=CopyingSpec(clusters=2, copiers_per_cluster=4),
)
QUICK_DRIFT = ScenarioSpec(
    name="qd", kind="drift", seed=3, num_facts=400,
    drift=DriftSpec(epochs=4, drifters=3, drift_per_epoch=0.15),
)
QUICK_MULTI = ScenarioSpec(
    name="qm", kind="multi_truth", seed=3,
    multi_truth=MultiTruthSpec(questions=50, values_per_question=4,
                               true_values=2),
)


class TestSpec:
    @pytest.mark.parametrize("spec", scenario_suite(quick=True, seed=7))
    def test_json_round_trip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert ScenarioSpec.from_json(json.dumps(spec.to_json())) == spec

    def test_unknown_field_rejected(self):
        payload = QUICK_COPYING.to_json()
        payload["copyrate"] = 0.5
        with pytest.raises(ValueError, match="unknown spec fields"):
            ScenarioSpec.from_json(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec(name="x", kind="collusion")

    def test_kind_attaches_default_substructure(self):
        spec = ScenarioSpec(name="x", kind="drift")
        assert spec.drift == DriftSpec()
        assert spec.copying is None

    @pytest.mark.parametrize(
        "sub",
        [
            dict(copying=CopyingSpec(copy_rate=0.0)),
            dict(copying=CopyingSpec(clusters=0)),
            dict(drift=DriftSpec(epochs=1)),
            dict(drift=DriftSpec(drift_per_epoch=0.9)),
            dict(multi_truth=MultiTruthSpec(true_values=4)),
        ],
    )
    def test_substructure_validation(self, sub):
        kind = next(iter(sub))
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", kind=kind, **sub)

    def test_derive_is_stable_and_path_sensitive(self):
        a = QUICK_COPYING.derive("copier", 0, 1)
        assert a == QUICK_COPYING.derive("copier", 0, 1)
        assert a != QUICK_COPYING.derive("copier", 1, 0)
        # Different scenario name => different stream, same path.
        other = ScenarioSpec(name="other", kind="copying", seed=3)
        assert a != other.derive("copier", 0, 1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec", [QUICK_COPYING, QUICK_DRIFT, QUICK_MULTI],
        ids=lambda s: s.kind,
    )
    def test_same_spec_bit_identical(self, spec):
        one = generate_scenario(spec)
        two = generate_scenario(spec)
        assert world_fingerprint(one.dataset) == world_fingerprint(two.dataset)
        assert world_fingerprint(one.baseline) == world_fingerprint(two.baseline)
        assert one.epoch_of_fact == two.epoch_of_fact
        assert one.clusters == two.clusters

    def test_kinds_share_the_base_world(self):
        # The copying world's control is the *same draw* as the
        # independent world under the same root seed — that is what makes
        # degradation a paired comparison.
        seed = 11
        indep = generate_scenario(
            ScenarioSpec(name="i", kind="independent", seed=seed, num_facts=500)
        )
        copying = generate_scenario(
            ScenarioSpec(name="c", kind="copying", seed=seed, num_facts=500)
        )
        ind_prints = world_fingerprint(indep.dataset)
        ctl_prints = world_fingerprint(copying.baseline)
        # Names differ; sources, facts, votes and truth must not.
        assert ind_prints == ctl_prints


class TestCopying:
    def test_cluster_structure(self):
        world = generate_scenario(QUICK_COPYING)
        assert len(world.clusters) == 2
        inaccurate = {
            s.name
            for s in draw_source_specs(
                QUICK_COPYING.num_accurate,
                QUICK_COPYING.num_inaccurate,
                np.random.default_rng(base_world_seed(QUICK_COPYING)),
            )
            if not s.accurate
        }
        for c, members in enumerate(world.clusters):
            leader, copiers = members[0], members[1:]
            assert leader in inaccurate
            assert copiers == [f"copy{c}_{k}" for k in range(4)]
            leader_facts = set(world.baseline.matrix.votes_by(leader))
            for copier in copiers:
                copied = world.dataset.matrix.votes_by(copier)
                assert copied  # the copier actually voted
                assert set(copied) <= leader_facts

    def test_copiers_absent_from_control(self):
        world = generate_scenario(QUICK_COPYING)
        control_sources = set(world.baseline.matrix.sources)
        assert not any(
            copier in control_sources
            for members in world.clusters
            for copier in members[1:]
        )

    def test_more_clusters_than_leaders_rejected(self):
        spec = ScenarioSpec(
            name="x", kind="copying", num_inaccurate=1,
            copying=CopyingSpec(clusters=2),
        )
        with pytest.raises(ValueError, match="inaccurate leader"):
            generate_scenario(spec)


class TestDrift:
    def test_epoch_partition(self):
        world = generate_scenario(QUICK_DRIFT)
        assert world.num_epochs == QUICK_DRIFT.drift.epochs
        assert set(world.epoch_of_fact) == set(world.dataset.matrix.facts)
        per_epoch = QUICK_DRIFT.num_facts // QUICK_DRIFT.drift.epochs
        for epoch in range(world.num_epochs):
            count = sum(1 for e in world.epoch_of_fact.values() if e == epoch)
            assert count == per_epoch

    def test_divergence_only_on_drifters_after_epoch_zero(self):
        world = generate_scenario(QUICK_DRIFT)
        specs = draw_source_specs(
            QUICK_DRIFT.num_accurate,
            QUICK_DRIFT.num_inaccurate,
            np.random.default_rng(base_world_seed(QUICK_DRIFT)),
        )
        drifters = set(
            sorted(s.name for s in specs if s.accurate)[
                : QUICK_DRIFT.drift.drifters
            ]
        )
        diverged = set()
        for fact in world.dataset.matrix.facts:
            drifted = dict(world.dataset.matrix.iter_votes_on(fact))
            static = dict(world.baseline.matrix.iter_votes_on(fact))
            if drifted != static:
                assert world.epoch_of_fact[fact] > 0
                for source in set(drifted) | set(static):
                    if drifted.get(source) is not static.get(source):
                        diverged.add(source)
        assert diverged  # the drift actually changed votes
        assert diverged <= drifters


class TestMultiTruth:
    def test_truth_counts_per_question(self):
        world = generate_scenario(QUICK_MULTI)
        multi = QUICK_MULTI.multi_truth
        for q in range(multi.questions):
            group = [f"q{q}_v{v}" for v in range(multi.values_per_question)]
            assert sum(world.dataset.truth[f] for f in group) == multi.true_values
            assert sum(world.baseline.truth[f] for f in group) == 1

    def test_one_affirmation_per_covered_question(self):
        world = generate_scenario(QUICK_MULTI)
        multi = QUICK_MULTI.multi_truth
        for source in world.dataset.matrix.sources:
            votes = world.dataset.matrix.votes_by(source)
            per_question = {}
            for fact in votes:
                q = fact.split("_")[0]
                per_question[q] = per_question.get(q, 0) + 1
            assert all(count == 1 for count in per_question.values())
            assert len(per_question) <= multi.questions


class TestEpochSlices:
    def test_slices_partition_the_votes(self):
        world = generate_scenario(QUICK_DRIFT)
        slices = world.epoch_slices()
        assert len(slices) == world.num_epochs
        flat = [row for rows in slices for row in rows]
        assert len(flat) == world.dataset.matrix.num_votes
        for epoch, rows in enumerate(slices):
            assert all(world.epoch_of_fact[fact] == epoch for fact, _, _ in rows)
        assert world.epoch_slices() == slices  # deterministic

    def test_slices_feed_the_serve_layer(self, tmp_path):
        from repro.serve import CorroborationService
        from repro.store import VoteLedger

        spec = ScenarioSpec(
            name="serve", kind="drift", seed=5, num_facts=120,
            drift=DriftSpec(epochs=3, drifters=2),
        )
        world = generate_scenario(spec)
        ledger = VoteLedger(tmp_path / "scenario.db")
        service = CorroborationService(ledger)
        for rows in world.epoch_slices():
            batch, decision = service.apply_votes(rows)
            assert batch.report.rows_dropped == 0
            assert decision.action == "stream"
        # The replay stream carries votes, so the service labels exactly
        # the voted facts (voteless facts never reach the ledger).
        voted = sum(
            1
            for fact in world.dataset.matrix.facts
            if world.dataset.matrix.votes_on(fact)
        )
        assert ledger.counts()["labels"] == voted


class TestHarness:
    def test_copying_rows_and_recovery(self):
        # The quick-tier suite spec — the configuration the bench floors
        # are calibrated on (the gap is sensitive to the copier draw, so
        # an arbitrary same-shape spec is not guaranteed a positive gap).
        spec = next(
            s for s in scenario_suite(quick=True) if s.kind == "copying"
        )
        result = run_scenario(generate_scenario(spec))
        rows = scenario_rows(result)
        assert {row["world"] for row in rows} == {"control", "adversarial"}
        methods = {row["method"] for row in rows if row["world"] == "adversarial"}
        assert BASE_METHOD in methods
        assert result.dependence_method in methods
        for row in rows:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["facts"] == spec.num_facts
        recovery = copying_recovery(result)
        assert recovery["gap"] == pytest.approx(
            recovery["base_accuracy"] - recovery["attacked_accuracy"]
        )
        # The quick-tier acceptance floors live in the bench suite; here
        # the attack must at least not *help* and the variant must not
        # fall below the attacked baseline.
        assert recovery["gap"] > 0
        assert recovery["dependence_accuracy"] >= recovery["attacked_accuracy"]

    def test_independent_world_runs_once(self):
        spec = ScenarioSpec(
            name="ctl", kind="independent", seed=0, num_facts=300
        )
        result = run_scenario(generate_scenario(spec))
        assert result.control_runs is result.runs
        rows = scenario_rows(result)
        assert {row["world"] for row in rows} == {"adversarial"}

    def test_rows_invariant_across_worker_counts(self):
        spec = ScenarioSpec(
            name="wk", kind="copying", seed=1, num_facts=300,
            copying=CopyingSpec(clusters=1, copiers_per_cluster=2),
        )
        world = generate_scenario(spec)

        def stripped(result):
            return [
                {k: v for k, v in row.items() if k != "seconds"}
                for row in scenario_rows(result)
            ]

        serial = stripped(run_scenario(world, workers=1))
        sharded = stripped(run_scenario(world, workers=2))
        assert serial == sharded
