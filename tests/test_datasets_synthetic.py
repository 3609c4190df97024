"""Tests for the Section 6.3.1 synthetic generator."""

import numpy as np
import pytest

from repro.core.arrays import GroupIndex
from repro.datasets.synthetic import (
    draw_source_specs,
    generate_sparse_synthetic,
    generate_synthetic,
)
from repro.model.votes import Vote


class TestSourceSpecs:
    def test_trust_ranges(self):
        rng = np.random.default_rng(0)
        specs = draw_source_specs(20, 10, rng)
        for spec in specs:
            if spec.accurate:
                assert 0.7 <= spec.trust <= 1.0
                assert 0.0 <= spec.f_vote_probability <= 0.5
            else:
                assert 0.5 <= spec.trust <= 0.7
                assert spec.f_vote_probability == 0.0

    def test_coverage_equation11(self):
        rng = np.random.default_rng(1)
        specs = draw_source_specs(50, 50, rng)
        for spec in specs:
            # c(s) = 1 − σ(s) + U[0, 0.2], floored at 0.05.
            assert spec.coverage >= max(0.05, 1.0 - spec.trust) - 1e-12
            assert spec.coverage <= 1.0 - spec.trust + 0.2 + 1e-12

    def test_inaccurate_cover_more_on_average(self):
        rng = np.random.default_rng(2)
        specs = draw_source_specs(50, 50, rng)
        accurate = np.mean([s.coverage for s in specs if s.accurate])
        inaccurate = np.mean([s.coverage for s in specs if not s.accurate])
        assert inaccurate > accurate

    def test_error_channels(self):
        rng = np.random.default_rng(3)
        accurate, inaccurate = draw_source_specs(1, 1, rng)
        assert accurate.erroneous_t_probability == 0.0
        assert inaccurate.erroneous_t_probability == 1.0

    def test_no_sources_raises(self):
        with pytest.raises(ValueError):
            draw_source_specs(0, 0, np.random.default_rng(0))


class TestGenerator:
    def test_shape_and_determinism(self):
        a = generate_synthetic(num_facts=500, seed=5)
        b = generate_synthetic(num_facts=500, seed=5)
        assert a.dataset.matrix.num_facts == 500
        assert a.dataset.matrix.num_sources == 10
        assert a.dataset.truth == b.dataset.truth
        sig_a = [a.dataset.matrix.signature(f) for f in a.dataset.facts]
        sig_b = [b.dataset.matrix.signature(f) for f in b.dataset.facts]
        assert sig_a == sig_b

    def test_eta_bounds_f_vote_facts(self):
        world = generate_synthetic(num_facts=2000, eta=0.02, seed=0)
        conflicted = world.dataset.matrix.conflicted_facts()
        assert len(conflicted) <= round(0.02 * 2000)

    def test_f_votes_only_on_false_facts(self, small_synthetic_world):
        ds = small_synthetic_world.dataset
        for fact in ds.matrix.conflicted_facts():
            assert ds.truth[fact] is False

    def test_accurate_sources_never_affirm_false_facts(self, small_synthetic_world):
        ds = small_synthetic_world.dataset
        accurate = {s.name for s in small_synthetic_world.accurate_sources}
        for spec_name in accurate:
            for fact, vote in ds.matrix.votes_by(spec_name).items():
                if vote is Vote.TRUE:
                    assert ds.truth[fact] is True

    def test_inaccurate_sources_never_deny(self, small_synthetic_world):
        ds = small_synthetic_world.dataset
        for spec in small_synthetic_world.inaccurate_sources:
            votes = ds.matrix.votes_by(spec.name).values()
            assert all(v is Vote.TRUE for v in votes)

    def test_truth_split_near_half(self):
        world = generate_synthetic(num_facts=5000, seed=7)
        true_fraction = sum(world.dataset.truth.values()) / 5000
        assert 0.45 < true_fraction < 0.55

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            generate_synthetic(eta=1.5)

    def test_invalid_num_facts(self):
        with pytest.raises(ValueError):
            generate_synthetic(num_facts=0)

    def test_affirmative_dominated_regime(self, small_synthetic_world):
        ds = small_synthetic_world.dataset
        affirmative_only = len(ds.matrix.affirmative_only_facts())
        conflicted = len(ds.matrix.conflicted_facts())
        # |F*| >> |F − F*| (Section 3.3).
        assert affirmative_only > 10 * conflicted


class TestSparseSynthetic:
    """The million-fact scale-tier generator, exercised at a small size."""

    def _world(self, **overrides):
        params = dict(
            num_facts=3000,
            num_sources=2000,
            num_templates=40,
            num_hubs=25,
            seed=11,
        )
        params.update(overrides)
        return generate_sparse_synthetic(**params)

    def test_deterministic_given_seed(self):
        a = self._world()
        b = self._world()
        assert a.dataset.matrix.num_votes == b.dataset.matrix.num_votes
        assert a.dataset.truth == b.dataset.truth
        for fact in a.dataset.matrix.facts[:50]:
            assert a.dataset.matrix.votes_on(fact) == b.dataset.matrix.votes_on(fact)

    def test_group_count_equals_templates(self):
        world = self._world()
        index = GroupIndex.for_matrix(world.dataset.matrix)
        assert index.num_groups == world.num_templates == 40

    def test_every_fact_voted(self):
        world = self._world()
        assert len(world.dataset.matrix.facts) == 3000
        assert world.dataset.matrix.num_votes >= 2 * 3000

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            self._world(num_facts=0)
        with pytest.raises(ValueError):
            self._world(num_templates=5000)  # more templates than facts
        with pytest.raises(ValueError):
            self._world(num_hubs=3000)  # more hubs than sources
        with pytest.raises(ValueError):
            self._world(min_voters=0)
