"""Engine ↔ oracle equivalence: the array engine must be bit-identical.

The array engine behind :class:`~repro.core.session.CorroborationSession`
(:mod:`repro.core.arrays`) is a pure performance substitution for the
dict-per-step Algorithm 1 of ``tests/scalar_reference.py`` — same
probabilities, labels, overrides, trust trajectories, round records, tie
breaks and one-sided flush, compared here with ``==`` on floats (no
tolerances).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.arrays import GroupArrays, SessionArrays
from repro.core.fact_groups import group_facts, group_probability
from repro.core.incestimate import IncEstimate
from repro.core.selection import IncEstHeu, IncEstPS
from repro.core.session import CorroborationSession
from repro.core.trust import TrustTrajectory
from repro.eval.harness import run_methods
from repro.model.dataset import Dataset
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote

from tests.scalar_reference import ScalarIncEstimate


class FullRescanHeu(IncEstHeu):
    """IncEstHeu on a hand-built context, as a custom strategy ranks: a
    full ΔH rescan every round instead of the session's pair-term cache."""

    def select(self, context):
        return super().select(dataclasses.replace(context, arrays=None))


STRATEGIES = {
    "heu": lambda: IncEstHeu(),
    "ps": lambda: IncEstPS(),
    "heu-noflush": lambda: IncEstHeu(flush_when_one_sided=False),
    "heu-smoothed": lambda: IncEstHeu(projection_smoothing=0.1),
    "heu-full": FullRescanHeu,
}


def _round_tuples(result):
    return [
        (r.time_point, r.signature, r.probability, r.label, tuple(r.facts))
        for r in result.rounds
    ]


def assert_results_identical(engine_result, oracle_result):
    """Bit-exact comparison of every CorroborationResult component."""
    assert engine_result.probabilities == oracle_result.probabilities
    assert engine_result.trust == oracle_result.trust
    assert engine_result.label_overrides == oracle_result.label_overrides
    assert engine_result.iterations == oracle_result.iterations
    assert (
        engine_result.trajectory.as_rows() == oracle_result.trajectory.as_rows()
    )
    assert _round_tuples(engine_result) == _round_tuples(oracle_result)


def run_both(dataset, strategy_factory):
    engine = IncEstimate(strategy=strategy_factory()).run(dataset)
    oracle = ScalarIncEstimate(strategy=strategy_factory()).run(dataset)
    return engine, oracle


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_motivating(self, motivating, strategy):
        assert_results_identical(*run_both(motivating, STRATEGIES[strategy]))

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_small_restaurants(self, small_restaurant_world, strategy):
        dataset = small_restaurant_world.dataset
        assert_results_identical(*run_both(dataset, STRATEGIES[strategy]))

    @pytest.mark.parametrize("strategy", ["heu", "ps"])
    def test_small_synthetic(self, small_synthetic_world, strategy):
        dataset = small_synthetic_world.dataset
        assert_results_identical(*run_both(dataset, STRATEGIES[strategy]))

    @pytest.mark.parametrize("strategy", ["heu", "ps"])
    def test_synthetic_1500_sweep(self, strategy):
        from repro.datasets import generate_synthetic

        dataset = generate_synthetic(num_facts=1_500, seed=7).dataset
        assert_results_identical(*run_both(dataset, STRATEGIES[strategy]))

    @pytest.mark.parametrize("strategy", ["heu", "ps", "heu-full"])
    def test_small_hubdub_wide_source_path(self, small_hubdub_world, strategy):
        # >31 sources: exercises the big-int signature partitioning path.
        dataset = small_hubdub_world.questions.to_dataset()
        assert dataset.matrix.num_sources > 31
        assert_results_identical(*run_both(dataset, STRATEGIES[strategy]))


class TestRoundByRoundEquivalence:
    def test_lockstep_sessions(self, motivating):
        """Engine and oracle agree at *every* time point, not just at the end."""
        eng = CorroborationSession(
            motivating, IncEstHeu(), 0.8, 0.2, 5e-4, "IncEstHeu"
        )
        ref = ScalarIncEstimate(IncEstHeu(), 0.8, 0.2, 5e-4).session(motivating)
        while not ref.done:
            assert not eng.done
            assert eng.trust == ref.trust
            assert eng.remaining_facts == ref.remaining_facts
            assert eng.evaluated_facts == ref.evaluated_facts
            eng_groups = [(g.signature, g.facts) for g in eng.remaining_groups]
            ref_groups = [(g.signature, g.facts) for g in ref.remaining_groups]
            assert eng_groups == ref_groups
            eng_records = eng.step()
            ref_records = ref.step()
            assert [
                (r.time_point, r.signature, r.probability, r.label, tuple(r.facts))
                for r in eng_records
            ] == [
                (r.time_point, r.signature, r.probability, r.label, tuple(r.facts))
                for r in ref_records
            ]
            assert eng.current_labels() == ref.current_labels()
        assert eng.done
        assert_results_identical(eng.finalize(), ref.finalize())


class TestSessionArraysKernel:
    def test_probability_fold_matches_scalar_loop(self, small_restaurant_world):
        """The sequential column fold replays Equation 5's addition order."""
        matrix = small_restaurant_world.dataset.matrix
        arrays = SessionArrays(matrix, default_trust=0.8, prior=3.0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            arrays.trust = rng.random(arrays.num_sources)
            probs = arrays.compute_probabilities(0.2)
            trust_map = arrays.trust_dict()
            for row, group in enumerate(arrays.groups):
                expected = group_probability(group.signature, trust_map, 0.2)
                assert probs[row] == expected  # bit-exact, no tolerance

    def test_counters_match_scalar_dict_updates(self, motivating):
        matrix = motivating.matrix
        arrays = SessionArrays(matrix, default_trust=0.8, prior=2.0)
        correct = {s: 0.8 * 2.0 for s in matrix.sources}
        total = {s: 2.0 for s in matrix.sources}
        rng = np.random.default_rng(3)
        for _ in range(25):
            row = int(rng.integers(0, arrays.num_groups))
            label = bool(rng.integers(0, 2))
            arrays.apply_evaluation(row, 1, label)
            for source, symbol in arrays.groups[row].signature:
                total[source] += 1
                if (symbol == Vote.TRUE.value) == label:
                    correct[source] += 1
        arrays.refresh_trust()
        correct_view, total_view = arrays.counter_views()
        assert dict(correct_view) == correct
        assert dict(total_view) == total
        assert arrays.trust_dict() == {
            s: correct[s] / total[s] for s in matrix.sources
        }

    def test_active_tracking(self, motivating):
        arrays = SessionArrays(motivating.matrix, default_trust=0.8, prior=0.0)
        before = arrays.remaining_facts()
        row = arrays.active_rows()[0]
        size = int(arrays.sizes[row])
        arrays.apply_evaluation(int(row), size, True)
        assert not arrays.active[row]
        assert row not in arrays.active_rows()
        assert arrays.remaining_facts() == before - size
        assert len(arrays.active_groups()) == arrays.num_groups - 1

    def test_incremental_pair_cache_equals_full_rescan(
        self, small_restaurant_world
    ):
        """Incrementally maintained ΔH terms == full rescan, bit for bit.

        Two identical sessions-worth of arrays receive the same random
        evaluation stream; one scores incrementally against its pair-term
        cache, the other forces a rebuild every round.  Scores over the
        active rows must stay ``==``-equal at every time point — the
        invalidation rule may never miss a moved input.
        """
        matrix = small_restaurant_world.dataset.matrix
        inc_arrays = SessionArrays(matrix, default_trust=0.8, prior=1.0)
        full_arrays = SessionArrays(matrix, default_trust=0.8, prior=1.0)
        rng = np.random.default_rng(5)
        for smoothing in (0.0, 0.1):
            for _ in range(20):
                scores = []
                for arrays, full in ((inc_arrays, False), (full_arrays, True)):
                    arrays.refresh_trust()
                    arrays.compute_probabilities(0.2)
                    delta = arrays.dh_engine().cross_scores(
                        correct=arrays.correct,
                        total=arrays.total,
                        sizes=arrays.sizes,
                        active=arrays.active,
                        probabilities=arrays.probabilities,
                        default_trust=0.8,
                        default_fact_probability=0.2,
                        smoothing=smoothing,
                        full=full,
                    )
                    scores.append(delta[arrays.active_rows()])
                assert np.array_equal(scores[0], scores[1])
                rows = inc_arrays.active_rows()
                row = int(rows[rng.integers(0, len(rows))])
                count = int(rng.integers(1, inc_arrays.sizes[row] + 1))
                label = bool(rng.integers(0, 2))
                inc_arrays.apply_evaluation(row, count, label)
                full_arrays.apply_evaluation(row, count, label)

    def test_counter_views_are_live_and_read_only(self, motivating):
        arrays = SessionArrays(motivating.matrix, default_trust=0.5, prior=1.0)
        correct_view, total_view = arrays.counter_views()
        source = arrays.sources[0]
        before = total_view[source]
        arrays.apply_evaluation(0, 1, True)
        touched = {s for s, _ in arrays.groups[0].signature}
        if source in touched:
            assert total_view[source] == before + 1
        assert len(total_view) == arrays.num_sources
        assert set(total_view) == set(arrays.sources)
        with pytest.raises(TypeError):
            total_view[source] = 1.0  # Mapping, not MutableMapping


class TestGroupArraysConstruction:
    def test_from_matrix_matches_group_facts(self, small_restaurant_world):
        matrix = small_restaurant_world.dataset.matrix
        arrays = GroupArrays.from_matrix(matrix)
        expected = group_facts(matrix)
        assert [g.signature for g in arrays.groups] == [
            g.signature for g in expected
        ]
        assert [g.facts for g in arrays.groups] == [g.facts for g in expected]

    def test_from_matrix_wide_matrix(self, small_hubdub_world):
        """>31 sources: the dense arrays hold ``group_facts``'s groups."""
        matrix = small_hubdub_world.questions.to_dataset().matrix
        assert matrix.num_sources > 31
        arrays = GroupArrays.from_matrix(matrix)
        expected = group_facts(matrix)
        assert [(g.signature, g.facts) for g in arrays.groups] == [
            (g.signature, g.facts) for g in expected
        ]

    def test_for_matrix_caches_until_mutation(self, motivating):
        matrix = motivating.matrix
        first = GroupArrays.for_matrix(matrix)
        assert GroupArrays.for_matrix(matrix) is first
        matrix.add_vote("f2", "s5", Vote.TRUE)
        rebuilt = GroupArrays.for_matrix(matrix)
        assert rebuilt is not first
        assert [(g.signature, g.facts) for g in rebuilt.groups] == [
            (g.signature, g.facts) for g in group_facts(matrix)
        ]


class TestBulkMarkEvaluated:
    def test_bulk_equals_loop(self):
        a = TrustTrajectory(["s"])
        b = TrustTrajectory(["s"])
        a.mark_evaluated_many(["f1", "f2"], 0)
        a.mark_evaluated_many(["f3"], 1)
        b.mark_evaluated(["f1", "f2"], 0)
        b.mark_evaluated(["f3"], 1)
        for fact in ("f1", "f2", "f3", "f4"):
            assert a.evaluation_time(fact) == b.evaluation_time(fact)

    def test_duplicates_detected_at_flush(self):
        trajectory = TrustTrajectory(["s"])
        trajectory.mark_evaluated_many(["f1", "f2"], 0)
        trajectory.mark_evaluated_many(["f2"], 1)  # accepted lazily
        with pytest.raises(ValueError, match="duplicate facts"):
            trajectory.evaluation_time("f1")


def _fuzz_world(seed: int) -> Dataset:
    """A small random vote matrix with shape drawn from the seed.

    Every fact gets at least one vote; sizes are kept small so the fuzz
    sweep explores many tie/flush edge cases rather than a few big runs.
    """
    rng = np.random.default_rng(seed)
    num_sources = int(rng.integers(3, 9))
    num_facts = int(rng.integers(8, 40))
    matrix = VoteMatrix()
    sources = [f"s{i}" for i in range(num_sources)]
    for source in sources:
        matrix.add_source(source)
    for i in range(num_facts):
        fact = f"f{i}"
        matrix.add_fact(fact)
        voters = [s for s in sources if rng.random() < 0.6]
        if not voters:
            voters = [sources[int(rng.integers(0, num_sources))]]
        for source in voters:
            vote = Vote.TRUE if rng.random() < 0.7 else Vote.FALSE
            matrix.add_vote(fact, source, vote)
    truth = {f"f{i}": bool(rng.integers(0, 2)) for i in range(num_facts)}
    return Dataset(
        matrix=matrix,
        truth=truth,
        golden_set=frozenset(),
        name=f"fuzz-{seed}",
    )


class TestDifferentialFuzz:
    """Seeded random matrices through every differential pairing.

    Two differential axes on the same inputs: the scalar oracle against
    the SessionArrays engine (bit-exact, via ``assert_results_identical``)
    and the serial harness against the sharded one at two workers."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("strategy", ["heu", "ps", "heu-noflush", "heu-full"])
    def test_scalar_vs_engine(self, seed, strategy):
        dataset = _fuzz_world(seed)
        assert_results_identical(*run_both(dataset, STRATEGIES[strategy]))

    @pytest.mark.parametrize("seed", [101, 102])
    def test_serial_vs_sharded(self, seed):
        dataset = _fuzz_world(seed)

        def methods():
            return [
                ScalarIncEstimate(strategy=IncEstHeu()),
                IncEstimate(strategy=IncEstHeu()),
                IncEstimate(strategy=IncEstPS()),
            ]

        serial = run_methods(methods(), dataset)
        sharded = run_methods(methods(), dataset, workers=2)
        assert [run.method for run in sharded] == [
            run.method for run in serial
        ]
        for run_sharded, run_serial in zip(sharded, serial):
            assert run_sharded.error is None
            assert_results_identical(run_sharded.result, run_serial.result)
