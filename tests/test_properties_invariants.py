"""Metamorphic invariants of the core math (Equations 2–8).

Property-style tests with seeded generators (deliberately no hypothesis
dependency): instead of pinning outputs, they pin *transformations that
must not matter* —

* H(f) (Equation 3) does not care in which order a fact's votes arrive,
  and is maximal exactly at σ(f) = 0.5;
* the trust updates (Equations 5–8) do not care what the sources are
  *called* — relabeling sources is a bijection on the trust vector;
* duplicating every fact (same votes, new names) changes the problem's
  size but not a single per-fact label: the counts and the |F|-scaled
  trust prior both double, which cancels exactly.

Where a transformation changes floating-point *summation order* (sorted
signatures re-sort under renamed sources) the comparison is isclose at
1e-12; everywhere the arithmetic is order-preserved the comparison is
``==``, no tolerances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import Counting, TwoEstimate, Voting
from repro.core import IncEstHeu, IncEstPS, IncEstimate
from repro.core.entropy import (
    binary_entropy,
    binary_entropy_array,
    collective_entropy,
)
from repro.core.scoring import corroborate, decide, update_trust
from repro.datasets import generate_synthetic, motivating_example
from repro.model.dataset import Dataset
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote

from tests.scalar_reference import ScalarIncEstimate


def _random_votes(rng, sources):
    """A random non-empty vote dict over a subset of ``sources``."""
    count = int(rng.integers(1, len(sources) + 1))
    chosen = list(rng.choice(sources, size=count, replace=False))
    return {
        s: Vote.TRUE if rng.integers(0, 2) else Vote.FALSE for s in chosen
    }


# ---------------------------------------------------------------------------
# Equation 3: binary entropy
# ---------------------------------------------------------------------------
class TestEntropyProperties:
    def test_vote_order_permutation_invariance(self):
        """σ(f) — and hence H(f) — ignores the arrival order of votes."""
        rng = np.random.default_rng(42)
        sources = [f"s{i}" for i in range(8)]
        trust = {s: float(rng.random()) for s in sources}
        for _ in range(100):
            votes = _random_votes(rng, sources)
            p = corroborate(votes, trust)
            items = list(votes.items())
            rng.shuffle(items)
            p_shuffled = corroborate(dict(items), trust)
            assert math.isclose(p, p_shuffled, rel_tol=1e-12, abs_tol=1e-15)
            assert decide(p) == decide(p_shuffled)
            assert math.isclose(
                binary_entropy(min(p, 1.0)),
                binary_entropy(min(p_shuffled, 1.0)),
                rel_tol=1e-12,
            )

    def test_collective_entropy_permutation_invariance(self):
        rng = np.random.default_rng(3)
        probabilities = list(rng.random(50))
        shuffled = list(probabilities)
        rng.shuffle(shuffled)
        assert math.isclose(
            collective_entropy(probabilities),
            collective_entropy(shuffled),
            rel_tol=1e-12,
        )

    def test_maximal_at_half(self):
        assert binary_entropy(0.5) == 1.0
        rng = np.random.default_rng(9)
        for p in rng.random(500):
            p = float(p)
            if abs(p - 0.5) < 1e-8:
                continue
            assert binary_entropy(p) < 1.0

    def test_symmetry_about_half(self):
        rng = np.random.default_rng(12)
        for p in rng.random(200):
            p = float(p)
            assert math.isclose(
                binary_entropy(p), binary_entropy(1.0 - p), rel_tol=1e-9
            )

    def test_array_kernel_matches_scalar(self):
        rng = np.random.default_rng(1)
        probabilities = np.concatenate([rng.random(100), [0.0, 0.5, 1.0]])
        vectorised = binary_entropy_array(probabilities)
        for p, h in zip(probabilities, vectorised):
            assert h == binary_entropy(float(p))


# ---------------------------------------------------------------------------
# Equations 5–8: source-relabeling invariance
# ---------------------------------------------------------------------------
def _relabel_sources(matrix: VoteMatrix, mapping: dict[str, str]) -> VoteMatrix:
    """The same matrix with sources renamed (registration order kept)."""
    renamed = VoteMatrix()
    for source in matrix.sources:
        renamed.add_source(mapping[source])
    for fact in matrix.facts:
        renamed.add_fact(fact)
        for source, vote in matrix.iter_votes_on(fact):
            renamed.add_vote(fact, mapping[source], vote)
    return renamed


def _relabel_dataset(dataset: Dataset, mapping: dict[str, str]) -> Dataset:
    return Dataset(
        matrix=_relabel_sources(dataset.matrix, mapping),
        truth=dict(dataset.truth),
        golden_set=dataset.golden_set,
        name=f"{dataset.name}-relabeled",
    )


def _random_bijection(rng, sources) -> dict[str, str]:
    """A sort-order-scrambling rename (hex prefixes from a seeded draw)."""
    prefixes = rng.permutation(len(sources))
    return {
        s: f"{p:02x}-{s}" for s, p in zip(sources, prefixes)
    }


class TestSourceRelabelingInvariance:
    def test_update_trust_commutes_with_renaming(self):
        """Equations 6–8 count per-source agreement: names are irrelevant,
        so the renamed trust vector is the *exact* pushforward."""
        rng = np.random.default_rng(21)
        for trial in range(10):
            world = generate_synthetic(
                num_accurate=4, num_inaccurate=2, num_facts=80, seed=trial
            )
            matrix = world.dataset.matrix
            labels = {
                f: bool(rng.integers(0, 2)) for f in matrix.facts[::2]
            }
            mapping = _random_bijection(rng, matrix.sources)
            renamed = _relabel_sources(matrix, mapping)
            trust = update_trust(matrix, labels)
            trust_renamed = update_trust(renamed, labels)
            assert trust_renamed == {
                mapping[s]: value for s, value in trust.items()
            }

    def test_corroborate_commutes_with_renaming(self):
        rng = np.random.default_rng(33)
        sources = [f"s{i}" for i in range(7)]
        trust = {s: float(rng.random()) for s in sources}
        for _ in range(100):
            votes = _random_votes(rng, sources)
            mapping = _random_bijection(rng, sources)
            renamed_votes = {mapping[s]: v for s, v in votes.items()}
            renamed_trust = {mapping[s]: t for s, t in trust.items()}
            # Insertion order is preserved by the rename, so the Equation 5
            # sum runs in the same order: exact equality, no tolerance.
            assert corroborate(votes, trust) == corroborate(
                renamed_votes, renamed_trust
            )

    @pytest.mark.parametrize("engine", [False, True])
    def test_incestimate_labels_invariant_under_renaming(self, engine):
        """End-to-end: renaming sources re-sorts signatures (different
        float summation order) but must not move any label, and the trust
        vector must be the pushforward to isclose precision."""
        rng = np.random.default_rng(55)
        dataset = generate_synthetic(
            num_accurate=5, num_inaccurate=2, num_facts=200, seed=6
        ).dataset
        mapping = _random_bijection(rng, dataset.matrix.sources)
        renamed = _relabel_dataset(dataset, mapping)
        # engine=False holds the engine's renamed run to the scalar oracle.
        reference = IncEstimate if engine else ScalarIncEstimate
        result = reference(strategy=IncEstHeu()).run(dataset)
        result_renamed = IncEstimate(strategy=IncEstHeu()).run(renamed)
        assert result.labels() == result_renamed.labels()
        for source, value in result.trust.items():
            assert math.isclose(
                value, result_renamed.trust[mapping[source]], rel_tol=1e-9
            )
        for fact, p in result.probabilities.items():
            assert math.isclose(
                p, result_renamed.probabilities[fact], rel_tol=1e-9
            )

    def test_fixpoint_baseline_invariant_under_renaming(self):
        rng = np.random.default_rng(77)
        dataset = motivating_example()
        mapping = _random_bijection(rng, dataset.matrix.sources)
        renamed = _relabel_dataset(dataset, mapping)
        result = TwoEstimate().run(dataset)
        result_renamed = TwoEstimate().run(renamed)
        assert result.labels() == result_renamed.labels()
        for source, value in result.trust.items():
            assert math.isclose(
                value, result_renamed.trust[mapping[source]], rel_tol=1e-9
            )


# ---------------------------------------------------------------------------
# Fact duplication: size changes, labels must not
# ---------------------------------------------------------------------------
def _duplicate_facts(dataset: Dataset, copies: int = 2) -> Dataset:
    """Every fact repeated ``copies`` times with identical votes.

    Duplicate facts join the original's fact group, so group sizes scale
    uniformly — the paper's grouping argument (Section 5.1) says they are
    indistinguishable to every algorithm.
    """
    matrix = dataset.matrix
    duplicated = VoteMatrix()
    for source in matrix.sources:
        duplicated.add_source(source)
    for fact in matrix.facts:
        for copy in range(copies):
            name = fact if copy == 0 else f"{fact}~dup{copy}"
            duplicated.add_fact(name)
            for source, vote in matrix.iter_votes_on(fact):
                duplicated.add_vote(name, source, vote)
    return Dataset(
        matrix=duplicated,
        truth=dict(dataset.truth),
        golden_set=dataset.golden_set,
        name=f"{dataset.name}-x{copies}",
    )


class TestFactDuplicationInvariance:
    @pytest.mark.parametrize("method_factory", [Voting, Counting])
    def test_counting_methods_exact(self, method_factory):
        dataset = generate_synthetic(
            num_accurate=4, num_inaccurate=2, num_facts=120, seed=2
        ).dataset
        doubled = _duplicate_facts(dataset)
        result = method_factory().run(dataset)
        result_doubled = method_factory().run(doubled)
        for fact in dataset.matrix.facts:
            assert result_doubled.probabilities[fact] == result.probabilities[fact]
            assert result_doubled.labels()[fact] == result.labels()[fact]

    @pytest.mark.parametrize("engine", [False, True])
    @pytest.mark.parametrize("strategy", [IncEstHeu, IncEstPS])
    def test_incestimate_labels_stable(self, engine, strategy):
        """Doubling every count also doubles the |F|-scaled trust prior
        (k = strength·|F|), so Equation 8 trust — and every label — is
        unchanged.  Duplicates carry their original's label exactly."""
        dataset = generate_synthetic(
            num_accurate=5, num_inaccurate=2, num_facts=150, seed=4
        ).dataset
        doubled = _duplicate_facts(dataset)
        # engine=False holds the engine's doubled run to the scalar oracle.
        reference = IncEstimate if engine else ScalarIncEstimate
        result = reference(strategy=strategy()).run(dataset)
        result_doubled = IncEstimate(strategy=strategy()).run(doubled)
        assert result_doubled.trust == result.trust
        for fact in dataset.matrix.facts:
            assert result_doubled.labels()[fact] == result.labels()[fact]
            assert (
                result_doubled.probabilities[fact]
                == result.probabilities[fact]
            )
            assert (
                result_doubled.labels()[f"{fact}~dup1"]
                == result.labels()[fact]
            )

    def test_motivating_example_walkthrough_stable(self, motivating):
        # Tripling scales counts by a non-power-of-two, so the Equation 8
        # quotient can move by an ulp — trust is isclose, labels exact.
        tripled = _duplicate_facts(motivating, copies=3)
        result = IncEstimate(strategy=IncEstHeu()).run(motivating)
        result_tripled = IncEstimate(strategy=IncEstHeu()).run(tripled)
        for source, value in result.trust.items():
            assert math.isclose(
                value, result_tripled.trust[source], rel_tol=1e-12
            )
        for fact in motivating.matrix.facts:
            assert result_tripled.labels()[fact] == result.labels()[fact]
