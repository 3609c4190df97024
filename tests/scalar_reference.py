"""Scalar reference of Algorithm 1: the test oracle of the array engine.

A dict-per-step IncEstimate that never goes through
:class:`~repro.core.session.CorroborationSession`: it groups facts with
:func:`~repro.core.fact_groups.group_facts`, scores Equation 5 with
:func:`~repro.core.fact_groups.group_probability`, keeps per-source dict
counters, and asks the strategy through a hand-built
:class:`~repro.core.selection.SelectionContext` without ``arrays`` (so
IncEstHeu rescans ΔH in full every round).  The engine replays its float
operations in the same order, so the suites compare the two with ``==``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.fact_groups import (
    FactGroup,
    FactGroupView,
    group_facts,
    group_probability,
)
from repro.core.incestimate import IncEstimate, RoundRecord
from repro.core.result import CorroborationResult
from repro.core.scoring import decide
from repro.core.selection import SelectionContext
from repro.core.trust import TrustTrajectory
from repro.model.dataset import Dataset
from repro.model.matrix import FactId, SourceId
from repro.model.votes import Vote


class ScalarIncEstimate(IncEstimate):
    """:class:`~repro.core.incestimate.IncEstimate`'s parameters and name,
    run on :class:`ScalarSession` instead of the array engine."""

    def session(
        self,
        dataset: Dataset,
        *,
        counters: Mapping[SourceId, Sequence[float]] | None = None,
        prior: float | None = None,
    ) -> "ScalarSession":
        if prior is None:
            prior = self.trust_prior_strength * dataset.matrix.num_facts
        return ScalarSession(self, dataset, prior, counters)


class ScalarSession:
    """One scalar run; ``counters`` seeds ``[correct, total, trust]`` per
    named source, the rest start at ``[λ·prior, prior, λ]``."""

    def __init__(self, method, dataset, prior, counters=None) -> None:
        self._strategy = method.strategy
        self._default_trust = default_trust = method.default_trust
        self._default_fact_probability = method.default_fact_probability
        self._method_name = method.name
        matrix = dataset.matrix
        self._sources = matrix.sources
        self._remaining: list[FactGroup] = group_facts(matrix)
        self._correct: dict[SourceId, float] = {
            s: default_trust * prior for s in self._sources
        }
        self._total: dict[SourceId, float] = {s: prior for s in self._sources}
        self._trust: dict[SourceId, float] = {
            s: default_trust for s in self._sources
        }
        if counters:
            self._seed_counters(counters)
        self._trajectory = TrustTrajectory(self._sources)
        self._probabilities: dict[FactId, float] = {}
        self._label_overrides: dict[FactId, bool] = {}
        self.rounds: list[RoundRecord] = []
        self._max_time_points = matrix.num_facts + 1

    def _seed_counters(self, counters: Mapping[SourceId, Sequence[float]]) -> None:
        unknown = [s for s in counters if s not in self._correct]
        if unknown:
            raise ValueError(f"counters for sources not in the dataset: {unknown}")
        for source, (correct, total, trust) in counters.items():
            self._correct[source] = correct
            self._total[source] = total
            self._trust[source] = trust

    @property
    def done(self) -> bool:
        return not self._remaining

    @property
    def trust(self) -> dict[SourceId, float]:
        return dict(self._trust)

    def counters(self) -> dict[SourceId, list[float]]:
        return {
            s: [self._correct[s], self._total[s], self._trust[s]]
            for s in self._sources
        }

    @property
    def remaining_groups(self) -> list[FactGroupView]:
        return [FactGroupView(g) for g in self._remaining]

    @property
    def remaining_facts(self) -> int:
        return sum(g.size for g in self._remaining)

    @property
    def evaluated_facts(self) -> int:
        return len(self._probabilities)

    def current_labels(self) -> dict[FactId, bool]:
        labels = {f: decide(p) for f, p in self._probabilities.items()}
        labels.update(self._label_overrides)
        return labels

    def step(self) -> list[RoundRecord]:
        if self.done:
            raise RuntimeError("session is complete; no facts remain")
        time_point = self._trajectory.record(self._trust)
        if time_point >= self._max_time_points:
            raise RuntimeError(
                f"{self._method_name}: exceeded {self._max_time_points} time "
                f"points; selection strategy {self._strategy.name} is not "
                "consuming facts"
            )
        context = SelectionContext(
            groups=self._remaining,
            trust=self._trust,
            default_trust=self._default_trust,
            default_fact_probability=self._default_fact_probability,
            correct_counts=self._correct,
            total_counts=self._total,
        )
        selections = self._strategy.select(context)
        if not any(item.count > 0 for item in selections):
            raise RuntimeError(
                f"{self._method_name}: strategy {self._strategy.name} selected "
                f"no facts with {len(self._remaining)} groups remaining"
            )
        step_records: list[RoundRecord] = []
        for item in selections:
            group = item.group
            probability = group_probability(
                group.signature, self._trust, self._default_fact_probability
            )
            label = decide(probability) if item.label is None else item.label
            taken = group.take(item.count)
            self._trajectory.mark_evaluated(taken, time_point)
            for fact in taken:
                self._probabilities[fact] = probability
                if label != decide(probability):
                    self._label_overrides[fact] = label
            record = RoundRecord(
                time_point=time_point,
                signature=group.signature,
                probability=probability,
                label=label,
                facts=taken,
            )
            step_records.append(record)
            self.rounds.append(record)
            for source, symbol in group.signature:
                self._total[source] += len(taken)
                if (symbol == Vote.TRUE.value) == label:
                    self._correct[source] += len(taken)
        self._remaining = [g for g in self._remaining if g.size > 0]
        self._trust = {
            s: (
                self._correct[s] / self._total[s]
                if self._total[s]
                else self._default_trust
            )
            for s in self._sources
        }
        return step_records

    def run_to_completion(self) -> CorroborationResult:
        while not self.done:
            self.step()
        return self.finalize()

    def finalize(self) -> CorroborationResult:
        """Record the final trust vector and build the result (once)."""
        self._trajectory.record(self.trust)
        result = CorroborationResult(
            method=self._method_name,
            probabilities=dict(self._probabilities),
            trust=self.trust,
            iterations=self._trajectory.num_time_points - 1,
            trajectory=self._trajectory,
            label_overrides=dict(self._label_overrides),
        )
        result.rounds = list(self.rounds)
        return result
