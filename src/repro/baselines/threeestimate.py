"""ThreeEstimate — Galland et al.'s difficulty-aware variant.

3-Estimates extends 2-Estimates with a per-fact *error factor* ε(f): "how
difficult each statement is in terms of the level of disagreement" (paper
Section 7).  We model the probability that a source s votes correctly on a
fact f as

    φ(s, f) = 1 − ε(f) · (1 − θ(s))

so a perfectly easy fact (ε = 0) is answered correctly by everyone and a
maximally hard one (ε = 1) is answered correctly with probability θ(s).
The three estimates are iterated from the residual identity
``error(s, f) ≈ ε(f) · (1 − θ(s))``:

* fact value: mean over voters of φ for T votes / 1 − φ for F votes,
  rounded to a label;
* fact difficulty: ε(f) = mean over voters of error(s, f) / (1 − θ(s));
* source trust: θ(s) = 1 − mean over facts of error(s, f) / ε(f);

with divisions clamped away from zero and results clipped into [0, 1].
The EDBT paper does not restate Galland et al.'s exact update formulas;
this reconstruction preserves the property it relies on (Section 2.1,
footnote 3): **on affirmative-only data ThreeEstimate degenerates to
TwoEstimate** — when every vote agrees with every label, all errors are 0,
every ε collapses to 0 and every θ to 1, exactly TwoEstimate's fixpoint.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.twoestimate import observe_iteration
from repro.core.arrays import GroupArrays
from repro.core.result import CorroborationResult, Corroborator
from repro.core.scoring import DEFAULT_TRUST
from repro.model.dataset import Dataset

#: Clamp for the ε and (1 − θ) divisors, preventing blow-ups on perfectly
#: easy facts / perfectly good sources.
_EPSILON_FLOOR = 0.05


class ThreeEstimate(Corroborator):
    """Iterative corroboration with per-fact difficulty estimates.

    Args:
        default_trust: initial θ(s) for every source.
        initial_difficulty: initial ε(f) for every fact group.
        max_iterations: safety cap.
    """

    name = "ThreeEstimate"

    def __init__(
        self,
        default_trust: float = DEFAULT_TRUST,
        initial_difficulty: float = 0.5,
        max_iterations: int = 200,
    ) -> None:
        if not 0.0 <= initial_difficulty <= 1.0:
            raise ValueError(
                f"initial_difficulty must be in [0, 1], got {initial_difficulty}"
            )
        self.default_trust = default_trust
        self.initial_difficulty = initial_difficulty
        self.max_iterations = max_iterations

    def run(self, dataset: Dataset) -> CorroborationResult:
        arrays = GroupArrays.from_dataset(dataset)
        trust = np.full(arrays.num_sources, self.default_trust)
        difficulty = np.full(arrays.num_groups, self.initial_difficulty)
        has_votes = arrays.source_has_votes()
        vote_weight = arrays.voted * arrays.sizes[:, None]
        total_votes = vote_weight.sum(axis=0)

        previous_labels: np.ndarray | None = None
        probs = np.full(arrays.num_groups, self.default_trust)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            probs = self._fact_step(arrays, trust, difficulty)
            labels = probs >= 0.5
            # error[g, s] = 1 where s's vote in group g disagrees with the
            # group's label, 0 where it agrees, masked to actual voters.
            agree = np.where(labels[:, None], arrays.affirm, arrays.deny)
            error = arrays.voted - agree

            # ε(f): average disagreement per voter, scaled by how much of it
            # the voter's own unreliability explains.
            unreliability = np.clip(1.0 - trust, _EPSILON_FLOOR, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                eps = (error / unreliability[None, :]).sum(axis=1) / arrays.degree
            difficulty = np.clip(
                np.where(arrays.degree > 0, eps, self.initial_difficulty), 0.0, 1.0
            )

            # θ(s): 1 − average error per vote, discounting errors on hard
            # facts, weighted by group sizes.
            eps_divisor = np.clip(difficulty, _EPSILON_FLOOR, 1.0)
            weighted_error = (error / eps_divisor[:, None]) * arrays.sizes[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                new_trust = 1.0 - weighted_error.sum(axis=0) / total_votes
            new_trust = np.clip(
                np.where(has_votes, new_trust, self.default_trust), 0.0, 1.0
            )
            converged = (
                previous_labels is not None
                and np.array_equal(labels, previous_labels)
                and np.allclose(new_trust, trust, atol=1e-9)
            )
            if self.obs.enabled:
                observe_iteration(
                    self,
                    iterations,
                    labels,
                    previous_labels,
                    new_trust,
                    trust,
                    converged,
                )
            trust = new_trust
            previous_labels = labels
            if converged:
                break
        probs = self._fact_step(arrays, trust, difficulty)
        return self._result(
            probabilities=arrays.fact_probabilities(probs),
            trust=arrays.trust_mapping(trust),
            iterations=iterations,
        )

    def _fact_step(
        self, arrays: GroupArrays, trust: np.ndarray, difficulty: np.ndarray
    ) -> np.ndarray:
        # φ[g, s] = 1 − ε(g)·(1 − θ(s)); contribution is φ for T votes and
        # 1 − φ for F votes.
        phi = 1.0 - difficulty[:, None] * (1.0 - trust)[None, :]
        contribution = arrays.affirm * phi + arrays.deny * (1.0 - phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = contribution.sum(axis=1) / arrays.degree
        return np.where(arrays.degree > 0, probs, self.default_trust)
