"""TwoEstimate — Galland et al. (WSDM 2010), as used in the paper.

The algorithm alternates two averaging steps until a fixpoint:

* fact step (Corrob, Equation 6): σ(f) = mean over f's voters of the trust
  value for T votes and its complement for F votes;
* source step (Update, Equation 7): σ(s) = fraction of s's votes that agree
  with the facts' current values.

To guarantee convergence the variant this paper analyses (Section 2.1)
"normalizes the probability of a restaurant … to 1 if it is greater than or
equal to 0.5" — i.e. fact probabilities are **rounded** to {0, 1} before
they feed back into the source step.  That rounding is exactly what makes
the method collapse on affirmative-only data: after one iteration every
T-only fact is a certain truth and every source looks near-perfect.  The
original Galland et al. formulation instead linearly rescales values each
iteration; both are available through ``normalization``.

The reported trust scores are the final (un-rounded) agreement fractions —
this reproduces the paper's {1, 1, 0.8, 0.9, 1} on the motivating example —
and the reported probabilities are the final fact step's raw averages.
"""

from __future__ import annotations

import numpy as np

from repro.core.arrays import GroupArrays
from repro.core.result import CorroborationResult, Corroborator
from repro.core.scoring import DEFAULT_TRUST
from repro.model.dataset import Dataset

#: Hard iteration cap; the rounded variant converges in a handful of
#: iterations, the rescaled variant can oscillate on adversarial inputs.
MAX_ITERATIONS = 200


def rescale_unit(values: np.ndarray) -> np.ndarray:
    """Affine rescale onto [0, 1] (Galland-style normalisation).

    Degenerate (constant) vectors are returned unchanged — rescaling them
    would be undefined and they are already a fixpoint.
    """
    if values.size == 0:
        return values
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo < 1e-12:
        return values
    return (values - lo) / (hi - lo)


def observe_iteration(
    method: Corroborator,
    iteration: int,
    labels: np.ndarray,
    previous_labels: np.ndarray | None,
    new_trust: np.ndarray,
    trust: np.ndarray,
    converged: bool,
) -> None:
    """Per-iteration convergence read-out (metrics + ledger, read-only) of
    an iterative fixpoint method: TwoEstimate and ThreeEstimate."""
    obs = method.obs
    flips = (
        int(labels.size)
        if previous_labels is None
        else int(np.count_nonzero(labels != previous_labels))
    )
    delta = float(np.max(np.abs(new_trust - trust))) if trust.size else 0.0
    obs.metrics.inc(f"baseline.{method.name}.iterations")
    obs.runlog.emit(
        "iteration",
        method=method.name,
        iteration=iteration,
        label_flips=flips,
        max_trust_delta=delta,
        converged=converged,
    )


class TwoEstimate(Corroborator):
    """Iterative single-value-trust corroboration.

    Args:
        default_trust: initial trust score of every source.
        normalization: ``"round"`` (the variant the paper analyses) or
            ``"rescale"`` (Galland et al.'s linear normalisation).
        max_iterations: safety cap on the number of iterations.
    """

    name = "TwoEstimate"

    def __init__(
        self,
        default_trust: float = DEFAULT_TRUST,
        normalization: str = "round",
        max_iterations: int = MAX_ITERATIONS,
    ) -> None:
        if normalization not in {"round", "rescale"}:
            raise ValueError(
                f"normalization must be 'round' or 'rescale', got {normalization!r}"
            )
        self.default_trust = default_trust
        self.normalization = normalization
        self.max_iterations = max_iterations

    def run(self, dataset: Dataset) -> CorroborationResult:
        arrays = GroupArrays.from_dataset(dataset)
        trust = np.full(arrays.num_sources, self.default_trust)
        has_votes = arrays.source_has_votes()
        vote_weight = arrays.voted * arrays.sizes[:, None]
        total_votes = vote_weight.sum(axis=0)

        previous_labels: np.ndarray | None = None
        probs = np.full(arrays.num_groups, self.default_trust)
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            probs = self._fact_step(arrays, trust)
            labels = probs >= 0.5
            feedback = labels.astype(float) if self.normalization == "round" else probs
            # Agreement mass: T votes contribute the fact value, F votes its
            # complement, weighted by group size.
            agreement = (
                arrays.affirm * feedback[:, None]
                + arrays.deny * (1.0 - feedback)[:, None]
            ) * arrays.sizes[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                new_trust = agreement.sum(axis=0) / total_votes
            new_trust = np.where(has_votes, new_trust, self.default_trust)
            if self.normalization == "rescale":
                new_trust = rescale_unit(new_trust)
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
        probs = self._fact_step(arrays, trust)
        return self._result(
            probabilities=arrays.fact_probabilities(probs),
            trust=arrays.trust_mapping(trust),
            iterations=iterations,
        )

    def _fact_step(self, arrays: GroupArrays, trust: np.ndarray) -> np.ndarray:
        numerator = arrays.affirm @ trust + arrays.deny @ (1.0 - trust)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = numerator / arrays.degree
        return np.where(arrays.degree > 0, probs, self.default_trust)
