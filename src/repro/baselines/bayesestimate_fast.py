"""BayesEstimateFast — vectorised blocked-Gibbs Latent Truth Model.

The reference :class:`~repro.baselines.bayesestimate.BayesEstimate` runs
the textbook *collapsed* Gibbs sampler: facts are resampled one at a time
against leave-one-out counts, which is exact but inherently sequential —
tens of seconds on the 37k-listing crawl.  This variant trades exactness
for two orders of magnitude of speed:

* **blocked updates** — every fact is resampled against the *current*
  sweep's counts instead of leave-one-out counts.  With tens of thousands
  of observations per source, removing one fact changes the per-source
  rates by O(1/n); the stationary distribution is the same in the limit
  and indistinguishable in practice (the equivalence tests check this);
* **group-level state** — facts sharing a vote signature are exchangeable
  under the model, so the sampler tracks just the *number of true facts
  per group* and resamples it as a Binomial draw;
* **Rao-Blackwellised posterior** — the reported probability is the
  average of the per-sweep conditional P(t=1) rather than of the sampled
  0/1 assignments, which cuts the Monte-Carlo variance.

Same priors, same interface, same reported trust as the reference
implementation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.bayesestimate import BayesEstimate
from repro.core.arrays import GroupArrays
from repro.core.result import CorroborationResult
from repro.model.dataset import Dataset
from repro.model.matrix import FactId


class BayesEstimateFast(BayesEstimate):
    """Latent Truth Model with blocked, group-level Gibbs sampling.

    Args: identical to :class:`~repro.baselines.bayesestimate.BayesEstimate`,
    whose validation and per-source precision it inherits; only
    :meth:`run`, the sampler, differs.
    """

    name = "BayesEstimateFast"

    def run(self, dataset: Dataset) -> CorroborationResult:
        arrays = GroupArrays.from_dataset(dataset)
        if arrays.num_groups == 0:
            return self._result({}, {s: 0.5 for s in dataset.matrix.sources})
        rng = np.random.default_rng(self.seed)

        affirm, deny = arrays.affirm, arrays.deny  # (G, S) incidence
        sizes = arrays.sizes  # facts per group
        num_facts = float(sizes.sum())

        # Initial assignment: majority of informative votes (ties -> true),
        # matching the reference sampler's initialisation.
        degree = arrays.degree
        initial_true = (affirm.sum(axis=1) * 2 >= degree) | (degree == 0)
        n_true = np.where(initial_true, sizes, 0.0)  # true facts per group

        a1_1, a1_0 = self.alpha_true  # (affirmed | true), (denied | true)
        a0_1, a0_0 = self.alpha_false
        beta_true, beta_false = self.beta
        alpha1_sum = a1_1 + a1_0
        alpha0_sum = a0_1 + a0_0

        posterior = np.zeros(arrays.num_groups)
        total_sweeps = self.burn_in + self.samples
        for sweep in range(total_sweeps):
            n_false = sizes - n_true
            # Per-source observation counts by latent truth value:
            # c[t][o][s] = votes with observation o on facts assigned t.
            c1_affirm = affirm.T @ n_true
            c1_deny = deny.T @ n_true
            c0_affirm = affirm.T @ n_false
            c0_deny = deny.T @ n_false

            total_true = float(n_true.sum())
            log_odds_prior = np.log(
                (beta_true + total_true) / (beta_false + (num_facts - total_true))
            )
            # Per-source log-likelihood-ratio weights for one affirmative /
            # one denying observation.
            w_affirm = (
                np.log(a1_1 + c1_affirm)
                - np.log(alpha1_sum + c1_affirm + c1_deny)
                - np.log(a0_1 + c0_affirm)
                + np.log(alpha0_sum + c0_affirm + c0_deny)
            )
            w_deny = (
                np.log(a1_0 + c1_deny)
                - np.log(alpha1_sum + c1_affirm + c1_deny)
                - np.log(a0_0 + c0_deny)
                + np.log(alpha0_sum + c0_affirm + c0_deny)
            )
            log_odds = log_odds_prior + affirm @ w_affirm + deny @ w_deny
            p_true = 1.0 / (1.0 + np.exp(-np.clip(log_odds, -700, 700)))
            n_true = rng.binomial(sizes.astype(int), p_true).astype(float)
            if sweep >= self.burn_in:
                posterior += p_true  # Rao-Blackwellised accumulation

        posterior /= self.samples
        probabilities: dict[FactId, float] = arrays.fact_probabilities(
            np.clip(posterior, 0.0, 1.0)
        )
        trust = self._source_precision(dataset, probabilities)
        return self._result(probabilities, trust, iterations=total_sweeps)
