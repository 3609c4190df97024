"""Fact-selection strategies for the incremental algorithm (Section 5.1).

At each time point the incremental algorithm asks a strategy which facts to
evaluate next, given the remaining fact groups and the current trust values:

* :class:`IncEstHeu` — the paper's entropy-driven heuristic (Algorithm 2).
  Groups are split into a positive part P (σ(FG) > 0.5) and a negative part
  N; each part is ranked by the ΔH(F̄) score of Equation 9 (the collective
  entropy change of the *remaining* groups if this group were evaluated) and
  the top group of each part is selected, taking the same number of facts
  n = min(|FG⁺|, |FG⁻|) from both so that neither side dominates the trust
  update.
* :class:`IncEstPS` — the naive greedy comparison strategy of Section 6.1.1:
  always select the group with the highest probability.

The ΔH ranking runs on the pair-level kernel of :mod:`repro.core.deltah`:
only ordered pairs of groups sharing a source carry a non-zero entropy
term, and between time points only the pairs whose inputs moved are
re-scored (see the module doc there and docs/performance.md).  Sessions
score against their cached pair terms, hand-built contexts through a
one-shot full rescan of the same kernel, so the ranking — including
tie-break order — is bit-identical either way.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.arrays import SessionArrays
from repro.core.deltah import DeltaHEngine, DeltaHStatic
from repro.core.entropy import binary_entropy_array
from repro.core.fact_groups import FactGroup, group_probability
from repro.model.matrix import SourceId
from repro.obs import NULL_OBS, Obs


@dataclasses.dataclass
class SelectionContext:
    """Everything a strategy may look at when choosing the next facts.

    Attributes:
        groups: remaining (non-empty) fact groups.
        trust: σi(S), the current trust value per source.
        default_trust: λ — trust of sources with no evaluated votes yet.
        default_fact_probability: probability assigned to facts with no
            votes (the initial σ(F)).
        correct_counts / total_counts: per-source running counters over the
            facts evaluated so far (numerator and denominator of the trust
            values, including any prior pseudo-votes the driver seeds them
            with); strategies use them to *hypothetically* advance the
            trust update without touching real state.
        arrays: the session's array engine, when the driver runs one.  When
            set, ``groups`` is exactly the engine's active groups (in row
            order), the engine's :attr:`~repro.core.arrays.SessionArrays.\
probabilities` are current for this time point, and the ΔH ranking reads
            the session's pair-term cache instead of rebuilding it.
            ``None`` for hand-built contexts (the test oracle's among
            them); every strategy must work in both modes.
        obs: the driver's observability bundle (:mod:`repro.obs`); the
            no-op :data:`~repro.obs.NULL_OBS` by default.  Strategies may
            emit spans and metrics through it but must never let it
            influence what they select.
        stats: per-round observability scratch.  Strategies record
            round-level numbers here (``candidates_rescored`` /
            ``candidates_skipped``) when observability is enabled; the
            session attaches them to its ``steps`` span.  Never read by
            selection logic.
    """

    groups: Sequence[FactGroup]
    trust: Mapping[SourceId, float]
    default_trust: float
    default_fact_probability: float
    correct_counts: Mapping[SourceId, float]
    total_counts: Mapping[SourceId, float]
    arrays: SessionArrays | None = None
    obs: Obs = NULL_OBS
    stats: dict = dataclasses.field(default_factory=dict)

    def group_probabilities(self) -> list[float]:
        """σ(FG) for each remaining group under the current trust."""
        return self.group_probabilities_array().tolist()

    def group_probabilities_array(self) -> np.ndarray:
        """:meth:`group_probabilities` as a float ndarray (no copies when
        the array engine is active)."""
        if self.arrays is not None:
            return self.arrays.probabilities[self.arrays.active_rows()]
        return np.array(
            [
                group_probability(
                    g.signature, self.trust, self.default_fact_probability
                )
                for g in self.groups
            ]
        )


@dataclasses.dataclass
class SelectionItem:
    """One selected group: how many facts to take and the label to assign.

    ``label`` is the evaluation outcome the strategy projects for the
    group: positive-part selections are "projected to be valid" (true) and
    negative-part ones "projected to be corrupt" (false) — the Section 5.1
    walkthrough's wording.  ``None`` defers to the Equation 2 threshold
    rule (σ ≥ 0.5 → true); strategies use it when they make no projection
    (IncEstPS, and the one-sided flush).  The distinction only matters for
    groups at σ(FG) = 0.5 exactly, which Algorithm 2 places in the negative
    part while Equation 2 would label true — at the default trust λ every
    (one T vote + one F vote) signature sits precisely there, so the
    resolution is behaviourally significant.
    """

    group: FactGroup
    count: int
    label: bool | None = None


#: A strategy's answer for one time point.
Selection = list[SelectionItem]


class SelectionStrategy(abc.ABC):
    """Interface for time-point fact selection (Algorithm 1 line 3)."""

    name: str = "strategy"

    @abc.abstractmethod
    def select(self, context: SelectionContext) -> Selection:
        """Choose the facts to evaluate at this time point.

        Must request at least one fact whenever ``context.groups`` is
        non-empty; the driver enforces this to guarantee termination.
        """


class IncEstPS(SelectionStrategy):
    """Greedy probability-first selection (Section 6.1.1).

    Selects the entire fact group with the highest current probability.
    The paper uses it to show why a naive strategy fails: high-probability
    groups evaluate to true, which keeps every trust value at 1 until only
    F-vote groups remain.
    """

    name = "IncEstPS"

    def select(self, context: SelectionContext) -> Selection:
        if not context.groups:
            return []
        probabilities = context.group_probabilities_array()
        best = int(np.argmax(probabilities))
        group = context.groups[best]
        context.obs.metrics.inc("selection.greedy_rounds")
        return [SelectionItem(group, group.size)]


class IncEstHeu(SelectionStrategy):
    """Entropy-driven balanced selection (Algorithm 2).

    The ranking score of a candidate group is

        score(FG) = ΔH_cross(FG) − own_entropy_weight · H(FG)

    where ΔH_cross is Equation 9's sum of entropy changes over the *other*
    remaining groups, and H(FG) is the group's own collective entropy.
    With ``own_entropy_weight = 1`` the score equals the change of the total
    remaining entropy H(F̄i+1) − H(F̄i) — the paper's *stated* objective
    ("we model the fact selection problem as a problem to maximize the
    collective entropy H(F̄i) of unknown facts", Section 5.1), which is what
    penalises selecting ambiguous (σ ≈ 0.5) groups whose labels would be
    coin flips.  With ``own_entropy_weight = 0`` the score is Equation 9
    exactly as printed; on large affirmative-dominated datasets that
    variant degenerates (it favours minimal-impact ambiguous singletons
    whose wrong labels pin barely-observed sources at trust 0/1 — see the
    ablation bench), so the objective-consistent form is the default.

    Args:
        flush_when_one_sided: the Section 5.1 "special case" — when every
            remaining group falls on one side of 0.5 the outcome of the
            remaining facts is settled, so all of them are evaluated in a
            single final time point.  Disable to instead keep consuming one
            top-scoring group per time point (useful for trajectory
            ablations).
        own_entropy_weight: weight of the selected group's own entropy in
            the ranking score (see above).
        projection_smoothing: pseudo-vote count k of the *hypothetical*
            trust update used for ranking: the projected trust of a source
            is (correct + λ·k + Δcorrect) / (total + k + Δtotal).  Early in
            the run real vote totals are tiny, so the unsmoothed projection
            jumps to 0/1 for any touched source and the ΔH ranking becomes
            noise; a small k keeps projections anchored at the default
            trust λ until real evidence accumulates.  The *actual* trust
            update of the driver stays unsmoothed, exactly as in the
            paper's worked example.
    """

    name = "IncEstHeu"

    def __init__(
        self,
        flush_when_one_sided: bool = True,
        own_entropy_weight: float = 1.0,
        projection_smoothing: float = 0.0,
    ) -> None:
        if own_entropy_weight < 0:
            raise ValueError(
                f"own_entropy_weight must be >= 0, got {own_entropy_weight}"
            )
        if projection_smoothing < 0:
            raise ValueError(
                f"projection_smoothing must be >= 0, got {projection_smoothing}"
            )
        self.flush_when_one_sided = flush_when_one_sided
        self.own_entropy_weight = own_entropy_weight
        self.projection_smoothing = projection_smoothing

    def select(self, context: SelectionContext) -> Selection:
        groups = list(context.groups)
        if not groups:
            return []
        context.obs.metrics.observe("selection.groups_per_round", len(groups))
        probabilities = context.group_probabilities_array()
        positive_mask = probabilities > 0.5
        positive = np.flatnonzero(positive_mask)
        negative = np.flatnonzero(~positive_mask)

        # Per-side winner = highest score, lowest index on ties — which is
        # exactly np.argmax's first-maximum rule over the side's subarray.
        def side_best(side: np.ndarray, scores: np.ndarray) -> int:
            return int(side[np.argmax(scores[side])])

        # When a side has a single member the argmax over it is forced, so
        # the ΔH ranking (the expensive part) is skipped entirely; the
        # selection is identical because the scores are only ever consumed
        # through per-side maxima.
        if len(positive) == 0 or len(negative) == 0:
            if self.flush_when_one_sided:
                context.obs.metrics.inc("selection.flush_rounds")
                return [SelectionItem(g, g.size) for g in groups]
            side = positive if len(positive) else negative
            if len(side) == 1:
                best = int(side[0])
            else:
                best = side_best(side, self._scores(context, probabilities))
            return [SelectionItem(groups[best], groups[best].size)]

        if len(positive) == 1 and len(negative) == 1:
            best_pos, best_neg = int(positive[0]), int(negative[0])
        else:
            scores = self._scores(context, probabilities)
            best_pos = side_best(positive, scores)
            best_neg = side_best(negative, scores)
        n = min(groups[best_pos].size, groups[best_neg].size)
        return [
            SelectionItem(groups[best_pos], n, label=True),
            SelectionItem(groups[best_neg], n, label=False),
        ]

    def _scores(
        self, context: SelectionContext, probabilities: np.ndarray
    ) -> np.ndarray:
        obs = context.obs
        obs.metrics.inc("selection.delta_h_rounds")
        obs.metrics.inc("selection.delta_h_groups_scored", len(probabilities))
        with obs.tracer.span(
            "selection.delta_h", groups=len(probabilities)
        ) as span:
            cross = _delta_h_scores(
                context, probabilities, smoothing=self.projection_smoothing
            )
            stats = context.stats
            if "candidates_rescored" in stats:
                obs.metrics.inc(
                    "selection.candidates_rescored",
                    stats["candidates_rescored"],
                )
                obs.metrics.inc(
                    "selection.candidates_skipped",
                    stats["candidates_skipped"],
                )
                span.add(
                    candidates_rescored=stats["candidates_rescored"],
                    candidates_skipped=stats["candidates_skipped"],
                )
        if self.own_entropy_weight == 0.0:
            return cross
        if context.arrays is not None:
            arrays = context.arrays
            sizes = arrays.sizes[arrays.active_rows()]
        else:
            sizes = np.array([g.size for g in context.groups], dtype=float)
        own = binary_entropy_array(probabilities) * sizes
        return cross - self.own_entropy_weight * own


def _delta_h_scores(
    context: SelectionContext,
    probabilities: np.ndarray,
    smoothing: float = 0.0,
) -> np.ndarray:
    """ΔH(F̄)_FG of Equation 9 for every remaining group.

    For each candidate group FG: hypothetically evaluate *all* its facts
    under the current trust (rounding the shared probability to a label),
    fold them into the per-source agreement counters (optionally anchored
    by ``smoothing`` pseudo-votes at the default trust), derive the
    hypothetical trust vector σi+1(S), and sum the resulting entropy change
    over every other remaining group (group entropy = group size × H(σ)).

    Both context flavours route through the pair-level kernel of
    :mod:`repro.core.deltah`: a session's context scores incrementally
    against the session-lifetime pair cache of its array engine, and a
    hand-built context builds a one-shot pair graph and rescans it in
    full.  One kernel, one reduction layout — the results are
    bit-identical either way.
    """
    groups = context.groups
    arrays = context.arrays
    collect = context.obs.metrics.enabled or context.obs.tracer.enabled
    if arrays is not None:
        engine = arrays.dh_engine()
        delta = engine.cross_scores(
            correct=arrays.correct,
            total=arrays.total,
            sizes=arrays.sizes,
            active=arrays.active,
            probabilities=arrays.probabilities,
            default_trust=context.default_trust,
            default_fact_probability=context.default_fact_probability,
            smoothing=smoothing,
            collect_stats=collect,
        )
        if collect:
            context.stats["candidates_rescored"] = engine.last_rescored
            context.stats["candidates_skipped"] = engine.last_skipped
        return delta[arrays.active_rows()]
    if collect:
        context.stats["candidates_rescored"] = len(groups)
        context.stats["candidates_skipped"] = 0
    sources = list(context.trust)
    static = DeltaHStatic.build(list(groups), sources)
    engine = DeltaHEngine(static)
    correct = np.array(
        [context.correct_counts.get(s, 0) for s in sources], dtype=float
    )
    total = np.array(
        [context.total_counts.get(s, 0) for s in sources], dtype=float
    )
    sizes = np.array([g.size for g in groups], dtype=float)
    return engine.cross_scores(
        correct=correct,
        total=total,
        sizes=sizes,
        active=np.ones(len(groups), dtype=bool),
        probabilities=np.asarray(probabilities, dtype=float),
        default_trust=context.default_trust,
        default_fact_probability=context.default_fact_probability,
        smoothing=smoothing,
        full=True,
    )
