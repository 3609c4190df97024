"""Synthetic dataset generator — paper Section 6.3.1.

The model: all sources are *positive* (trust above 0.5) and split into

* **accurate** sources — trust σ(s) ~ U[0.7, 1.0]; each has a probability
  m(s) ~ U[0, 0.5] of casting an F vote for a (F-vote-eligible) false fact;
* **inaccurate** sources — trust σ(s) ~ U[0.5, 0.7]; never cast F votes.

Coverage follows the paper's Equation 11 — inaccurate sources cover more:

    c(s) = 1 − σ(s) + random() · 0.2

Each of the ``num_facts`` facts (paper: 20,000) is independently true or
false with probability 1/2, and a factor η bounds "the percentage of facts
that have F votes": only an η-fraction of the facts (drawn among the false
ones) is *eligible* to receive F votes at all.

Vote semantics (the paper does not spell these out; these choices follow
its error model — accurate sources err only through the F-vote channel
m(s), inaccurate sources only through stale affirmative listings — which
is also what produces the Figure 3 trends):

* a source covers a fact with probability c(s);
* on a covered **true** fact any source casts a T vote with probability
  σ(s) and otherwise abstains (nobody falsely denies an open restaurant);
* on a covered **false** fact an *accurate* source casts an F vote with
  probability m(s) when the fact is F-eligible and otherwise abstains (its
  curation removes stale listings), while an *inaccurate* source always
  casts a stale T vote — no curation is exactly what makes it inaccurate.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.model.dataset import Dataset
from repro.model.matrix import VoteMatrix
from repro.model.votes import Vote


@dataclasses.dataclass(frozen=True)
class SourceSpec:
    """The drawn parameters of one synthetic source."""

    name: str
    trust: float
    coverage: float
    f_vote_probability: float
    accurate: bool

    @property
    def erroneous_t_probability(self) -> float:
        """e(s): probability of a T vote on a covered false fact.

        Accurate sources curate their listings and never affirm a false
        fact; inaccurate sources carry every stale listing they cover.
        """
        return 0.0 if self.accurate else 1.0


@dataclasses.dataclass
class SyntheticWorld:
    """A generated instance plus the parameters that produced it."""

    dataset: Dataset
    specs: list[SourceSpec]
    eta: float

    @property
    def accurate_sources(self) -> list[SourceSpec]:
        return [s for s in self.specs if s.accurate]

    @property
    def inaccurate_sources(self) -> list[SourceSpec]:
        return [s for s in self.specs if not s.accurate]


def draw_source_specs(
    num_accurate: int, num_inaccurate: int, rng: np.random.Generator
) -> list[SourceSpec]:
    """Draw source parameters per the Section 6.3.1 model."""
    if num_accurate < 0 or num_inaccurate < 0:
        raise ValueError("source counts must be non-negative")
    if num_accurate + num_inaccurate == 0:
        raise ValueError("need at least one source")
    specs: list[SourceSpec] = []
    for i in range(num_accurate):
        trust = float(rng.uniform(0.7, 1.0))
        specs.append(
            SourceSpec(
                name=f"acc{i + 1}",
                trust=trust,
                coverage=_coverage(trust, rng),
                f_vote_probability=float(rng.uniform(0.0, 0.5)),
                accurate=True,
            )
        )
    for i in range(num_inaccurate):
        trust = float(rng.uniform(0.5, 0.7))
        specs.append(
            SourceSpec(
                name=f"inacc{i + 1}",
                trust=trust,
                coverage=_coverage(trust, rng),
                f_vote_probability=0.0,
                accurate=False,
            )
        )
    return specs


def _coverage(trust: float, rng: np.random.Generator) -> float:
    """Equation 11: c(s) = 1 − σ(s) + random() · 0.2, kept above a floor."""
    return float(np.clip(1.0 - trust + rng.random() * 0.2, 0.05, 1.0))


def generate_synthetic(
    num_accurate: int = 8,
    num_inaccurate: int = 2,
    num_facts: int = 20_000,
    eta: float = 0.03,
    seed: int = 0,
    name: str | None = None,
) -> SyntheticWorld:
    """Generate a synthetic corroboration problem.

    Args:
        num_accurate / num_inaccurate: source mix (Figure 3(a) varies the
            total with 2 inaccurate; Figure 3(b) varies the inaccurate count
            with 10 total).
        num_facts: paper default 20,000.
        eta: fraction of facts eligible for F votes (Figure 3(c) sweeps
            0.01–0.05).
        seed: RNG seed — generation is fully deterministic given the seed.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    if num_facts < 1:
        raise ValueError(f"num_facts must be positive, got {num_facts}")
    rng = np.random.default_rng(seed)
    specs = draw_source_specs(num_accurate, num_inaccurate, rng)

    truth = rng.random(num_facts) < 0.5
    false_indices = np.flatnonzero(~truth)
    num_eligible = min(round(eta * num_facts), false_indices.size)
    eligible = np.zeros(num_facts, dtype=bool)
    if num_eligible:
        eligible[rng.choice(false_indices, size=num_eligible, replace=False)] = True

    matrix = VoteMatrix()
    fact_ids = [f"f{i}" for i in range(num_facts)]
    for fact in fact_ids:
        matrix.add_fact(fact)
    for spec in specs:
        matrix.add_source(spec.name)
        covered = rng.random(num_facts) < spec.coverage
        roll = rng.random(num_facts)
        # True facts: T vote with probability σ(s).
        t_on_true = covered & truth & (roll < spec.trust)
        # False facts: F with probability m(s) when eligible, else an
        # erroneous T with probability e(s) (disjoint probability bands).
        f_band = spec.f_vote_probability
        f_on_false = covered & ~truth & eligible & (roll < f_band)
        e_band = spec.erroneous_t_probability
        t_on_false = (
            covered
            & ~truth
            & ~f_on_false
            & (roll >= f_band * eligible)
            & (roll < f_band * eligible + e_band)
        )
        for idx in np.flatnonzero(t_on_true):
            matrix.add_vote(fact_ids[idx], spec.name, Vote.TRUE)
        for idx in np.flatnonzero(t_on_false):
            matrix.add_vote(fact_ids[idx], spec.name, Vote.TRUE)
        for idx in np.flatnonzero(f_on_false):
            matrix.add_vote(fact_ids[idx], spec.name, Vote.FALSE)

    dataset = Dataset(
        matrix=matrix,
        truth={fact: bool(t) for fact, t in zip(fact_ids, truth)},
        name=name
        or (
            f"synthetic[{num_accurate}acc+{num_inaccurate}inacc, "
            f"{num_facts}f, eta={eta}]"
        ),
    )
    return SyntheticWorld(dataset=dataset, specs=specs, eta=eta)


# ---------------------------------------------------------------------------
# Sparse web-scale tier
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class SparseSyntheticWorld:
    """A web-scale sparse instance plus its structural parameters.

    ``num_templates`` distinct vote signatures shared by ``num_facts``
    facts: the grouping step collapses the instance to ``num_templates``
    fact groups, which is what makes a million facts tractable — every
    per-group structure stays small while the fact axis, the vote count
    and the source axis are genuinely web-scale.
    """

    dataset: Dataset
    num_templates: int
    num_hubs: int
    votes: int


def generate_sparse_synthetic(
    num_facts: int = 1_000_000,
    num_sources: int = 10_000,
    num_templates: int = 2_400,
    min_voters: int = 2,
    max_voters: int = 6,
    num_hubs: int = 150,
    hub_bias: float = 0.5,
    false_vote_rate: float = 0.2,
    seed: int = 0,
    name: str | None = None,
) -> SparseSyntheticWorld:
    """Generate a sparse million-fact / ten-thousand-source instance.

    The generator is *template-based*: it draws ``num_templates`` vote
    signatures — each a set of 2–6 (source, vote) pairs — and assigns every
    fact to one template.  Facts sharing a template share a signature
    bit-for-bit, so the grouping step produces ``num_templates`` fact
    groups regardless of ``num_facts``; no dense per-source array is ever
    materialised, and grouping keys each fact on its set of votes at any
    source count.

    Source selection is hub-biased: each voter slot picks from a small hub
    pool with probability ``hub_bias`` and from the long tail otherwise.
    Hubs are what make templates *share* sources — they bound the size of
    the ΔH pair graph (two groups pair iff they share a voter), so the
    knobs ``num_hubs``/``hub_bias`` directly control the selection
    engine's working set.

    Truth is i.i.d. fair per fact; each template vote is F with
    probability ``false_vote_rate``.  Fully deterministic given ``seed``.
    """
    if num_facts < 1 or num_sources < 1 or num_templates < 1:
        raise ValueError("num_facts, num_sources and num_templates must be positive")
    if num_templates > num_facts:
        raise ValueError(
            f"num_templates ({num_templates}) cannot exceed num_facts ({num_facts})"
        )
    if not 1 <= min_voters <= max_voters <= num_sources:
        raise ValueError(
            f"need 1 <= min_voters <= max_voters <= num_sources, got "
            f"{min_voters}..{max_voters} over {num_sources} sources"
        )
    if not 0 < num_hubs <= num_sources:
        raise ValueError(f"num_hubs must be in [1, {num_sources}], got {num_hubs}")
    if not 0.0 <= hub_bias <= 1.0:
        raise ValueError(f"hub_bias must be in [0, 1], got {hub_bias}")
    if not 0.0 <= false_vote_rate <= 1.0:
        raise ValueError(f"false_vote_rate must be in [0, 1], got {false_vote_rate}")
    rng = np.random.default_rng(seed)
    source_ids = [f"s{i}" for i in range(num_sources)]
    tail = num_sources - num_hubs

    # Draw the template signatures: distinct voters per template, each
    # slot hub-biased, each vote F with probability false_vote_rate.
    templates: list[list[tuple[str, Vote]]] = []
    for _ in range(num_templates):
        k = int(rng.integers(min_voters, max_voters + 1))
        n_hub = int(rng.binomial(k, hub_bias)) if tail else k
        n_hub = min(n_hub, num_hubs)
        voters = rng.choice(num_hubs, size=n_hub, replace=False)
        if k - n_hub:
            voters = np.concatenate(
                (
                    voters,
                    num_hubs + rng.choice(tail, size=k - n_hub, replace=False),
                )
            )
        votes = np.where(rng.random(k) < false_vote_rate, 1, 0)
        templates.append(
            [
                (source_ids[int(v)], Vote.FALSE if f else Vote.TRUE)
                for v, f in zip(voters, votes)
            ]
        )

    template_of = rng.integers(0, num_templates, size=num_facts)
    truth = rng.random(num_facts) < 0.5

    matrix = VoteMatrix()
    for source in source_ids:
        matrix.add_source(source)
    votes_total = 0
    add_votes = matrix.add_votes
    for i in range(num_facts):
        template = templates[template_of[i]]
        add_votes(f"f{i}", template)
        votes_total += len(template)

    dataset = Dataset(
        matrix=matrix,
        truth={f"f{i}": bool(t) for i, t in enumerate(truth)},
        name=name
        or (
            f"sparse-synthetic[{num_facts}f, {num_sources}s, "
            f"{num_templates}g]"
        ),
    )
    return SparseSyntheticWorld(
        dataset=dataset,
        num_templates=num_templates,
        num_hubs=num_hubs,
        votes=votes_total,
    )
