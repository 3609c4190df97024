"""Fact groups: facts sharing an identical vote signature (Section 5.1).

"We first group unevaluated facts based on the sources of the votes.  Facts
in the same group receive votes from the same set of sources" — and, since a
fact's corroborated probability (Equation 5) depends only on who voted and
how, all facts in a group necessarily receive the same corroboration result.
The incremental algorithm therefore reasons about *groups*, not individual
facts, which also keeps the entropy-ranking step tractable.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

from repro.model.matrix import FactId, Signature, SourceId, VoteMatrix
from repro.model.votes import Vote


@dataclasses.dataclass
class FactGroup:
    """A set of facts with an identical vote signature.

    Attributes:
        signature: canonical ((source, "T"/"F"), ...) tuple.
        facts: the member facts, in dataset order.
        engine_row: row index of this group inside a
            :class:`~repro.core.arrays.SessionArrays`; ``None`` for groups
            that are not owned by an array engine.  Excluded from equality.
    """

    signature: Signature
    facts: list[FactId]
    engine_row: int | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def size(self) -> int:
        return len(self.facts)

    @property
    def voters(self) -> list[SourceId]:
        return [source for source, _ in self.signature]

    def votes(self) -> dict[SourceId, Vote]:
        """The shared votes of the group as a source → Vote mapping."""
        return {source: Vote(symbol) for source, symbol in self.signature}

    def is_affirmative_only(self) -> bool:
        """Whether the group lies in F* (at least one vote, all T)."""
        return bool(self.signature) and all(
            symbol == Vote.TRUE.value for _, symbol in self.signature
        )

    def take(self, n: int) -> list[FactId]:
        """Remove and return the first ``n`` facts of the group.

        Mirrors the paper's ``peek`` which "pops the first elements".
        """
        if n < 0:
            raise ValueError(f"cannot take a negative number of facts: {n}")
        taken, self.facts = self.facts[:n], self.facts[n:]
        return taken

    def __repr__(self) -> str:
        sig = ",".join(f"{s}:{v}" for s, v in self.signature) or "<no votes>"
        return f"FactGroup({sig}; {self.size} facts)"


class FactGroupView:
    """Read-only, live view of a :class:`FactGroup`.

    Exposes the group's full inspection API but none of its mutators
    (no ``take``), so handing a view out cannot corrupt the owner's state.
    The view is *live*: ``facts`` and ``size`` track the underlying group
    as the incremental algorithm consumes it.
    :attr:`~repro.core.session.CorroborationSession.remaining_groups`
    returns these instead of deep-copying every group per access.
    """

    __slots__ = ("_group",)

    def __init__(self, group: FactGroup) -> None:
        self._group = group

    @property
    def signature(self) -> Signature:
        return self._group.signature

    @property
    def facts(self) -> tuple[FactId, ...]:
        """The member facts as an immutable snapshot tuple."""
        return tuple(self._group.facts)

    @property
    def size(self) -> int:
        return self._group.size

    @property
    def voters(self) -> list[SourceId]:
        return self._group.voters

    def votes(self) -> dict[SourceId, Vote]:
        return self._group.votes()

    def is_affirmative_only(self) -> bool:
        return self._group.is_affirmative_only()

    def __repr__(self) -> str:
        return f"FactGroupView({self._group!r})"


def group_facts(matrix: VoteMatrix, facts: Iterable[FactId] | None = None) -> list[FactGroup]:
    """Partition ``facts`` (default: all facts in ``matrix``) by signature.

    Group order is deterministic: groups appear in order of their first
    member fact, and members keep their order in ``facts``.  Each fact is
    keyed on its set of (source, vote) pairs — equal exactly when the
    signatures are — so the sorted signature tuple is built once per
    group, not once per fact.
    """
    scope = matrix.facts if facts is None else facts
    buckets: dict[frozenset, list[FactId]] = {}
    for fact in scope:
        key = frozenset(matrix.iter_votes_on(fact))
        members = buckets.get(key)
        if members is None:
            buckets[key] = [fact]
        else:
            members.append(fact)
    return [
        FactGroup(signature=matrix.signature(members[0]), facts=members)
        for members in buckets.values()
    ]


def group_probability(
    signature: Signature,
    trust: Mapping[SourceId, float],
    default_probability: float,
) -> float:
    """Corroborated probability shared by all facts of a group (Equation 5).

    σ(FG) is the mean over the group's voters of the trust value when the
    vote is T and of (1 − trust) when the vote is F.  Groups with an empty
    signature (facts nobody voted on) keep ``default_probability`` — the
    initial σ(F) of Algorithm 1.
    """
    if not signature:
        return default_probability
    total = 0.0
    for source, symbol in signature:
        t = trust[source]
        total += t if symbol == Vote.TRUE.value else 1.0 - t
    return total / len(signature)
