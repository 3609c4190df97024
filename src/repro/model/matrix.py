"""Sparse vote matrix.

:class:`VoteMatrix` is the central data structure shared by every
corroboration algorithm in this library.  It stores the (fact, source) →
:class:`~repro.model.votes.Vote` relation sparsely and maintains both
orientations of the index so that algorithms can iterate efficiently either
per fact (``Corrob`` steps) or per source (``Update_Trust`` steps).

The matrix is deliberately *append-only*: corroboration algorithms treat the
observed votes as immutable evidence, and the incremental algorithm's notion
of "evaluated so far" is tracked outside the matrix (see
:mod:`repro.core.trust`).

Append-only mutation makes cheap derived state safe, and the matrix
maintains two kinds of it:

* the :attr:`~VoteMatrix.facts` / :attr:`~VoteMatrix.sources` lists are
  cached and invalidated when a new fact or source is registered, so
  callers that touch these properties inside loops no longer pay O(n)
  list construction per access;
* :meth:`~VoteMatrix.derived_cache` holds structures computed from the
  votes (the fact grouping, the dense group arrays, the checkpoint
  fingerprint) and is cleared on every mutation, so a present entry is
  always consistent with the current votes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.model.votes import Vote

FactId = str
SourceId = str

#: A fact's *vote signature*: the canonically-ordered tuple of
#: (source, vote symbol) pairs.  Facts with equal signatures are
#: indistinguishable to every algorithm in this library and form the paper's
#: "fact groups" (Section 5.1).
Signature = tuple[tuple[SourceId, str], ...]

#: Shared empty mapping backing the non-copying iterators for unknown keys.
_EMPTY_VOTES: dict = {}


class VoteMatrix:
    """Sparse map of the votes cast by sources over facts.

    The matrix registers facts and sources explicitly so that isolated items
    (a fact no source voted on, or a source that cast no votes) are still
    part of the problem instance — the paper's metrics are computed over all
    facts, voted on or not.
    """

    def __init__(self) -> None:
        self._by_fact: dict[FactId, dict[SourceId, Vote]] = {}
        self._by_source: dict[SourceId, dict[FactId, Vote]] = {}
        self._facts_cache: list[FactId] | None = None
        self._sources_cache: list[SourceId] | None = None
        self._derived_cache: dict = {}

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without derived caches (group arrays, fact/source lists).

        The caches are pure functions of the vote data and can hold large
        NumPy blocks; dropping them keeps the payload a sharded sweep ships
        to each worker proportional to the votes, and workers rebuild on
        first use.
        """
        state = self.__dict__.copy()
        state["_derived_cache"] = {}
        state["_facts_cache"] = None
        state["_sources_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        if self._derived_cache:
            self._derived_cache.clear()

    def add_fact(self, fact: FactId) -> None:
        """Register ``fact`` (idempotent)."""
        if fact not in self._by_fact:
            self._by_fact[fact] = {}
            self._facts_cache = None
            self._invalidate()

    def add_source(self, source: SourceId) -> None:
        """Register ``source`` (idempotent)."""
        if source not in self._by_source:
            self._by_source[source] = {}
            self._sources_cache = None
            self._invalidate()

    def add_vote(self, fact: FactId, source: SourceId, vote: Vote) -> None:
        """Record that ``source`` cast ``vote`` on ``fact``.

        Re-casting a different vote for the same (fact, source) pair is an
        error: a crawl snapshot contains at most one statement per pair, and
        silently overwriting would hide dataset-construction bugs.
        """
        self.add_votes(fact, ((source, vote),))

    def add_votes(
        self, fact: FactId, votes: Iterable[tuple[SourceId, Vote]]
    ) -> None:
        """Record several votes on ``fact`` in one call.

        Registers ``fact``, then each vote's source on first sight, in
        order, and pays the cache invalidation once per call instead of
        once per vote — the bulk path that dataset loads, the sparse
        synthetic generator and every refresh epoch's matrix
        (:meth:`~repro.store.ledger.VoteLedger.epoch_dataset`) feed their
        votes through.  Per vote it does only the type and conflict checks
        and the two index writes.  A vote that fails a check raises; the
        votes before it stay recorded.
        """
        self.add_fact(fact)
        fact_votes = self._by_fact[fact]
        by_source = self._by_source
        true, false = Vote.TRUE, Vote.FALSE
        try:
            for source, vote in votes:
                # ``Vote`` has exactly two members, so this is isinstance().
                if vote is not true and vote is not false:
                    raise TypeError(
                        f"vote must be a Vote, got {type(vote).__name__}"
                    )
                existing = fact_votes.get(source)
                if existing is not None:
                    if existing is not vote:
                        raise ValueError(
                            f"conflicting vote for fact={fact!r} "
                            f"source={source!r}: {existing} already "
                            f"recorded, attempted {vote}"
                        )
                    continue
                source_votes = by_source.get(source)
                if source_votes is None:
                    self.add_source(source)
                    source_votes = by_source[source]
                fact_votes[source] = vote
                source_votes[fact] = vote
        finally:
            self._invalidate()

    @classmethod
    def from_rows(
        cls,
        sources: Iterable[SourceId],
        rows: Mapping[FactId, Iterable[str]],
    ) -> "VoteMatrix":
        """Build a matrix from paper-style table rows.

        ``rows`` maps each fact to a sequence of vote symbols aligned with
        ``sources`` — exactly the layout of the paper's Table 1:

        >>> m = VoteMatrix.from_rows(["s1", "s2"], {"r1": ["T", "-"]})
        >>> m.vote("r1", "s1")
        Vote.TRUE
        >>> m.vote("r1", "s2") is None
        True
        """
        source_list = list(sources)
        matrix = cls()
        for source in source_list:
            matrix.add_source(source)
        for fact, symbols in rows.items():
            symbol_list = list(symbols)
            if len(symbol_list) != len(source_list):
                raise ValueError(
                    f"fact {fact!r}: expected {len(source_list)} vote symbols, "
                    f"got {len(symbol_list)}"
                )
            matrix.add_fact(fact)
            for source, symbol in zip(source_list, symbol_list):
                vote = Vote.from_symbol(symbol)
                if vote is not None:
                    matrix.add_vote(fact, source, vote)
        return matrix

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def facts(self) -> list[FactId]:
        """All registered facts, in registration order.

        The list is cached until the next ``add_*`` call and shared between
        accesses — treat it as read-only.
        """
        if self._facts_cache is None:
            self._facts_cache = list(self._by_fact)
        return self._facts_cache

    @property
    def sources(self) -> list[SourceId]:
        """All registered sources, in registration order.

        The list is cached until the next ``add_*`` call and shared between
        accesses — treat it as read-only.
        """
        if self._sources_cache is None:
            self._sources_cache = list(self._by_source)
        return self._sources_cache

    def derived_cache(self) -> dict:
        """Scratch space for derived structures, cleared on every mutation.

        Callers key their entries by name (e.g. ``"group_arrays"``); because
        the dict is cleared whenever the matrix changes, a present entry is
        always consistent with the current votes.
        """
        return self._derived_cache

    @property
    def num_facts(self) -> int:
        return len(self._by_fact)

    @property
    def num_sources(self) -> int:
        return len(self._by_source)

    @property
    def num_votes(self) -> int:
        """Total number of informative (T or F) votes."""
        return sum(len(votes) for votes in self._by_fact.values())

    def vote(self, fact: FactId, source: SourceId) -> Vote | None:
        """The vote of ``source`` on ``fact``, or ``None`` for ``-``."""
        return self._by_fact.get(fact, {}).get(source)

    def votes_on(self, fact: FactId) -> dict[SourceId, Vote]:
        """All informative votes on ``fact`` as a fresh dict."""
        return dict(self._by_fact.get(fact, {}))

    def votes_by(self, source: SourceId) -> dict[FactId, Vote]:
        """All informative votes cast by ``source`` as a fresh dict."""
        return dict(self._by_source.get(source, {}))

    def iter_votes_by(self, source: SourceId) -> Iterator[tuple[FactId, Vote]]:
        """Iterate the (fact, vote) pairs of ``source`` without copying.

        The non-allocating counterpart of :meth:`votes_by` for hot loops
        (e.g. ``update_trust`` sweeps every source each call); do not mutate
        the matrix while iterating.
        """
        return iter(self._by_source.get(source, _EMPTY_VOTES).items())

    def iter_votes_on(self, fact: FactId) -> Iterator[tuple[SourceId, Vote]]:
        """Iterate the (source, vote) pairs on ``fact`` without copying."""
        return iter(self._by_fact.get(fact, _EMPTY_VOTES).items())

    def voters(self, fact: FactId) -> list[SourceId]:
        """Sources that cast an informative vote on ``fact``."""
        return list(self._by_fact.get(fact, {}))

    def signature(self, fact: FactId) -> Signature:
        """The canonical vote signature of ``fact`` (see :data:`Signature`)."""
        votes = self._by_fact.get(fact, {})
        return tuple(sorted((source, vote.value) for source, vote in votes.items()))

    def has_only_affirmative(self, fact: FactId) -> bool:
        """Whether ``fact`` belongs to the paper's F* (T votes only).

        Facts with no votes at all are *not* in F*: F* is defined as facts
        "for which there are T votes only", which presupposes at least one.
        """
        votes = self._by_fact.get(fact, {})
        return bool(votes) and all(v is Vote.TRUE for v in votes.values())

    def affirmative_only_facts(self) -> list[FactId]:
        """Facts in F* — at least one vote and all votes are T."""
        return [f for f in self._by_fact if self.has_only_affirmative(f)]

    def conflicted_facts(self) -> list[FactId]:
        """Facts that received at least one F vote."""
        return [
            f
            for f, votes in self._by_fact.items()
            if any(v is Vote.FALSE for v in votes.values())
        ]

    def __contains__(self, fact: FactId) -> bool:
        return fact in self._by_fact

    def __iter__(self) -> Iterator[FactId]:
        return iter(self._by_fact)

    def __len__(self) -> int:
        return len(self._by_fact)

    def __repr__(self) -> str:
        return (
            f"VoteMatrix(facts={self.num_facts}, sources={self.num_sources}, "
            f"votes={self.num_votes})"
        )

    # ------------------------------------------------------------------
    # Derived statistics (paper Table 3)
    # ------------------------------------------------------------------
    def coverage(self, source: SourceId) -> float:
        """Fraction of all facts the source voted on (Table 3, coverage)."""
        if not self._by_fact:
            return 0.0
        return len(self._by_source.get(source, {})) / len(self._by_fact)

    def overlap(self, source_a: SourceId, source_b: SourceId) -> float:
        """Jaccard overlap of the fact sets of two sources (Table 3).

        The paper describes overlap as "a measure of how much two sources
        have in common"; Jaccard similarity of the voted-fact sets matches
        the reported matrix (diagonal = 1, symmetric, values shrink for
        low-coverage sources such as OpenTable).
        """
        facts_a = set(self._by_source.get(source_a, {}))
        facts_b = set(self._by_source.get(source_b, {}))
        union = facts_a | facts_b
        if not union:
            return 0.0
        return len(facts_a & facts_b) / len(union)
