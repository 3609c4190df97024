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
maintains three kinds of it:

* the :attr:`~VoteMatrix.facts` / :attr:`~VoteMatrix.sources` lists are
  cached and invalidated when a new fact or source is registered, so
  callers that touch these properties inside loops no longer pay O(n)
  list construction per access;
* every fact carries an incrementally-maintained *packed signature code*
  (2 bits per source), so the fact-grouping step of the array engine
  (:mod:`repro.core.arrays`) is a single integer-key partition instead of
  per-fact signature construction and sorting.  Code maintenance is
  dropped once the source axis grows past
  :data:`SIGNATURE_CODE_SOURCE_LIMIT` — at web scale the per-fact big-ints
  would dominate memory, and grouping falls back to signature-tuple
  bucketing (:attr:`~VoteMatrix.has_signature_codes`);
* a :attr:`version` counter ticks on every mutation, letting derived
  structures (e.g. the dense group arrays) cache themselves against a
  matrix snapshot via :meth:`derived_cache`.
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

#: Beyond this many sources the matrix stops maintaining packed signature
#: codes: each code holds 2 bits per source column, so at 10k+ sources a
#: million facts would pin gigabytes of Python big-ints for an index the
#: grouping step can live without (it buckets signature tuples instead).
SIGNATURE_CODE_SOURCE_LIMIT = 1024


class VoteMatrix:
    """Sparse map of the votes cast by sources over facts.

    The matrix registers facts and sources explicitly so that isolated items
    (a fact no source voted on, or a source that cast no votes) are still
    part of the problem instance — the paper's metrics are computed over all
    facts, voted on or not.
    """

    #: Packed signature-code values: 2 bits per source, low bit = T vote,
    #: high bit = F vote.  Python ints are arbitrary precision, so the
    #: encoding works for any number of sources.
    _CODE_TRUE = 1
    _CODE_FALSE = 2

    def __init__(self) -> None:
        self._by_fact: dict[FactId, dict[SourceId, Vote]] = {}
        self._by_source: dict[SourceId, dict[FactId, Vote]] = {}
        #: Column index of each source, in registration order.
        self._source_pos: dict[SourceId, int] = {}
        #: Packed signature code per fact (see :meth:`signature_codes`);
        #: ``None`` once maintenance is dropped for a wide source axis.
        self._sig_codes: dict[FactId, int] | None = {}
        self._facts_cache: list[FactId] | None = None
        self._sources_cache: list[SourceId] | None = None
        self._version = 0
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
        self._version += 1
        if self._derived_cache:
            self._derived_cache.clear()

    def add_fact(self, fact: FactId) -> None:
        """Register ``fact`` (idempotent)."""
        if fact not in self._by_fact:
            self._by_fact[fact] = {}
            if self._sig_codes is not None:
                self._sig_codes[fact] = 0
            self._facts_cache = None
            self._invalidate()

    def add_source(self, source: SourceId) -> None:
        """Register ``source`` (idempotent)."""
        if source not in self._by_source:
            self._source_pos[source] = len(self._by_source)
            self._by_source[source] = {}
            if (
                self._sig_codes is not None
                and len(self._by_source) > SIGNATURE_CODE_SOURCE_LIMIT
            ):
                self._sig_codes = None
            self._sources_cache = None
            self._invalidate()

    def add_vote(self, fact: FactId, source: SourceId, vote: Vote) -> None:
        """Record that ``source`` cast ``vote`` on ``fact``.

        Re-casting a different vote for the same (fact, source) pair is an
        error: a crawl snapshot contains at most one statement per pair, and
        silently overwriting would hide dataset-construction bugs.
        """
        if not isinstance(vote, Vote):
            raise TypeError(f"vote must be a Vote, got {type(vote).__name__}")
        existing = self._by_fact.get(fact, {}).get(source)
        if existing is not None:
            if existing is not vote:
                raise ValueError(
                    f"conflicting vote for fact={fact!r} source={source!r}: "
                    f"{existing} already recorded, attempted {vote}"
                )
            return
        self.add_fact(fact)
        self.add_source(source)
        self._by_fact[fact][source] = vote
        self._by_source[source][fact] = vote
        if self._sig_codes is not None:
            code = self._CODE_TRUE if vote is Vote.TRUE else self._CODE_FALSE
            self._sig_codes[fact] += code << (2 * self._source_pos[source])
        self._invalidate()

    def add_votes(
        self, fact: FactId, votes: Iterable[tuple[SourceId, Vote]]
    ) -> None:
        """Record several votes on ``fact`` in one call.

        Semantically identical to looping :meth:`add_vote` (same
        registration order, same ``votes_by`` order, same signature codes),
        but pays the registration, signature-code and cache-invalidation
        overhead once per fact instead of once per vote — the bulk path
        that dataset loads, the sparse synthetic generator and every
        refresh epoch's matrix (:meth:`~repro.store.ledger.VoteLedger
        .epoch_dataset`) feed their votes through.  Per vote it does only
        the type and conflict checks and the two index writes.
        """
        self.add_fact(fact)
        fact_votes = self._by_fact[fact]
        by_source = self._by_source
        positions = self._source_pos
        codes = self._sig_codes
        true, false = Vote.TRUE, Vote.FALSE
        code_delta = 0
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
                    # Registering a source may drop code maintenance.
                    codes = self._sig_codes
                fact_votes[source] = vote
                source_votes[fact] = vote
                if codes is not None:
                    code = self._CODE_TRUE if vote is true else self._CODE_FALSE
                    code_delta += code << (2 * positions[source])
        finally:
            # Votes stored before a bad one raises keep their codes, as
            # they would under add_vote.
            if codes is not None and code_delta:
                codes[fact] += code_delta
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

    @property
    def version(self) -> int:
        """Mutation counter: ticks whenever a fact, source or vote is added.

        Derived structures use it to validate cached snapshots of this
        matrix (see :meth:`derived_cache`).
        """
        return self._version

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

    @property
    def has_signature_codes(self) -> bool:
        """Whether packed signature codes are being maintained.

        ``False`` once the source axis has grown past
        :data:`SIGNATURE_CODE_SOURCE_LIMIT`; grouping consumers must then
        bucket signature tuples instead (see
        :meth:`~repro.core.arrays.GroupIndex.from_matrix`).
        """
        return self._sig_codes is not None

    def signature_codes(self) -> dict[FactId, int]:
        """Packed signature code per fact, in registration order.

        The code packs the fact's votes 2 bits per source column (low bit =
        T vote, high bit = F vote, column = source registration index), so
        two facts have equal codes **iff** they have equal
        :meth:`signature` — grouping facts reduces to partitioning by an
        integer key.  Maintained incrementally on :meth:`add_vote`; the
        returned mapping is the live internal index, treat it as read-only.
        Raises when maintenance was dropped for a wide source axis — check
        :attr:`has_signature_codes` first.
        """
        if self._sig_codes is None:
            raise RuntimeError(
                "signature codes are not maintained past "
                f"{SIGNATURE_CODE_SOURCE_LIMIT} sources; "
                "check has_signature_codes"
            )
        return self._sig_codes

    def source_positions(self) -> dict[SourceId, int]:
        """Column index per source (registration order); read-only."""
        return self._source_pos

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
