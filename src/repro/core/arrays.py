"""Dense group-level arrays: the shared numeric backbone of the library.

Every algorithm here scores a fact from *who voted and how*, so facts with
identical vote signatures are interchangeable and all numeric work happens
over **fact groups** (:mod:`repro.core.fact_groups`).  This module holds the
array structures built on that observation:

* :class:`GroupIndex` — the *sparse* grouping of a matrix: the fact groups
  and the source axis with per-group degree/size vectors, but **no** dense
  (G × S) incidence matrices.  Everything else derives from it, and it is
  the only grouping structure the million-fact scale tier materialises.
* :class:`GroupArrays` — immutable dense incidence matrices over a
  :class:`GroupIndex`.  The iterative baselines (TwoEstimate, 3-Estimates,
  Cosine, BayesEstimate, …) run their fixpoint loops directly over these
  matrices; it moved here from ``repro.baselines._arrays`` once the
  incremental algorithm started sharing it.
* :class:`SessionArrays` — the *session-lifetime engine* of the incremental
  algorithm: per-source ``correct``/``total`` counters and the trust vector
  as numpy arrays updated in place, an active-group mask instead of list
  rebuilds, and vectorised group probabilities.  One instance is built per
  :class:`~repro.core.session.CorroborationSession` and maintained
  incrementally across time points.  The ΔH selection step scores through
  the session's pair-level :class:`~repro.core.deltah.DeltaHEngine`
  (:meth:`SessionArrays.dh_engine`), fed evaluation notifications by
  :meth:`SessionArrays.apply_evaluation`.

Every structure here starts from one grouping,
:func:`~repro.core.fact_groups.group_facts`, at any source count, and the
result is cached on the matrix
(:meth:`~repro.model.matrix.VoteMatrix.derived_cache`, invalidated on
mutation) so repeated runs over the same append-only matrix share it.

Bit-exactness.  The engine is required to reproduce the paper-literal
dict-per-step Algorithm 1 *exactly* (same probabilities, same tie-breaks,
same trust trajectories); ``tests/scalar_reference.py`` keeps that
implementation as the test oracle.  Two rules make that hold:

* probabilities are computed by a **sequential column fold** over the
  sorted-signature contributions (see
  :meth:`SessionArrays.compute_probabilities`), which performs the same
  float additions in the same order as the
  :func:`~repro.core.fact_groups.group_probability` loop — a plain
  ``affirm @ trust`` matmul or ``np.add.reduceat`` would use a different
  summation order and drift in the last ulp;
* counters are updated with the same ``+= n`` operations, in the same
  per-selection order, as the oracle's dict updates.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np

from repro.core.deltah import DeltaHEngine, DeltaHStatic
from repro.core.fact_groups import FactGroup, group_facts
from repro.model.dataset import Dataset
from repro.model.matrix import FactId, SourceId, VoteMatrix
from repro.model.votes import Vote
from repro.obs.metrics import global_metrics

#: Process-global metrics registry.  The group-array / engine-template
#: caches live on the vote matrix and are shared across sessions, so their
#: hit/miss traffic is recorded globally (``arrays.*``) rather than in any
#: one run's bundle; a counter bump is paid once per cache access.
_METRICS = global_metrics()

#: Key under which :meth:`GroupArrays.for_matrix` caches itself in the
#: matrix's derived-structure cache.
_CACHE_KEY = "group_arrays"

#: Key of the cached :class:`GroupIndex` (sparse grouping).
_INDEX_KEY = "group_index"

#: Key of the cached :class:`_EngineTemplate` (flat per-vote structures).
_TEMPLATE_KEY = "engine_template"


@dataclasses.dataclass
class GroupIndex:
    """Sparse grouping of a matrix: groups and axes, no dense incidences.

    The minimal shared structure every grouping consumer starts from — the
    fact groups in :func:`~repro.core.fact_groups.group_facts` order, the
    source axis, and the per-group voter/size vectors.  Nothing here scales
    with G × S, so it is the only grouping structure built for wide
    matrices (the million-fact scale tier).  Treat instances as
    **immutable**: they are cached on the vote matrix and shared.

    Attributes:
        groups: the fact groups, aligned with all row-indexed vectors.
        sources: source ids (the canonical source axis).
        degree: number of voters per group.
        sizes: number of facts per group.
    """

    groups: list[FactGroup]
    sources: list[SourceId]
    degree: np.ndarray
    sizes: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: VoteMatrix) -> "GroupIndex":
        """Group ``matrix``'s facts with
        :func:`~repro.core.fact_groups.group_facts`, without materialising
        (G × S) arrays."""
        groups = group_facts(matrix)
        return cls(
            groups=groups,
            sources=matrix.sources,
            degree=np.array(
                [float(len(g.signature)) for g in groups], dtype=float
            ),
            sizes=np.array([float(len(g.facts)) for g in groups], dtype=float),
        )

    @classmethod
    def for_matrix(cls, matrix: VoteMatrix) -> "GroupIndex":
        """The (cached) sparse grouping of ``matrix``."""
        cache = matrix.derived_cache()
        index = cache.get(_INDEX_KEY)
        if index is None:
            _METRICS.inc("arrays.group_index_cache.miss")
            index = cls.from_matrix(matrix)
            cache[_INDEX_KEY] = index
        else:
            _METRICS.inc("arrays.group_index_cache.hit")
        return index

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_sources(self) -> int:
        return len(self.sources)


@dataclasses.dataclass
class GroupArrays:
    """Dense incidence matrices of the fact groups of a matrix.

    Treat instances as **immutable**: they are shared — cached on the vote
    matrix and across corroborator runs.  Code that needs to consume groups
    (the incremental session) must copy the fact lists first.

    Attributes:
        groups: the fact groups, aligned with the array rows.
        sources: source ids, aligned with the array columns.
        affirm: affirm[g, s] == 1 iff source s casts a T vote in group g.
        deny: deny[g, s] == 1 iff source s casts an F vote in group g.
        voted: affirm + deny.
        degree: number of voters per group (row sum of ``voted``).
        sizes: number of facts per group.
    """

    groups: list[FactGroup]
    sources: list[SourceId]
    affirm: np.ndarray
    deny: np.ndarray
    voted: np.ndarray
    degree: np.ndarray
    sizes: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: VoteMatrix) -> "GroupArrays":
        """Build the dense group arrays over ``matrix``'s (cached) sparse
        :class:`GroupIndex` — the group objects are shared with it."""
        index = GroupIndex.for_matrix(matrix)
        sources = index.sources
        source_pos = {s: i for i, s in enumerate(sources)}
        affirm = np.zeros((index.num_groups, len(sources)))
        deny = np.zeros((index.num_groups, len(sources)))
        for row, group in enumerate(index.groups):
            for source, symbol in group.signature:
                if symbol == Vote.TRUE.value:
                    affirm[row, source_pos[source]] = 1.0
                else:
                    deny[row, source_pos[source]] = 1.0
        voted = affirm + deny
        return cls(
            groups=index.groups,
            sources=sources,
            affirm=affirm,
            deny=deny,
            voted=voted,
            degree=voted.sum(axis=1),
            sizes=index.sizes.copy(),
        )

    @classmethod
    def for_matrix(cls, matrix: VoteMatrix) -> "GroupArrays":
        """The (cached) dense group arrays of ``matrix``.

        The instance is cached in the matrix's derived-structure cache and
        invalidated automatically when the matrix mutates, so every
        corroborator run over the same matrix shares one grouping pass.
        """
        cache = matrix.derived_cache()
        arrays = cache.get(_CACHE_KEY)
        if arrays is None:
            _METRICS.inc("arrays.group_arrays_cache.miss")
            arrays = cls.from_matrix(matrix)
            cache[_CACHE_KEY] = arrays
        else:
            _METRICS.inc("arrays.group_arrays_cache.hit")
        return arrays

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "GroupArrays":
        return cls.for_matrix(dataset.matrix)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def fact_probabilities(self, group_probs: np.ndarray) -> dict[FactId, float]:
        """Expand per-group probabilities back to a per-fact mapping."""
        probabilities: dict[FactId, float] = {}
        for group, prob in zip(self.groups, group_probs):
            value = float(prob)
            for fact in group.facts:
                probabilities[fact] = value
        return probabilities

    def trust_mapping(self, trust: np.ndarray) -> dict[SourceId, float]:
        """Per-source trust vector as a source-id keyed mapping."""
        return {s: float(t) for s, t in zip(self.sources, trust)}

    def source_has_votes(self) -> np.ndarray:
        """Boolean mask of sources that cast at least one vote."""
        return (self.voted * self.sizes[:, None]).sum(axis=0) > 0


@dataclasses.dataclass
class _EngineTemplate:
    """Immutable flat vote structures shared by every session of a matrix.

    One entry per (group, voter) pair, in *sorted-signature order* — the
    iteration order of the Equation 5 scalar loop — plus per-row index
    arrays for the counter updates.  Nothing here mutates during a run, so
    sessions over the same matrix share one instance via the derived cache.
    """

    flat_rows: np.ndarray
    flat_cols: np.ndarray
    flat_src: np.ndarray
    flat_is_true: np.ndarray
    row_sources: list[np.ndarray]
    row_true: list[np.ndarray]
    row_false: list[np.ndarray]
    max_degree: int


def _build_engine_template(base: GroupIndex) -> _EngineTemplate:
    source_pos = {s: i for i, s in enumerate(base.sources)}
    flat_rows: list[int] = []
    flat_cols: list[int] = []
    flat_src: list[int] = []
    flat_is_true: list[bool] = []
    row_sources: list[np.ndarray] = []
    row_true: list[np.ndarray] = []
    row_false: list[np.ndarray] = []
    max_degree = 0
    for row, group in enumerate(base.groups):
        srcs: list[int] = []
        trues: list[int] = []
        falses: list[int] = []
        for j, (source, symbol) in enumerate(group.signature):
            idx = source_pos[source]
            flat_rows.append(row)
            flat_cols.append(j)
            flat_src.append(idx)
            is_true = symbol == Vote.TRUE.value
            flat_is_true.append(is_true)
            srcs.append(idx)
            (trues if is_true else falses).append(idx)
        max_degree = max(max_degree, len(group.signature))
        row_sources.append(np.array(srcs, dtype=np.intp))
        row_true.append(np.array(trues, dtype=np.intp))
        row_false.append(np.array(falses, dtype=np.intp))
    return _EngineTemplate(
        flat_rows=np.array(flat_rows, dtype=np.intp),
        flat_cols=np.array(flat_cols, dtype=np.intp),
        flat_src=np.array(flat_src, dtype=np.intp),
        flat_is_true=np.array(flat_is_true, dtype=bool),
        row_sources=row_sources,
        row_true=row_true,
        row_false=row_false,
        max_degree=max_degree,
    )


def _engine_template(matrix: VoteMatrix, base: GroupIndex) -> _EngineTemplate:
    """The (cached) flat vote structures of ``matrix``'s grouping."""
    cache = matrix.derived_cache()
    template = cache.get(_TEMPLATE_KEY)
    if template is None:
        _METRICS.inc("arrays.engine_template_cache.miss")
        template = _build_engine_template(base)
        cache[_TEMPLATE_KEY] = template
    else:
        _METRICS.inc("arrays.engine_template_cache.hit")
    return template


class VectorMapping(Mapping):
    """Read-only source-id → float view over a live numpy vector.

    Serves dict-shaped consumers (custom selection strategies reading
    ``SelectionContext.correct_counts``) without copying the engine's
    counter vectors on every time point.  The view is *live*: lookups
    reflect the vector's in-place updates.
    """

    __slots__ = ("_keys", "_index", "_vector")

    def __init__(
        self,
        keys: list[SourceId],
        index: dict[SourceId, int],
        vector: np.ndarray,
    ) -> None:
        self._keys = keys
        self._index = index
        self._vector = vector

    def __getitem__(self, key: SourceId) -> float:
        return float(self._vector[self._index[key]])

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"VectorMapping({len(self._keys)} sources)"


class SessionArrays:
    """Session-lifetime numeric state of the incremental algorithm.

    Built **once** per :class:`~repro.core.session.CorroborationSession`
    and updated in place as time points commit facts:

    * :attr:`groups` are fresh (consumable) copies of the matrix's fact
      groups; :attr:`active` masks the rows that still hold facts.
    * :attr:`correct` / :attr:`total` are the per-source agreement counters
      (Equation 8 numerator/denominator, including prior pseudo-votes) and
      :attr:`trust` the derived trust vector — the array mirrors of the
      oracle's per-source dicts, updated with identical float operations.
    * :meth:`compute_probabilities` evaluates σ(FG) for every group in one
      vectorised sweep whose additions replay the Equation 5 loop order
      exactly (see the module docstring), so the engine's probabilities are
      bit-identical to :func:`~repro.core.fact_groups.group_probability`.

    The ΔH selection step scores through the lazily built pair-level
    :meth:`dh_engine`; :meth:`apply_evaluation` feeds it the invalidation
    notifications it needs to re-score only the affected pairs.
    """

    def __init__(
        self,
        matrix: VoteMatrix,
        default_trust: float,
        prior: float,
    ) -> None:
        base = GroupIndex.for_matrix(matrix)
        self.base = base
        self._matrix = matrix
        self.sources: list[SourceId] = base.sources
        #: Fresh consumable copies — ``take()`` happens on these, never on
        #: the shared cached groups.
        self.groups: list[FactGroup] = [
            FactGroup(signature=g.signature, facts=list(g.facts))
            for g in base.groups
        ]
        for row, group in enumerate(self.groups):
            group.engine_row = row
        n_groups = len(self.groups)
        n_sources = len(self.sources)
        self.active = np.ones(n_groups, dtype=bool)
        self.sizes = base.sizes.copy()
        self.correct = np.full(n_sources, default_trust * prior, dtype=float)
        self.total = np.full(n_sources, float(prior), dtype=float)
        self.trust = np.full(n_sources, float(default_trust), dtype=float)
        self._default_trust = float(default_trust)

        # Flat (entry-per-vote) structures in *sorted-signature order* —
        # immutable, so shared across sessions via the matrix-level cache.
        template = _engine_template(matrix, base)
        self._flat_src = template.flat_src
        self._flat_is_true = template.flat_is_true
        self._row_sources = template.row_sources
        self._row_true = template.row_true
        self._row_false = template.row_false
        self._max_degree = template.max_degree
        self._flat_rows = template.flat_rows
        self._flat_cols = template.flat_cols
        self._contrib = np.zeros((n_groups, template.max_degree), dtype=float)
        self._active_rows_cache: np.ndarray | None = None
        self._active_groups_cache: list[FactGroup] | None = None
        self._counter_views: tuple[VectorMapping, VectorMapping] | None = None
        self._trust_view: VectorMapping | None = None
        #: Pair-level ΔH scorer; built on first use (IncEstPS sessions
        #: never pay for it).
        self._dh: DeltaHEngine | None = None
        #: σ(FG) for every group row under the current trust; refreshed by
        #: :meth:`compute_probabilities` at the start of each time point.
        self.probabilities = np.empty(n_groups, dtype=float)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def active_rows(self) -> np.ndarray:
        """Indices of the non-empty group rows, in group order (cached)."""
        if self._active_rows_cache is None:
            self._active_rows_cache = np.flatnonzero(self.active)
        return self._active_rows_cache

    def has_active(self) -> bool:
        """Whether any group still holds unevaluated facts."""
        return len(self.active_rows()) > 0

    def active_groups(self) -> list[FactGroup]:
        """The non-empty groups, in row order (cached between changes)."""
        if self._active_groups_cache is None:
            groups = self.groups
            self._active_groups_cache = [groups[row] for row in self.active_rows()]
        return self._active_groups_cache

    def remaining_facts(self) -> int:
        """Total number of unevaluated facts across the active groups."""
        return int(self.sizes[self.active_rows()].sum())

    def trust_dict(self) -> dict[SourceId, float]:
        """The current trust vector as a plain source → float dict."""
        return dict(zip(self.sources, self.trust.tolist()))

    def counter_dicts(self) -> tuple[dict[SourceId, float], dict[SourceId, float]]:
        """(correct, total) counters as plain dicts (API-compat copies)."""
        return (
            dict(zip(self.sources, self.correct.tolist())),
            dict(zip(self.sources, self.total.tolist())),
        )

    def counter_views(self) -> tuple["VectorMapping", "VectorMapping"]:
        """(correct, total) counters as live non-copying mappings.

        The views track the in-place counter updates, so the same pair can
        be handed to every :class:`~repro.core.selection.SelectionContext`
        of a session without per-step dict construction.
        """
        if self._counter_views is None:
            index = {s: i for i, s in enumerate(self.sources)}
            self._counter_views = (
                VectorMapping(self.sources, index, self.correct),
                VectorMapping(self.sources, index, self.total),
            )
        return self._counter_views

    def trust_view(self) -> "VectorMapping":
        """The trust vector as a live non-copying mapping.

        Tracks :meth:`refresh_trust`'s in-place updates, so one view serves
        every :class:`~repro.core.selection.SelectionContext` of a session
        without per-step dict construction.
        """
        if self._trust_view is None:
            index = {s: i for i, s in enumerate(self.sources)}
            self._trust_view = VectorMapping(self.sources, index, self.trust)
        return self._trust_view

    def dh_engine(self) -> DeltaHEngine:
        """The session's pair-level ΔH scorer (lazily built).

        The immutable pair graph is cached on the vote matrix
        (:meth:`~repro.core.deltah.DeltaHStatic.for_matrix`) and shared
        with every other session over it; the engine instance — term
        caches and dirty accumulators — is private to this session.
        """
        if self._dh is None:
            static = DeltaHStatic.for_matrix(
                self._matrix, self.base.groups, self.sources
            )
            self._dh = DeltaHEngine(static)
        return self._dh

    # ------------------------------------------------------------------
    # Per-time-point numeric kernel
    # ------------------------------------------------------------------
    def compute_probabilities(self, default_fact_probability: float) -> np.ndarray:
        """σ(FG) for every group row under the current trust (Equation 5).

        Vectorised over groups, but summed in the *same order* as the
        scalar loop: contributions are scattered into a (groups × degree)
        matrix in sorted-signature order and folded column by column, so
        each group's additions happen left-to-right exactly like
        ``group_probability``.  (``np.add.reduceat`` would be cheaper but
        sums pairwise — a different reduction tree, off by an ulp.)
        Groups with an empty signature keep ``default_fact_probability``.
        """
        n_groups = len(self.groups)
        if n_groups == 0:
            self.probabilities = np.empty(0, dtype=float)
            return self.probabilities
        if self._max_degree == 0:
            self.probabilities = np.full(n_groups, default_fact_probability)
            return self.probabilities
        trust = self.trust
        complement = 1.0 - trust
        contrib = self._contrib
        contrib[self._flat_rows, self._flat_cols] = np.where(
            self._flat_is_true,
            trust[self._flat_src],
            complement[self._flat_src],
        )
        totals = contrib[:, 0].copy()
        for col in range(1, self._max_degree):
            totals += contrib[:, col]
        degree = self.base.degree
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = totals / degree
        self.probabilities = np.where(degree > 0, probs, default_fact_probability)
        return self.probabilities

    def apply_evaluation(self, row: int, count: int, label: bool) -> None:
        """Fold ``count`` evaluated facts of group ``row`` into the counters.

        Mirrors the dict update: every voter's ``total`` grows by the
        number of facts taken, and the voters whose vote agrees with the
        committed label grow their ``correct`` by the same amount.
        Deactivates the row once its facts are exhausted.
        """
        n = float(count)
        self.total[self._row_sources[row]] += n
        agreeing = self._row_true[row] if label else self._row_false[row]
        self.correct[agreeing] += n
        self.sizes[row] -= n
        size = self.sizes[row]
        if self._dh is not None:
            self._dh.note_evaluation(row)
        if size <= 0:
            self.active[row] = False
            self._active_rows_cache = None
            self._active_groups_cache = None
            if self._dh is not None:
                self._dh.note_deactivated(row)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe mutable engine state (see ``docs/robustness.md``).

        Only genuinely mutable state is stored: the per-source counters and
        trust, plus each group row's remaining facts.  Everything else —
        sizes, the active mask, the ΔH pair caches — is a pure function of
        the remaining facts and is recomputed bit-exactly on load
        (``sizes`` evolve by integer-valued ``-= n`` steps, so
        ``float(len(facts))`` restores them exactly, and the ΔH engine is
        simply rebuilt, its first scoring call being a full rescan).
        """
        return {
            "correct": self.correct.tolist(),
            "total": self.total.tolist(),
            "trust": self.trust.tolist(),
            "group_facts": [list(group.facts) for group in self.groups],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this fresh instance."""
        n_groups = len(self.groups)
        n_sources = len(self.sources)
        group_facts = state["group_facts"]
        if len(group_facts) != n_groups:
            raise ValueError(
                f"engine state has {len(group_facts)} groups, "
                f"matrix has {n_groups}"
            )
        for key in ("correct", "total", "trust"):
            if len(state[key]) != n_sources:
                raise ValueError(
                    f"engine state {key!r} has {len(state[key])} sources, "
                    f"matrix has {n_sources}"
                )
        self.correct = np.array(state["correct"], dtype=float)
        self.total = np.array(state["total"], dtype=float)
        self.trust = np.array(state["trust"], dtype=float)
        for row, facts in enumerate(group_facts):
            self.groups[row].facts = [str(fact) for fact in facts]
        self.sizes = np.array(
            [float(len(facts)) for facts in group_facts], dtype=float
        )
        self.active = self.sizes > 0
        self._active_rows_cache = None
        self._active_groups_cache = None
        self._counter_views = None
        self._trust_view = None
        self._dh = None

    def refresh_trust(self) -> np.ndarray:
        """Recompute the trust vector from the counters (Equation 8).

        Updates :attr:`trust` **in place** (same values as a fresh
        ``np.where``) so the live :meth:`trust_view` mapping stays valid
        across time points.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = self.correct / self.total
        self.trust[:] = np.where(self.total != 0, ratio, self._default_trust)
        return self.trust
