"""Incremental pair-level ΔH scoring (Equation 9) — the selection kernel.

The ΔH ranking of :class:`~repro.core.selection.IncEstHeu` asks, for every
remaining candidate group FG: *if this group were evaluated, how would the
collective entropy of the other remaining groups change?*  The previous
kernel answered with a dense rescan — an O(G²·|S|) matrix product per time
point — even though a candidate can only move a group's probability when
the two share at least one voting source.  This module exploits that
sparsity and makes the rescan incremental:

* :class:`DeltaHStatic` — the immutable *pair graph* of a grouping: one
  entry per ordered pair of groups sharing ≥ 1 source, plus one
  *shared-vote* record per (pair, shared source).  Built once per vote
  matrix and cached on it, like the other derived structures.
* :class:`DeltaHEngine` — the mutable scorer.  It keeps a per-pair cache of
  the cross-entropy terms and, between time points, recomputes only the
  pairs whose inputs could have changed: pairs whose non-candidate side
  voted a *touched* source (its trust moved), plus pairs whose candidate
  side was evaluated or flipped its projected label.  Everything else is
  served from the cache.
* :class:`ScalarDeltaH` — the scalar reference backend's wrapper: the same
  static structures and the same engine, permanently in full-rescan mode.

Why a pair formulation is exact.  For candidate c and group h the
hypothetical probability is ``p_ch = (num_h + corr_ch) / degree_h`` where
``num_h`` is h's Equation 5 numerator under the (smoothed) base trust and
``corr_ch = Σ_s sign_h(s) · (hyp_trust_c(s) − base_trust(s))`` sums over
the *shared* sources only — for every other source the hypothetical trust
equals the base trust bit-for-bit (adding a zero count changes nothing), so
non-sharing pairs contribute an exact 0.0 and never need storing.

Bit-exactness contract.  Incremental and full-rescan scoring are
bit-identical, on both backends, because every cached value is only reused
while *all* of its inputs are bitwise unchanged:

* ``corr`` depends on the shared sources' counters, the candidate's label
  and its remaining size — the engine recomputes it when a shared source
  was touched, the candidate was evaluated, or its label actually flipped
  (labels are compared, not approximated by a neighbourhood rule);
* the per-pair term additionally depends on ``num_h`` / ``entropy_now_h``,
  which change exactly when a voter of h was touched — the engine dirties
  all pairs whose non-candidate side voted a touched source;
* reductions with data-dependent extents (the per-pair ``corr`` fold) run
  through ``np.add.reduceat`` — a strictly sequential accumulation in
  entry order within each segment — and the per-candidate reduction runs
  through ``np.add.reduceat`` over segments of the *shared* static pair
  layout, so scalar and engine backends reduce identical values over
  identical segment shapes.

Evaluated-out groups: when a group leaves the remaining set its terms are
zeroed on the non-candidate side (it no longer belongs to Equation 9's
sum) and excluded from recomputation; on the candidate side its
hypothetical deltas become exact zeros (its remaining size is 0), so stale
candidate rows decay to zero scores and are sliced away by the caller.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.entropy import binary_entropy_array
from repro.core.fact_groups import FactGroup
from repro.model.matrix import SourceId, VoteMatrix
from repro.model.votes import Vote
from repro.obs.metrics import global_metrics

_METRICS = global_metrics()

#: Key of the cached :class:`DeltaHStatic` in a matrix's derived cache.
_STATIC_KEY = "deltah_static"


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k] + counts[k])`` for all k."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    cum = np.cumsum(counts)
    out = np.arange(total, dtype=np.intp)
    out += np.repeat(starts - (cum - counts), counts)
    return out


@dataclasses.dataclass
class DeltaHStatic:
    """Immutable pair-graph structures of one grouping (see module doc).

    All arrays are index-aligned three ways: per *vote* (one entry per
    (group, source) pair, in two orders), per *pair* (ordered group pairs
    sharing ≥ 1 source, sorted by (candidate, other)), and per
    *shared-vote* entry (one per (pair, shared source), sorted by
    (candidate, other, source)).
    """

    n_groups: int
    n_sources: int
    max_degree: int
    degree: np.ndarray  #: (G,) float voter count per group.

    # Per-vote flats in sorted-signature (slot) order — the Equation 5
    # fold layout, identical to the session engine's template.
    sig_rows: np.ndarray
    sig_cols: np.ndarray
    sig_src: np.ndarray
    sig_is_true: np.ndarray
    row_src_indptr: np.ndarray  #: (G+1,) CSR over sig_* by group row.

    # Per-vote flats re-sorted by (source, row) — the hypothetical-delta
    # layout the shared-vote entries index into.
    v_row: np.ndarray
    v_src: np.ndarray
    v_is_true: np.ndarray
    src_vote_indptr: np.ndarray  #: (S+1,) CSR over v_* by source.

    # Pair graph, sorted by (candidate, other).
    pair_cand: np.ndarray  #: (P,)
    pair_other: np.ndarray  #: (P,)
    cand_indptr: np.ndarray  #: (G+1,) CSR over pairs by candidate.
    other_order: np.ndarray  #: (P,) pair ids grouped by `other`.
    other_indptr: np.ndarray  #: (G+1,) CSR into other_order.

    # Shared-vote entries, sorted by (candidate, other, source).
    sv_hyp: np.ndarray  #: (E,) index into v_* of the (candidate, source) vote.
    sv_sign: np.ndarray  #: (E,) +1.0 if `other` affirms the source, else −1.0.
    sv_indptr: np.ndarray  #: (P+1,) CSR over entries by pair.
    src_pair_order: np.ndarray  #: (E,) pair ids grouped by shared source.
    src_pair_indptr: np.ndarray  #: (S+1,) CSR into src_pair_order.

    @property
    def n_pairs(self) -> int:
        return len(self.pair_cand)

    @classmethod
    def build(
        cls, groups: Sequence[FactGroup], sources: Sequence[SourceId]
    ) -> "DeltaHStatic":
        """Build the pair graph of ``groups`` over ``sources``."""
        source_index = {s: i for i, s in enumerate(sources)}
        n_groups = len(groups)
        n_sources = len(sources)
        rows: list[int] = []
        cols: list[int] = []
        srcs: list[int] = []
        truth: list[bool] = []
        max_degree = 0
        for row, group in enumerate(groups):
            for col, (source, symbol) in enumerate(group.signature):
                rows.append(row)
                cols.append(col)
                srcs.append(source_index[source])
                truth.append(symbol == Vote.TRUE.value)
            max_degree = max(max_degree, len(group.signature))
        sig_rows = np.array(rows, dtype=np.intp)
        sig_cols = np.array(cols, dtype=np.intp)
        sig_src = np.array(srcs, dtype=np.intp)
        sig_is_true = np.array(truth, dtype=bool)
        degree = np.array(
            [float(len(g.signature)) for g in groups], dtype=float
        )
        row_src_indptr = np.searchsorted(
            sig_rows, np.arange(n_groups + 1), side="left"
        ).astype(np.intp)

        order = np.lexsort((sig_rows, sig_src))
        v_row = sig_rows[order]
        v_src = sig_src[order]
        v_is_true = sig_is_true[order]
        src_vote_indptr = np.searchsorted(
            v_src, np.arange(n_sources + 1), side="left"
        ).astype(np.intp)

        # One (candidate, other, source, hyp-vote, sign) record per ordered
        # pair of distinct groups sharing the source.
        e_cand: list[np.ndarray] = []
        e_other: list[np.ndarray] = []
        e_src: list[np.ndarray] = []
        e_hyp: list[np.ndarray] = []
        e_sign: list[np.ndarray] = []
        for s in range(n_sources):
            lo = int(src_vote_indptr[s])
            hi = int(src_vote_indptr[s + 1])
            d = hi - lo
            if d < 2:
                continue
            block_rows = v_row[lo:hi]
            block_idx = np.arange(lo, hi, dtype=np.intp)
            block_sign = np.where(v_is_true[lo:hi], 1.0, -1.0)
            cand = np.repeat(block_rows, d)
            other = np.tile(block_rows, d)
            keep = cand != other
            e_cand.append(cand[keep])
            e_other.append(other[keep])
            e_src.append(np.full(int(keep.sum()), s, dtype=np.intp))
            e_hyp.append(np.repeat(block_idx, d)[keep])
            e_sign.append(np.tile(block_sign, d)[keep])
        if e_cand:
            ec = np.concatenate(e_cand)
            eh = np.concatenate(e_other)
            es = np.concatenate(e_src)
            ehyp = np.concatenate(e_hyp)
            esign = np.concatenate(e_sign)
        else:
            ec = eh = es = ehyp = np.empty(0, dtype=np.intp)
            esign = np.empty(0, dtype=float)
        entry_order = np.lexsort((es, eh, ec))
        ec = ec[entry_order]
        eh = eh[entry_order]
        es = es[entry_order]
        sv_hyp = ehyp[entry_order]
        sv_sign = esign[entry_order]

        n_entries = len(ec)
        if n_entries:
            key = ec.astype(np.int64) * np.int64(max(n_groups, 1)) + eh
            new_pair = np.empty(n_entries, dtype=bool)
            new_pair[0] = True
            np.not_equal(key[1:], key[:-1], out=new_pair[1:])
            boundaries = np.flatnonzero(new_pair)
            pair_cand = ec[boundaries].astype(np.intp)
            pair_other = eh[boundaries].astype(np.intp)
            sv_indptr = np.concatenate(
                (boundaries, [n_entries])
            ).astype(np.intp)
            entry_pair = (np.cumsum(new_pair) - 1).astype(np.intp)
        else:
            pair_cand = pair_other = np.empty(0, dtype=np.intp)
            sv_indptr = np.zeros(1, dtype=np.intp)
            entry_pair = np.empty(0, dtype=np.intp)
        cand_indptr = np.searchsorted(
            pair_cand, np.arange(n_groups + 1), side="left"
        ).astype(np.intp)
        other_order = np.argsort(pair_other, kind="stable").astype(np.intp)
        other_indptr = np.searchsorted(
            pair_other[other_order], np.arange(n_groups + 1), side="left"
        ).astype(np.intp)
        src_order = np.argsort(es, kind="stable")
        src_pair_order = entry_pair[src_order]
        src_pair_indptr = np.searchsorted(
            es[src_order], np.arange(n_sources + 1), side="left"
        ).astype(np.intp)
        return cls(
            n_groups=n_groups,
            n_sources=n_sources,
            max_degree=max_degree,
            degree=degree,
            sig_rows=sig_rows,
            sig_cols=sig_cols,
            sig_src=sig_src,
            sig_is_true=sig_is_true,
            row_src_indptr=row_src_indptr,
            v_row=v_row,
            v_src=v_src,
            v_is_true=v_is_true,
            src_vote_indptr=src_vote_indptr,
            pair_cand=pair_cand,
            pair_other=pair_other,
            cand_indptr=cand_indptr,
            other_order=other_order,
            other_indptr=other_indptr,
            sv_hyp=sv_hyp,
            sv_sign=sv_sign,
            sv_indptr=sv_indptr,
            src_pair_order=src_pair_order,
            src_pair_indptr=src_pair_indptr,
        )

    @classmethod
    def for_matrix(
        cls,
        matrix: VoteMatrix,
        groups: Sequence[FactGroup],
        sources: Sequence[SourceId],
    ) -> "DeltaHStatic":
        """The (cached) pair graph of ``matrix``'s grouping.

        ``groups``/``sources`` must be the matrix's canonical grouping (the
        cached :class:`~repro.core.arrays.GroupIndex` members); the built
        structure is cached in the matrix's derived cache so scalar and
        engine sessions over one matrix share a single instance.
        """
        cache = matrix.derived_cache()
        static = cache.get(_STATIC_KEY)
        if static is None:
            _METRICS.inc("arrays.deltah_static_cache.miss")
            static = cls.build(groups, sources)
            cache[_STATIC_KEY] = static
        else:
            _METRICS.inc("arrays.deltah_static_cache.hit")
        return static


class DeltaHEngine:
    """Mutable ΔH scorer over one :class:`DeltaHStatic` (see module doc).

    One engine serves one session (or one hand-built scoring call).  The
    session notifies it of committed evaluations
    (:meth:`note_evaluation` / :meth:`note_deactivated`); notifications
    accumulate — including across time points where no scoring happens —
    and are folded into the pair-term cache at the next
    :meth:`cross_scores` call.
    """

    def __init__(self, static: DeltaHStatic) -> None:
        self.static = static
        n_groups = static.n_groups
        n_pairs = static.n_pairs
        self._term = np.zeros(n_pairs, dtype=float)
        self._corr = np.zeros(n_pairs, dtype=float)
        self._prev_labels = np.zeros(n_groups, dtype=bool)
        self._touched_src = np.zeros(static.n_sources, dtype=bool)
        self._evaluated = np.zeros(n_groups, dtype=bool)
        #: active[pair_other] maintained across rounds — resynced from the
        #: caller's active vector on every rebuild, patched by
        #: :meth:`note_deactivated` in between.
        self._active_other = np.ones(n_pairs, dtype=bool)
        # Per-round scratch masks (allocated once; sizes are static).
        self._corr_mask = np.zeros(n_pairs, dtype=bool)
        self._stale_mask = np.zeros(n_pairs, dtype=bool)
        self._other_dirty = np.zeros(n_groups, dtype=bool)
        # Precomputed reduceat starts with the empty-segment guard (an
        # empty segment would otherwise swallow its successor's first
        # element) — segment layouts never change.
        nnz = len(static.sig_rows)
        self._num_starts = np.minimum(
            static.row_src_indptr[:-1], max(nnz - 1, 0)
        )
        self._empty_rows = np.flatnonzero(
            static.row_src_indptr[:-1] == static.row_src_indptr[1:]
        )
        self._cand_starts = np.minimum(
            static.cand_indptr[:-1], max(n_pairs - 1, 0)
        )
        self._empty_cands = np.flatnonzero(
            static.cand_indptr[:-1] == static.cand_indptr[1:]
        )
        self._primed = False
        self._smoothing = 0.0
        #: Stats of the last scoring call (when collect_stats was set).
        self.last_rescored = 0
        self.last_skipped = 0

    # ------------------------------------------------------------------
    # Invalidation hooks
    # ------------------------------------------------------------------
    def note_evaluation(self, row: int) -> None:
        """Record that facts of group ``row`` were committed: its voters'
        counters moved and its remaining size changed."""
        st = self.static
        lo = int(st.row_src_indptr[row])
        hi = int(st.row_src_indptr[row + 1])
        self._touched_src[st.sig_src[lo:hi]] = True
        self._evaluated[row] = True

    def note_deactivated(self, row: int) -> None:
        """Record that group ``row`` left the remaining set: its terms on
        the non-candidate side drop out of Equation 9's sum."""
        st = self.static
        ids = st.other_order[st.other_indptr[row] : st.other_indptr[row + 1]]
        self._term[ids] = 0.0
        self._active_other[ids] = False

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def cross_scores(
        self,
        *,
        correct: np.ndarray,
        total: np.ndarray,
        sizes: np.ndarray,
        active: np.ndarray,
        probabilities: np.ndarray,
        default_trust: float,
        default_fact_probability: float,
        smoothing: float = 0.0,
        full: bool = False,
        collect_stats: bool = False,
    ) -> np.ndarray:
        """ΔH_cross of Equation 9 for every group row (full-length vector).

        All vector arguments are full-length (one entry per group row /
        source of the static structure); rows of inactive groups receive
        meaningless scores and must be sliced away by the caller.  With
        ``full`` the term cache is rebuilt from scratch — the reference
        path the incremental mode is bit-identical to.
        """
        st = self.static
        n_groups = st.n_groups
        if n_groups == 0:
            return np.zeros(0, dtype=float)
        labels = probabilities > 0.5
        if smoothing > 0:
            correct_sm = correct + default_trust * smoothing
            total_sm = total + smoothing
        else:
            correct_sm, total_sm = correct, total
        with np.errstate(divide="ignore", invalid="ignore"):
            base_trust = np.where(
                total_sm > 0, correct_sm / total_sm, default_trust
            )
            # Equation 5 numerator of every group under the (smoothed)
            # base trust — one contribution per vote in sorted-signature
            # order, folded per row by reduceat, so the additions replay
            # the scalar loop order (left to right within each row).
            if len(st.sig_rows):
                complement = 1.0 - base_trust
                contrib = np.where(
                    st.sig_is_true,
                    base_trust[st.sig_src],
                    complement[st.sig_src],
                )
                num = np.add.reduceat(contrib, self._num_starts)
                if self._empty_rows.size:
                    num[self._empty_rows] = 0.0
            else:
                num = np.zeros(n_groups, dtype=float)
            base_prob = num / st.degree
            base_prob = np.where(
                st.degree > 0, base_prob, default_fact_probability
            )
            entropy_now = binary_entropy_array(base_prob) * sizes

            if st.n_pairs == 0:
                self._finish_round(labels, smoothing)
                if collect_stats:
                    self.last_rescored = 0
                    self.last_skipped = int(np.count_nonzero(active))
                return np.zeros(n_groups, dtype=float)

            # Hypothetical trust deltas per (candidate, source) vote: what
            # the source's projected trust gains if the candidate's
            # remaining facts commit under its projected label.
            cand_sizes = sizes[st.v_row]
            agree = st.v_is_true == labels[st.v_row]
            hyp_trust = (correct_sm[st.v_src] + agree * cand_sizes) / (
                total_sm[st.v_src] + cand_sizes
            )
            dvals = hyp_trust - base_trust[st.v_src]

            rebuild = (
                full or not self._primed or smoothing != self._smoothing
            )
            if rebuild:
                self._term[:] = 0.0
                np.take(active, st.pair_other, out=self._active_other)
                stale = np.flatnonzero(self._active_other)
                corr_stale = stale
            else:
                stale, corr_stale = self._stale_pairs(labels, active)

            if corr_stale.size:
                starts = st.sv_indptr[corr_stale]
                counts = st.sv_indptr[corr_stale + 1] - starts
                cum = np.cumsum(counts)
                seg_starts = cum - counts
                entries = np.arange(int(cum[-1]), dtype=np.intp)
                entries += np.repeat(starts - seg_starts, counts)
                vals = dvals[st.sv_hyp[entries]]
                vals *= st.sv_sign[entries]
                # Every pair has >= 1 shared-vote entry, so no
                # empty-segment guard is needed here.
                self._corr[corr_stale] = np.add.reduceat(vals, seg_starts)
            if stale.size:
                other = st.pair_other[stale]
                hyp_prob = num[other]
                hyp_prob += self._corr[stale]
                hyp_prob /= st.degree[other]
                term = binary_entropy_array(hyp_prob)
                term *= sizes[other]
                term -= entropy_now[other]
                self._term[stale] = term

            if collect_stats:
                rescored_mask = np.zeros(n_groups, dtype=bool)
                if stale.size:
                    rescored_mask[st.pair_cand[stale]] = True
                rescored_mask &= active
                self.last_rescored = int(np.count_nonzero(rescored_mask))
                self.last_skipped = (
                    int(np.count_nonzero(active)) - self.last_rescored
                )

            delta = np.add.reduceat(self._term, self._cand_starts)
            if self._empty_cands.size:
                delta[self._empty_cands] = 0.0
        self._finish_round(labels, smoothing)
        return delta

    def _stale_pairs(
        self, labels: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(term-stale, corr-stale) pair ids for the incremental path.

        corr-stale: pairs sharing a touched source, plus pairs whose
        candidate was evaluated or actually flipped its projected label.
        term-stale additionally covers every pair whose non-candidate side
        voted a touched source (its ``num``/``entropy_now`` moved).  Both
        sets are collected as masks over the pair axis — deduplicated and
        sorted for free — and filtered to pairs whose non-candidate side
        is still in the remaining set (the maintained ``_active_other``).
        """
        st = self.static
        touched = np.flatnonzero(self._touched_src)
        corr_mask = self._corr_mask
        corr_mask[:] = False
        if touched.size:
            starts = st.src_pair_indptr[touched]
            counts = st.src_pair_indptr[touched + 1] - starts
            corr_mask[st.src_pair_order[_gather_ranges(starts, counts)]] = (
                True
            )
        cand_dirty = self._evaluated | (
            (labels != self._prev_labels) & active
        )
        cand_rows = np.flatnonzero(cand_dirty)
        if cand_rows.size:
            starts = st.cand_indptr[cand_rows]
            counts = st.cand_indptr[cand_rows + 1] - starts
            corr_mask[_gather_ranges(starts, counts)] = True
        corr_mask &= self._active_other

        other_dirty = self._other_dirty
        other_dirty[:] = self._evaluated
        if touched.size:
            starts = st.src_vote_indptr[touched]
            counts = st.src_vote_indptr[touched + 1] - starts
            other_dirty[st.v_row[_gather_ranges(starts, counts)]] = True
        stale_mask = self._stale_mask
        np.take(other_dirty, st.pair_other, out=stale_mask)
        stale_mask &= self._active_other
        stale_mask |= corr_mask
        return np.flatnonzero(stale_mask), np.flatnonzero(corr_mask)

    def _finish_round(self, labels: np.ndarray, smoothing: float) -> None:
        self._prev_labels = labels
        self._touched_src[:] = False
        self._evaluated[:] = False
        self._primed = True
        self._smoothing = smoothing


class ScalarDeltaH:
    """ΔH scorer of the scalar reference backend.

    Holds the matrix-cached :class:`DeltaHStatic` (shared with any engine
    session over the same matrix) and an engine pinned to full-rescan mode
    — the scalar path *is* the reference the incremental path is compared
    against.  Built lazily: sessions that never rank (IncEstPS) pay
    nothing.
    """

    def __init__(self, matrix: VoteMatrix) -> None:
        self._matrix = matrix
        self._engine: DeltaHEngine | None = None
        self._sources: list[SourceId] | None = None
        self._row_of: dict | None = None

    def _ensure(self) -> DeltaHEngine:
        if self._engine is None:
            from repro.core.arrays import GroupIndex

            index = GroupIndex.for_matrix(self._matrix)
            static = DeltaHStatic.for_matrix(
                self._matrix, index.groups, index.sources
            )
            self._engine = DeltaHEngine(static)
            self._sources = index.sources
            self._row_of = {
                group.signature: row
                for row, group in enumerate(index.groups)
            }
        return self._engine

    def scores(
        self,
        groups: Sequence[FactGroup],
        probabilities: np.ndarray,
        correct_counts: Mapping[SourceId, float],
        total_counts: Mapping[SourceId, float],
        default_trust: float,
        default_fact_probability: float,
        smoothing: float,
    ) -> np.ndarray:
        """ΔH_cross for ``groups`` (rows of the full grouping), full rescan."""
        engine = self._ensure()
        static = engine.static
        rows = np.array(
            [self._row_of[group.signature] for group in groups],
            dtype=np.intp,
        )
        n_groups = static.n_groups
        active = np.zeros(n_groups, dtype=bool)
        active[rows] = True
        sizes = np.zeros(n_groups, dtype=float)
        sizes[rows] = [float(group.size) for group in groups]
        probs = np.zeros(n_groups, dtype=float)
        probs[rows] = probabilities
        sources = self._sources
        correct = np.array(
            [correct_counts.get(s, 0) for s in sources], dtype=float
        )
        total = np.array(
            [total_counts.get(s, 0) for s in sources], dtype=float
        )
        delta = engine.cross_scores(
            correct=correct,
            total=total,
            sizes=sizes,
            active=active,
            probabilities=probs,
            default_trust=default_trust,
            default_fact_probability=default_fact_probability,
            smoothing=smoothing,
            full=True,
        )
        return delta[rows]
