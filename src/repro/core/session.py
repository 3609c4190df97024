"""Step-wise execution of the incremental algorithm.

:class:`CorroborationSession` exposes Algorithm 1 one time point at a
time: create a session, call :meth:`step` until :attr:`done`, and inspect
the evolving trust, the remaining fact groups and the committed verdicts
between steps.  :meth:`~repro.core.incestimate.IncEstimate.run` is a thin
loop over this class, so both paths execute identical logic — the session
exists for debugging, teaching, and applications that interleave
corroboration with other work (e.g. asking a human to verify the facts
committed so far before continuing).

The session runs on the **array engine**: a :class:`~repro.core.arrays.\
SessionArrays` built once at construction and updated in place across time
points — numpy counter vectors, an active-group mask, vectorised group
probabilities, and the pair-level ΔH cache for the ranking.  The engine
replays the float operations of a paper-literal dict-per-step
implementation in the same order (see :mod:`repro.core.arrays`), so it is
a pure performance substitution, not an approximation: the test oracle
``tests/scalar_reference.py`` keeps that implementation, and the
equivalence suites compare the two with ``==`` — same probabilities,
labels, label overrides, trust trajectories and round records, down to tie
breaks and the one-sided flush.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import repeat

from repro.core.arrays import SessionArrays
from repro.core.entropy import binary_entropy
from repro.core.fact_groups import FactGroupView
from repro.core.incestimate import RoundRecord
from repro.core.result import CorroborationResult
from repro.core.scoring import decide
from repro.core.selection import SelectionContext, SelectionStrategy
from repro.core.trust import TrustTrajectory
from repro.model.dataset import Dataset
from repro.model.matrix import FactId, SourceId
from repro.obs import NULL_OBS, Obs


class CorroborationSession:
    """One in-flight incremental corroboration run.

    Args:
        dataset: the problem instance.
        strategy: fact-selection strategy (Algorithm 1 line 3).
        default_trust: λ (see :class:`~repro.core.incestimate.IncEstimate`).
        default_fact_probability: probability of facts nobody voted on.
        trust_prior_strength: λ-anchor strength as a fraction of |F|.
        method_name: label used in the final result.
        obs: observability bundle (:mod:`repro.obs`).  With the default
            no-op bundle the per-step overhead is a handful of discarded
            method calls; with a real bundle the session emits per-step
            spans, round/trust ledger records and selection metrics.
            Observability is read-only — it never changes probabilities,
            tie breaks or trust, with or without sinks attached (the
            no-op-equivalence tests assert exactly this).
        counters: starting ``[correct, total, trust]`` per source, taken
            verbatim (a stream epoch's carried state); other sources start
            at ``[λ·k0, k0, λ]``.
        prior: k0; ``trust_prior_strength · |F|`` when omitted.
    """

    def __init__(
        self,
        dataset: Dataset,
        strategy: SelectionStrategy,
        default_trust: float,
        default_fact_probability: float,
        trust_prior_strength: float,
        method_name: str,
        obs: Obs = NULL_OBS,
        counters: Mapping[SourceId, Sequence[float]] | None = None,
        prior: float | None = None,
    ) -> None:
        self._dataset = dataset
        self._strategy = strategy
        self._default_trust = default_trust
        self._default_fact_probability = default_fact_probability
        self._method_name = method_name
        self._obs = obs

        matrix = dataset.matrix
        self._sources = matrix.sources
        if prior is None:
            prior = trust_prior_strength * matrix.num_facts
        with obs.tracer.span("session.setup"):
            self._arrays = SessionArrays(matrix, default_trust, prior)
            if counters:
                self._seed_counters(counters)
        # Probability bookkeeping is deferred: per-selection chunks of
        # (facts, shared probability) accumulate here and materialise into
        # the per-fact dict only when a reader needs it.
        self._prob_chunks: list[tuple[list[FactId], float]] = []
        self._evaluated_count = 0
        self._trajectory = TrustTrajectory(self._sources, obs=obs)
        self._last_step_stats: dict = {}
        self._probabilities: dict[FactId, float] = {}
        self._label_overrides: dict[FactId, bool] = {}
        self._rounds: list[RoundRecord] = []
        self._max_time_points = matrix.num_facts + 1
        self._finalized = False
        if obs.enabled:
            obs.metrics.inc("session.runs")
            obs.runlog.emit(
                "run_start",
                method=method_name,
                facts=matrix.num_facts,
                groups=self._arrays.num_groups,
                sources=len(self._sources),
            )

    def _seed_counters(self, counters: Mapping[SourceId, Sequence[float]]) -> None:
        """Start the named sources from their ``[correct, total, trust]``."""
        positions = {source: row for row, source in enumerate(self._sources)}
        unknown = [s for s in counters if s not in positions]
        if unknown:
            raise ValueError(f"counters for sources not in the dataset: {unknown}")
        rows = [positions[s] for s in counters]
        correct, total, trust = zip(*counters.values())
        self._arrays.correct[rows] = correct
        self._arrays.total[rows] = total
        self._arrays.trust[rows] = trust

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every fact has been evaluated."""
        return not self._arrays.has_active()

    @property
    def time_point(self) -> int:
        """The index the *next* step will run at."""
        return self._trajectory.num_time_points

    @property
    def trust(self) -> dict[SourceId, float]:
        """σi(S): the trust vector the next step will evaluate with."""
        return self._arrays.trust_dict()

    def counters(self) -> dict[SourceId, list[float]]:
        """Per-source ``[correct, total, trust]`` in source order.

        All the state Equation 8 carries forward: a later stream epoch
        passes it back in as ``counters``.
        """
        correct, total = self._arrays.counter_dicts()
        trust = self.trust
        return {s: [correct[s], total[s], trust[s]] for s in self._sources}

    @property
    def remaining_groups(self) -> list[FactGroupView]:
        """Read-only views of the unevaluated fact groups.

        Contract: the views are *live* — they reflect the session's
        progress as further steps consume facts — and expose the full
        inspection API of :class:`~repro.core.fact_groups.FactGroup`
        (``signature``, ``facts``, ``size``, ``voters``, …) but no
        mutators, so inspecting them can never corrupt session state.
        Unlike the deep copies this property used to return, obtaining the
        views is O(groups), not O(facts).
        """
        arrays = self._arrays
        return [FactGroupView(arrays.groups[row]) for row in arrays.active_rows()]

    @property
    def remaining_facts(self) -> int:
        return self._arrays.remaining_facts()

    @property
    def evaluated_facts(self) -> int:
        return self._evaluated_count

    @property
    def rounds(self) -> list[RoundRecord]:
        return list(self._rounds)

    def current_labels(self) -> dict[FactId, bool]:
        """Verdicts committed so far."""
        self._materialize_probabilities()
        labels = {f: decide(p) for f, p in self._probabilities.items()}
        labels.update(self._label_overrides)
        return labels

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> list[RoundRecord]:
        """Run one time point; returns the records of what was evaluated.

        Raises if the session is already done — check :attr:`done`.
        """
        if self.done:
            raise RuntimeError("session is complete; no facts remain")
        obs = self._obs
        if not obs.enabled:
            # Fast path: no span bookkeeping, no kwargs dicts — the
            # disabled session runs the exact uninstrumented step.
            return self._step_engine()
        with obs.tracer.span("session.step", time_point=self.time_point) as span:
            records = self._step_engine()
            self._observe_step(records)
            if self._last_step_stats:
                # Selection round stats (candidates_rescored / skipped)
                # recorded by the strategy for this time point.
                span.add(**self._last_step_stats)
        return records

    def _step_engine(self) -> list[RoundRecord]:
        """One array-engine time point."""
        arrays = self._arrays
        tracer = self._obs.tracer
        time_point = self._trajectory.record_vector(arrays.trust, self._sources)
        if time_point >= self._max_time_points:
            raise RuntimeError(
                f"{self._method_name}: exceeded {self._max_time_points} time "
                f"points; selection strategy {self._strategy.name} is not "
                "consuming facts"
            )
        with tracer.span("session.probabilities"):
            probs = arrays.compute_probabilities(self._default_fact_probability)
        correct_view, total_view = arrays.counter_views()
        context = SelectionContext(
            groups=arrays.active_groups(),
            trust=arrays.trust_view(),
            default_trust=self._default_trust,
            default_fact_probability=self._default_fact_probability,
            correct_counts=correct_view,
            total_counts=total_view,
            arrays=arrays,
            obs=self._obs,
        )
        self._last_step_stats = context.stats
        with tracer.span("session.select", strategy=self._strategy.name):
            selections = self._strategy.select(context)
        if not any(item.count > 0 for item in selections):
            raise RuntimeError(
                f"{self._method_name}: strategy {self._strategy.name} selected "
                f"no facts with {len(context.groups)} groups remaining"
            )
        with tracer.span("session.commit"):
            step_records: list[RoundRecord] = []
            for item in selections:
                group = item.group
                probability = float(probs[group.engine_row])
                label = decide(probability) if item.label is None else item.label
                taken = group.take(item.count)
                self._trajectory.mark_evaluated_many(taken, time_point)
                self._prob_chunks.append((taken, probability))
                self._evaluated_count += len(taken)
                if label != decide(probability):
                    self._label_overrides.update(dict.fromkeys(taken, label))
                record = RoundRecord(
                    time_point=time_point,
                    signature=group.signature,
                    probability=probability,
                    label=label,
                    facts=taken,
                )
                step_records.append(record)
                self._rounds.append(record)
                arrays.apply_evaluation(group.engine_row, len(taken), label)
            arrays.refresh_trust()
        return step_records

    def _observe_step(self, step_records: list[RoundRecord]) -> None:
        """Emit metrics and ledger records for one committed time point.

        A pure read-out of the just-committed :class:`RoundRecord`\\ s and
        the trajectory — runs after the step's state updates and touches no
        algorithm state, so enabling observability cannot change results.
        """
        obs = self._obs
        metrics = obs.metrics
        time_point = step_records[0].time_point
        metrics.inc("session.time_points")
        metrics.inc("session.rounds", len(step_records))
        obs.runlog.emit(
            "trust",
            time_point=time_point,
            trust=self._trajectory.at(time_point),
        )
        for record in step_records:
            n = len(record.facts)
            # σ(FG) is an average of trust values and can drift a few ulp
            # outside [0, 1]; clamp for the entropy read-out only.
            clamped = min(max(record.probability, 0.0), 1.0)
            entropy_destroyed = binary_entropy(clamped) * n
            flip = record.label != decide(record.probability)
            metrics.inc("session.facts_evaluated", n)
            metrics.inc("session.votes_touched", len(record.signature) * n)
            metrics.inc("session.entropy_destroyed", entropy_destroyed)
            if flip:
                metrics.inc("session.label_flips", n)
            metrics.observe("session.group_size_selected", n)
            obs.runlog.emit(
                "round",
                time_point=record.time_point,
                signature=[list(pair) for pair in record.signature],
                probability=record.probability,
                label=record.label,
                num_facts=n,
                facts=list(record.facts),
                entropy_destroyed=entropy_destroyed,
                label_flip=flip,
            )

    def _materialize_probabilities(self) -> None:
        """Fold any deferred (facts, probability) chunks into the dict."""
        if not self._prob_chunks:
            return
        probabilities = self._probabilities
        for facts, probability in self._prob_chunks:
            probabilities.update(zip(facts, repeat(probability)))
        self._prob_chunks.clear()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The session's full mutable state as a JSON-safe document.

        Safe to call between any two :meth:`step` calls.  The snapshot
        embeds a fingerprint of the vote matrix and the session parameters;
        :meth:`restore` refuses to apply it to a different dataset,
        backend, strategy, or parameterisation.  A restored session
        continues **bit-identically** to the uninterrupted run — see
        ``docs/robustness.md`` for the format and the exactness argument.
        """
        from repro.resilience.checkpoint import dataset_fingerprint

        self._materialize_probabilities()
        strategy_state = getattr(self._strategy, "state_dict", None)
        return {
            "format": "corroboration-session",
            "method": self._method_name,
            "backend": "engine",
            "strategy": self._strategy.name,
            "strategy_state": strategy_state() if callable(strategy_state) else None,
            "params": {
                "default_trust": self._default_trust,
                "default_fact_probability": self._default_fact_probability,
            },
            "dataset_fingerprint": dataset_fingerprint(self._dataset),
            "time_point": self.time_point,
            "finalized": self._finalized,
            "trajectory": self._trajectory.state_dict(),
            "probabilities": dict(self._probabilities),
            "label_overrides": dict(self._label_overrides),
            "rounds": [
                {
                    "time_point": record.time_point,
                    "signature": [list(pair) for pair in record.signature],
                    "probability": record.probability,
                    "label": record.label,
                    "facts": list(record.facts),
                }
                for record in self._rounds
            ],
            "engine": self._arrays.state_dict(),
            "evaluated_count": self._evaluated_count,
        }

    def restore(self, snapshot: dict) -> None:
        """Load a :meth:`snapshot` into this *freshly constructed* session.

        Raises :class:`~repro.resilience.errors.CheckpointError` when the
        snapshot belongs to a different dataset, backend, strategy, or
        parameterisation, or when this session has already stepped.
        """
        from repro.resilience.checkpoint import dataset_fingerprint
        from repro.resilience.errors import CheckpointError

        if self.time_point != 0 or self._rounds or self._finalized:
            raise CheckpointError(
                "restore() requires a freshly constructed session"
            )
        if snapshot.get("format") != "corroboration-session":
            raise CheckpointError("snapshot is not a corroboration session")
        checks = (
            ("method", self._method_name),
            ("backend", "engine"),
            ("strategy", self._strategy.name),
            ("dataset_fingerprint", dataset_fingerprint(self._dataset)),
        )
        for key, expected in checks:
            if snapshot.get(key) != expected:
                raise CheckpointError(
                    f"checkpoint {key} mismatch: snapshot has "
                    f"{snapshot.get(key)!r}, session has {expected!r}"
                )
        params = snapshot.get("params", {})
        for key, expected in (
            ("default_trust", self._default_trust),
            ("default_fact_probability", self._default_fact_probability),
        ):
            if params.get(key) != expected:
                raise CheckpointError(
                    f"checkpoint parameter {key} mismatch: snapshot has "
                    f"{params.get(key)!r}, session has {expected!r}"
                )
        try:
            self._trajectory.load_state_dict(snapshot["trajectory"])
            strategy_state = snapshot.get("strategy_state")
            if strategy_state is not None:
                loader = getattr(self._strategy, "load_state_dict", None)
                if not callable(loader):
                    raise CheckpointError(
                        f"snapshot carries state for strategy "
                        f"{self._strategy.name}, which cannot load state"
                    )
                loader(strategy_state)
            self._probabilities = {
                str(fact): float(p)
                for fact, p in snapshot["probabilities"].items()
            }
            self._label_overrides = {
                str(fact): bool(label)
                for fact, label in snapshot["label_overrides"].items()
            }
            self._rounds = [
                RoundRecord(
                    time_point=int(record["time_point"]),
                    signature=tuple(
                        tuple(pair) for pair in record["signature"]
                    ),
                    probability=float(record["probability"]),
                    label=bool(record["label"]),
                    facts=list(record["facts"]),
                )
                for record in snapshot["rounds"]
            ]
            self._finalized = bool(snapshot["finalized"])
            self._arrays.load_state_dict(snapshot["engine"])
            self._evaluated_count = int(snapshot["evaluated_count"])
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed session snapshot: {exc}") from exc
        # Re-anchor the runaway guard to the restored position.  A snapshot
        # may carry more evaluated history than this session's dataset has
        # facts (only the test oracle's epoch replay restores into a delta
        # session; stream epochs never restore), so the construction-time
        # bound of ``matrix.num_facts + 1`` does not apply; every further
        # step still consumes at least one fact, plus one slot for the
        # finalize-time vector.  For a plain same-dataset resume this bound
        # is tighter than or equal to the original one.
        self._max_time_points = self.time_point + self.remaining_facts + 1
        if self._obs.enabled:
            self._obs.metrics.inc("session.restores")
            self._obs.runlog.emit(
                "checkpoint", event="restore", time_point=self.time_point
            )

    def run_to_completion(self, checkpoint=None) -> CorroborationResult:
        """Step until done and return the final result.

        ``checkpoint`` (a :class:`~repro.resilience.checkpoint
        .CheckpointManager`) saves a crash-safe snapshot after each
        committed step; a killed run restarts from its last checkpoint via
        :meth:`restore` instead of from scratch.
        """
        while not self.done:
            self.step()
            if checkpoint is not None:
                checkpoint.save(self)
        return self.finalize()

    def finalize(self) -> CorroborationResult:
        """Record the final trust vector and build the result.

        Idempotent with respect to the final-vector recording; callable
        only once the session is done.
        """
        if not self.done:
            raise RuntimeError(
                f"{self.remaining_facts} facts still unevaluated; "
                "run step() until done first"
            )
        obs = self._obs
        with obs.tracer.span("session.finalize"):
            if not self._finalized:
                # The trust over the entire evaluated dataset (Table 5's
                # vector).
                self._trajectory.record(self.trust)
                self._finalized = True
                if obs.enabled:
                    final = self._trajectory.num_time_points - 1
                    obs.runlog.emit(
                        "trust",
                        time_point=final,
                        trust=self._trajectory.at(final),
                    )
                    obs.runlog.emit(
                        "run_end",
                        method=self._method_name,
                        time_points=self._trajectory.num_time_points,
                        rounds=len(self._rounds),
                        facts_evaluated=self.evaluated_facts,
                        label_flips=len(self._label_overrides),
                    )
                    obs.metrics.set_gauge(
                        "session.final_time_points",
                        self._trajectory.num_time_points,
                    )
            self._materialize_probabilities()
            result = CorroborationResult(
                method=self._method_name,
                probabilities=dict(self._probabilities),
                trust=self.trust,
                iterations=self._trajectory.num_time_points - 1,
                trajectory=self._trajectory,
                label_overrides=dict(self._label_overrides),
            )
            result.rounds = list(self._rounds)
        return result
