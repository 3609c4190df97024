"""Scenario evaluation: method line-up over adversarial worlds.

This wires scenario worlds into the shared experiment runner
(:func:`repro.eval.harness.run_methods`): every method runs on both the
adversarial dataset *and* its independent control, so each scenario row
carries the paired numbers that make "the attack cost X accuracy, the
dependence-aware variant won Y back" an observation rather than seed
noise.

The line-up is the bench's comparison set: the paper's incremental
algorithm (IncEstimate[IncEstHeu]), the strongest fixpoint baselines
(TwoEstimate, TruthFinder), naive Voting, and the dependence-aware
variant (:class:`repro.core.variants.DependenceAware`) — with the
trust-decay knob switched on for drift scenarios, where old epochs
misrepresent current source behaviour.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.baselines import TruthFinder, TwoEstimate, Voting
from repro.core import IncEstHeu, IncEstimate
from repro.core.result import Corroborator
from repro.core.variants import DependenceAware
from repro.eval.harness import MethodRun, run_methods
from repro.eval.metrics import quality_row, trust_mse_for
from repro.model.dataset import Dataset
from repro.obs import NULL_OBS, Obs, get_logger
from repro.scenarios.generators import ScenarioWorld, generate_scenario
from repro.scenarios.spec import ScenarioSpec

_LOG = get_logger(__name__)

#: Name of the vanilla incremental method the degradation is measured on.
BASE_METHOD = "IncEstimate[IncEstHeu]"

#: Trust-decay applied by the dependence-aware variant on drift scenarios:
#: a vote ``age`` epochs old survives with probability ``0.7 ** age``, so
#: trust tracks recent behaviour instead of averaging over the drift.
DRIFT_TRUST_DECAY = 0.7


def dependence_variant(
    spec: ScenarioSpec, epoch_of: dict | None = None
) -> DependenceAware:
    """The dependence-aware variant configured for one scenario.

    Detection thresholds are the variant's defaults; drift scenarios
    additionally get the trust-decay knob (deterministic via the spec's
    derived seed, so suite runs stay bit-identical).
    """
    kwargs: dict = {"seed": spec.derive("dep-aware")}
    if spec.kind == "drift" and epoch_of:
        kwargs.update(trust_decay=DRIFT_TRUST_DECAY, epoch_of=epoch_of)
    return DependenceAware(**kwargs)


def scenario_methods(world: ScenarioWorld) -> list[Corroborator]:
    """The standard scenario line-up (fresh instances per call)."""
    return [
        IncEstimate(IncEstHeu()),
        TwoEstimate(),
        TruthFinder(),
        Voting(),
        dependence_variant(world.spec, world.epoch_of_fact),
    ]


@dataclasses.dataclass
class ScenarioResult:
    """One scenario's runs: adversarial world plus its paired control."""

    world: ScenarioWorld
    runs: list[MethodRun]
    control_runs: list[MethodRun]

    @property
    def dependence_method(self) -> str | None:
        """Name of the dependence-aware variant's row, if present."""
        for run in self.runs:
            if run.method.startswith("DepAware["):
                return run.method
        return None


def run_scenario(
    world: ScenarioWorld,
    methods: Sequence[Corroborator] | None = None,
    obs: Obs = NULL_OBS,
    *,
    workers: int | None = None,
) -> ScenarioResult:
    """Run the line-up on the world's dataset and its control.

    When the control *is* the dataset (the ``independent`` kind) the
    methods run once and both row sets share the runs.
    """
    supplied = methods
    if methods is None:
        methods = scenario_methods(world)
    _LOG.info(
        "scenario %s (%s): %s",
        world.spec.name,
        world.spec.kind,
        world.dataset.summary(),
    )
    runs = run_methods(methods, world.dataset, obs, workers=workers)
    if world.baseline is world.dataset:
        control_runs = runs
    else:
        # Fresh instances for the control pass unless the caller pinned a
        # specific line-up (corroborators are stateless across run calls).
        control_methods = (
            supplied if supplied is not None else scenario_methods(world)
        )
        control_runs = run_methods(
            control_methods, world.baseline, obs, workers=workers
        )
    return ScenarioResult(world=world, runs=runs, control_runs=control_runs)


def run_scenario_suite(
    specs: Sequence[ScenarioSpec],
    obs: Obs = NULL_OBS,
    *,
    workers: int | None = None,
) -> list[ScenarioResult]:
    """Generate and evaluate every spec, in order."""
    return [
        run_scenario(generate_scenario(spec), obs=obs, workers=workers)
        for spec in specs
    ]


def _rows_for(
    world: ScenarioWorld,
    dataset: Dataset,
    runs: Sequence[MethodRun],
    which: str,
) -> list[dict]:
    rows: list[dict] = []
    for run in runs:
        row: dict = {
            "scenario": world.spec.name,
            "kind": world.spec.kind,
            "world": which,
            "method": run.method,
            "facts": dataset.matrix.num_facts,
            "sources": dataset.matrix.num_sources,
            "votes": dataset.matrix.num_votes,
            "seconds": round(run.seconds, 4),
        }
        if run.failed:
            row["error"] = f"{run.error_type}: {run.error}"
        else:
            quality = quality_row(run.result, dataset)
            for key in ("precision", "recall", "accuracy", "f1"):
                row[key] = quality[key]
            row["trust_mse"] = trust_mse_for(run.result, dataset)
        rows.append(row)
    return rows


def scenario_rows(result: ScenarioResult) -> list[dict]:
    """Flat per-method metric rows for one scenario (control rows first).

    Control rows are labelled ``world="control"`` and adversarial rows
    ``world="adversarial"``; for the ``independent`` kind the two worlds
    coincide and only the adversarial rows are emitted.
    """
    rows: list[dict] = []
    if result.world.baseline is not result.world.dataset:
        rows.extend(
            _rows_for(
                result.world, result.world.baseline,
                result.control_runs, "control",
            )
        )
    rows.extend(
        _rows_for(result.world, result.world.dataset, result.runs, "adversarial")
    )
    return rows


def _accuracy(runs: Sequence[MethodRun], method: str, dataset: Dataset) -> float | None:
    for run in runs:
        if run.method == method and run.ok:
            return quality_row(run.result, dataset)["accuracy"]
    return None


def copying_recovery(result: ScenarioResult) -> dict:
    """The acceptance numbers of a copying scenario.

    ``gap`` is how much accuracy the attack costs the vanilla incremental
    method (control minus adversarial); ``recovered_fraction`` is how much
    of that gap the dependence-aware variant wins back (1.0 = full
    recovery, ``None`` when the gap is non-positive and the ratio is
    meaningless).
    """
    world = result.world
    dep_method = result.dependence_method
    base = _accuracy(result.control_runs, BASE_METHOD, world.baseline)
    attacked = _accuracy(result.runs, BASE_METHOD, world.dataset)
    recovered = (
        _accuracy(result.runs, dep_method, world.dataset)
        if dep_method
        else None
    )
    gap = None if base is None or attacked is None else base - attacked
    fraction = None
    if gap is not None and gap > 0 and recovered is not None:
        fraction = (recovered - attacked) / gap
    return {
        "scenario": world.spec.name,
        "base_accuracy": base,
        "attacked_accuracy": attacked,
        "dependence_accuracy": recovered,
        "gap": gap,
        "recovered_fraction": fraction,
    }
