"""Experiments E9–E11 — the synthetic sweeps of Figure 3.

Three accuracy sweeps over the Section 6.3.1 generator:

* Figure 3(a): total sources 2–11, inaccurate fixed at 2;
* Figure 3(b): inaccurate sources 0–10, total fixed at 10;
* Figure 3(c): F-vote fraction η ∈ {0.01 … 0.05}, 10 sources / 2
  inaccurate.

The paper uses 20,000 facts per configuration; ``num_facts`` (and
``repeats`` for variance reduction) are exposed so tests can run small.
Each point is the accuracy over all facts.

The sweeps are embarrassingly parallel: each ``(point, seed)`` pair is an
independent cell of a :class:`~repro.parallel.ShardRunner` sweep, run
inline at the default ``workers=1`` and on a ``spawn`` process pool above
it.  Every worker count produces bit-identical rows and a bit-identical
merged run ledger, because the cell seeds come from the cell's *identity*
(``root_seed`` + figure + point + repeat, via
:func:`repro.parallel.spawn_seeds`), never from the schedule.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import generate_synthetic
from repro.eval.harness import run_methods
from repro.eval.metrics import evaluate_result
from repro.experiments.methods import synthetic_methods
from repro.obs import NULL_OBS, Obs, get_logger
from repro.parallel import ShardRunner, spawn_seeds

_LOG = get_logger(__name__)


def _point_seeds(
    root_seed: int | None, figure: str, point: object, repeats: int
) -> list[int]:
    """Per-repeat dataset seeds for one sweep point.

    With no ``root_seed`` the historical ``0..repeats-1`` seeds are kept
    (so published numbers do not move); with one, seeds derive from the
    cell identity and are therefore schedule- and worker-count-independent.
    """
    if root_seed is None:
        return list(range(repeats))
    component = point if isinstance(point, int) else str(point)
    return spawn_seeds(root_seed, repeats, figure, component)


def _sweep_cell(payload: dict, obs: Obs = NULL_OBS) -> dict:
    """One ``(point, seed)`` cell: generate the world, run every method.

    Module-level (picklable by reference) so it can run inside a ``spawn``
    worker.  The methods run inline in the cell (``run_methods``' single
    default worker — no nested pool).  Returns per-method accuracies plus
    the isolated failures.
    """
    world = generate_synthetic(
        num_accurate=payload["num_accurate"],
        num_inaccurate=payload["num_inaccurate"],
        num_facts=payload["num_facts"],
        eta=payload["eta"],
        seed=payload["seed"],
    )
    runs = run_methods(
        synthetic_methods(
            bayes_burn_in=payload["bayes_burn_in"],
            bayes_samples=payload["bayes_samples"],
        ),
        world.dataset,
        obs=obs,
        isolate_errors=payload["isolate_errors"],
    )
    accuracies: dict[str, float] = {}
    failures: dict[str, str] = {}
    for run in runs:
        if run.failed:
            failures[run.method] = run.error_type or "error"
        else:
            counts = evaluate_result(run.result, world.dataset)
            accuracies[run.method] = counts.accuracy
    return {"accuracies": accuracies, "failures": failures}


def _mean_accuracies(cell_results: list[dict]) -> dict[str, float]:
    """Mean accuracy per method over one point's cells, in cell order."""
    totals: dict[str, list[float]] = {}
    for result in cell_results:
        for method, error_type in result["failures"].items():
            _LOG.warning(
                "%s failed at this sweep point (%s); excluded from the mean",
                method,
                error_type,
            )
        for method, accuracy in result["accuracies"].items():
            totals.setdefault(method, []).append(accuracy)
    return {method: float(np.mean(values)) for method, values in totals.items()}


#: One sweep point: (row key, row value, num_accurate, num_inaccurate, eta).
_Point = tuple[str, object, int, int, float]


def _sweep_rows(
    figure: str,
    points: list[_Point],
    num_facts: int,
    repeats: int,
    bayes_burn_in: int,
    bayes_samples: int,
    obs: Obs,
    isolate_errors: bool,
    workers: int,
    root_seed: int | None,
) -> list[dict]:
    """Run one Figure 3 sweep: one cell per ``(point, repeat)``."""
    payloads: list[dict] = []
    labels: list[str] = []
    for key, value, num_accurate, num_inaccurate, eta in points:
        seeds = _point_seeds(root_seed, figure, value, repeats)
        for repeat, seed in enumerate(seeds):
            payloads.append(
                {
                    "num_accurate": num_accurate,
                    "num_inaccurate": num_inaccurate,
                    "eta": eta,
                    "num_facts": num_facts,
                    "seed": seed,
                    "bayes_burn_in": bayes_burn_in,
                    "bayes_samples": bayes_samples,
                    "isolate_errors": isolate_errors,
                }
            )
            labels.append(f"{figure}[{key}={value}]#{repeat}")
    runner = ShardRunner(
        workers=workers, isolate_errors=isolate_errors, obs=obs, label=figure
    )
    outcomes = runner.run(_sweep_cell, payloads, labels=labels)
    rows = []
    for i, (key, value, *_) in enumerate(points):
        cells = outcomes[i * repeats : (i + 1) * repeats]
        results = [outcome.value for outcome in cells if outcome.ok]
        rows.append({key: value, **_mean_accuracies(results)})
    return rows


def figure3a(
    num_facts: int = 20_000,
    source_counts: list[int] | None = None,
    repeats: int = 1,
    bayes_burn_in: int = 10,
    bayes_samples: int = 20,
    obs: Obs = NULL_OBS,
    isolate_errors: bool = True,
    workers: int = 1,
    root_seed: int | None = None,
) -> list[dict]:
    """Accuracy vs total number of sources (2 inaccurate fixed)."""
    counts = source_counts or list(range(2, 12))
    points: list[_Point] = [
        ("num_sources", total, total - 2, 2, 0.03) for total in counts
    ]
    return _sweep_rows(
        "figure3a",
        points,
        num_facts,
        repeats,
        bayes_burn_in,
        bayes_samples,
        obs,
        isolate_errors,
        workers,
        root_seed,
    )


def figure3b(
    num_facts: int = 20_000,
    inaccurate_counts: list[int] | None = None,
    repeats: int = 1,
    bayes_burn_in: int = 10,
    bayes_samples: int = 20,
    obs: Obs = NULL_OBS,
    isolate_errors: bool = True,
    workers: int = 1,
    root_seed: int | None = None,
) -> list[dict]:
    """Accuracy vs number of inaccurate sources (10 total fixed)."""
    counts = inaccurate_counts if inaccurate_counts is not None else list(range(0, 11))
    points: list[_Point] = [
        ("num_inaccurate", inaccurate, 10 - inaccurate, inaccurate, 0.03)
        for inaccurate in counts
    ]
    return _sweep_rows(
        "figure3b",
        points,
        num_facts,
        repeats,
        bayes_burn_in,
        bayes_samples,
        obs,
        isolate_errors,
        workers,
        root_seed,
    )


def figure3c(
    num_facts: int = 20_000,
    etas: list[float] | None = None,
    repeats: int = 1,
    bayes_burn_in: int = 10,
    bayes_samples: int = 20,
    obs: Obs = NULL_OBS,
    isolate_errors: bool = True,
    workers: int = 1,
    root_seed: int | None = None,
) -> list[dict]:
    """Accuracy vs F-vote fraction η (10 sources, 2 inaccurate)."""
    eta_values = etas or [0.01, 0.02, 0.03, 0.04, 0.05]
    points: list[_Point] = [("eta", eta, 8, 2, eta) for eta in eta_values]
    return _sweep_rows(
        "figure3c",
        points,
        num_facts,
        repeats,
        bayes_burn_in,
        bayes_samples,
        obs,
        isolate_errors,
        workers,
        root_seed,
    )
