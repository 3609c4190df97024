"""Experiments E3–E7 — the real-world restaurant dataset.

Regenerates, against the simulated crawl of
:mod:`repro.datasets.restaurants`:

* **Table 3** — source coverage, pairwise overlap, golden-set accuracy;
* **Table 4** — precision / recall / accuracy / F1 of the eight methods;
* **Table 5** — per-source trust scores and the trust MSE;
* **Figure 2** — per-time-point trust trajectories of IncEstPS / IncEstHeu;
* **Table 6** — wall-clock time per method.

Every function takes an optional pre-built world so the expensive
generation is shared; benchmarks pass a module-level cached one.
"""

from __future__ import annotations

from repro.core import CorroborationResult, IncEstHeu, IncEstPS, IncEstimate
from repro.datasets.restaurants import RestaurantWorld, generate_restaurants
from repro.eval.harness import (
    MethodRun,
    mse_table,
    quality_table,
    run_methods,
    timing_table,
)
from repro.eval.tables import render_table
from repro.experiments.methods import paper_methods
from repro.obs import NULL_OBS, Obs, get_logger

_LOG = get_logger(__name__)


def build_world(num_facts: int | None = None, **kwargs) -> RestaurantWorld:
    """Generate the restaurant world (paper scale by default)."""
    if num_facts is not None:
        kwargs["num_facts"] = num_facts
    _LOG.info("generating restaurant world (%s)", kwargs or "paper defaults")
    world = generate_restaurants(**kwargs)
    _LOG.info(
        "restaurant world ready: %d facts, %d sources",
        world.dataset.matrix.num_facts,
        world.dataset.matrix.num_sources,
    )
    return world


def table3(world: RestaurantWorld | None = None) -> dict[str, list[dict]]:
    """Table 3 blocks: coverage row, overlap matrix, accuracy row."""
    world = world or build_world()
    coverage = {"metric": "coverage", **world.coverage_row()}
    accuracy_values = world.accuracy_row()
    accuracy = {
        "metric": "accuracy",
        **{k: (v if v is not None else "-") for k, v in accuracy_values.items()},
    }
    return {
        "coverage": [coverage],
        "overlap": world.overlap_matrix(),
        "accuracy": [accuracy],
        "f_votes": [{"metric": "f_votes", **world.f_vote_counts()}],
    }


def run_paper_methods(
    world: RestaurantWorld | None = None,
    bayes_burn_in: int = 10,
    bayes_samples: int = 20,
    with_ml: bool = True,
    obs: Obs = NULL_OBS,
    isolate_errors: bool = True,
) -> tuple[RestaurantWorld, list[MethodRun]]:
    """Run the Table 4 method line-up once; shared by Tables 4–6.

    ``obs`` is forwarded to :func:`~repro.eval.harness.run_methods`, so a
    traced experiment shows one ``harness.method`` block per method;
    ``isolate_errors`` configures the sweep's error isolation (a failed
    method becomes a structured failure row in Tables 4–6 instead of
    killing the whole line-up).
    """
    world = world or build_world()
    methods = paper_methods(
        bayes_burn_in=bayes_burn_in, bayes_samples=bayes_samples, with_ml=with_ml
    )
    _LOG.info("running %d paper methods on the restaurant dataset", len(methods))
    return world, run_methods(
        methods, world.dataset, obs=obs, isolate_errors=isolate_errors
    )


def table4(runs: list[MethodRun], world: RestaurantWorld) -> list[dict]:
    """Table 4 rows from a completed run set."""
    return quality_table(runs, world.dataset)


def table5(runs: list[MethodRun], world: RestaurantWorld) -> list[dict]:
    """Table 5 rows (trust per source + MSE) from a completed run set."""
    return mse_table(runs, world.dataset)


def table6(runs: list[MethodRun]) -> list[dict]:
    """Table 6 rows (wall-clock seconds) from a completed run set."""
    return timing_table(runs)


def figure2(
    world: RestaurantWorld | None = None,
) -> dict[str, list[dict]]:
    """Figure 2 data: trust per source per time point, for both strategies.

    Returns {"IncEstPS": rows, "IncEstHeu": rows}; each row is
    {"time_point": i, source: trust, ...}.
    """
    world = world or build_world()
    series: dict[str, list[dict]] = {}
    for strategy in (IncEstPS(), IncEstHeu()):
        result = IncEstimate(strategy).run(world.dataset)
        assert result.trajectory is not None
        rows = []
        for time_point, vector in enumerate(result.trajectory.as_rows()):
            row: dict = {"time_point": time_point}
            row.update(vector)
            rows.append(row)
        series[strategy.name] = rows
    return series


#: Figure 2's panel titles, by the method whose trajectory they plot.
_FIGURE2_TITLES = {
    "IncEstimate[IncEstPS]": "Figure 2(a) — IncEstPS trust per time point "
    "(paper: all sources pinned at ~1 until only F-vote facts remain)",
    "IncEstimate[IncEstHeu]": "Figure 2(b) — IncEstHeu trust per time point "
    "(paper: YellowPages/CitySearch dip below 0.5, curated sources stay high)",
}


def figure2_text(result: CorroborationResult) -> str:
    """One Figure 2 panel as ``results/figure2{a,b}_*.txt`` holds it.

    ``result`` is an IncEstPS or IncEstHeu run; the panel shows its trust
    vector at every ``iterations // 25``-th time point.
    """
    trajectory = result.trajectory
    stride = max(1, result.iterations // 25)
    rows = [
        {"time_point": time_point, **trajectory.at(time_point)}
        for time_point in range(0, trajectory.num_time_points, stride)
    ]
    return render_table(
        rows, title=_FIGURE2_TITLES[result.method], float_digits=3
    )
