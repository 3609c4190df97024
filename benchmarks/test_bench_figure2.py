"""E6 — Figure 2: the multi-value trust trajectories of IncEstPS and
IncEstHeu on the restaurant dataset."""

from __future__ import annotations

from repro.core import IncEstHeu, IncEstPS, IncEstimate
from repro.experiments.real_world import figure2_text


def test_figure2a_incestps(benchmark, paper_world, save_table):
    algo = IncEstimate(IncEstPS())
    result = benchmark.pedantic(algo.run, args=(paper_world.dataset,), rounds=1, iterations=1)
    save_table("figure2a_incestps_trajectory", figure2_text(result))
    # The paper's observation: mid-run, every source still looks perfect.
    midpoint = result.trajectory.at(result.iterations // 2)
    assert all(v > 0.85 for v in midpoint.values())


def test_figure2b_incestheu(benchmark, paper_world, save_table):
    algo = IncEstimate(IncEstHeu())
    result = benchmark.pedantic(algo.run, args=(paper_world.dataset,), rounds=1, iterations=1)
    save_table("figure2b_incestheu_trajectory", figure2_text(result))
    final = result.trust
    assert min(final["MenuPages"], final["OpenTable"], final["Yelp"]) > max(
        final["YellowPages"], final["CitySearch"]
    )
