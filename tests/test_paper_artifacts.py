"""The fast paper artifacts regenerate byte for byte, no tolerance.

Table 2, Figure 1, Figure 2(a)/(b) and Table 7 rebuild in seconds through
the renderers the benchmarks write ``results/`` with; the CI ``paper`` job
reruns the whole benchmark suite for the slower artifacts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core import IncEstHeu, IncEstPS, IncEstimate
from repro.datasets import generate_restaurants
from repro.experiments import figure1_rounds, table2, table7
from repro.experiments.hubdub_exp import table7_text
from repro.experiments.motivating_example import figure1_text, table2_text
from repro.experiments.real_world import figure2_text

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def _figure2(strategy) -> str:
    return figure2_text(IncEstimate(strategy).run(generate_restaurants().dataset))


ARTIFACTS = {
    "table2_motivating_example": lambda: table2_text(table2()),
    "figure1_motivating_rounds": lambda: figure1_text(figure1_rounds()),
    "figure2a_incestps_trajectory": lambda: _figure2(IncEstPS()),
    "figure2b_incestheu_trajectory": lambda: _figure2(IncEstHeu()),
    "table7_hubdub_errors": lambda: table7_text(table7()),
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_regenerates_byte_for_byte(name):
    committed = (RESULTS_DIR / f"{name}.txt").read_text()
    assert ARTIFACTS[name]() + "\n" == committed
