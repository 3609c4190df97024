"""E1/E2 — regenerate Table 2 (and the Figure 1 trust rounds) from the
motivating example of Table 1."""

from __future__ import annotations

from repro.experiments import figure1_rounds, table2
from repro.experiments.motivating_example import figure1_text, table2_text


def test_table2(benchmark, save_table):
    rows = benchmark.pedantic(table2, rounds=1, iterations=1)
    save_table("table2_motivating_example", table2_text(rows))
    by_method = {row["method"]: row for row in rows}
    assert by_method["IncEstimate[IncEstHeu]"]["accuracy"] > by_method[
        "TwoEstimate"
    ]["accuracy"]


def test_figure1_rounds(benchmark, save_table):
    rows = benchmark.pedantic(figure1_rounds, rounds=1, iterations=1)
    save_table("figure1_motivating_rounds", figure1_text(rows))
    assert rows[0]["s1"] == 0.9
