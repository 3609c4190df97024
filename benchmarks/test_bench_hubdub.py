"""E8 — Table 7: number of errors on the Hubdub-like multi-answer data."""

from __future__ import annotations

from repro.experiments.hubdub_exp import table7, table7_text


def test_table7(benchmark, hubdub_world, save_table):
    rows = benchmark.pedantic(table7, args=(hubdub_world,), rounds=1, iterations=1)
    save_table("table7_hubdub_errors", table7_text(rows))
    by_method = {row["method"]: row["errors"] for row in rows}
    # Shape check: the corroborators beat plain voting.
    assert by_method["TwoEstimate"] <= by_method["Voting"]
    assert by_method["IncEstimate[IncEstHeu]"] <= by_method["Voting"]
