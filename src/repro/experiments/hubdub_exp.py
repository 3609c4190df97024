"""Experiment E8 — the Hubdub-like multi-answer dataset (paper Table 7).

The paper re-runs the methods on Galland et al.'s Hubdub snapshot — a
conflict-rich multi-answer task — to show IncEstimate "is not only suitable
for the corroboration problem discussed in this paper".  Table 7 reports
the *number of errors* (false positives + false negatives over
answer-facts); the paper's values: Voting 292, Counting 327, TwoEstimate
269, ThreeEstimate 270, IncEstHeu 262.
"""

from __future__ import annotations

from repro.datasets.hubdub import HubdubWorld, generate_hubdub_like
from repro.eval.harness import run_methods
from repro.eval.tables import render_table
from repro.experiments.methods import hubdub_methods
from repro.model.claims import count_answer_errors, predict_answers
from repro.obs import NULL_OBS, Obs


def table7(
    world: HubdubWorld | None = None,
    obs: Obs = NULL_OBS,
    isolate_errors: bool = True,
    workers: int = 1,
) -> list[dict]:
    """Table 7 rows: method → number of errors.

    Predictions are made per question (argmax over the candidate answers'
    probabilities), then scored with the Galland error metric.  Failed
    (sweep-isolated) methods appear with their failure instead of an
    error count.
    """
    world = world or generate_hubdub_like()
    question_set = world.questions
    dataset = question_set.to_dataset(name="hubdub-like")
    runs = run_methods(
        hubdub_methods(),
        dataset,
        obs=obs,
        isolate_errors=isolate_errors,
        workers=workers,
    )
    rows = []
    for run in runs:
        if run.failed:
            rows.append(
                {"method": run.method, "errors": f"failed: {run.error_type}"}
            )
            continue
        predictions = predict_answers(question_set, run.result.probabilities)
        rows.append(
            {
                "method": run.method,
                "errors": count_answer_errors(question_set, predictions),
            }
        )
    return rows


def table7_text(rows: list[dict]) -> str:
    """Table 7 as ``results/table7_hubdub_errors.txt`` holds it."""
    return render_table(
        rows,
        title="Table 7 — Hubdub-like errors (paper: Voting 292, Counting "
        "327, TwoEstimate 269, ThreeEstimate 270, IncEstHeu 262)",
    )
