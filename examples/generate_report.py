"""Generate the full Markdown analysis report for the restaurant crawl.

Exercises the analysis layer in one shot: quality + trust tables,
probability calibration (Brier / ECE), significance of the winner over the
runner-up, multi-value trust sparklines and per-source convergence — plus
per-fact provenance for a couple of flagged listings and a source-copying
scan.

Run:  python examples/generate_report.py [output.md]
"""

from __future__ import annotations

import sys

from repro import IncEstHeu, IncEstimate, TwoEstimate, Voting, generate_restaurants
from repro.analysis import build_report, copying_pairs
from repro.core.explain import explain, explain_source

def main() -> None:
    world = generate_restaurants(num_facts=8_000)
    dataset = world.dataset

    report = build_report(
        dataset,
        [Voting(), TwoEstimate(), IncEstimate(IncEstHeu())],
        title="Restaurant crawl corroboration report",
    )

    # Append provenance for a few flagged listings.
    result = IncEstimate(IncEstHeu()).run(dataset)
    sections = [report, "## Sample provenance", "", "```"]
    for fact in result.false_facts()[:3]:
        sections.append(explain(result, fact).render())
        sections.append("")
    for source in ("YellowPages", "MenuPages"):
        sections.append(explain_source(result, source))
        sections.append("")
    sections.append("```")

    # Source-dependence scan against the corroborated labels.
    sections += ["", "## Source-dependence scan", ""]
    suspicious = copying_pairs(dataset, labels=result.labels(), min_lift=1.5)
    if suspicious:
        for score in suspicious[:5]:
            sections.append(
                f"- {score.source_a} / {score.source_b}: "
                f"{score.shared_false} shared false listings, "
                f"lift {score.lift:.2f} over independence"
            )
    else:
        sections.append("No source pair exceeds the copying threshold.")

    text = "\n".join(sections)
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as handle:
            handle.write(text)
        print(f"report written to {sys.argv[1]}")
    else:
        print(text)


if __name__ == "__main__":
    main()
