"""repro — reproduction of *Corroborating Facts from Affirmative Statements*
(Minji Wu & Amélie Marian, EDBT 2014).

The package implements the paper's **IncEstimate** incremental
corroboration algorithm with multi-value trust scores, every baseline it
compares against (Voting, Counting, TwoEstimate, ThreeEstimate,
BayesEstimate/LTM, SMO-SVM and logistic-regression classifiers), the
dataset generators behind its evaluation (motivating example, calibrated
restaurant-crawl simulator, Hubdub-like multi-answer generator, Section
6.3.1 synthetic model), the entity-resolution pipeline of Section 6.2.1,
and an evaluation harness that regenerates every table and figure.

Quickstart::

    from repro import IncEstimate, IncEstHeu, motivating_example

    dataset = motivating_example()
    result = IncEstimate(IncEstHeu()).run(dataset)
    print(result.labels())        # corroborated value per fact
    print(result.trust)           # final trust score per source

The names below resolve on first access (PEP 562), so importing one
subpackage — ``repro.store``, say, which ``repro ingest`` and ``repro
query`` run on — loads neither numpy nor the algorithm stack.
"""

import importlib

__version__ = "1.0.0"

#: Public name → the module that defines it.
_EXPORTS = {
    "AvgLog": "repro.baselines",
    "BayesEstimate": "repro.baselines",
    "CheckpointManager": "repro.resilience",
    "ConfusionCounts": "repro.eval",
    "CorroborationResult": "repro.core",
    "CorroborationService": "repro.serve",
    "Corroborator": "repro.core",
    "Cosine": "repro.baselines",
    "Counting": "repro.baselines",
    "Dataset": "repro.model",
    "ErrorPolicy": "repro.resilience",
    "FaultPlan": "repro.resilience.faults",
    "IngestError": "repro.resilience",
    "IngestReport": "repro.resilience",
    "LedgerError": "repro.store",
    "RefreshDecision": "repro.serve",
    "Supervision": "repro.resilience",
    "IncEstHeu": "repro.core",
    "IncEstPS": "repro.core",
    "IncEstimate": "repro.core",
    "Invest": "repro.baselines",
    "LinearSVM": "repro.ml",
    "LogisticRegression": "repro.ml",
    "PooledInvest": "repro.baselines",
    "Question": "repro.model",
    "QuestionSet": "repro.model",
    "ThreeEstimate": "repro.baselines",
    "TrustTrajectory": "repro.core",
    "TruthFinder": "repro.baselines",
    "TwoEstimate": "repro.baselines",
    "Vote": "repro.model",
    "VoteLedger": "repro.store",
    "VoteMatrix": "repro.model",
    "Voting": "repro.baselines",
    "binary_entropy": "repro.core",
    "collective_entropy": "repro.core",
    "evaluate_result": "repro.eval",
    "generate_hubdub_like": "repro.datasets",
    "generate_restaurants": "repro.datasets",
    "generate_synthetic": "repro.datasets",
    "make_server": "repro.serve",
    "ml_logistic": "repro.ml",
    "ml_svm": "repro.ml",
    "motivating_example": "repro.datasets",
    "render_table": "repro.eval",
    "run_methods": "repro.eval",
    "trust_mse_for": "repro.eval",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
