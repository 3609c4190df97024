"""Stratified k-fold cross-validation and the ML corroborator wrapper.

The paper reports the ML baselines "using 10-fold cross validation" over
the golden set: every golden fact is predicted by a model trained on the
other nine folds, and precision / recall / accuracy are computed over the
union of held-out predictions.  :class:`MLCorroborator` adapts that
protocol to the :class:`~repro.core.result.Corroborator` interface so the
ML baselines drop into the same experiment harness as everything else.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from repro.core.result import CorroborationResult, Corroborator
from repro.ml.features import labelled_examples, vote_features
from repro.ml.logistic import LogisticRegression
from repro.ml.svm import LinearSVM
from repro.model.dataset import Dataset
from repro.model.matrix import FactId
from repro.model.votes import Vote
from repro.obs import Obs
from repro.parallel.shards import ShardRunner

#: A factory returning a fresh, unfitted model with fit / predict_proba.
#: A class, module-level function or ``functools.partial`` (not a lambda)
#: keeps the corroborator picklable for a pooled harness sweep.
ModelFactory = Callable[[], object]


def stratified_folds(
    labels: np.ndarray, k: int, seed: int = 0
) -> list[np.ndarray]:
    """Index folds preserving the class ratio, shuffled deterministically."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    labels = np.asarray(labels, dtype=bool)
    if k > labels.size:
        raise ValueError(f"{k} folds but only {labels.size} examples")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (True, False):
        indices = np.flatnonzero(labels == cls)
        rng.shuffle(indices)
        for position, index in enumerate(indices):
            folds[position % k].append(int(index))
    return [np.array(sorted(fold), dtype=int) for fold in folds]


def _fold_cell(payload: tuple, obs: Obs) -> np.ndarray:
    """One cross-validation fold: fit on the complement, predict held-out.

    ``obs`` is the shard bundle the runner provides; folds record nothing.
    """
    del obs
    model_factory, features, labels, fold = payload
    mask = np.ones(labels.shape[0], dtype=bool)
    mask[fold] = False
    model = model_factory()
    model.fit(features[mask], labels[mask])
    return model.predict_proba(features[fold])


def cross_val_probabilities(
    model_factory: ModelFactory,
    features: np.ndarray,
    labels: np.ndarray,
    k: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Held-out P(true) per example from k-fold cross-validation.

    Each fold is one inline :class:`~repro.parallel.ShardRunner` cell that
    writes only its own indices.  A failing fold fails the whole
    cross-validation (the union of held-out predictions would be
    incomplete), so the runner does not isolate errors.
    """
    folds = stratified_folds(labels, k, seed)
    outcomes = ShardRunner(isolate_errors=False, label="crossval").run(
        _fold_cell,
        [(model_factory, features, labels, fold) for fold in folds],
        labels=[f"fold-{i}" for i in range(len(folds))],
    )
    probabilities = np.empty(labels.shape[0])
    for fold, outcome in zip(folds, outcomes):
        probabilities[fold] = outcome.value
    return probabilities


class MLCorroborator(Corroborator):
    """Wrap a classifier into the corroborator interface (paper protocol).

    Facts in the golden set get held-out k-fold cross-validation
    probabilities (so no fact is predicted by a model that saw its label);
    facts outside the golden set get probabilities from a model trained on
    the full golden set.  The reported per-source trust score is the
    classifier's implied precision of each source's T votes, mirroring the
    ML-Logistic row of Table 5.
    """

    def __init__(
        self,
        name: str,
        model_factory: ModelFactory,
        folds: int = 10,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.model_factory = model_factory
        self.folds = folds
        self.seed = seed

    def run(self, dataset: Dataset) -> CorroborationResult:
        features, labels, golden_facts, _ = labelled_examples(dataset)
        k = min(self.folds, labels.size)
        probabilities_golden = cross_val_probabilities(
            self.model_factory, features, labels, k=k, seed=self.seed
        )
        probabilities: dict[FactId, float] = {
            f: float(np.clip(p, 0.0, 1.0))
            for f, p in zip(golden_facts, probabilities_golden)
        }

        golden = set(golden_facts)
        other_facts = [f for f in dataset.matrix.facts if f not in golden]
        if other_facts:
            model = self.model_factory()
            model.fit(features, labels)
            other_features, other_scope, _ = vote_features(dataset, other_facts)
            for fact, p in zip(other_scope, model.predict_proba(other_features)):
                probabilities[fact] = float(np.clip(p, 0.0, 1.0))

        trust = self._implied_trust(dataset, probabilities)
        return self._result(probabilities, trust, iterations=k)

    def _implied_trust(
        self, dataset: Dataset, probabilities: dict[FactId, float]
    ) -> dict[str, float]:
        """Per-source accuracy implied by the classifier's predictions."""
        trust: dict[str, float] = {}
        for source in dataset.matrix.sources:
            agreements: list[float] = []
            for fact, vote in dataset.matrix.votes_by(source).items():
                if fact not in dataset.golden_set and dataset.golden_set:
                    continue
                p = probabilities[fact]
                agreements.append(p if vote is Vote.TRUE else 1.0 - p)
            trust[source] = float(np.mean(agreements)) if agreements else 0.5
        return trust


def ml_svm(seed: int = 0) -> MLCorroborator:
    """The paper's ML-SVM (SMO) baseline.

    The model factory is a ``functools.partial`` (not a lambda) so the
    corroborator pickles across the ``spawn`` boundary of a sharded sweep.
    """
    return MLCorroborator(
        "ML-SVM (SMO)", functools.partial(LinearSVM, seed=seed), seed=seed
    )


def ml_logistic(seed: int = 0) -> MLCorroborator:
    """The paper's ML-Logistic baseline."""
    return MLCorroborator("ML-Logistic", LogisticRegression, seed=seed)
