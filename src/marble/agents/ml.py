"""The statistical agent: a smoothed class-conditional frequency classifier.

Numeric features are discretized into quintile bins learned from training
data (missing numerics take the per-feature training mean first); counts
get add-one smoothing. The model is dependency-free, deterministic, and
exposes exact posteriors, which keeps it easy to check against hand
computation. Any external model can stand in through the Agent protocol.
"""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core import ALL_SEVERITIES, AgentId, AgentOutput, Severity
from ..features import AccidentRecord, FeatureValue

_MISSING = "(missing)"


class TrainError(ValueError):
    """Training input cannot support a usable model."""


@dataclass(frozen=True)
class MlModel:
    """Per-class token statistics sufficient for posterior estimation.

    The log prior of each class and, per feature, the four log-likelihoods
    of each training token (and of an unseen one) are derived from the
    counts when the model is built, so a prediction is one table lookup and
    four additions per feature.
    """

    class_counts: Mapping[int, int]
    feature_names: tuple[str, ...]
    numeric_features: frozenset[str]
    bins: Mapping[str, tuple[float, ...]]
    means: Mapping[str, float]
    tables: Mapping[str, Mapping[int, Mapping[str, int]]]
    vocab_sizes: Mapping[str, int]
    _log_prior: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        classes = [int(k) for k in ALL_SEVERITIES]
        total = sum(self.class_counts.values())
        prior = tuple(math.log(self.class_counts[k] / total) for k in classes)
        columns = []
        for name in self.feature_names:
            per_class, vocab = self.tables[name], self.vocab_sizes[name]
            denominators = [self.class_counts[k] + vocab for k in classes]
            tokens = {t for k in classes for t in per_class[k]}
            log_table = {
                t: tuple(math.log((per_class[k].get(t, 0) + 1) / d) for k, d in zip(classes, denominators))
                for t in tokens
            }
            unseen = tuple(math.log(1 / d) for d in denominators)
            cuts = self.bins[name] if name in self.numeric_features else None
            columns.append((name, cuts, self.means.get(name), log_table, unseen))
        object.__setattr__(self, "_log_prior", prior)
        object.__setattr__(self, "_columns", tuple(columns))

    def predict_proba(self, features: Mapping[str, FeatureValue]) -> dict[Severity, float]:
        """Posterior over the four classes; always sums to 1."""
        s1, s2, s3, s4 = self._log_prior
        for name, cuts, mean, log_table, unseen in self._columns:
            l1, l2, l3, l4 = log_table.get(_token(features.get(name), cuts, mean), unseen)
            s1 += l1
            s2 += l2
            s3 += l3
            s4 += l4
        log_scores = dict(zip(ALL_SEVERITIES, (s1, s2, s3, s4)))
        peak = max(log_scores.values())
        raw = {k: math.exp(v - peak) for k, v in log_scores.items()}
        norm = sum(raw.values())
        return {k: v / norm for k, v in raw.items()}


def _token(value: FeatureValue | None, cuts: tuple[float, ...] | None, mean: float | None) -> str:
    """The model token of one cell; ``cuts`` is None for a categorical feature."""
    if cuts is not None:
        # Mean imputation for missing numerics.
        number = value.number if value is not None and value.kind == "numeric" else mean
        return f"bin{bisect_right(cuts, number)}"
    if value is None or value.is_missing:
        return _MISSING
    return value.render()


def ml_train(records: Sequence[AccidentRecord]) -> MlModel:
    """Fit the frequency model; every class must appear at least once.

    One pass per feature column: each distinct value is tokenized once and
    (label, token) pairs are counted in one go.
    """
    if any(r.label is None for r in records):
        raise TrainError("training records must all carry a severity label")
    labels = [int(r.label) for r in records]
    label_counts = Counter(labels)
    counts = {int(k): label_counts[int(k)] for k in ALL_SEVERITIES}
    for k, n in counts.items():
        if n == 0:
            raise TrainError(f"class {k} unrepresented")

    feature_maps = [r.features for r in records]
    feature_names = tuple(sorted({name for f in feature_maps for name in f}))
    numeric: set[str] = set()
    bins: dict[str, tuple[float, ...]] = {}
    means: dict[str, float] = {}
    tables: dict[str, dict[int, dict[str, int]]] = {}
    vocab_sizes: dict[str, int] = {}
    for name in feature_names:
        column = [f.get(name) for f in feature_maps]
        # Ingest shares one FeatureValue per distinct cell text, so keying on
        # identity finds the distinct cells without hashing every value.
        keys = list(map(id, column))
        distinct = dict(zip(keys, column))
        kinds = {v.kind for v in distinct.values() if v is not None}
        cuts = mean = None
        if "numeric" in kinds and "categorical" not in kinds:
            values = sorted(v.number for v in column if v is not None and v.kind == "numeric")
            mean = means[name] = sum(values) / len(values)
            cuts = bins[name] = _quintile_cuts(values)
            numeric.add(name)
        token_of = {key: _token(v, cuts, mean) for key, v in distinct.items()}
        table: dict[int, dict[str, int]] = {int(k): {} for k in ALL_SEVERITIES}
        for (label, key), n in Counter(zip(labels, keys)).items():
            per_class, token = table[label], token_of[key]
            per_class[token] = per_class.get(token, 0) + n
        tables[name] = table
        vocab_sizes[name] = max(1, len(set(token_of.values())))
    return MlModel(
        class_counts=counts,
        feature_names=feature_names,
        numeric_features=frozenset(numeric),
        bins=bins,
        means=means,
        tables=tables,
        vocab_sizes=vocab_sizes,
    )


def _quintile_cuts(sorted_values: list[float]) -> tuple[float, ...]:
    if len(set(sorted_values)) < 2:
        return ()
    return tuple(statistics.quantiles(sorted_values, n=5, method="inclusive"))


def ml_evaluate(model: MlModel, features: Mapping[str, FeatureValue]) -> AgentOutput:
    """Maximum-posterior prediction; confidence is that maximum, uncalibrated.
    ``max`` keeps the first maximum, so an exact tie goes to the lower class."""
    start = time.perf_counter()
    probs = model.predict_proba(features)
    prediction = max(ALL_SEVERITIES, key=probs.__getitem__)
    confidence = probs[prediction]
    return AgentOutput(
        agent=AgentId.ML,
        prediction=prediction,
        confidence=confidence,
        raw_confidence=confidence,
        latency_ms=int((time.perf_counter() - start) * 1000),
    )


class MlAgent:
    """Agent wrapper around a trained MlModel."""

    def __init__(self, model: MlModel):
        self._model = model

    def identity(self) -> AgentId:
        return AgentId.ML

    def evaluate(self, features: Mapping[str, FeatureValue]) -> AgentOutput:
        return ml_evaluate(self._model, features)
