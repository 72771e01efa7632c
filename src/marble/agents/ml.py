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
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core import ALL_SEVERITIES, AgentId, AgentOutput, Severity
from ..features import AccidentRecord, FeatureValue

_MISSING = "(missing)"


class TrainError(ValueError):
    """Training input cannot support a usable model."""


@dataclass(frozen=True)
class MlModel:
    """The log prior of each class and one prediction column per feature.

    A column is ``(name, cuts, mean, log_table, unseen)``: the quintile cuts
    and training mean of a numeric feature (both None for a categorical
    one), the four class log-likelihoods of each training token, and those
    of an unseen token. A prediction is one table lookup and four additions
    per feature.
    """

    log_prior: tuple[float, ...]
    columns: tuple[tuple, ...]

    def predict_proba(self, features: Mapping[str, FeatureValue]) -> dict[Severity, float]:
        """Posterior over the four classes; always sums to 1."""
        s1, s2, s3, s4 = self.log_prior
        for name, cuts, mean, log_table, unseen in self.columns:
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

    One pass over the records gathers the columns; per column, each distinct
    value is tokenized once, (label, token) pairs are counted in one go, and
    the counts become add-one smoothed log-likelihoods.
    """
    if any(r.label is None for r in records):
        raise TrainError("training records must all carry a severity label")
    labels = [int(r.label) for r in records]
    label_counts = Counter(labels)
    classes = [int(k) for k in ALL_SEVERITIES]
    for k in classes:
        if label_counts[k] == 0:
            raise TrainError(f"class {k} unrepresented")
    log_prior = tuple(math.log(label_counts[k] / len(labels)) for k in classes)

    columns = defaultdict(lambda: [None] * len(records))  # None where a record lacks the feature
    for row, record in enumerate(records):
        for name, value in record.features.items():
            columns[name][row] = value
    model_columns = []
    for name in sorted(columns):
        column = columns.pop(name)
        # Ingest shares one FeatureValue per distinct cell text, so keying on
        # identity finds the distinct cells without hashing every value.
        keys = list(map(id, column))
        distinct = dict(zip(keys, column))
        kinds = {v.kind for v in distinct.values() if v is not None}
        cuts = mean = None
        if "numeric" in kinds and "categorical" not in kinds:
            values = sorted(v.number for v in column if v is not None and v.kind == "numeric")
            mean = sum(values) / len(values)
            cuts = tuple(statistics.quantiles(values, n=5, method="inclusive")) if values[0] != values[-1] else ()
        token_of = {key: _token(v, cuts, mean) for key, v in distinct.items()}
        counts = Counter(zip(labels, map(token_of.__getitem__, keys)))
        tokens = set(token_of.values())
        denominators = [label_counts[k] + len(tokens) for k in classes]
        log_table = {t: tuple(math.log((counts[k, t] + 1) / d) for k, d in zip(classes, denominators)) for t in tokens}
        unseen = tuple(math.log(1 / d) for d in denominators)
        model_columns.append((name, cuts, mean, log_table, unseen))
    return MlModel(log_prior, tuple(model_columns))


class MlAgent:
    """Agent wrapper around a trained MlModel."""

    def __init__(self, model: MlModel):
        self._model = model

    def identity(self) -> AgentId:
        return AgentId.ML

    def evaluate(self, features: Mapping[str, FeatureValue]) -> AgentOutput:
        """Maximum-posterior prediction; confidence is that maximum, uncalibrated.
        ``max`` keeps the first maximum, so an exact tie goes to the lower class."""
        start = time.perf_counter()
        probs = self._model.predict_proba(features)
        prediction = max(ALL_SEVERITIES, key=probs.__getitem__)
        confidence = probs[prediction]
        return AgentOutput(
            agent=AgentId.ML,
            prediction=prediction,
            confidence=confidence,
            raw_confidence=confidence,
            latency_ms=int((time.perf_counter() - start) * 1000),
        )
