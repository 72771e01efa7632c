"""Agent behavioral contract and scripted mock agents for tests and offline runs."""

from __future__ import annotations

import time
from typing import Callable, Mapping, Protocol, runtime_checkable

from ..core import AgentId, AgentOutput, Severity
from ..features import FeatureValue


@runtime_checkable
class Agent(Protocol):
    """A stateless predictor over a projected feature subset.

    ``evaluate`` is total: it reports failure through the output rather
    than raising, and it resolves (or is abandoned) within the configured
    agent timeout.
    """

    def identity(self) -> AgentId: ...

    def evaluate(self, features: Mapping[str, FeatureValue]) -> AgentOutput: ...


Responder = Callable[[Mapping[str, FeatureValue]], "AgentOutput | tuple[int, float] | None"]


class ScriptedAgent:
    """Deterministic agent driven by a closure or a fixed prediction.

    A responder may return a full AgentOutput, a (class, confidence) pair,
    or None to simulate a failed agent.
    """

    def __init__(
        self,
        kind: AgentId,
        responder: Responder | None = None,
        *,
        prediction: int | None = None,
        confidence: float = 0.5,
    ):
        if responder is None and prediction is None:
            raise ValueError("scripted agent needs a responder or a fixed prediction")
        self._kind = kind
        self._responder = responder
        self._prediction = prediction
        self._confidence = confidence

    def identity(self) -> AgentId:
        return self._kind

    def evaluate(self, features: Mapping[str, FeatureValue]) -> AgentOutput:
        start = time.perf_counter()
        if self._responder is not None:
            result = self._responder(features)
        else:
            result = (self._prediction, self._confidence)
        latency = int((time.perf_counter() - start) * 1000)
        if isinstance(result, AgentOutput):
            return result
        if result is None:
            return AgentOutput.failure(self._kind, "parse", latency)
        pred, conf = result
        return AgentOutput(
            agent=self._kind,
            prediction=Severity(pred),
            confidence=conf,
            raw_confidence=conf,
            latency_ms=latency,
        )
