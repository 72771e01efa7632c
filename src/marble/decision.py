"""Final decision selection: a four-rule priority cascade between the ML
agent's direct output and the coordinator's output."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .coordination import CoordinationResult
from .core import AgentOutput, EngineConfig, Severity


class DecisionSource(Enum):
    ML = "ml"
    COORDINATOR = "coordinator"
    ABSTAIN = "abstain"


@dataclass(frozen=True)
class FinalDecision:
    """The system's ultimate prediction; confidence always equals the
    selected source's confidence, never a blend."""

    prediction: Severity | None
    confidence: float
    source: DecisionSource
    rule_fired: int  # 1..4; 0 marks an abstention

    @property
    def abstained(self) -> bool:
        return self.prediction is None

    def to_dict(self) -> dict:
        """The trace form: the fields in declaration order, the source by value."""
        return {**vars(self), "source": self.source.value}


def abstain() -> FinalDecision:
    """Explicit non-prediction used when every agent failed."""
    return FinalDecision(prediction=None, confidence=0.0, source=DecisionSource.ABSTAIN, rule_fired=0)


def final_decide(
    ml: AgentOutput | None,
    coord: CoordinationResult,
    override_met: bool,
    cfg: EngineConfig,
) -> FinalDecision:
    """Run the cascade; the first satisfied rule dictates the outcome.

    1. ML override condition met          -> ML output
    2. coordinator confidence beats its class-dependent threshold -> coordinator
    3. weighted comparison favors the ML candidate                -> ML output
    4. otherwise                                                  -> coordinator

    ``ml`` is the live ML output; None, for a failed or absent ML agent, skips
    rules 1 and 3. Rule 3 weighs the comparison by the ML candidate's class.
    """
    if override_met and ml is not None:
        return FinalDecision(ml.prediction, ml.confidence, DecisionSource.ML, rule_fired=1)
    tau = cfg.tau_coord_rare if coord.prediction.is_rare else cfg.tau_coord_common
    if coord.confidence > tau:
        return FinalDecision(coord.prediction, coord.confidence, DecisionSource.COORDINATOR, rule_fired=2)
    if ml is not None:
        w1 = cfg.w1_rare if ml.prediction.is_rare else cfg.w1_common
        if ml.confidence * w1 > coord.confidence * (1.0 - w1):
            return FinalDecision(ml.prediction, ml.confidence, DecisionSource.ML, rule_fired=3)
    return FinalDecision(coord.prediction, coord.confidence, DecisionSource.COORDINATOR, rule_fired=4)
