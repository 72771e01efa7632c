"""Fusing agent outputs into one (prediction, confidence) pair.

Two mechanisms: deterministic rule-based voting (the default) built on
weighted scores, an ML override, tie-breaking, and an agreement boost; and
an LLM-based meta-reasoner that reports its verdict or the kind of its
failure, on which the engine falls back to the rule-based result.

Every function here takes what ``engine.fuse`` passes it: the live (not
failed) outputs, at least one, in agent order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .agents.backends import SlmBackend
from .agents.slm import ask
from .core import (
    ALL_SEVERITIES,
    AgentId,
    AgentOutput,
    CoordinationMode,
    EngineConfig,
    Severity,
)


@dataclass(frozen=True)
class VoteBreakdown:
    """Per-class weighted vote scores and the agents behind them."""

    scores: Mapping[Severity, float]
    supporters: Mapping[Severity, tuple[AgentId, ...]]
    slm_supporters: Mapping[Severity, tuple[AgentId, ...]]


@dataclass(frozen=True)
class CoordinationResult:
    prediction: Severity
    confidence: float
    method: CoordinationMode
    override_applied: bool = False
    boost_applied: float = 0.0
    reasoning: str = ""
    fallback: str | None = None  # failure kind of the coordinator this result stands in for
    breakdown: VoteBreakdown | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.prediction, Severity):
            raise ValueError(f"prediction must be a Severity, not {self.prediction!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0,1]")

    def to_dict(self) -> dict:
        """The trace form: the fields in declaration order, the method by
        value, and the breakdown, when there is one, as its fields keyed by
        class number, with supporter tuples as lists of agent values."""
        out = {**vars(self), "method": self.method.value}
        breakdown = out.pop("breakdown")
        if breakdown is not None:
            out["breakdown"] = {
                name: {str(int(k)): [a.value for a in v] if isinstance(v, tuple) else v for k, v in by_class.items()}
                for name, by_class in vars(breakdown).items()
            }
        return out


def weighted_scores(outputs: Sequence[AgentOutput], cfg: EngineConfig) -> VoteBreakdown:
    """Per-class score: sum over voters of weight * confidence * class factor."""
    scores = {k: 0.0 for k in ALL_SEVERITIES}
    supporters: dict[Severity, list[AgentId]] = {k: [] for k in ALL_SEVERITIES}
    slm_supporters: dict[Severity, list[AgentId]] = {k: [] for k in ALL_SEVERITIES}
    for output in outputs:
        k = output.prediction
        weight = cfg.agent_weights.get(output.agent, 1.0)
        scores[k] += weight * output.confidence * cfg.class_factors[k]
        supporters[k].append(output.agent)
        if output.agent.is_slm:
            slm_supporters[k].append(output.agent)
    return VoteBreakdown(
        scores=scores,
        supporters={k: tuple(v) for k, v in supporters.items()},
        slm_supporters={k: tuple(v) for k, v in slm_supporters.items()},
    )


def check_ml_override(outputs: Sequence[AgentOutput], cfg: EngineConfig) -> bool:
    """High-confidence ML predictions can bypass the vote.

    Fires when the ML confidence reaches the corroboration-free threshold,
    or the lower threshold with at least one SLM agent agreeing. False when
    the ML agent is absent.
    """
    ml = next((o for o in outputs if o.agent is AgentId.ML), None)
    return ml is not None and (
        ml.confidence >= cfg.tau_ml_corrob
        or ml.confidence >= cfg.tau_ml_high
        and any(o.agent.is_slm and o.prediction == ml.prediction for o in outputs)
    )


def rb_predict(breakdown: VoteBreakdown, cfg: EngineConfig) -> Severity:
    """Argmax of the weighted scores over the classes some agent voted for.

    Epsilon-ties prefer the class with the fewest supporting agents, then
    rare classes before common, then the lower class index.
    """
    scores = breakdown.scores
    voted = [k for k in ALL_SEVERITIES if breakdown.supporters[k]]
    best = max(scores[k] for k in voted)
    tied = [k for k in voted if best - scores[k] <= cfg.tie_epsilon]
    return min(tied, key=lambda k: (len(breakdown.supporters[k]), 0 if k.is_rare else 1, int(k)))


def agreement_boost(prediction: Severity, breakdown: VoteBreakdown, cfg: EngineConfig) -> float:
    """Confidence increment when a strict majority of configured SLM agents concur.

    The denominator is the configured SLM count, so agent failures cannot
    inflate agreement. Rare classes additionally require two concurring
    SLM agents.
    """
    agreeing = len(breakdown.slm_supporters[prediction])
    total = sum(1 for a in cfg.agent_weights if a.is_slm)
    if total == 0 or agreeing / total <= 0.5 or prediction.is_rare and agreeing < 2:
        return 0.0
    return cfg.boost_rare if prediction.is_rare else cfg.boost_common


def weighted_avg_confidence(prediction: Severity, outputs: Sequence[AgentOutput], cfg: EngineConfig) -> float:
    """Weight-weighted mean confidence over the agents voting for the class;
    the configured fallback when no agent supports it."""
    votes = [(cfg.agent_weights.get(o.agent, 1.0), o.confidence) for o in outputs if o.prediction == prediction]
    denominator = sum(w for w, _ in votes)
    if denominator == 0.0:
        return cfg.fallback_confidence
    return sum(w * c for w, c in votes) / denominator


def coordinate_rb(outputs: Sequence[AgentOutput], cfg: EngineConfig) -> CoordinationResult:
    """Rule-based coordination: override first, else weighted vote.

    Confidence is floored at the fallback value and capped at the
    configured maximum, so the result always lies inside
    [fallback_confidence, confidence_cap].
    """
    breakdown = weighted_scores(outputs, cfg)
    if check_ml_override(outputs, cfg):
        ml = next(o for o in outputs if o.agent is AgentId.ML)
        if ml.prediction.is_rare:
            confidence = min(cfg.confidence_cap, ml.confidence + cfg.override_rare_bonus)
        else:
            confidence = min(cfg.confidence_cap, ml.confidence)
        return CoordinationResult(
            prediction=ml.prediction,
            confidence=confidence,
            method=CoordinationMode.RULE_BASED,
            breakdown=breakdown,
            override_applied=True,
        )
    prediction = rb_predict(breakdown, cfg)
    boost = agreement_boost(prediction, breakdown, cfg)
    average = weighted_avg_confidence(prediction, outputs, cfg)
    confidence = min(cfg.confidence_cap, max(cfg.fallback_confidence, average + boost))
    return CoordinationResult(
        prediction=prediction,
        confidence=confidence,
        method=CoordinationMode.RULE_BASED,
        breakdown=breakdown,
        boost_applied=boost,
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def format_meta_prompt(outputs: Sequence[AgentOutput], cfg: EngineConfig) -> str:
    """Serialize the agent reports into the coordinator meta-prompt.

    Blocks appear in the order given, agent order from ``fuse`` (ML first),
    each carrying the agent's prediction, confidence, static weight, and
    reasoning (on one line, so it cannot open a block of its own).
    """
    lines = [
        "You are the coordinating analyst for a team assessing one road accident.",
        "Each agent examined a different aspect of the accident and reported a "
        "severity class (1-4), a confidence in [0, 1], and its reasoning.",
        "",
    ]
    for output in outputs:
        lines.extend(
            [
                f"Agent: {output.agent.value}",
                f"prediction: {int(output.prediction)}",
                f"confidence: {_format_float(output.confidence)}",
                f"weight: {_format_float(cfg.agent_weights.get(output.agent, 1.0))}",
                f"reasoning: {' '.join(output.reasoning.splitlines()) or '(none)'}",
                "",
            ]
        )
    lines.extend(
        [
            "Weigh the reports (a higher weight marks a more reliable agent), "
            "resolve disagreements, and decide the final severity.",
            'Reply with a JSON object of the form {"severity": <integer 1-4>, '
            '"confidence": <number between 0 and 1>, "reasoning": "<short justification>"}.',
        ]
    )
    return "\n".join(lines)


def coordinate_llm(outputs: Sequence[AgentOutput], backend: SlmBackend, cfg: EngineConfig) -> CoordinationResult | str:
    """LLM-based coordination: the model's verdict, or the kind of its
    failure ("timeout", "parse" or "transport"), on which ``engine.fuse``
    falls back to the rule-based result."""
    parsed = ask(backend, format_meta_prompt(outputs, cfg), cfg)
    if isinstance(parsed, str):
        return parsed
    return CoordinationResult(
        prediction=parsed.severity,
        confidence=parsed.confidence,
        method=CoordinationMode.LLM_BASED,
        reasoning=parsed.reasoning,
    )
