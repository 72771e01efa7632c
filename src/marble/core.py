"""Domain types, severity semantics, and validated engine configuration.

Everything here is immutable after construction and safe to share across
threads. The configuration is loaded once per run and never mutated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any, Mapping


class ConfigError(ValueError):
    """An engine configuration field violates one of its invariants."""


class Severity(IntEnum):
    """Accident severity class; classes 1 and 4 are the rare ones."""

    LEVEL_1 = 1
    LEVEL_2 = 2
    LEVEL_3 = 3
    LEVEL_4 = 4

    @property
    def is_rare(self) -> bool:
        return self.value in (1, 4)


ALL_SEVERITIES: tuple[Severity, ...] = tuple(Severity)


class AgentId(Enum):
    """The five agent roles: one statistical model plus four domain specialists."""

    ML = "ml"
    ENVIRONMENTAL = "environmental"
    INFRASTRUCTURAL = "infrastructural"
    SPATIAL = "spatial"
    TEMPORAL = "temporal"

    @property
    def is_slm(self) -> bool:
        return self is not AgentId.ML


SLM_AGENT_IDS: tuple[AgentId, ...] = tuple(a for a in AgentId if a.is_slm)

# Canonical ordering used for prompts, traces, and reports.
AGENT_ORDER: dict[AgentId, int] = {a: i for i, a in enumerate(AgentId)}


def clamp01(x: float) -> float:
    """Clamp a real value into [0, 1]; NaN maps to 0."""
    if math.isnan(x):
        return 0.0
    return max(0.0, min(1.0, x))


@dataclass(frozen=True)
class AgentOutput:
    """One agent's structured verdict: prediction, confidence, reasoning.

    ``failed`` outputs carry no prediction and are excluded from
    coordination; ``failure_kind`` records why (parse / timeout / transport).
    """

    agent: AgentId
    prediction: Severity | None
    confidence: float
    reasoning: str = ""
    raw_confidence: float = 0.0
    latency_ms: int = 0
    failed: bool = False
    failure_kind: str | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0,1]")
        if not 0.0 <= self.raw_confidence <= 1.0:
            raise ValueError(f"raw_confidence {self.raw_confidence} outside [0,1]")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        if not self.failed and self.prediction is None:
            raise ValueError("non-failed output requires a prediction")
        if self.agent is AgentId.ML and self.reasoning:
            raise ValueError("the ML agent carries no reasoning text")


class CoordinationMode(Enum):
    RULE_BASED = "rule"
    LLM_BASED = "llm"


@dataclass(frozen=True)
class CalibrationParams:
    """Piecewise confidence boost applied to rare-class SLM predictions."""

    high_cap: float = 0.98
    high_delta: float = 0.1
    high_gate: float = 0.8
    mid_cap: float = 0.9
    mid_delta: float = 0.05
    mid_gate: float = 0.6


@dataclass(frozen=True)
class DecodingParams:
    """Sampling parameters sent to the language-model backend."""

    temperature: float = 0.2
    top_p: float = 0.90
    repetition_penalty: float = 1.1
    max_new_tokens: int = 256


@dataclass(frozen=True)
class EndpointParams:
    """Remote chat-completions endpoint settings.

    The credential itself is never stored; ``api_key_env`` names the
    environment variable read at request time.
    """

    url: str = ""
    model: str = ""
    api_key_env: str = "MARBLE_API_KEY"
    send_repetition_penalty: bool = True


def _default_agent_weights() -> dict[AgentId, float]:
    return {
        AgentId.ML: 3.0,
        AgentId.ENVIRONMENTAL: 1.5,
        AgentId.INFRASTRUCTURAL: 1.2,
        AgentId.SPATIAL: 1.0,
        AgentId.TEMPORAL: 1.0,
    }


def _default_class_factors() -> dict[Severity, float]:
    return {
        Severity.LEVEL_1: 1.2,
        Severity.LEVEL_2: 1.0,
        Severity.LEVEL_3: 1.0,
        Severity.LEVEL_4: 1.2,
    }


@dataclass(frozen=True)
class EngineConfig:
    """Every constant of the fusion pipeline, all overridable.

    Defaults follow the published operating point: static agent weights,
    rare-class importance factors, override thresholds, agreement boosts,
    the 0.95 confidence cap, and the SLM decoding setup with its 8-second
    timeout guardrail.
    """

    agent_weights: Mapping[AgentId, float] = field(default_factory=_default_agent_weights)
    class_factors: Mapping[Severity, float] = field(default_factory=_default_class_factors)
    tau_ml_high: float = 0.75
    tau_ml_corrob: float = 0.8
    tau_coord_rare: float = 0.4
    tau_coord_common: float = 0.5
    w1_rare: float = 0.7
    w1_common: float = 0.5
    boost_rare: float = 0.1
    boost_common: float = 0.05
    override_rare_bonus: float = 0.15
    confidence_cap: float = 0.95
    fallback_confidence: float = 0.1
    calibration: CalibrationParams = CalibrationParams()
    agent_timeout_ms: int = 8000
    decoding: DecodingParams = DecodingParams()
    endpoint: EndpointParams = EndpointParams()
    coordination_mode: CoordinationMode = CoordinationMode.RULE_BASED
    tie_epsilon: float = 1e-9

    def slm_agent_count(self) -> int:
        """Number of configured SLM agents (the agreement-ratio denominator)."""
        return sum(1 for a in self.agent_weights if a is not AgentId.ML)

    def to_dict(self) -> dict[str, Any]:
        return {
            "agent_weights": {a.value: w for a, w in self.agent_weights.items()},
            "class_factors": {str(int(k)): f for k, f in self.class_factors.items()},
            "tau_ml_high": self.tau_ml_high,
            "tau_ml_corrob": self.tau_ml_corrob,
            "tau_coord_rare": self.tau_coord_rare,
            "tau_coord_common": self.tau_coord_common,
            "w1_rare": self.w1_rare,
            "w1_common": self.w1_common,
            "boost_rare": self.boost_rare,
            "boost_common": self.boost_common,
            "override_rare_bonus": self.override_rare_bonus,
            "confidence_cap": self.confidence_cap,
            "fallback_confidence": self.fallback_confidence,
            "calibration": {f.name: getattr(self.calibration, f.name) for f in fields(CalibrationParams)},
            "agent_timeout_ms": self.agent_timeout_ms,
            "decoding": {f.name: getattr(self.decoding, f.name) for f in fields(DecodingParams)},
            "endpoint": {f.name: getattr(self.endpoint, f.name) for f in fields(EndpointParams)},
            "coordination_mode": self.coordination_mode.value,
            "tie_epsilon": self.tie_epsilon,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def fingerprint(self) -> str:
        """Stable hash of the serialized config, for trace provenance.

        Computed on first use and kept on the instance: the config is frozen.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        """Build a config from a (possibly partial) plain dict; defaults fill gaps."""
        if not isinstance(data, Mapping):
            raise ConfigError("config must be a JSON object")
        for name in ("agent_weights", "class_factors", "calibration", "decoding", "endpoint"):
            if name in data and not isinstance(data[name], Mapping):
                raise ConfigError(f"{name} must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config field: {sorted(unknown)[0]}")
        kwargs: dict[str, Any] = {}
        if "agent_weights" in data:
            weights = {_agent_from_key(k): v for k, v in data["agent_weights"].items()}
            kwargs["agent_weights"] = {a: _number(f"agent_weights.{a.name}", v) for a, v in weights.items()}
        if "class_factors" in data:
            factors = {_severity_from_key(k): v for k, v in data["class_factors"].items()}
            kwargs["class_factors"] = {k: _number(f"class_factors.{int(k)}", v) for k, v in factors.items()}
        for name, sub in (("calibration", CalibrationParams), ("decoding", DecodingParams), ("endpoint", EndpointParams)):
            if name in data:
                sub_known = {f.name for f in fields(sub)}
                sub_unknown = set(data[name]) - sub_known
                if sub_unknown:
                    raise ConfigError(f"unknown config field: {name}.{sorted(sub_unknown)[0]}")
                kwargs[name] = sub(**data[name])
        if "coordination_mode" in data:
            try:
                kwargs["coordination_mode"] = CoordinationMode(data["coordination_mode"])
            except ValueError as exc:
                raise ConfigError(f"coordination_mode must be one of {[m.value for m in CoordinationMode]}") from exc
        handled = {"agent_weights", "class_factors", "calibration", "decoding", "endpoint", "coordination_mode"}
        for key in known - handled:
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        return cls.from_dict(json.loads(text))


def _agent_from_key(key: str) -> AgentId:
    try:
        return AgentId(key)
    except ValueError:
        pass
    try:
        return AgentId[key.upper()]
    except KeyError as exc:
        raise ConfigError(f"unknown agent id: {key}") from exc


def _severity_from_key(key: Any) -> Severity:
    try:
        return Severity(int(key))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"severity class keys must be 1-4, got {key!r}") from exc


def _number(name: str, value: Any) -> float:
    """An int or float as a float (a weight of 3 fingerprints as 3.0), else ConfigError."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a finite number")


_UNIT_FIELDS = (
    "tau_ml_high",
    "tau_ml_corrob",
    "tau_coord_rare",
    "tau_coord_common",
    "w1_rare",
    "w1_common",
    "confidence_cap",
    "fallback_confidence",
)


def validate_config(cfg: EngineConfig) -> EngineConfig:
    """Return ``cfg`` unchanged if every invariant holds; raise ConfigError otherwise.

    The error names the first violated invariant and field. Every numeric
    field, weight and factor must first be a finite int or float.
    """
    numbers = [(f"agent_weights.{a.name}", cfg.agent_weights[a]) for a in AgentId if a in cfg.agent_weights]
    numbers += [(f"class_factors.{int(k)}", cfg.class_factors[k]) for k in ALL_SEVERITIES if k in cfg.class_factors]
    for owner, prefix in ((cfg, ""), (cfg.calibration, "calibration."), (cfg.decoding, "decoding.")):
        # Annotations are strings in this module.
        numbers += [(prefix + f.name, getattr(owner, f.name)) for f in fields(owner) if f.type in ("float", "int")]
    for name, value in numbers:
        if not math.isfinite(_number(name, value)):
            raise ConfigError(f"{name} must be a finite number")
    for agent in AgentId:
        if agent in cfg.agent_weights and not cfg.agent_weights[agent] > 0:
            raise ConfigError(f"agent_weights.{agent.name} must be > 0")
    if not cfg.agent_weights:
        raise ConfigError("agent_weights must not be empty")
    for k in ALL_SEVERITIES:
        if k not in cfg.class_factors or not cfg.class_factors[k] > 0:
            raise ConfigError(f"class_factors.{int(k)} must be > 0")
    for name in _UNIT_FIELDS:
        value = getattr(cfg, name)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0,1]")
    if cfg.fallback_confidence > cfg.confidence_cap:
        raise ConfigError("fallback_confidence must be <= confidence_cap")
    if cfg.tau_ml_high > cfg.tau_ml_corrob:
        raise ConfigError("tau_ml_high must be <= tau_ml_corrob")
    for name in ("boost_rare", "boost_common", "override_rare_bonus"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be > 0")
    cal = cfg.calibration
    for name in ("high_delta", "mid_delta"):
        if not getattr(cal, name) > 0:
            raise ConfigError(f"calibration.{name} must be > 0")
    for name in ("high_cap", "high_gate", "mid_cap", "mid_gate"):
        if not 0.0 <= getattr(cal, name) <= 1.0:
            raise ConfigError(f"calibration.{name} must lie in [0,1]")
    if cal.high_cap < cal.high_gate:
        raise ConfigError("calibration.high_cap must be >= calibration.high_gate")
    if cal.mid_cap < cal.mid_gate:
        raise ConfigError("calibration.mid_cap must be >= calibration.mid_gate")
    if cfg.agent_timeout_ms <= 0:
        raise ConfigError("agent_timeout_ms must be > 0")
    dec = cfg.decoding
    if dec.temperature < 0:
        raise ConfigError("decoding.temperature must be >= 0")
    if not 0.0 < dec.top_p <= 1.0:
        raise ConfigError("decoding.top_p must lie in (0,1]")
    if not dec.repetition_penalty > 0:
        raise ConfigError("decoding.repetition_penalty must be > 0")
    if dec.max_new_tokens <= 0:
        raise ConfigError("decoding.max_new_tokens must be > 0")
    if cfg.tie_epsilon < 0:
        raise ConfigError("tie_epsilon must be >= 0")
    return cfg


def load_config(path: str | Path) -> EngineConfig:
    """Load, merge over defaults, and validate a JSON config file."""
    text = Path(path).read_text(encoding="utf-8")
    return validate_config(EngineConfig.from_json(text))
