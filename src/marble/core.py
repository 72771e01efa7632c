"""Domain types, severity semantics, and validated engine configuration.

Everything here is immutable after construction and safe to share across
threads. The configuration is loaded once per run and never mutated.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum, IntEnum
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Any, Callable, Mapping, Union, get_args, get_origin, get_type_hints
from urllib.parse import SplitResult, urlsplit


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
    raw_confidence: float = 0.0
    reasoning: str = ""
    failed: bool = False
    failure_kind: str | None = None
    latency_ms: int = 0
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.agent, AgentId):
            raise ValueError(f"agent must be an AgentId, not {self.agent!r}")
        if not (self.prediction is None or isinstance(self.prediction, Severity)):
            raise ValueError(f"prediction must be a Severity or None, not {self.prediction!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0,1]")
        if not 0.0 <= self.raw_confidence <= 1.0:
            raise ValueError(f"raw_confidence {self.raw_confidence} outside [0,1]")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        if self.failed != (self.prediction is None):
            raise ValueError("non-failed output requires a prediction, and a failed one carries none")
        if self.failed != (self.failure_kind is not None):
            raise ValueError("failed output requires a failure_kind, and a non-failed one carries none")
        if self.agent is AgentId.ML and self.reasoning:
            raise ValueError("the ML agent carries no reasoning text")

    @classmethod
    def failure(cls, agent: AgentId, kind: str, latency_ms: int) -> "AgentOutput":
        """The failed output of ``agent``: no prediction, and why (``kind``)."""
        return cls(agent, None, 0.0, latency_ms=latency_ms, failed=True, failure_kind=kind)

    def to_dict(self) -> dict:
        """The trace form: the fields in declaration order, the agent by value."""
        return {**vars(self), "agent": self.agent.value, "notes": list(self.notes)}


class CoordinationMode(Enum):
    RULE_BASED = "rule"
    LLM_BASED = "llm"


# Config number types: each field declares its ranges with its type, as (test, message) pairs. A wait
# much beyond a day overflows the platform's timeout range; a weight below the smallest normal float
# loses its products to rounding.
_POSITIVE = (lambda x: x > 0, "must be > 0")
Unit = Annotated[float, (lambda x: 0.0 <= x <= 1.0, "must lie in [0,1]")]
OpenUnit = Annotated[float, (lambda x: 0.0 < x <= 1.0, "must lie in (0,1]")]
Positive = Annotated[float, _POSITIVE]
Weight = Annotated[float, _POSITIVE, (lambda x: x >= sys.float_info.min, f"must be >= {sys.float_info.min}")]
NonNegative = Annotated[float, (lambda x: x >= 0, "must be >= 0")]
PositiveInt = Annotated[int, _POSITIVE]
TimeoutMs = Annotated[int, _POSITIVE, (lambda x: x <= 86_400_000, "must be <= 86400000")]


@dataclass(frozen=True)
class CalibrationParams:
    """Piecewise confidence boost applied to rare-class SLM predictions."""

    high_cap: Unit = 0.98
    high_delta: Positive = 0.1
    high_gate: Unit = 0.8
    mid_cap: Unit = 0.9
    mid_delta: Positive = 0.05
    mid_gate: Unit = 0.6


@dataclass(frozen=True)
class DecodingParams:
    """Sampling parameters sent to the language-model backend."""

    temperature: NonNegative = 0.2
    top_p: OpenUnit = 0.90
    repetition_penalty: Positive = 1.1
    max_new_tokens: PositiveInt = 256


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
    timeout guardrail. Each field's type, with its range, is all that
    ``to_dict`` and ``from_dict`` need to know about it.
    """

    agent_weights: Mapping[AgentId, Weight] = field(default_factory=_default_agent_weights)
    class_factors: Mapping[Severity, Positive] = field(default_factory=_default_class_factors)
    tau_ml_high: Unit = 0.75
    tau_ml_corrob: Unit = 0.8
    tau_coord_rare: Unit = 0.4
    tau_coord_common: Unit = 0.5
    w1_rare: Unit = 0.7
    w1_common: Unit = 0.5
    boost_rare: Positive = 0.1
    boost_common: Positive = 0.05
    override_rare_bonus: Positive = 0.15
    confidence_cap: Unit = 0.95
    fallback_confidence: Unit = 0.1
    calibration: CalibrationParams = CalibrationParams()
    agent_timeout_ms: TimeoutMs = 8000
    decoding: DecodingParams = DecodingParams()
    endpoint: EndpointParams = EndpointParams()
    coordination_mode: CoordinationMode = CoordinationMode.RULE_BASED
    tie_epsilon: NonNegative = 1e-9

    def to_dict(self) -> dict[str, Any]:
        return to_json_value(self)

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
        return from_json_value(cls, data)


def to_json_value(value: Any) -> Any:
    """Plain JSON data for a value: dataclasses as objects of their fields,
    enums by value, mapping keys as strings, tuples as lists."""
    if type(value) in (float, int, str, bool):
        return value
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return {f.name: to_json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, abc.Mapping):
        return {str(to_json_value(k)): to_json_value(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [to_json_value(v) for v in value]
    return value


@cache
def _field_types(cls: type) -> dict[str, Any]:
    """A dataclass's fields and their resolved types, worked out once per class."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_json_value(tp: Any, value: Any, name: str = "") -> Any:
    """Read JSON data as type ``tp``, the inverse of ``to_json_value``.

    A dataclass reads from an object of known fields (defaults fill the
    rest), a mapping from an object naming each agent id or severity class
    once, a tuple from an array, and ``X | None`` from null or as ``X``.
    Numbers must be finite, ints whole, strings and booleans JSON strings
    and booleans, and ``Annotated`` bounds must hold, as must a dataclass's
    constructor; else ConfigError names the field by its dotted path ``name``.
    """
    if tp is float or tp is int:
        try:
            number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
        except OverflowError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"{name} must be a finite number")
        if tp is float:
            return number  # a weight of 3 fingerprints as 3.0
        if not number.is_integer():
            raise ConfigError(f"{name} must be a whole number")
        return int(value)  # 8000.0 fingerprints as 8000
    if tp is str or tp is bool:
        if not isinstance(value, tp):
            raise ConfigError(f"{name} must be a {'string' if tp is str else 'boolean'}")
        return value
    origin = get_origin(tp)
    if origin is Annotated:
        base, *bounds = get_args(tp)
        value = from_json_value(base, value, name)
        for holds, message in bounds:
            if not holds(value):
                raise ConfigError(f"{name} {message}")
        return value
    if origin is Union or origin is UnionType:  # Optional[X] or X | None
        if value is None:
            return None
        (inner,) = (arg for arg in get_args(tp) if arg is not NoneType)
        return from_json_value(inner, value, name)
    if is_dataclass(tp):
        if not isinstance(value, abc.Mapping):
            raise ConfigError(f"{name or 'config'} must be a JSON object")
        prefix = f"{name}." if name else ""
        types = _field_types(tp)
        unknown = set(value) - types.keys()
        if unknown:
            raise ConfigError(f"unknown config field: {prefix}{sorted(unknown)[0]}")
        for f in fields(tp):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{prefix}{f.name} is missing")
        kwargs = {k: from_json_value(t, value[k], prefix + k) for k, t in types.items() if k in value}
        try:
            return tp(**kwargs)
        except (TypeError, ValueError) as exc:  # a __post_init__ check
            raise ConfigError(f"{name or tp.__name__}: {exc}") from exc
    if origin is abc.Mapping:
        if not isinstance(value, abc.Mapping):
            raise ConfigError(f"{name} must be a JSON object")
        key_type, value_type = get_args(tp)
        agents = key_type is AgentId
        out = {}
        for raw_key, item in value.items():
            key = _agent_from_key(raw_key, name) if agents else _severity_from_key(raw_key, name)
            path = f"{name}.{key.name if agents else int(key)}"
            if key in out:  # "ml" and "ML", or "1" and "01"
                raise ConfigError(f"{path} is given twice")
            out[key] = from_json_value(value_type, item, path)
        return out
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a JSON array")
        item_type = get_args(tp)[0]
        return tuple(from_json_value(item_type, item, f"{name}[{i}]") for i, item in enumerate(value))
    try:  # an enum, read by value; ``true`` is not the IntEnum member 1
        if not isinstance(value, bool):
            return tp(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be one of {[m.value for m in tp]}")


def _agent_from_key(key: str, name: str) -> AgentId:
    """An agent by value or, in any case, by name: "ml", "ML", "Spatial"."""
    try:
        return AgentId[key.upper()]
    except KeyError as exc:
        raise ConfigError(f"{name}: unknown agent id: {key}") from exc


def _severity_from_key(key: Any, name: str) -> Severity:
    try:
        return Severity(int(key))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: severity class keys must be 1-4, got {key!r}") from exc


def split_endpoint_url(url: str) -> tuple[SplitResult, int]:
    """The parts and the port of an endpoint URL; ConfigError if it holds
    credentials, or is not http(s) with a host and a valid port."""
    # Checked first, and the URL left out of the message, which would print the secret.
    if re.match(r"([^/?#]*//)?[^/?#]*@", url):
        raise ConfigError("endpoint.url must not hold credentials; endpoint.api_key_env names the key's variable")
    try:  # ``parts.port`` raises ValueError for a port that does not parse or is out of range
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
            raise ValueError
        return parts, parts.port or (443 if parts.scheme == "https" else 80)
    except ValueError:
        raise ConfigError(f"endpoint.url {url!r} must look like http(s)://host[:port]/path") from None


def validate_config(cfg: EngineConfig) -> EngineConfig:
    """Return ``cfg`` unchanged if every invariant holds; raise ConfigError naming
    the first violated one otherwise. ``cfg.to_dict()`` is read back as
    ``from_dict`` reads a file, so a config built in code meets the same type
    and range checks, and must equal what is read back; then come the rules
    that relate fields."""
    checked = from_json_value(EngineConfig, cfg.to_dict())
    if checked != cfg:  # such as an enum field set to its JSON value
        name = next(f.name for f in fields(cfg) if getattr(checked, f.name) != getattr(cfg, f.name))
        raise ConfigError(f"{name} must be set as its declared type, not as {getattr(cfg, name)!r}")
    if not checked.agent_weights:
        raise ConfigError("agent_weights must not be empty")
    for k in ALL_SEVERITIES:
        if k not in checked.class_factors:
            raise ConfigError(f"class_factors.{int(k)} is missing")
    cal = checked.calibration
    # Twice the largest class score or sum of weights a vote can reach: finite, it leaves both room to round.
    bound = max(1.0, *checked.class_factors.values()) * sum(checked.agent_weights.get(a, 1.0) for a in AgentId) * 2
    for holds, message in (
        (math.isfinite(bound), "max(1, largest class factor) * sum of agent_weights * 2 must be finite"),
        (checked.fallback_confidence <= checked.confidence_cap, "fallback_confidence must be <= confidence_cap"),
        (checked.tau_ml_high <= checked.tau_ml_corrob, "tau_ml_high must be <= tau_ml_corrob"),
        (cal.high_cap >= cal.high_gate, "calibration.high_cap must be >= calibration.high_gate"),
        (cal.mid_cap >= cal.mid_gate, "calibration.mid_cap must be >= calibration.mid_gate"),
    ):
        if not holds:
            raise ConfigError(message)
    if checked.endpoint.url:  # an empty one means no endpoint
        split_endpoint_url(checked.endpoint.url)
    return cfg


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"key {key!r} is given twice in one object")
        out[key] = value
    return out


def read_json(path: str | Path, decode: Callable[[Any], Any] = lambda document: document) -> Any:
    """``decode`` of the JSON document in the UTF-8 file ``path``; ConfigError
    naming the file if it is not UTF-8, not JSON, nested too deeply to parse,
    gives a key twice in one object, or ``decode`` rejects it with a ValueError."""
    try:
        return decode(json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, or a ConfigError naming a field
        raise ConfigError(f"{path}: {exc}") from None
    except RecursionError:  # fixed wording: CPython's names the container and varies by version
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def load_config(path: str | Path) -> EngineConfig:
    """Load, merge over defaults, and validate a JSON config file."""
    return read_json(path, lambda document: validate_config(EngineConfig.from_dict(document)))
