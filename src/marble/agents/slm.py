"""The language-model agent pipeline: prompt assembly, structured-output
extraction, rare-class confidence calibration, and the composed evaluation."""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from typing import Mapping

from ..core import AgentId, AgentOutput, EngineConfig, Severity, clamp01
from ..features import FeatureValue, format_features
from .backends import BackendTimeoutError, SlmBackend, TransportError


class ParseError(ValueError):
    """No severity class in {1..4} is recoverable from the model output."""


_JSON_QUERY = (
    'Reply with a JSON object of the form '
    '{"severity": <integer 1-4>, "confidence": <number between 0 and 1>, '
    '"reasoning": "<one or two sentences>"}.'
)

# Each SLM domain's prompt head: its context, a blank line, its instructions.
DEFAULT_TEMPLATES: dict[AgentId, str] = {
    AgentId.ENVIRONMENTAL: (
        "You are a road safety analyst specializing in environmental conditions: "
        "weather, lighting, visibility, and atmospheric factors at accident scenes.\n\n"
        "Using only the conditions listed below, reason step by step about how they "
        "affect the likely severity of this accident on a 1-4 scale, then decide."
    ),
    AgentId.INFRASTRUCTURAL: (
        "You are a road safety analyst specializing in infrastructure: road type, "
        "junction layout, surface state, speed limits, and carriageway hazards.\n\n"
        "Using only the road characteristics listed below, reason step by step about "
        "the likely severity of this accident on a 1-4 scale, then decide."
    ),
    AgentId.SPATIAL: (
        "You are a road safety analyst specializing in spatial dynamics: impact "
        "points, vehicle manoeuvres, and the geographic context of accidents.\n\n"
        "Using only the spatial factors listed below, reason step by step about the "
        "likely severity of this accident on a 1-4 scale, then decide."
    ),
    AgentId.TEMPORAL: (
        "You are a road safety analyst specializing in temporal patterns: time of "
        "day, day of week, seasonality, and holiday effects on accidents.\n\n"
        "Using only the timing information listed below, reason step by step about "
        "the likely severity of this accident on a 1-4 scale, then decide."
    ),
}


def build_prompt(head: str, formatted: str) -> str:
    """Exact concatenation head / features / JSON query, one blank line apart."""
    return "\n\n".join((head, formatted, _JSON_QUERY))


@dataclass(frozen=True)
class ParsedPrediction:
    severity: Severity
    confidence: float
    reasoning: str
    clamped: bool
    via: str  # "json" | "fallback"


def _coerce_severity(value: object) -> Severity | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        number = value
    elif isinstance(value, float) and value.is_integer():
        number = int(value)
    elif isinstance(value, str) and re.fullmatch(r"[+-]?\d+", value.strip()):
        try:
            number = int(value.strip())
        except ValueError:  # past Python's limit on digits converted: no class fits
            return None
    else:
        return None
    return Severity(number) if 1 <= number <= 4 else None


def _coerce_confidence(value: object) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an int past the float range reads as +-inf, so it is clamped and flagged
            return math.inf if value > 0 else -math.inf
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


# JSON objects are sought in at most this many leading characters of a
# reply; the labelled-number fallback still reads all of it. A reply of 256
# new tokens is about 1 KB, so the cap binds only on runaway or hostile
# output, where it bounds the decoding of nested spans, quadratic in length.
_MAX_JSON_SCAN_CHARS = 32_768

# Characters that move the brace scanner; every other one only ends an escape.
_JSON_SYNTAX = re.compile(r'[{}"\\]')


def _merge_lanes(a: list[list[int]] | None, b: list[list[int]]) -> list[list[int]]:
    """Merge two lanes that see the same braces from now on. Their stacks align
    at the top, as the next '}' closes both tops; a level holds the starts
    that close together."""
    if a is None or len(a) < len(b):
        a, b = b, a
    if b is None:
        return a
    for i in range(1, len(b) + 1):
        if len(a[-i]) < len(b[-i]):
            a[-i], b[-i] = b[-i], a[-i]
        a[-i].extend(b[-i])
    return a


def _closing_braces(text: str) -> dict[int, int]:
    """Map each '{' to the '}' that balances it, scanning from that '{' as if
    outside any string, in one pass over the text.

    A scan started at a '{' is in one of three states at each later
    character: outside a string, inside one, or just after a backslash
    inside one. Scans in the same state at the same character agree from
    then on, so the pass keeps one stack of open braces per state (a lane)
    and merges lanes that reach the same state.
    """
    closing: dict[int, int] = {}
    out = in_str = escaped = None  # lanes: None when no scan is in that state
    last = -1
    for match in _JSON_SYNTAX.finditer(text):
        pos, c = match.start(), match.group()
        if escaped is not None and (pos > last + 1 or c in "{}"):
            in_str, escaped = _merge_lanes(in_str, escaped), None
        last = pos
        if c == "{":
            out = out or []
            out.append([pos])
        elif c == "}":
            if out is not None:
                for start in out.pop():
                    closing[start] = pos
                out = out or None
        elif c == '"':
            # outside -> string, string -> outside, after backslash -> string
            if escaped is not None:
                out = _merge_lanes(out, escaped)
            out, in_str, escaped = in_str, out, None
        else:
            in_str, escaped = escaped, in_str
    return closing


def _iter_json_candidates(text: str):
    """Yield every JSON object embedded in the first ``_MAX_JSON_SCAN_CHARS`` of
    the text, left to right: each span from a '{' to the '}' that balances it,
    when it decodes (spans nested too deep for the decoder do not)."""
    text = text[:_MAX_JSON_SCAN_CHARS]
    closing = _closing_braces(text)
    for start in sorted(closing):
        try:
            obj = json.loads(text[start : closing[start] + 1])
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            yield obj


_SEV_PATTERN = re.compile(r'severity"?\s*[:=]\s*"?(\d+)', re.IGNORECASE)
_CONF_PATTERN = re.compile(r'confidence"?\s*[:=]\s*"?([0-9]*\.?[0-9]+)', re.IGNORECASE)

_DEFAULT_FALLBACK_CONFIDENCE = 0.5  # neutral prior when the model states none


def _parsed(severity: Severity, confidence: float | None, reasoning: str, via: str) -> ParsedPrediction:
    """The prior when no confidence is stated, else the stated one clamped to [0, 1]."""
    if confidence is None:
        return ParsedPrediction(severity, _DEFAULT_FALLBACK_CONFIDENCE, reasoning, False, via)
    return ParsedPrediction(severity, clamp01(confidence), reasoning, not 0.0 <= confidence <= 1.0, via)


def parse_response_detailed(raw: str) -> ParsedPrediction:
    """Extract (severity, confidence, reasoning) from free-form model output.

    Strict path first: the first embedded JSON object carrying a valid
    severity wins. Labeled-number patterns ("severity: N", "confidence: 0.x",
    case-insensitive) serve as the fallback. Confidence is clamped to [0, 1].
    """
    for obj in _iter_json_candidates(raw):
        severity = _coerce_severity(obj.get("severity"))
        if severity is not None:
            reasoning = obj.get("reasoning")
            confidence = _coerce_confidence(obj.get("confidence"))
            return _parsed(severity, confidence, "" if reasoning is None else str(reasoning), "json")

    sev_match = _SEV_PATTERN.search(raw)
    severity = _coerce_severity(sev_match.group(1)) if sev_match else None
    if severity is not None:
        conf_match = _CONF_PATTERN.search(raw)
        return _parsed(severity, float(conf_match.group(1)) if conf_match else None, "", "fallback")
    raise ParseError("no severity class in 1-4 recoverable from output")


def calibrate(raw_confidence: float, prediction: Severity, cfg: EngineConfig) -> float:
    """Heuristic boost for confident rare-class predictions; common classes
    pass through unchanged. The high gate is tested before the mid gate."""
    cal = cfg.calibration
    if prediction.is_rare:
        if raw_confidence > cal.high_gate:
            return min(cal.high_cap, raw_confidence + cal.high_delta)
        if raw_confidence > cal.mid_gate:
            return min(cal.mid_cap, raw_confidence + cal.mid_delta)
    return raw_confidence


def ask(backend: SlmBackend, prompt: str, cfg: EngineConfig) -> ParsedPrediction | str:
    """One model call, shared by the agents and the LLM coordinator: the
    parsed reply, or the kind of failure ("timeout", "transport" or "parse").
    A reply that is not text is a parse failure."""
    try:
        reply = backend.complete(prompt, cfg.decoding, cfg.agent_timeout_ms)
        return parse_response_detailed(reply) if isinstance(reply, str) else "parse"
    except BackendTimeoutError:
        return "timeout"
    except TransportError:
        return "transport"
    except ParseError:
        return "parse"


class SlmAgent:
    """One SLM domain, with its prompt head, bound to a backend and the config."""

    def __init__(self, kind: AgentId, backend: SlmBackend, cfg: EngineConfig):
        if not kind.is_slm:
            raise ValueError("SlmAgent serves SLM domains only")
        self._kind = kind
        self._backend = backend
        self._cfg = cfg

    def identity(self) -> AgentId:
        return self._kind

    def evaluate(self, features: Mapping[str, FeatureValue]) -> AgentOutput:
        """Full SLM pipeline: format -> prompt -> complete -> parse -> calibrate.

        Total by construction: any stage failure yields a failed output with
        the failure class (parse / timeout / transport) recorded.
        """
        start = time.perf_counter()
        parsed = ask(self._backend, build_prompt(DEFAULT_TEMPLATES[self._kind], format_features(features)), self._cfg)
        latency_ms = int((time.perf_counter() - start) * 1000)
        if isinstance(parsed, str):
            return AgentOutput.failure(self._kind, parsed, latency_ms)
        return AgentOutput(
            agent=self._kind,
            prediction=parsed.severity,
            confidence=calibrate(parsed.confidence, parsed.severity, self._cfg),
            reasoning=parsed.reasoning,
            raw_confidence=parsed.confidence,
            latency_ms=latency_ms,
            notes=("confidence clamped to [0,1]",) if parsed.clamped else (),
        )
