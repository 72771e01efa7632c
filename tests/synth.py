"""Synthetic datasets, scripted agents, a fake backend and the ends of the
accepted config range, for end-to-end harness tests.

Each record's label is hinted through one feature per agent domain
("sig1".."sig4"); a hint is correct with a configurable per-agent
probability, otherwise it points to a uniformly chosen wrong class. The
scripted SLM backends read only their own hint out of the prompt text,
so every agent genuinely sees just its own projection.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import struct
import sys
import time
from typing import Callable, Mapping, Sequence

from marble.agents import BackendTimeoutError, ScriptedBackend, SlmAgent
from marble.core import AgentId, AgentOutput, ConfigError, DecodingParams, EngineConfig, Severity, validate_config
from marble.features import AccidentRecord, FeatureValue

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


class FakeBackend:
    """Test double for the ``SlmBackend`` contract: replies as a
    ``ScriptedBackend`` of the same script does, or through a closure of the
    prompt, and counts its calls in ``calls``.

    ``delay_ms`` simulates a slow model; ``error`` is raised after the delay.
    A delay that reaches ``timeout_ms`` sleeps until the deadline and raises
    ``BackendTimeoutError``, as the backend contract requires.
    """

    def __init__(
        self,
        script: str | Mapping[str, str] | Callable[[str], object],
        *,
        delay_ms: int = 0,
        error: Exception | None = None,
    ):
        self._reply = script if callable(script) else ScriptedBackend(script)
        self._delay_ms = delay_ms
        self._error = error
        self.calls = 0

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
        self.calls += 1
        if self._delay_ms >= timeout_ms:
            time.sleep(timeout_ms / 1000.0)
            raise BackendTimeoutError(f"no completion within {timeout_ms} ms")
        if self._delay_ms:
            time.sleep(self._delay_ms / 1000.0)
        if self._error is not None:
            raise self._error
        if callable(self._reply):
            return self._reply(prompt)
        return self._reply.complete(prompt, decoding, timeout_ms)


# One hint column per domain, named after a registry feature so the domain
# projection picks it up; the ML hint is registry-unknown, so only the full
# (ML) projection carries it.
HINT_FEATURES: dict[AgentId, str] = {
    AgentId.ENVIRONMENTAL: "Weather Conditions",
    AgentId.TEMPORAL: "Day of Week",
    AgentId.INFRASTRUCTURAL: "Road Type",
    AgentId.SPATIAL: "Point of Impact",
    AgentId.ML: "ml signal",
}

CLASSES = (1, 2, 3, 4)


def hint_for(label: int, accuracy: float, rng: random.Random) -> int:
    """True label with probability ``accuracy``, else a uniform wrong class.

    ``accuracy`` 0.25 yields a pure-noise hint (uniform over all classes).
    """
    if accuracy <= 0.25:
        return rng.choice(CLASSES)
    if rng.random() < accuracy:
        return label
    return rng.choice([c for c in CLASSES if c != label])


def generate_records(
    n: int,
    seed: int,
    accuracies: Mapping[AgentId, float],
    class_weights: Sequence[float] = (1, 1, 1, 1),
) -> list[AccidentRecord]:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        label = rng.choices(CLASSES, weights=class_weights)[0]
        features = {
            name: FeatureValue.categorical(f"sig{hint_for(label, accuracies[agent], rng)}")
            for agent, name in HINT_FEATURES.items()
        }
        records.append(AccidentRecord(id=f"r{i}", features=features, label=Severity(label)))
    return records


_SIG = re.compile(r": sig(\d)")


def _hint_from_prompt(prompt: str) -> int:
    match = _SIG.search(prompt)
    if match is None:
        raise AssertionError("prompt carries no hint feature")
    return int(match.group(1))


def hint_backend(confidence: float) -> FakeBackend:
    """Backend that echoes the hint embedded in its own prompt."""

    def script(prompt: str) -> str:
        return json.dumps(
            {
                "severity": _hint_from_prompt(prompt),
                "confidence": confidence,
                "reasoning": "scripted hint",
            }
        )

    return FakeBackend(script)


def ml_hint_agent(confidence: float) -> ScriptedAgent:
    """Scripted stand-in for the ML agent reading only its own hint feature."""

    def responder(features):
        value = features[HINT_FEATURES[AgentId.ML]]
        return int(value.text.removeprefix("sig")), confidence

    return ScriptedAgent(AgentId.ML, responder)


def build_hint_agents(
    cfg: EngineConfig, confidences: Mapping[AgentId, float]
) -> list[ScriptedAgent | SlmAgent]:
    """Five agents, each reading only its own projection's hint."""
    agents: list[ScriptedAgent | SlmAgent] = [ml_hint_agent(confidences[AgentId.ML])]
    for kind in (
        AgentId.ENVIRONMENTAL,
        AgentId.INFRASTRUCTURAL,
        AgentId.SPATIAL,
        AgentId.TEMPORAL,
    ):
        agents.append(SlmAgent(kind, hint_backend(confidences[kind]), cfg))
    return agents


def agent_hint_accuracy(records: Sequence[AccidentRecord], agent: AgentId) -> float:
    """Exact fraction of records whose hint for this agent is correct."""
    name = HINT_FEATURES[agent]
    hits = sum(
        1 for r in records if r.features[name].text == f"sig{int(r.label)}"
    )
    return hits / len(records)


def fallible_coordinator() -> FakeBackend:
    """Coordination backend that is unparseable on about a third of prompts,
    deterministically per prompt, and otherwise echoes the first reported
    prediction."""

    def script(prompt: str) -> str:
        if hashlib.md5(prompt.encode("utf-8")).digest()[0] % 3 == 0:
            return "no verdict"
        severity = int(prompt.split("prediction: ")[1][0])
        return json.dumps({"severity": severity, "confidence": 0.45, "reasoning": "first report"})

    return FakeBackend(script)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def accepted(doc: Mapping) -> bool:
    """Whether ``validate_config`` accepts the config document ``doc``."""
    try:
        validate_config(EngineConfig.from_dict(doc))
    except ConfigError:
        return False
    return True


def largest_admitted(doc_for: Callable[[float], Mapping]) -> float:
    """The largest float x for which ``validate_config`` accepts the config
    document ``doc_for(x)``, given that it accepts ``sys.float_info.min`` and
    every x below one it accepts. Bisects the bit patterns of the positive
    floats, which order as the floats do."""
    assert accepted(doc_for(sys.float_info.min))
    low, high = _bits(sys.float_info.min), _bits(float("inf"))
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if accepted(doc_for(_from_bits(middle))) else (low, middle)
    return _from_bits(low)


# The largest weight the spatial and temporal agents may share under the default class factors.
LARGEST_PAIR = largest_admitted(lambda w: {"agent_weights": {"spatial": w, "temporal": w}})
