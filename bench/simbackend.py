"""A simulated remote language-model backend driven by a seeded per-call schedule.

Each call's latency, outcome and response shape are a pure function of the
seed, the caller's role and the prompt text, so a call gets the same plan
whichever thread makes it and in whatever order. That lets a serial,
zero-latency reference pass reproduce every outcome of a concurrent run.
When the schedule is given the prompts a workload will send, it deals the
shapes out to them in exact proportion to the mix, so that the failure
counts, and the time that stalls and stragglers cost, do not vary from one
seed to the next; any other prompt draws its shape from its hash.

Agent replies echo the hint in their own prompt (as ``tests/synth.py``
does); coordinator replies pick the class with the largest weighted
confidence among the reports in the meta-prompt.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from marble.agents import BackendTimeoutError, TransportError
from marble.core import DecodingParams

# Response shapes and failure kinds a plan can take.
JSON, PROSE, LABELLED, TRUNCATED, GARBAGE, TRANSPORT, STALL, STRAGGLER = (
    "json", "prose", "labelled", "truncated", "garbage", "transport", "stall", "straggler"
)

# The agent failure kind that each shape must produce in the engine's output.
EXPECTED_FAILURE = {TRUNCATED: "parse", GARBAGE: "parse", TRANSPORT: "transport", STALL: "timeout"}


@dataclass(frozen=True)
class Mix:
    """Share of calls per shape; shapes not listed never occur."""

    shares: Mapping[str, float]
    latency_ms: float = 0.0
    straggler_ms: float = 100.0

    def __post_init__(self) -> None:
        if abs(sum(self.shares.values()) - 1.0) > 1e-9:
            raise ValueError("mix shares must sum to 1")

    def pick(self, u: float) -> str:
        acc = 0.0
        for shape, share in self.shares.items():
            acc += share
            if u < acc:
                return shape
        return JSON


CLEAN = Mix({JSON: 1.0})


@dataclass(frozen=True)
class Plan:
    shape: str
    latency_ms: float
    text: str


_HINT = re.compile(r"^([^:\n]+): sig(\d)$", re.MULTILINE)
_REPORT = re.compile(r"prediction: (\d)\nconfidence: ([0-9.e-]+)\nweight: ([0-9.e-]+)")


class Schedule:
    """The per-call plan for one role ("agent" or "coordinator")."""

    def __init__(self, seed: int, role: str, mix: Mix, prompts: Iterable[str] = ()):
        self._salt = f"{seed}|{role}|".encode()
        self._role = role
        self.mix = mix
        # Keyed by the prompt's digest rather than its text, to keep the
        # benchmark's own share of the process's memory small.
        self._dealt: dict[bytes, str] = {}
        deck = sorted(set(prompts))
        random.Random(f"{seed}|{role}").shuffle(deck)
        shares = list(mix.shares.items())
        counts = [int(share * len(deck)) for _, share in shares]
        by_remainder = sorted(range(len(shares)), reverse=True,
                              key=lambda i: shares[i][1] * len(deck) - counts[i])
        for i in by_remainder[: len(deck) - sum(counts)]:
            counts[i] += 1
        start = 0
        for (shape, _), count in zip(shares, counts):
            self._dealt.update((self._digest(p), shape) for p in deck[start : start + count])
            start += count

    def _digest(self, prompt: str) -> bytes:
        return hashlib.blake2b(self._salt + prompt.encode("utf-8"), digest_size=12).digest()

    def plan(self, prompt: str) -> Plan:
        digest = self._digest(prompt)
        u = [int.from_bytes(digest[i : i + 4], "big") / 2**32 for i in (0, 4, 8)]
        shape = self._dealt.get(digest) or self.mix.pick(u[0])
        latency = self.mix.latency_ms
        if shape == STRAGGLER:
            latency = self.mix.straggler_ms * (0.9 + 0.2 * u[2])
        elif shape == STALL:
            latency = float("inf")
        confidence = round(0.55 + 0.4 * u[1], 2)
        if self._role == "coordinator":
            severity, reasoning = _fuse_reports(prompt)
        else:
            severity, reasoning = _echo_hint(prompt)
        return Plan(shape, latency, _render(shape, severity, confidence, reasoning))


def _echo_hint(prompt: str) -> tuple[int, str]:
    match = _HINT.search(prompt)
    if match is None:
        raise AssertionError("prompt carries no hint feature")
    name, severity = match.group(1), int(match.group(2))
    return severity, f"{name} reads sig{severity}, which points to class {severity}."


def _fuse_reports(prompt: str) -> tuple[int, str]:
    scores = Counter()
    for prediction, confidence, weight in _REPORT.findall(prompt):
        scores[int(prediction)] += float(confidence) * float(weight)
    severity = max(sorted(scores), key=lambda k: scores[k])
    return severity, f"the weighted reports favour class {severity}."


def _render(shape: str, severity: int, confidence: float, reasoning: str) -> str:
    if shape == LABELLED:
        return f"Severity: {severity}\nConfidence: {confidence}\n{reasoning}"
    if shape == TRUNCATED:
        # A reply cut at the token limit while still reasoning: no class survives.
        opening = json.dumps({"reasoning": reasoning * 4, "severity": severity})
        return opening[: len(reasoning) * 2]
    if shape == GARBAGE:
        return "I am unable to reach a conclusion from these reports."
    body = json.dumps({"severity": severity, "confidence": confidence, "reasoning": reasoning})
    if shape == PROSE:
        return f"Let me weigh the evidence.\n```json\n{body}\n```\nThat is my assessment."
    return body


class SimulatedBackend:
    """An ``SlmBackend`` that serves a schedule, scaled in time by ``latency_scale``.

    Like ``RemoteHttpBackend`` with its ``requests`` timeout, a call never
    outlives ``timeout_ms``: a plan slower than the deadline waits until the
    deadline and raises ``BackendTimeoutError``. With ``latency_scale`` 0 the
    same outcomes arrive at once.
    """

    def __init__(self, schedule: Schedule, latency_scale: float = 1.0):
        self._schedule = schedule
        self._scale = latency_scale
        self._lock = threading.Lock()
        self.served: Counter[str] = Counter()

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
        plan = self._schedule.plan(prompt)
        with self._lock:
            self.served[plan.shape] += 1
        if plan.latency_ms >= timeout_ms:
            time.sleep(timeout_ms / 1000.0 * self._scale)
            raise BackendTimeoutError(f"no completion within {timeout_ms} ms")
        if plan.latency_ms and self._scale:
            time.sleep(plan.latency_ms / 1000.0 * self._scale)
        if plan.shape == TRANSPORT:
            raise TransportError("HTTP 503", status=503)
        return plan.text
