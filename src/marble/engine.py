"""The orchestrated three-stage inference protocol and trace persistence.

Stage 1 projects the record per agent, stage 2 dispatches every agent and
blocks until all have resolved (returned or timed out), stage 3, ``fuse``,
coordinates the surviving outputs and runs the final decision cascade. Agents
are stateless; no information flows between them. Every instance leaves a
full trace record.

Agents, and the coordinator call, run on one thread pool shared by every
record, which starts no thread once warm. Each record has one deadline for
its agents, the barrier; backends bound their own calls (``SlmBackend``).
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from .agents.base import Agent
from .agents.backends import SlmBackend
from .coordination import CoordinationResult, coordinate_llm, coordinate_rb
from .core import AGENT_ORDER, AgentId, AgentOutput, CoordinationMode, EngineConfig
from .decision import FinalDecision, abstain, final_decide
from .features import AccidentRecord, FeatureValue, project

# Extra slack granted past the agent timeout before the engine abandons a
# call; covers agents that fail to enforce their own deadline.
_BARRIER_GRACE_MS = 500

_ABANDONED = object()  # what ``_gather`` returns for a call past its deadline
_TASKS = queue.SimpleQueue()  # calls for the agent threads
_IDLE = queue.SimpleQueue()  # one token per idle agent thread


def _empty_pool() -> None:  # a forked child has none of its parent's agent threads, nor their tokens
    global _TASKS, _IDLE
    _TASKS, _IDLE = queue.SimpleQueue(), queue.SimpleQueue()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_empty_pool)


def _gather(calls: Sequence[Callable[[], object]], deadline: float) -> tuple[list, list[float]]:
    """Run ``calls`` at once on the agent threads; return their results in call
    order, ``_ABANDONED`` for any still running at ``deadline``
    (``perf_counter``), and when each landed here (``deadline`` if abandoned);
    or re-raise the first exception in call order. A thread starts only if none
    is idle, so no call waits in line, and counts itself idle before it hands
    back its result, so a warm pool starts none."""
    replies = queue.SimpleQueue()
    for index, call in enumerate(calls):
        try:
            _IDLE.get_nowait()
        except queue.Empty:
            threading.Thread(target=_work, name="marble-agent", daemon=True).start()
        _TASKS.put((index, call, replies))
    results, errors, landed = [_ABANDONED] * len(calls), [None] * len(calls), [deadline] * len(calls)
    for _ in calls:
        try:
            index, result, error = replies.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            break
        results[index], errors[index], landed[index] = result, error, time.perf_counter()
    for error in errors:
        if error is not None:
            raise error
    return results, landed


def _work() -> None:
    while True:
        index, call, replies = _TASKS.get()
        try:
            reply = (index, call(), None)
        except BaseException as error:
            reply = (index, None, error)
        _IDLE.put(None)
        replies.put(reply)
        del call, replies, reply  # an idle thread keeps no record alive


class AgentContractError(ValueError):
    """An agent returned something other than one ``AgentOutput`` of its own,
    or a coordinator something other than a verdict or a failure kind."""


# A coordinator answers with its verdict or with the kind of its failure
# (``ask``'s kinds); ``fuse`` owns the fallback to the rule-based result.
Coordinator = Callable[[Sequence[AgentOutput], EngineConfig], CoordinationResult | str]


@dataclass(frozen=True)
class TraceRecord:
    """Per-instance audit: projections, every agent output (failed ones
    included), coordination internals, the final decision, and timings."""

    record_id: str
    projections: Mapping[AgentId, Mapping[str, FeatureValue]]
    agent_outputs: tuple[AgentOutput, ...]
    coordination: CoordinationResult | None
    decision: FinalDecision
    timings: Mapping[str, object]
    config_fingerprint: str
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "projections": {
                agent.value: {name: value.to_dict() for name, value in features.items()}
                for agent, features in self.projections.items()
            },
            "agent_outputs": [o.to_dict() for o in self.agent_outputs],
            "coordination": None if self.coordination is None else self.coordination.to_dict(),
            "decision": self.decision.to_dict(),
            "timings": dict(self.timings),
            "config_fingerprint": self.config_fingerprint,
            "notes": list(self.notes),
        }


def strip_timings(trace_dict: dict) -> dict:
    """Copy of a serialized trace without its timing fields."""
    out = {k: v for k, v in trace_dict.items() if k != "timings"}
    out["agent_outputs"] = [
        {k: v for k, v in entry.items() if k != "latency_ms"} for entry in out["agent_outputs"]
    ]
    return out


def _ms(start: float, end: float) -> float:
    """Milliseconds between two ``perf_counter`` stamps, rounded once to the microsecond."""
    return round((end - start) * 1000.0, 3)


def run_instance(
    record: AccidentRecord,
    agents: Sequence[Agent],
    cfg: EngineConfig,
    *,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
) -> tuple[FinalDecision, TraceRecord]:
    """Run the full pipeline on one record; each call is a run of its own and makes the run's checks.

    When no agent produces a usable output, the decision is ``abstain()`` and
    the trace's ``coordination`` is None, as ``fuse`` returns them.
    """
    return _prepare(agents, cfg, coordination_backend, coordinator)(record)


def _prepare(
    agents: Sequence[Agent], cfg: EngineConfig, backend: SlmBackend | None, coordinator: Coordinator | None
) -> Callable[[AccidentRecord], tuple[FinalDecision, TraceRecord]]:
    """The function that runs one record through the three stages, its agents in
    agent order, once the run's checks pass: ValueError for no agent, an identity
    that is not a distinct AgentId, or LLM mode with no coordinator. Identities are read once."""
    if not agents:
        raise ValueError("at least one agent must be configured")
    identities = [a.identity() for a in agents]
    if not all(isinstance(i, AgentId) for i in identities) or len(set(identities)) != len(identities):
        raise ValueError(f"agent identities must be distinct AgentIds, got {identities!r}")
    _require_a_coordinator(cfg, backend, coordinator)
    roster = sorted(zip(identities, agents), key=lambda pair: AGENT_ORDER[pair[0]])

    def run(record: AccidentRecord) -> tuple[FinalDecision, TraceRecord]:
        start = time.perf_counter()
        notes: list[str] = []

        # Stage 1: per-agent projections.
        projections = {identity: project(record, identity) for identity, _ in roster}
        stage1_done = time.perf_counter()

        # Stage 2: dispatch all agents, then block until each resolves or its
        # deadline passes. Late results are discarded irrevocably.
        deadline = start + (cfg.agent_timeout_ms + _BARRIER_GRACE_MS) / 1000.0
        outputs, landed = _gather([partial(a.evaluate, projections[i]) for i, a in roster], deadline)
        for n, (identity, _) in enumerate(roster):
            if outputs[n] is _ABANDONED:
                outputs[n] = AgentOutput.failure(identity, "timeout", cfg.agent_timeout_ms + _BARRIER_GRACE_MS)
                notes.append(f"agent {identity.value} abandoned past the barrier deadline")
            elif not isinstance(outputs[n], AgentOutput) or outputs[n].agent is not identity:
                raise AgentContractError(
                    f"agent {identity.value} returned {outputs[n]!r}, not an AgentOutput of its own"
                )
        stage2_done = time.perf_counter()

        # Stage 3: coordination over the surviving outputs, then the cascade.
        timings: dict[str, object] = {
            "stage1_ms": _ms(start, stage1_done),
            "stage2_ms": _ms(stage1_done, stage2_done),
            "stage3_start_ms": _ms(start, stage2_done),
            "agent_completed_ms": {i.value: _ms(start, t) for (i, _), t in zip(roster, landed)},
        }
        coordination, decision = fuse(outputs, cfg, coordination_backend=backend, coordinator=coordinator, notes=notes)
        end = time.perf_counter()
        timings["stage3_ms"] = _ms(stage2_done, end)
        timings["total_ms"] = _ms(start, end)
        return decision, TraceRecord(
            record_id=record.id,
            projections=projections,
            agent_outputs=tuple(outputs),
            coordination=coordination,
            decision=decision,
            timings=timings,
            config_fingerprint=cfg.fingerprint(),
            notes=tuple(notes),
        )

    return run


def _require_a_coordinator(cfg: EngineConfig, backend: SlmBackend | None, coordinator: Coordinator | None) -> None:
    if coordinator is None and cfg.coordination_mode is CoordinationMode.LLM_BASED and backend is None:
        raise ValueError("LLM coordination mode requires a coordination backend")


def fuse(
    outputs: Sequence[AgentOutput],
    cfg: EngineConfig,
    *,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
    notes: list[str] | None = None,
) -> tuple[CoordinationResult | None, FinalDecision]:
    """Stage 3: coordinate the live outputs, in agent order whatever the order
    of ``outputs``, then run the cascade; ``(None, abstain())`` when none is
    live. The rule-based result comes first; when it applies the ML override
    (rule 1) it stands. Else the coordinator, ``coordinator`` or in LLM mode
    the backend's ``coordinate_llm``, runs on the agent pool under its own
    deadline. Its failure kind, or ``"timeout"`` past the deadline (with a
    note in ``notes``), leaves the rule-based result with that ``fallback``.
    Re-fusing a trace's ``agent_outputs`` under the same config and
    coordinator reproduces its coordination and decision. Two live outputs of
    one agent, or a coordinator answer that is neither, raise
    ``AgentContractError``."""
    _require_a_coordinator(cfg, coordination_backend, coordinator)
    live = sorted((o for o in outputs if not o.failed), key=lambda o: AGENT_ORDER[o.agent])
    if not live:
        return None, abstain()
    for a, b in zip(live, live[1:]):
        if a.agent is b.agent:
            raise AgentContractError(f"agent {a.agent.value} has more than one live output: {a!r} and {b!r}")
    coordination = rule_based = coordinate_rb(live, cfg)
    if coordinator is None and cfg.coordination_mode is CoordinationMode.LLM_BASED:
        coordinator = lambda live, cfg: coordinate_llm(live, coordination_backend, cfg)  # noqa: E731
    if coordinator is not None and not rule_based.override_applied:
        deadline = time.perf_counter() + (cfg.agent_timeout_ms + _BARRIER_GRACE_MS) / 1000.0
        [answer], _ = _gather([partial(coordinator, live, cfg)], deadline)
        if answer is _ABANDONED:
            answer = "timeout"
            if notes is not None:
                notes.append("coordinator abandoned past its deadline")
        if not isinstance(answer, CoordinationResult) and answer not in ("timeout", "parse", "transport"):
            raise AgentContractError(f"coordinator returned {answer!r}, not a CoordinationResult or a failure kind")
        coordination = answer if isinstance(answer, CoordinationResult) else replace(rule_based, fallback=answer)
    ml_output = next((o for o in live if o.agent is AgentId.ML), None)
    return coordination, final_decide(ml_output, coordination, rule_based.override_applied, cfg)


def _in_order(fn: Callable[[Any], Any], items: Sequence, max_workers: int) -> Iterator:
    """Yield ``fn`` of each item in input order as soon as it and every
    earlier item are done, or raise the first error in input order; serially
    below 2 workers, else on up to ``max_workers`` threads of this call. Once
    the caller stops, by an error or ``close()``, no further item starts, and
    the threads are joined."""
    if max_workers <= 1:
        yield from map(fn, items)
        return
    indices, replies, done = iter(range(len(items))), queue.SimpleQueue(), {}

    def work() -> None:
        for index in indices:
            try:
                replies.put((index, fn(items[index]), None))
            except BaseException as error:
                replies.put((index, None, error))

    # Threads of this call, not the agent pool: records kept its deep-stack threads alive, raising peak RSS.
    threads = [threading.Thread(target=work, name="marble-record") for _ in range(min(max_workers, len(items)))]
    for thread in threads:
        thread.start()
    try:
        for index in range(len(items)):
            while index not in done:  # a finished item waits in ``done`` for every earlier one
                finished, result, error = replies.get()
                done[finished] = (result, error)
            result, error = done.pop(index)
            if error is not None:
                raise error
            yield result
    finally:
        for _ in indices:  # take every index left, so no thread starts another item
            pass
        for thread in threads:
            thread.join()


def run_instances(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    *,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
    max_workers: int = 1,
) -> list[tuple[FinalDecision, TraceRecord]]:
    """Run every record, preserving input order; each pair is the one
    ``run_instance`` returns for its record. The run's checks run once, even for no record."""
    return list(_in_order(_prepare(agents, cfg, coordination_backend, coordinator), records, max_workers))


def run_batch(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    trace_sink: str | Path,
    *,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
    max_workers: int = 1,
) -> list[FinalDecision]:
    """Batch inference with JSON Lines trace persistence.

    The sink is opened after the run's checks, so a run that cannot
    start leaves an existing file as it was, and before any record runs, so
    an unwritable path fails fast. One trace object per line, in input order, in
    strict JSON (a number that is not finite fails the run); each line is written
    and flushed as soon as its record and every earlier one are done, so a run
    that fails part-way leaves a valid partial file.
    """
    run = _prepare(agents, cfg, coordination_backend, coordinator)
    decisions: list[FinalDecision] = []
    # A lone surrogate (half an emoji pair) in a reply is written as its JSON escape.
    with open(trace_sink, "w", encoding="utf-8", errors="backslashreplace") as sink:
        for decision, trace in _in_order(run, records, max_workers):
            sink.write(json.dumps(trace.to_dict(), ensure_ascii=False, allow_nan=False) + "\n")
            sink.flush()
            decisions.append(decision)
    return decisions
