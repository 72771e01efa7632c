"""The orchestrated three-stage inference protocol and trace persistence.

Stage 1 projects the record per agent, stage 2 dispatches every agent and
blocks until all have resolved (returned or timed out), stage 3, ``fuse``,
coordinates the surviving outputs and runs the final decision cascade. Agents
are stateless; no information flows between them. Every instance leaves a
full trace record.

Agents, and the LLM coordinator call, run on one thread pool shared by every
record, so no record pays for starting threads. Each record has one deadline
for its agents, the barrier; backends bound their own calls (``SlmBackend``).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .agents.base import Agent
from .agents.backends import SlmBackend
from .coordination import CoordinationResult, check_ml_override, coordinate_llm, coordinate_rb
from .core import AGENT_ORDER, AgentId, AgentOutput, CoordinationMode, EngineConfig
from .decision import FinalDecision, abstain, final_decide
from .features import AccidentRecord, FeatureRegistry, FeatureValue, project

# Extra slack granted past the agent timeout before the engine abandons a
# future; covers agents that fail to enforce their own deadline.
_BARRIER_GRACE_MS = 500

# The agent pool shared by every record. It starts no thread until the first
# record, and then one only when none is idle, so the live count follows the
# actual concurrency: eight records in flight with five agents and a
# coordinator call each use 48. The rest of the bound is headroom for workers
# held by calls that overran their deadline, and for more records in flight.
_AGENT_POOL_WORKERS = 64
_AGENT_POOL = ThreadPoolExecutor(max_workers=_AGENT_POOL_WORKERS, thread_name_prefix="marble-agent")

Coordinator = Callable[[Sequence[AgentOutput], EngineConfig], CoordinationResult]


class AllAgentsFailedError(RuntimeError):
    """Every configured agent failed for one record; carries the trace."""

    def __init__(self, record_id: str, trace: "TraceRecord"):
        super().__init__(f"all agents failed for record {record_id!r}")
        self.record_id = record_id
        self.trace = trace


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


def _ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000.0, 3)


def run_instance(
    record: AccidentRecord,
    agents: Sequence[Agent],
    cfg: EngineConfig,
    *,
    registry: FeatureRegistry | None = None,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
) -> tuple[FinalDecision, TraceRecord]:
    """Run the full pipeline on one record.

    Raises AllAgentsFailedError (with the trace attached) when no agent
    produces a usable output.
    """
    if not agents:
        raise ValueError("at least one agent must be configured")
    identities = [a.identity() for a in agents]
    if len(set(identities)) != len(identities):
        raise ValueError("agent identities must be distinct")
    if (
        coordinator is None
        and cfg.coordination_mode is CoordinationMode.LLM_BASED
        and coordination_backend is None
    ):
        raise ValueError("LLM coordination mode requires a coordination backend")

    start = time.perf_counter()
    notes: list[str] = []

    # Stage 1: per-agent projections.
    projections = {identity: project(record, identity, registry) for identity in identities}
    stage1_done = _ms(start)

    # Stage 2: dispatch all agents, then block until each resolves or its
    # deadline passes. Late results are discarded irrevocably.
    completed_at: dict[AgentId, float] = {}

    def run_agent(agent: Agent, identity: AgentId) -> AgentOutput:
        output = agent.evaluate(projections[identity])
        completed_at[identity] = _ms(start)
        return output

    outputs: list[AgentOutput] = []
    futures = [
        (identity, _AGENT_POOL.submit(run_agent, agent, identity))
        for agent, identity in zip(agents, identities)
    ]
    deadline = start + (cfg.agent_timeout_ms + _BARRIER_GRACE_MS) / 1000.0
    for identity, future in futures:
        remaining = max(0.0, deadline - time.perf_counter())
        try:
            outputs.append(future.result(timeout=remaining))
        except FutureTimeoutError:
            future.cancel()
            completed_at[identity] = _ms(start)
            outputs.append(AgentOutput.failure(identity, "timeout", cfg.agent_timeout_ms + _BARRIER_GRACE_MS))
            notes.append(f"agent {identity.value} abandoned past the barrier deadline")
    outputs.sort(key=lambda o: AGENT_ORDER[o.agent])
    stage2_done = _ms(start)

    # Stage 3: coordination over the surviving outputs, then the cascade.
    stage3_start = _ms(start)
    timings: dict[str, object] = {
        "stage1_ms": stage1_done,
        "stage2_ms": stage2_done - stage1_done,
        "stage3_start_ms": stage3_start,
        "agent_completed_ms": {a.value: t for a, t in sorted(completed_at.items(), key=lambda kv: AGENT_ORDER[kv[0]])},
    }
    coordination, decision = fuse(
        outputs, cfg, coordination_backend=coordination_backend, coordinator=coordinator, notes=notes
    )
    timings["stage3_ms"] = _ms(start) - stage3_start
    timings["total_ms"] = _ms(start)
    trace = TraceRecord(
        record_id=record.id,
        projections=projections,
        agent_outputs=tuple(outputs),
        coordination=coordination,
        decision=decision,
        timings=timings,
        config_fingerprint=cfg.fingerprint(),
        notes=tuple(notes),
    )
    if coordination is None:
        raise AllAgentsFailedError(record.id, trace)
    return decision, trace


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
    live. An LLM coordinator call runs on the agent pool under its own
    deadline, past which the rule-based result stands with
    ``fallback="timeout"`` and a note goes to ``notes``. Under the same config
    and coordinator, re-fusing a trace's ``agent_outputs`` reproduces its
    coordination and decision."""
    live = sorted((o for o in outputs if not o.failed), key=lambda o: AGENT_ORDER[o.agent])
    if not live:
        return None, abstain()
    if coordinator is not None:
        coordination = coordinator(live, cfg)
    elif cfg.coordination_mode is CoordinationMode.LLM_BASED:
        future = _AGENT_POOL.submit(coordinate_llm, live, coordination_backend, cfg)
        try:
            coordination = future.result(timeout=(cfg.agent_timeout_ms + _BARRIER_GRACE_MS) / 1000.0)
        except FutureTimeoutError:
            future.cancel()
            coordination = replace(coordinate_rb(live, cfg), fallback="timeout")
            if notes is not None:
                notes.append("coordinator abandoned past its deadline")
    else:
        coordination = coordinate_rb(live, cfg)
    ml_output = next((o for o in live if o.agent is AgentId.ML), None)
    return coordination, final_decide(ml_output, coordination, check_ml_override(live, cfg), cfg)


def _iter_instances(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    max_workers: int,
    **options,
) -> Iterator[tuple[FinalDecision, TraceRecord]]:
    """Yield each record's result in input order as soon as it and every
    earlier record are done; ``options`` go to ``run_instance``."""

    def one(record: AccidentRecord) -> tuple[FinalDecision, TraceRecord]:
        try:
            return run_instance(record, agents, cfg, **options)
        except AllAgentsFailedError as err:
            return err.trace.decision, err.trace

    if max_workers <= 1:
        yield from map(one, records)
        return
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        yield from pool.map(one, records)


def run_instances(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    *,
    registry: FeatureRegistry | None = None,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
    max_workers: int = 1,
) -> list[tuple[FinalDecision, TraceRecord]]:
    """Run every record, preserving input order; all-failed records become
    abstentions rather than errors."""
    options = dict(registry=registry, coordination_backend=coordination_backend, coordinator=coordinator)
    return list(_iter_instances(records, agents, cfg, max_workers, **options))


def run_batch(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    trace_sink: str | Path,
    *,
    registry: FeatureRegistry | None = None,
    coordination_backend: SlmBackend | None = None,
    coordinator: Coordinator | None = None,
    max_workers: int = 1,
) -> list[FinalDecision]:
    """Batch inference with JSON Lines trace persistence.

    The sink is opened before any record is processed, so an unwritable
    path fails fast. One trace object per line, in input order; each line
    is written and flushed as soon as its record and every earlier one are
    done, so a run that fails part-way leaves a valid partial file.
    """
    options = dict(registry=registry, coordination_backend=coordination_backend, coordinator=coordinator)
    decisions: list[FinalDecision] = []
    with open(trace_sink, "w", encoding="utf-8") as sink:
        for decision, trace in _iter_instances(records, agents, cfg, max_workers, **options):
            sink.write(json.dumps(trace.to_dict(), ensure_ascii=False) + "\n")
            sink.flush()
            decisions.append(decision)
    return decisions
