"""Per-layer metrics of the traced run, and the map from each to its layer.

Each metric comes either from the spans and counts of the traced phase or
from re-timing a pure public function of its layer on the inputs that the
run produced. ``PER_LAYER`` names the layer (a module of ``src/marble``),
the end-to-end metrics a change to that layer should move, and the
workloads where the effect shows. Every metric is reported on every
workload; where a layer does not run in a workload, spans give 0 and
re-timed figures still time that layer's function on the workload's inputs.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from marble.agents import DEFAULT_TEMPLATES, ScriptedBackend, build_prompt, parse_response_detailed
from marble.coordination import check_ml_override, coordinate_llm, coordinate_rb, format_meta_prompt
from marble.core import AgentId, EngineConfig
from marble.decision import final_decide
from marble.engine import TraceRecord
from marble.features import AccidentRecord, format_features, ingest_csv, project
from marble.harness import compute_metrics, default_scenarios, sample_imbalance

from tracing import ENTRY_SPANS, Span, instances, self_times


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    layer: str
    moves: str  # the end-to-end metrics a change to the layer should move
    shows_on: str  # the workloads where that shows


_RB = "batch_fast"
PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("features.ingest_rows_per_s", "1/s", "features", "records_per_s, setup_s", _RB),
    LayerMetric("features.project_us", "us", "features", "records_per_s", _RB),
    LayerMetric("ml.train_s", "s", "agents.ml", "setup_s", "all"),
    LayerMetric("ml.evaluate_us", "us", "agents.ml", "records_per_s", _RB),
    LayerMetric("slm.prompt_build_us", "us", "agents.slm", "records_per_s", _RB),
    LayerMetric("slm.parse_us", "us", "agents.slm", "records_per_s",
                "batch_fast (clean JSON) vs batch_slow (messy mix)"),
    LayerMetric("slm.evaluate_self_us", "us", "agents.slm, agents.backends",
                "latency_p50_ms; records_per_s", "online_slow; batch_fast"),
    LayerMetric("backend.calls_per_record", "count", "agents.backends",
                "ok_share, macro_f1", "batch_slow"),
    LayerMetric("backend.failed_share.timeout", "share", "agents.backends",
                "ok_share, macro_f1", "batch_slow"),
    LayerMetric("backend.failed_share.transport", "share", "agents.backends",
                "ok_share, macro_f1", "batch_slow"),
    LayerMetric("backend.failed_share.parse", "share", "agents.backends",
                "ok_share, macro_f1", "batch_slow"),
    LayerMetric("backend.inflight_mean", "count", "engine", "records_per_s", "batch_slow"),
    LayerMetric("backend.wasted_share", "share", "engine", "records_per_s", "batch_slow"),
    LayerMetric("engine.fanout_ms", "ms", "engine", "latency_p50_ms, latency_p99_ms",
                "online_slow"),
    LayerMetric("engine.barrier_wait_ms", "ms", "engine", "latency_p50_ms", "online_slow"),
    LayerMetric("engine.self_us_per_record", "us", "engine", "records_per_s", _RB),
    LayerMetric("engine.threads_started_per_record", "count", "engine", "records_per_s",
                "batch_fast, batch_slow"),
    LayerMetric("engine.trace_serialize_us", "us", "engine", "records_per_s", _RB),
    LayerMetric("engine.trace_bytes", "bytes", "engine", "records_per_s, peak_rss_mb", _RB),
    LayerMetric("core.fingerprint_us", "us", "core", "records_per_s", _RB),
    LayerMetric("coordination.rb_us", "us", "coordination", "records_per_s", _RB),
    LayerMetric("coordination.llm_self_us", "us", "coordination", "records_per_s",
                "batch_slow"),
    LayerMetric("coordination.llm_fallback_share", "share", "coordination",
                "records_per_s", "batch_slow"),
    LayerMetric("decision.final_decide_us", "us", "decision", "records_per_s", _RB),
    LayerMetric("decision.rule_fired_share.1", "share", "decision", "macro_f1", _RB),
    LayerMetric("decision.rule_fired_share.2", "share", "decision", "macro_f1", _RB),
    LayerMetric("decision.rule_fired_share.3", "share", "decision", "macro_f1", _RB),
    LayerMetric("decision.rule_fired_share.4", "share", "decision", "macro_f1", _RB),
    LayerMetric("harness.agent_calls_per_record", "count", "harness", "sweep_s",
                "eval_sweep"),
    LayerMetric("harness.compute_metrics_us", "us", "harness", "sweep_s", "eval_sweep"),
    LayerMetric("harness.sample_imbalance_ms", "ms", "harness", "sweep_s", "eval_sweep"),
    LayerMetric("trace.overhead_share", "share", "the benchmark itself", "none", "all"),
)


@dataclass
class TracedRun:
    """What the traced phase produced, plus the inputs to re-time on."""

    spans: Sequence[Span]
    wall_s: float
    thread_starts: int
    passes: int  # engine instances (record decisions) in the traced phase
    input_records: int  # records fed to the workload's jobs in the traced phase
    cfg: EngineConfig
    records: Sequence[AccidentRecord]
    agent_ids: Sequence[AgentId]
    csv_path: Path
    references: Sequence[TraceRecord]
    decisions: Sequence
    labels: Sequence
    coordinator_replies: dict[str, str]
    llm_fallback_share: float
    train_s: Sequence[float]
    seed: int
    overhead_share: float


def _per_call_us(fn: Callable, args: Sequence, repeat: int = 1) -> float:
    """Microseconds per call of ``fn`` over ``args``, the median of ``repeat`` passes; 0 without args."""
    if not args:
        return 0.0
    per_call = []
    for _ in range(repeat):
        start = time.perf_counter()
        for a in args:
            fn(*a)
        per_call.append((time.perf_counter() - start) / len(args))
    return statistics.median(per_call) * 1e6


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def compute(run: TracedRun) -> dict[str, float]:
    spans = run.spans
    selves = self_times(spans)
    agent_spans = [s for s in spans if s.name == "agent"]
    slm_spans = [s for s in agent_spans if s.attrs["agent"] != AgentId.ML.value]
    ml_spans = [s for s in agent_spans if s.attrs["agent"] == AgentId.ML.value]
    backend_spans = [s for s in spans if s.name == "backend"]
    agent_backend = [s for s in backend_spans if s.attrs["role"] == "agent"]
    passes = max(run.passes, 1)
    out: dict[str, float] = {}

    rows = len(run.records)
    ingest_s = statistics.median(
        _timed(lambda: ingest_csv(run.csv_path)) for _ in range(3)
    )
    out["features.ingest_rows_per_s"] = rows / ingest_s
    out["features.project_us"] = _per_call_us(
        lambda r: [project(r, a) for a in run.agent_ids], [(r,) for r in run.records], 3
    )
    out["ml.train_s"] = statistics.median(run.train_s)
    out["ml.evaluate_us"] = _mean([s.duration for s in ml_spans]) * 1e6

    slm_ids = [a for a in run.agent_ids if a.is_slm]
    projections = [(DEFAULT_TEMPLATES[a], project(r, a)) for r in run.records for a in slm_ids]
    out["slm.prompt_build_us"] = _per_call_us(
        lambda template, features: build_prompt(template, format_features(features)), projections, 3
    )
    replies = [(s.attrs["text"],) for s in agent_backend if s.attrs["outcome"] == "ok"]
    out["slm.parse_us"] = _per_call_us(_parse_total, replies, 3)
    out["slm.evaluate_self_us"] = _mean([selves[s.index] for s in slm_spans]) * 1e6

    out["backend.calls_per_record"] = len(backend_spans) / passes
    kinds = Counter(s.attrs["output"].failure_kind for s in slm_spans)
    for kind in ("timeout", "transport", "parse"):
        out[f"backend.failed_share.{kind}"] = kinds[kind] / len(slm_spans) if slm_spans else 0.0
    out["backend.inflight_mean"] = sum(s.duration for s in backend_spans) / run.wall_s
    returned = [s for s in agent_backend if s.attrs["outcome"] == "ok"]
    wasted = [
        s for s in returned
        if s.parent is None or s.parent.attrs["output"].failure_kind == "timeout"
    ]
    out["backend.wasted_share"] = len(wasted) / len(returned) if returned else 0.0

    groups = instances(spans)
    fanouts = [max(a.end for a in g["agents"]) - min(a.start for a in g["agents"]) for g in groups]
    barriers = [g["coordinator"] - max(a.end for a in g["agents"])
                for g in groups if g["coordinator"] is not None]
    out["engine.fanout_ms"] = _mean(fanouts) * 1e3
    out["engine.barrier_wait_ms"] = _mean(barriers) * 1e3
    entry_self = sum(selves[s.index] for s in spans if s.name in ENTRY_SPANS)
    out["engine.self_us_per_record"] = entry_self / passes * 1e6
    out["engine.threads_started_per_record"] = run.thread_starts / passes
    encoded = [(t,) for t in run.references]
    out["engine.trace_serialize_us"] = _per_call_us(_serialize, encoded, 3)
    out["engine.trace_bytes"] = _mean([len(_serialize(t).encode("utf-8")) for t in run.references])
    out["core.fingerprint_us"] = _per_call_us(run.cfg.fingerprint, [()] * 200, 3)

    lives = [[o for o in t.agent_outputs if not o.failed] for t in run.references]
    out["coordination.rb_us"] = _per_call_us(coordinate_rb, [(live, run.cfg) for live in lives], 3)
    llm_args = []
    for live in lives:
        reply = run.coordinator_replies.get(format_meta_prompt(live, run.cfg))
        if reply is not None:
            llm_args.append((live, ScriptedBackend(reply), run.cfg))
    out["coordination.llm_self_us"] = _per_call_us(coordinate_llm, llm_args, 3)
    out["coordination.llm_fallback_share"] = run.llm_fallback_share

    cascade = []
    for t in run.references:
        live = [o for o in t.agent_outputs if not o.failed]
        if t.coordination is None:
            continue
        ml = next((o for o in live if o.agent is AgentId.ML), None)
        cascade.append((ml, t.coordination, check_ml_override(live, run.cfg), run.cfg))
    out["decision.final_decide_us"] = _per_call_us(final_decide, cascade, 3)
    rules = Counter(d.rule_fired for d in run.decisions)
    for rule in (1, 2, 3, 4):
        out[f"decision.rule_fired_share.{rule}"] = rules[rule] / len(run.decisions)

    out["harness.agent_calls_per_record"] = len(agent_spans) / max(run.input_records, 1)
    out["harness.compute_metrics_us"] = _per_call_us(
        compute_metrics, [(run.decisions, run.labels)] * 20
    )
    scenarios = [(run.records, s, run.seed) for s in default_scenarios()]
    out["harness.sample_imbalance_ms"] = _per_call_us(sample_imbalance, scenarios, 3) / 1e3
    out["trace.overhead_share"] = run.overhead_share
    missing = [m.name for m in PER_LAYER if m.name not in out]
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {missing}")
    return out


def _timed(fn: Callable) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _parse_total(text: str) -> None:
    try:
        parse_response_detailed(text)
    except ValueError:
        pass


def _serialize(trace: TraceRecord) -> str:
    return json.dumps(trace.to_dict(), ensure_ascii=False)
