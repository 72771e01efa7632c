#!/usr/bin/env python3
"""Offline, seeded benchmark of the marble engine.

Run from the repository root; it builds nothing and imports ``src/marble``
and ``tests/synth.py`` from the checkout it sits in:

    python3 bench/run.py --workload batch_fast --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10
    python3 bench/run.py --self-check

``--workload`` names one of the workloads below, or ``all`` to run every
workload in a fresh process of its own and print each metric by workload,
name and unit. ``--seed`` fixes every input: the records, the training set
and the per-call schedule of the simulated backends. ``--seconds`` is how
long the measured jobs run. ``--tiny`` shrinks every input so that a
workload finishes in a second or two. ``--self-check`` runs every workload
at tiny size, untraced and traced, each in its own process, and exits
non-zero unless all of them pass their correctness checks and print every
metric; the benchmark's own tests (``bench/test_bench.py``) use it.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it runs the workload untraced for half of ``--seconds`` and traced for the
other half, reports the per-layer metrics (see ``layers.py``) with the
tracing overhead between the two halves, and writes its spans to
``.bench_work/spans-<workload>-<seed>.jsonl``.

Workloads (``BENCHMARK.json`` lists the two whose timings hold steady from
run to run, with their reasons; the others run by name):

* ``batch_fast``: the CLI ``predict`` path. Each job ingests a CSV and runs
  ``run_batch(max_workers=1)`` with a trained ML agent and four SLM agents
  whose backends reply with clean JSON at once; rule-based coordination.
* ``batch_slow``: ``run_batch(max_workers=8)`` with LLM coordination. Every
  backend call takes 20 ms and follows a seeded mix of clean, prose-wrapped,
  labelled-number and truncated replies, transport errors and stalls past a
  shortened ``agent_timeout_ms``; some coordinator replies are unparseable.
  Its scheduled waits alone would allow about 128 records/s (40 ms per
  record, plus 250 ms for the 8% of records with a stalled agent and the 2%
  with a stalled coordinator); the seed code makes about 107, so engine
  overhead takes a sixth of the time and CPU-side changes show here too.
* ``online_slow``: a closed loop of 2 clients, each calling ``run_instance``
  on the next record and waiting for the reply; 20 ms calls, with about 5%
  of records having one agent at about 100 ms.
* ``eval_sweep``: ``run_ablation`` (5 agents, 7 passes) and then
  ``run_imbalance_suite`` (6 default scenarios, scripted coordinator) on a
  labelled set, with zero latency: 90 agent calls per input record, so
  harness-level reuse shows here while ``batch_fast`` stays flat. Jobs take
  turns over four disjoint slices of the set, so that each job is short and
  ``macro_f1`` covers every slice.

``batch_fast`` and ``eval_sweep`` are not listed in ``BENCHMARK.json``. They
are CPU-bound, and on a shared 2-vCPU machine whose speed drifts by up to
twice over seconds to minutes, their timings spread by 0.1 to 0.47 across
ten runs, beyond the largest bound allowed (0.25); batch_fast, which starts
about seven threads per record, once ran at half speed for two runs in a
row. Run them by name to measure a CPU-side or harness change.

Set-up (config, ingest and training, agents) is timed several times in a
run, spread over the measured window between jobs, and ``setup_s`` is the
median: the machine's speed drifts over seconds, and set-ups timed in one
burst would see only one phase of it.

Every job's outputs are checked against a serial, zero-latency reference
pass made during set-up with the same scheduled outcomes: decisions and
traces (timing fields stripped) must be equal. A record that raised, went
missing or differs counts as failed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it gives a digest of the decisions, to compare two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_fast", "batch_slow", "online_slow", "eval_sweep")
END_TO_END = {
    "records_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sweep_s": "s",
    "macro_f1": "share",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    """Put the checkout's sources first on the path, or stop if they are absent."""
    if not (ROOT / "src" / "marble" / "__init__.py").is_file() or not (ROOT / "tests" / "synth.py").is_file():
        sys.stderr.write(f"bench: no src/marble or tests/synth.py under {ROOT}\n")
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


# ---------------------------------------------------------------------------
# Workload definitions


@dataclass(frozen=True)
class Sizes:
    pool: int  # records per job
    train: int  # training records for the ML agent
    setup_reps: int  # timed set-ups per run
    slices: int = 1  # disjoint pools that the jobs take turns over


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "batch" | "online" | "sweep"
    mode: str  # coordination mode: "rule" | "llm"
    agent_mix: object
    coordinator_mix: object
    full: Sizes
    tiny: Sizes
    workers: int = 1
    timeout_ms: int = 8000
    ingest_in_job: bool = False


def _workloads() -> dict[str, Workload]:
    from simbackend import CLEAN, GARBAGE, JSON, LABELLED, PROSE, STALL, STRAGGLER, TRANSPORT, TRUNCATED, Mix

    slow_agent = Mix({JSON: 0.80, PROSE: 0.07, LABELLED: 0.05, TRUNCATED: 0.03, TRANSPORT: 0.03,
                      STALL: 0.02}, latency_ms=20)
    slow_coordinator = Mix({JSON: 0.85, PROSE: 0.04, GARBAGE: 0.07, TRANSPORT: 0.02, STALL: 0.02},
                           latency_ms=20)
    straggly = Mix({STRAGGLER: 0.05 / 4, JSON: 1 - 0.05 / 4}, latency_ms=20, straggler_ms=100)
    sweep_coordinator = Mix({JSON: 0.92, GARBAGE: 0.08})
    tiny = Sizes(pool=16, train=120, setup_reps=2)
    # Pools are sized so that one job takes 2-4 s on the seed code and about
    # ten jobs fit in a run. Smaller batch_slow jobs spread more, as the pool
    # spends more of each job filling and draining its eight workers. batch_slow's 250 ms deadline is 12 times the call
    # latency, so only the scheduled stalls time out, even on a loaded machine.
    return {
        "batch_fast": Workload("batch_fast", "batch", "rule", CLEAN, CLEAN,
                               Sizes(500, 1000, 36), tiny, ingest_in_job=True),
        "batch_slow": Workload("batch_slow", "batch", "llm", slow_agent, slow_coordinator,
                               Sizes(400, 1000, 36), tiny, workers=8, timeout_ms=250),
        "online_slow": Workload("online_slow", "online", "rule", straggly, CLEAN,
                                Sizes(200, 1000, 36), tiny, workers=2),
        "eval_sweep": Workload("eval_sweep", "sweep", "rule", CLEAN, sweep_coordinator,
                               Sizes(28, 1000, 36, slices=4), Sizes(8, 120, 2, slices=2)),
    }


# ---------------------------------------------------------------------------
# Inputs, set-up and the reference pass


@dataclass
class Inputs:
    pool_csv: Path
    train_csv: Path
    config: Path
    trace_sink: Path


def make_inputs(w: Workload, sizes: Sizes, seed: int, workdir: Path) -> Inputs:
    from inputs import generate_rows, write_csv

    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps({"coordination_mode": w.mode, "agent_timeout_ms": w.timeout_ms}))
    return Inputs(
        pool_csv=write_csv(workdir / "records.csv",
                           generate_rows(sizes.pool * sizes.slices, 2 * seed + 1, "r", sizes.pool)),
        train_csv=write_csv(workdir / "train.csv", generate_rows(sizes.train, 2 * seed + 2, "t")),
        config=config,
        trace_sink=workdir / "traces.jsonl",
    )


@dataclass
class Schedules:
    """The per-call plans of the agents' backends and of the coordinator's."""

    agent: object
    coordinator: object


@dataclass
class System:
    cfg: object
    model: object
    agents: list
    coordination_backend: object
    schedules: Schedules


def build_agents(cfg, model, schedules: Schedules, latency_scale: float, tracer=None):
    """The five agents and the coordination backend, wrapped when traced."""
    from marble.agents import MlAgent, SlmAgent
    from marble.core import SLM_AGENT_IDS
    from simbackend import SimulatedBackend
    from tracing import TracedAgent, TracedBackend

    agents, backends = [MlAgent(model)], []
    for kind in SLM_AGENT_IDS:
        backend = SimulatedBackend(schedules.agent, latency_scale)
        backends.append(backend)
        if tracer is not None:
            backend = TracedBackend(backend, tracer, "agent", kind.value)
        agents.append(SlmAgent(kind, backend, cfg))
    coordination_backend = SimulatedBackend(schedules.coordinator, latency_scale)
    if tracer is not None:
        agents = [TracedAgent(a, tracer) for a in agents]
        coordination_backend = TracedBackend(coordination_backend, tracer, "coordinator")
    return agents, coordination_backend, backends


def set_up(inputs: Inputs, schedules: Schedules) -> tuple[System, float, float]:
    """What a user runs before the first record: config, training, agents."""
    from marble.agents import ml_train
    from marble.core import load_config
    from marble.features import ingest_csv

    start = time.perf_counter()
    cfg = load_config(inputs.config)
    training = ingest_csv(inputs.train_csv)
    train_start = time.perf_counter()
    model = ml_train(training)
    train_s = time.perf_counter() - train_start
    agents, coordination_backend, _ = build_agents(cfg, model, schedules, 1.0)
    setup_s = time.perf_counter() - start
    return System(cfg, model, agents, coordination_backend, schedules), setup_s, train_s


class SetUps:
    """Set-ups timed between the jobs, spread evenly over the measured window.

    After each job, ``due`` runs set-ups until their count keeps pace with
    the share of the window that has passed; ``finish`` tops them up.
    """

    def __init__(self, inputs: Inputs, schedules: Schedules, reps: int, window_s: float):
        self.inputs, self.schedules, self.reps, self.window_s = inputs, schedules, reps, window_s
        self.start = time.perf_counter()
        self.setup_s: list[float] = []
        self.train_s: list[float] = []

    def due(self) -> None:
        self._until(self.reps * min(1.0, (time.perf_counter() - self.start) / self.window_s))

    def finish(self) -> None:
        self._until(self.reps)

    def _until(self, count: float) -> None:
        while len(self.setup_s) < count:
            _, setup_s, train_s = set_up(self.inputs, self.schedules)
            self.setup_s.append(setup_s)
            self.train_s.append(train_s)


def agent_prompts(records) -> dict[str, str]:
    """Each SLM agent prompt the records give rise to, with its record id."""
    from marble.agents import DEFAULT_TEMPLATES, build_prompt
    from marble.core import SLM_AGENT_IDS
    from marble.features import format_features, project

    return {
        build_prompt(DEFAULT_TEMPLATES[agent], format_features(project(record, agent))): record.id
        for record in records
        for agent in SLM_AGENT_IDS
    }


def meta_prompts(records, system: System) -> dict[str, str]:
    """Each coordinator meta-prompt the records give rise to, with its record id.

    The agents are stateless, so evaluating each one on its projection at
    zero latency yields the outputs that the engine will coordinate.
    """
    from marble.coordination import format_meta_prompt
    from marble.features import project

    agents, _, _ = build_agents(system.cfg, system.model, system.schedules, 0.0)
    out = {}
    for record in records:
        live = [o for o in (a.evaluate(project(record, a.identity())) for a in agents) if not o.failed]
        out[format_meta_prompt(live, system.cfg)] = record.id
    return out


def trace_digest(trace_dict: dict) -> bytes:
    """Digest of a serialized trace with its timing fields stripped."""
    from marble.engine import strip_timings

    text = json.dumps(strip_timings(trace_dict), sort_keys=True, ensure_ascii=False)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()


@dataclass
class Reference:
    """What the reference pass decided. Traces are kept as digests, and in
    full only for the traced run, so that the benchmark's own share of the
    process's peak memory stays small."""

    digests: dict  # record id -> trace_digest of its trace
    by_id: dict  # record id -> FinalDecision
    traces: list = field(default_factory=list)  # traced run only: TraceRecords, both modes
    llm_by_id: dict = field(default_factory=dict)  # eval_sweep: LLM-mode decisions
    llm_fallback: dict = field(default_factory=dict)  # eval_sweep: record id -> fell back


@dataclass
class RefResult:
    decision: object
    digest: bytes
    fell_back: bool
    trace: object  # the TraceRecord when kept, else None


def _reference_pass(system: System, records, mode_cfg, problems: list, keep_traces: bool) -> list[RefResult]:
    """Serial, zero-latency run with the same schedule; checks the served mix."""
    from marble.engine import run_instances
    from simbackend import EXPECTED_FAILURE

    agents, coordination_backend, backends = build_agents(mode_cfg, system.model, system.schedules, 0.0)
    results, failures, fallbacks = [], Counter(), Counter()
    for record in records:
        # One record at a time, so that only its digest and decision are kept.
        [(decision, trace)] = run_instances([record], agents, mode_cfg,
                                            coordination_backend=coordination_backend)
        failures.update(o.failure_kind for o in trace.agent_outputs)
        fallback = trace.coordination.fallback if trace.coordination else None
        fallbacks[fallback] += 1
        results.append(RefResult(decision, trace_digest(trace.to_dict()), fallback is not None,
                                 trace if keep_traces else None))

    def scheduled(served):
        return {kind: sum(n for shape, n in served.items() if EXPECTED_FAILURE.get(shape) == kind)
                for kind in ("parse", "transport", "timeout")}

    expected = scheduled(sum((b.served for b in backends), start=Counter()))
    observed = {kind: failures[kind] for kind in expected}
    if expected != observed:
        problems.append(f"agent failures {observed} differ from the scheduled {expected}")
    if mode_cfg.coordination_mode.value == "llm":
        expected = scheduled(coordination_backend.served)
        observed = {kind: fallbacks[kind] for kind in expected}
        if expected != observed:
            problems.append(f"coordinator fallbacks {observed} differ from the scheduled {expected}")
    return results


def make_reference(w: Workload, system: System, records, problems: list, keep_traces: bool) -> Reference:
    from marble.core import CoordinationMode

    rule_cfg = replace(system.cfg, coordination_mode=CoordinationMode.RULE_BASED)
    results = _reference_pass(system, records, system.cfg if w.kind != "sweep" else rule_cfg, problems,
                              keep_traces)
    ref = Reference(
        digests={r.id: x.digest for r, x in zip(records, results)},
        by_id={r.id: x.decision for r, x in zip(records, results)},
        traces=[x.trace for x in results if x.trace is not None],
    )
    if w.kind == "sweep":
        llm_cfg = replace(system.cfg, coordination_mode=CoordinationMode.LLM_BASED)
        llm = _reference_pass(system, records, llm_cfg, problems, keep_traces)
        ref.llm_by_id = {r.id: x.decision for r, x in zip(records, llm)}
        ref.llm_fallback = {r.id: x.fell_back for r, x in zip(records, llm)}
        ref.traces += [x.trace for x in llm if x.trace is not None]
    return ref


# ---------------------------------------------------------------------------
# Jobs and their checks


@dataclass
class Job:
    seconds: float
    passes: int  # record decisions the engine made
    inputs: int  # input records the job was given
    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    digest_items: list = field(default_factory=list)
    llm_fallbacks: tuple[int, int] = (0, 0)  # (fell back, LLM-coordinated)


def _span(tracer, name: str, record: str | None = None):
    return nullcontext() if tracer is None else tracer.span(name, record)


class Runner:
    """Runs and checks the jobs of one workload."""

    def __init__(self, w: Workload, inputs: Inputs, system: System, records, ref: Reference, seed: int,
                 slices: int = 1):
        self.w, self.inputs, self.system, self.records, self.ref, self.seed = w, inputs, system, records, ref, seed
        self.labels = [r.label for r in records]
        size = len(records) // slices
        self.slices = [records[i * size : (i + 1) * size] for i in range(slices)]
        self.jobs_run = 0

    def job(self, agents, coordination_backend, tracer=None) -> Job:
        return getattr(self, f"_{self.w.kind}")(agents, coordination_backend, tracer)

    def _coordinator(self, tracer):
        """In rule mode the traced run passes the default coordinator, wrapped, so
        that coordination shows as a span; in LLM mode its backend's span does."""
        from marble.coordination import coordinate_rb

        if tracer is None or self.w.mode != "rule":
            return None
        return tracer.coordinator(coordinate_rb)

    def _batch(self, agents, coordination_backend, tracer) -> Job:
        from marble.engine import run_batch
        from marble.features import ingest_csv

        cfg = self.system.cfg
        start = time.perf_counter()
        error = None
        try:
            records = self.records
            if self.w.ingest_in_job:
                with _span(tracer, "features.ingest_csv"):
                    records = ingest_csv(self.inputs.pool_csv)
            with _span(tracer, "engine.run_batch"):
                decisions = run_batch(records, agents, cfg, self.inputs.trace_sink,
                                      coordination_backend=coordination_backend,
                                      coordinator=self._coordinator(tracer), max_workers=self.w.workers)
        except Exception as exc:  # a raising job fails all its records
            error, decisions = exc, []
        seconds = time.perf_counter() - start
        job = Job(seconds, len(self.records), len(self.records))
        self._check_batch(job, decisions, error)
        return job

    def _check_batch(self, job: Job, decisions, error) -> None:
        n = len(self.records)
        job.attempted = n
        if error is not None:
            job.failed = n
            return
        bad = fallbacks = 0
        with self.inputs.trace_sink.open(encoding="utf-8") as sink:
            for i, record in enumerate(self.records):
                line = sink.readline()
                if not line or i >= len(decisions):
                    bad += 1
                    continue
                trace = json.loads(line)
                if trace["coordination"] and trace["coordination"]["fallback"] is not None:
                    fallbacks += 1
                same = (trace_digest(trace) == self.ref.digests[record.id]
                        and decisions[i] == self.ref.by_id[record.id])
                bad += not same
        job.failed = bad
        job.decisions = list(decisions)
        job.digest_items = [(r.id, d.to_dict()) for r, d in zip(self.records, decisions)]
        if self.w.mode == "llm":
            job.llm_fallbacks = (fallbacks, n)

    def _online(self, agents, coordination_backend, tracer) -> Job:
        from marble.engine import run_instance

        cfg = self.system.cfg
        coordinator = self._coordinator(tracer)
        pending = iter(self.records)
        lock = threading.Lock()
        results: dict[str, object] = {}
        latencies: list[float] = []

        def client() -> None:
            while True:
                with lock:
                    record = next(pending, None)
                if record is None:
                    return
                begin = time.perf_counter()
                try:
                    with _span(tracer, "engine.run_instance", record.id):
                        results[record.id] = run_instance(record, agents, cfg, coordinator=coordinator)
                except Exception as exc:  # counted as a failed record below
                    results[record.id] = exc
                latencies.append((time.perf_counter() - begin) * 1000.0)

        start = time.perf_counter()
        clients = [threading.Thread(target=client, name=f"bench-client-{i}") for i in range(self.w.workers)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        job = Job(time.perf_counter() - start, len(self.records), len(self.records), latencies_ms=latencies)
        self._check_online(job, results)
        return job

    def _check_online(self, job: Job, results) -> None:
        job.attempted = len(self.records)
        for record in self.records:
            result = results.get(record.id)
            if not isinstance(result, tuple):
                job.failed += 1
                continue
            decision, trace = result
            job.failed += not (decision == self.ref.by_id[record.id]
                               and trace_digest(trace.to_dict()) == self.ref.digests[record.id])
            job.decisions.append(decision)
            job.digest_items.append((record.id, decision.to_dict()))

    def _sweep(self, agents, coordination_backend, tracer) -> Job:
        from marble.harness import run_ablation, run_imbalance_suite

        cfg = self.system.cfg
        pool = self.slices[self.jobs_run % len(self.slices)]
        self.jobs_run += 1
        start = time.perf_counter()
        try:
            with _span(tracer, "harness.run_ablation"):
                reports = run_ablation(pool, agents, cfg)
            with _span(tracer, "harness.run_imbalance_suite"):
                comparisons = run_imbalance_suite(pool, agents, cfg, seed=self.seed,
                                                  coordination_backend=coordination_backend)
            error = None
        except Exception as exc:  # a raising job fails all its records
            error, reports, comparisons = exc, {}, {}
        seconds = time.perf_counter() - start
        n = len(pool)
        # Each scenario resamples n records and runs them in both modes.
        job = Job(seconds, (len(reports) + 2 * len(comparisons)) * n, n)
        self._check_sweep(job, pool, reports, comparisons, error)
        return job

    def _check_sweep(self, job: Job, pool, reports, comparisons, error) -> None:
        from marble.harness import compute_metrics, default_scenarios, sample_imbalance

        n = len(pool)
        scenarios = default_scenarios()
        sampled = {s.name: sample_imbalance(pool, s, self.seed) for s in scenarios}
        job.attempted = n + 2 * sum(len(v) for v in sampled.values())
        if error is not None or len(reports) != 7 or len(comparisons) != len(scenarios):
            job.failed = job.attempted
            return
        ref_decisions = [self.ref.by_id[r.id] for r in pool]
        labels = [r.label for r in pool]
        own_f1 = macro_f1([d.prediction for d in ref_decisions], labels)
        baseline = reports["none"]
        if baseline != compute_metrics(ref_decisions, labels) or abs(baseline.f1 - own_f1) > 1e-9:
            job.failed += n
        if any(sum(map(sum, r.confusion)) + r.abstentions != n for r in reports.values()):
            job.failed += n
        fell_back = 0
        for scenario in scenarios:
            batch = sampled[scenario.name]
            comparison = comparisons.get(scenario.name)
            labels = [r.label for r in batch]
            source = [r.id.split("~")[0] for r in batch]
            rule = compute_metrics([self.ref.by_id[s] for s in source], labels)
            llm = compute_metrics([self.ref.llm_by_id[s] for s in source], labels)
            falls = sum(self.ref.llm_fallback[s] for s in source)
            fell_back += falls
            if comparison is None or comparison.rule_based != rule:
                job.failed += len(batch)
            if (comparison is None or comparison.llm_based != llm
                    or comparison.llm_fallback_rate != falls / len(batch)):
                job.failed += len(batch)
        job.failed = min(job.failed, job.attempted)
        # The decisions on every slice, which the jobs' reports are checked
        # against, so that macro_f1 covers the whole labelled set.
        job.decisions = [self.ref.by_id[r.id] for r in self.records]
        job.digest_items = [(k, r.to_dict()) for k, r in reports.items()] + [
            (k, c.to_dict()) for k, c in comparisons.items()
        ]
        job.llm_fallbacks = (fell_back, sum(len(v) for v in sampled.values()))


def macro_f1(predictions, labels) -> float:
    """Mean over the four classes of per-class F1; abstentions are left out."""
    f1s = []
    pairs = [(p, y) for p, y in zip(predictions, labels) if p is not None]
    for k in (1, 2, 3, 4):
        tp = sum(1 for p, y in pairs if p == k and y == k)
        predicted = sum(1 for p, _ in pairs if p == k)
        support = sum(1 for _, y in pairs if y == k)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(f1s) / 4


def measure(runner: Runner, seconds: float, agents, coordination_backend, setups: SetUps,
            tracer=None) -> list[Job]:
    """Run jobs, and the set-ups due after each, until ``seconds`` have passed; at least one job."""
    jobs: list[Job] = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        with _span(tracer, "job"):
            job = runner.job(agents, coordination_backend, tracer)
        setups.due()
        if jobs:
            # Only the first job's outputs are reported; dropping the rest
            # keeps memory flat however many jobs fit in the time.
            job.decisions, job.digest_items = [], []
        jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# Metrics


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(w: Workload, jobs: list[Job], labels, setup_times) -> dict[str, float]:
    """Every end-to-end metric, on every workload.

    Only online_slow times single records. Elsewhere the latencies are of
    whole jobs (a predict batch or a sweep), so latency_p50_ms and sweep_s
    there are the same median job time that records_per_s is the inverse
    of, and latency_p99_ms over ten-odd jobs is the slowest: they repeat
    one measurement and are no independent evidence.
    """
    rates = [j.passes / j.seconds for j in jobs]
    if w.kind == "online":
        latencies = [x for j in jobs for x in j.latencies_ms]
    else:
        latencies = [j.seconds * 1000.0 for j in jobs]
    f1 = macro_f1([d.prediction for d in jobs[0].decisions], labels)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    return {
        "records_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": _quantile(latencies, 0.99),
        "sweep_s": statistics.median(j.seconds for j in jobs),
        "macro_f1": f1,
        "ok_share": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_tables(records, agent_ids, prompts: dict[str, str]):
    from marble.features import project
    from tracing import Tables, features_key

    by_features = {features_key(project(r, a)): r.id for r in records for a in agent_ids}
    return Tables(by_features=by_features, by_prompt=prompts)


def coordinator_replies(schedule, prompts) -> dict[str, str]:
    """The scheduled coordinator reply to each meta-prompt that returns text."""
    from simbackend import STALL, TRANSPORT

    plans = {prompt: schedule.plan(prompt) for prompt in prompts}
    return {p: plan.text for p, plan in plans.items() if plan.shape not in (STALL, TRANSPORT)}


def scheduled_mix_problems(schedule, spans) -> list[str]:
    """Agent failure kinds seen in the traced phase against the schedule for the same prompts."""
    from simbackend import EXPECTED_FAILURE

    scheduled = Counter(EXPECTED_FAILURE.get(schedule.plan(s.subject).shape)
                        for s in spans if s.name == "backend" and s.attrs["role"] == "agent")
    observed = Counter(s.attrs["output"].failure_kind for s in spans
                       if s.name == "agent" and s.attrs["agent"] != "ml")
    scheduled.pop(None, None)
    observed.pop(None, None)
    if scheduled != observed:
        return [f"traced agent failures {dict(observed)} differ from the schedule {dict(scheduled)}"]
    return []


def traced_phase(w, runner, system, records, ref, inputs, seed, seconds, untraced_jobs, setups, prompts,
                 metas, problems):
    """Run the traced half; return its jobs and what ``layers.compute`` needs, bar the train times."""
    from layers import TracedRun
    from tracing import Tracer, link, write_spans

    from marble.core import AgentId

    agent_ids = list(AgentId)
    tables = trace_tables(records, agent_ids, {**prompts, **metas})
    tracer = Tracer()
    agents, coordination_backend, _ = build_agents(system.cfg, system.model, system.schedules, 1.0, tracer)
    origin = time.perf_counter()
    with tracer.counting_threads():
        jobs = measure(runner, seconds, agents, coordination_backend, setups, tracer)
    link(tracer.spans, tables)
    problems.extend(scheduled_mix_problems(system.schedules.agent, tracer.spans))
    spans_path = ROOT / ".bench_work" / f"spans-{w.name}-{seed}.jsonl"
    write_spans(spans_path, tracer.spans, origin)

    def cost(js):
        return sum(j.seconds for j in js) / sum(j.passes for j in js)

    fell, coordinated = (sum(j.llm_fallbacks[i] for j in jobs) for i in (0, 1))
    run = TracedRun(
        spans=tracer.spans,
        wall_s=sum(j.seconds for j in jobs),
        thread_starts=tracer.thread_starts,
        passes=sum(j.passes for j in jobs),
        input_records=sum(j.inputs for j in jobs),
        cfg=system.cfg,
        records=records,
        agent_ids=agent_ids,
        csv_path=inputs.pool_csv,
        references=ref.traces,
        decisions=jobs[0].decisions,
        labels=runner.labels,
        coordinator_replies=coordinator_replies(system.schedules.coordinator, metas),
        llm_fallback_share=fell / coordinated if coordinated else 0.0,
        train_s=[],
        seed=seed,
        overhead_share=cost(jobs) / cost(untraced_jobs) - 1.0,
    )
    return jobs, run


# ---------------------------------------------------------------------------
# Entry points


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from marble.features import ingest_csv

    from layers import PER_LAYER, compute
    from simbackend import Schedule, SimulatedBackend

    w = _workloads()[name]
    sizes = w.tiny if tiny else w.full
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        inputs = make_inputs(w, sizes, seed, workdir)
        records = ingest_csv(inputs.pool_csv)
        prompts = agent_prompts(records)
        schedules = Schedules(Schedule(seed, "agent", w.agent_mix, prompts),
                              Schedule(seed, "coordinator", w.coordinator_mix))
        # This untimed set-up warms the file cache and the allocator and gives
        # the system the jobs use; the timed ones run between the jobs.
        system = set_up(inputs, schedules)[0]
        # The coordinator's prompts depend on the trained agents' outputs.
        metas = meta_prompts(records, system)
        schedules.coordinator = Schedule(seed, "coordinator", w.coordinator_mix, metas)
        system.coordination_backend = SimulatedBackend(schedules.coordinator)
        if not trace:
            # Only the traced run looks prompts up again; the schedules keep digests.
            prompts = metas = None
        problems: list[str] = []
        ref = make_reference(w, system, records, problems, keep_traces=trace)
        runner = Runner(w, inputs, system, records, ref, seed, sizes.slices)
        setups = SetUps(inputs, schedules, sizes.setup_reps, seconds)
        if trace:
            jobs = measure(runner, seconds / 2, system.agents, system.coordination_backend, setups)
            traced_jobs, traced = traced_phase(w, runner, system, records, ref, inputs, seed,
                                               seconds / 2, jobs, setups, prompts, metas, problems)
            jobs += traced_jobs
        else:
            jobs = measure(runner, seconds, system.agents, system.coordination_backend, setups)
        setups.finish()
        if trace:
            traced.train_s = setups.train_s
            per_layer = compute(traced)
            metrics = {m.name: {"value": per_layer[m.name], "unit": m.unit} for m in PER_LAYER}
        else:
            values = end_to_end(w, jobs, runner.labels, setups.setup_s)
            metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    digest = hashlib.sha256(json.dumps(jobs[0].digest_items, sort_keys=True).encode()).hexdigest()
    for problem in problems:
        print(f"check failed: {problem}")
    return {
        "digest": digest,
        "result": {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def _child(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = _child(name, seed, seconds, trace, tiny)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:36s} {entry['value']:14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def self_check() -> int:
    from layers import PER_LAYER

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = _child(name, 1, 0.5, trace, tiny=True)
            expected = set(END_TO_END) if trace == 0 else {m.name for m in PER_LAYER}
            good = (result is not None and result["correct"] and result["failed"] == 0
                    and set(result["metrics"]) == expected)
            print(f"{name:12s} trace={trace} {'ok' if good else 'FAILED'}")
            ok &= good
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for a quick self-check")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size, untraced and traced")
    args = parser.parse_args(argv)
    _import_program()
    if args.self_check:
        return self_check()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace, args.tiny)
    else:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        result = out["result"]
        for metric, entry in result["metrics"].items():
            print(f"{metric:36s} {entry['value']:14.6g} {entry['unit']}")
        print(f"decisions digest {out['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
