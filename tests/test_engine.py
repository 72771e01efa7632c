from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import marble.coordination
import marble.engine
import synth
from marble.agents import BackendTimeoutError, ScriptedBackend, SlmAgent, TransportError
from marble.coordination import CoordinationResult, coordinate_rb, format_meta_prompt
from marble.core import AgentId, AgentOutput, CoordinationMode, EngineConfig, Severity, from_json_value, validate_config
from marble.decision import DecisionSource, FinalDecision, final_decide
from marble.engine import (
    AgentContractError,
    TraceRecord,
    fuse,
    run_batch,
    run_instance,
    run_instances,
    strip_timings,
)
from marble.features import AccidentRecord, FeatureValue
from synth import ScriptedAgent

SLM_KINDS = (AgentId.ENVIRONMENTAL, AgentId.INFRASTRUCTURAL, AgentId.SPATIAL, AgentId.TEMPORAL)


def record(rec_id: str = "r1", label: int | None = None) -> AccidentRecord:
    return AccidentRecord(
        id=rec_id,
        features={"Weather Conditions": FeatureValue.categorical("Rain")},
        label=None if label is None else Severity(label),
    )


def payload(severity: int, confidence: float) -> str:
    return json.dumps({"severity": severity, "confidence": confidence, "reasoning": "scripted"})


def unanimous_agents(cfg: EngineConfig, confidence: float) -> list:
    agents = [ScriptedAgent(AgentId.ML, prediction=3, confidence=confidence)]
    for kind in SLM_KINDS:
        agents.append(SlmAgent(kind, ScriptedBackend(payload(3, confidence)), cfg))
    return agents


# Runs that cannot start: the message each raises, its agents, and its coordination mode.
UNSTARTABLE = {
    "no agent": ("at least one agent", lambda cfg: [], "rule"),
    "two of one identity": ("distinct", lambda cfg: [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6)] * 2, "rule"),
    "llm mode without a coordinator": ("coordination backend", lambda cfg: unanimous_agents(cfg, 0.7), "llm"),
}


class TestRunInstance:
    def test_unanimous_high_confidence_takes_the_override(self, cfg):
        decision, trace = run_instance(record(), unanimous_agents(cfg, 0.9), cfg)
        assert int(decision.prediction) == 3
        assert decision.rule_fired == 1
        assert trace.coordination.override_applied
        assert decision.confidence == pytest.approx(0.9)

    def test_unanimous_moderate_confidence_rides_the_vote(self, cfg):
        decision, trace = run_instance(record(), unanimous_agents(cfg, 0.7), cfg)
        assert int(decision.prediction) == 3
        assert decision.rule_fired == 2
        assert decision.source is DecisionSource.COORDINATOR
        # weighted mean 0.7 plus the 0.05 common-class agreement boost
        assert decision.confidence == pytest.approx(0.75)
        assert not trace.coordination.override_applied

    def test_trace_covers_every_configured_agent(self, cfg):
        _, trace = run_instance(record(), unanimous_agents(cfg, 0.7), cfg)
        assert len(trace.agent_outputs) == 5
        assert [o.agent for o in trace.agent_outputs] == list(AgentId)
        assert set(trace.projections) == set(AgentId)
        assert trace.config_fingerprint == cfg.fingerprint()

    def test_timed_out_agent_is_excluded(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=150)
        agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6)]
        for kind in SLM_KINDS:
            delay = 500 if kind is AgentId.ENVIRONMENTAL else 0
            agents.append(
                SlmAgent(kind, synth.FakeBackend(payload(2, 0.6), delay_ms=delay), fast_cfg)
            )
        decision, trace = run_instance(record(), agents, fast_cfg)
        by_agent = {o.agent: o for o in trace.agent_outputs}
        assert by_agent[AgentId.ENVIRONMENTAL].failed
        assert by_agent[AgentId.ENVIRONMENTAL].failure_kind == "timeout"
        live = [o for o in trace.agent_outputs if not o.failed]
        assert len(live) == 4
        assert int(decision.prediction) == 2

    def test_all_agents_failing_abstains_with_trace(self, cfg):
        agents = [ScriptedAgent(kind, lambda features: None) for kind in SLM_KINDS]
        decision, trace = run_instance(record("doomed"), agents, cfg)
        assert trace.record_id == "doomed"
        assert all(o.failed for o in trace.agent_outputs)
        assert decision.abstained and decision == trace.decision and trace.coordination is None
        [(batch_decision, batch_trace)] = run_instances([record("doomed")], agents, cfg)
        assert batch_decision == decision
        assert strip_timings(batch_trace.to_dict()) == strip_timings(trace.to_dict())
        assert fuse(trace.agent_outputs, cfg) == (None, decision)

    def test_rogue_agent_is_abandoned_at_the_barrier(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=100)

        class SleepyAgent:
            def identity(self):
                return AgentId.SPATIAL

            def evaluate(self, features):
                time.sleep(1.5)
                return AgentOutput(
                    agent=AgentId.SPATIAL, prediction=Severity(1), confidence=0.9
                )

        agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), SleepyAgent()]
        start = time.perf_counter()
        decision, trace = run_instance(record(), agents, fast_cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.4  # returned before the rogue agent woke up
        by_agent = {o.agent: o for o in trace.agent_outputs}
        assert by_agent[AgentId.SPATIAL].failed
        assert by_agent[AgentId.SPATIAL].failure_kind == "timeout"
        assert int(decision.prediction) == 2

    def test_an_abandoned_agent_is_stamped_at_the_barrier_deadline(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=100)
        sleeper = ScriptedAgent(AgentId.SPATIAL, lambda features: time.sleep(1.0) or (1, 0.9))
        _, trace = run_instance(record(), [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), sleeper], fast_cfg)
        completed = trace.timings["agent_completed_ms"]
        assert completed["spatial"] == fast_cfg.agent_timeout_ms + 500
        assert completed["ml"] < completed["spatial"] <= trace.timings["stage3_start_ms"]

    def test_one_rogue_agent_does_not_stall_the_next_record(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=100)
        rogue = ScriptedAgent(AgentId.SPATIAL, lambda features: time.sleep(1.5) or (1, 0.9))
        run_instance(record(), [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), rogue], fast_cfg)
        start = time.perf_counter()
        decision, _ = run_instance(record("next"), unanimous_agents(fast_cfg, 0.7), fast_cfg)
        assert time.perf_counter() - start < 0.3  # the rogue agent is still asleep
        assert int(decision.prediction) == 3

    def test_agents_of_many_records_in_flight_never_queue_past_the_barrier(self, cfg):
        # 64 records at once, each with four 300 ms model calls: a pool capped
        # at 64 workers queues them, and the queued ones miss their barrier.
        # The first pass warms the pool, so a loaded machine's thread start-up
        # does not count against the second.
        slow_cfg = dataclasses.replace(cfg, agent_timeout_ms=400)
        agents = [ScriptedAgent(AgentId.ML, prediction=3, confidence=0.7)]
        agents += [SlmAgent(kind, synth.FakeBackend(payload(3, 0.7), delay_ms=300), slow_cfg) for kind in SLM_KINDS]
        records = [record(f"q{i}") for i in range(128)]
        run_instances(records, agents, slow_cfg, max_workers=64)
        results = run_instances(records, agents, slow_cfg, max_workers=64)
        assert sum(o.failed for _, t in results for o in t.agent_outputs) == 0
        assert [n for _, t in results for n in t.notes if "abandoned" in n] == []

    def test_calls_that_overran_their_deadline_do_not_starve_the_next_record(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=100)
        rogue = ScriptedAgent(AgentId.SPATIAL, lambda features: time.sleep(2.0) or (1, 0.9))
        agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), rogue]
        run_instances([record(f"r{i}") for i in range(70)], agents, fast_cfg, max_workers=70)
        _, trace = run_instance(record("next"), unanimous_agents(fast_cfg, 0.7), fast_cfg)
        assert [o.agent for o in trace.agent_outputs if o.failed] == []

    def test_coordinator_backend_ignoring_its_timeout_falls_back(self, cfg):
        llm_cfg = dataclasses.replace(
            cfg, agent_timeout_ms=100, coordination_mode=CoordinationMode.LLM_BASED
        )

        class DeafBackend:
            def complete(self, prompt, decoding, timeout_ms):
                time.sleep(1.5)
                return payload(1, 0.9)

        start = time.perf_counter()
        decision, trace = run_instance(
            record(), unanimous_agents(llm_cfg, 0.7), llm_cfg, coordination_backend=DeafBackend()
        )
        assert time.perf_counter() - start < 1.2
        assert trace.coordination.fallback == "timeout"
        assert int(decision.prediction) == 3
        assert "coordinator abandoned past its deadline" in trace.notes

    @pytest.mark.parametrize("mode", list(CoordinationMode))
    def test_no_thread_starts_after_warm_up(self, cfg, monkeypatch, mode):
        # At ML confidence 0.7, below tau_ml_high, LLM mode asks its
        # coordinator on the agent threads too.
        cfg = dataclasses.replace(cfg, coordination_mode=mode)
        backend = ScriptedBackend(payload(3, 0.7))
        records = [record(f"t{i}") for i in range(20)]
        agents = unanimous_agents(cfg, 0.7)
        run_instances(records, agents, cfg, coordination_backend=backend)
        started = []
        original = threading.Thread.start

        def counting_start(thread, *args, **kwargs):
            started.append(thread.name)
            return original(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        results = run_instances(records, agents, cfg, coordination_backend=backend)
        assert len(results) == 20
        assert {trace.coordination.method for _, trace in results} == {mode}
        assert started == []

    def test_concurrent_records_start_no_more_agent_threads_than_calls_in_flight(self, cfg, monkeypatch):
        # 8 records at once with 5 agents each keep at most 40 calls in flight,
        # so a lost or doubled idle count shows as a 41st start or a lost call.
        records = [record(f"c{i}") for i in range(200)]
        agents = unanimous_agents(cfg, 0.7)
        [(expected, _)] = run_instances(records[:1], agents, cfg)
        started = []
        original = threading.Thread.start

        def counting_start(thread, *args, **kwargs):
            started.append(thread.name)
            return original(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = run_instances(records, agents, cfg, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert started.count("marble-agent") <= 40
        assert [d for d, _ in results] == [expected] * 200
        assert all([o.agent for o in t.agent_outputs if not o.failed] == list(AgentId) for _, t in results)

    def test_the_first_agent_to_raise_in_agent_order_raises_from_run_instance(self, cfg):
        first, second = RuntimeError("first"), RuntimeError("second")

        def raising(error: Exception, delay_s: float):
            def responder(features):
                time.sleep(delay_s)
                raise error

            return responder

        ml = ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6)
        with pytest.raises(RuntimeError) as caught:
            run_instance(record(), [ml, ScriptedAgent(AgentId.SPATIAL, raising(first, 0.0))], cfg)
        assert caught.value is first
        # The later agent raises first; the earlier one's exception still wins.
        agents = [
            ml,
            ScriptedAgent(AgentId.ENVIRONMENTAL, raising(first, 0.05)),
            ScriptedAgent(AgentId.TEMPORAL, raising(second, 0.0)),
        ]
        with pytest.raises(RuntimeError) as caught:
            run_instance(record(), agents, cfg)
        assert caught.value is first

    def test_stage3_starts_after_every_surviving_agent(self, cfg):
        _, trace = run_instance(record(), unanimous_agents(cfg, 0.7), cfg)
        completed = trace.timings["agent_completed_ms"]
        live = [o.agent.value for o in trace.agent_outputs if not o.failed]
        assert trace.timings["stage3_start_ms"] >= max(completed[a] for a in live)

    def test_duplicate_agent_identities_rejected(self, cfg):
        agents = [
            ScriptedAgent(AgentId.SPATIAL, prediction=1, confidence=0.5),
            ScriptedAgent(AgentId.SPATIAL, prediction=2, confidence=0.5),
        ]
        with pytest.raises(ValueError, match="distinct"):
            run_instance(record(), agents, cfg)

    def test_an_agent_that_answers_for_another_agent_breaks_its_contract(self, cfg):
        impostor = ScriptedAgent(AgentId.SPATIAL, lambda features: AgentOutput(AgentId.TEMPORAL, Severity(2), 0.6))
        agents = [
            ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6),
            impostor,
            ScriptedAgent(AgentId.TEMPORAL, prediction=2, confidence=0.6),
        ]
        with pytest.raises(AgentContractError, match=r"agent spatial returned AgentOutput\(agent=<AgentId.TEMPORAL"):
            run_instance(record(), agents, cfg)

    def test_an_agent_that_returns_no_output_breaks_its_contract(self, cfg):
        class Silent:
            def identity(self):
                return AgentId.SPATIAL

            def evaluate(self, features):
                return None

        agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), Silent()]
        with pytest.raises(AgentContractError, match="agent spatial returned None"):
            run_instance(record(), agents, cfg)

    def test_llm_mode_requires_backend(self, cfg):
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        with pytest.raises(ValueError, match="coordination backend"):
            run_instance(record(), unanimous_agents(cfg, 0.7), llm_cfg)


class TestBackendContract:
    def test_scripted_delay_past_the_deadline_times_out_at_the_deadline(self, cfg):
        backend = synth.FakeBackend(payload(2, 0.6), delay_ms=2000)
        start = time.perf_counter()
        with pytest.raises(BackendTimeoutError):
            backend.complete("prompt", cfg.decoding, 150)
        assert 0.14 <= time.perf_counter() - start < 0.6


def poisoned_agents(cfg: EngineConfig) -> list:
    # Agents that fail only for records carrying the "poison" token.
    def ml_responder(features):
        if features["Weather Conditions"].text == "poison":
            return None
        return 2, 0.6

    script = {
        ": poison": "cannot comply",
        "": payload(2, 0.6),
    }
    agents = [ScriptedAgent(AgentId.ML, ml_responder)]
    for kind in SLM_KINDS:
        agents.append(SlmAgent(kind, ScriptedBackend(dict(script)), cfg))
    return agents


def weather_record(rec_id: str, token: str) -> AccidentRecord:
    # One feature per SLM domain so every agent sees the token.
    names = ("Weather Conditions", "Day of Week", "Road Type", "Point of Impact")
    return AccidentRecord(
        id=rec_id,
        features={name: FeatureValue.categorical(token) for name in names},
        label=Severity(2),
    )


class TestRunBatch:
    def test_order_preserved_under_parallelism(self, cfg, tmp_path):
        records = [record(f"r{i}") for i in range(10)]
        sink = tmp_path / "trace.jsonl"
        decisions = run_batch(
            records, unanimous_agents(cfg, 0.7), cfg, sink, max_workers=4
        )
        assert len(decisions) == 10
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["record_id"] for line in lines] == [f"r{i}" for i in range(10)]

    def test_unwritable_sink_fails_before_processing(self, cfg, tmp_path):
        calls = {"n": 0}

        def counting(features):
            calls["n"] += 1
            return 2, 0.6

        agents = [ScriptedAgent(AgentId.ML, counting)]
        with pytest.raises(OSError):
            run_batch([record()], agents, cfg, tmp_path / "absent-dir" / "trace.jsonl")
        assert calls["n"] == 0

    @pytest.mark.parametrize("case", UNSTARTABLE)
    def test_a_run_that_cannot_start_leaves_an_existing_trace_file_as_it_was(self, cfg, tmp_path, case):
        message, agents, mode = UNSTARTABLE[case]
        agents, run_cfg = agents(cfg), dataclasses.replace(cfg, coordination_mode=CoordinationMode(mode))
        sink = tmp_path / "trace.jsonl"
        sink.write_text("an earlier run's trace\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            run_batch([record()], agents, run_cfg, sink, max_workers=2)
        assert sink.read_text(encoding="utf-8") == "an earlier run's trace\n"

    def test_all_failed_record_becomes_abstention(self, cfg, tmp_path):
        records = [weather_record(f"w{i}", "Rain") for i in range(4)]
        records.insert(2, weather_record("bad", "poison"))
        sink = tmp_path / "trace.jsonl"
        decisions = run_batch(records, poisoned_agents(cfg), cfg, sink)
        assert len(decisions) == 5
        assert decisions[2].abstained
        assert sum(1 for d in decisions if not d.abstained) == 4
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5
        abstained_line = json.loads(lines[2])
        assert abstained_line["decision"]["prediction"] is None
        assert abstained_line["coordination"] is None

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_failure_at_record_k_leaves_k_trace_lines(self, cfg, tmp_path, max_workers):
        k = 3

        # The ML agent reads the record's index from its weather feature and
        # reports it in its confidence, so the coordinator knows the record.
        def index_of(confidence: float) -> int:
            return round(confidence * 100) - 50

        def coordinator(outputs, cfg):
            if index_of(outputs[0].confidence) == k:
                raise RuntimeError("coordinator failed")
            return coordinate_rb(outputs, cfg)

        records = [weather_record(f"s{i}", str(i)) for i in range(8)]
        agents = [
            ScriptedAgent(
                AgentId.ML, lambda features: (2, 0.5 + int(features["Weather Conditions"].text) / 100)
            )
        ]
        sink = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="coordinator failed"):
            run_batch(records, agents, cfg, sink, coordinator=coordinator, max_workers=max_workers)
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["record_id"] for line in lines] == [f"s{i}" for i in range(k)]

    def test_a_backend_reply_that_is_not_text_is_a_parse_failure(self, tmp_path):
        cfg = validate_config(EngineConfig(coordination_mode=CoordinationMode.LLM_BASED))
        silent = synth.FakeBackend(lambda prompt: None)
        agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), SlmAgent(AgentId.SPATIAL, silent, cfg)]
        sink = tmp_path / "trace.jsonl"
        decisions = run_batch([record(f"n{i}") for i in range(3)], agents, cfg, sink, coordination_backend=silent)
        lines = [json.loads(line) for line in sink.read_text(encoding="utf-8").splitlines()]
        assert len(decisions) == len(lines) == 3
        for line in lines:
            assert [o["failure_kind"] for o in line["agent_outputs"]] == [None, "parse"]
            assert line["coordination"]["fallback"] == "parse"

    def test_a_lone_surrogate_in_a_reply_is_written_and_reads_back(self, tmp_path):
        # Half of an emoji's surrogate pair, as a model that splits the pair sends it.
        reply = '{"severity": 2, "confidence": 0.7, "reasoning": "bad \\ud800 text"}'
        cfg = validate_config(EngineConfig(coordination_mode=CoordinationMode.LLM_BASED))
        backend = ScriptedBackend(reply)
        agents = [ScriptedAgent(AgentId.ML, prediction=3, confidence=0.5), SlmAgent(AgentId.SPATIAL, backend, cfg)]
        sink = tmp_path / "trace.jsonl"
        decisions = run_batch([record(f"u{i}") for i in range(3)], agents, cfg, sink, coordination_backend=backend)
        lines = [json.loads(line) for line in sink.read_text(encoding="utf-8").splitlines()]
        assert len(decisions) == len(lines) == 3
        for line in lines:
            assert line["agent_outputs"][1]["reasoning"] == "bad \ud800 text"
            assert line["coordination"]["reasoning"] == "bad \ud800 text"

    def test_traces_are_deterministic_modulo_timings(self, cfg, tmp_path):
        records = [record(f"d{i}") for i in range(5)]
        first = run_instances(records, unanimous_agents(cfg, 0.7), cfg)
        second = run_instances(records, unanimous_agents(cfg, 0.7), cfg, max_workers=3)
        for (_, trace_a), (_, trace_b) in zip(first, second):
            a = json.dumps(strip_timings(trace_a.to_dict()), sort_keys=True)
            b = json.dumps(strip_timings(trace_b.to_dict()), sort_keys=True)
            assert a == b


def record_threads() -> list[threading.Thread]:
    return [thread for thread in threading.enumerate() if thread.name == "marble-record"]


def indexed_agent(respond) -> ScriptedAgent:
    """An ML agent that passes ``respond`` the index ``weather_record`` gave its record as token."""
    return ScriptedAgent(AgentId.ML, lambda features: respond(int(features["Weather Conditions"].text)))


class TestRecordThreads:
    def test_a_call_starts_one_record_thread_per_record_up_to_max_workers(self, cfg, monkeypatch):
        started = []
        original = threading.Thread.start

        def counting_start(thread, *args, **kwargs):
            started.append(thread.name)
            return original(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        agents = unanimous_agents(cfg, 0.7)
        for count, max_workers in ((3, 8), (20, 4)):
            started.clear()
            run_instances([record(f"n{i}") for i in range(count)], agents, cfg, max_workers=max_workers)
            assert started.count("marble-record") == min(count, max_workers)
        assert not record_threads()

    @pytest.mark.parametrize("case", UNSTARTABLE)
    def test_a_run_that_cannot_start_raises_even_with_no_record(self, cfg, case):
        message, agents, mode = UNSTARTABLE[case]
        agents, run_cfg = agents(cfg), dataclasses.replace(cfg, coordination_mode=CoordinationMode(mode))
        with pytest.raises(ValueError, match=message):
            run_instances([], agents, run_cfg)
        with pytest.raises(ValueError, match=message):
            run_batch([], agents, run_cfg, os.devnull)

    def test_results_come_back_in_input_order_when_later_records_finish_first(self, cfg):
        finished = []

        def respond(index: int):
            time.sleep((8 - index) * 0.03)
            finished.append(index)
            return 2, 0.6

        records = [weather_record(f"o{i}", str(i)) for i in range(8)]
        results = run_instances(records, [indexed_agent(respond)], cfg, max_workers=8)
        assert [trace.record_id for _, trace in results] == [r.id for r in records]
        assert finished[0] != 0 and sorted(finished) == list(range(8))
        assert not record_threads()

    def test_the_earliest_failing_record_in_input_order_raises(self, cfg, tmp_path):
        # Record 5 fails at once; record 2 fails only after every later record is done.
        def respond(index: int):
            if index == 2:
                time.sleep(0.3)
            if index in (2, 5):
                raise RuntimeError(f"record {index}")
            return 2, 0.6

        records = [weather_record(f"e{i}", str(i)) for i in range(8)]
        sink = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="^record 2$"):
            run_batch(records, [indexed_agent(respond)], cfg, sink, max_workers=4)
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["record_id"] for line in lines] == ["e0", "e1"]
        assert not record_threads()

    def test_record_threads_run_every_record_once_under_rapid_switching(self, cfg):
        # More record threads than cores take indices from one iterator; a
        # record taken twice or lost shows in the counts or the order.
        runs = []

        def respond(index: int):
            runs.append(index)
            return 1 + index % 4, 0.6

        records = [weather_record(f"x{i}", str(i)) for i in range(300)]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: results.extend(run_instances(records, [indexed_agent(respond)], cfg, max_workers=16))
            )
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert sorted(runs) == list(range(300))
        assert [trace.record_id for _, trace in results] == [r.id for r in records]
        assert [int(d.prediction) for d, _ in results] == [1 + i % 4 for i in range(300)]
        assert not record_threads()

    def test_closing_the_results_early_starts_no_further_record(self, cfg):
        started = []

        def respond(index: int):
            started.append(index)
            time.sleep(0.005)
            return 2, 0.6

        records = [weather_record(f"c{i}", str(i)) for i in range(200)]
        results = marble.engine._iter_instances(records, [indexed_agent(respond)], cfg, 4)
        next(results)
        results.close()
        assert not record_threads()
        count = len(started)
        time.sleep(0.05)
        assert len(started) == count < 100


def mixed_agents(cfg: EngineConfig) -> list:
    """Agents whose verdicts and failures vary with the record's token; every
    agent fails on "poison"."""
    rng = random.Random(11)
    tokens = [f"t{i}" for i in range(12)]

    def verdict() -> tuple[int, float] | None:
        return None if rng.random() < 0.25 else (rng.randint(1, 4), rng.choice([0.3, 0.6, 0.78, 0.9]))

    ml_table = {token: verdict() for token in tokens}
    agents = [ScriptedAgent(AgentId.ML, lambda features: ml_table.get(features["Weather Conditions"].text))]
    for kind in SLM_KINDS:
        script = {": poison": "cannot comply"}
        for token in tokens:
            answer = verdict()
            script[f": {token}\n"] = "cannot comply" if answer is None else payload(*answer)
        agents.append(SlmAgent(kind, ScriptedBackend(script), cfg))
    return agents


class TestAgentThreads:
    """The agent threads in a fresh interpreter, seen from outside it."""

    @staticmethod
    def run_python(code: str) -> subprocess.CompletedProcess:
        src = str(Path(marble.engine.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)

    def test_importing_marble_loads_no_executor_and_no_logging(self):
        probe = "import sys, marble; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        assert self.run_python(probe).stdout.strip() == "[]"
        batch = textwrap.dedent(
            """
            import sys, tempfile
            from pathlib import Path
            from marble.core import AgentId, EngineConfig, validate_config
            from marble.engine import run_batch
            from marble.features import AccidentRecord
            from synth import ScriptedAgent

            records = [AccidentRecord(id=f"r{i}", features={}) for i in range(8)]
            agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6)]
            with tempfile.TemporaryDirectory() as tmp:
                run_batch(records, agents, validate_config(EngineConfig()), Path(tmp) / "t.jsonl", max_workers=4)
            print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))
            """
        )
        assert self.run_python(batch).stdout.strip() == "[]"

    def test_an_abandoned_agent_does_not_hold_the_process_open(self):
        script = textwrap.dedent(
            """
            import time
            from marble.core import AgentId, EngineConfig, validate_config
            from marble.engine import run_instance
            from marble.features import AccidentRecord
            from synth import ScriptedAgent

            cfg = validate_config(EngineConfig(agent_timeout_ms=100))
            sleeper = ScriptedAgent(AgentId.SPATIAL, lambda features: time.sleep(3.0) or (1, 0.9))
            agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6), sleeper]
            _, trace = run_instance(AccidentRecord(id="r", features={}), agents, cfg)
            print(trace.notes)
            """
        )
        start = time.perf_counter()
        result = self.run_python(script)
        assert time.perf_counter() - start < 2.0
        assert "agent spatial abandoned past the barrier deadline" in result.stdout


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_its_records_on_agent_threads_of_its_own(self):
        # The parent's idle tokens name threads that the child does not have.
        script = textwrap.dedent(
            """
            import os
            from marble.core import AgentId, EngineConfig, validate_config
            from marble.engine import run_instance
            from marble.features import AccidentRecord
            from synth import ScriptedAgent

            cfg = validate_config(EngineConfig(agent_timeout_ms=300))
            agents = [ScriptedAgent(a, prediction=2, confidence=0.6) for a in (AgentId.ML, AgentId.SPATIAL)]
            run_instance(AccidentRecord(id="parent", features={}), agents, cfg)
            read, write = os.pipe()
            if os.fork() == 0:
                decision, trace = run_instance(AccidentRecord(id="child", features={}), agents, cfg)
                os.write(write, repr((decision.abstained, trace.notes)).encode())
                os._exit(0)
            os.close(write)
            os.wait()
            print(os.read(read, 4096).decode())
            """
        )
        assert self.run_python(script).stdout.strip() == "(False, ())"


class TestFuse:
    @pytest.mark.parametrize("mode", list(CoordinationMode))
    def test_fusing_a_trace_replays_its_coordination_and_decision(self, cfg, mode):
        mode_cfg = dataclasses.replace(cfg, coordination_mode=mode)
        records = [weather_record(f"m{i}", f"t{i % 12}") for i in range(24)]
        records.insert(5, weather_record("bad", "poison"))
        backend = synth.fallible_coordinator()
        results = run_instances(records, mixed_agents(mode_cfg), mode_cfg, coordination_backend=backend)
        for decision, trace in results:
            assert fuse(trace.agent_outputs, mode_cfg, coordination_backend=backend) == (trace.coordination, decision)
        traces = [trace for _, trace in results]
        assert traces[5].coordination is None and traces[5].decision.abstained
        assert any(o.failed for t in traces if t.coordination for o in t.agent_outputs)
        if mode is CoordinationMode.LLM_BASED:
            assert {t.coordination.fallback for t in traces if t.coordination} == {None, "parse"}

    def test_a_custom_coordinator_is_skipped_when_rule_1_decides(self, cfg):
        seen = []

        def coordinator(outputs, cfg):
            seen.append(cfg.coordination_mode)
            return coordinate_rb(outputs, cfg)

        for mode in CoordinationMode:
            mode_cfg = dataclasses.replace(cfg, coordination_mode=mode)
            decision, trace = run_instance(record(), unanimous_agents(mode_cfg, 0.9), mode_cfg, coordinator=coordinator)
            assert decision.rule_fired == 1
            assert trace.coordination == coordinate_rb(trace.agent_outputs, mode_cfg)
        assert seen == []
        for mode in CoordinationMode:
            mode_cfg = dataclasses.replace(cfg, coordination_mode=mode)
            run_instance(record(), unanimous_agents(mode_cfg, 0.6), mode_cfg, coordinator=coordinator)
        assert seen == list(CoordinationMode)

    def test_a_custom_coordinator_past_its_deadline_falls_back(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=100)

        def hung(outputs, cfg):
            time.sleep(1.5)
            return coordinate_rb(outputs, cfg)

        start = time.perf_counter()
        decision, trace = run_instance(record(), unanimous_agents(fast_cfg, 0.6), fast_cfg, coordinator=hung)
        assert time.perf_counter() - start < 1.2
        assert trace.coordination == dataclasses.replace(coordinate_rb(trace.agent_outputs, fast_cfg), fallback="timeout")
        assert "coordinator abandoned past its deadline" in trace.notes
        assert int(decision.prediction) == 3

    @pytest.mark.parametrize("kind", ["timeout", "parse", "transport"])
    def test_a_coordinator_failure_kind_gives_the_rule_based_result(self, cfg, kind):
        live = [AgentOutput(AgentId.ML, Severity(2), 0.6), AgentOutput(AgentId.SPATIAL, Severity(4), 0.7)]
        coordination, decision = fuse(live, cfg, coordinator=lambda outputs, cfg: kind)
        assert coordination == dataclasses.replace(coordinate_rb(live, cfg), fallback=kind)
        assert decision == final_decide(live[0], coordination, False, cfg)

    @pytest.mark.parametrize("answer", [None, "banana", 3])
    def test_a_coordinator_that_returns_anything_else_breaks_its_contract(self, cfg, answer):
        live = [AgentOutput(AgentId.ML, Severity(2), 0.6), AgentOutput(AgentId.SPATIAL, Severity(4), 0.7)]
        with pytest.raises(AgentContractError, match=f"coordinator returned {answer!r}, not a CoordinationResult"):
            fuse(live, cfg, coordinator=lambda outputs, cfg: answer)

    def test_llm_mode_computes_the_rule_based_result_once_per_live_record(self, cfg, monkeypatch):
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        calls = []

        def counting(outputs, cfg):
            calls.append(1)
            return coordinate_rb(outputs, cfg)

        monkeypatch.setattr(marble.engine, "coordinate_rb", counting)
        monkeypatch.setattr(marble.coordination, "coordinate_rb", counting)
        records = [weather_record(f"m{i}", f"t{i % 12}") for i in range(24)]
        records.insert(5, weather_record("bad", "poison"))
        results = run_instances(records, mixed_agents(llm_cfg), llm_cfg, coordination_backend=synth.fallible_coordinator())
        coordinated = [trace.coordination for _, trace in results if trace.coordination is not None]
        assert "parse" in {c.fallback for c in coordinated}
        assert len(calls) == len(coordinated)

    def test_llm_mode_lists_the_live_outputs_in_agent_order(self, cfg):
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        prompts = []

        def reply(prompt):
            prompts.append(prompt)
            return '{"severity": 3, "confidence": 0.7, "reasoning": "meta"}'

        live = [AgentOutput(a, Severity(2), 0.5) for a in AgentId if a is not AgentId.SPATIAL]  # agent order
        outputs = [*live[:2], AgentOutput.failure(AgentId.SPATIAL, "parse", 1), *live[2:]]
        fuse(outputs[::-1], llm_cfg, coordination_backend=synth.FakeBackend(reply))
        assert prompts == [format_meta_prompt(live, llm_cfg)]

    def test_two_live_outputs_of_one_agent_break_the_contract(self, cfg):
        spatial = AgentOutput(AgentId.SPATIAL, Severity(2), 0.6)
        with pytest.raises(AgentContractError, match="agent spatial has more than one live output"):
            fuse([spatial, AgentOutput(AgentId.ML, Severity(3), 0.5), spatial], cfg)

    @pytest.mark.parametrize("ml_confidence", [None, 0.5, 0.9])
    def test_llm_mode_without_a_backend_is_named_whatever_the_outputs(self, cfg, ml_confidence):
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        outputs = [] if ml_confidence is None else [AgentOutput(AgentId.ML, Severity(3), ml_confidence)]
        with pytest.raises(ValueError, match="LLM coordination mode requires a coordination backend"):
            fuse(outputs, llm_cfg)


# Written once by ``golden_traces()`` below and never rewritten by the test:
# a change that alters any trace byte other than a timing field fails it.
GOLDEN_TRACES = Path(__file__).parent / "data" / "golden_traces.jsonl"
GOLDEN_TIMEOUT_MS = 40

# The agents that fail on a record, and how; "r4" fails on every agent.
GOLDEN_FAULTS = {
    "r1": {AgentId.ENVIRONMENTAL: "parse"},
    "r2": {AgentId.INFRASTRUCTURAL: "transport"},
    "r3": {AgentId.TEMPORAL: "timeout"},
    "r4": {
        AgentId.ML: "parse",
        AgentId.ENVIRONMENTAL: "parse",
        AgentId.INFRASTRUCTURAL: "transport",
        AgentId.SPATIAL: "timeout",
        AgentId.TEMPORAL: "parse",
    },
    "r5": {AgentId.ML: "parse", AgentId.SPATIAL: "parse"},
    "r6": {AgentId.ENVIRONMENTAL: "timeout", AgentId.INFRASTRUCTURAL: "transport"},
}
GOLDEN_CONFIDENCES = {
    AgentId.ML: 0.78,
    AgentId.ENVIRONMENTAL: 0.7,
    AgentId.INFRASTRUCTURAL: 0.6,
    AgentId.SPATIAL: 0.85,
    AgentId.TEMPORAL: 0.5,
}


class FaultingHintBackend:
    """A hint backend that fails when the hint in its prompt reads
    "fault-parse", "fault-transport" or "fault-timeout"."""

    def __init__(self, confidence: float):
        self._hint = synth.hint_backend(confidence)
        self._faults = {
            ": fault-parse": ScriptedBackend("no verdict"),
            ": fault-transport": synth.FakeBackend("", error=TransportError("refused", status=503)),
            ": fault-timeout": synth.FakeBackend("", delay_ms=GOLDEN_TIMEOUT_MS),
        }

    def complete(self, prompt, decoding, timeout_ms):
        backend = next((b for token, b in self._faults.items() if token in prompt), self._hint)
        return backend.complete(prompt, decoding, timeout_ms)


def golden_config(mode: CoordinationMode) -> EngineConfig:
    return validate_config(EngineConfig(coordination_mode=mode, agent_timeout_ms=GOLDEN_TIMEOUT_MS))


def golden_run() -> list[TraceRecord]:
    """The traces of eight hint records run in rule mode and then in LLM mode
    with ``synth.fallible_coordinator()``, then of two more run in LLM mode:
    r8, which the ML override decides, and r9, which it does not and on which
    the coordinator's reply does not parse."""

    def ml_responder(features):
        text = features[synth.HINT_FEATURES[AgentId.ML]].text
        return None if text.startswith("fault-") else (int(text.removeprefix("sig")), GOLDEN_CONFIDENCES[AgentId.ML])

    records = []
    for r in synth.generate_records(10, seed=5, accuracies=dict.fromkeys(AgentId, 0.7)):
        faults = {
            synth.HINT_FEATURES[agent]: FeatureValue.categorical(f"fault-{kind}")
            for agent, kind in GOLDEN_FAULTS.get(r.id, {}).items()
        }
        records.append(AccidentRecord(id=r.id, features={**r.features, **faults}, label=r.label))
    traces = []
    llm = CoordinationMode.LLM_BASED
    for mode, batch in ((CoordinationMode.RULE_BASED, records[:8]), (llm, records[:8]), (llm, records[8:])):
        cfg = golden_config(mode)
        agents = [ScriptedAgent(AgentId.ML, ml_responder)]
        agents += [SlmAgent(kind, FaultingHintBackend(GOLDEN_CONFIDENCES[kind]), cfg) for kind in SLM_KINDS]
        results = run_instances(batch, agents, cfg, coordination_backend=synth.fallible_coordinator())
        traces += [trace for _, trace in results]
    return traces


def golden_traces() -> list[str]:
    """The trace lines of ``golden_run()``, timing fields stripped."""
    return [json.dumps(strip_timings(trace.to_dict()), ensure_ascii=False) for trace in golden_run()]


def test_traces_match_the_golden_file():
    expected = GOLDEN_TRACES.read_text(encoding="utf-8").splitlines()
    actual = golden_traces()
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"line {number}, record {json.loads(want)['record_id']}, differs"
    assert len(actual) == len(expected)


def test_golden_llm_lines_that_rule_1_decides_read_as_skipped_calls():
    """An LLM-mode record that the ML override decides records the rule-based
    coordination with no fallback, as no coordinator was called; the others
    include a coordinator reply that did not parse."""
    llm_fingerprint = golden_config(CoordinationMode.LLM_BASED).fingerprint()
    lines = [json.loads(line) for line in GOLDEN_TRACES.read_text(encoding="utf-8").splitlines()]
    llm_lines = [d for d in lines if d["config_fingerprint"] == llm_fingerprint and d["coordination"]]
    for d in llm_lines:
        if d["decision"]["rule_fired"] == 1:
            c = d["coordination"]
            assert (c["method"], c["override_applied"], c["fallback"]) == ("rule", True, None), d["record_id"]
    assert any(d["decision"]["rule_fired"] != 1 and d["coordination"]["fallback"] == "parse" for d in llm_lines)


def test_trace_objects_read_back_from_their_json_form():
    """The keys of a trace's agent outputs, coordination (its breakdown
    included) and decision are their objects' field names, so a reader
    rebuilds them with ``from_json_value``."""
    for trace in golden_run():
        d = trace.to_dict()
        assert json.loads(json.dumps(d, ensure_ascii=False)) == d
        assert [from_json_value(AgentOutput, entry) for entry in d["agent_outputs"]] == list(trace.agent_outputs)
        assert from_json_value(FinalDecision, d["decision"]) == trace.decision
        if trace.coordination is not None:
            assert from_json_value(CoordinationResult, d["coordination"]) == trace.coordination
