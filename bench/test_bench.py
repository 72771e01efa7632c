"""Tests of the benchmark itself, at tiny size.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from simbackend import (  # noqa: E402
    EXPECTED_FAILURE, GARBAGE, JSON, LABELLED, PROSE, STALL, TRANSPORT, TRUNCATED, Mix, Schedule,
    SimulatedBackend,
)

from run import WORKLOADS  # noqa: E402

from marble.agents import BackendTimeoutError, ParseError, TransportError, parse_response_detailed  # noqa: E402
from marble.core import DecodingParams  # noqa: E402

PROMPT = "context\n\nWeather Conditions: sig3\nVisibility: 4.2\n\nquery"


def test_self_check_passes_every_workload_untraced_and_traced():
    proc = subprocess.run(RUN + ["--self-check"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" ok") == 8


def test_metric_tables_match_benchmark_json():
    from layers import PER_LAYER
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m.name, m.unit) for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == ["batch_slow", "online_slow"]


def test_result_line_and_determinism_per_seed():
    def run(seed: int) -> tuple[str, dict]:
        proc = subprocess.run(
            RUN + ["--workload", "batch_slow", "--seed", str(seed), "--seconds", "0.2", "--trace", "0",
                   "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        return lines[-2], json.loads(lines[-1])

    digest, result = run(5)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    again, _ = run(5)
    other, _ = run(6)
    assert digest == again != other


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "inputs.py", "simbackend.py", "tracing.py", "layers.py"):
        shutil.copy(HERE / name, tmp_path / "bench" / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch_fast", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("shape, kind", sorted(EXPECTED_FAILURE.items()))
def test_each_failing_shape_fails_the_way_the_schedule_says(shape, kind):
    backend = SimulatedBackend(Schedule(1, "agent", Mix({shape: 1.0}, latency_ms=5)), latency_scale=0)
    if kind == "parse":
        with pytest.raises(ParseError):
            parse_response_detailed(backend.complete(PROMPT, DecodingParams(), 100))
    else:
        error = TransportError if kind == "transport" else BackendTimeoutError
        with pytest.raises(error):
            backend.complete(PROMPT, DecodingParams(), 100)


@pytest.mark.parametrize("shape", [JSON, PROSE, LABELLED])
def test_replies_that_parse_echo_the_hint(shape):
    backend = SimulatedBackend(Schedule(1, "agent", Mix({shape: 1.0})), latency_scale=0)
    assert int(parse_response_detailed(backend.complete(PROMPT, DecodingParams(), 100)).severity) == 3


def test_a_stall_raises_at_the_deadline_not_after_it():
    backend = SimulatedBackend(Schedule(1, "agent", Mix({STALL: 1.0})))
    start = time.perf_counter()
    with pytest.raises(BackendTimeoutError):
        backend.complete(PROMPT, DecodingParams(), 50)
    assert 0.045 <= time.perf_counter() - start < 0.5


def test_plans_depend_only_on_seed_role_and_prompt():
    mix = Mix({JSON: 0.5, GARBAGE: 0.2, TRANSPORT: 0.2, TRUNCATED: 0.1})
    plans = [Schedule(7, "agent", mix).plan(f"{PROMPT} {i}") for i in range(200)]
    assert plans == [Schedule(7, "agent", mix).plan(f"{PROMPT} {i}") for i in range(200)]
    assert plans != [Schedule(8, "agent", mix).plan(f"{PROMPT} {i}") for i in range(200)]
    assert {p.shape for p in plans} == {JSON, GARBAGE, TRANSPORT, TRUNCATED}


def test_known_prompts_get_the_mix_in_exact_proportion():
    mix = Mix({JSON: 0.5, GARBAGE: 0.2, TRANSPORT: 0.2, TRUNCATED: 0.1})
    prompts = [f"{PROMPT} {i}" for i in range(200)]
    schedule = Schedule(7, "agent", mix, prompts)
    shapes = Counter(schedule.plan(p).shape for p in prompts)
    assert shapes == {JSON: 100, GARBAGE: 40, TRANSPORT: 40, TRUNCATED: 20}
