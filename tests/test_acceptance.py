"""Acceptance suite.

Each criterion is checked against an oracle coded independently in this
file (straight from the published fusion equations plus the documented
tie/override decisions), never against the package's own helpers. One
pass/fail line prints per criterion; run with ``pytest -s`` to see them.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import random
import subprocess
import sys
import time

import pytest

import synth
from marble.agents import ScriptedBackend, SlmAgent
from marble.agents.slm import calibrate
from marble.coordination import CoordinationResult, coordinate_rb
from marble.core import AgentId, AgentOutput, CoordinationMode, EngineConfig, Severity
from marble.decision import DecisionSource, final_decide
from marble.engine import run_instance, run_instances, strip_timings
from marble.features import AccidentRecord, FeatureValue
from marble.harness import compute_metrics, default_scenarios, relative_accuracy_drops, run_ablation, run_imbalance_suite
from synth import ScriptedAgent

RARE = {1, 4}
AGENT_NAMES = ("ml", "environmental", "infrastructural", "spatial", "temporal")
WEIGHTS = {"ml": 3.0, "environmental": 1.5, "infrastructural": 1.2, "spatial": 1.0, "temporal": 1.0}


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {name}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_rule_based(votes: list[tuple[str, int, float]]) -> tuple[int, float]:
    """Brute-force rule-based coordination, written from the equations.

    votes: (agent name, predicted class, confidence) for every live agent,
    in canonical agent order.
    """
    scores = {k: 0.0 for k in (1, 2, 3, 4)}
    for name, k, c in votes:
        beta = 1.2 if k in RARE else 1.0
        scores[k] += WEIGHTS[name] * c * beta

    ml = next(((k, c) for name, k, c in votes if name == "ml"), None)
    override = False
    if ml is not None:
        ml_class, ml_conf = ml
        if ml_conf >= 0.8:
            override = True
        elif ml_conf >= 0.75 and any(
            name != "ml" and k == ml_class for name, k, _ in votes
        ):
            override = True
    if override:
        if ml_class in RARE:
            return ml_class, min(0.95, ml_conf + 0.15)
        return ml_class, min(0.95, ml_conf)

    supporter_count = {
        k: sum(1 for _, kk, _ in votes if kk == k) for k in (1, 2, 3, 4)
    }
    # Only a class some agent voted for can win, even when every score ties at 0.
    voted = [k for k in (1, 2, 3, 4) if supporter_count[k]]
    best = max(scores[k] for k in voted)
    tied = [k for k in voted if best - scores[k] <= 1e-9]
    winner = min(tied, key=lambda k: (supporter_count[k], 0 if k in RARE else 1, k))

    slm_agree = sum(1 for name, kk, _ in votes if kk == winner and name != "ml")
    boost = 0.0
    if winner in RARE:
        if slm_agree >= 2 and slm_agree / 4 > 0.5:
            boost = 0.1
    elif slm_agree / 4 > 0.5:
        boost = 0.05

    numerator = sum(WEIGHTS[name] * c for name, kk, c in votes if kk == winner)
    denominator = sum(WEIGHTS[name] for name, kk, _ in votes if kk == winner)
    average = numerator / denominator if denominator else 0.1
    return winner, min(0.95, max(0.1, average + boost))


def oracle_cascade(
    ml: tuple[int, float] | None, coord: tuple[int, float], override: bool
) -> tuple[int, float, str, int]:
    coord_class, coord_conf = coord
    if override and ml is not None:
        return ml[0], ml[1], "ml", 1
    tau = 0.4 if coord_class in RARE else 0.5
    if coord_conf > tau:
        return coord_class, coord_conf, "coordinator", 2
    if ml is not None:
        w1 = 0.7 if ml[0] in RARE else 0.5
        if ml[1] * w1 > coord_conf * (1.0 - w1):
            return ml[0], ml[1], "ml", 3
    return coord_class, coord_conf, "coordinator", 4


def oracle_calibrate(raw: float, k: int) -> float:
    if k in RARE and raw > 0.8:
        return min(0.98, raw + 0.1)
    if k in RARE and raw > 0.6:
        return min(0.9, raw + 0.05)
    return raw


def oracle_majority(votes: list[int]) -> int:
    counts = collections.Counter(votes)
    top = max(counts.values())
    return min(k for k, n in counts.items() if n == top)


# ---------------------------------------------------------------------------
# Criterion 1: rule-based coordinator oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion1RuleBasedOracle:
    CONFIDENCES = (0.0, 0.3, 0.61, 0.76, 0.81, 1.0)
    GATES = (0.5, 0.6, 0.75, 0.8)

    def _output(self, cache, name: str, k: int, c: float) -> AgentOutput:
        key = (name, k, c)
        if key not in cache:
            cache[key] = AgentOutput(
                agent=AgentId(name), prediction=Severity(k), confidence=c, raw_confidence=c
            )
        return cache[key]

    def _cases(self):
        rng = random.Random(20250810)
        for _ in range(200_000):
            yield tuple(
                (name, rng.randrange(1, 5), rng.choice(self.CONFIDENCES))
                for name in AGENT_NAMES
            )
        # Every assignment at every gate value, plus gate-valued ML
        # confidence against mid-range SLM confidences.
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    for d in range(1, 5):
                        for e in range(1, 5):
                            classes = (a, b, c, d, e)
                            for gate in self.GATES:
                                yield tuple(
                                    (name, k, gate) for name, k in zip(AGENT_NAMES, classes)
                                )
                                yield tuple(
                                    (name, k, gate if name == "ml" else 0.61)
                                    for name, k in zip(AGENT_NAMES, classes)
                                )

    def test_criterion_1(self, cfg):
        cache: dict = {}
        checked = 0
        start = time.perf_counter()
        for votes in self._cases():
            outputs = [self._output(cache, name, k, c) for name, k, c in votes]
            result = coordinate_rb(outputs, cfg)
            expected_class, expected_conf = oracle_rule_based(list(votes))
            assert int(result.prediction) == expected_class, votes
            assert abs(result.confidence - expected_conf) <= 1e-12, votes
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 200_000 + 2 * 4 * 4**5
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
        report(1, f"rule-based coordination matches the oracle on {checked} cases in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: final-decision oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion2CascadeOracle:
    def test_criterion_2(self, cfg):
        checked = 0
        for ml_conf10 in range(11):
            for coord_conf10 in range(11):
                ml_conf = ml_conf10 / 10
                coord_conf = coord_conf10 / 10
                for ml_class in (1, 2, 3, 4):
                    for coord_class in (1, 2, 3, 4):
                        coord = CoordinationResult(
                            prediction=Severity(coord_class),
                            confidence=coord_conf,
                            method=CoordinationMode.RULE_BASED,
                        )
                        ml_output = AgentOutput(
                            agent=AgentId.ML,
                            prediction=Severity(ml_class),
                            confidence=ml_conf,
                            raw_confidence=ml_conf,
                        )
                        for override in (False, True):
                            decision = final_decide(ml_output, coord, override, cfg)
                            k, conf, source, rule = oracle_cascade(
                                (ml_class, ml_conf), (coord_class, coord_conf), override
                            )
                            assert int(decision.prediction) == k
                            assert decision.confidence == conf
                            assert decision.source.value == source
                            assert decision.rule_fired == rule
                            checked += 1
                        # ML-absent arm: rules 1 and 3 must be skipped.
                        for override in (False, True):
                            decision = final_decide(None, coord, override, cfg)
                            k, conf, source, rule = oracle_cascade(
                                None, (coord_class, coord_conf), override
                            )
                            assert (int(decision.prediction), decision.rule_fired) == (k, rule)
                            checked += 1
        report(2, f"decision cascade matches the oracle on all {checked} grid cases")


# ---------------------------------------------------------------------------
# Criterion 3: calibration properties
# ---------------------------------------------------------------------------

class TestCriterion3Calibration:
    def test_criterion_3(self, cfg):
        rng = random.Random(77)
        pairs = [(rng.random(), rng.randrange(1, 5)) for _ in range(10_000)]
        per_class: dict[int, list[tuple[float, float]]] = {k: [] for k in (1, 2, 3, 4)}
        for raw, k in pairs:
            value = calibrate(raw, Severity(k), cfg)
            assert value == oracle_calibrate(raw, k)
            gated_rare = k in RARE and raw > 0.6
            if gated_rare:
                # Boosted outputs never exceed the 0.98 cap and never fall
                # below it when the raw value already passed it.
                assert value <= 0.98
                assert value >= min(raw, 0.98)
                if raw <= 0.88:
                    assert value > raw  # strict boost below the cap region
            else:
                assert value == raw
            per_class[k].append((raw, value))
        for k, values in per_class.items():
            values.sort()
            for (_, lo), (_, hi) in zip(values, values[1:]):
                assert lo <= hi, f"calibration not monotone for class {k}"
        report(3, "calibration matches the piecewise oracle, is monotone, and respects its caps")


# ---------------------------------------------------------------------------
# Criterion 4: protocol determinism through the CLI
# ---------------------------------------------------------------------------

class TestCriterion4Determinism:
    def test_criterion_4(self, tmp_path):
        rows = ["id,Weather Conditions,Day of Week,Road Type,Point of Impact,severity"]
        rng = random.Random(4)
        for i in range(12):
            rows.append(
                f"r{i},W{rng.randrange(3)},D{rng.randrange(3)},R{rng.randrange(3)},P{rng.randrange(3)},{(i % 4) + 1}"
            )
        input_csv = tmp_path / "input.csv"
        input_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        scripted = tmp_path / "scripted.json"
        scripted.write_text(
            json.dumps(
                {
                    kind: '{"severity": %d, "confidence": 0.7, "reasoning": "fixed"}' % ((i % 4) + 1)
                    for i, kind in enumerate(
                        ("environmental", "infrastructural", "spatial", "temporal")
                    )
                }
            ),
            encoding="utf-8",
        )

        def run(trace_name: str) -> list[dict]:
            trace = tmp_path / trace_name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "marble.cli", "predict",
                    "--input", str(input_csv),
                    "--train", str(train_csv),
                    "--scripted", str(scripted),
                    "--trace", str(trace),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return [
                json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()
            ]

        first = run("a.jsonl")
        second = run("b.jsonl")
        assert len(first) == 12
        stripped_first = [json.dumps(strip_timings(t), sort_keys=True) for t in first]
        stripped_second = [json.dumps(strip_timings(t), sort_keys=True) for t in second]
        assert stripped_first == stripped_second
        report(4, "two CLI runs produce byte-identical traces modulo timing fields")


# ---------------------------------------------------------------------------
# Criterion 5: synthetic end-to-end ensemble gain
# ---------------------------------------------------------------------------

class TestCriterion5EnsembleGain:
    def test_criterion_5(self, cfg):
        accuracies = {a: 0.7 for a in AgentId}
        confidences = {a: (0.65 if a is AgentId.ML else 0.7) for a in AgentId}
        gains = []
        for seed in range(5):
            records = synth.generate_records(2000, seed=seed, accuracies=accuracies)
            agents = synth.build_hint_agents(cfg, confidences)
            results = run_instances(records, agents, cfg)
            labels = [r.label for r in records]
            engine_accuracy = compute_metrics([d for d, _ in results], labels).accuracy

            agent_accuracies = {
                a: synth.agent_hint_accuracy(records, a) for a in AgentId
            }
            best_single = max(agent_accuracies.values())

            majority_hits = 0
            for record in records:
                votes = [
                    int(record.features[name].text.removeprefix("sig"))
                    for name in synth.HINT_FEATURES.values()
                ]
                if oracle_majority(votes) == int(record.label):
                    majority_hits += 1
            majority_accuracy = majority_hits / len(records)

            gain = engine_accuracy - best_single
            gains.append(gain)
            assert gain >= 0.05, (
                f"seed {seed}: engine {engine_accuracy:.3f} vs best single "
                f"{best_single:.3f} (gain {gain:.3f})"
            )
            # The independent majority-vote oracle verifies the ensemble
            # effect is real on this data, and the engine must sit in the
            # ensemble regime around it (the weighted vote deliberately
            # trades a few points of plain-majority accuracy for ML
            # priority and rare-class emphasis).
            assert majority_accuracy - best_single >= 0.05
            assert abs(engine_accuracy - majority_accuracy) <= 0.06, (
                f"seed {seed}: engine {engine_accuracy:.3f} vs majority oracle "
                f"{majority_accuracy:.3f}"
            )
        report(5, f"ensemble gain over the best single agent >= 5pp on all 5 seeds (min {min(gains):.3f})")


# ---------------------------------------------------------------------------
# Criterion 6: ablation shape
# ---------------------------------------------------------------------------

class TestCriterion6AblationShape:
    def test_criterion_6(self, cfg):
        accuracies = {
            AgentId.ML: 0.6,
            AgentId.ENVIRONMENTAL: 0.9,  # the signal lives here
            AgentId.INFRASTRUCTURAL: 0.55,
            AgentId.SPATIAL: 0.25,       # pure noise
            AgentId.TEMPORAL: 0.55,
        }
        confidences = {
            AgentId.ML: 0.6,
            AgentId.ENVIRONMENTAL: 0.7,
            AgentId.INFRASTRUCTURAL: 0.6,
            AgentId.SPATIAL: 0.35,
            AgentId.TEMPORAL: 0.6,
        }
        records = synth.generate_records(1500, seed=61, accuracies=accuracies)
        agents = synth.build_hint_agents(cfg, confidences)
        reports = run_ablation(records, agents, cfg)
        drops = relative_accuracy_drops(reports)
        agent_keys = [a.identity().value for a in agents]
        ranked = sorted(agent_keys, key=lambda k: drops[k], reverse=True)
        assert ranked[0] == "environmental", f"drop ranking {ranked} with drops {drops}"
        assert drops["environmental"] > max(
            drops[k] for k in agent_keys if k != "environmental"
        )
        noise_shift = abs(reports["none"].accuracy - reports["spatial"].accuracy)
        assert noise_shift < 0.02, f"noise-agent removal shifted accuracy by {noise_shift:.3f}"
        report(
            6,
            "environmental exclusion shows the steepest relative drop "
            f"({drops['environmental']:.2%}); noise-agent removal shifts accuracy {noise_shift:.2%}",
        )


# ---------------------------------------------------------------------------
# Criterion 7: imbalance robustness shape
# ---------------------------------------------------------------------------

def fallible_biased_coordinator() -> ScriptedBackend:
    """Scripted coordination backend: unparseable on ~30% of calls
    (deterministic per prompt), otherwise a common-class-biased plurality
    that ignores weights, confidences, and rarity factors."""

    def script(prompt: str) -> str:
        digest = hashlib.md5(prompt.encode("utf-8")).digest()
        if digest[0] % 100 < 30:
            return "the coordinator cannot reach a structured verdict"
        votes = [int(m) for m in __import__("re").findall(r"prediction: (\d)", prompt)]
        common = [v for v in votes if v in (2, 3)]
        if common:
            counts = collections.Counter(common)
            top = max(counts.values())
            choice = min(k for k, n in counts.items() if n == top)
        else:
            counts = collections.Counter(votes)
            top = max(counts.values())
            choice = min(k for k, n in counts.items() if n == top)
        return json.dumps({"severity": choice, "confidence": 0.8, "reasoning": "plurality"})

    return ScriptedBackend(script)


class TestCriterion7ImbalanceShape:
    def test_criterion_7(self, cfg):
        accuracies = {a: 0.7 for a in AgentId}
        confidences = {a: (0.65 if a is AgentId.ML else 0.7) for a in AgentId}
        records = synth.generate_records(4000, seed=71, accuracies=accuracies)
        agents = synth.build_hint_agents(cfg, confidences)
        scenarios = default_scenarios()
        results = run_imbalance_suite(
            records,
            agents,
            cfg,
            scenarios,
            seed=7,
            coordination_backend=fallible_biased_coordinator(),
            size=600,
        )

        def entropy(scenario) -> float:
            return -sum(p * math.log(p) for p in scenario.distribution.values() if p > 0)

        most_skewed = min(scenarios, key=entropy).name
        assert most_skewed != "uniform"
        rb_degradation = results["uniform"].rule_based.f1 - results[most_skewed].rule_based.f1
        llm_degradation = results["uniform"].llm_based.f1 - results[most_skewed].llm_based.f1
        assert rb_degradation < llm_degradation, (
            f"RBC degraded {rb_degradation:.3f} vs LBC {llm_degradation:.3f} "
            f"(uniform -> {most_skewed})"
        )
        for name in ("uniform", most_skewed):
            assert 0.15 <= results[name].llm_fallback_rate <= 0.45
        report(
            7,
            f"uniform -> {most_skewed}: macro-F1 degradation RBC {rb_degradation:.3f} "
            f"< LBC {llm_degradation:.3f}",
        )


# ---------------------------------------------------------------------------
# Criterion 8: timeout guardrail and blocking barrier
# ---------------------------------------------------------------------------

class TestCriterion8TimeoutGuardrail:
    def test_criterion_8(self, cfg):
        assert cfg.agent_timeout_ms == 8000
        payload = '{"severity": 2, "confidence": 0.7, "reasoning": "quick"}'
        agents = [ScriptedAgent(AgentId.ML, prediction=2, confidence=0.6)]
        for kind in (AgentId.ENVIRONMENTAL, AgentId.INFRASTRUCTURAL, AgentId.SPATIAL, AgentId.TEMPORAL):
            delay = 9000 if kind is AgentId.ENVIRONMENTAL else 0
            agents.append(SlmAgent(kind, ScriptedBackend(payload, delay_ms=delay), cfg))
        record = AccidentRecord(
            id="slow", features={"Weather Conditions": FeatureValue.categorical("Fog")}
        )
        start = time.perf_counter()
        decision, trace = run_instance(record, agents, cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0

        by_agent = {o.agent: o for o in trace.agent_outputs}
        delayed = by_agent[AgentId.ENVIRONMENTAL]
        assert delayed.failed and delayed.failure_kind == "timeout"
        survivors = [o for o in trace.agent_outputs if not o.failed]
        assert len(survivors) == 4
        assert AgentId.ENVIRONMENTAL not in {o.agent for o in survivors}
        completed = trace.timings["agent_completed_ms"]
        slowest_survivor = max(completed[o.agent.value] for o in survivors)
        assert trace.timings["stage3_start_ms"] >= slowest_survivor
        assert int(decision.prediction) == 2
        report(
            8,
            f"9s agent marked failed under the 8s guardrail; stage 3 started after the "
            f"slowest survivor ({elapsed:.1f}s wall)",
        )


# ---------------------------------------------------------------------------
# Criterion 9: metrics correctness
# ---------------------------------------------------------------------------

def oracle_metrics(predictions: list[int | None], labels: list[int]):
    matrix = [[0] * 4 for _ in range(4)]
    abstained = 0
    for p, t in zip(predictions, labels):
        if p is None:
            abstained += 1
        else:
            matrix[t - 1][p - 1] += 1
    total = sum(sum(row) for row in matrix)
    accuracy = (sum(matrix[i][i] for i in range(4)) / total) if total else 0.0
    precisions, recalls, f1s, supports = [], [], [], []
    for i in range(4):
        tp = matrix[i][i]
        col = sum(matrix[r][i] for r in range(4))
        row = sum(matrix[i])
        p = tp / col if col else 0.0
        r = tp / row if row else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
        supports.append(row)
    return {
        "matrix": matrix,
        "accuracy": accuracy,
        "precision": sum(precisions) / 4,
        "recall": sum(recalls) / 4,
        "f1": sum(f1s) / 4,
        "per_class_f1": f1s,
        "supports": supports,
        "abstentions": abstained,
    }


def _metric_cases(count: int):
    """Seeded (predictions, labels) vectors, about 5% abstentions."""
    rng = random.Random(99)
    for _ in range(count):
        n = rng.randint(1, 60)
        labels = [rng.randint(1, 4) for _ in range(n)]
        predictions: list[int | None] = [
            None if rng.random() < 0.05 else rng.randint(1, 4) for _ in range(n)
        ]
        yield predictions, labels


def _computed_metrics(predictions: list[int | None], labels: list[int]):
    return compute_metrics(
        [None if p is None else Severity(p) for p in predictions],
        [Severity(t) for t in labels],
    )


class TestCriterion9Metrics:
    def test_criterion_9(self):
        for predictions, labels in _metric_cases(1000):
            expected = oracle_metrics(predictions, labels)
            got = _computed_metrics(predictions, labels)
            assert [list(r) for r in got.confusion] == expected["matrix"]
            assert got.accuracy == expected["accuracy"]
            assert got.precision == expected["precision"]
            assert got.recall == expected["recall"]
            assert got.f1 == expected["f1"]
            assert got.abstentions == expected["abstentions"]
            for i, k in enumerate((1, 2, 3, 4)):
                assert got.per_class[Severity(k)].f1 == expected["per_class_f1"][i]
                assert got.per_class[Severity(k)].support == expected["supports"][i]
        report(9, "compute_metrics matches the hand-built oracle on 1000 randomized vectors")

    def test_criterion_9_sklearn_slice(self):
        # A second, library-independent oracle on the first 50 vectors; only
        # this slice needs scikit-learn.
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        for predictions, labels in _metric_cases(50):
            kept = [(p, t) for p, t in zip(predictions, labels) if p is not None]
            if kept:
                sk_f1 = sklearn_metrics.f1_score(
                    [t for _, t in kept], [p for p, _ in kept],
                    labels=[1, 2, 3, 4], average="macro", zero_division=0,
                )
                assert _computed_metrics(predictions, labels).f1 == pytest.approx(sk_f1, abs=1e-12)
