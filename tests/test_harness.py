from __future__ import annotations

import collections
import dataclasses
import random

import pytest

import synth
from marble.coordination import weighted_scores
from marble.core import AgentId, AgentOutput, CoordinationMode, Severity
from marble.decision import abstain
from marble.engine import run_instances
from marble.harness import (
    ImbalanceScenario,
    LengthMismatchError,
    ScenarioError,
    comparison_table,
    compute_metrics,
    default_scenarios,
    majority_vote_coordinator,
    relative_accuracy_drops,
    run_ablation,
    run_imbalance_suite,
    sample_imbalance,
)
from synth import ScriptedAgent


def sev(values):
    return [Severity(v) for v in values]


class TestComputeMetrics:
    def test_perfect_predictions(self):
        labels = sev([1, 2, 3, 4, 1, 2, 3, 4])
        report = compute_metrics(labels, labels)
        assert report.accuracy == 1.0
        assert report.f1 == 1.0
        assert all(m.f1 == 1.0 for m in report.per_class.values())

    def test_degenerate_single_class_predictor(self):
        # 40 uniform records, everything predicted class 2: accuracy 0.25,
        # macro F1 0.1 (only class 2 scores, at F1 = 0.4).
        labels = sev([1, 2, 3, 4] * 10)
        predictions = sev([2] * 40)
        report = compute_metrics(predictions, labels)
        assert report.accuracy == pytest.approx(0.25)
        assert report.f1 == pytest.approx(0.1)
        assert report.per_class[Severity(2)].f1 == pytest.approx(0.4)
        assert report.per_class[Severity(1)].f1 == 0.0

    def test_abstentions_excluded_from_matrix(self):
        labels = sev([1] * 10)
        predictions = [Severity(1)] * 9 + [abstain()]
        report = compute_metrics(predictions, labels)
        assert report.abstentions == 1
        assert sum(sum(row) for row in report.confusion) == 9
        assert report.accuracy == 1.0

    def test_row_sums_equal_support(self):
        rng = random.Random(0)
        labels = sev([rng.randint(1, 4) for _ in range(200)])
        predictions = sev([rng.randint(1, 4) for _ in range(200)])
        report = compute_metrics(predictions, labels)
        for i, k in enumerate(sorted(report.per_class)):
            assert sum(report.confusion[i]) == report.per_class[k].support

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            compute_metrics(sev([1, 2]), sev([1]))


class CountingAgent:
    """Wraps an agent and counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def identity(self):
        return self.inner.identity()

    def evaluate(self, features):
        self.calls += 1
        return self.inner.evaluate(features)


class TestAblation:
    def make(self, cfg, n=160):
        accuracies = {
            AgentId.ML: 0.6,
            AgentId.ENVIRONMENTAL: 0.9,
            AgentId.INFRASTRUCTURAL: 0.55,
            AgentId.SPATIAL: 0.25,
            AgentId.TEMPORAL: 0.55,
        }
        confidences = {
            AgentId.ML: 0.6,
            AgentId.ENVIRONMENTAL: 0.7,
            AgentId.INFRASTRUCTURAL: 0.6,
            AgentId.SPATIAL: 0.35,
            AgentId.TEMPORAL: 0.6,
        }
        records = synth.generate_records(n, seed=42, accuracies=accuracies)
        agents = synth.build_hint_agents(cfg, confidences)
        return records, agents

    def test_emits_k_plus_two_reports(self, cfg):
        records, agents = self.make(cfg, n=60)
        reports = run_ablation(records, agents, cfg)
        assert len(reports) == len(agents) + 2
        assert "none" in reports and "coordinator" in reports
        assert set(reports) >= {a.identity().value for a in agents}

    def test_excluding_an_always_failing_agent_is_neutral(self, cfg):
        records, agents = self.make(cfg, n=80)
        broken = ScriptedAgent(AgentId.SPATIAL, lambda features: None)
        agents = [a for a in agents if a.identity() is not AgentId.SPATIAL] + [broken]
        reports = run_ablation(records, agents, cfg)
        assert reports["spatial"].accuracy == pytest.approx(reports["none"].accuracy)
        assert reports["spatial"].confusion == reports["none"].confusion

    def test_signal_bearing_agent_shows_largest_drop(self, cfg):
        records, agents = self.make(cfg, n=240)
        reports = run_ablation(records, agents, cfg)
        drops = relative_accuracy_drops(reports)
        agent_keys = [a.identity().value for a in agents]
        assert max(agent_keys, key=lambda k: drops[k]) == "environmental"

    def test_each_agent_evaluates_each_record_once(self, cfg):
        records, agents = self.make(cfg, n=30)
        agents = [CountingAgent(a) for a in agents]
        run_ablation(records, agents, cfg)
        assert [a.calls for a in agents] == [30] * 5

    @pytest.mark.parametrize("mode", list(CoordinationMode))
    def test_reports_equal_reruns_of_the_engine(self, cfg, mode):
        mode_cfg = dataclasses.replace(cfg, coordination_mode=mode)
        records, agents = self.make(mode_cfg, n=60)
        agents[1] = ScriptedAgent(AgentId.ENVIRONMENTAL, lambda f: None if f["Weather Conditions"].text == "sig1" else (2, 0.7))
        labels = [r.label for r in records]
        backend = synth.fallible_coordinator()
        reports = run_ablation(records, agents, mode_cfg, coordination_backend=backend)

        def rerun(subset, coordinator=None):
            results = run_instances(records, subset, mode_cfg, coordination_backend=backend, coordinator=coordinator)
            return compute_metrics([d for d, _ in results], labels)

        assert reports["none"] == rerun(agents)
        for agent in agents:
            assert reports[agent.identity().value] == rerun([a for a in agents if a is not agent])
        assert reports["coordinator"] == rerun(agents, majority_vote_coordinator)

    def test_needs_labelled_records(self, cfg):
        records, agents = self.make(cfg, n=10)
        records[3] = dataclasses.replace(records[3], label=None)
        with pytest.raises(ValueError, match="^evaluation records must all carry labels$"):
            run_ablation(records, agents, cfg)

    def test_needs_two_agents(self, cfg):
        records, agents = self.make(cfg, n=10)
        with pytest.raises(ValueError):
            run_ablation(records, agents[:1], cfg)


class TestMajorityVote:
    def test_counts_the_supporters_of_the_weighted_tally(self, cfg, out):
        outputs = [
            out(AgentId.ML, 2, 0.9),
            out(AgentId.SPATIAL, 4, 0.4),
            out(AgentId.TEMPORAL, 4, 0.6),
        ]
        result = majority_vote_coordinator(outputs, cfg)
        tally = weighted_scores(outputs, cfg)
        assert (result.prediction, result.confidence) == (Severity(4), pytest.approx(0.5))
        assert result.breakdown.supporters == tally.supporters
        assert result.breakdown.slm_supporters == tally.slm_supporters
        assert result.breakdown.scores == dict(zip(sev([1, 2, 3, 4]), [0.0, 1.0, 0.0, 2.0]))


class TestSampleImbalance:
    def make_pool(self, per_class=120):
        records = []
        for k in (1, 2, 3, 4):
            for i in range(per_class):
                records.append(
                    synth.AccidentRecord(
                        id=f"p{k}-{i}",
                        features={"Weather Conditions": synth.FeatureValue.categorical("x")},
                        label=Severity(k),
                    )
                )
        return records

    def test_uniform_scenario_exact_quarters(self):
        sampled = sample_imbalance(self.make_pool(), default_scenarios()[0], seed=1, size=400)
        counts = collections.Counter(int(r.label) for r in sampled)
        assert counts == {1: 100, 2: 100, 3: 100, 4: 100}

    def test_rare_fatal_five_percent(self):
        scenario = next(s for s in default_scenarios() if s.name == "rare_fatal")
        sampled = sample_imbalance(self.make_pool(), scenario, seed=1, size=200)
        counts = collections.Counter(int(r.label) for r in sampled)
        assert counts[4] == 10
        assert len(sampled) == 200

    def test_all_default_scenarios_within_one_of_target(self):
        pool = self.make_pool()
        for scenario in default_scenarios():
            sampled = sample_imbalance(pool, scenario, seed=3, size=500)
            counts = collections.Counter(int(r.label) for r in sampled)
            assert len(sampled) == 500
            for k in (1, 2, 3, 4):
                target = scenario.distribution[Severity(k)] * 500
                assert abs(counts.get(k, 0) - target) <= 1

    def test_missing_class_raises(self):
        pool = [r for r in self.make_pool() if int(r.label) != 1]
        with pytest.raises(ScenarioError, match="class 1"):
            sample_imbalance(pool, default_scenarios()[0], seed=1, size=100)

    def test_deterministic_per_seed(self):
        pool = self.make_pool()
        a = sample_imbalance(pool, default_scenarios()[1], seed=9, size=300)
        b = sample_imbalance(pool, default_scenarios()[1], seed=9, size=300)
        assert [r.id for r in a] == [r.id for r in b]
        c = sample_imbalance(pool, default_scenarios()[1], seed=10, size=300)
        assert [r.id for r in a] != [r.id for r in c]

    def test_replacement_sampling_keeps_ids_unique(self):
        pool = self.make_pool(per_class=5)
        sampled = sample_imbalance(pool, default_scenarios()[0], seed=2, size=100)
        ids = [r.id for r in sampled]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_duplicates_skip_ids_already_taken(self, seed):
        pool = [synth.AccidentRecord(i, {}, Severity(1)) for i in ("a", "a~1")]
        scenario = ImbalanceScenario("fatal_only", {Severity(1): 1.0})
        ids = [r.id for r in sample_imbalance(pool, scenario, seed=seed, size=4)]
        assert len(ids) == len(set(ids)) == 4
        assert {"a", "a~1"} <= set(ids)

    def test_negative_size_names_the_scenario(self):
        with pytest.raises(ScenarioError, match="scenario 'uniform'.*size"):
            sample_imbalance(self.make_pool(per_class=5), default_scenarios()[0], seed=1, size=-3)

    def test_negative_proportions_rejected(self):
        with pytest.raises(ScenarioError, match="^scenario 'negative': proportions must be >= 0$"):
            ImbalanceScenario("negative", {Severity(1): -0.5, Severity(2): 1.5})

    def test_bad_distribution_rejected(self):
        with pytest.raises(ScenarioError, match="sum"):
            ImbalanceScenario("broken", {Severity(1): 0.5, Severity(2): 0.2})


class TestImbalanceSuite:
    def setup_suite(self, cfg, fallback_always=False):
        accuracies = {a: 0.7 for a in AgentId}
        confidences = {a: (0.65 if a is AgentId.ML else 0.7) for a in AgentId}
        records = synth.generate_records(400, seed=5, accuracies=accuracies)
        agents = synth.build_hint_agents(cfg, confidences)
        if fallback_always:
            backend = synth.FakeBackend("no structured output here")
        else:
            backend = synth.FakeBackend('{"severity": 2, "confidence": 0.8, "reasoning": "meta"}')
        return records, agents, backend

    def test_twelve_reports_with_stable_keys(self, cfg):
        records, agents, backend = self.setup_suite(cfg)
        results = run_imbalance_suite(
            records, agents, cfg, seed=1, coordination_backend=backend, size=80
        )
        assert set(results) == {s.name for s in default_scenarios()}
        rows = comparison_table(results)
        assert len(rows) == 12

    def test_same_seed_reproduces_reports(self, cfg):
        records, agents, backend = self.setup_suite(cfg)
        scenarios = default_scenarios()[:2]
        first = run_imbalance_suite(
            records, agents, cfg, scenarios, seed=7, coordination_backend=backend, size=60
        )
        second = run_imbalance_suite(
            records, agents, cfg, scenarios, seed=7, coordination_backend=backend, size=60
        )
        for name in first:
            assert first[name].rule_based == second[name].rule_based
            assert first[name].llm_based == second[name].llm_based

    def test_total_fallback_makes_modes_identical(self, cfg):
        records, agents, backend = self.setup_suite(cfg, fallback_always=True)
        scenarios = default_scenarios()[:1]
        results = run_imbalance_suite(
            records, agents, cfg, scenarios, seed=3, coordination_backend=backend, size=60
        )
        comparison = results["uniform"]
        assert comparison.llm_fallback_rate == 1.0
        assert comparison.llm_based == comparison.rule_based

    def test_each_agent_evaluates_each_drawn_record_once(self, cfg):
        records, agents, backend = self.setup_suite(cfg)
        agents = [CountingAgent(a) for a in agents]
        scenarios = default_scenarios()[:2]
        run_imbalance_suite(records, agents, cfg, scenarios, seed=1, coordination_backend=backend, size=30)
        drawn = {r.id.partition("~")[0] for s in scenarios for r in sample_imbalance(records, s, 1, size=30)}
        assert [a.calls for a in agents] == [len(drawn)] * 5
        assert backend.calls == len(drawn)

    def test_llm_report_equals_a_rerun_in_llm_mode(self, cfg):
        records, agents, _ = self.setup_suite(cfg)
        backend = synth.fallible_coordinator()
        scenario = default_scenarios()[3]
        comparison = run_imbalance_suite(
            records, agents, cfg, [scenario], seed=2, coordination_backend=backend, size=80
        )[scenario.name]
        sampled = sample_imbalance(records, scenario, 2, size=80)
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        results = run_instances(sampled, agents, llm_cfg, coordination_backend=backend)
        assert comparison.llm_based == compute_metrics([d for d, _ in results], [r.label for r in sampled])
        fallbacks = sum(1 for _, t in results if t.coordination.fallback is not None)
        assert 0 < fallbacks and comparison.llm_fallback_rate == fallbacks / 80

    def test_rule_report_equals_a_rerun_in_rule_mode(self, cfg):
        records, agents, _ = self.setup_suite(cfg)
        records = records[:40]  # size 60 draws duplicates, and both scenarios share records
        scenarios = default_scenarios()[:2]
        results = run_imbalance_suite(
            records, agents, cfg, scenarios, seed=4, coordination_backend=synth.fallible_coordinator(), size=60
        )
        rb_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.RULE_BASED)
        drawn = [sample_imbalance(records, s, 4, size=60) for s in scenarios]
        assert all(any("~" in r.id for r in sampled) for sampled in drawn)
        assert {r.id for r in drawn[0]} & {r.id for r in drawn[1]}
        for scenario, sampled in zip(scenarios, drawn):
            rerun = run_instances(sampled, agents, rb_cfg)
            assert results[scenario.name].rule_based == compute_metrics([d for d, _ in rerun], [r.label for r in sampled])

    def test_requires_backend(self, cfg):
        records, agents, _ = self.setup_suite(cfg)
        with pytest.raises(ValueError, match="backend"):
            run_imbalance_suite(records, agents, cfg, seed=1, size=40)

    def test_a_repeated_scenario_name_is_rejected_before_any_agent_runs(self, cfg):
        records, agents, backend = self.setup_suite(cfg)
        agents = [CountingAgent(a) for a in agents]
        uniform, skewed = default_scenarios()[:2]
        scenarios = [uniform, dataclasses.replace(skewed, name="uniform")]
        with pytest.raises(ScenarioError, match="scenario 'uniform' is named more than once"):
            run_imbalance_suite(records, agents, cfg, scenarios, seed=1, coordination_backend=backend, size=20)
        assert [a.calls for a in agents] == [0] * 5 and backend.calls == 0
