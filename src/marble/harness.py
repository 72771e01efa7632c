"""Evaluation harness: classification metrics, agent-ablation runs,
coordination-mode comparison, and class-imbalance robustness sweeps."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .agents.backends import SlmBackend
from .agents.base import Agent
from .coordination import CoordinationMode, CoordinationResult, weighted_scores
from .core import ALL_SEVERITIES, AgentOutput, ConfigError, EngineConfig, Severity, to_json_value
from .decision import FinalDecision
from .engine import fuse, run_instances
from .features import AccidentRecord


class LengthMismatchError(ValueError):
    """Predictions and labels differ in length."""


class ScenarioError(ValueError):
    """An imbalance scenario is malformed or unsatisfiable from the source data."""


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """Confusion-matrix-derived metrics; macro averaging over the 4 classes.

    Abstentions are excluded from the matrix and counted separately, so
    accuracy is taken over the non-abstained predictions.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    per_class: Mapping[Severity, ClassMetrics]
    confusion: tuple[tuple[int, ...], ...]
    abstentions: int

    def to_dict(self) -> dict:
        return to_json_value(self)

    def summary(self) -> dict:
        """The single-number fields, in declaration order: one CSV row."""
        return {k: v for k, v in self.to_dict().items() if not isinstance(v, (dict, list))}


def compute_metrics(decisions: Sequence[object], labels: Sequence[Severity]) -> MetricsReport:
    """Standard 4-class metrics from paired predictions and ground truth. A
    prediction is a FinalDecision, a class (a Severity or plain int) or None."""
    if len(decisions) != len(labels):
        raise LengthMismatchError(f"{len(decisions)} decisions vs {len(labels)} labels")
    index = {k: i for i, k in enumerate(ALL_SEVERITIES)}
    matrix = [[0] * 4 for _ in range(4)]
    abstentions = 0
    for decision, label in zip(decisions, labels):
        prediction = decision.prediction if isinstance(decision, FinalDecision) else decision
        if prediction is None:
            abstentions += 1
            continue
        matrix[index[Severity(label)]][index[prediction]] += 1
    total = sum(sum(row) for row in matrix)
    correct = sum(matrix[i][i] for i in range(4))
    per_class: dict[Severity, ClassMetrics] = {}
    for k in ALL_SEVERITIES:
        i = index[k]
        tp = matrix[i][i]
        predicted = sum(matrix[r][i] for r in range(4))
        support = sum(matrix[i])
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[k] = ClassMetrics(precision, recall, f1, support)
    return MetricsReport(
        accuracy=correct / total if total else 0.0,
        precision=sum(m.precision for m in per_class.values()) / 4,
        recall=sum(m.recall for m in per_class.values()) / 4,
        f1=sum(m.f1 for m in per_class.values()) / 4,
        per_class=per_class,
        confusion=tuple(tuple(row) for row in matrix),
        abstentions=abstentions,
    )


def majority_vote_coordinator(outputs: Sequence[AgentOutput], cfg: EngineConfig) -> CoordinationResult:
    """Degraded coordinator for the ablation study: unweighted one-agent-one-vote.

    The supporters are those of ``weighted_scores``, scored by count. Ties
    prefer rare classes, then the lower class index; confidence is the plain
    mean over the winning class's supporters, capped like the rule-based
    path. Takes the live outputs ``fuse`` passes, as ``coordinate_rb`` does.
    """
    tally = weighted_scores(outputs, cfg)
    breakdown = replace(tally, scores={k: float(len(v)) for k, v in tally.supporters.items()})
    winner = min(ALL_SEVERITIES, key=lambda k: (-breakdown.scores[k], 0 if k.is_rare else 1, int(k)))
    confidences = [o.confidence for o in outputs if o.prediction == winner]
    return CoordinationResult(
        prediction=winner,
        confidence=min(cfg.confidence_cap, sum(confidences) / len(confidences)),
        method=CoordinationMode.RULE_BASED,
        breakdown=breakdown,
    )


def run_ablation(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    *,
    coordination_backend: SlmBackend | None = None,
) -> dict[str, MetricsReport]:
    """Remove each agent in turn while holding everything else constant.

    Returns the baseline under key "none", one report per excluded agent,
    and a "coordinator" entry where rule-based fusion degrades to an
    unweighted majority vote: K agents give K+2 reports. The agents run once
    per record; every variant re-fuses those same outputs (a paired
    comparison), which agents' statelessness makes equal to a rerun.
    """
    if len(agents) < 2:
        raise ConfigError("ablation needs at least two agents")
    labels = [r.label for r in records]
    if None in labels:
        raise ValueError("evaluation records must all carry labels")
    results = run_instances(records, agents, cfg, coordination_backend=coordination_backend)
    reports = {"none": compute_metrics([d for d, _ in results], labels)}
    variants = [(a.identity().value, a.identity(), None) for a in agents]
    for key, excluded, coordinator in variants + [("coordinator", None, majority_vote_coordinator)]:
        kept = ([o for o in trace.agent_outputs if o.agent is not excluded] for _, trace in results)
        decisions = [fuse(o, cfg, coordination_backend=coordination_backend, coordinator=coordinator)[1] for o in kept]
        reports[key] = compute_metrics(decisions, labels)
    return reports


def relative_accuracy_drops(reports: Mapping[str, MetricsReport]) -> dict[str, float]:
    """Relative accuracy drop of every exclusion against the "none" baseline."""
    baseline = reports["none"].accuracy
    return {
        key: (baseline - report.accuracy) / baseline if baseline else 0.0
        for key, report in reports.items()
        if key != "none"
    }


@dataclass(frozen=True)
class ImbalanceScenario:
    """A named target label distribution; proportions sum to one."""

    name: str
    distribution: Mapping[Severity, float]

    def __post_init__(self) -> None:
        if not all(p >= 0 for p in self.distribution.values()):  # NaN fails too
            raise ScenarioError(f"scenario {self.name!r}: proportions must be >= 0")
        total = sum(self.distribution.values())
        if abs(total - 1.0) > 1e-9:
            raise ScenarioError(f"scenario {self.name!r}: proportions sum to {total}, not 1")


def check_scenario_names(scenarios: Sequence[ImbalanceScenario]) -> None:
    """Reject two scenarios of one name: each name keys one report."""
    for i, scenario in enumerate(scenarios):
        if any(s.name == scenario.name for s in scenarios[:i]):
            raise ScenarioError(f"scenario {scenario.name!r} is named more than once; each name keys one report")


def default_scenarios() -> list[ImbalanceScenario]:
    """Six stock distributions, from balanced to heavily skewed.

    Named after the robustness-sweep settings; the exact proportions are
    approximations and fully configurable.
    """
    def dist(p1: float, p2: float, p3: float, p4: float) -> dict[Severity, float]:
        return dict(zip(ALL_SEVERITIES, (p1, p2, p3, p4)))

    return [
        ImbalanceScenario("uniform", dist(0.25, 0.25, 0.25, 0.25)),
        ImbalanceScenario("mild_skew_common", dist(0.10, 0.40, 0.40, 0.10)),
        ImbalanceScenario("heavy_skew_common", dist(0.08, 0.50, 0.34, 0.08)),
        ImbalanceScenario("rare_fatal", dist(0.15, 0.45, 0.35, 0.05)),
        ImbalanceScenario("minor_fatal", dist(0.45, 0.05, 0.05, 0.45)),
        ImbalanceScenario("skew_rare", dist(0.35, 0.15, 0.15, 0.35)),
    ]


def sample_imbalance(
    records: Sequence[AccidentRecord],
    scenario: ImbalanceScenario,
    seed: int,
    *,
    size: int | None = None,
) -> list[AccidentRecord]:
    """Resample records to match the scenario's label distribution.

    Per-class counts follow the largest-remainder method, so they land
    within one record of the exact target. Classes short on source records
    are drawn with replacement, each copy under an id no other record holds.
    Deterministic per seed.
    """
    size = len(records) if size is None else size
    if size < 0:
        raise ScenarioError(f"scenario {scenario.name!r}: size must be >= 0, got {size}")
    pools: dict[Severity, list[AccidentRecord]] = {k: [] for k in ALL_SEVERITIES}
    for record in records:
        if record.label is not None:
            pools[record.label].append(record)
    targets = _largest_remainder_counts(scenario.distribution, size)
    for k, count in targets.items():
        if count > 0 and not pools[k]:
            raise ScenarioError(
                f"scenario {scenario.name!r} requests class {int(k)} but the source has none"
            )
    rng = random.Random(seed)
    sampled: list[AccidentRecord] = []
    for k in ALL_SEVERITIES:
        pool, count = pools[k], targets[k]  # sampling none draws no random number
        if count <= len(pool):
            sampled.extend(rng.sample(pool, count))
        else:
            sampled.extend(pool + rng.choices(pool, k=count - len(pool)))
    rng.shuffle(sampled)
    # Re-id duplicates from replacement sampling so ids stay unique: the nth
    # copy of "a" is "a~n", or the next "a~m" that no record holds yet.
    taken = {r.id for r in sampled}
    copies: dict[str, int] = {}
    out: list[AccidentRecord] = []
    for record in sampled:
        n = copies.get(record.id, 0)
        while n and f"{record.id}~{n}" in taken:
            n += 1
        copies[record.id] = n + 1
        if n:
            taken.add(f"{record.id}~{n}")
            record = AccidentRecord(f"{record.id}~{n}", record.features, record.label)
        out.append(record)
    return out


def _largest_remainder_counts(
    distribution: Mapping[Severity, float], size: int
) -> dict[Severity, int]:
    raw = {k: distribution.get(k, 0.0) * size for k in ALL_SEVERITIES}
    counts = {k: int(raw[k]) for k in ALL_SEVERITIES}
    shortfall = size - sum(counts.values())
    by_remainder = sorted(ALL_SEVERITIES, key=lambda k: (raw[k] - counts[k], -int(k)), reverse=True)
    for k in by_remainder[:shortfall]:
        counts[k] += 1
    return counts


@dataclass(frozen=True)
class ScenarioComparison:
    scenario: str
    distribution: Mapping[Severity, float]
    rule_based: MetricsReport
    llm_based: MetricsReport
    llm_fallback_rate: float

    def to_dict(self) -> dict:
        return to_json_value(self)


def run_imbalance_suite(
    records: Sequence[AccidentRecord],
    agents: Sequence[Agent],
    cfg: EngineConfig,
    scenarios: Sequence[ImbalanceScenario] | None = None,
    seed: int = 0,
    *,
    coordination_backend: SlmBackend | None = None,
    size: int | None = None,
) -> dict[str, ScenarioComparison]:
    """Draw every scenario, run the agents once per distinct record drawn, fuse
    each record's outputs under both coordination modes (a paired comparison),
    and report both per scenario, plus the LLM fallback rate."""
    if coordination_backend is None:
        raise ValueError("the imbalance suite compares both modes; a coordination backend is required")
    scenarios = list(scenarios) if scenarios is not None else default_scenarios()
    check_scenario_names(scenarios)
    rb_cfg = replace(cfg, coordination_mode=CoordinationMode.RULE_BASED)
    llm_cfg = replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
    drawn = [sample_imbalance(records, scenario, seed, size=size) for scenario in scenarios]
    # Agents see only a record's features, and a resampled duplicate shares its
    # source's features mapping: one result per mapping serves every draw of it.
    distinct = {id(r.features): r for sampled in drawn for r in sampled}
    rb_results = run_instances(list(distinct.values()), agents, rb_cfg)
    llm_results = [fuse(t.agent_outputs, llm_cfg, coordination_backend=coordination_backend) for _, t in rb_results]
    by_features = dict(zip(distinct, zip(rb_results, llm_results)))
    results: dict[str, ScenarioComparison] = {}
    for scenario, sampled in zip(scenarios, drawn):
        labels = [r.label for r in sampled]
        runs = [by_features[id(r.features)] for r in sampled]
        fallbacks = sum(1 for _, (coordination, _) in runs if coordination is not None and coordination.fallback)
        results[scenario.name] = ScenarioComparison(
            scenario=scenario.name,
            distribution=scenario.distribution,
            rule_based=compute_metrics([d for (d, _), _ in runs], labels),
            llm_based=compute_metrics([d for _, (_, d) in runs], labels),
            llm_fallback_rate=fallbacks / len(sampled) if sampled else 0.0,
        )
    return results


def comparison_table(results: Mapping[str, ScenarioComparison]) -> list[dict]:
    """Flat rows (one per scenario and mode) suitable for CSV output."""
    rows: list[dict] = []
    for name, comparison in results.items():
        for mode, report in (("rule", comparison.rule_based), ("llm", comparison.llm_based)):
            fallback_rate = comparison.llm_fallback_rate if mode == "llm" else 0.0
            rows.append({"scenario": name, "mode": mode, **report.summary(), "llm_fallback_rate": fallback_rate})
    return rows
