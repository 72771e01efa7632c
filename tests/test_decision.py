from __future__ import annotations

from dataclasses import replace

import pytest

from marble.coordination import CoordinationResult
from marble.core import AgentId, AgentOutput, CoordinationMode, Severity
from marble.decision import DecisionSource, abstain, final_decide
from marble.engine import fuse


def coord(prediction: int, confidence: float) -> CoordinationResult:
    return CoordinationResult(
        prediction=Severity(prediction),
        confidence=confidence,
        method=CoordinationMode.RULE_BASED,
    )


class TestCascade:
    def test_rule2_confident_rare_coordinator(self, cfg, out):
        decision = final_decide(out(AgentId.ML, 3, 0.7), coord(4, 0.45), False, cfg)
        assert (int(decision.prediction), decision.confidence) == (4, 0.45)
        assert decision.source is DecisionSource.COORDINATOR
        assert decision.rule_fired == 2

    def test_rule3_weighted_comparison_favors_ml(self, cfg, out):
        # 0.35 fails the rare threshold; then 0.7 * 0.5 > 0.35 * 0.5.
        decision = final_decide(out(AgentId.ML, 3, 0.7), coord(4, 0.35), False, cfg)
        assert (int(decision.prediction), decision.confidence) == (3, 0.7)
        assert decision.source is DecisionSource.ML
        assert decision.rule_fired == 3

    def test_rule1_override_short_circuits(self, cfg, out):
        decision = final_decide(out(AgentId.ML, 2, 0.82), coord(4, 0.99), True, cfg)
        assert (int(decision.prediction), decision.confidence) == (2, 0.82)
        assert decision.source is DecisionSource.ML
        assert decision.rule_fired == 1

    def test_rule4_default_to_coordinator(self, cfg, out):
        # Rule 2 fails (0.3 < 0.5 common), rule 3 fails (0.1 * 0.5 = 0.05
        # is not > 0.3 * 0.5 = 0.15).
        decision = final_decide(out(AgentId.ML, 2, 0.1), coord(3, 0.3), False, cfg)
        assert int(decision.prediction) == 3
        assert decision.rule_fired == 4

    def test_rule3_weight_is_evaluated_on_the_ml_class(self, cfg, out):
        # Rare ML candidate gets w1 = 0.7: 0.4 * 0.7 = 0.28 > 0.3 * 0.3 = 0.09.
        decision = final_decide(out(AgentId.ML, 4, 0.4), coord(2, 0.3), False, cfg)
        assert decision.rule_fired == 3
        assert int(decision.prediction) == 4

    def test_missing_ml_skips_rules_1_and_3(self, cfg):
        decision = final_decide(None, coord(2, 0.2), True, cfg)
        assert decision.source is DecisionSource.COORDINATOR
        assert decision.rule_fired == 4

    def test_failed_ml_treated_as_absent(self, cfg, out):
        # ``fuse`` drops the failed ML output before the cascade runs, though
        # its confidence would clear the override threshold.
        failed_ml = replace(AgentOutput.failure(AgentId.ML, "parse", 1), confidence=0.9)
        for confidence, rule in ((0.9, 2), (0.1, 4)):
            _, decision = fuse([failed_ml, out(AgentId.SPATIAL, 2, confidence)], cfg)
            assert (decision.source, decision.rule_fired) == (DecisionSource.COORDINATOR, rule)

    def test_strict_threshold_comparison(self, cfg, out):
        # Confidence exactly at the threshold does not satisfy rule 2.
        decision = final_decide(out(AgentId.ML, 2, 0.9), coord(3, 0.5), False, cfg)
        assert decision.rule_fired != 2

    def test_confidence_is_never_blended(self, cfg, out):
        ml = out(AgentId.ML, 1, 0.66)
        c = coord(2, 0.44)
        decision = final_decide(ml, c, False, cfg)
        assert decision.confidence in (ml.confidence, c.confidence)


class TestProperties:
    def test_exactly_one_rule_fires_over_a_grid(self, cfg, out):
        for ml_conf10 in range(11):
            for coord_conf10 in range(11):
                for ml_class in (1, 2, 3, 4):
                    for coord_class in (1, 2, 3, 4):
                        for override in (False, True):
                            decision = final_decide(
                                out(AgentId.ML, ml_class, ml_conf10 / 10),
                                coord(coord_class, coord_conf10 / 10),
                                override,
                                cfg,
                            )
                            assert decision.rule_fired in (1, 2, 3, 4)

    def test_monotone_in_coordinator_confidence(self, cfg, out):
        # Raising the coordinator's confidence never flips the decision
        # from coordinator back to ML.
        ml = out(AgentId.ML, 3, 0.6)
        for coord_class in (1, 2, 3, 4):
            previous_source = None
            for conf10 in range(11):
                decision = final_decide(ml, coord(coord_class, conf10 / 10), False, cfg)
                if previous_source is DecisionSource.COORDINATOR:
                    assert decision.source is DecisionSource.COORDINATOR
                previous_source = decision.source


class TestAbstain:
    def test_marker_shape(self):
        marker = abstain()
        assert marker.abstained
        assert marker.prediction is None
        assert marker.rule_fired == 0
        assert marker.source is DecisionSource.ABSTAIN
