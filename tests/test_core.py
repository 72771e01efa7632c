from __future__ import annotations

import dataclasses

import pytest

from marble.core import (
    SLM_AGENT_IDS,
    AgentId,
    AgentOutput,
    CalibrationParams,
    ConfigError,
    CoordinationMode,
    EngineConfig,
    Severity,
    load_config,
    validate_config,
)


class TestSeverity:
    def test_valid_classes(self):
        assert [int(Severity(k)) for k in (1, 2, 3, 4)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("bad", [0, 5, -1, 7])
    def test_construction_from_other_integers_fails(self, bad):
        with pytest.raises(ValueError):
            Severity(bad)

    def test_rarity(self):
        assert Severity(1).is_rare and Severity(4).is_rare
        assert not Severity(2).is_rare and not Severity(3).is_rare


class TestAgentId:
    def test_exactly_five_members(self):
        assert len(list(AgentId)) == 5

    def test_slm_set_excludes_ml(self):
        assert len(SLM_AGENT_IDS) == 4
        assert AgentId.ML not in SLM_AGENT_IDS


class TestAgentOutput:
    def test_confidence_bounds_enforced(self):
        with pytest.raises(ValueError):
            AgentOutput(agent=AgentId.SPATIAL, prediction=Severity(2), confidence=1.2)

    def test_non_failed_requires_prediction(self):
        with pytest.raises(ValueError):
            AgentOutput(agent=AgentId.SPATIAL, prediction=None, confidence=0.5)

    def test_failed_output_has_no_prediction(self):
        o = AgentOutput(
            agent=AgentId.SPATIAL, prediction=None, confidence=0.0, failed=True, failure_kind="parse"
        )
        assert o.failed and o.prediction is None

    def test_ml_reasoning_must_be_empty(self):
        with pytest.raises(ValueError):
            AgentOutput(
                agent=AgentId.ML, prediction=Severity(2), confidence=0.5, reasoning="because"
            )


class TestConfigValidation:
    def test_all_defaults_accepted(self):
        cfg = validate_config(EngineConfig())
        assert cfg.agent_weights[AgentId.ML] == 3.0
        assert cfg.agent_weights[AgentId.ENVIRONMENTAL] == 1.5
        assert cfg.agent_weights[AgentId.INFRASTRUCTURAL] == 1.2
        assert cfg.class_factors[Severity(1)] == 1.2
        assert cfg.class_factors[Severity(2)] == 1.0
        assert cfg.tau_coord_rare < cfg.tau_coord_common

    def test_zero_ml_weight_rejected(self):
        weights = dict(EngineConfig().agent_weights)
        weights[AgentId.ML] = 0.0
        with pytest.raises(ConfigError, match=r"agent_weights\.ML must be > 0"):
            validate_config(dataclasses.replace(EngineConfig(), agent_weights=weights))

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(ConfigError, match=r"tau_ml_high must lie in \[0,1\]"):
            validate_config(dataclasses.replace(EngineConfig(), tau_ml_high=1.3))

    def test_cap_below_gate_rejected(self):
        cal = CalibrationParams(high_cap=0.5, high_gate=0.8)
        with pytest.raises(ConfigError, match="high_cap"):
            validate_config(dataclasses.replace(EngineConfig(), calibration=cal))

    def test_zero_class_factor_rejected(self):
        factors = dict(EngineConfig().class_factors)
        factors[Severity(1)] = 0.0
        with pytest.raises(ConfigError, match=r"class_factors\.1 must be > 0"):
            validate_config(dataclasses.replace(EngineConfig(), class_factors=factors))

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigError, match="agent_timeout_ms"):
            validate_config(dataclasses.replace(EngineConfig(), agent_timeout_ms=0))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"tie_epsilon": float("nan")}, "tie_epsilon"),
            ({"agent_timeout_ms": float("inf")}, "agent_timeout_ms"),
            ({"decoding": {"temperature": float("nan")}}, "decoding.temperature"),
            ({"agent_weights": {"ml": float("inf")}}, "agent_weights.ML"),
            ({"class_factors": {"4": float("inf")}}, "class_factors.4"),
            ({"agent_timeout_ms": 10**400}, "agent_timeout_ms"),
        ],
    )
    def test_non_finite_numbers_rejected(self, overrides, field):
        cfg = EngineConfig.from_dict(overrides)
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"agent_timeout_ms": "8000"}, "agent_timeout_ms"),
            ({"tau_ml_high": None}, "tau_ml_high"),
            ({"boost_rare": True}, "boost_rare"),
            ({"calibration": {"mid_gate": "0.6"}}, "calibration.mid_gate"),
            ({"decoding": {"max_new_tokens": [256]}}, "decoding.max_new_tokens"),
        ],
    )
    def test_non_numeric_scalars_rejected(self, overrides, field):
        cfg = EngineConfig.from_dict(overrides)
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"agent_weights": {"ml": "heavy"}}, "agent_weights.ML"),
            ({"agent_weights": {"spatial": "2"}}, "agent_weights.SPATIAL"),
            ({"agent_weights": {"temporal": True}}, "agent_weights.TEMPORAL"),
            ({"agent_weights": {"ml": 10**400}}, "agent_weights.ML"),
            ({"class_factors": {"4": "high"}}, "class_factors.4"),
            ({"class_factors": {"1": None}}, "class_factors.1"),
        ],
    )
    def test_non_numeric_weights_and_factors_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            validate_config(EngineConfig.from_dict(overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"fallback_confidence": 0.96}, "fallback_confidence must be <= confidence_cap"),
            ({"confidence_cap": 0.05}, "fallback_confidence must be <= confidence_cap"),
            ({"tau_ml_high": 0.85}, "tau_ml_high must be <= tau_ml_corrob"),
        ],
    )
    def test_crossed_bounds_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(EngineConfig.from_dict(overrides))


class TestConfigSerialization:
    def test_round_trip_identity(self):
        cfg = EngineConfig()
        assert EngineConfig.from_json(cfg.to_json()) == cfg

    def test_round_trip_of_customized_config(self):
        cfg = dataclasses.replace(
            EngineConfig(),
            tau_ml_high=0.7,
            boost_rare=0.2,
            coordination_mode=CoordinationMode.LLM_BASED,
        )
        assert EngineConfig.from_json(cfg.to_json()) == cfg

    def test_partial_dict_fills_defaults(self):
        cfg = EngineConfig.from_dict({"tau_coord_rare": 0.3})
        assert cfg.tau_coord_rare == 0.3
        assert cfg.tau_coord_common == 0.5
        assert cfg.agent_weights[AgentId.ML] == 3.0

    @pytest.mark.parametrize("field", ["agent_weights", "class_factors", "calibration", "decoding", "endpoint"])
    @pytest.mark.parametrize("value", [[1], None])
    def test_non_object_sections_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a JSON object$"):
            EngineConfig.from_dict({field: value})

    @pytest.mark.parametrize("text", ["[[1]]", "null", "3", '"config"'])
    def test_non_object_config_file_rejected(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            EngineConfig.from_dict({"tau_typo": 0.3})

    def test_int_weights_and_factors_fingerprint_as_floats(self):
        ints = EngineConfig.from_dict({"agent_weights": {"ml": 3, "spatial": 1}, "class_factors": {"1": 2}})
        floats = EngineConfig.from_dict({"agent_weights": {"ml": 3.0, "spatial": 1.0}, "class_factors": {"1": 2.0}})
        assert ints.to_dict()["agent_weights"] == {"ml": 3.0, "spatial": 1.0}
        assert ints.fingerprint() == floats.fingerprint()

    def test_fingerprint_tracks_content(self):
        base = EngineConfig()
        changed = dataclasses.replace(base, boost_common=0.06)
        assert base.fingerprint() == EngineConfig().fingerprint()
        assert base.fingerprint() != changed.fingerprint()
