from __future__ import annotations

import dataclasses
import functools
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path
from typing import Optional, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marble.agents import ScriptedBackend, SlmAgent
from marble.core import (
    AGENT_ORDER,
    SLM_AGENT_IDS,
    AgentId,
    AgentOutput,
    CalibrationParams,
    ConfigError,
    CoordinationMode,
    DecodingParams,
    EndpointParams,
    EngineConfig,
    NonNegative,
    OpenUnit,
    Positive,
    PositiveInt,
    Severity,
    TimeoutMs,
    Unit,
    from_json_value,
    load_config,
    to_json_value,
    validate_config,
)
from marble.coordination import check_ml_override, coordinate_rb, weighted_avg_confidence
from marble.engine import fuse, run_batch
from marble.features import AccidentRecord, FeatureValue, default_registry, project
import synth
from synth import LARGEST_PAIR, FakeBackend, ScriptedAgent, accepted, largest_admitted


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

    @pytest.mark.parametrize(
        "fields",
        [
            dict(prediction=Severity(2), confidence=0.9, failure_kind="parse"),
            dict(prediction=Severity(2), confidence=0.9, failed=True, failure_kind="parse"),
            dict(prediction=None, confidence=0.0, failed=True),
        ],
        ids=["kind-but-not-failed", "failed-with-a-prediction", "failed-without-a-kind"],
    )
    def test_failed_agrees_with_its_kind_and_prediction(self, fields):
        # A live-looking output that names a failure would win rule 1 while
        # its trace says it failed.
        with pytest.raises(ValueError, match="output requires a (prediction|failure_kind), and"):
            AgentOutput(AgentId.ML, **fields)

    @pytest.mark.parametrize(
        "agent, prediction, message",
        [
            (AgentId.ML, 2, "prediction must be a Severity or None, not 2"),
            (AgentId.ML, True, "prediction must be a Severity or None, not True"),
            (AgentId.SPATIAL, 9, "prediction must be a Severity or None, not 9"),
            ("ml", Severity(2), "agent must be an AgentId, not 'ml'"),
        ],
    )
    def test_agent_and_prediction_are_their_enums(self, agent, prediction, message):
        # A stand-in model returning ``int(...)`` would otherwise fail deep in Stage 3.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AgentOutput(agent, prediction, 0.9)

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
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            validate_config(EngineConfig.from_dict(overrides))

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
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            validate_config(EngineConfig.from_dict(overrides))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"tie_epsilon": float("nan")}, "tie_epsilon must be a finite number"),
            ({"agent_timeout_ms": float("inf")}, "agent_timeout_ms must be a finite number"),
            ({"agent_timeout_ms": 10**400}, "agent_timeout_ms must be a finite number"),
            ({"decoding": DecodingParams(temperature=float("nan"))}, "decoding.temperature must be a finite number"),
            ({"agent_weights": {AgentId.ML: float("inf")}}, "agent_weights.ML must be a finite number"),
            ({"class_factors": {Severity(4): float("inf")}}, "class_factors.4 must be a finite number"),
            ({"agent_timeout_ms": "8000"}, "agent_timeout_ms must be a finite number"),
            ({"tau_ml_high": None}, "tau_ml_high must be a finite number"),
            ({"boost_rare": True}, "boost_rare must be a finite number"),
            ({"calibration": CalibrationParams(mid_gate="0.6")}, "calibration.mid_gate must be a finite number"),
            ({"decoding": DecodingParams(max_new_tokens=[256])}, "decoding.max_new_tokens must be a finite number"),
            ({"agent_timeout_ms": 2.5}, "agent_timeout_ms must be a whole number"),
            ({"endpoint": EndpointParams(api_key_env=5)}, "endpoint.api_key_env must be a string"),
            ({"endpoint": EndpointParams(send_repetition_penalty="false")}, "endpoint.send_repetition_penalty must be a boolean"),
            ({"coordination_mode": "bogus"}, "coordination_mode must be one of"),
            ({"calibration": None}, "calibration must be a JSON object"),
        ],
    )
    def test_configs_built_in_code_meet_the_same_checks(self, changes, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            validate_config(dataclasses.replace(EngineConfig(), **changes))

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"coordination_mode": "llm"}, "coordination_mode"),
            ({"agent_weights": {"ml": 3.0, "spatial": 1.0}}, "agent_weights"),
            ({"calibration": {"high_cap": 0.9}}, "calibration"),
        ],
    )
    def test_a_field_set_in_code_to_its_json_form_is_rejected(self, changes, field):
        # The engine would test ``is CoordinationMode.LLM_BASED`` and look
        # weights up by AgentId: a value that only serializes like the right
        # one must not validate.
        with pytest.raises(ConfigError, match=f"^{field} must be set as its declared type"):
            validate_config(dataclasses.replace(EngineConfig(), **changes))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"endpoint": {"url": "http://127.0.0.1:9/v1", "api_key_env": 5}}, "endpoint.api_key_env must be a string"),
            ({"endpoint": {"url": 7}}, "endpoint.url must be a string"),
            ({"endpoint": {"model": None}}, "endpoint.model must be a string"),
            ({"endpoint": {"send_repetition_penalty": "false"}}, "endpoint.send_repetition_penalty must be a boolean"),
            ({"endpoint": {"send_repetition_penalty": 0}}, "endpoint.send_repetition_penalty must be a boolean"),
            ({"agent_timeout_ms": 2.5}, "agent_timeout_ms must be a whole number"),
            ({"decoding": {"max_new_tokens": 2.5}}, "decoding.max_new_tokens must be a whole number"),
            ({"agent_timeout_ms": 1e13}, "agent_timeout_ms must be <= 86400000"),
        ],
    )
    def test_fields_of_the_wrong_json_type_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(EngineConfig.from_dict(overrides))

    def test_whole_numbers_read_as_ints(self):
        cfg = validate_config(EngineConfig.from_dict({"agent_timeout_ms": 8000.0, "decoding": {"max_new_tokens": 256.0}}))
        assert type(cfg.agent_timeout_ms) is int and type(cfg.decoding.max_new_tokens) is int
        assert cfg.fingerprint() == EngineConfig().fingerprint()

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
        "overrides, field",
        [
            ({"agent_weights": {"ml": 3.0, "ML": 1.0}}, "agent_weights.ML"),
            ({"agent_weights": {"Spatial": 1.0, "spatial": 1.0}}, "agent_weights.SPATIAL"),
            ({"class_factors": {"1": 1.2, "01": 9}}, "class_factors.1"),
        ],
    )
    def test_two_keys_of_one_agent_or_class_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=f"^{field} is given twice$"):
            EngineConfig.from_dict(overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"class_factors": {"1": 1.2, "5": 1.0}}, "class_factors: severity class keys must be 1-4, got '5'"),
            ({"agent_weights": {"pilot": 1.0}}, "agent_weights: unknown agent id: pilot"),
        ],
    )
    def test_a_key_that_names_no_class_or_agent_is_rejected_naming_its_mapping(self, overrides, message):
        with pytest.raises(ConfigError) as caught:
            EngineConfig.from_dict(overrides)
        assert str(caught.value) == message

    def test_empty_agent_weights_rejected(self):
        with pytest.raises(ConfigError, match="^agent_weights must not be empty$"):
            validate_config(EngineConfig.from_dict({"agent_weights": {}}))

    def test_a_missing_class_factor_is_named_as_missing(self):
        with pytest.raises(ConfigError, match=r"^class_factors\.2 is missing$"):
            validate_config(EngineConfig.from_dict({"class_factors": {"1": 1.2, "3": 1.0, "4": 1.2}}))

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

    @pytest.mark.parametrize(
        "url", ["ftp://127.0.0.1/x", "http:///no-host", "http://127.0.0.1:0/x", "http://[::1", "http://user@host/x"]
    )
    def test_an_unusable_endpoint_url_is_rejected_with_the_config(self, url):
        # By the rule ``RemoteHttpBackend`` applies, so a run whose every role is scripted rejects it too.
        shape = f"endpoint.url {url!r} must look like http(s)://host[:port]/path"
        credential = "endpoint.url must not hold credentials; endpoint.api_key_env names the key's variable"
        with pytest.raises(ConfigError) as caught:
            validate_config(EngineConfig(endpoint=EndpointParams(url=url)))
        assert str(caught.value) == (credential if "@" in url else shape)


class TestConfigSerialization:
    def test_round_trip_identity(self):
        cfg = EngineConfig()
        assert EngineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_round_trip_of_customized_config(self):
        cfg = dataclasses.replace(
            EngineConfig(),
            tau_ml_high=0.7,
            boost_rare=0.2,
            coordination_mode=CoordinationMode.LLM_BASED,
        )
        assert EngineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

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

    def test_a_key_given_twice_in_a_config_file_is_rejected(self, tmp_path):
        # Read leniently, the later weight would win: ML would weigh 1.0.
        path = tmp_path / "config.json"
        path.write_text('{"agent_weights": {"ml": 3.0, "ml": 1.0}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: key 'ml' is given twice in one object$"):
            load_config(path)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            EngineConfig.from_dict({"tau_typo": 0.3})

    def test_int_weights_and_factors_fingerprint_as_floats(self):
        ints = EngineConfig.from_dict({"agent_weights": {"ml": 3, "spatial": 1}, "class_factors": {"1": 2}})
        floats = EngineConfig.from_dict({"agent_weights": {"ml": 3.0, "spatial": 1.0}, "class_factors": {"1": 2.0}})
        assert ints.to_dict()["agent_weights"] == {"ml": 3.0, "spatial": 1.0}
        assert ints.fingerprint() == floats.fingerprint()

    @pytest.mark.parametrize(
        "tp, good, bad, message",
        [
            (Severity | None, Severity(3), "3", "must be one of"),
            (Optional[Severity], Severity(3), True, "must be one of"),
            (str | None, "timeout", 3, "must be a string"),
            (Optional[str], "timeout", ["timeout"], "must be a string"),
        ],
    )
    def test_optional_types_read_null_or_the_inner_type(self, tp, good, bad, message):
        assert from_json_value(tp, None, "out.field") is None
        assert from_json_value(tp, to_json_value(good), "out.field") == good
        with pytest.raises(ConfigError, match=f"^out.field {message}"):
            from_json_value(tp, bad, "out.field")

    def test_agent_outputs_read_back(self):
        outputs = [
            AgentOutput(AgentId.SPATIAL, Severity(4), 0.7, reasoning="r", raw_confidence=0.6, notes=("n",)),
            AgentOutput(AgentId.ML, None, 0.0, failed=True, failure_kind="timeout"),
        ]
        for output in outputs:
            assert from_json_value(AgentOutput, to_json_value(output)) == output

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("", {"prediction": 2, "confidence": 0.5}, "^agent is missing$"),
            ("outputs[1]", {"agent": "ml", "prediction": None, "confidence": 0.5}, r"^outputs\[1\]: non-failed output"),
        ],
    )
    def test_a_constructor_failure_is_a_named_config_error(self, name, value, message):
        with pytest.raises(ConfigError, match=message):
            from_json_value(AgentOutput, value, name)

    def test_fingerprints_are_pinned(self):
        assert EngineConfig().fingerprint() == "3e93f442105fb7ca"
        llm = EngineConfig.from_dict({"coordination_mode": "llm", "agent_timeout_ms": 250})
        assert llm.fingerprint() == "8aa145de11360d60"

    def test_fingerprint_tracks_content(self):
        base = EngineConfig()
        changed = dataclasses.replace(base, boost_common=0.06)
        assert base.fingerprint() == EngineConfig().fingerprint()
        assert base.fingerprint() != changed.fingerprint()


# Any JSON value, for the fields that should reject it.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# Values inside each declared range, extremes included.
_positive = st.floats(0, exclude_min=True, allow_infinity=False)
_in_range = {
    Unit: st.floats(0, 1),
    OpenUnit: st.floats(0, 1, exclude_min=True),
    Positive: _positive,
    NonNegative: st.floats(0, allow_infinity=False),
    PositiveInt: st.integers(1, 2**64),
    TimeoutMs: st.integers(1, 86_400_000) | st.sampled_from([1.0, 250.0]),
    bool: st.booleans(),
    str: st.text(max_size=8),
    CoordinationMode: st.sampled_from(["rule", "llm"]),
}
_agent_keys = [a.value for a in AgentId] + ["ML", "Spatial"]
_weights = st.dictionaries(
    st.sampled_from(_agent_keys), st.floats(sys.float_info.min, allow_infinity=False), min_size=1, max_size=6
)
_factors = st.fixed_dictionaries({k: _positive for k in "1234"})
# The mappings, in range and (second) wild: unknown keys, missing classes.
_mappings = {
    "agent_weights": (_weights, _weights | st.dictionaries(st.sampled_from(_agent_keys + ["pilot"]), _positive | _json)),
    "class_factors": (_factors, _factors | st.dictionaries(st.sampled_from(["1", "4", "0", "x"]), _positive | _json)),
}


def _documents(cls, wild):
    """Objects of some of ``cls``'s fields, each in range or, when ``wild``,
    sometimes any JSON value, plus sometimes an unknown field."""
    leaves = {}
    for name, tp in get_type_hints(cls, include_extras=True).items():
        if dataclasses.is_dataclass(tp):
            leaves[name] = _documents(tp, wild)
        elif name in _mappings:
            leaves[name] = _mappings[name][wild]
        else:
            leaves[name] = _in_range[tp]
        if wild:
            leaves[name] |= _json
    if wild:
        leaves["typo"] = _json
    return st.fixed_dictionaries({}, optional=leaves)


config_documents = _documents(EngineConfig, wild=False) | _documents(EngineConfig, wild=True) | _json


@st.composite
def agent_outputs(draw):
    agents = draw(st.lists(st.sampled_from(list(AgentId)), unique=True, max_size=5))
    outputs = []
    for agent in agents:
        if draw(st.booleans()):
            outputs.append(AgentOutput(agent, None, 0.0, failed=True, failure_kind="parse"))
        else:
            outputs.append(AgentOutput(agent, Severity(draw(st.integers(1, 4))), draw(st.floats(0, 1))))
    return outputs


_replies = st.sampled_from(
    ['{"severity": 4, "confidence": 0.97, "reasoning": "r"}', '{"severity": 1, "confidence": 0.7}', "no answer"]
) | st.text(max_size=30)
_RECORD = AccidentRecord(
    "r", {name: FeatureValue.categorical("x") for names in default_registry().domains.values() for name in names}
)


class TestEveryValidConfigRuns:
    @given(config_documents, agent_outputs(), _replies)
    @settings(max_examples=400, deadline=None)
    def test_a_config_either_fails_validation_or_runs(self, doc, outputs, reply):
        try:
            cfg = validate_config(EngineConfig.from_dict(doc))
        except ConfigError:
            return
        assert EngineConfig.from_dict(cfg.to_dict()) == cfg
        for mode in CoordinationMode:
            fuse(outputs, dataclasses.replace(cfg, coordination_mode=mode), coordination_backend=ScriptedBackend(reply))
        for agent in SLM_AGENT_IDS:
            SlmAgent(agent, ScriptedBackend(reply), cfg).evaluate(project(_RECORD, agent))


@st.composite
def live_outputs(draw):
    agents = draw(st.lists(st.sampled_from(list(AgentId)), unique=True, min_size=1, max_size=5))
    return [AgentOutput(agent, Severity(draw(st.integers(1, 4))), draw(st.floats(0, 1))) for agent in agents]


# In-range documents that meet every relation but the one of the weights and factors, which they leave out.
_other_fields = _documents(EngineConfig, wild=False).map(
    lambda doc: {k: v for k, v in doc.items() if k not in ("agent_weights", "class_factors")}
).filter(accepted)


@functools.cache
def _largest_factor(agents: tuple[str, ...]) -> float:
    """The largest class factor admitted with each of ``agents`` at the smallest weight."""
    weights = dict.fromkeys(agents, sys.float_info.min)
    return largest_admitted(lambda f: {"agent_weights": weights, "class_factors": dict.fromkeys("1234", f)})


@functools.cache
def _largest_weight(agents: tuple[str, ...], factors: tuple[float, ...]) -> float:
    """The largest weight admitted for each of ``agents`` under the class factors ``factors``."""
    class_factors = dict(zip("1234", factors))
    return largest_admitted(lambda w: {"agent_weights": dict.fromkeys(agents, w), "class_factors": class_factors})


@st.composite
def accepted_documents(draw):
    """In-range config documents that ``validate_config`` accepts, their agent weights and
    class factors drawn at and between the ends of the accepted range, where sums overflow
    or round. The large ends are where the relation that keeps fusion's arithmetic finite
    stops admitting: the factors' with the drawn agents at the smallest weight, and then
    the weights' under the drawn factors."""
    agents = tuple(sorted(draw(st.lists(st.sampled_from([a.value for a in AgentId]), min_size=1, unique=True))))
    factor_end = _largest_factor(agents)
    factors = [draw(st.sampled_from([5e-324, 1.0, factor_end]) | st.floats(5e-324, factor_end)) for _ in "1234"]
    weight_end = _largest_weight(agents, tuple(factors))
    weight = st.sampled_from([sys.float_info.min, min(1.0, weight_end), weight_end])
    return {
        **draw(_other_fields),
        "agent_weights": {a: draw(weight | st.floats(sys.float_info.min, weight_end)) for a in agents},
        "class_factors": dict(zip("1234", factors)),
    }


class TestFusionProperties:
    @given(
        accepted_documents(),
        live_outputs(),
        st.lists(st.sampled_from(list(AgentId)), max_size=3),
        st.randoms(use_true_random=False),
        _replies,
    )
    @example(  # the largest pair of weights the relation admits
        {"agent_weights": {"spatial": LARGEST_PAIR, "temporal": LARGEST_PAIR}},
        [AgentOutput(AgentId.SPATIAL, Severity(2), 0.9), AgentOutput(AgentId.TEMPORAL, Severity(2), 0.9)],
        [],
        random.Random(0),
        "no answer",
    )
    @example(  # every score within tie_epsilon of zero, only class 2 voted for
        {"agent_weights": {"spatial": 1.0}},
        [AgentOutput(AgentId.SPATIAL, Severity(2), 0.0), AgentOutput(AgentId.TEMPORAL, Severity(2), 0.0)],
        [],
        random.Random(0),
        "no answer",
    )
    @example(  # LLM mode, and the ML override holds
        {"coordination_mode": "llm", "agent_weights": {"ml": 1.0}},
        [AgentOutput(AgentId.ML, Severity(3), 0.9), AgentOutput(AgentId.SPATIAL, Severity(2), 0.6)],
        [AgentId.TEMPORAL],
        random.Random(0),
        '{"severity": 4, "confidence": 0.97, "reasoning": "r"}',
    )
    @settings(max_examples=300, deadline=None)
    def test_fusion_invariants(self, doc, live, failed_agents, rnd, reply):
        cfg = validate_config(EngineConfig.from_dict(doc))
        backend = FakeBackend(reply)
        coordination, decision = fuse(live, cfg, coordination_backend=backend)

        # The coordinator is asked once in LLM mode, unless the ML override
        # holds: then rule 1 decides, nothing is asked, and the coordination
        # and decision are rule mode's.
        override = check_ml_override(live, cfg)
        assert backend.calls == (cfg.coordination_mode is CoordinationMode.LLM_BASED and not override)
        if override:
            rule_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.RULE_BASED)
            assert coordination == coordinate_rb(sorted(live, key=lambda o: AGENT_ORDER[o.agent]), cfg)
            assert decision == fuse(live, rule_cfg)[1]

        # Neither the order of the outputs nor failed ones change anything.
        failed = [AgentOutput(a, None, 0.0, failed=True, failure_kind="timeout") for a in failed_agents]
        mixed = live + failed
        rnd.shuffle(mixed)
        assert fuse(mixed, cfg, coordination_backend=ScriptedBackend(reply)) == (coordination, decision)

        # With no live output, nothing is asked.
        calls = backend.calls
        assert fuse(failed, cfg, coordination_backend=backend)[0] is None
        assert backend.calls == calls

        # The decided class comes from a live agent or the coordinator, and
        # a rule-based coordination decides a live prediction.
        predicted = {o.prediction for o in live}
        assert decision.prediction in predicted | {coordination.prediction}
        if coordination.method is CoordinationMode.RULE_BASED:
            assert coordination.prediction in predicted

        # A voted class's mean confidence lies within its supporters' range.
        supporters = [o.confidence for o in live if o.prediction == coordination.prediction]
        if coordination.method is CoordinationMode.RULE_BASED and not coordination.override_applied:
            mean = weighted_avg_confidence(coordination.prediction, live, cfg)
            assert min(supporters) - 1e-12 <= mean <= max(supporters) + 1e-12

        # Without the ML agent, only the coordinator's rules can fire.
        if all(o.agent is not AgentId.ML for o in live):
            assert decision.rule_fired in (2, 4)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


class TestStrictJsonTraces:
    @given(
        accepted_documents(),
        st.fixed_dictionaries({a: st.floats(0, 1) for a in AgentId}),
        st.lists(st.sampled_from(list(AgentId)), unique=True),
        st.integers(0, 2**16),
    )
    @example(  # the largest pair of weights the relation admits, on confident live agents
        {"agent_weights": {"spatial": LARGEST_PAIR, "temporal": LARGEST_PAIR}}, dict.fromkeys(AgentId, 0.9), [], 0
    )
    @settings(max_examples=25, deadline=None)
    def test_every_trace_line_is_strict_json_with_finite_scores(self, doc, confidences, failing, seed):
        # Hint fixtures, some agents failing on every record, in both modes.
        records = synth.generate_records(6, seed, dict.fromkeys(AgentId, 0.7))
        with tempfile.TemporaryDirectory() as directory:
            for mode in CoordinationMode:
                cfg = validate_config(EngineConfig.from_dict({**doc, "coordination_mode": mode.value}))
                agents = [
                    ScriptedAgent(a.identity(), lambda features: None) if a.identity() in failing else a
                    for a in synth.build_hint_agents(cfg, confidences)
                ]
                sink = Path(directory) / "trace.jsonl"
                run_batch(records, agents, cfg, sink, coordination_backend=synth.fallible_coordinator())
                lines = sink.read_text(encoding="utf-8").splitlines()
                assert len(lines) == len(records)
                for line in lines:
                    coordination = json.loads(line, parse_constant=_reject_constant)["coordination"] or {}
                    scores = coordination.get("breakdown", {}).get("scores", {})
                    assert all(math.isfinite(score) for score in scores.values())
