from __future__ import annotations

import dataclasses
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marble.agents import slm
from marble.agents.backends import ScriptedBackend, TransportError
from synth import FakeBackend
from marble.agents.slm import (
    DEFAULT_TEMPLATES,
    ParseError,
    SlmAgent,
    build_prompt,
    calibrate,
    parse_response_detailed,
)
from marble.coordination import CoordinationResult, coordinate_rb
from marble.core import SLM_AGENT_IDS, AgentId, AgentOutput, CoordinationMode, EngineConfig, Severity
from marble.engine import fuse
from marble.features import FeatureValue, format_features, project
from marble.features import AccidentRecord


class TestBuildPrompt:
    def test_concatenation_order(self):
        assert build_prompt("C\n\nI", "F") == f"C\n\nI\n\nF\n\n{slm._JSON_QUERY}"

    def test_empty_feature_block_keeps_its_slot(self):
        assert build_prompt("C\n\nI", "") == f"C\n\nI\n\n\n\n{slm._JSON_QUERY}"

    @pytest.mark.parametrize("agent", SLM_AGENT_IDS, ids=lambda a: a.value)
    def test_every_default_prompt_demands_the_three_keys(self, agent):
        prompt = build_prompt(DEFAULT_TEMPLATES[agent], "")
        assert all(f'"{key}"' in prompt for key in ("severity", "confidence", "reasoning"))

    def test_environmental_golden_prompt(self):
        # Golden fixture, recorded once and reviewed by hand.
        subset = {
            "Weather": FeatureValue.categorical("Rainy"),
            "Visibility": FeatureValue.numeric(0.5),
        }
        prompt = build_prompt(DEFAULT_TEMPLATES[AgentId.ENVIRONMENTAL], format_features(subset))
        expected_block = "Weather: Rainy\nVisibility: 0.5"
        assert f"\n\n{expected_block}\n\n" in prompt
        assert prompt.startswith("You are a road safety analyst specializing in environmental conditions")
        assert prompt.rstrip().endswith('"reasoning": "<one or two sentences>"}.')
        assert prompt == build_prompt(
            DEFAULT_TEMPLATES[AgentId.ENVIRONMENTAL], format_features(subset)
        )

    @pytest.mark.parametrize(
        "agent, expected",
        [
            (
                AgentId.ENVIRONMENTAL,
                "You are a road safety analyst specializing in environmental conditions: weather, lighting, "
                "visibility, and atmospheric factors at accident scenes.\n\n"
                "Using only the conditions listed below, reason step by step about how they affect the likely "
                "severity of this accident on a 1-4 scale, then decide.\n\n"
                "Weather: Rainy\nVisibility: 0.5 miles\n\n"
                'Reply with a JSON object of the form {"severity": <integer 1-4>, "confidence": <number between '
                '0 and 1>, "reasoning": "<one or two sentences>"}.',
            ),
            (
                AgentId.INFRASTRUCTURAL,
                "You are a road safety analyst specializing in infrastructure: road type, junction layout, "
                "surface state, speed limits, and carriageway hazards.\n\n"
                "Using only the road characteristics listed below, reason step by step about the likely "
                "severity of this accident on a 1-4 scale, then decide.\n\n"
                "Weather: Rainy\nVisibility: 0.5 miles\n\n"
                'Reply with a JSON object of the form {"severity": <integer 1-4>, "confidence": <number between '
                '0 and 1>, "reasoning": "<one or two sentences>"}.',
            ),
            (
                AgentId.SPATIAL,
                "You are a road safety analyst specializing in spatial dynamics: impact points, vehicle "
                "manoeuvres, and the geographic context of accidents.\n\n"
                "Using only the spatial factors listed below, reason step by step about the likely severity of "
                "this accident on a 1-4 scale, then decide.\n\n"
                "Weather: Rainy\nVisibility: 0.5 miles\n\n"
                'Reply with a JSON object of the form {"severity": <integer 1-4>, "confidence": <number between '
                '0 and 1>, "reasoning": "<one or two sentences>"}.',
            ),
            (
                AgentId.TEMPORAL,
                "You are a road safety analyst specializing in temporal patterns: time of day, day of week, "
                "seasonality, and holiday effects on accidents.\n\n"
                "Using only the timing information listed below, reason step by step about the likely severity "
                "of this accident on a 1-4 scale, then decide.\n\n"
                "Weather: Rainy\nVisibility: 0.5 miles\n\n"
                'Reply with a JSON object of the form {"severity": <integer 1-4>, "confidence": <number between '
                '0 and 1>, "reasoning": "<one or two sentences>"}.',
            ),
        ],
        ids=lambda v: v.value if isinstance(v, AgentId) else "",
    )
    def test_every_default_prompt_byte_for_byte(self, agent, expected):
        # Recorded by hand: the simulated benchmark backend deals replies by
        # prompt digest, so one changed byte changes every decision digest.
        block = "Weather: Rainy\nVisibility: 0.5 miles"
        assert build_prompt(DEFAULT_TEMPLATES[agent], block) == expected
        assert build_prompt(DEFAULT_TEMPLATES[agent], "") == expected.replace(block, "")


def parse_response(raw: str) -> tuple[Severity, float, str]:
    parsed = parse_response_detailed(raw)
    return parsed.severity, parsed.confidence, parsed.reasoning


class TestParseResponse:
    def test_embedded_json(self):
        raw = 'I think {"severity": 4, "confidence": 0.82, "reasoning": "poor visibility"}'
        assert parse_response(raw) == (Severity(4), 0.82, "poor visibility")

    def test_labeled_number_fallback(self):
        assert parse_response("Severity: 3\nConfidence: 0.55") == (Severity(3), 0.55, "")

    @pytest.mark.parametrize("raw", ["severity: 3", "severity: 3.0", "Severity = 3.00", "the severity: 3."])
    def test_labeled_whole_number_is_a_class(self, raw):
        assert int(parse_response_detailed(raw).severity) == 3

    @pytest.mark.parametrize("raw", ['{"severity": 3.5, "confidence": 0.9}', "severity: 3.5", "severity=4.9"])
    def test_labeled_fraction_is_no_class(self, raw):
        with pytest.raises(ParseError):
            parse_response_detailed(raw)

    def test_plain_prose_fails(self):
        with pytest.raises(ParseError):
            parse_response("the accident is bad")

    def test_out_of_range_severity_fails(self):
        with pytest.raises(ParseError):
            parse_response('{"severity": 7, "confidence": 0.9, "reasoning": "x"}')

    def test_string_coercions(self):
        raw = '{"severity": "2", "confidence": "0.4", "reasoning": "ok"}'
        assert parse_response(raw) == (Severity(2), 0.4, "ok")

    def test_confidence_clamped_and_flagged(self):
        parsed = parse_response_detailed('{"severity": 1, "confidence": 1.4, "reasoning": "x"}')
        assert parsed.confidence == 1.0
        assert parsed.clamped

    def test_a_boolean_severity_is_no_class(self):
        with pytest.raises(ParseError):
            parse_response_detailed('{"severity": true, "confidence": 0.9}')

    def test_a_boolean_confidence_reads_the_prior(self):
        parsed = parse_response_detailed('{"severity": 2, "confidence": true}')
        assert (parsed.confidence, parsed.clamped) == (0.5, False)

    def test_a_nan_confidence_reads_zero_and_is_flagged(self):
        parsed = parse_response_detailed('{"severity": 2, "confidence": NaN}')
        assert (parsed.confidence, parsed.clamped) == (0.0, True)

    @given(
        severity=st.integers(1, 4),
        confidence=st.floats(allow_nan=False),
        spelling=st.sampled_from(
            [
                "severity: {s}, confidence: {c}",
                "severity={s}\nconfidence={c}",
                '"severity": {s}, "confidence": {c}',
                'severity: "{s}", confidence: "{c}"',
                "SEVERITY: {s}\nCONFIDENCE: {c}",
            ]
        ),
    )
    @settings(max_examples=300)
    def test_labelled_confidence_reads_as_its_json_form(self, severity, confidence, spelling):
        labelled = parse_response_detailed(spelling.format(s=severity, c=repr(confidence)))
        strict = parse_response_detailed(json.dumps({"severity": severity, "confidence": confidence}))
        assert (labelled.via, strict.via) == ("fallback", "json")
        assert dataclasses.replace(labelled, via="json") == strict

    def test_first_valid_object_wins(self):
        raw = '{"severity": 9} then {"severity": 2, "confidence": 0.6} and {"severity": 3, "confidence": 0.9}'
        severity, confidence, _ = parse_response(raw)
        assert int(severity) == 2 and confidence == 0.6

    def test_missing_confidence_defaults_to_neutral(self):
        severity, confidence, _ = parse_response('{"severity": 4, "reasoning": "r"}')
        assert int(severity) == 4 and confidence == 0.5

    def test_nested_json_object(self):
        raw = '{"result": {"severity": 3, "confidence": 0.7, "reasoning": "nested"}}'
        severity, confidence, reasoning = parse_response(raw)
        assert (int(severity), confidence, reasoning) == (3, 0.7, "nested")

    def test_megabyte_of_open_braces_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_response_detailed("{" * 1_000_000)
        assert time.perf_counter() - start < 1.0


def reference_json_candidates(text: str):
    """The quadratic scan the linear one replaced: from every '{', outside
    any string, find the brace that closes it and decode that span."""
    for start, ch in enumerate(text):
        if ch != "{":
            continue
        depth = 0
        in_string = False
        escaped = False
        for end in range(start, len(text)):
            c = text[end]
            if in_string:
                if escaped:
                    escaped = False
                elif c == "\\":
                    escaped = True
                elif c == '"':
                    in_string = False
                continue
            if c == '"':
                in_string = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    try:
                        obj = json.loads(text[start : end + 1])
                    except ValueError:
                        break
                    if isinstance(obj, dict):
                        yield obj
                    break


def parse_outcome(raw: str) -> str:
    try:
        return repr(parse_response_detailed(raw))
    except ParseError:
        return "ParseError"


NOISE = st.sampled_from(
    ["{", "}", '"', "\\", ":", ",", " ", "x", "[", "]", "2", "0.7", "9", "null",
     '"severity"', '"confidence"', '"reasoning"', '"severity": 3', "\\\"", '{"', '"}',
     '\\{"', '\\}"']
)
BRACE_HEAVY = st.lists(NOISE, max_size=80).map("".join)
# Valid JSON whose strings are full of braces, quotes and escapes (of every
# kind: \", \\, \n, \u00e9), cut short at random and embedded in noise.
JSON_TEXT = st.recursive(
    st.none() | st.integers(0, 5) | st.text(alphabet='{}"\\ :s\né', max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["severity", "confidence", 'a"{', "\\}"]), inner, max_size=3),
    max_leaves=8,
).map(json.dumps)
EMBEDDED = st.lists(
    st.one_of(NOISE, JSON_TEXT, st.tuples(JSON_TEXT, st.integers(1, 30)).map(lambda t: t[0][: t[1]])),
    max_size=10,
).map("".join)


class TestJsonScanMatchesReference:
    @given(raw=st.one_of(BRACE_HEAVY, EMBEDDED))
    @settings(max_examples=1500, deadline=None)
    def test_candidates_and_parse_match_the_quadratic_scan(self, raw):
        assert repr(list(slm._iter_json_candidates(raw))) == repr(list(reference_json_candidates(raw)))
        linear = parse_outcome(raw)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(slm, "_iter_json_candidates", reference_json_candidates)
            assert parse_outcome(raw) == linear


class TestCalibrate:
    def test_high_gate_rare(self, cfg):
        assert calibrate(0.85, Severity(4), cfg) == pytest.approx(0.95)

    def test_common_class_unchanged(self, cfg):
        assert calibrate(0.5, Severity(2), cfg) == 0.5
        assert calibrate(0.95, Severity(3), cfg) == 0.95

    def test_cap_binds(self, cfg):
        assert calibrate(0.95, Severity(1), cfg) == pytest.approx(0.98)

    def test_mid_gate_rare(self, cfg):
        assert calibrate(0.7, Severity(1), cfg) == pytest.approx(0.75)

    def test_gates_are_strict(self, cfg):
        assert calibrate(0.6, Severity(4), cfg) == 0.6
        assert calibrate(0.8, Severity(4), cfg) == pytest.approx(0.85)  # mid branch at the high gate

    @given(
        raw=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        klass=st.sampled_from([1, 2, 3, 4]),
    )
    @settings(max_examples=300)
    def test_boost_bounds(self, raw, klass):
        # Gated rare predictions are boosted but capped at 0.98; everything
        # else passes through untouched (including raw values above the cap,
        # which only the boost branches are subject to).
        cfg = EngineConfig()
        value = calibrate(raw, Severity(klass), cfg)
        if Severity(klass).is_rare and raw > 0.6:
            assert value <= 0.98
            assert value >= min(raw, 0.98)
        else:
            assert value == raw

    @given(
        pair=st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        klass=st.sampled_from([1, 2, 3, 4]),
    )
    @settings(max_examples=300)
    def test_monotone_in_raw_confidence(self, pair, klass):
        cfg = EngineConfig()
        low, high = sorted(pair)
        assert calibrate(low, Severity(klass), cfg) <= calibrate(high, Severity(klass), cfg)


def env_features() -> dict[str, FeatureValue]:
    record = AccidentRecord(
        id="x", features={"Weather Conditions": FeatureValue.categorical("Rain")}
    )
    return project(record, AgentId.ENVIRONMENTAL)


class TestSlmEvaluate:
    def test_valid_rare_payload_gets_calibrated(self, cfg):
        backend = ScriptedBackend('{"severity": 4, "confidence": 0.82, "reasoning": "bad"}')
        output = SlmAgent(AgentId.ENVIRONMENTAL, backend, cfg).evaluate(env_features())
        assert not output.failed
        assert int(output.prediction) == 4
        assert output.raw_confidence == 0.82
        assert output.confidence == pytest.approx(0.92)

    def test_backend_timeout_marks_failed(self, cfg):
        fast_cfg = dataclasses.replace(cfg, agent_timeout_ms=100)
        backend = FakeBackend('{"severity": 2, "confidence": 0.7, "reasoning": "x"}', delay_ms=400)
        output = SlmAgent(AgentId.SPATIAL, backend, fast_cfg).evaluate({})
        assert output.failed and output.failure_kind == "timeout"
        assert output.confidence == 0.0

    def test_unparseable_prose_marks_failed(self, cfg):
        backend = ScriptedBackend("no structure here")
        output = SlmAgent(AgentId.TEMPORAL, backend, cfg).evaluate({})
        assert output.failed and output.failure_kind == "parse"

    def test_transport_error_marks_failed(self, cfg):
        backend = FakeBackend("", error=TransportError("boom", status=500))
        output = SlmAgent(AgentId.TEMPORAL, backend, cfg).evaluate({})
        assert output.failed and output.failure_kind == "transport"

    def test_a_prompt_that_matches_no_scripted_key_is_a_transport_failure(self, cfg):
        backend = ScriptedBackend({"no such feature": '{"severity": 2, "confidence": 0.7}'})
        with pytest.raises(TransportError, match="^no scripted response matches the prompt$"):
            backend.complete("a prompt", cfg.decoding, cfg.agent_timeout_ms)
        output = SlmAgent(AgentId.TEMPORAL, backend, cfg).evaluate({})
        assert output.failed and output.failure_kind == "transport"

    def test_scripted_pipeline_is_deterministic(self, cfg):
        agent = SlmAgent(
            AgentId.ENVIRONMENTAL,
            ScriptedBackend('{"severity": 1, "confidence": 0.82, "reasoning": "icy"}'),
            cfg,
        )
        first = agent.evaluate(env_features())
        second = agent.evaluate(env_features())
        assert (first.prediction, first.confidence, first.reasoning) == (
            second.prediction,
            second.confidence,
            second.reasoning,
        )

    def test_rejects_ml_domain(self, cfg):
        with pytest.raises(ValueError):
            SlmAgent(AgentId.ML, ScriptedBackend("x"), cfg)


# Severities past Python's 4,300-digit limit on int(str), and confidences past
# the float range: a reply must fail as "parse", or be clamped and flagged,
# never raise.
_DIGITS = "1" * 5000
_HUGE_SEVERITIES = pytest.mark.parametrize(
    "reply",
    [f"severity: {_DIGITS}", f'{{"severity": "{_DIGITS}"}}', f'{{"severity": {_DIGITS}}}'],
    ids=["labelled", "json-string", "json-number"],
)
_HUGE_CONFIDENCES = pytest.mark.parametrize(
    "sign, clamped", [("", 1.0), ("-", 0.0)], ids=["positive", "negative"]
)
_LIVE = [AgentOutput(AgentId.ML, Severity(2), 0.6), AgentOutput(AgentId.SPATIAL, Severity(4), 0.7)]


def _huge_confidence(sign: str) -> str:
    return '{"severity": 2, "confidence": %s%s}' % (sign, "9" * 400)


class TestHugeNumbers:
    @_HUGE_SEVERITIES
    def test_a_severity_that_does_not_fit_is_a_parse_failure(self, cfg, reply):
        output = SlmAgent(AgentId.SPATIAL, ScriptedBackend(reply), cfg).evaluate({})
        assert output.failed and output.failure_kind == "parse"

    @_HUGE_CONFIDENCES
    def test_a_confidence_past_the_float_range_is_clamped_and_flagged(self, cfg, sign, clamped):
        output = SlmAgent(AgentId.SPATIAL, ScriptedBackend(_huge_confidence(sign)), cfg).evaluate({})
        assert (output.prediction, output.raw_confidence) == (Severity(2), clamped)
        assert output.notes == ("confidence clamped to [0,1]",)

    @_HUGE_SEVERITIES
    def test_the_llm_coordinator_falls_back_on_a_severity_that_does_not_fit(self, cfg, reply):
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        coordination, _ = fuse(_LIVE, llm_cfg, coordination_backend=ScriptedBackend(reply))
        assert coordination == dataclasses.replace(coordinate_rb(_LIVE, llm_cfg), fallback="parse")

    @_HUGE_CONFIDENCES
    def test_the_llm_coordinator_clamps_a_confidence_past_the_float_range(self, cfg, sign, clamped):
        llm_cfg = dataclasses.replace(cfg, coordination_mode=CoordinationMode.LLM_BASED)
        coordination, _ = fuse(_LIVE, llm_cfg, coordination_backend=ScriptedBackend(_huge_confidence(sign)))
        assert coordination == CoordinationResult(
            prediction=Severity(2), confidence=clamped, method=CoordinationMode.LLM_BASED, reasoning=""
        )
