from __future__ import annotations

import csv
import io
import json
import re

import pytest

import marble.cli
from marble.cli import main
from marble.core import ConfigError
from marble.features import SchemaError
from marble.harness import ScenarioError

PAYLOAD_2 = '{"severity": 2, "confidence": 0.7, "reasoning": "scripted"}'


def write_csv(path, rows, labeled=True):
    header = "id,Weather Conditions,Day of Week,Road Type,Point of Impact"
    if labeled:
        header += ",severity"
    lines = [header]
    for i, label in enumerate(rows):
        line = f"x{i},Rain,Monday,Motorway,Front"
        if labeled:
            line += f",{label}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def scripted_file(tmp_path):
    scripted = {kind: PAYLOAD_2 for kind in ("environmental", "infrastructural", "spatial", "temporal")}
    scripted["coordinator"] = PAYLOAD_2
    path = tmp_path / "scripted.json"
    path.write_text(json.dumps(scripted), encoding="utf-8")
    return path


@pytest.fixture
def train_file(tmp_path):
    return write_csv(tmp_path / "train.csv", [1, 2, 3, 4, 1, 2, 3, 4])


@pytest.fixture
def input_file(tmp_path):
    return write_csv(tmp_path / "input.csv", [2, 2, 3])


def test_predict_writes_stdout_and_trace(tmp_path, scripted_file, train_file, input_file, capsys):
    trace = tmp_path / "trace.jsonl"
    rc = main(
        [
            "predict",
            "--input", str(input_file),
            "--train", str(train_file),
            "--scripted", str(scripted_file),
            "--trace", str(trace),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "id,prediction,confidence,source,rule"
    assert len(lines) == 4
    assert len(trace.read_text(encoding="utf-8").splitlines()) == 3


def test_predict_quotes_ids_with_commas_and_quotes(tmp_path, scripted_file, train_file, capsys):
    path = tmp_path / "odd.csv"
    path.write_text(
        'id,Weather Conditions,Day of Week,Road Type,Point of Impact,severity\n'
        '"a,b",Rain,Monday,Motorway,Front,2\n'
        '"q""x",Rain,Monday,Motorway,Front,3\n'
        "plain,Rain,Monday,Motorway,Front,3\n",
        encoding="utf-8",
    )
    args = ["predict", "--input", str(path), "--train", str(train_file), "--scripted", str(scripted_file)]
    assert main(args + ["--trace", str(tmp_path / "t.jsonl")]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["id", "a,b", 'q"x', "plain"]
    assert {len(row) for row in rows} == {5}
    assert out.splitlines()[3].startswith("plain,")


def test_predict_names_every_skipped_row_on_stderr(tmp_path, scripted_file, train_file, capsys):
    bad = write_csv(tmp_path / "bad.csv", [2, 9, 3, 4])
    lines = bad.read_text(encoding="utf-8").splitlines()
    lines[3] = "x2,Rain,Monday"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = ["predict", "--input", str(bad), "--train", str(train_file), "--scripted", str(scripted_file)]
    assert main(args + ["--trace", str(tmp_path / "t.jsonl")]) == 0
    captured = capsys.readouterr()
    assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == ["x0", "x3"]
    assert captured.err.splitlines() == [
        f"{bad}: skipped row 2: label out of range",
        f"{bad}: skipped row 3: expected 6 columns, got 3",
    ]


def test_predict_past_the_bad_row_budget_names_the_rows_then_exits(tmp_path, scripted_file, train_file, capsys):
    bad = write_csv(tmp_path / "bad.csv", [9 if i % 2 else 2 for i in range(210)])
    args = ["predict", "--input", str(bad), "--train", str(train_file), "--scripted", str(scripted_file)]
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--trace", str(tmp_path / "t.jsonl")])
    assert exit_.value.code == f"{bad}: row 202: bad-row budget (100) exceeded: label out of range"
    skipped = [f"{bad}: skipped row {row}: label out of range" for row in range(2, 202, 2)]
    assert capsys.readouterr().err.splitlines() == skipped


def test_predict_llm_mode_uses_scripted_coordinator(tmp_path, scripted_file, train_file, input_file):
    trace = tmp_path / "trace.jsonl"
    rc = main(
        [
            "predict",
            "--input", str(input_file),
            "--train", str(train_file),
            "--scripted", str(scripted_file),
            "--trace", str(trace),
            "--mode", "llm",
        ]
    )
    assert rc == 0
    first = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])
    assert first["coordination"]["method"] == "llm"


def test_eval_writes_reports(tmp_path, scripted_file, train_file, input_file, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "eval",
            "--input", str(input_file),
            "--train", str(train_file),
            "--scripted", str(scripted_file),
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "traces.jsonl").exists()
    assert "accuracy=" in capsys.readouterr().out


def test_ablate_emits_reports_and_drops(tmp_path, scripted_file, train_file, input_file):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "ablate",
            "--input", str(input_file),
            "--train", str(train_file),
            "--scripted", str(scripted_file),
            "--output-dir", str(out_dir),
        ]
    )
    assert rc == 0
    ablation = json.loads((out_dir / "ablation.json").read_text(encoding="utf-8"))
    assert "none" in ablation["reports"]
    assert "coordinator" in ablation["reports"]
    assert set(ablation["relative_accuracy_drop"]) == set(ablation["reports"]) - {"none"}


def test_imbalance_emits_comparison(tmp_path, scripted_file, train_file):
    input_file = write_csv(tmp_path / "big.csv", [1, 2, 3, 4] * 10)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "imbalance",
            "--input", str(input_file),
            "--train", str(train_file),
            "--scripted", str(scripted_file),
            "--output-dir", str(out_dir),
            "--seed", "3",
            "--size", "20",
        ]
    )
    assert rc == 0
    payload = json.loads((out_dir / "imbalance.json").read_text(encoding="utf-8"))
    assert set(payload) == {
        "uniform", "mild_skew_common", "heavy_skew_common", "rare_fatal", "minor_fatal", "skew_rare",
    }
    assert (out_dir / "imbalance.csv").exists()


@pytest.mark.parametrize("document", [[{"name": "even", "distribution": {k: 0.25 for k in "1234"}}], []])
def test_imbalance_runs_the_scenarios_of_a_file(tmp_path, scripted_file, train_file, document):
    input_file = write_csv(tmp_path / "big.csv", [1, 2, 3, 4] * 10)
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps(document), encoding="utf-8")
    out_dir = tmp_path / "out"
    args = ["imbalance", "--input", str(input_file), "--train", str(train_file), "--scripted", str(scripted_file)]
    assert main(args + ["--scenarios", str(scenarios), "--output-dir", str(out_dir), "--size", "20"]) == 0
    payload = json.loads((out_dir / "imbalance.json").read_text(encoding="utf-8"))
    assert list(payload) == [entry["name"] for entry in document]
    rows = list(csv.DictReader(io.StringIO((out_dir / "imbalance.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 2 * len(document)  # one row per coordination mode; an empty file for no scenario


# Read as plain JSON, the first would keep its later value, the others would raise a bare
# JSONDecodeError or UnicodeDecodeError that names no file.
JSON_DEFECTS = {
    "repeated-key": (b'{"a": {"b": 1, "b": 2}}', "key 'b' is given twice in one object"),
    "trailing-comma": (b'{"a": 1,}', "Expecting property name enclosed in double quotes"),
    "latin-1": (b'["caf\xe9"]', "can't decode byte 0xe9"),
}


@pytest.mark.parametrize("defect", JSON_DEFECTS)
@pytest.mark.parametrize("option", ["--config", "--registry", "--scripted", "--scenarios"])
def test_every_json_input_is_read_strictly(tmp_path, scripted_file, train_file, input_file, option, defect):
    data, message = JSON_DEFECTS[defect]
    path = tmp_path / "input.json"
    path.write_bytes(data)
    options = {"--scripted": str(scripted_file), option: str(path)}
    args = ["imbalance", "--input", str(input_file), "--train", str(train_file), "--output-dir", str(tmp_path / "out")]
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        main(args + [item for pair in options.items() for item in pair])


def test_config_file_round_trips_through_cli(tmp_path, scripted_file, train_file, input_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tau_coord_common": 0.6}), encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    rc = main(
        [
            "predict",
            "--config", str(config),
            "--input", str(input_file),
            "--train", str(train_file),
            "--scripted", str(scripted_file),
            "--trace", str(trace),
        ]
    )
    assert rc == 0


def test_predict_without_agents_exits(tmp_path, input_file):
    with pytest.raises(SystemExit):
        main(["predict", "--input", str(input_file), "--trace", str(tmp_path / "t.jsonl")])


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"name": "broken", "distribution": {"1": 0.5, "5": 0.5}}, "'broken'"),
        ({"name": "broken", "distribution": {"1": "half", "2": 0.5}}, "'broken'"),
        ({"name": "broken"}, "'broken'"),
        ({"name": "broken", "distribution": {"1": float("nan"), "2": 1.0}}, "'broken'"),
        ("broken", "None"),
        ({"distribution": {"1": 1.0}}, "None"),
        ({"name": 3, "distribution": {"2": 1.0}}, "3"),
        # Loaded as proportions, these would fail later, in the sampler; the
        # loader's own message pins them to the reading of the proportions.
        ({"name": "broken", "distribution": {"1": True, "2": 0, "3": 0, "4": 0}}, "'broken': \"distribution\""),
        ({"name": "broken", "distribution": {k: "0.25" for k in "1234"}}, "'broken': \"distribution\""),
        # Read as {1: 0.5, 2: 0.5}, this would pass; a class may be named once.
        (
            {"name": "broken", "distribution": {"1": 0.5, "01": 0.5, "2": 0.5}},
            r"'broken': .*\(distribution\.1 is given twice\)$",
        ),
    ],
)
def test_malformed_scenario_names_the_scenario(tmp_path, scripted_file, train_file, input_file, entry, named):
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps([entry]), encoding="utf-8")
    args = ["imbalance", "--input", str(input_file), "--train", str(train_file)]
    args += ["--scripted", str(scripted_file), "--scenarios", str(scenarios), "--output-dir", str(tmp_path / "out")]
    with pytest.raises(ScenarioError, match=f"scenario {named}"):
        main(args)


@pytest.mark.parametrize("document", [5, None, {"name": "a", "distribution": {"1": 1.0}}])
def test_scenarios_must_be_a_json_array(tmp_path, scripted_file, train_file, input_file, document):
    scenarios = tmp_path / "scenarios.json"
    scenarios.write_text(json.dumps(document), encoding="utf-8")
    args = ["imbalance", "--input", str(input_file), "--train", str(train_file)]
    args += ["--scripted", str(scripted_file), "--scenarios", str(scenarios), "--output-dir", str(tmp_path / "out")]
    with pytest.raises(ScenarioError, match="^--scenarios must be a JSON array of scenario objects$"):
        main(args)


@pytest.mark.parametrize("command", ["eval", "ablate", "imbalance"])
def test_unlabelled_input_exits_with_its_message(tmp_path, scripted_file, train_file, command):
    input_file = write_csv(tmp_path / "unlabelled.csv", [2, 3], labeled=False)
    args = [command, "--input", str(input_file), "--train", str(train_file)]
    args += ["--scripted", str(scripted_file), "--output-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit, match="every input record needs a severity label"):
        main(args)


def test_imbalance_without_coordinator_exits_with_its_message(tmp_path, train_file, input_file):
    args = ["imbalance", "--input", str(input_file), "--train", str(train_file), "--output-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit, match="needs a coordination backend"):
        main(args)


@pytest.fixture
def unmatched_file(tmp_path):
    """A labelled CSV none of whose headers names a registry feature."""
    lines = ["foo,bar,severity"] + [f"a{i},b{i},{i % 4 + 1}" for i in range(8)]
    path = tmp_path / "unmatched.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_slm_agents_need_a_header_that_names_a_registry_feature(tmp_path, scripted_file, unmatched_file):
    args = ["predict", "--input", str(unmatched_file), "--scripted", str(scripted_file)]
    with pytest.raises(SchemaError, match="no registry feature matches the header"):
        main(args + ["--trace", str(tmp_path / "t.jsonl")])
    with pytest.raises(SchemaError, match="no registry feature matches the header"):
        main(["eval"] + args[1:] + ["--output-dir", str(tmp_path / "out")])


def test_the_ml_agent_alone_reads_any_header(tmp_path, unmatched_file, capsys):
    args = ["predict", "--input", str(unmatched_file), "--train", str(unmatched_file)]
    assert main(args + ["--trace", str(tmp_path / "t.jsonl")]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 9


@pytest.mark.parametrize("command", ["predict", "eval", "ablate"])
def test_llm_mode_without_a_coordinator_exits_before_writing(tmp_path, train_file, input_file, command):
    path = tmp_path / "scripted.json"
    path.write_text(json.dumps({"spatial": PAYLOAD_2}), encoding="utf-8")
    trace, out_dir = tmp_path / "t.jsonl", tmp_path / "out"
    trace.write_text("an earlier run's trace\n", encoding="utf-8")
    args = [command, "--mode", "llm", "--input", str(input_file), "--train", str(train_file), "--scripted", str(path)]
    args += ["--trace", str(trace)] if command == "predict" else ["--output-dir", str(out_dir)]
    with pytest.raises(SystemExit, match="^LLM coordination needs a coordination backend"):
        main(args)
    assert trace.read_text(encoding="utf-8") == "an earlier run's trace\n"
    assert not out_dir.exists()


ROLES = "the roles are environmental, infrastructural, spatial, temporal, coordinator"


@pytest.mark.parametrize(
    "scripted, named",
    [
        ({"environmental": 5}, "'environmental'"),
        ({"environmental": {"": 5}}, "'environmental'"),
        ({"coordinator": [PAYLOAD_2]}, "'coordinator'"),
        ([PAYLOAD_2], "--scripted must hold a JSON object"),
        # Keys that name no role; the scripted spatial agent would otherwise run alone.
        ({"spatial": PAYLOAD_2, "enviromental": PAYLOAD_2}, f"^--scripted key 'enviromental' names no role; {ROLES}$"),
        ({"spatial": PAYLOAD_2, "coordinater": PAYLOAD_2}, f"^--scripted key 'coordinater' names no role; {ROLES}$"),
        ({"spatial": PAYLOAD_2, "ml": PAYLOAD_2}, f"^--scripted key 'ml' names no role; {ROLES}$"),
    ],
)
def test_malformed_scripted_file_exits_before_any_record(tmp_path, input_file, scripted, named):
    path = tmp_path / "scripted.json"
    path.write_text(json.dumps(scripted), encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit, match=named):
        main(["predict", "--input", str(input_file), "--scripted", str(path), "--trace", str(trace)])
    assert not trace.exists()


def test_every_role_that_is_not_scripted_shares_one_endpoint_backend(tmp_path, monkeypatch, train_file, input_file):
    built = []

    class CountingBackend:
        def __init__(self, endpoint):
            built.append(endpoint.url)

        def complete(self, prompt, decoding, timeout_ms):
            return PAYLOAD_2

    monkeypatch.setattr(marble.cli, "RemoteHttpBackend", CountingBackend)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"coordination_mode": "llm", "endpoint": {"url": "https://models.invalid/v1"}}))
    scripted = tmp_path / "scripted.json"
    for roles in (["spatial"], ["environmental", "infrastructural", "spatial", "temporal", "coordinator"]):
        scripted.write_text(json.dumps(dict.fromkeys(roles, PAYLOAD_2)), encoding="utf-8")
        trace = tmp_path / "trace.jsonl"
        args = ["predict", "--config", str(config), "--input", str(input_file), "--train", str(train_file)]
        assert main(args + ["--scripted", str(scripted), "--trace", str(trace)]) == 0
        # The first run shares one backend; the second, with every role scripted, builds none.
        assert built == ["https://models.invalid/v1"]
        lines = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        assert [o["failure_kind"] for line in lines for o in line["agent_outputs"]] == [None] * 15
