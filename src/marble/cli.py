"""Command-line entry points: predict, eval, ablate, imbalance."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from .agents import MlAgent, RemoteHttpBackend, ScriptedBackend, SlmAgent, TrainError, ml_train
from .core import SLM_AGENT_IDS, ConfigError, CoordinationMode, EngineConfig, from_json_value, load_config
from .core import read_json, to_json_value, validate_config
from .engine import run_batch
from .features import RowError, SchemaError, default_registry, ingest_csv, load_registry
from .harness import (
    check_scenario_names,
    comparison_table,
    compute_metrics,
    ImbalanceScenario,
    ScenarioError,
    relative_accuracy_drops,
    run_ablation,
    run_imbalance_suite,
)


def _load_cfg(args) -> EngineConfig:
    cfg = load_config(args.config) if args.config else validate_config(EngineConfig())
    if getattr(args, "mode", None):
        cfg = replace(cfg, coordination_mode=CoordinationMode(args.mode))
    return cfg


_ROLES = [kind.value for kind in SLM_AGENT_IDS] + ["coordinator"]


def _scripted(document) -> dict:
    """The --scripted responses: an object from roles to a reply or an
    object of prompt substrings to replies, all strings."""
    if not isinstance(document, dict):
        raise ConfigError("--scripted must hold a JSON object")
    for key, script in document.items():
        replies = script.values() if isinstance(script, dict) else [script]
        if not all(isinstance(reply, str) for reply in replies):
            raise ConfigError(f"--scripted entry {key!r} must be a string or an object of strings")
    if unknown := [key for key in document if key not in _ROLES]:
        raise ConfigError(f"--scripted key {unknown[0]!r} names no role; the roles are {', '.join(_ROLES)}")
    return document


def _scenarios(document) -> tuple[ImbalanceScenario, ...]:
    """The --scenarios file: an array of scenarios, each read as config is, of distinct names."""
    scenarios = from_json_value(tuple[ImbalanceScenario, ...], document, "scenarios")
    check_scenario_names(scenarios)
    return scenarios


def _ingest(path: str, registry=None):
    """The records of a CSV; each row it skips is named on stderr, even if the file is then rejected."""
    errors: list[RowError] = []
    try:
        return ingest_csv(path, registry, errors_out=errors)
    finally:
        for skipped in errors:
            print(f"{path}: skipped row {skipped.row}: {skipped.message}", file=sys.stderr)


def _build_agents(cfg: EngineConfig, args):
    """The agents and the coordination backend. Every option is checked
    before the ML agent trains; LLM coordination, which imbalance always
    runs, needs a coordination backend."""
    scripted = read_json(args.scripted, _scripted) if args.scripted else {}
    # One endpoint backend, and so one TLS context, shared by every role that is not scripted.
    remote = RemoteHttpBackend(cfg.endpoint) if cfg.endpoint.url and any(r not in scripted for r in _ROLES) else None
    backends = {role: ScriptedBackend(scripted[role]) if role in scripted else remote for role in _ROLES}
    agents = [SlmAgent(kind, backends[kind.value], cfg) for kind in SLM_AGENT_IDS if backends[kind.value] is not None]
    if not (agents or args.train):
        raise ConfigError(
            "no agents configured: provide --train for the ML agent and/or an "
            "endpoint url (or --scripted) for the SLM agents"
        )
    if args.command == "ablate" and len(agents) + bool(args.train) < 2:
        raise ConfigError("ablation needs at least two agents")
    coordinator = backends["coordinator"]
    if coordinator is None and (args.command == "imbalance" or cfg.coordination_mode is CoordinationMode.LLM_BASED):
        raise ConfigError("LLM coordination needs a coordination backend (endpoint or --scripted)")
    if args.train:
        try:
            agents.insert(0, MlAgent(ml_train(_ingest(args.train))))
        except TrainError as err:
            raise TrainError(f"{args.train}: {err}") from None
    return agents, coordinator


def _setup(args):
    """Set-up shared by every command: the config, the agents, the coordination backend and the
    --input records (read under the feature registry), which eval, ablate and imbalance need labelled.
    The JSON inputs are read before the ML agent trains or --input is read; it writes nothing, and
    each command makes --output-dir just before its first file."""
    cfg = _load_cfg(args)
    registry = load_registry(args.registry) if args.registry else default_registry()
    agents, coordination_backend = _build_agents(cfg, args)
    # With an SLM agent configured, some header must name a registry feature.
    records = _ingest(args.input, registry if any(a.identity().is_slm for a in agents) else None)
    if args.command != "predict" and any(r.label is None for r in records):
        raise SchemaError(f"{args.input}: every input record needs a severity label for evaluation")
    return cfg, agents, coordination_backend, records


def _write_study(args, stem: str, payload, rows: list[dict], lines: Iterable[str]) -> None:
    """A study's outputs: ``<stem>.json`` (``payload`` as ``to_json_value`` encodes it) and ``<stem>.csv``
    (empty for no rows) in --output-dir, made if missing, then its summary lines on stdout."""
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(to_json_value(payload), indent=2, sort_keys=True), "utf-8")
    with open(out_dir / f"{stem}.csv", "w", encoding="utf-8", newline="") as handle:
        if rows:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    for line in lines:
        print(line)


def _cmd_predict(args) -> int:
    cfg, agents, coordinator, records = _setup(args)
    decisions = run_batch(records, agents, cfg, args.trace, coordination_backend=coordinator)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["id", "prediction", "confidence", "source", "rule"])
    for record, decision in zip(records, decisions):
        pred = "" if decision.prediction is None else int(decision.prediction)
        out.writerow([record.id, pred, decision.confidence, decision.source.value, decision.rule_fired])
    return 0


def _cmd_eval(args) -> int:
    cfg, agents, coordinator, records = _setup(args)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    decisions = run_batch(records, agents, cfg, out_dir / "traces.jsonl", coordination_backend=coordinator)
    report = compute_metrics(decisions, [r.label for r in records])
    line = f"accuracy={report.accuracy:.4f} macro_f1={report.f1:.4f} abstentions={report.abstentions}"
    _write_study(args, "metrics", report, [report.summary()], [line])
    return 0


def _cmd_ablate(args) -> int:
    cfg, agents, coordinator, records = _setup(args)
    reports = run_ablation(records, agents, cfg, coordination_backend=coordinator)
    drops = relative_accuracy_drops(reports)
    _write_study(
        args,
        "ablation",
        {"reports": reports, "relative_accuracy_drop": drops},
        [
            {
                "excluded": key,
                "accuracy": report.accuracy,
                "f1": report.f1,
                "relative_drop": drops.get(key, 0.0),
            }
            for key, report in reports.items()
        ],
        [f"excluded={key} accuracy={report.accuracy:.4f}" for key, report in reports.items()],
    )
    return 0


def _cmd_imbalance(args) -> int:
    scenarios = read_json(args.scenarios, _scenarios) if args.scenarios else None  # None: the stock scenarios
    cfg, agents, coordinator, records = _setup(args)
    results = run_imbalance_suite(
        records, agents, cfg, scenarios, args.seed, coordination_backend=coordinator, size=args.size
    )
    lines = [
        f"scenario={name} rule_f1={comparison.rule_based.f1:.4f} "
        f"llm_f1={comparison.llm_based.f1:.4f} fallback={comparison.llm_fallback_rate:.2f}"
        for name, comparison in results.items()
    ]
    _write_study(args, "imbalance", results, comparison_table(results), lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command. A rejected input (one of the package's named errors,
    or a file that cannot be opened) ends it with its message as one line on
    stderr and exit status 1; any other exception is a defect and keeps its traceback."""
    parser = argparse.ArgumentParser(prog="marble", description="Multi-agent accident severity prediction engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in [
        ("predict", _cmd_predict, "predict severities and write a trace file"),
        ("eval", _cmd_eval, "evaluate predictions against labels"),
        ("ablate", _cmd_ablate, "leave-one-agent-out ablation study"),
        ("imbalance", _cmd_imbalance, "class-imbalance robustness sweep"),
    ]:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        command.add_argument("--config", help="engine config JSON file")
        command.add_argument("--input", required=True, help="input CSV of accident records")
        command.add_argument("--train", help="labeled CSV to train the built-in ML agent")
        command.add_argument("--scripted", help="JSON of canned backend responses per agent")
        command.add_argument("--registry", help="JSON feature registry override")
        if name == "imbalance":
            command.add_argument("--scenarios", help="JSON list of scenarios (name + distribution)")
            command.add_argument("--seed", type=int, default=0)
            command.add_argument("--size", type=int, default=None, help="resampled set size per scenario")
        else:
            command.add_argument("--mode", choices=["rule", "llm"], help="coordination mode override")
        if name == "predict":
            command.add_argument("--trace", required=True, help="JSONL trace output path")
        else:
            command.add_argument("--output-dir", required=True)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, ScenarioError, TrainError, OSError) as err:
        raise SystemExit(str(err)) from err


if __name__ == "__main__":
    raise SystemExit(main())
