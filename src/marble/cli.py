"""Command-line entry points: predict, eval, ablate, imbalance."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Mapping

from .agents import MlAgent, RemoteHttpBackend, ScriptedBackend, SlmAgent, ml_train
from .core import SLM_AGENT_IDS, CoordinationMode, EngineConfig, Severity, from_json_value, load_config, validate_config
from .engine import run_batch
from .features import RowError, default_registry, ingest_csv, load_registry
from .harness import (
    comparison_table,
    compute_metrics,
    default_scenarios,
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


def _load_scripted(path: str) -> dict:
    """The --scripted responses: an object whose entries are a reply or an
    object of prompt substrings to replies, all strings."""
    scripted = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(scripted, dict):
        raise SystemExit("--scripted must hold a JSON object")
    for key, script in scripted.items():
        replies = script.values() if isinstance(script, dict) else [script]
        if not all(isinstance(reply, str) for reply in replies):
            raise SystemExit(f"--scripted entry {key!r} must be a string or an object of strings")
    return scripted


def _ingest(path: str, registry=None):
    """The records of a CSV; each row it skips is named on stderr, and a CSV
    past the bad-row budget ends the command with one line."""
    errors: list[RowError] = []
    try:
        return ingest_csv(path, registry, errors_out=errors)
    except RowError as err:
        errors.pop()  # the row that ran the budget out, which ``err`` names
        raise SystemExit(f"{path}: {err}") from None
    finally:
        for skipped in errors:
            print(f"{path}: skipped row {skipped.row}: {skipped.message}", file=sys.stderr)


def _build_agents(cfg: EngineConfig, args):
    scripted = _load_scripted(args.scripted) if args.scripted else {}
    roles = [kind.value for kind in SLM_AGENT_IDS] + ["coordinator"]
    if unknown := [key for key in scripted if key not in roles]:
        raise SystemExit(f"--scripted key {unknown[0]!r} names no role; the roles are {', '.join(roles)}")
    # One endpoint backend, and so one TLS context, shared by every role that is not scripted.
    remote = RemoteHttpBackend(cfg.endpoint) if cfg.endpoint.url and any(r not in scripted for r in roles) else None

    def backend(name: str):
        """The scripted backend for ``name``, else the shared endpoint's, else none."""
        return ScriptedBackend(scripted[name]) if name in scripted else remote

    agents = [MlAgent(ml_train(_ingest(args.train)))] if args.train else []
    for kind in SLM_AGENT_IDS:
        if (slm_backend := backend(kind.value)) is not None:
            agents.append(SlmAgent(kind, slm_backend, cfg))
    if not agents:
        raise SystemExit(
            "no agents configured: provide --train for the ML agent and/or an "
            "endpoint url (or --scripted) for the SLM agents"
        )
    return agents, backend("coordinator")


def _setup(args):
    """Set-up shared by every command: the config, the agents, the options
    every run takes (feature registry and coordination backend) and the
    --input records. LLM coordination, which imbalance always runs, with no backend exits first."""
    cfg = _load_cfg(args)
    agents, coordination_backend = _build_agents(cfg, args)
    llm = args.command == "imbalance" or cfg.coordination_mode is CoordinationMode.LLM_BASED
    if llm and coordination_backend is None:
        raise SystemExit("LLM coordination needs a coordination backend (endpoint or --scripted)")
    registry = load_registry(args.registry) if args.registry else default_registry()
    # With an SLM agent configured, some header must name a registry feature.
    records = _ingest(args.input, registry if any(a.identity().is_slm for a in agents) else None)
    return cfg, agents, dict(registry=registry, coordination_backend=coordination_backend), records


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _cmd_predict(args) -> int:
    cfg, agents, options, records = _setup(args)
    decisions = run_batch(records, agents, cfg, args.trace, **options)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["id", "prediction", "confidence", "source", "rule"])
    for record, decision in zip(records, decisions):
        pred = "" if decision.prediction is None else int(decision.prediction)
        out.writerow([record.id, pred, decision.confidence, decision.source.value, decision.rule_fired])
    return 0


def _evaluation_setup(args):
    """``_setup`` for eval, ablate and imbalance, whose records must all be
    labelled, and their output directory."""
    cfg, agents, options, records = _setup(args)
    if any(r.label is None for r in records):
        raise SystemExit("every input record needs a severity label for evaluation")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, agents, options, records, out_dir


def _cmd_eval(args) -> int:
    cfg, agents, options, records, out_dir = _evaluation_setup(args)
    decisions = run_batch(records, agents, cfg, out_dir / "traces.jsonl", **options)
    report = compute_metrics(decisions, [r.label for r in records])
    _write_json(out_dir / "metrics.json", report.to_dict())
    _write_csv(out_dir / "metrics.csv", [report.summary()])
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.f1:.4f} abstentions={report.abstentions}")
    return 0


def _cmd_ablate(args) -> int:
    cfg, agents, options, records, out_dir = _evaluation_setup(args)
    reports = run_ablation(records, agents, cfg, **options)
    drops = relative_accuracy_drops(reports)
    _write_json(
        out_dir / "ablation.json",
        {
            "reports": {key: report.to_dict() for key, report in reports.items()},
            "relative_accuracy_drop": drops,
        },
    )
    _write_csv(
        out_dir / "ablation.csv",
        [
            {
                "excluded": key,
                "accuracy": report.accuracy,
                "f1": report.f1,
                "relative_drop": drops.get(key, 0.0),
            }
            for key, report in reports.items()
        ],
    )
    for key, report in reports.items():
        print(f"excluded={key} accuracy={report.accuracy:.4f}")
    return 0


def _load_scenarios(path: str | None) -> list[ImbalanceScenario]:
    if not path:
        return default_scenarios()
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ScenarioError("--scenarios must be a JSON array of scenario objects")
    scenarios = []
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ScenarioError(f"scenario {name!r}: each scenario must be an object with a string \"name\"")
        try:
            distribution = from_json_value(Mapping[Severity, float], entry.get("distribution"), "distribution")
        except ValueError as exc:  # a ConfigError naming the entry
            message = f'"distribution" must map classes 1-4 to proportions ({exc})'
            raise ScenarioError(f"scenario {name!r}: {message}") from exc
        scenarios.append(ImbalanceScenario(name, distribution))
    return scenarios


def _cmd_imbalance(args) -> int:
    cfg, agents, options, records, out_dir = _evaluation_setup(args)
    scenarios = _load_scenarios(args.scenarios)
    results = run_imbalance_suite(records, agents, cfg, scenarios, args.seed, size=args.size, **options)
    _write_json(out_dir / "imbalance.json", {k: v.to_dict() for k, v in results.items()})
    _write_csv(out_dir / "imbalance.csv", comparison_table(results))
    for name, comparison in results.items():
        print(
            f"scenario={name} rule_f1={comparison.rule_based.f1:.4f} "
            f"llm_f1={comparison.llm_based.f1:.4f} fallback={comparison.llm_fallback_rate:.2f}"
        )
    return 0


def _add_common(parser: argparse.ArgumentParser, with_mode: bool = True) -> None:
    parser.add_argument("--config", help="engine config JSON file")
    parser.add_argument("--input", required=True, help="input CSV of accident records")
    parser.add_argument("--train", help="labeled CSV to train the built-in ML agent")
    parser.add_argument("--scripted", help="JSON of canned backend responses per agent")
    parser.add_argument("--registry", help="JSON feature registry override")
    if with_mode:
        parser.add_argument("--mode", choices=["rule", "llm"], help="coordination mode override")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="marble", description="Multi-agent accident severity prediction engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser("predict", help="predict severities and write a trace file")
    _add_common(p_predict)
    p_predict.add_argument("--trace", required=True, help="JSONL trace output path")
    p_predict.set_defaults(func=_cmd_predict)

    p_eval = sub.add_parser("eval", help="evaluate predictions against labels")
    _add_common(p_eval)
    p_eval.add_argument("--output-dir", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_ablate = sub.add_parser("ablate", help="leave-one-agent-out ablation study")
    _add_common(p_ablate)
    p_ablate.add_argument("--output-dir", required=True)
    p_ablate.set_defaults(func=_cmd_ablate)

    p_imb = sub.add_parser("imbalance", help="class-imbalance robustness sweep")
    _add_common(p_imb, with_mode=False)
    p_imb.add_argument("--scenarios", help="JSON list of scenarios (name + distribution)")
    p_imb.add_argument("--seed", type=int, default=0)
    p_imb.add_argument("--size", type=int, default=None, help="resampled set size per scenario")
    p_imb.add_argument("--output-dir", required=True)
    p_imb.set_defaults(func=_cmd_imbalance)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
