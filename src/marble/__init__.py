"""Multi-agent accident severity prediction engine.

Specialized agents (one statistical model, four language-model domain
specialists) each score a feature subset; a rule-based or LLM-based
coordinator fuses their votes; a prioritized decision cascade picks the
final severity. Every run leaves a structured trace.
"""

from .core import (
    AgentId,
    AgentOutput,
    ConfigError,
    CoordinationMode,
    EngineConfig,
    Severity,
    load_config,
    validate_config,
)
from .coordination import (
    CoordinationResult,
    VoteBreakdown,
    coordinate_llm,
    coordinate_rb,
)
from .decision import DecisionSource, FinalDecision, abstain, final_decide
from .engine import AgentContractError, TraceRecord, fuse, run_batch, run_instance, run_instances
from .features import (
    AccidentRecord,
    FeatureRegistry,
    FeatureValue,
    default_registry,
    format_features,
    ingest_csv,
    project,
)
from .harness import (
    ImbalanceScenario,
    MetricsReport,
    compute_metrics,
    default_scenarios,
    run_ablation,
    run_imbalance_suite,
    sample_imbalance,
)

__version__ = "0.1.0"

__all__ = [
    "AccidentRecord",
    "AgentContractError",
    "AgentId",
    "AgentOutput",
    "ConfigError",
    "CoordinationMode",
    "CoordinationResult",
    "DecisionSource",
    "EngineConfig",
    "FeatureRegistry",
    "FeatureValue",
    "FinalDecision",
    "ImbalanceScenario",
    "MetricsReport",
    "Severity",
    "TraceRecord",
    "VoteBreakdown",
    "abstain",
    "compute_metrics",
    "coordinate_llm",
    "coordinate_rb",
    "default_registry",
    "default_scenarios",
    "final_decide",
    "format_features",
    "fuse",
    "ingest_csv",
    "load_config",
    "project",
    "run_ablation",
    "run_batch",
    "run_imbalance_suite",
    "run_instance",
    "run_instances",
    "sample_imbalance",
    "validate_config",
]
