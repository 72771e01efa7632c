"""Agent implementations: the statistical model, SLM pipelines, backends, and mocks."""

from .backends import (
    BackendTimeoutError,
    RemoteHttpBackend,
    ScriptedBackend,
    SlmBackend,
    TransportError,
)
from .base import Agent, ScriptedAgent
from .ml import MlAgent, MlModel, TrainError, ml_evaluate, ml_train
from .slm import (
    DEFAULT_TEMPLATES,
    ParseError,
    PromptTemplate,
    SlmAgent,
    build_prompt,
    calibrate,
    parse_response_detailed,
    slm_evaluate,
)

__all__ = [
    "Agent",
    "BackendTimeoutError",
    "DEFAULT_TEMPLATES",
    "MlAgent",
    "MlModel",
    "ParseError",
    "PromptTemplate",
    "RemoteHttpBackend",
    "ScriptedAgent",
    "ScriptedBackend",
    "SlmAgent",
    "SlmBackend",
    "TrainError",
    "TransportError",
    "build_prompt",
    "calibrate",
    "ml_evaluate",
    "ml_train",
    "parse_response_detailed",
    "slm_evaluate",
]
