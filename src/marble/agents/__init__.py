"""Agent implementations: the statistical model, SLM pipelines and their backends."""

from .backends import (
    BackendTimeoutError,
    RemoteHttpBackend,
    ScriptedBackend,
    SlmBackend,
    TransportError,
)
from .base import Agent
from .ml import MlAgent, MlModel, TrainError, ml_train
from .slm import (
    DEFAULT_TEMPLATES,
    ParseError,
    SlmAgent,
    build_prompt,
    calibrate,
    parse_response_detailed,
)

__all__ = [
    "Agent",
    "BackendTimeoutError",
    "DEFAULT_TEMPLATES",
    "MlAgent",
    "MlModel",
    "ParseError",
    "RemoteHttpBackend",
    "ScriptedBackend",
    "SlmAgent",
    "SlmBackend",
    "TrainError",
    "TransportError",
    "build_prompt",
    "calibrate",
    "ml_train",
    "parse_response_detailed",
]
