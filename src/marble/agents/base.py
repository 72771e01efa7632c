"""The agent behavioral contract."""

from __future__ import annotations

from typing import Mapping, Protocol

from ..core import AgentId, AgentOutput
from ..features import FeatureValue


class Agent(Protocol):
    """A stateless predictor over a projected feature subset.

    ``evaluate`` is total: it returns an ``AgentOutput`` of its own
    ``identity()``, reports failure through it rather than raising, and
    resolves (or is abandoned) within the configured agent timeout.
    """

    def identity(self) -> AgentId: ...

    def evaluate(self, features: Mapping[str, FeatureValue]) -> AgentOutput: ...
