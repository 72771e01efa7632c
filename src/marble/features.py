"""Accident record ingestion, per-agent feature projection, and prompt formatting.

The registry maps feature names to the SLM domain that reasons about them;
the ML agent always receives the full feature map. Projection and formatting
are pure, so identical inputs always yield byte-identical prompt text.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import compress
from pathlib import Path
from typing import Iterator, Mapping

from .core import AgentId, ConfigError, Severity, from_json_value, read_json


class SchemaError(ValueError):
    """The input file is not UTF-8, lacks a usable header, or two of its headers collide."""


class RowError(ValueError):
    """A single data row could not be ingested; collected, not fatal."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row
        self.message = message


_MISSING_TOKENS = {"", "n/a", "na", "none", "null", "unknown", "nan", "-"}
_BAD_ROW_BUDGET = 100  # bad rows that ingest_csv collects per file before it gives up
_HEADERS_KEPT = 64  # (registry, header) matches kept, least recently used dropped first


@dataclass(frozen=True, slots=True)
class FeatureValue:
    """One feature cell: a categorical label, a finite number, or an explicit missing marker."""

    kind: str  # "categorical" | "numeric" | "missing"
    text: str = ""
    number: float = 0.0

    @classmethod
    def categorical(cls, label: str) -> "FeatureValue":
        return cls("categorical", label)

    @classmethod
    def numeric(cls, value: float) -> "FeatureValue":
        # Non-finite numerics are never stored; they degrade to missing.
        if not math.isfinite(value):
            return cls.missing()
        return cls("numeric", "", float(value))

    @classmethod
    def missing(cls) -> "FeatureValue":
        return cls("missing")

    @property
    def is_missing(self) -> bool:
        return self.kind == "missing"

    def render(self) -> str:
        """Display form used in prompts; missing values read as 'unknown'."""
        if self.kind == "categorical":
            return self.text
        if self.kind == "numeric":
            return _format_number(self.number)
        return "unknown"

    def to_dict(self) -> dict:
        if self.kind == "categorical":
            return {"type": "categorical", "value": self.text}
        if self.kind == "numeric":
            return {"type": "numeric", "value": self.number}
        return {"type": "missing"}


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


class _Row(Mapping[str, FeatureValue]):
    """An ingested record's features: its tuple of values, and the map from
    name to position that all records of its file share."""

    __slots__ = ("_columns", "_values")

    def __init__(self, columns: dict[str, int], values: tuple[FeatureValue, ...]):
        self._columns, self._values = columns, values

    def __getitem__(self, name: str) -> FeatureValue:
        return self._values[self._columns[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[tuple[str, FeatureValue]]:
        return zip(self._columns, self._values)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True, slots=True)
class AccidentRecord:
    """One input instance: named feature values plus optional ground truth."""

    id: str
    features: Mapping[str, FeatureValue]
    label: Severity | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")


def canonical_name(name: str) -> str:
    """Case/punctuation-insensitive feature-name key."""
    return " ".join(name.strip().lower().replace("_", " ").replace("-", " ").split())


# Default domain assignments. Declaration order here fixes feature order in
# projections and therefore in prompt text.
_DEFAULT_DOMAINS: dict[AgentId, tuple[str, ...]] = {
    AgentId.ENVIRONMENTAL: (
        "Weather Conditions",
        "Light Conditions",
        "Visibility",
        "Temperature",
        "Wind Speed",
        "Humidity",
    ),
    AgentId.TEMPORAL: (
        "Day of Week",
        "Time of Day",
        "Month",
        "Weekend/Holiday",
        "Day of Year",
        "Part of Day",
    ),
    AgentId.INFRASTRUCTURAL: (
        "Road Type",
        "Junction Detail",
        "Speed Limit",
        "Road Surface",
        "Special Conditions",
        "Carriageway Hazards",
    ),
    AgentId.SPATIAL: (
        "Point of Impact",
        "Travel Distance",
        "Vehicle Manoeuvres",
        "Longitude",
        "Latitude",
        "Spatial Extent",
    ),
}


@dataclass(frozen=True, eq=False)  # equal only to itself, and so hashable: a key of ``_resolve``'s cache
class FeatureRegistry:
    """Which SLM domain reads which features; ML implicitly reads them all."""

    domains: Mapping[AgentId, tuple[str, ...]] = field(
        default_factory=lambda: dict(_DEFAULT_DOMAINS)
    )

    def __post_init__(self) -> None:
        for agent in self.domains:
            if not agent.is_slm:
                raise ConfigError(f"registry.{agent.name}: only SLM domains take feature assignments")

    def domain_features(self, agent: AgentId) -> tuple[str, ...]:
        return tuple(self.domains.get(agent, ()))


@lru_cache(maxsize=_HEADERS_KEPT)
def _resolve(registry: FeatureRegistry, header: tuple[str, ...]) -> dict[AgentId, tuple[tuple[str, str | None], ...]]:
    """Per agent, each of its registry names paired with the header's name of
    the same ``canonical_name`` (the last, if several), or None. Built once
    per distinct (registry, header) while kept."""
    by_canonical = {canonical_name(n): n for n in header}
    return {a: tuple((n, by_canonical.get(canonical_name(n))) for n in ns) for a, ns in registry.domains.items()}


def default_registry() -> FeatureRegistry:
    return FeatureRegistry()


_DEFAULT_REGISTRY = default_registry()
_MISSING = FeatureValue.missing()


def load_registry(path: str | Path) -> FeatureRegistry:
    """Load a JSON registry override: {"environmental": [...], ...}, read as
    config is (a malformed entry raises ConfigError naming it). An "ml_only"
    list is accepted and ignored: the ML agent reads every feature."""
    data = read_json(path)
    if isinstance(data, dict):
        data.pop("ml_only", None)
    return FeatureRegistry(from_json_value(Mapping[AgentId, tuple[str, ...]], data, "registry"))


def project(
    record: AccidentRecord,
    agent: AgentId,
    registry: FeatureRegistry | None = None,
) -> dict[str, FeatureValue]:
    """Select the feature subset the given agent reasons about.

    The ML agent gets the full map unchanged. An SLM agent gets exactly its
    registry features, in declaration order; features the record lacks are
    filled with missing markers so the prompt shape stays stable. Registry
    names are matched to the record's by ``canonical_name`` once per distinct
    header, and nothing is kept on the record.
    """
    if agent is AgentId.ML:
        return dict(record.features.items())
    registry = registry or _DEFAULT_REGISTRY
    features = record.features
    pairs = _resolve(registry, tuple(features)).get(agent, ())
    return {name: _MISSING if key is None else features[key] for name, key in pairs}


def format_features(subset: Mapping[str, FeatureValue]) -> str:
    """Serialize a projected subset as deterministic "Name: value" lines."""
    return "\n".join(f"{name}: {value.render()}" for name, value in subset.items())


def _parse_cell(text: str) -> FeatureValue:
    stripped = text.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return _MISSING
    try:
        number = float(stripped)
    except ValueError:
        return FeatureValue.categorical(stripped)
    return FeatureValue.numeric(number)  # non-finite degrades to missing


def _parse_label(text: str, row: int) -> Severity | None:
    stripped = text.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return None
    try:
        value = float(stripped)
    except ValueError:
        value = math.nan
    if value not in (1, 2, 3, 4):  # "3.0" is class 3; "2.7" and "inf" are no class
        raise RowError(row, "label out of range")
    return Severity(int(value))


def ingest_csv(
    path: str | Path,
    registry: FeatureRegistry | None = None,
    *,
    errors_out: list[RowError] | None = None,
) -> list[AccidentRecord]:
    """Read a UTF-8 comma-delimited CSV, BOM or not, into accident records.

    The first row names the features; an optional "severity" column holds
    labels in {1,2,3,4} and an optional "id" column supplies identifiers.
    Unparseable numerics become missing values. Two headers with the same
    ``canonical_name`` raise SchemaError. Bad rows raise RowError, which is
    collected (into ``errors_out`` when given) rather than fatal, until
    more than 100 rows are bad. A file that is not UTF-8, or a cell past the
    csv module's field size limit, raises SchemaError.
    Each distinct cell text is parsed once and its FeatureValue shared by every record that holds it, in ``_Row``s.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        row_num = -1  # the row being read, less one: -1 before the header, 0 after it
        try:
            reader = csv.reader(handle)
            header = next(reader, None)
            row_num = 0
            if not header or all(not h.strip() for h in header):
                raise SchemaError("missing header")
            columns: dict[str, int] = {}
            for i, h in enumerate(header):
                j = columns.setdefault(canonical_name(h), i)
                if j != i:
                    raise SchemaError(f"headers {header[j]!r} and {h!r} collide as {canonical_name(h)!r}")
            id_col = columns.get("id")
            label_col = columns.get("severity")
            is_feature = [i != id_col and i != label_col for i in range(len(header))]
            positions = {name: i for i, name in enumerate(compress(header, is_feature))}  # shared by the file's records
            if registry is not None and positions:
                if all(key is None for pairs in _resolve(registry, tuple(positions)).values() for _, key in pairs):
                    raise SchemaError("no registry feature matches the header")
            parse = cache(_parse_cell)  # one entry per distinct cell text, for this call only

            records: list[AccidentRecord] = []
            seen_ids: set[str] = set()
            bad = 0
            for row_num, cells in enumerate(reader, start=1):
                try:
                    if len(cells) != len(header):
                        raise RowError(row_num, f"expected {len(header)} columns, got {len(cells)}")
                    rec_id = cells[id_col].strip() if id_col is not None else f"row-{row_num}"
                    if not rec_id:
                        rec_id = f"row-{row_num}"
                    if rec_id in seen_ids:
                        raise RowError(row_num, f"duplicate id {rec_id!r}")
                    label = _parse_label(cells[label_col], row_num) if label_col is not None else None
                    features = _Row(positions, tuple(map(parse, compress(cells, is_feature))))
                    seen_ids.add(rec_id)
                    records.append(AccidentRecord(id=rec_id, features=features, label=label))
                except RowError as err:
                    bad += 1
                    if errors_out is not None:
                        errors_out.append(err)
                    if bad > _BAD_ROW_BUDGET:
                        raise RowError(row_num, f"bad-row budget ({_BAD_ROW_BUDGET}) exceeded: {err.message}") from err
        except csv.Error as err:  # as on a cell past the csv module's field size limit
            where = f"row {row_num + 1}" if row_num + 1 else "the header"
            raise SchemaError(f"{path}: {err} in {where}") from None
        except UnicodeDecodeError as err:
            # The decoder reads ahead of the csv reader, so ``row_num`` is not the bad byte's row: find it again.
            text = Path(path).read_bytes().decode("utf-8", "surrogateescape")  # a bad byte reads as a lone surrogate
            bad_at = next((i for i, ch in enumerate(text) if "\udc80" <= ch <= "\udcff"), len(text))
            row = sum(1 for _ in csv.reader(io.StringIO(text[:bad_at] + "x", newline=""))) - 1
            where = f"row {row}" if row else "the header"
            raise SchemaError(f"{path} is not UTF-8: byte {err.object[err.start]:#04x} in {where}") from None
        return records
