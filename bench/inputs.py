"""Seeded accident records for the benchmark, written out as CSV files.

Every record carries all 24 features of the default registry plus the
"ml signal" column. The per-agent hint features of ``tests/synth.py`` sit in
four of the registry columns (one per SLM domain) and in "ml signal": each
hint names the true class with a per-agent probability, so the scripted
backends, which echo the hint in their own prompt, vote like agents of
known accuracy. The other 20 columns hold plausible, label-independent
values with a few missing cells.

Within one generated set, no two records share the projection of any SLM
domain. The traced run relies on this to tell records apart from what an
agent or a backend receives.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path
from typing import Sequence

from synth import CLASSES, HINT_FEATURES, hint_for

from marble.core import AgentId
from marble.features import default_registry

# Probability that each agent's hint names the true class.
HINT_ACCURACY: dict[AgentId, float] = {
    AgentId.ML: 0.70,
    AgentId.ENVIRONMENTAL: 0.75,
    AgentId.INFRASTRUCTURAL: 0.70,
    AgentId.SPATIAL: 0.65,
    AgentId.TEMPORAL: 0.60,
}

# Severities 2 and 3 are common, 1 and 4 rare.
CLASS_WEIGHTS = (2, 3, 3, 2)

MISSING_RATE = 0.03

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
_CATEGORIES: dict[str, tuple[str, ...]] = {
    "Light Conditions": ("Daylight", "Darkness - lights lit", "Darkness - no lighting", "Dusk"),
    "Weekend/Holiday": ("yes", "no"),
    "Junction Detail": ("Not at junction", "Roundabout", "T junction", "Crossroads",
                        "Slip road", "Private drive", "Multiple junction", "Other junction"),
    "Road Surface": ("Dry", "Wet", "Ice", "Snow", "Flood"),
    "Special Conditions": ("None", "Roadworks", "Signal defective", "Oil on road", "Mud"),
    "Carriageway Hazards": ("None", "Object in road", "Animal", "Pedestrian in road", "Debris"),
    "Vehicle Manoeuvres": ("Going ahead", "Turning right", "Turning left", "Overtaking",
                           "Reversing", "Parked", "Changing lane"),
    "Spatial Extent": ("Urban", "Rural", "Motorway"),
}


def _part_of_day(hour: int) -> str:
    if 5 <= hour < 12:
        return "morning"
    if 12 <= hour < 17:
        return "afternoon"
    if 17 <= hour < 21:
        return "evening"
    return "night"


def _background(rng: random.Random) -> dict[str, str]:
    """Label-independent cells for the 20 registry features without a hint."""
    hour, minute = rng.randrange(24), rng.randrange(60)
    cells = {
        "Light Conditions": "",
        "Visibility": f"{rng.uniform(0.1, 10.0):.1f}",
        "Temperature": f"{rng.uniform(-10.0, 35.0):.1f}",
        "Wind Speed": str(rng.randrange(0, 61)),
        "Humidity": str(rng.randrange(20, 101)),
        "Time of Day": f"{hour:02d}:{minute:02d}",
        "Month": rng.choice(_MONTHS),
        "Weekend/Holiday": "",
        "Day of Year": str(rng.randrange(1, 366)),
        "Part of Day": _part_of_day(hour),
        "Junction Detail": "",
        "Speed Limit": str(rng.choice((20, 30, 40, 50, 60, 70))),
        "Road Surface": "",
        "Special Conditions": "",
        "Carriageway Hazards": "",
        "Travel Distance": f"{rng.uniform(0.1, 50.0):.1f}",
        "Vehicle Manoeuvres": "",
        "Longitude": f"{rng.uniform(-5.0, 1.8):.4f}",
        "Latitude": f"{rng.uniform(50.0, 55.0):.4f}",
        "Spatial Extent": "",
    }
    for name, choices in _CATEGORIES.items():
        cells[name] = rng.choice(choices)
    for name in cells:
        if rng.random() < MISSING_RATE:
            cells[name] = ""
    return cells


def generate_rows(n: int, seed: int, prefix: str, block: int = 0) -> list[dict[str, str]]:
    """``n`` labelled CSV rows, deterministic per ``seed``, in blocks of ``block`` rows (one by default)."""
    block = block or n
    rng = random.Random(seed)
    registry = default_registry()
    domains = {agent: registry.domain_features(agent) for agent in registry.domains}
    seen: dict[AgentId, set[tuple[str, ...]]] = {agent: set() for agent in domains}
    rows: list[dict[str, str]] = []
    while len(rows) < n:
        # The first rows of each block cover every class, so training and
        # every imbalance scenario always find each class in a block.
        if len(rows) % block < len(CLASSES):
            label = CLASSES[len(rows) % block]
        else:
            label = rng.choices(CLASSES, weights=CLASS_WEIGHTS)[0]
        cells = _background(rng)
        for agent, name in HINT_FEATURES.items():
            cells[name] = f"sig{hint_for(label, HINT_ACCURACY[agent], rng)}"
        keys = {agent: tuple(cells[name] for name in names) for agent, names in domains.items()}
        if any(keys[agent] in seen[agent] for agent in domains):
            continue
        for agent, key in keys.items():
            seen[agent].add(key)
        rows.append({"id": f"{prefix}{len(rows)}", **cells, "severity": str(label)})
    return rows


def write_csv(path: Path, rows: Sequence[dict[str, str]]) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path
