"""Spans and counts recorded from outside the engine, for the traced run.

The engine is not instrumented. Instead the traced run hands it wrapped
versions of what it already accepts through its public API (agents,
backends and the ``coordinator=`` callable) and times its own calls into
each layer. Each wrapper appends one span on its hot path and nothing
else; which record a span belongs to, and which span caused it, is worked
out when the run ends, from lookup tables built over the run's inputs:

* an agent span is matched by the projection the agent received,
* an agent backend span by its prompt, a coordinator backend span by its
  meta-prompt,
* a coordinator span by the identity of the agent outputs it received.

Records count as one instance per job: spans of a record that ran more
than once in a job (the ablation and imbalance passes) keep their record
id but form no instance.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from marble.agents import BackendTimeoutError, TransportError

# Benchmark-side calls that enter the engine; their self time is the engine's.
ENTRY_SPANS = ("engine.run_batch", "engine.run_instance", "harness.run_ablation",
               "harness.run_imbalance_suite")
BENCH_THREAD_PREFIX = "bench-"


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    record: str | None = None
    subject: object = None  # what the wrapper received, resolved to a record later
    attrs: dict = field(default_factory=dict)
    parent: "Span | None" = None
    job: int = -1
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def features_key(features: Mapping) -> tuple:
    return tuple(features.items())


class TracedAgent:
    """Agent wrapper that records one span per ``evaluate``."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._kind = inner.identity()
        self._spans = tracer.spans

    def identity(self):
        return self._kind

    def evaluate(self, features):
        start = time.perf_counter()
        output = self._inner.evaluate(features)
        end = time.perf_counter()
        self._spans.append(Span("agent", start, end, subject=features,
                                attrs={"agent": self._kind.value, "output": output}))
        return output


class TracedBackend:
    """Backend wrapper that records one span per ``complete`` with its outcome."""

    def __init__(self, inner, tracer: "Tracer", role: str, agent: str | None = None):
        self._inner = inner
        self._spans = tracer.spans
        self._role = role
        self._agent = agent

    def complete(self, prompt, decoding, timeout_ms):
        start = time.perf_counter()
        outcome, text = "ok", None
        try:
            text = self._inner.complete(prompt, decoding, timeout_ms)
            return text
        except BackendTimeoutError:
            outcome = "timeout"
            raise
        except TransportError:
            outcome = "transport"
            raise
        finally:
            self._spans.append(Span("backend", start, time.perf_counter(), subject=prompt,
                                    attrs={"role": self._role, "agent": self._agent,
                                           "outcome": outcome, "text": text}))


class Tracer:
    """In-memory spans of one traced phase, plus the thread-start count."""

    def __init__(self):
        self.spans: list[Span] = []
        self.thread_starts = 0
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, record: str | None = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), record=record))

    def coordinator(self, fn: Callable) -> Callable:
        spans = self.spans

        def traced(outputs, cfg):
            start = time.perf_counter()
            result = fn(outputs, cfg)
            spans.append(Span("coordinator", start, time.perf_counter(), subject=list(outputs)))
            return result

        return traced

    @contextmanager
    def counting_threads(self) -> Iterator[None]:
        """Count every thread started meanwhile, except the benchmark's own."""
        original = threading.Thread.start
        tracer = self

        def start(thread, *args, **kwargs):
            if not thread.name.startswith(BENCH_THREAD_PREFIX):
                with tracer._lock:
                    tracer.thread_starts += 1
            return original(thread, *args, **kwargs)

        threading.Thread.start = start
        try:
            yield
        finally:
            threading.Thread.start = original


@dataclass
class Tables:
    """Lookups from what a wrapper received to the record it came from."""

    by_features: dict[tuple, str] = field(default_factory=dict)
    by_prompt: dict[str, str] = field(default_factory=dict)


def link(spans: Sequence[Span], tables: Tables) -> None:
    """Fill in each span's record, job, parent and index."""
    jobs = sorted((s for s in spans if s.name == "job"), key=lambda s: s.start)
    starts = [j.start for j in jobs]

    def job_of(span: Span) -> int:
        lo, hi = 0, len(starts)
        while lo < hi:
            mid = (lo + hi) // 2
            if starts[mid] <= span.start:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    by_output: dict[int, str | None] = {}
    for span in spans:
        if span.name == "agent":
            span.record = tables.by_features.get(features_key(span.subject))
            by_output[id(span.attrs["output"])] = span.record
        elif span.name == "backend":
            span.record = tables.by_prompt.get(span.subject)
    for span in spans:
        if span.name == "coordinator" and span.subject:
            span.record = by_output.get(id(span.subject[0]))
    for i, span in enumerate(spans):
        span.index = i
        span.job = job_of(span)

    roots: dict[tuple, Span] = {}
    entries: dict[int, list[Span]] = defaultdict(list)
    agents: dict[tuple, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name in ENTRY_SPANS:
            span.parent = jobs[span.job] if span.job >= 0 else None
            if span.record is not None:
                roots[(span.record, span.job)] = span
            else:
                entries[span.job].append(span)
        elif span.name not in ("job", "agent", "backend", "coordinator"):
            span.parent = jobs[span.job] if span.job >= 0 else None
        if span.name == "agent":
            agents[(span.record, span.job, span.attrs["agent"])].append(span)

    def root_of(span: Span) -> Span | None:
        root = roots.get((span.record, span.job))
        if root is not None:
            return root
        return next((e for e in entries.get(span.job, ()) if e.start <= span.start <= e.end), None)

    for span in spans:
        if span.name in ("agent", "coordinator"):
            span.parent = root_of(span)
        elif span.name == "backend":
            if span.attrs["role"] == "agent":
                candidates = agents.get((span.record, span.job, span.attrs["agent"]), ())
                span.parent = next(
                    (a for a in candidates if a.start <= span.start and span.end <= a.end), None
                )
            else:
                span.parent = root_of(span)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            p = span.parent
            start, end = max(span.start, p.start), min(span.end, p.end)
            if end > start:
                children[p.index].append((start, end))
    return {s.index: s.duration - covered(children.get(s.index, ())) for s in spans}


def instances(spans: Sequence[Span]) -> list[dict]:
    """Per record and job that ran once: its agent spans and coordinator start."""
    groups: dict[tuple, dict] = defaultdict(lambda: {"agents": [], "coordinator": None})
    for span in spans:
        if span.record is None:
            continue
        key = (span.record, span.job)
        if span.name == "agent":
            groups[key]["agents"].append(span)
        elif span.name == "coordinator" or (
            span.name == "backend" and span.attrs["role"] == "coordinator"
        ):
            current = groups[key]["coordinator"]
            if current is None or span.start < current:
                groups[key]["coordinator"] = span.start
    out = []
    for group in groups.values():
        kinds = [a.attrs["agent"] for a in group["agents"]]
        if kinds and len(kinds) == len(set(kinds)):
            out.append(group)
    return out


def write_spans(path: Path, spans: Sequence[Span], origin: float) -> None:
    """One JSON object per span, times in ms from ``origin``."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            row = {
                "id": span.index,
                "name": span.name if span.name not in ("agent", "backend")
                else f"{span.name}.{span.attrs.get('agent') or span.attrs.get('role')}",
                "start_ms": round((span.start - origin) * 1000, 4),
                "end_ms": round((span.end - origin) * 1000, 4),
                "parent": None if span.parent is None else span.parent.index,
                "record": span.record,
            }
            if span.name == "backend":
                row["outcome"] = span.attrs["outcome"]
            elif span.name == "agent":
                row["failure_kind"] = span.attrs["output"].failure_kind
            handle.write(json.dumps(row) + "\n")
