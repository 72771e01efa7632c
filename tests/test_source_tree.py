"""Checks over the package source and the test configuration, not behaviour."""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from marble.core import EngineConfig, validate_config

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "marble"


def private_module_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level with ``def``, ``class`` or an
    assignment that start with one underscore and are no dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_private_module_name_is_read_in_its_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(private_module_names(tree) - read) == []


# The caches a frozen object may write into itself after construction.
CACHES_SET_ON_FROZEN_OBJECTS = {"_fingerprint"}


def test_frozen_objects_write_only_their_named_caches():
    """A frozen dataclass holds what it is built from; ``object.__setattr__``
    may only fill one of the allowlisted caches, never derived state."""
    written = {
        ast.unparse(node.args[1])
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
    }
    assert written and sorted(written - {repr(name) for name in CACHES_SET_ON_FROZEN_OBJECTS}) == []


def test_nothing_in_the_package_sleeps():
    """Waiting belongs to the agent pool's deadline and to the backends' own
    sockets; a simulated slow model lives in the tests."""
    sleeps = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "sleep"
    ]
    assert sorted(sleeps) == []


def test_only_read_json_and_the_model_reply_readers_call_json_loads():
    """Input files go through ``core.read_json``, which is strict; only a
    model's reply and an endpoint's body are read as they come."""
    callers = {
        f"{path.relative_to(PACKAGE)}:{getattr(top, 'name', '<module>')}"
        for path in PACKAGE.rglob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.loads"
    }
    assert sorted(callers) == [
        "agents/backends.py:RemoteHttpBackend", "agents/slm.py:_iter_json_candidates", "core.py:read_json"
    ]


def test_only_fuse_and_agent_output_read_failed():
    """``fuse`` drops the failed outputs; what it feeds takes the live ones
    and never tests ``failed`` again."""
    readers = {
        f"{path.relative_to(PACKAGE)}:{getattr(top, 'name', '<module>')}"
        for path in PACKAGE.rglob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "failed" and isinstance(node.ctx, ast.Load)
    }
    assert sorted(readers) == ["core.py:AgentOutput", "engine.py:fuse"]


@pytest.mark.parametrize("module_name", ["marble", "marble.agents"])
def test_every_exported_name_resolves_once(module_name):
    module = importlib.import_module(module_name)
    assert sorted(n for n in module.__all__ if not hasattr(module, n)) == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from marble import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(importlib.import_module("marble").__all__)


BENCH = PACKAGE.parent.parent / "bench"


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_name_the_benchmark_imports_from_marble_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "marble"
        for alias in node.names
    ]
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert missing == []


# Public names that nothing in the package or the benchmark reads, and why they stay.
ONLY_CALLED_FROM_OUTSIDE = {
    "readable",  # _DeadlineSocket: io.BufferedReader checks it when it wraps the socket
    "readinto",  # _DeadlineSocket: io.BufferedReader reads the reply through it
    "makefile",  # _DeadlineSocket: http.client.HTTPResponse calls it to read the reply
    "abstained",  # FinalDecision: README's documented way for callers to detect an abstention
}


def test_every_public_function_and_class_in_the_package_is_used_outside_the_tests():
    """A name counts as used where it is loaded or read as an attribute in
    the package or the benchmark; imports and ``__all__`` strings do not."""
    used, defined = set(), set()
    for path in [*PACKAGE.rglob("*.py"), *BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and PACKAGE in path.parents:
                defined.add(node.name)
    assert sorted({n for n in defined - used if not n.startswith("_")}) == sorted(ONLY_CALLED_FROM_OUTSIDE)


def json_shape(value):
    """The keys of nested JSON objects, with every leaf value left out."""
    return {k: json_shape(v) for k, v in value.items()} if isinstance(value, dict) else None


def test_readme_config_example_names_every_field_at_its_default():
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    document = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = validate_config(EngineConfig.from_dict(document))
    default = EngineConfig()
    assert json_shape(document) == json_shape(default.to_dict())
    endpoint = replace(cfg.endpoint, url=default.endpoint.url, model=default.endpoint.model)
    assert replace(cfg, endpoint=endpoint) == default


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    """Hypothesis reports a failure through libcst, whose imports warn; under
    the repo's ``filterwarnings`` that must not abort the later tests."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        ),
        encoding="utf-8",
    )
    config = PACKAGE.parent.parent / "pyproject.toml"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config), "--rootdir", str(tmp_path)]
    result = subprocess.run([*command, str(probe)], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
