"""Every public name resolves, and so does every package name the benchmark
in ``perfbench/`` reads: a removed name there breaks every benchmark run,
and the benchmark's own smoke test is not part of this suite."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = (
    "geoipm.jordan",
    "geoipm.geometry",
    "geoipm.subspace",
    "geoipm.solver",
    "geoipm.harness",
    "geoipm.harness.io",
    "geoipm.harness.cli",
    "geoipm.harness.experiments",
    "geoipm.harness.generate",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_every_traced_name_resolves():
    """``tracing.traced`` wraps each name of ``SPANS`` and ``COUNTED`` by
    ``getattr`` on its module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{label}.{attr}" for module, label, attrs in tracing.SPANS + tracing.COUNTED
               for attr in attrs if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_resolves(path):
    """Names imported from ``geoipm`` modules, and attributes read off the
    ``geoipm`` modules a file imports."""
    tree = ast.parse(path.read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "geoipm":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "geoipm":
            source = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(source, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if not hasattr(modules[node.value.id], node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
    assert not missing
