"""Every public name resolves, and so does every package name that the
benchmark in ``perfbench/`` or the inline programs of the CI workflows
read: a removed name there breaks every benchmark run or a CI step, and
neither the benchmark's own smoke test nor the workflows run in this suite.
README's library example runs as it stands."""

import ast
import importlib
import importlib.util
import re
import textwrap
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKFLOWS = ROOT / ".github" / "workflows"
README = ROOT / "README.md"

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


def _unresolved(tree: ast.AST) -> list:
    """The package names ``tree`` reads that do not resolve: names imported
    from ``geoipm`` modules, and each dotted name read off an imported
    ``geoipm`` module, as far as its chain runs through modules
    (``g.subspace.scale_matched_mu``)."""
    modules, missing = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "geoipm":
                    # ``import geoipm.x`` binds geoipm, ``import geoipm.x as y`` binds y
                    bound = alias.name if alias.asname else "geoipm"
                    modules[alias.asname or bound] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "geoipm":
            source = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(source, alias.name, None)
                if value is None:
                    missing.add(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not chain or not isinstance(node, ast.Name) or node.id not in modules:
            continue
        value, name = modules[node.id], node.id
        for attr in reversed(chain):
            if not isinstance(value, types.ModuleType):
                break
            name, value = f"{name}.{attr}", getattr(value, attr, None)
            if value is None:
                missing.add(name)
                break
    return sorted(missing)


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_resolves(path):
    assert not _unresolved(ast.parse(path.read_text()))


def _inline_programs() -> dict:
    """The ``python -c`` programs of the workflows by ``file:line``: each
    quoted argument of a ``-c`` flag, dedented as YAML dedents its block."""
    out = {}
    for path in sorted(WORKFLOWS.glob("*.yml")):
        text = path.read_text()
        for match in re.finditer(r"""-c (["'])(.*?)\1""", text, re.S):
            out[f"{path.name}:{text.count(chr(10), 0, match.start()) + 1}"] = textwrap.dedent(match.group(2))
    return out


def test_every_package_name_an_inline_ci_program_reads_resolves():
    """One program imports the package today, the numpy-only venv's
    conversion to operator form; a change to the quoting that hid it from
    the extraction would leave it unchecked."""
    programs = _inline_programs()
    assert sum("import geoipm" in program for program in programs.values()) >= 1
    missing = {where: names for where, program in programs.items() if (names := _unresolved(ast.parse(program)))}
    assert not missing


def test_the_readme_library_example_runs(capsys):
    """The one ``python`` block under "Library example", run as written:
    its solve converges and the dual run ends at the inverse of its w."""
    section = README.read_text().split("## Library example", 1)[1]
    (program,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(program, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("converged ") and lines[1].startswith("objective gap: ")
    steps, distance = lines[2].split()
    assert steps == lines[0].split()[1] and float(distance) <= 1e-6
