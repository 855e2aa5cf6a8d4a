"""Package structure: an acyclic module graph, resolvable exports and demo
imports, and the names the benchmark harness patches."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "domainlm"
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _package_imports(path: Path) -> set[str]:
    """Sibling modules imported anywhere in `path`, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("domainlm"):
                continue
            module = (node.module or "").removeprefix("domainlm").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("domainlm."):
                    found.add(alias.name.split(".")[1])
    return found


def test_module_import_graph_is_acyclic():
    graph = {name: _package_imports(PACKAGE_DIR / f"{name}.py") for name in MODULES}
    assert all(dep in graph for deps in graph.values() for dep in deps)
    state: dict[str, str] = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                pytest.fail(f"import cycle: {' -> '.join(path + [name, dep])}")
            if dep not in state:
                visit(dep, path + [name])
        state[name] = "done"

    for name in MODULES:
        if name not in state:
            visit(name, [])


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"domainlm.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _imported_names(path: Path):
    """(module, name) for every `from domainlm... import name` in `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("domainlm"):
            for alias in node.names:
                yield node.module, alias.name


def test_package_init_names_resolve():
    import domainlm

    init = PACKAGE_DIR / "__init__.py"
    names = [alias.name for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(domainlm, n)] == []


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [
        f"{module}.{name}"
        for module, name in _imported_names(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_benchmark_hooks_install():
    """The benchmark patches functions by module and name; a dropped name fails every workload."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import child, tracing, workloads; tracing.StageHooks(); tracing.Tracer().install()"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
