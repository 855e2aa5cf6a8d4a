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


def _module_aliases(tree: ast.AST) -> set[str]:
    """Names bound by plain `import x` / `import x as y` in a module."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _references(name: str, attribute_only: bool) -> int:
    """Uses of `name` in src/domainlm outside its definition in autodiff.

    A use is an attribute access `<expr>.name` whose receiver is not an
    imported module (so `np.sqrt` is not a use of a `sqrt` method) or, unless
    `attribute_only`, a bare name. A method that shares its name with an
    ndarray method is counted by array calls of that name too.
    """
    count = 0
    for path in PACKAGE_DIR.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = _module_aliases(tree)
        inside_definition = {
            id(inner)
            for node in ast.walk(tree)
            if path.stem == "autodiff"
            and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name == name
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if id(node) in inside_definition:
                continue
            if isinstance(node, ast.Attribute) and node.attr == name:
                receiver = node.value
                count += not (isinstance(receiver, ast.Name) and receiver.id in modules)
            elif isinstance(node, ast.Name) and node.id == name and not attribute_only:
                count += 1
    return count


def test_every_tape_op_has_a_caller():
    """Tape operations nothing in the package calls are deleted, not kept for later."""
    from domainlm import autodiff

    methods = [n for n, v in vars(autodiff.Tensor).items() if not n.startswith("_") and callable(v)]
    unused = [n for n in autodiff.__all__ if _references(n, attribute_only=False) == 0]
    unused += [f"Tensor.{n}" for n in methods if _references(n, attribute_only=True) == 0]
    assert unused == []


def test_every_encoder_call_names_the_rows_it_reads():
    """A head reads a few rows of the last layer; a call without `positions=` runs all of them."""
    calls = {
        f"{path.name}:{node.lineno}": "positions" in {k.arg for k in node.keywords}
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "encoder_forward"
    }
    # Both training loops share one call; the scan must still see the callers in every module.
    assert {where.split(".py:")[0] for where in calls} == {"evaluation", "model", "training"}
    assert len(calls) >= 4
    assert [where for where, named in calls.items() if not named] == []


def _enclosing(tree: ast.AST) -> dict[int, str]:
    """id(node) -> dotted name of the innermost class or function around it."""
    scope: dict[int, str] = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            scope[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return scope


def test_each_shared_job_has_one_implementation():
    """One CSV writer, one checkpoint-tokenizer check, one dropout-stream seed and one manifest write.

    The commands report what they read and wrote; `cli.main` times them and
    writes the manifest.
    """
    csv_writers, tokenizer_checks, dropout_reads, manifest_writes, clock_reads = [], [], [], [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = _enclosing(tree)
        for node in ast.walk(tree):
            where = f"{path.stem}:{scope.get(id(node), '')}"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "writer"
                and getattr(node.func.value, "id", None) == "csv"
            ):
                csv_writers.append(where)
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                names = {n.attr for side in sides for n in ast.walk(side) if isinstance(n, ast.Attribute)}
                if {"tokenizer_hash", "fingerprint"} <= names:
                    tokenizer_checks.append(where)
            if isinstance(node, ast.Name) and node.id == "_STREAM_DROPOUT" and isinstance(node.ctx, ast.Load):
                dropout_reads.append(where)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_manifest":
                manifest_writes.append(where)
            if isinstance(node, ast.Attribute) and node.attr == "time" and getattr(node.value, "id", None) == "time":
                clock_reads.append(where)
    assert csv_writers == ["configio:write_csv"]
    assert tokenizer_checks == ["model:Checkpoint.check_tokenizer"]
    assert len(dropout_reads) == 1
    assert manifest_writes == ["cli:main"]
    assert "cli:main" in clock_reads
    assert [where for where in clock_reads if where.startswith("cli:_cmd_")] == []


def test_blas_thread_controls_live_in_one_helper_and_nothing_reads_the_environment():
    """No knob: a split step follows its input and the usable CPUs, never an environment variable."""
    environment = {"environ", "environb", "getenv"}
    blas_uses, environment_reads = set(), []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = _enclosing(tree)
        for node in ast.walk(tree):
            where = f"{path.stem}:{scope.get(id(node), '')}"
            if isinstance(node, ast.Attribute):
                text = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                text = ""
            if "scipy_openblas_" in text:
                blas_uses.add(where)
            if (isinstance(node, ast.Attribute) and node.attr in environment and getattr(node.value, "id", None) == "os") or (
                isinstance(node, ast.ImportFrom) and node.module == "os" and {a.name for a in node.names} & environment
            ):
                environment_reads.append(where)
    assert blas_uses == {"autodiff:_blas_thread_controls"}
    assert environment_reads == []
