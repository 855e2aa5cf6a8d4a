"""Package structure: an acyclic module graph, resolvable exports and demo
imports, and the names the benchmark harness patches."""

import ast
import functools
import importlib
import json
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


@pytest.mark.parametrize("module", ["corpus", "tokenizer"])
def test_importing_a_module_loads_only_its_imports(module):
    """The package root binds nothing, so a module that needs no numpy loads none."""
    code = (
        f"import json, sys, domainlm.{module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('domainlm', 'numpy', 'scipy'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["domainlm", "domainlm.configio", f"domainlm.{module}"]


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


_WALK_A_TAPE = """
import json
import numpy as np
import tracing
from domainlm.autodiff import Tensor
from domainlm.model import (
    ModelConfig, cross_entropy, draw_dropout_masks, encoder_forward, init_parameters, mlm_logits_from_hidden,
)
config = ModelConfig(num_layers=2, num_heads=2, hidden_dim=16, ff_dim=32, vocab_size=64, max_positions=8,
                     dropout_rate=0.1)
params = {name: Tensor(p.data, requires_grad=True) for name, p in init_parameters(config, seed=0).items()}
ids = np.arange(16).reshape(2, 8) % 60 + 4
hidden = encoder_forward(params, config, ids, dropout_masks=draw_dropout_masks(config, 8, (0,), range(2)))
loss = cross_entropy(mlm_logits_from_hidden(hidden.reshape(-1, 16), params, config), ids.reshape(-1))
print(json.dumps(tracing.walk_tape(loss, np.dtype(config.np_dtype))))
"""


def test_benchmark_tape_walk_reads_a_taped_loss():
    """The traced benchmark walks the tape by each node's `.data` and `._parents`; a tape refactor must keep both."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", _WALK_A_TAPE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    nodes, nbytes, off_dtype = json.loads(result.stdout.splitlines()[-1])
    assert nodes > 0 and nbytes > 0
    assert off_dtype == 0


def _module_aliases(tree: ast.AST) -> set[str]:
    """Names bound by plain `import x` / `import x as y` in a module."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _assigned(node: ast.AST) -> list[str]:
    """The names an assignment statement binds; none for any other node."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [target.id for target in targets if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(target, ast.Name)]


def _defines(tree: ast.Module, name: str) -> list[ast.AST]:
    """The definitions of `name` in a module: functions and classes at any level, assignments at module level."""
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return [node for node in functions if node.name == name] + [node for node in tree.body if name in _assigned(node)]


@functools.cache
def _tree_and_uses(path: Path) -> tuple[ast.Module, list[tuple[ast.AST, str, bool]]]:
    """A module's tree and its uses, (node, name, whether an attribute access), in walk order.

    A use is an attribute access `<expr>.name` whose receiver is not an
    imported module (so `np.sqrt` is not a use of a `sqrt` method) or a bare
    name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = _module_aliases(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in modules):
            uses.append((node, node.attr, True))
        elif isinstance(node, ast.Name):
            uses.append((node, node.id, False))
    return tree, uses


def _references(name: str, attribute_only: bool, home: str = "autodiff", directories=(PACKAGE_DIR,)) -> int:
    """Uses of `name` in `directories` outside its definition in module `home`.

    Attribute uses count always, bare names unless `attribute_only`. A method
    that shares its name with an ndarray method is counted by array calls of
    that name too.
    """
    count = 0
    for path in [path for directory in directories for path in sorted(directory.glob("*.py"))]:
        tree, uses = _tree_and_uses(path)
        inside_definition = {
            id(inner)
            for node in (_defines(tree, name) if path.parent == PACKAGE_DIR and path.stem == home else [])
            for inner in ast.walk(node)
        }
        count += sum(
            used == name and (attribute or not attribute_only) and id(node) not in inside_definition
            for node, used, attribute in uses
        )
    return count


def test_every_tape_op_has_a_caller():
    """Tape operations nothing in the package calls are deleted, not kept for later."""
    from domainlm import autodiff

    methods = [n for n, v in vars(autodiff.Tensor).items() if not n.startswith("_") and callable(v)]
    unused = [n for n in autodiff.__all__ if _references(n, attribute_only=False) == 0]
    unused += [f"Tensor.{n}" for n in methods if _references(n, attribute_only=True) == 0]
    assert unused == []


def _public_names():
    """(module, name) for each function, class and constant defined at module level in src/domainlm."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else _assigned(node)
            for name in names:
                if name != "__all__" and (not name.startswith("_") or name.endswith("__")):
                    yield path.stem, name


def test_every_public_name_has_a_caller():
    """A public name that nothing in the program, the benchmark or the demos reads is deleted.

    Uses are counted as in `test_every_tape_op_has_a_caller`; `__all__` and
    imports are not uses, so a name only re-exported counts as unused.
    """
    directories = (PACKAGE_DIR, ROOT / "perfbench", ROOT / "demos")
    unused = [
        f"{module}.{name}"
        for module, name in _public_names()
        if _references(name, attribute_only=False, home=module, directories=directories) == 0
    ]
    assert unused == []


def _package_functions():
    """(where, called name, node, bound) for each function at module or class level in src/domainlm.

    A class's `__init__` is called by the class name; `bound` says that the
    first parameter (`self` or `cls`) is not passed in the call.
    """
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]:
            cls = owner.name if isinstance(owner, ast.ClassDef) else None
            for node in owner.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if node.name == "__init__" and cls:
                    yield f"{path.stem}.{cls}", cls, node, True
                else:
                    where = f"{path.stem}.{cls}.{node.name}" if cls else f"{path.stem}.{node.name}"
                    yield where, node.name, node, cls is not None and not static


def _dataclasses():
    """(where, class name, fields) for each dataclass in src/domainlm, its fields in declaration order."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            decorators = [getattr(d, "func", d) for d in getattr(node, "decorator_list", [])]
            if isinstance(node, ast.ClassDef) and "dataclass" in [
                getattr(d, "id", getattr(d, "attr", None)) for d in decorators
            ]:
                yield f"{path.stem}.{node.name}", node.name, [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def _dataclass_fields():
    """(where, class name, field, position in a call, default) for each defaulted field of a dataclass in src/domainlm."""
    for where, name, fields in _dataclasses():
        for index, stmt in enumerate(fields):
            if stmt.value is not None:
                yield where, name, stmt.target.id, index, stmt.value


def _is_default(value: ast.expr, default: ast.expr, enclosing: str | None, functions: dict, calls: list, seen=()) -> bool:
    """Whether `value`, passed inside function `enclosing`, is always an option's `default`.

    A name is followed to its one assignment in the function or, for a
    parameter, to the argument of every call of the function.
    """
    factory = {k.arg: k.value for k in default.keywords}.get("default_factory") if isinstance(default, ast.Call) else None
    if ast.dump(value) == ast.dump(default) or (
        isinstance(value, ast.Call) and not value.args and not value.keywords
        and factory is not None and ast.dump(value.func) == ast.dump(factory)
    ):
        return True
    if not isinstance(value, ast.Name) or enclosing not in functions or enclosing in seen:
        return False
    called, node, bound = functions[enclosing]
    parameters = [arg.arg for arg in node.args.posonlyargs + node.args.args]
    if value.id in parameters:
        index = parameters.index(value.id) - bound
        passed = [(_passed(call, value.id, index), where) for name, call, where in calls if name == called]
        return bool(passed) and all(
            isinstance(arg, ast.expr) and _is_default(arg, default, where, functions, calls, seen + (enclosing,))
            for arg, where in passed
        )
    assigned = [stmt.value for stmt in ast.walk(node) if isinstance(stmt, ast.Assign) and _assigned(stmt) == [value.id]]
    return len(assigned) == 1 and _is_default(assigned[0], default, enclosing, functions, calls, seen)


def _defaults(node: ast.FunctionDef, bound: bool) -> dict[str, tuple[int | None, ast.expr]]:
    """Defaulted parameter -> (its position in a call, or None for keyword-only ones; its default)."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    out = {
        arg.arg: (index - bound, default)
        for (index, arg), default in zip(enumerate(positional[first:], first), node.args.defaults)
    }
    out.update(
        {arg.arg: (None, default) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None}
    )
    return out


def _passed(call: ast.Call, name: str, index: int | None):
    """The expression a call passes for a parameter, True when `*` or `**` may pass it, else None."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
        if keyword.arg is None:
            return True
    if index is not None and any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return call.args[index] if index is not None and index < len(call.args) else None


def _named_calls(tree: ast.AST, enclosing: str | None) -> list[tuple[str | None, ast.Call, str | None]]:
    """(called name, call, `enclosing`) for every call in `tree`."""
    return [
        (getattr(node.func, "id", getattr(node.func, "attr", None)), node, enclosing)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]


def test_every_option_has_a_caller():
    """A defaulted parameter or dataclass field that no call in the program, the benchmark or the demos sets is deleted.

    Calls are matched by name, as in `test_every_tape_op_has_a_caller`, so a
    method counts the calls of every method of that name. A call that only
    forwards its own function's defaulted parameter sets the option only if
    that parameter is set in turn. An option is set only by a value other
    than its default; a field also by `replace(..., field=...)`, by an
    assignment `<expr>.field = ...`, and, for the classes that
    `build_dataclass` builds from flags, by the flag of its name.
    """
    options: dict[tuple[str, str], tuple[str, int | None]] = {}  # (where, parameter) -> (called name, position)
    functions, calls, defaults = {}, [], {}
    for where, called, node, bound in _package_functions():
        for name, (index, default) in _defaults(node, bound).items():
            options[where, name], defaults[where, name] = (called, index), default
        functions[where] = called, node, bound
        calls += _named_calls(node, where)
    fields = {}
    for where, called, name, index, default in _dataclass_fields():
        fields[where, name], defaults[where, name] = (called, index), default
    options.update(fields)
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.glob("*.py"))]
    calls += [
        call
        for tree in trees
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        for call in _named_calls(stmt, None)
    ]
    for directory in (ROOT / "perfbench", ROOT / "demos"):
        for path in sorted(directory.glob("*.py")):
            trees.append(ast.parse(path.read_text(encoding="utf-8")))
            calls += _named_calls(trees[-1], None)
    assigned = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    from_flags = {getattr(call.args[0], "id", None) for name, call, _ in calls if name == "build_dataclass"}

    def sets(key, call_name, call, enclosing) -> bool:
        called, index = options[key]
        if call_name == called:
            value = _passed(call, key[1], index)
        else:
            value = _passed(call, key[1], None) if call_name == "replace" and key in fields else None
        if isinstance(value, ast.Name) and (enclosing, value.id) in options:
            return (enclosing, value.id) in set_options  # forwarded from the caller's own option
        if isinstance(value, ast.expr):
            return not _is_default(value, defaults[key], enclosing, functions, calls)
        return value is not None

    set_options = {key for key, (called, _) in fields.items() if key[1] in assigned or called in from_flags}
    while found := {key for key in options.keys() - set_options if any(sets(key, *call) for call in calls)}:
        set_options |= found
    public = [key for key in options if not key[0].rsplit(".", 1)[1].startswith("_")]
    unset = sorted(f"{where}({name})" for where, name in public if (where, name) not in set_options)
    assert unset == []


# Dataclass fields nothing in the program, the benchmark or the demos reads, each with the reason it stays.
_UNREAD_FIELDS = {
    "analysis.TopicSummary.scores": "every word's score in every cluster; the acceptance tests' view of c-TF-IDF",
}


def test_every_dataclass_field_is_read():
    """A dataclass field that nothing in the program, the benchmark or the demos reads is deleted.

    A read is an attribute load `<expr>.field` or `getattr(<expr>, "field")`,
    matched by name as in `test_every_tape_op_has_a_caller`. Building the
    class, assigning the field or passing the whole object on is not a read.
    """
    read = set()
    for directory in (PACKAGE_DIR, ROOT / "perfbench", ROOT / "demos"):
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) > 1:
                    read.add(getattr(node.args[1], "value", None))
    fields = [(where, stmt.target.id) for where, _, stmts in _dataclasses() for stmt in stmts]
    unread = sorted(f"{where}.{name}" for where, name in fields if name not in read)
    assert unread == sorted(_UNREAD_FIELDS)


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
    """One CSV writer, one checkpoint-tokenizer check, one dropout-stream seed, one manifest write
    and one reader of a classifier checkpoint's head metadata.

    The commands report what they read and wrote; `cli.main` times them and
    writes the manifest. Fine-tuning writes `objective` and `class_labels`
    into a checkpoint's `extra`; only `evaluation.evaluate_classifier` reads them.
    """
    csv_writers, tokenizer_checks, dropout_reads, manifest_writes, clock_reads, head_reads = [], [], [], [], [], []
    head_keys = {"class_labels", "objective"}
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
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value in head_keys
            ):
                head_reads.append(where)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and "extra" in (getattr(node.func.value, "attr", None), getattr(node.func.value, "id", None))
                and node.args
                and getattr(node.args[0], "value", None) in head_keys
            ):
                head_reads.append(where)
    assert csv_writers == ["configio:write_csv"]
    assert tokenizer_checks == ["model:Checkpoint.check_tokenizer"]
    assert len(dropout_reads) == 1
    assert manifest_writes == ["cli:main"]
    assert "cli:main" in clock_reads
    assert [where for where in clock_reads if where.startswith("cli:_cmd_")] == []
    assert set(head_reads) == {"evaluation:evaluate_classifier"}


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


def test_no_module_keeps_a_global_switch():
    """A per-run switch is an argument or a `threading.local`, never a module global that `run_tasks`' worker shares."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = _enclosing(tree)
        found += [f"{path.stem}:{scope.get(id(node), '')}" for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_threads_start_only_in_autodiff():
    """A `one_blas_thread` block's worker is the only thread the package starts, so one rule bounds them all."""
    starters = {"ThreadPoolExecutor", "Thread"}
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                (isinstance(node, ast.Name) and node.id in starters)
                or (isinstance(node, ast.Attribute) and node.attr in starters)
                or (isinstance(node, ast.ImportFrom) and {alias.name for alias in node.names} & starters)
            ):
                found.add(path.stem)
    assert found == {"autodiff"}


def test_stored_parameters_do_not_require_grad(tmp_path, toy_docs, toy_tokenizer, toy_model_config, toy_base_checkpoint):
    """Only a training step's own leaves record a tape, so inference over stored parameters records none."""
    from domainlm.model import init_parameters, load_checkpoint, save_checkpoint, with_fresh_classifier
    from domainlm.training import TrainingConfig, finetune_classifier

    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=2, eval_checkpoints=2, log_every=1)
    finetuned = finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:16], toy_docs[16:24], toy_tokenizer)
    sources = {
        "init_parameters": init_parameters(toy_model_config, seed=0),
        "with_fresh_classifier": with_fresh_classifier(toy_base_checkpoint, 3, seed=0)[1],
        "Checkpoint.encoder_params": toy_base_checkpoint.encoder_params(),
        "load_checkpoint": load_checkpoint(save_checkpoint(toy_base_checkpoint, tmp_path / "base.npz")).params,
        "PretrainResult.checkpoint": toy_base_checkpoint.params,
        "FinetuneResult.best_checkpoint": finetuned.best_checkpoint.params,
    }
    taped = {source: sorted(name for name, p in params.items() if p.requires_grad) for source, params in sources.items()}
    assert taped == {source: [] for source in sources}


def _package_imports_of(package: str) -> list[str]:
    """Each absolute import of `package` or of its submodules in the package, as "module: name"."""
    imported = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [f"{path.stem}: {alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names]
    return [name for name in imported if name.split(": ")[1].startswith(package)]


def test_no_module_imports_scipy_sparse():
    """The clusterer joins its radius pairs by label propagation, without the sparse-graph package and its import."""
    assert _package_imports_of("scipy.sparse") == []


def test_no_module_imports_scipy_spatial():
    """The clusterer finds its radius pairs with blocked numpy products; the k-d tree's import cost more than its query."""
    assert _package_imports_of("scipy.spatial") == []
