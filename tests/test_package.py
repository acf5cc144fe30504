"""The package namespace and imports, and the names the benchmark tracer reaches in it."""

import ast
import dataclasses
import importlib
import inspect
import io
import re
import tokenize
import types
from collections import Counter
from pathlib import Path

import pytest

import markovmix
import markovmix.errors

ROOT = Path(__file__).resolve().parents[1]
BENCH_TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = Path(markovmix.__file__).parent


def test_all_names_exist_once():
    names = markovmix.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(markovmix, n)] == []


def test_every_imported_name_is_used():
    # the unused-import rule of a linter, for every module but the re-exporting __init__
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_name_is_used():
    # the dead-code rule: every module-level name with a leading underscore
    # is read somewhere in the package outside its own definition
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    everywhere = Counter(name for tree in trees for name in reads(tree))
    dead = []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            own = Counter(reads(stmt))
            dead += [
                name
                for name in names
                if name.startswith("_") and not name.startswith("__") and everywhere[name] == own[name]
            ]
    assert sorted(dead) == []


def test_every_error_class_is_raised():
    # an error type goes with its last raise site: each class in errors.py is
    # raised somewhere in the package, or is the base class of one that is
    def callee(exc):
        target = exc.func if isinstance(exc, ast.Call) else exc
        return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)

    raised = {
        callee(node.exc)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    errors = {
        name: cls
        for name, cls in vars(markovmix.errors).items()
        if isinstance(cls, type) and cls.__module__ == "markovmix.errors"
    }
    raised_classes = [errors[name] for name in raised if name in errors]
    orphans = [name for name, cls in errors.items() if not any(issubclass(r, cls) for r in raised_classes)]
    assert len(errors) > 10 and orphans == []


def _traced(key):
    module_name, func_name = key.split(".")
    return getattr(importlib.import_module(f"markovmix.{module_name}"), func_name, None)


def _reads(lam, name):
    """The constant keys (``name["x"]``) and attributes (``name.x``) that a lambda reads."""
    nodes = [n for n in ast.walk(lam) if isinstance(getattr(n, "value", None), ast.Name)]
    keys = {n.slice.value for n in nodes if isinstance(n, ast.Subscript) and n.value.id == name}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute) and n.value.id == name}
    return keys | attrs


def test_bench_tracer_resolves_every_traced_name():
    # the tracer lists a name it cannot resolve as absent and drops its
    # metrics without failing, so a moved or renamed function must fail here
    if not BENCH_TRACING.exists():
        pytest.skip("bench/ is not part of this checkout")
    source = BENCH_TRACING.read_text(encoding="utf-8")
    tracing = types.ModuleType("tracing")  # exec'd, so no bytecode cache is written
    exec(compile(source, str(BENCH_TRACING), "exec"), tracing.__dict__)
    assert [key for key in tracing.TIMED if not callable(_traced(key))] == []

    computed = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "COMPUTED"
    )
    for key_node, value_node in zip(computed.keys, computed.values):
        key, counter = key_node.value, value_node.elts[1]
        signature = inspect.signature(_traced(key))
        assert _reads(counter, "args") <= set(signature.parameters), key
        fields = _reads(counter, "res")
        if fields:
            result_fields = {f.name for f in dataclasses.fields(signature.return_annotation)}
            assert fields <= result_fields, key


def _prose(path):
    """The text of a Markdown file, or the comments and string literals of a Python file."""
    if path.suffix == ".md":
        return path.read_text(encoding="utf-8")
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    return "\n".join(t.string for t in tokens if t.type in (tokenize.COMMENT, tokenize.STRING))


def test_every_cited_module_name_resolves():
    # a deleted helper must not live on in the docs: every ``module.name`` of this
    # package cited in the README or in a comment or string of the package or its
    # tests names something the module still has (``module.py`` is a file name)
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))
    cite = re.compile(rf"(?<![\w.])(?:markovmix\.)?({'|'.join(modules)})\.(?!py\b)([A-Za-z_]\w*)")
    files = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    cited = {(path.name, *m.groups()) for path in files for m in cite.finditer(_prose(path))}
    stale = [
        f"{where}: {module}.{name}"
        for where, module, name in sorted(cited)
        if not hasattr(importlib.import_module(f"markovmix.{module}"), name)
    ]
    assert len(cited) >= 5 and stale == []
