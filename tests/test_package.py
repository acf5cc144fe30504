"""The package namespace: every exported name resolves and is listed once."""

import ast
from pathlib import Path

import markovmix


def test_all_names_exist_once():
    names = markovmix.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(markovmix, n)] == []


def test_every_imported_name_is_used():
    # the unused-import rule of a linter, for every module but the re-exporting __init__
    unused = []
    for path in sorted(Path(markovmix.__file__).parent.glob("*.py")):
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
