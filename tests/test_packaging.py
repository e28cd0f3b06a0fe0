"""Offline packaging check: every third-party package that a module of
``src/repro`` imports at module level is declared in ``pyproject.toml``.

Module-level imports include those under a module-level ``if``/``try``;
imports inside functions are deliberately lazy and not checked.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _declared_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _module_level_imports(path):
    pending = list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def test_module_level_imports_are_declared():
    allowed = _declared_imports() | set(sys.stdlib_module_names) | {"repro"}
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    undeclared = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in modules
        for name in set(_module_level_imports(path))
        if name not in allowed
    )
    assert undeclared == []
