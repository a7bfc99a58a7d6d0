"""Every name a ``src/repro`` module imports is referenced in it.

The call census (``-p census``) sees functions nothing calls; an import
nothing reads is invisible to it.  This gate parses each module and
fails on an imported name the module never references.  ``__future__``
imports are exempt, names listed in ``__all__`` count as used, and so
does everything a package's ``__init__.py`` imports (its re-exports).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imported(tree):
    """``(bound name, line)`` of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _referenced(tree):
    """Every name the module reads: plain names, the names inside quoted
    annotations, and the strings of ``__all__``."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(each.id for each in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(each, ast.Name))
    return names


def unused_imports(root=SRC):
    """``module:line name`` of every imported name never referenced."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _referenced(tree)
        found += [f"{path.relative_to(root).as_posix()}:{line} {name}"
                  for name, line in _imported(tree) if name not in used]
    return found


def test_no_src_module_imports_a_name_it_never_uses():
    assert unused_imports() == []


def test_the_gate_sees_an_unused_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import helper\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from json import dumps as _dumps, loads\n"
        "__all__ = ['loads']\n"
        "def helper(x: 'Optional[int]') -> Dict:\n"
        "    return os.path.join(x)\n")
    assert unused_imports(tmp_path) == ["mod.py:3 List", "mod.py:4 _dumps"]
