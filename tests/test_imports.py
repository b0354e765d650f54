"""Every library module uses each name it imports.

No linter ships with the project, so the check walks the syntax tree: a
name bound by an import must appear as a name somewhere else in the module
(string annotations included).  ``__init__.py`` re-exports by design, and an
import line marked ``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rlsmcg"


def _annotation_names(node):
    """Names inside string annotations, which parse as plain constants."""
    annotations = []
    for n in ast.walk(node):
        if isinstance(n, ast.arg) and n.annotation is not None:
            annotations.append(n.annotation)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns:
            annotations.append(n.returns)
        elif isinstance(n, ast.AnnAssign):
            annotations.append(n.annotation)
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                yield from (m.id for m in ast.walk(ast.parse(c.value, mode="eval"))
                            if isinstance(m, ast.Name))


def unused_imports(source: str):
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_has_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("import math\nimport numpy as np\nfrom typing import Optional\n"
              "from os import sep  # noqa: F401\n"
              "def f(x: 'Optional[int]'):\n    return np.zeros(x)\n")
    assert unused_imports(source) == [(1, "math")]
