"""Every library module uses each name it imports.

No linter ships with the project, so the check walks the syntax tree: a
name bound by an import must appear as a name somewhere else in the module
(string annotations included).  ``__init__.py`` re-exports by design, and an
import line marked ``# noqa: F401`` is kept on purpose.

Importing the library also builds no dataclass beyond the four that
validate or are built field by field: ``@dataclass`` generates and compiles
its methods on every import, which a NamedTuple does not.
"""

import ast
import os
import subprocess
import sys
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


# the dataclasses defined by the modules a fresh ``import rlsmcg`` loads
_IMPORT_PATH_DATACLASSES = """
import dataclasses, sys
import rlsmcg
print(" ".join(sorted(
    name for module_name, module in list(sys.modules.items())
    if module_name == "rlsmcg" or module_name.startswith("rlsmcg.")
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__ == module_name
    and dataclasses.is_dataclass(obj))))
"""


def test_the_import_path_defines_four_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PATH_DATACLASSES],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Problem", "SolverParams", "SolverState",
                                   "SubspaceHessian"]
