"""Every solver setting is read somewhere outside the module that defines it.

A ``SolverParams`` field that no code reads is a setting a user can change
to no effect.  The check walks the syntax tree of every library module but
``core.py`` (which defines and validates the fields) and collects the names
read as attributes, of any object: a field whose name is read nowhere fails.
"""

import ast
from dataclasses import fields
from pathlib import Path

from rlsmcg.core import SolverParams

SRC = Path(__file__).resolve().parent.parent / "src" / "rlsmcg"


def unread_fields(names, sources):
    """The names of ``names`` that no source reads as an attribute."""
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(set(names) - read)


def test_every_solver_param_is_read():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "core.py"]
    assert unread_fields([f.name for f in fields(SolverParams)], sources) == []


def test_checker_flags_a_field_only_written():
    source = "def f(p, q):\n    p.written = 1\n    return p.read + q.also_read\n"
    assert unread_fields(["read", "written", "also_read", "absent"],
                         [source]) == ["absent", "written"]
