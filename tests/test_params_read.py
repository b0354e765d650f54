"""Every solver setting and run-state field is read outside core.py, and
every field and property of the library's value types is read somewhere.

A ``SolverParams`` field that no code reads is a setting a user can change
to no effect, and a ``SolverState`` field that no code reads is bookkeeping
the driver pays for on every step; a value type's field or property that
no code reads is state or a view kept for nothing.  The check walks the
syntax tree of the library's modules (for the first two, all but
``core.py``, which defines the fields) and collects the names read as
attributes, of any object: a field whose name is read nowhere fails.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from rlsmcg.core import DirectionRecord, SolverParams, SolverState
from rlsmcg.linesearch import NonmonotoneLedger, StepResult
from rlsmcg.smcg_direction import CurvatureSnapshot
from rlsmcg.solver import Phase
from rlsmcg.subspace_rqn import GramRing, SubspaceHessian

SRC = Path(__file__).resolve().parent.parent / "src" / "rlsmcg"


def unread_fields(names, sources):
    """The names of ``names`` that no source reads as an attribute."""
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(set(names) - read)


def _library_sources(skip="core.py"):
    return [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != skip]


def field_names(cls):
    """The fields of a dataclass or NamedTuple, and its properties."""
    names = getattr(cls, "_fields", None) or [f.name for f in fields(cls)]
    return list(names) + [name for name, value in vars(cls).items()
                          if isinstance(value, property)]


def test_every_solver_param_is_read():
    assert unread_fields([f.name for f in fields(SolverParams)],
                         _library_sources()) == []


def test_every_solver_state_field_is_read():
    assert unread_fields([f.name for f in fields(SolverState)],
                         _library_sources()) == []


@pytest.mark.parametrize("cls", [SubspaceHessian, GramRing, Phase, DirectionRecord,
                                 CurvatureSnapshot, NonmonotoneLedger, StepResult],
                         ids=lambda cls: cls.__name__)
def test_every_value_type_field_is_read(cls):
    assert unread_fields(field_names(cls), _library_sources(skip=None)) == []


def test_field_names_include_properties():
    class Pair(NonmonotoneLedger):
        @property
        def ratio(self):
            return self.Ck / self.Qk

    assert field_names(Pair) == ["Ck", "Qk", "k", "ratio"]
    assert field_names(StepResult) == ["alpha", "accepted_by"]


def test_checker_flags_a_field_only_written():
    source = "def f(p, q):\n    p.written = 1\n    return p.read + q.also_read\n"
    assert unread_fields(["read", "written", "also_read", "absent"],
                         [source]) == ["absent", "written"]
