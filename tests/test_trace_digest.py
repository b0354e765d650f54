"""The bit-identity check ``tools/trace_digest.py``, loaded by path."""

import importlib.util
import sys
from pathlib import Path

import pytest

from rlsmcg.bench import SOLVERS
from rlsmcg.problems import get_problem


@pytest.fixture
def trace_digest(monkeypatch):
    # no bytecode is written next to the tool
    path = Path(__file__).resolve().parents[1] / "tools" / "trace_digest.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("trace_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_a_solve_is_reproducible(trace_digest):
    solve, name = SOLVERS["rlsmcg"], "quad_hilbert(8)"
    first = trace_digest.digest(solve, get_problem(name))
    assert trace_digest.digest(solve, get_problem(name)) == first
    assert first[1] > 0


def test_digest_tells_different_runs_apart(trace_digest):
    problem = get_problem("quad_hilbert(8)")
    with_rqn = trace_digest.digest(SOLVERS["rlsmcg"], problem)
    without = trace_digest.digest(SOLVERS["rlsmcg_norqn"], problem)
    assert with_rqn[0] != without[0]


def test_encoding_tells_kinds_of_value_apart(trace_digest):
    chunks = [trace_digest._encode(v) for v in (1, 1.0, True, None)]
    assert len(set(chunks)) == len(chunks)
