"""The bit-identity check ``tools/trace_digest.py``, loaded by path."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
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


def test_perturbed_starts_are_fixed_and_leave_the_standard_start(trace_digest):
    x0 = get_problem("ext_rosenbrock(10)").x0
    starts = [trace_digest.perturbed_start(x0, j)
              for j in trace_digest.PERTURBED_SEEDS]
    assert len(starts) == 5
    for j, start in zip(trace_digest.PERTURBED_SEEDS, starts):
        np.testing.assert_array_equal(trace_digest.perturbed_start(x0, j), start)
        assert np.all(start != x0)
        # each entry moves by 1e-3 (1 + |x0_i|) times a standard normal draw
        assert np.all(np.abs(start - x0) <= 6e-3 * (1.0 + np.abs(x0)))
    assert len({s.tobytes() for s in starts}) == 5
    np.testing.assert_array_equal(x0, get_problem("ext_rosenbrock(10)").x0)


def test_dense_quadratics_are_fixed_and_positive_definite(trace_digest):
    assert len(trace_digest.DENSE_SIZES) * len(trace_digest.DENSE_SEEDS) == 15
    for n in trace_digest.DENSE_SIZES:
        drawn = [trace_digest.dense_quadratic(n, seed)
                 for seed in trace_digest.DENSE_SEEDS]
        for seed, (A, b) in zip(trace_digest.DENSE_SEEDS, drawn):
            again = trace_digest.dense_quadratic(n, seed)
            np.testing.assert_array_equal(again[0], A)
            np.testing.assert_array_equal(again[1], b)
            assert A.shape == (n, n) and b.shape == (n,)
            np.testing.assert_array_equal(A, A.T)
            # the spectrum is logspace(-4, 0, n), up to rounding
            np.testing.assert_allclose(np.linalg.eigvalsh(A),
                                       np.logspace(-4.0, 0.0, n),
                                       rtol=1e-6, atol=1e-12)
        assert len({A.tobytes() for A, _ in drawn}) == len(drawn)


def test_dense_suite_builds_each_quadratic_started_at_zero(trace_digest):
    from rlsmcg import Problem
    cases = trace_digest.dense_cases(Problem)
    assert len(cases) == 15
    label, problem = cases[0]
    assert label == "dense_quad(50) 0"
    A, b = trace_digest.dense_quadratic(50, 0)
    np.testing.assert_array_equal(problem.x0, np.zeros(50))
    x = np.linspace(-1.0, 1.0, 50)
    np.testing.assert_array_equal(problem.eval_g(x), A @ x - b)
    assert problem.eval_f(x) == 0.5 * float(x @ (A @ x)) - float(b @ x)


def test_scale_zero_gives_the_unscaled_digest(trace_digest):
    from rlsmcg import SolverParams
    solve, problem = SOLVERS["rlsmcg"], get_problem("quad_hilbert(8)")
    params = SolverParams(grad_tol=math.ldexp(1e-6, 0))
    assert (trace_digest.digest(solve, trace_digest.scaled(problem, 0), params)
            == trace_digest.digest(solve, problem))


@pytest.mark.parametrize("k", [-10, 10])
def test_scaled_f_and_g_are_exactly_two_to_the_k_times_the_plain_ones(
        trace_digest, k):
    for name in ("ext_rosenbrock(10)", "palmer_poly(8)", "trigonometric(10)"):
        problem = get_problem(name)
        big = trace_digest.scaled(problem, k)
        x0 = problem.x0
        assert big.eval_f(x0) == 2.0 ** k * problem.eval_f(x0) != 0.0
        np.testing.assert_array_equal(big.eval_g(x0),
                                      2.0 ** k * problem.eval_g(x0))
        np.testing.assert_array_equal(big.x0, x0)


def _refuses_before_any_solve(trace_digest, monkeypatch, capsys, src_dir):
    from rlsmcg import bench
    solved = []
    monkeypatch.setattr(bench, "SOLVERS", {"probe": lambda *a, **k: solved.append(a)})
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert trace_digest.main(["trace_digest.py", str(src_dir)]) == 2
    out, err = capsys.readouterr()
    assert solved == [] and out == ""
    assert err.startswith("error:")


def test_a_directory_without_the_library_is_refused(trace_digest, monkeypatch,
                                                    capsys, tmp_path):
    # rlsmcg is already imported here, so an unchecked import would digest it
    _refuses_before_any_solve(trace_digest, monkeypatch, capsys, tmp_path)


def test_a_library_imported_from_elsewhere_is_refused(trace_digest, monkeypatch,
                                                      capsys, tmp_path):
    (tmp_path / "rlsmcg").mkdir()
    (tmp_path / "rlsmcg" / "__init__.py").write_text("")
    _refuses_before_any_solve(trace_digest, monkeypatch, capsys, tmp_path)
