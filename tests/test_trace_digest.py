"""The bit-identity check ``tools/trace_digest.py``, loaded by path."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rlsmcg import RunReport, SolverParams, Status, bench, problems
from rlsmcg.bench import SOLVERS
from rlsmcg.problems import (PERTURBED_SEEDS, ULP_STARTS, get_problem,
                             perturbed_start, registry, scaled, ulp_start)


SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def trace_digest(load_script):
    # no bytecode is written next to the tool
    return load_script("tools/trace_digest.py", "trace_digest")


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


def test_counts_are_left_out_of_the_digest(trace_digest):
    # a solve that took the same steps at another cost keeps its digest
    solve, problem = SOLVERS["rlsmcg"], get_problem("quad_hilbert(8)")

    def costlier(problem, params, trace_hook=None):
        report = solve(problem, params, trace_hook=trace_hook)
        return dataclasses.replace(report, n_f=report.n_f + 1,
                                   n_g=report.n_g + 2)

    plain = trace_digest.digest(solve, problem)
    costly = trace_digest.digest(costlier, problem)
    assert costly[:2] == plain[:2]
    assert costly[2:4] == (plain[2] + 1, plain[3] + 2)


def test_encoding_tells_kinds_of_value_apart(trace_digest):
    chunks = [trace_digest._encode(v) for v in (1, 1.0, True, None)]
    assert len(set(chunks)) == len(chunks)


def test_scale_zero_gives_the_unscaled_digest(trace_digest):
    solve, problem = SOLVERS["rlsmcg"], get_problem("quad_hilbert(8)")
    params = SolverParams(grad_tol=math.ldexp(1e-6, 0))
    assert (trace_digest.digest(solve, scaled(problem, 0), params)
            == trace_digest.digest(solve, problem))


def _run_stubbed(trace_digest, monkeypatch, *args, n_f=1, n_g=1,
                 status=Status.CONVERGED):
    """The tool's exit code and the (problem, params) of each solve, with
    every solver replaced by one stub that solves nothing at a cost of
    ``n_f`` and ``n_g`` evaluations and stops with ``status``."""
    solved = []

    def stub(problem, params, trace_hook=None):
        solved.append((problem, params))
        return RunReport(n_iter=0, n_f=n_f, n_g=n_g, wall_time=0.0,
                         status=status, final_gnorm_inf=0.0,
                         x=problem.x0, f=0.0)

    monkeypatch.setattr(bench, "SOLVERS", {"stub": stub})
    monkeypatch.setattr(sys, "path", list(sys.path))
    return trace_digest.main(["trace_digest.py", *args]), solved


def _labels(out):
    lines = out.splitlines()
    runs = len(lines) - 1
    assert lines[-1] == (f"# {runs} runs, {runs} converged, 0 records, "
                         f"n_f {runs}, n_g {runs}")
    return [line[len("stub "):].rsplit(" ", 3)[0] for line in lines[:-1]]


def test_each_run_prints_its_counts_beside_the_digest(trace_digest, monkeypatch,
                                                      capsys):
    outputs = []
    for n_f, n_g in ((1, 1), (3, 5)):
        code, _ = _run_stubbed(trace_digest, monkeypatch, SRC_DIR,
                               n_f=n_f, n_g=n_g)
        assert code == 0
        outputs.append(capsys.readouterr().out.splitlines())
    cheap, costly = outputs
    assert len(cheap) == len(costly) == 22
    for a, b in zip(cheap[:-1], costly[:-1]):
        assert a.endswith(" 1 1") and b.endswith(" 3 5")
        assert a[:-len(" 1 1")] == b[:-len(" 3 5")]  # label and digest
    assert cheap[-1] == "# 21 runs, 21 converged, 0 records, n_f 21, n_g 21"
    assert costly[-1] == "# 21 runs, 21 converged, 0 records, n_f 63, n_g 105"


def test_runs_that_stop_short_are_not_counted_as_converged(
        trace_digest, monkeypatch, capsys):
    for status in (Status.LINESEARCH_FAIL, Status.ITER_CAP):
        code, _ = _run_stubbed(trace_digest, monkeypatch, SRC_DIR, status=status)
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "# 21 runs, 0 converged, 0 records, n_f 21, n_g 21")


def test_perturbed_mode_runs_each_instance_from_the_librarys_starts(
        trace_digest, monkeypatch, capsys):
    code, solved = _run_stubbed(trace_digest, monkeypatch, "--perturbed", SRC_DIR)
    assert code == 0 and len(solved) == 105
    pairs = [(spec.name, j) for spec in registry() for j in PERTURBED_SEEDS]
    assert _labels(capsys.readouterr().out) == [f"{name} {j}" for name, j in pairs]
    for (problem, params), (name, j) in zip(solved, pairs):
        assert params is None and problem.name == name
        np.testing.assert_array_equal(
            problem.x0, perturbed_start(get_problem(name).x0, j))


def test_dense_mode_runs_the_fifteen_dense_quadratics(trace_digest, monkeypatch,
                                                      capsys):
    code, solved = _run_stubbed(trace_digest, monkeypatch, "--dense", SRC_DIR)
    cases = [(n, seed) for n in (50, 100, 200, 300, 500) for seed in range(3)]
    assert code == 0
    assert _labels(capsys.readouterr().out) == [
        f"dense_quad({n}) {seed}" for n, seed in cases]
    assert [(p.name, p.dim) for p, _ in solved] == [
        (f"dense_quad({n})", n) for n, _ in cases]
    assert all(params is None for _, params in solved)


def test_ulp_mode_runs_rlsmcg_and_its_ablation_from_the_ulp_starts(
        trace_digest, monkeypatch, capsys):
    solved = []

    def stub(solver_name):
        def solve(problem, params, trace_hook=None):
            solved.append((solver_name, problem, params))
            return RunReport(n_iter=0, n_f=1, n_g=1, wall_time=0.0,
                             status=Status.CONVERGED, final_gnorm_inf=0.0,
                             x=problem.x0, f=0.0)
        return solve

    monkeypatch.setattr(bench, "SOLVERS", {name: stub(name) for name in SOLVERS})
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert trace_digest.main(["trace_digest.py", "--ulp", SRC_DIR]) == 0
    cases = [(name, j) for name in ("palmer_poly(8)", "quad_hilbert(8)",
                                    "quad_hilbert(12)")
             for j in ULP_STARTS]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("# 144 runs, 144 converged, 0 records, "
                         "n_f 144, n_g 144")
    assert [line.rsplit(" ", 3)[0] for line in lines[:-1]] == [
        f"{solver} {name} {j}" for solver in ("rlsmcg", "rlsmcg_norqn")
        for name, j in cases]
    assert [s for s, _, _ in solved] == ["rlsmcg"] * 72 + ["rlsmcg_norqn"] * 72
    for (_, problem, params), (name, j) in zip(solved, cases * 2):
        assert params is None and problem.name == name
        np.testing.assert_array_equal(problem.x0,
                                      ulp_start(get_problem(name).x0, j))


@pytest.mark.parametrize("mode, runs_per_solver", [((), 21), (("--ulp",), 72),
                                                    (("--scale", "10"), 21)])
def test_solver_option_limits_any_mode_to_the_named_solvers(
        trace_digest, monkeypatch, capsys, mode, runs_per_solver):
    solved = []

    def stub(solver_name):
        def solve(problem, params, trace_hook=None):
            solved.append(solver_name)
            return RunReport(n_iter=0, n_f=1, n_g=1, wall_time=0.0,
                             status=Status.CONVERGED, final_gnorm_inf=0.0,
                             x=problem.x0, f=0.0)
        return solve

    monkeypatch.setattr(bench, "SOLVERS", {name: stub(name) for name in SOLVERS})
    monkeypatch.setattr(sys, "path", list(sys.path))
    # repeated, out of order and named twice: each runs once, in SOLVERS order
    args = [*mode, "--solver", "lbfgs", "--solver", "hs", "--solver", "lbfgs"]
    assert trace_digest.main(["trace_digest.py", *args, SRC_DIR]) == 0
    order = [name for name in SOLVERS if name in ("hs", "lbfgs")]
    assert solved == [name for name in order for _ in range(runs_per_solver)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines[:-1]] == solved
    assert lines[-1].startswith(f"# {2 * runs_per_solver} runs, ")


def test_an_unknown_solver_is_refused(trace_digest, monkeypatch, capsys):
    err = _refuses_before_any_solve(trace_digest, monkeypatch, capsys,
                                    "--ulp", "--solver", "stub",
                                    "--solver", "nosuch", SRC_DIR)
    assert "nosuch" in err


@pytest.mark.parametrize("k", [-10, 10])
def test_scale_mode_runs_the_registry_in_units_of_two_to_the_k(
        trace_digest, monkeypatch, capsys, k):
    code, solved = _run_stubbed(trace_digest, monkeypatch, "--scale", str(k),
                                SRC_DIR)
    assert code == 0
    specs = registry()
    assert _labels(capsys.readouterr().out) == [spec.name for spec in specs]
    assert len(solved) == 21
    for (problem, params), spec in zip(solved, specs):
        assert params.grad_tol == 2.0 ** k * 1e-6
        x0 = spec.make().x0
        assert problem.eval_f(x0) == 2.0 ** k * spec.make().eval_f(x0)


def _refuses_before_any_solve(trace_digest, monkeypatch, capsys, *args):
    code, solved = _run_stubbed(trace_digest, monkeypatch, *map(str, args))
    out, err = capsys.readouterr()
    assert code == 2 and solved == [] and out == ""
    assert err.startswith("error:")
    return err


@pytest.mark.parametrize("k", ["1024", "-1100"])
def test_a_scale_without_an_exact_power_of_two_is_refused(
        trace_digest, monkeypatch, capsys, k):
    # 2^1024 overflows and 2^-1100 is no normal float
    err = _refuses_before_any_solve(trace_digest, monkeypatch, capsys,
                                    "--scale", k, SRC_DIR)
    assert k in err


def test_a_library_without_suites_is_refused(trace_digest, monkeypatch,
                                             capsys):
    monkeypatch.delattr(problems, "SUITES")
    err = _refuses_before_any_solve(trace_digest, monkeypatch, capsys, SRC_DIR)
    assert "SUITES" in err


def test_a_directory_without_the_library_is_refused(trace_digest, monkeypatch,
                                                    capsys, tmp_path):
    # rlsmcg is already imported here, so an unchecked import would digest it
    _refuses_before_any_solve(trace_digest, monkeypatch, capsys, tmp_path)


def test_a_library_imported_from_elsewhere_is_refused(trace_digest, monkeypatch,
                                                      capsys, tmp_path):
    (tmp_path / "rlsmcg").mkdir()
    (tmp_path / "rlsmcg" / "__init__.py").write_text("")
    _refuses_before_any_solve(trace_digest, monkeypatch, capsys, tmp_path)
