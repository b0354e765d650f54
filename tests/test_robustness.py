"""Edge-of-contract behavior: rescues, tiny dimensions, hostile objectives."""

import math

import numpy as np
import pytest

from rlsmcg.baselines import BaselineKind, BaselineTag, run_baseline
from rlsmcg.core import Problem, SolverParams, Status
from rlsmcg.solver import run, run_with_trace


def test_one_dimensional_problem():
    prob = Problem("quartic1", 1, lambda x: float((x[0] - 2.0) ** 4),
                   lambda x: np.array([4.0 * (x[0] - 2.0) ** 3]),
                   np.array([5.0]))
    rep = run(prob)
    assert rep.status is Status.CONVERGED
    assert rep.x[0] == pytest.approx(2.0, abs=1e-1)


def test_nonconvex_with_saddle_region():
    # f = sum(x^4 - 2 x^2): minima at +-1, saddle at 0
    prob = Problem("doublewell", 6,
                   lambda x: float(np.sum(x ** 4 - 2.0 * x ** 2)),
                   lambda x: 4.0 * x ** 3 - 4.0 * x,
                   np.linspace(0.3, 2.0, 6))
    rep = run(prob)
    assert rep.status is Status.CONVERGED
    assert np.all(np.abs(np.abs(rep.x) - 1.0) < 1e-3)


def test_rescue_path_on_noisy_objective():
    # deterministic high-frequency wiggle breaks interpolation assumptions
    def f(x):
        base = 0.5 * float(x @ x)
        return base * (1.0 + 1e-4 * math.sin(1e4 * float(np.sum(x))))

    def g(x):
        s = float(np.sum(x))
        base = 0.5 * float(x @ x)
        wig = 1.0 + 1e-4 * math.sin(1e4 * s)
        return x * wig + base * 1.0 * math.cos(1e4 * s) * np.ones_like(x)

    prob = Problem("wiggle", 4, f, g, np.full(4, 3.0))
    params = SolverParams(grad_tol=1e-3, max_iter=3000)
    rep = run(prob, params)
    # the run must terminate through a declared status, never hang or crash
    assert rep.status in (Status.CONVERGED, Status.ITER_CAP,
                          Status.LINESEARCH_FAIL)


def test_flat_objective_converges_immediately():
    prob = Problem("flat", 3, lambda x: 1.0, lambda x: np.zeros(3), np.ones(3))
    rep = run(prob)
    assert rep.status is Status.CONVERGED
    assert rep.n_iter == 0


def test_gradient_blowup_is_reported_not_raised():
    def f(x):
        with np.errstate(over="ignore"):
            return float(np.sum(np.exp(1e3 * x)))

    def g(x):
        with np.errstate(over="ignore"):
            return 1e3 * np.exp(1e3 * x)

    prob = Problem("expblow", 2, f, g, np.ones(2))
    rep = run(prob, SolverParams(max_iter=50))
    assert rep.status in (Status.CONVERGED, Status.ITER_CAP,
                          Status.LINESEARCH_FAIL, Status.NUMERIC_FAIL)


def test_params_zh_delta_validated():
    with pytest.raises(ValueError):
        SolverParams(zh_delta=1.5)


def test_params_reject_thresholds_that_break_their_guarantees():
    # eta0_tilde**2 underflows to 0: the entry test would need a zero residual
    assert 1e-170 ** 2 == 0.0
    with pytest.raises(ValueError):
        SolverParams(eta0_tilde=1e-170)
    # xi3 >= 1 makes the descent margin min(..., 1 - xi3, ...) nonpositive
    for xi3 in (1.0, 2.0):
        with pytest.raises(ValueError):
            SolverParams(xi3=xi3)
    SolverParams(eta0_tilde=1e-150, xi3=0.5)


def test_baselines_handle_one_dimension():
    prob = Problem("sq1", 1, lambda x: float(x[0] ** 2),
                   lambda x: np.array([2.0 * x[0]]), np.array([4.0]))
    for tag in BaselineTag:
        rep = run_baseline(BaselineKind(tag), prob)
        assert rep.status is Status.CONVERGED, tag


def test_memory_cap_respected_in_trace():
    from rlsmcg.core import CountingProblem
    from rlsmcg.solver import Rlsmcg, initial_state, policy_step
    from rlsmcg.problems import ext_rosenbrock
    prob = ext_rosenbrock(100)
    params = SolverParams().resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = Rlsmcg()
    for _ in range(15):
        policy_step(policy, state, cp, params)
        assert len(policy.memory) <= params.memory_m
        for d in policy.memory:
            assert d.shape == (100,)


def test_override_memory_changes_resolution():
    rep = run(ext_rosenbrock_small(), SolverParams(memory_m=3))
    assert rep.status is Status.CONVERGED


def ext_rosenbrock_small():
    from rlsmcg.problems import ext_rosenbrock
    return ext_rosenbrock(10)


def test_concurrent_runs_share_nothing():
    # runs are independent: the same Problem instance solved from several
    # threads must give bitwise-identical results
    from concurrent.futures import ThreadPoolExecutor
    from rlsmcg.problems import get_problem
    prob = get_problem("quad_hilbert(8)")
    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda _: run(prob), range(8)))
    first = reports[0]
    for rep in reports[1:]:
        assert rep.status is first.status
        assert rep.n_iter == first.n_iter
        assert rep.n_f == first.n_f and rep.n_g == first.n_g
        assert np.array_equal(rep.x, first.x)
