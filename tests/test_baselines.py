import math

import numpy as np
import pytest

from rlsmcg.baselines import (LBFGS_MEMORY, POWELL_RESTART, BaselineKind,
                              BaselineTag, PairMemory, _Policy, lbfgs_two_loop,
                              run_baseline)
from rlsmcg.core import (CaseTag, IterType, Problem, SolverParams, SolverState,
                         Status, dot)
from rlsmcg.problems import get_problem, scaled
from rlsmcg.smcg_direction import hs_direction
from rlsmcg.solver import TraceRecord


def quadratic_problem(diag, x0):
    lam = np.asarray(diag, dtype=float)
    return Problem(f"quad{len(lam)}", len(lam),
                   lambda x: 0.5 * float(x @ (lam * x)),
                   lambda x: lam * x, np.asarray(x0, dtype=float))


def dense_inverse_direction(g, s_list, y_list):
    """Oracle: build the inverse-Hessian estimate densely and apply it."""
    n = g.shape[0]
    s0, y0 = s_list[0], y_list[0]
    H = (float(s0 @ y0) / float(y0 @ y0)) * np.eye(n)
    for s, y in zip(reversed(s_list), reversed(y_list)):  # oldest first
        rho = 1.0 / float(s @ y)
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return -H @ g


def test_two_loop_equals_dense_inverse_oracle():
    rng = np.random.default_rng(14)
    for _ in range(25):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, 6))
        s_list, y_list, pairs = [], [], PairMemory()
        for _ in range(m):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0:
                y = -y
            s_list.insert(0, s)  # newest first
            y_list.insert(0, y)
            pairs.push(s, y, float(s @ y), float(y @ y))
        g = rng.standard_normal(n)
        d = lbfgs_two_loop(g, pairs)
        d_oracle = dense_inverse_direction(g, s_list, y_list)
        assert np.max(np.abs(d - d_oracle)) <= 1e-10 * max(1.0, np.max(np.abs(d_oracle)))


def test_two_loop_without_pairs_is_steepest_descent():
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(lbfgs_two_loop(g, PairMemory()), -g)


def test_pair_memory_keeps_the_products_the_two_loop_used_to_take():
    # after the ring wraps, the compact form's small matrices, read in age
    # order, equal their definitions over the pairs the memory holds
    from rlsmcg.core import CountingProblem
    from rlsmcg.solver import initial_state, policy_step
    prob = get_problem("ext_rosenbrock(1000)")
    params = SolverParams().resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = _Policy(BaselineKind(BaselineTag.LBFGS))
    for _ in range(20):
        assert policy_step(policy, state, cp, params, traced=False)[0] is None
    pairs, m = policy.pairs, LBFGS_MEMORY
    assert pairs.pushes > m and len(pairs) == m
    age = [(pairs.pushes + i) % m for i in range(m)]  # oldest slot first
    S, Y = pairs.W[:m][age], pairs.W[m:][age]
    Rinv = pairs.Rinv[np.ix_(age, age)]
    R = np.triu(S @ Y.T)
    assert np.array_equal(Rinv, np.triu(Rinv))
    YY = pairs.YY[np.ix_(age, age)]
    # to rounding in each entry, against the entry's |R^-1| |R| or |Y| |Y|'
    assert np.all(np.abs(Rinv @ R - np.eye(m)) <= 1e-13 * (np.abs(Rinv) @ np.abs(R)))
    assert np.all(np.abs(YY - Y @ Y.T) <= 1e-13 * (np.abs(Y) @ np.abs(Y).T))
    assert list(np.diag(YY)) == [dot(y, y) for y in Y]
    assert list(pairs.D[age]) == [dot(s, y) for s, y in zip(S, Y)]
    assert pairs.seed_scale == dot(S[-1], Y[-1]) / dot(Y[-1], Y[-1])


def test_lbfgs_direction_equals_dense_oracle_past_eviction():
    # 2m + 3 pairs y = A s with cond(A) up to 1e12, pushed through the
    # policy's skip test between pairs it must skip (s'y < 0, and s'y = 0 up
    # to rounding): the ring drops its oldest pairs, and every direction
    # equals the oracle over the newest m pairs kept
    rng = np.random.default_rng(34)
    n = 15
    for log_cond in (0, 4, 8, 12):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = (Q * np.logspace(0, log_cond, n)) @ Q.T
        policy = _Policy(BaselineKind(BaselineTag.LBFGS))
        s_list, y_list = [], []
        for i in range(2 * LBFGS_MEMORY + 3):
            s, u = rng.standard_normal(n), rng.standard_normal(n)
            skipped = (-s, u - (dot(u, s) / dot(s, s)) * s)
            for y in (skipped[i % 2], A @ s) if i % 3 == 0 else (A @ s,):
                state = SolverState(k=i, x=s, f=0.0, g=y, s_prev=s, y_prev=y,
                                    d_prev=s)
                policy.update(state, None, None, None, SolverParams())
            s_list.insert(0, s)  # newest first
            y_list.insert(0, A @ s)
            assert policy.pairs.pushes == i + 1
            g = rng.standard_normal(n)
            d = lbfgs_two_loop(g, policy.pairs)
            d_oracle = dense_inverse_direction(g, s_list[:LBFGS_MEMORY],
                                               y_list[:LBFGS_MEMORY])
            assert (np.max(np.abs(d - d_oracle))
                    <= 1e-10 * max(1.0, np.max(np.abs(d_oracle)))), (log_cond, i)
        assert len(policy.pairs) == LBFGS_MEMORY


def test_lbfgs_direction_is_a_fresh_array():
    # the driver keeps the direction as state.d_prev: no later call and no
    # push may write it, and g is only read
    rng = np.random.default_rng(6)
    g = rng.standard_normal(6)
    g_in = g.copy()
    pairs = PairMemory()
    kept = []
    for _ in range(LBFGS_MEMORY + 2):
        d = lbfgs_two_loop(g, pairs)
        assert not np.shares_memory(d, g)
        assert pairs.W is None or not np.shares_memory(d, pairs.W)
        kept.append((d, d.copy()))
        s = rng.standard_normal(6)
        y = 2.0 * s + 0.1 * rng.standard_normal(6)
        pairs.push(s, y, dot(s, y), dot(y, y))
        lbfgs_two_loop(g, pairs)
    for d, copy in kept:
        np.testing.assert_array_equal(d, copy)
    np.testing.assert_array_equal(g, g_in)


def test_hs_finite_termination_on_strictly_convex_quadratics():
    # near-exact line search via a small curvature constant
    params = SolverParams(sigma_wolfe=1e-4)
    for n in (2, 5, 10):
        prob = quadratic_problem(np.linspace(1.0, 3.0, n), np.ones(n))
        rep = run_baseline(BaselineKind(BaselineTag.HS_CG), prob, params)
        assert rep.status is Status.CONVERGED
        assert rep.n_iter <= n + 1, (n, rep.n_iter)


def test_hs_two_dimensional_quadratic_three_iterations():
    params = SolverParams(sigma_wolfe=1e-4)
    prob = quadratic_problem([1.0, 4.0], [2.0, 1.0])
    rep = run_baseline(BaselineKind(BaselineTag.HS_CG), prob, params)
    assert rep.status is Status.CONVERGED
    assert rep.n_iter <= 3


def test_lbfgs_converges_on_hilbert_6():
    rep = run_baseline(BaselineKind(BaselineTag.LBFGS),
                       get_problem("quad_hilbert(6)"))
    assert rep.status is Status.CONVERGED
    assert rep.final_gnorm_inf <= 1e-6


def test_counters_satisfy_reporting_contract():
    for tag in BaselineTag:
        rep = run_baseline(BaselineKind(tag), get_problem("ext_rosenbrock(10)"))
        assert rep.n_f >= rep.n_iter
        assert rep.n_g >= rep.n_iter
        assert rep.status is Status.CONVERGED


def test_baselines_share_termination_protocol():
    params = SolverParams(max_iter=2)
    rep = run_baseline(BaselineKind(BaselineTag.HS_CG),
                       get_problem("ext_rosenbrock(100)"), params)
    assert rep.status is Status.ITER_CAP
    assert rep.n_iter == 2


def test_baseline_trace_hook_rows():
    # the baselines report through the same TraceRecord as rlsmcg, one per iteration
    for tag in BaselineTag:
        recs = []
        rep = run_baseline(BaselineKind(tag), get_problem("trigonometric(10)"),
                           trace_hook=recs.append)
        assert all(isinstance(rec, TraceRecord) for rec in recs)
        assert [rec.k for rec in recs] == list(range(rep.n_iter))
        assert all(rec.failure is None and rec.state is IterType.SMCG for rec in recs)
        assert recs[-1].gnorm_inf == rep.final_gnorm_inf


def test_failed_baseline_step_reaches_the_hook():
    # f = -x1 - x2 has no Wolfe point: the second capped search is rescued,
    # the rescue fails, and the hook sees that step before the run stops
    prob = Problem("linear", 2, lambda x: -float(np.sum(x)),
                   lambda x: -np.ones(2), np.zeros(2))
    for tag in BaselineTag:
        recs = []
        rep = run_baseline(BaselineKind(tag), prob, trace_hook=recs.append)
        assert rep.status is Status.LINESEARCH_FAIL
        assert len(recs) == rep.n_iter + 1
        last = recs[-1]
        assert last.failure is Status.LINESEARCH_FAIL and last.rescued
        assert last.k == rep.n_iter and np.isnan(last.alpha)


# exact (n_iter, n_f, n_g) of each baseline; the shared driver must keep them
PINNED_COUNTS = {
    "broyden_tridiag(100)": {"hs": (28, 56, 29), "lbfgs": (29, 30, 30)},
    # hs took 10,695 gradients here before its Powell restart and N&W probe
    # lbfgs took 65 gradients here before its compact form; from the 24
    # ulp_start starts it took 65-81 then, 76-80 now
    "ext_rosenbrock(10)": {"hs": (37, 84, 45), "lbfgs": (75, 85, 78)},
    "ext_rosenbrock(1000)": {"hs": (37, 84, 45), "lbfgs": (62, 72, 65)},
    "powell_singular(4)": {"hs": (69, 138, 70), "lbfgs": (47, 48, 48)},
    "quad_diag(10)": {"hs": (12, 24, 13), "lbfgs": (114, 115, 115)},
    "quad_hilbert(6)": {"hs": (8, 16, 9), "lbfgs": (46, 47, 47)},
    "trigonometric(10)": {"hs": (35, 74, 36), "lbfgs": (29, 36, 30)},
}


@pytest.mark.parametrize("tag", list(BaselineTag), ids=lambda t: t.value)
@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_baseline_counts_are_pinned(name, tag):
    rep = run_baseline(BaselineKind(tag), get_problem(name))
    assert rep.status is Status.CONVERGED
    assert (rep.n_iter, rep.n_f, rep.n_g) == PINNED_COUNTS[name][tag.value]


def test_hs_converges_on_scaled_palmer_within_300_gradients():
    # the N&W probe is scale-free, so f 2^-10 costs about what f costs;
    # the probe at 1 took 158,529 gradients here
    params = SolverParams(grad_tol=math.ldexp(1e-6, -10))
    rep = run_baseline(BaselineKind(BaselineTag.HS_CG),
                       scaled(get_problem("palmer_poly(8)"), -10), params)
    assert rep.status is Status.CONVERGED
    assert rep.n_g <= 300


def _hs_state(t):
    # g = (1, 0) after g_prev = (t, 1): g'g = 1 and g'g_prev = t
    g, g_prev = np.array([1.0, 0.0]), np.array([t, 1.0])
    return SolverState(k=1, x=np.zeros(2), f=0.0, g=g, s_prev=-g_prev,
                       y_prev=g - g_prev, d_prev=-g_prev)


@pytest.mark.parametrize("t", [0.21, -0.21, 0.5])
def test_hs_restarts_along_minus_g_once_powell_test_fires(t):
    assert POWELL_RESTART == 0.2
    state = _hs_state(t)
    rec = _Policy(BaselineKind(BaselineTag.HS_CG)).direction(state, SolverParams())
    assert rec.case_tag is CaseTag.HS
    np.testing.assert_array_equal(rec.d, -state.g)
    assert rec.gTd == -dot(state.g, state.g) == -1.0


@pytest.mark.parametrize("t", [0.19, -0.19, 0.0])
def test_hs_keeps_its_beta_below_powell_threshold(t):
    state = _hs_state(t)
    rec = _Policy(BaselineKind(BaselineTag.HS_CG)).direction(state, SolverParams())
    d = hs_direction(state.g, state.y_prev, state.d_prev)
    assert rec.case_tag is CaseTag.HS
    np.testing.assert_array_equal(rec.d, d)
    assert rec.gTd == dot(state.g, d)
    assert t == 0.0 or not np.array_equal(rec.d, -state.g)


def test_lbfgs_skips_a_pair_whose_yTy_underflows():
    # s'y = 1e-63 > 0 while y'y = 1e-326 rounds to 0: no seed scale s'y/y'y
    s, y = np.array([1e100]), np.array([1e-163])
    assert dot(s, y) > 0.0 and dot(y, y) == 0.0
    policy = _Policy(BaselineKind(BaselineTag.LBFGS))
    state = SolverState(k=1, x=s, f=0.0, g=y, s_prev=s, y_prev=y, d_prev=s)
    policy.update(state, None, None, None, SolverParams())
    assert len(policy.pairs) == 0 and policy.pairs.seed_scale == 1.0
