import numpy as np
import pytest

from rlsmcg.baselines import (BaselineKind, BaselineTag, lbfgs_two_loop,
                              run_baseline)
from rlsmcg.core import IterType, Problem, SolverParams, Status
from rlsmcg.problems import get_problem, sphere
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
        s_list, y_list = [], []
        for _ in range(m):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0:
                y = -y
            s_list.insert(0, s)  # newest first
            y_list.insert(0, y)
        g = rng.standard_normal(n)
        d = lbfgs_two_loop(g, s_list, y_list)
        d_oracle = dense_inverse_direction(g, s_list, y_list)
        assert np.max(np.abs(d - d_oracle)) <= 1e-10 * max(1.0, np.max(np.abs(d_oracle)))


def test_two_loop_without_pairs_is_steepest_descent():
    g = np.array([1.0, -2.0])
    np.testing.assert_array_equal(lbfgs_two_loop(g, [], []), -g)


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


def test_bbsd_identity_hessian_two_iterations():
    rep = run_baseline(BaselineKind(BaselineTag.BB_SD), sphere(20))
    assert rep.status is Status.CONVERGED
    assert rep.n_iter <= 2


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
    "broyden_tridiag(100)": {"hs": (39, 78, 40), "lbfgs": (29, 30, 30),
                             "bbsd": (32, 34, 33)},
    "ext_rosenbrock(1000)": {"hs": (471, 1042, 510), "lbfgs": (62, 72, 65),
                             "bbsd": (82, 94, 87)},
    "powell_singular(4)": {"hs": (226, 458, 227), "lbfgs": (47, 48, 48),
                           "bbsd": (137, 147, 144)},
    "quad_diag(10)": {"hs": (65, 130, 66), "lbfgs": (114, 115, 115),
                      "bbsd": (353, 374, 354)},
    "quad_hilbert(6)": {"hs": (38, 76, 39), "lbfgs": (46, 47, 47),
                        "bbsd": (615, 820, 660)},
    "trigonometric(10)": {"hs": (29, 62, 30), "lbfgs": (29, 36, 30),
                          "bbsd": (65, 72, 66)},
}


@pytest.mark.parametrize("tag", list(BaselineTag), ids=lambda t: t.value)
@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_baseline_counts_are_pinned(name, tag):
    rep = run_baseline(BaselineKind(tag), get_problem(name))
    assert rep.status is Status.CONVERGED
    assert (rep.n_iter, rep.n_f, rep.n_g) == PINNED_COUNTS[name][tag.value]
