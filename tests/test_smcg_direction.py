import math

import numpy as np
import pytest

from rlsmcg.core import CaseTag, SolverParams, Status, dot
from rlsmcg.problems import quad_diag
from rlsmcg.smcg_direction import (CurvatureSnapshot, default_regularization_weight,
                                   hs_direction, hs_fallback_ok, is_quadratic_like,
                                   is_well_conditioned, quadratic_closeness,
                                   rho_estimate, solve_quadratic_subproblem,
                                   solve_regularized_subproblem,
                                   sufficient_descent_coefficient)
from rlsmcg.smcg_direction import smcg_direction as smcg_direction_op
from rlsmcg.solver import run_with_trace

P = SolverParams()


def snap_of(g, s, y):
    g, s, y = (np.asarray(v, float) for v in (g, s, y))
    return CurvatureSnapshot.from_vectors(g, s, y, (dot(g, g), dot(g, s), dot(s, y)))


# --- quadratic closeness ------------------------------------------------------

def test_closeness_exact_quadratic_is_zero():
    # f(x) = x^2/2 stepping from 1 to 0: g(0) = 0, s = -1, y = -1
    assert quadratic_closeness(0.5, 0.0, 0.0, 1.0) == 0.0


def test_closeness_quartic_hand_value():
    # f(x) = x^4 from 1 to 0.5: f=(1, 0.0625), g(0.5)=0.5, s=-0.5, y=-3.5
    t = quadratic_closeness(1.0, 0.0625, -0.25, 1.75)
    assert t == pytest.approx(3.0 / 14.0, abs=1e-15)


def test_closeness_zero_when_data_fits_quadratic():
    # any inputs with f_prev - f_cur + gTs = sTy / 2
    assert quadratic_closeness(2.0, 1.25, 0.25, 2.0) == 0.0


def test_closeness_undefined_for_zero_sty():
    assert quadratic_closeness(1.0, 0.5, 0.1, 0.0) == math.inf
    assert quadratic_closeness(math.inf, math.inf, 0.1, 1.0) == math.inf


# --- gates --------------------------------------------------------------------

def test_quadratic_like_first_clause():
    assert is_quadratic_like(5e-5, math.inf, P)


def test_quadratic_like_needs_two_small_samples():
    assert not is_quadratic_like(0.05, 0.2, P)


def test_quadratic_like_second_clause():
    assert is_quadratic_like(0.05, 0.05, P)


def test_well_conditioned_identity_pair():
    assert is_well_conditioned(snap_of([1, 1], [1, 0], [1, 0]), P)


def test_well_conditioned_rejects_nonpositive_curvature():
    assert not is_well_conditioned(snap_of([1, 0], [1, 0], [-1, 0]), P)


def test_well_conditioned_rejects_large_rayleigh():
    assert not is_well_conditioned(snap_of([1, 0], [1, 0], [2e4, 0]), P)


def test_hs_gate_zero_cross_term():
    # g's = 0 makes the first clause hold with equality
    assert hs_fallback_ok(snap_of([1, 0], [0, 1], [0, 1]), P)


def test_hs_gate_rejects_negative_curvature():
    assert not hs_fallback_ok(snap_of([1, 0], [0, 1], [0, -1]), P)


def test_hs_gate_rejects_large_cross_term():
    assert not hs_fallback_ok(snap_of([1, 1], [1, 0], [1, 0]), P)


# --- rho ----------------------------------------------------------------------

def test_rho_unit_snapshot():
    assert rho_estimate(snap_of([1, 0], [0, 1], [0, 1])) == 1.5


def test_rho_zero_gradient():
    assert rho_estimate(snap_of([0, 0], [0, 1], [0, 1])) == 0.0


def test_rho_hand_value():
    snap = CurvatureSnapshot(sTy=2.0, sTs=1.0, yTy=4.0, gTg=3.0, gTs=0.0, gTy=0.0)
    assert rho_estimate(snap) == 9.0


def test_rho_requires_positive_curvature():
    with pytest.raises(ValueError):
        rho_estimate(CurvatureSnapshot(sTy=-1.0, sTs=1.0, yTy=1.0,
                                       gTg=1.0, gTs=0.0, gTy=0.0))


# --- 2-D quadratic subproblem ---------------------------------------------------

def test_quadratic_subproblem_scaled_steepest_descent():
    u, v = solve_quadratic_subproblem(snap_of([1, 0], [0, 1], [0, 1]))
    assert (u, v) == pytest.approx((-2.0 / 3.0, 0.0))


def test_quadratic_subproblem_hand_solve():
    u, v = solve_quadratic_subproblem(snap_of([1, 1], [1, 0], [1, 0]))
    assert (u, v) == pytest.approx((-0.5, -0.5))
    g = np.array([1.0, 1.0])
    d = u * g + v * np.array([1.0, 0.0])
    assert float(g @ d) == pytest.approx(-1.5)


def test_quadratic_subproblem_diagonal_case():
    snap = CurvatureSnapshot(sTy=1.0, sTs=1.0, yTy=1.0, gTg=2.0, gTs=0.0, gTy=0.0)
    rho = rho_estimate(snap)
    u, v = solve_quadratic_subproblem(snap)
    assert (u, v) == pytest.approx((-snap.gTg / rho, 0.0))


def test_quadratic_subproblem_descent_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = rng.standard_normal(5)
        s = rng.standard_normal(5)
        y = rng.standard_normal(5)
        if np.dot(s, y) <= 0:
            y = -y
        snap = snap_of(g, s, y)
        sol = solve_quadratic_subproblem(snap)
        if sol is None or snap.gTg == 0.0:
            continue
        u, v = sol
        d = u * g + v * s
        assert float(g @ d) < 0.0


def test_quadratic_subproblem_degenerate_signal():
    # zero gradient makes rho = 0 and the determinant nonpositive
    assert solve_quadratic_subproblem(snap_of([0, 0], [0, 1], [0, 1])) is None


# --- regularized subproblem -----------------------------------------------------

def _bnorm(snap, u, v):
    """||(u, v)||_B with B = [[rho, g'y], [g'y, s'y]]: the root varpi."""
    q = rho_estimate(snap) * u * u + 2.0 * snap.gTy * u * v + snap.sTy * v * v
    return math.sqrt(q)


def test_regularized_off_matches_quadratic_exactly():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = rng.standard_normal(4)
        s = rng.standard_normal(4)
        y = rng.standard_normal(4)
        if np.dot(s, y) <= 0:
            y = -y
        snap = snap_of(g, s, y)
        base = solve_quadratic_subproblem(snap)
        u, v = solve_regularized_subproblem(snap, 0.0)
        assert u == base[0] and v == base[1]  # bitwise


def test_regularized_hand_example_against_root_oracle():
    snap = snap_of([1, 0], [0, 1], [0, 1])
    u, v = solve_regularized_subproblem(snap, 1.0)
    # N = ||(-2/3, 0)||_B with B = [[1.5, 0], [0, 1]]
    n_b = math.sqrt(1.5 * (2.0 / 3.0) ** 2)
    assert n_b == pytest.approx(0.8164965809, abs=1e-9)
    # varpi* solves sigma w^2 + w - N = 0; independent root via numpy
    roots = np.roots([1.0, 1.0, -n_b])
    w_star = max(roots)
    assert _bnorm(snap, u, v) == pytest.approx(w_star, abs=1e-12)
    assert u == pytest.approx((-2.0 / 3.0) / (1.0 + w_star), abs=1e-12)
    assert v == 0.0


def test_regularized_shrinks_monotonically_in_sigma():
    snap = snap_of([1.0, 0.5], [0.3, 1.0], [0.2, 0.9])
    prev_norm = math.inf
    prev_scale = math.inf
    for sigma in [0.0, 0.1, 1.0, 10.0, 1e3, 1e6]:
        u, v = solve_regularized_subproblem(snap, sigma)
        norm = math.hypot(u, v)
        scale = 1.0 / (1.0 + sigma * _bnorm(snap, u, v))
        assert norm <= prev_norm + 1e-15
        assert scale <= prev_scale + 1e-15
        prev_norm, prev_scale = norm, scale
    assert prev_norm < 1e-2  # sigma -> inf drives ||d|| toward 0


def test_determinant_positive_whenever_curvature_positive():
    rng = np.random.default_rng(13)
    for _ in range(200):
        g = rng.standard_normal(6)
        s = rng.standard_normal(6)
        y = rng.standard_normal(6)
        if np.dot(s, y) <= 0:
            y = -y
        snap = snap_of(g, s, y)
        if snap.gTg == 0.0:
            continue
        rho = rho_estimate(snap)
        delta = rho * snap.sTy - snap.gTy ** 2
        assert delta > 0.0


def _cubic_model_oracle(snap, sigma):
    """Grid refinement plus Newton polish on the 2-D cubic model."""
    rho = rho_estimate(snap)
    B = np.array([[rho, snap.gTy], [snap.gTy, snap.sTy]])
    c = np.array([snap.gTg, snap.gTs])

    def val(w):
        q = float(w @ B @ w)
        return float(c @ w) + 0.5 * q + (sigma / 3.0) * max(q, 0.0) ** 1.5

    center = -np.linalg.solve(B, c)
    half = 2.0 * max(float(np.linalg.norm(center)), 1e-3)
    for _ in range(3):
        us = np.linspace(center[0] - half, center[0] + half, 61)
        vs = np.linspace(center[1] - half, center[1] + half, 61)
        best = min(((val(np.array([u, v])), u, v) for u in us for v in vs))
        center = np.array([best[1], best[2]])
        half /= 15.0
    w = center
    for _ in range(100):
        nb = math.sqrt(max(float(w @ B @ w), 1e-300))
        grad = c + B @ w + sigma * nb * (B @ w)
        hess = B * (1.0 + sigma * nb) + sigma * np.outer(B @ w, B @ w) / nb
        w = w - np.linalg.solve(hess, grad)
        if float(np.linalg.norm(grad)) < 1e-14:
            break
    return w


def test_regularized_solution_matches_bruteforce_oracle():
    rng = np.random.default_rng(17)
    for trial in range(40):
        g = rng.standard_normal(5)
        s = rng.standard_normal(5)
        y = rng.standard_normal(5)
        if np.dot(s, y) <= 0:
            y = -y
        snap = snap_of(g, s, y)
        sigma = 0.0 if trial % 4 == 0 else float(rng.uniform(0.0, 5.0))
        u, v = solve_regularized_subproblem(snap, sigma)
        w = _cubic_model_oracle(snap, sigma)
        assert abs(u - w[0]) <= 1e-8
        assert abs(v - w[1]) <= 1e-8


def test_default_regularization_weight_scales_with_closeness():
    snap = snap_of([1.0, 0.0], [0.0, 2.0], [0.0, 1.0])
    assert default_regularization_weight(0.0, snap) == 0.0
    w_small = default_regularization_weight(0.3, snap)
    w_large = default_regularization_weight(5.0, snap)
    assert w_small == pytest.approx(0.3 * snap.sTy / snap.sTs)
    assert w_large == pytest.approx(1.0 * snap.sTy / snap.sTs)


# --- HS direction ---------------------------------------------------------------

def test_hs_zero_beta_gives_neg_gradient():
    g, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    d = hs_direction(g, y, np.array([1.0, 0.0]), dot(g, y))
    assert d == pytest.approx([0.0, -1.0])


def test_hs_degenerate_denominator_signals():
    assert hs_direction(np.ones(2), np.array([0.0, 1.0]),
                        np.array([1.0, 0.0]), 1.0) is None


def test_hs_conjugacy_on_quadratic_with_exact_linesearch():
    A = np.diag([1.0, 4.0])
    x = np.array([2.0, 1.0])
    g = A @ x
    d0 = -g
    alpha = -float(g @ d0) / float(d0 @ A @ d0)
    x1 = x + alpha * d0
    g1 = A @ x1
    y0 = g1 - g
    d1 = hs_direction(g1, y0, d0, dot(g1, y0))
    assert abs(float(d1 @ A @ d0)) <= 1e-12 * np.linalg.norm(d1) * np.linalg.norm(d0)


# --- full dispatch ---------------------------------------------------------------

def test_direction_at_k0_is_steepest_descent():
    prob = quad_diag(4)
    report, trace = run_with_trace(prob)
    assert trace[0].case_tag is CaseTag.NEG_GRAD


def test_quadratic_run_stays_in_model_cases():
    # strictly convex quadratic: t_k = 0, so after the first step the
    # direction comes from the quadratic subproblem (or HS); the subspace
    # phase is disabled so the conjugate-gradient branch keeps control
    prob = quad_diag(2, cond=10.0)
    report, trace = run_with_trace(prob, rqn_enabled=False)
    assert report.status is Status.CONVERGED
    for rec in trace[1:]:
        assert rec.case_tag in (CaseTag.QUAD_SUBPROBLEM, CaseTag.HS)


def test_dispatch_sufficient_descent_margin():
    c1 = sufficient_descent_coefficient(P)
    assert c1 == pytest.approx(1.0 / (3.0 * 1.2e4))
    prob = quad_diag(6, cond=1e4)
    report, trace = run_with_trace(prob)
    for rec in trace:
        assert rec.gTd <= -c1 * rec.gnorm2


def test_dispatch_falls_back_when_all_gates_closed():
    # negative curvature pair closes both the model and the HS gates
    from rlsmcg.core import SolverState
    g = np.array([1.0, 1.0])
    state = SolverState(k=3, x=np.zeros(2), f=1.0, g=g,
                        s_prev=np.array([1.0, 0.0]),
                        y_prev=np.array([-1.0, 0.0]),
                        d_prev=np.array([0.0, -1.0]))
    f_prev = 2.0
    shared = (dot(g, g), dot(g, state.s_prev), dot(state.s_prev, state.y_prev))
    t_k = quadratic_closeness(f_prev, state.f, shared[1], shared[2])
    rec = smcg_direction_op(state, P, t_k, False, shared)
    assert rec.case_tag is CaseTag.NEG_GRAD
    assert rec.d == pytest.approx(-g)
