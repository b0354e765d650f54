import math
from dataclasses import replace

import numpy as np
import pytest

from rlsmcg import solver as solver_module
from rlsmcg.baselines import BaselineKind, BaselineTag, _Policy
from rlsmcg.core import (CaseTag, CountingProblem, DirectionRecord, IterType,
                         Problem, SolverParams, Status, dot, norm_inf)
from rlsmcg.linesearch import AcceptKind, wolfe_search
from rlsmcg.problems import (ULP_STARTS, ext_rosenbrock, get_problem, quad_diag,
                             registry, sphere, ulp_start)
from rlsmcg.smcg_direction import neg_grad_record
from rlsmcg.solver import (Phase, Rlsmcg, initial_state, minimize, policy_step,
                           run, run_with_trace, update_restart_counters)
from rlsmcg import subspace_rqn as rqn
from rlsmcg.subspace_rqn import (SubspaceHessian, orthogonality_restored,
                                 rqn_direction)

P = SolverParams()


# --- restart counters ------------------------------------------------------------

def test_counters_increment_on_quadratic_like():
    rc = update_restart_counters(3, 2, t_k=0.0, restarted=False, params=P)
    assert rc == (4, 3)


def test_counters_reset_quad_run_on_large_closeness():
    rc = update_restart_counters(3, 2, t_k=0.5, restarted=False, params=P)
    assert rc == (4, 0)


def test_counters_zeroed_by_restart():
    rc = update_restart_counters(9, 5, t_k=0.0, restarted=True, params=P)
    assert rc == (0, 0)


def test_forced_restart_fires_when_counters_disagree():
    prob = ext_rosenbrock(10)
    params = P.resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = Rlsmcg()
    for _ in range(3):
        policy_step(policy, state, cp, params)
    policy.iter_quad = params.min_quad
    policy.iter_restart = params.min_quad + 7
    _, rec = policy_step(policy, state, cp, params)
    assert rec.case_tag is CaseTag.NEG_GRAD
    assert policy.iter_quad == 0 and policy.iter_restart == 0


# --- single steps ----------------------------------------------------------------

def test_first_iteration_is_steepest_descent():
    prob = ext_rosenbrock(10)
    report, trace = run_with_trace(prob)
    assert trace[0].case_tag is CaseTag.NEG_GRAD
    assert trace[0].state_before is IterType.SMCG


def test_step_keeps_objective_and_gradient_consistent():
    prob = ext_rosenbrock(10)
    params = P.resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = Rlsmcg()
    for _ in range(10):
        policy_step(policy, state, cp, params)
        assert state.f == pytest.approx(prob.eval_f(state.x))
        np.testing.assert_allclose(state.g, prob.eval_g(state.x))


class _HalfStepDescent:
    """Steepest descent with a trial step of 1/2: exactly the protocol
    ``policy_step`` runs, with no attribute beyond it."""

    __slots__ = ()

    def direction(self, state, params):
        return neg_grad_record(state.g)

    def trial_step(self, line, state, record, params):
        return 0.5

    def land(self, state, record, line, result, params):
        a = result.alpha
        g = line.gradient(a)
        return line.point(a), line.value(a), g, norm_inf(g)

    def update(self, state, record, line, result, params):
        pass

    def trace_fields(self, record):
        return {}


class _OverflowingDirection(_HalfStepDescent):
    """The protocol with a finite direction of entries -1e308, whose g'd
    overflows to -inf wherever g's entries sum to more than 1."""

    __slots__ = ()

    def direction(self, state, params):
        d = np.full_like(state.g, -1e308)
        with np.errstate(over="ignore"):
            gTd = dot(state.g, d)
        return DirectionRecord(d=d, case_tag=CaseTag.HS, gTd=gTd)


class _SteepAlongTinyGradient(_HalfStepDescent):
    """The protocol with d = -1e300 g, a descent direction certified by
    its g'd wherever g'g underflows and -g's is not."""

    __slots__ = ()

    def direction(self, state, params):
        d = -1e300 * state.g
        return DirectionRecord(d=d, case_tag=CaseTag.HS, gTd=dot(state.g, d))


def test_a_rescue_along_an_uncertified_steepest_descent_gives_a_status():
    # g = 1e-300 x, so g'g underflows to 0, and f is NaN off the start: the
    # search along d finds no point below C_k, and the rescue's -g has
    # g'd = -0.0, along which float64 cannot certify descent
    x0 = np.ones(2)
    tiny = Problem("tiny_nan", 2,
                   lambda x: 1e-300 if np.array_equal(x, x0) else math.nan,
                   lambda x: 1e-300 * x, x0)
    cp = CountingProblem(tiny)
    state = initial_state(cp)
    status, rec = policy_step(_SteepAlongTinyGradient(), state, cp,
                              SolverParams(grad_tol=1e-320).resolve(2))
    assert status is Status.NUMERIC_FAIL and rec.failure is Status.NUMERIC_FAIL
    assert rec.rescued and rec.case_tag is CaseTag.NEG_GRAD and rec.gTd == 0.0
    assert state.k == 0 and cp.n_g == 1


_RESCUE_POLICIES = {
    "rlsmcg": Rlsmcg,
    "hs": lambda: _Policy(BaselineKind(BaselineTag.HS_CG)),
    "lbfgs": lambda: _Policy(BaselineKind(BaselineTag.LBFGS)),
}


@pytest.mark.parametrize("solver", sorted(_RESCUE_POLICIES))
@pytest.mark.parametrize("y_prev, rescue_alpha0", [
    # s'y = -3 <= 0: no curvature to scale by, the floor alpha_min
    ((-1.0, -2.0), P.alpha_min),
    # s'y = 3 and g's = 2 > 0: BB2 = s'y / y'y = 3/5, not BB1 = s's / s'y = 2/3
    ((1.0, 2.0), 0.6),
])
def test_every_solver_starts_its_rescue_from_the_same_step(
        monkeypatch, solver, y_prev, rescue_alpha0):
    # f >= 1 everywhere, and C_k is planted at 0: no search finds a point
    # below C_k, so the step is rescued along -g at g = x0 = (1, 1)
    x0 = np.ones(2)
    prob = Problem("offset_sphere", 2, lambda x: 0.5 * dot(x, x) + 1.0,
                   lambda x: x.copy(), x0)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    state.s_prev = state.d_prev = np.array([1.0, 1.0])
    state.y_prev = np.array(y_prev)
    state.ledger = state.ledger._replace(Ck=0.0)
    starts = []

    def spy(line, alpha0, ledger, gTd, params):
        starts.append((line.d.copy(), alpha0))
        return wolfe_search(line, alpha0, ledger, gTd, params)
    monkeypatch.setattr(solver_module, "wolfe_search", spy)
    status, rec = policy_step(_RESCUE_POLICIES[solver](), state, cp,
                              P.resolve(2))
    assert status is Status.LINESEARCH_FAIL
    assert rec.rescued and rec.case_tag is CaseTag.NEG_GRAD
    assert len(starts) == 2
    d, alpha0 = starts[-1]
    np.testing.assert_array_equal(d, -x0)
    assert alpha0 == rescue_alpha0


def test_a_direction_with_no_finite_slope_is_replaced_by_steepest_descent():
    # no point of the line but x itself has a finite f, so a search along d
    # only backtracks; the driver searches along -g from the start instead
    cp = CountingProblem(sphere(2))
    state = initial_state(cp)
    policy = _OverflowingDirection()
    assert policy.direction(state, P).gTd == -math.inf
    status, rec = policy_step(policy, state, cp, P.resolve(2))
    assert status is None
    assert rec.case_tag is CaseTag.NEG_GRAD
    assert rec.accepted_by is AcceptKind.WOLFE and not rec.rescued
    assert cp.n_f == 2


def test_driver_runs_a_policy_with_only_the_protocol():
    records = []
    report = minimize(sphere(10), None, _HalfStepDescent(), records.append)
    assert report.status is Status.CONVERGED
    assert len(records) == report.n_iter > 1
    assert all(rec.state is rec.state_before is IterType.SMCG
               and not (rec.entered_rqn or rec.exited_rqn or rec.guard_fallback)
               for rec in records)


# --- full runs --------------------------------------------------------------------

def test_sphere_converges_in_a_few_iterations():
    rep = run(sphere(10))
    assert rep.status is Status.CONVERGED
    assert rep.n_iter <= 3


def test_rosenbrock_100_converges():
    rep = run(ext_rosenbrock(100))
    assert rep.status is Status.CONVERGED
    assert rep.final_gnorm_inf <= 1e-6


def test_iteration_cap():
    rep = run(ext_rosenbrock(10), SolverParams(max_iter=1))
    assert rep.status is Status.ITER_CAP
    assert rep.n_iter == 1


def test_converged_only_below_tolerance():
    rep = run(quad_diag(20))
    assert rep.status is Status.CONVERGED
    assert rep.final_gnorm_inf <= P.grad_tol


def test_report_counters_match_wrapped_problem():
    prob = ext_rosenbrock(10)
    calls = {"f": 0, "g": 0}
    wrapped = Problem(prob.name, prob.dim,
                      lambda x: (calls.__setitem__("f", calls["f"] + 1),
                                 prob.eval_f(x))[1],
                      lambda x: (calls.__setitem__("g", calls["g"] + 1),
                                 prob.eval_g(x))[1],
                      prob.x0)
    rep = run(wrapped)
    assert rep.n_f == calls["f"]
    assert rep.n_g == calls["g"]
    assert rep.n_f >= rep.n_iter and rep.n_g >= rep.n_iter


def test_gradient_norm_minimized_at_final_iterate():
    prob = get_problem("quad_hilbert(8)")
    rep, trace = run_with_trace(prob)
    assert rep.status is Status.CONVERGED
    tol = P.grad_tol
    for rec in trace[:-1]:
        assert rec.gnorm_inf > tol  # the run stops at the first sub-tolerance point
    assert trace[-1].gnorm_inf <= tol
    # two-norm of the final gradient is within sqrt(n) of the max-norm bound
    g_final = prob.eval_g(rep.x)
    assert np.linalg.norm(g_final) <= tol * math.sqrt(prob.dim)


def test_state_machine_soundness():
    rep, trace = run_with_trace(get_problem("quad_hilbert(8)"))
    for rec in trace:
        if rec.case_tag is CaseTag.RQN:
            assert rec.state_before is IterType.RQN
        if rec.state_before is IterType.SMCG:
            assert rec.case_tag is not CaseTag.RQN
    # transitions are marked exactly where the state flips
    prev_state = IterType.SMCG
    for rec in trace:
        assert rec.state_before is prev_state
        if rec.entered_rqn:
            assert rec.state is IterType.RQN
        if rec.exited_rqn:
            assert rec.state is IterType.SMCG
        prev_state = rec.state


def test_ablation_never_enters_subspace_phase():
    rep, trace = run_with_trace(get_problem("quad_hilbert(8)"),
                                rqn_enabled=False)
    assert all(rec.state is IterType.SMCG for rec in trace)
    assert any(rec.orth_lost_flag for rec in trace)  # predicate still recorded


def _step_into_phase(prob):
    """Step until the quasi-Newton phase begins; report the quad-like flag."""
    params = P.resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = Rlsmcg()
    for _ in range(200):
        quad_like = policy.quad_like
        _, rec = policy_step(policy, state, cp, params)
        if rec.entered_rqn:
            return state, cp, params, policy, quad_like
    raise AssertionError(f"{prob.name}: no phase within 200 iterations")


def test_full_memory_phase_models_all_of_rn_and_leaves_the_core():
    # memory_m = n = 8: the memory spans R^8, so the model takes all of it,
    # while the exit is judged on the well-conditioned core, a proper subspace
    state, cp, params, policy, quad_like = _step_into_phase(
        get_problem("quad_hilbert(8)"))
    assert params.memory_m == cp.problem.dim and quad_like
    assert policy.phase.basis is None  # the whole-space marker: R^n, Z = I
    assert policy.phase.bhat.B_hat.shape == (cp.problem.dim, cp.problem.dim)
    core = policy.phase.core
    assert core.shape[1] < cp.problem.dim
    assert not orthogonality_restored(np.eye(cp.problem.dim), state.g,
                                      dot(state.g, state.g), params)
    for _ in range(200):
        _, rec = policy_step(policy, state, cp, params)
        if rec.exited_rqn or rec.early_converged:
            break
    # the phase ends because the gradient points out of the core, not by a guard
    assert rec.exited_rqn and not rec.guard_fallback and not rec.rescued
    assert orthogonality_restored(core, state.g, dot(state.g, state.g), params)
    assert rec.state is IterType.SMCG and policy.phase is None


def test_full_memory_phase_off_the_quadratic_regime_stays_on_the_core():
    state, cp, params, policy, quad_like = _step_into_phase(ext_rosenbrock(10))
    assert params.memory_m == cp.problem.dim and not quad_like
    assert policy.phase.basis is policy.phase.core
    assert policy.phase.basis.shape[1] < cp.problem.dim


@pytest.mark.parametrize("name", ["quad_hilbert(8)", "quad_hilbert(12)",
                                  "palmer_poly(8)", "ext_rosenbrock(10)"])
def test_a_phase_opens_at_the_curvature_of_the_step_just_taken(name):
    # B_hat starts at gamma*I with gamma = s'y/s's of the entering step, on
    # the whole space (hilbert(8), palmer) and on a core (the other two)
    state, cp, params, policy, _ = _step_into_phase(get_problem(name))
    bhat = policy.phase.bhat
    s, y = state.s_prev, state.y_prev
    gamma = dot(s, y) / dot(s, s)
    assert 0.0 < gamma < math.inf and gamma != 1.0
    assert bhat.is_identity and bhat.scale == gamma
    m = len(bhat.B_hat)
    assert bhat.B_hat.tobytes() == (gamma * np.eye(m)).tobytes()
    assert bhat.L.tobytes() == rqn._cholesky(gamma * np.eye(m)).tobytes()


def test_short_memory_phase_models_the_core():
    state, cp, params, policy, quad_like = _step_into_phase(
        get_problem("quad_hilbert(12)"))
    assert params.memory_m < cp.problem.dim and quad_like
    assert policy.phase.basis is policy.phase.core
    assert policy.phase.basis.shape[1] <= params.memory_m


def _step_into_degenerate_phase():
    """``quad_hilbert(8)`` in its phase, with a basis orthogonal to g
    planted: the reduced step offers no descent."""
    state, cp, params, policy, _ = _step_into_phase(get_problem("quad_hilbert(8)"))
    n = cp.problem.dim
    Q, _ = np.linalg.qr(np.column_stack([state.g, np.eye(n)[:, 1:]]))
    policy.phase = replace(policy.phase, basis=Q[:, 1:],
                           bhat=SubspaceHessian.identity(n - 1, P.mu_min))
    return state, cp, params, policy


def test_degenerate_reduced_step_falls_back_to_steepest_descent():
    # the guard takes -g, and the record shows the fallback and the closed phase
    state, cp, params, policy = _step_into_degenerate_phase()
    status, rec = policy_step(policy, state, cp, params)
    assert status is None
    assert rec.case_tag is CaseTag.NEG_GRAD and not rec.rescued
    assert rec.state_before is IterType.RQN and rec.state is IterType.SMCG
    assert rec.guard_fallback and rec.exited_rqn and not rec.entered_rqn
    assert rec.mu == 0.0 and rec.bhat is None
    assert policy.phase is None


# lifting the overflowed reduced step multiplies inf by the basis' zeros
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
def test_overflowing_reduced_solve_falls_back_to_steepest_descent():
    # a planted phase on span{e0}: g_hat = 1e10 over B_hat = 1e-300 overflows,
    # so the reduced step is not finite; the backstop takes -g and closes
    # the phase
    far = Problem("far_sphere", 2, lambda x: 0.5 * float(x @ x),
                  lambda x: x.copy(), np.array([1e10, 1.0]))
    params = P.resolve(far.dim)
    cp = CountingProblem(far)
    state = initial_state(cp)
    policy = Rlsmcg()
    basis = np.eye(2)[:, :1]
    policy.phase = Phase(basis, basis, SubspaceHessian(
        B_hat=np.array([[1e-300]]), is_identity=False, mu=P.mu_min))
    assert not np.all(np.isfinite(
        rqn_direction(basis, policy.phase.bhat, state.g).d))
    status, rec = policy_step(policy, state, cp, params)
    assert status is None
    assert rec.case_tag is CaseTag.NEG_GRAD and not rec.rescued
    assert rec.guard_fallback and rec.exited_rqn
    assert rec.state_before is IterType.RQN and rec.state is IterType.SMCG
    assert policy.phase is None


def test_failed_guard_step_reports_the_fallback():
    # f is NaN at every trial point (phi(0) is the state's own f), so the
    # guard's -g search and its rescue both fail; the record still shows
    # that the guard replaced the reduced step, and the phase stays open
    state, cp, params, policy = _step_into_degenerate_phase()
    nan_f = Problem("nan_f", cp.problem.dim, lambda x: math.nan,
                    cp.problem.eval_g, cp.problem.x0)
    status, rec = policy_step(policy, state, CountingProblem(nan_f), params)
    assert status is Status.LINESEARCH_FAIL and rec.failure is status
    assert rec.case_tag is CaseTag.NEG_GRAD and rec.rescued
    assert rec.guard_fallback and not rec.exited_rqn
    assert rec.state_before is IterType.RQN and policy.phase is not None


# per instance, with the RQN phase on: phases entered, RQN iterations and
# phases left; with it off: iterations whose gradient lost orthogonality.
# The RQN phase may cost at most a tenth more gradients than the ablation.
PINNED_PHASES = {
    "sphere(10)": (0, 0, 0, 0),
    "sphere(100)": (0, 0, 0, 0),
    "quad_diag(10)": (1, 8, 1, 53),
    "quad_diag(50)": (0, 0, 0, 0),
    "quad_diag(200)": (0, 0, 0, 0),
    "quad_hilbert(6)": (1, 6, 1, 26),
    "quad_hilbert(8)": (1, 7, 1, 50),
    "quad_hilbert(12)": (1, 7, 1, 47),
    "palmer_poly(8)": (2, 11, 2, 607),
    "ext_rosenbrock(2)": (0, 0, 0, 27),
    "ext_rosenbrock(10)": (1, 23, 0, 23),
    "ext_rosenbrock(100)": (1, 19, 0, 20),
    "ext_rosenbrock(1000)": (1, 19, 0, 19),
    "powell_singular(4)": (0, 0, 0, 208),
    "powell_singular(40)": (1, 20, 0, 219),
    "powell_singular(100)": (1, 20, 0, 257),
    "trigonometric(10)": (0, 0, 0, 25),
    "trigonometric(100)": (0, 0, 0, 0),
    "broyden_tridiag(10)": (0, 0, 0, 17),
    "broyden_tridiag(100)": (0, 0, 0, 0),
    "broyden_tridiag(1000)": (0, 0, 0, 0),
}


@pytest.mark.parametrize("name", sorted(PINNED_PHASES))
def test_phase_decisions_are_pinned(name, suite_runs):
    _, report, trace = suite_runs[0][name]
    ablation_report, ablation = run_with_trace(get_problem(name), rqn_enabled=False)
    assert (sum(rec.entered_rqn for rec in trace),
            sum(rec.state_before is IterType.RQN for rec in trace),
            sum(rec.exited_rqn for rec in trace),
            sum(bool(rec.orth_lost_flag) for rec in ablation)) == PINNED_PHASES[name]
    assert report.n_g <= 1.1 * ablation_report.n_g


def test_rqn_never_costs_more_gradients_than_the_ablation_at_ulp_starts():
    # palmer_poly(8) from 24 starts a few ulps apart: the RQN phase needs 22
    # to 185 gradients, the ablation 354 to 7,354.  The ablation stops at
    # the RQN run's count of gradients, and a run stopped by the iteration
    # cap has evaluated more gradients than its iterations
    base = get_problem("palmer_poly(8)")
    for j in ULP_STARTS:
        problem = replace(base, x0=ulp_start(base.x0, j))
        report = run(problem)
        assert report.status is Status.CONVERGED, j
        ablation = run(problem, SolverParams(max_iter=report.n_g),
                       rqn_enabled=False)
        assert report.n_g <= ablation.n_g, j


def test_trace_records_carry_bhat_on_rqn_iterations():
    # a traced RQN-case iteration records the reduced Hessian it updated
    _, trace = run_with_trace(get_problem("quad_hilbert(8)"))
    assert any(rec.case_tag is CaseTag.RQN for rec in trace)
    for rec in trace:
        if rec.case_tag is CaseTag.RQN:
            np.testing.assert_array_equal(rec.bhat, rec.bhat.T)
            np.linalg.cholesky(rec.bhat)  # raises unless positive definite
        else:
            assert rec.bhat is None


def test_trace_hook_receives_protocol_fields():
    seen = []
    run(sphere(5), trace_hook=seen.append)
    assert seen
    rec = seen[0]
    for field in ("k", "case_tag", "alpha", "gnorm_inf", "Ck", "state", "mu"):
        assert hasattr(rec, field)


def test_early_stop_reports_trial_point_values():
    # the sphere run terminates through the trial-point gradient check
    rep, trace = run_with_trace(sphere(10))
    assert trace[-1].early_converged
    assert rep.status is Status.CONVERGED
    assert rep.f == pytest.approx(0.0, abs=1e-16)


def test_runs_are_deterministic():
    rep1, tr1 = run_with_trace(ext_rosenbrock(10))
    rep2, tr2 = run_with_trace(ext_rosenbrock(10))
    assert rep1.n_iter == rep2.n_iter
    assert rep1.n_f == rep2.n_f and rep1.n_g == rep2.n_g
    assert np.array_equal(rep1.x, rep2.x)
    assert [r.alpha for r in tr1] == [r.alpha for r in tr2]


def test_numeric_failure_status():
    bad = Problem("nanf", 2, lambda x: math.nan,
                  lambda x: np.full(2, math.nan), np.ones(2))
    rep = run(bad)
    assert rep.status is Status.NUMERIC_FAIL


def test_direction_boundedness_surrogate_on_quadratics():
    # ||d|| <= c2 ||g|| with c2 = max(1, 1 + L/xi1, 20/xi1) on quadratics
    for spec in registry():
        if spec.grad_lipschitz is None:
            continue
        c2 = max(1.0, 1.0 + spec.grad_lipschitz / P.xi1, 20.0 / P.xi1)
        _, trace = run_with_trace(spec.make())
        for rec in trace:
            assert rec.dnorm <= c2 * math.sqrt(rec.gnorm2) + 1e-300, spec.name


def test_accepted_step_lower_bound_on_quadratics():
    # eta * alpha >= ((1 - sigma)/L) |g'd| / ||d||^2 for Wolfe-accepted steps
    from rlsmcg.linesearch import AcceptKind
    for spec in registry():
        if spec.grad_lipschitz is None:
            continue
        L = spec.grad_lipschitz
        _, trace = run_with_trace(spec.make())
        for rec in trace:
            if rec.accepted_by is not AcceptKind.WOLFE or rec.dnorm == 0.0:
                continue
            bound = (1.0 - P.sigma_wolfe) / L * abs(rec.gTd) / rec.dnorm ** 2
            assert rec.eta_bar * rec.alpha >= bound * (1.0 - 1e-10), spec.name


# exact (n_iter, n_f, n_g) of rlsmcg with the RQN phase on and off.  A change
# to the orthogonality monitor that flips a single phase decision moves them.
PINNED_COUNTS = {
    "sphere(10)": ((1, 2, 2), (1, 2, 2)),
    "sphere(100)": ((1, 2, 2), (1, 2, 2)),
    "quad_diag(10)": ((36, 72, 37), (63, 126, 64)),
    "quad_diag(50)": ((156, 312, 157), (156, 312, 157)),
    "quad_diag(200)": ((325, 650, 326), (325, 650, 326)),
    "quad_hilbert(6)": ((12, 24, 13), (31, 62, 32)),
    "quad_hilbert(8)": ((15, 30, 16), (57, 114, 58)),
    # RQN: 19 gradients at all 24 ulp starts, but a last-bit change in Z can
    # move its end by an iteration; on failure compare decisions first
    "quad_hilbert(12)": ((18, 36, 19), (57, 114, 58)),
    "palmer_poly(8)": ((25, 51, 26), (616, 1233, 617)),
    "ext_rosenbrock(2)": ((28, 69, 32), (28, 69, 32)),
    "ext_rosenbrock(10)": ((33, 68, 37), (32, 80, 37)),
    "ext_rosenbrock(100)": ((30, 63, 36), (30, 63, 35)),
    "ext_rosenbrock(1000)": ((30, 63, 36), (29, 62, 36)),
    "powell_singular(4)": ((211, 422, 212), (211, 422, 212)),
    "powell_singular(40)": ((31, 62, 32), (229, 458, 230)),
    "powell_singular(100)": ((31, 62, 32), (267, 534, 268)),
    "trigonometric(10)": ((34, 72, 35), (34, 72, 35)),
    "trigonometric(100)": ((50, 109, 51), (50, 109, 51)),
    "broyden_tridiag(10)": ((26, 52, 27), (26, 52, 27)),
    "broyden_tridiag(100)": ((30, 60, 31), (30, 60, 31)),
    "broyden_tridiag(1000)": ((32, 64, 33), (32, 64, 33)),
}


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(rqn, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(rqn, name, counted)
    return calls


def test_gram_screen_spares_the_qr_on_quad_diag_200(monkeypatch):
    # without the screen, the monitor runs one QR per full-memory SMCG
    # iteration: 315 here
    calls = _count_calls(monkeypatch, "qr_update", "orthogonality_lost",
                         "orthogonality_kept")
    report, trace = run_with_trace(get_problem("quad_diag(200)"))
    assert report.n_g == PINNED_COUNTS["quad_diag(200)"][0][2]
    assert calls["orthogonality_kept"] == 315
    assert calls["qr_update"] <= 5 and calls["orthogonality_lost"] <= 5
    assert sum(rec.orth_lost_flag is False for rec in trace) == 315


def test_exact_predicate_runs_when_the_memory_spans_rn(monkeypatch):
    # palmer_poly(8): memory_m = n = 8, so no screen runs and every
    # full-memory SMCG iteration takes the QR and the exact predicate
    calls = _count_calls(monkeypatch, "orthogonality_lost", "orthogonality_kept")
    _, trace = run_with_trace(get_problem("palmer_poly(8)"))
    monitored = [rec for rec in trace
                 if rec.state_before is IterType.SMCG and rec.k + 1 >= 8]
    assert calls == {"orthogonality_lost": len(monitored), "orthogonality_kept": 0}
    assert all(rec.orth_lost_flag is not None for rec in monitored)


def test_the_monitor_factors_each_memory_once_on_palmer_poly_8(monkeypatch):
    # the entry test's basis and the phase's core come from one first QR
    # round: 9 LAPACK QRs, each inside one of 7 calls of rqn.qr_update,
    # where a second factorization of the same memory for the core took 16
    counts = {"qr": 0, "outside": 0}
    depth = [0]
    qr, qr_update = np.linalg.qr, rqn.qr_update

    def counted_qr(*args, **kwargs):
        counts["qr"] += 1
        counts["outside"] += depth[0] == 0
        return qr(*args, **kwargs)

    def inside_qr_update(*args):
        depth[0] += 1
        try:
            return qr_update(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(rqn, "qr_update", inside_qr_update)
    report = run(get_problem("palmer_poly(8)"))
    assert (report.n_iter, report.n_f, report.n_g) == PINNED_COUNTS["palmer_poly(8)"][0]
    assert counts == {"qr": 9, "outside": 0}


@pytest.mark.parametrize("rqn_enabled", [True, False], ids=["rqn", "norqn"])
@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_rlsmcg_counts_are_pinned(name, rqn_enabled):
    rep = run(get_problem(name), rqn_enabled=rqn_enabled)
    assert rep.status is Status.CONVERGED
    expected = PINNED_COUNTS[name][0 if rqn_enabled else 1]
    assert (rep.n_iter, rep.n_f, rep.n_g) == expected


# --- the fused acceptance check ---------------------------------------------------

def _state_after_steps(n_steps=3):
    prob = ext_rosenbrock(10)
    params = P.resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = Rlsmcg()
    for _ in range(n_steps):
        assert policy_step(policy, state, cp, params, traced=False)[0] is None
    return state


def _snapshot(state):
    return (state.k, state.x.tobytes(), state.f, state.g.tobytes(),
            state.gnorm_inf, state.ledger, state.s_prev.tobytes(),
            state.y_prev.tobytes(), state.d_prev.tobytes(), state.slope_fit)


@pytest.mark.parametrize("bad", ["f_nan", "g_nan", "g_pinf", "g_ninf"])
def test_accept_rejects_a_non_finite_trial_and_leaves_state_untouched(bad):
    from rlsmcg.core import norm_inf
    from rlsmcg.solver import accept
    from rlsmcg.smcg_direction import neg_grad_record
    state = _state_after_steps()
    before = _snapshot(state)
    x_next = state.x - 1e-3 * state.g
    f_next, g_next = state.f - 1.0, state.g.copy()
    if bad == "f_nan":
        f_next = math.nan
    else:
        g_next[3] = {"g_nan": math.nan, "g_pinf": math.inf,
                     "g_ninf": -math.inf}[bad]
    status = accept(state, neg_grad_record(state.g).d, x_next, f_next, g_next,
                    norm_inf(g_next))
    assert status is Status.NUMERIC_FAIL
    assert _snapshot(state) == before


def test_accept_advances_the_gradient_max_norm_with_the_gradient():
    state = _state_after_steps()
    assert state.gnorm_inf == float(np.max(np.abs(state.g)))


@pytest.mark.parametrize("solver", sorted(_RESCUE_POLICIES))
def test_accept_sets_the_slope_gate_from_the_step_just_taken(solver):
    # the shared iteration, not the policy, decides once per step whether f
    # moved at rounding level; on this instance some steps open the gate
    from rlsmcg.linesearch import f_at_rounding_level
    from rlsmcg.problems import dense_quadratic
    prob = dense_quadratic(20, 0)
    params = P.resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = _RESCUE_POLICIES[solver]()
    opened = 0
    while state.gnorm_inf > params.grad_tol:
        f_before = state.f
        assert policy_step(policy, state, cp, params, traced=False)[0] is None
        assert state.slope_fit == f_at_rounding_level(f_before, state.f)
        opened += state.slope_fit
    assert opened > 0


def test_policy_memory_holds_the_last_directions_taken():
    # the driver keeps one direction; rlsmcg's memory of the last memory_m
    # is its own, and holds the very arrays the driver took, newest first
    prob = ext_rosenbrock(10)
    params = SolverParams(memory_m=3).resolve(prob.dim)
    cp = CountingProblem(prob)
    state = initial_state(cp)
    policy = Rlsmcg()
    taken = []
    for _ in range(5):
        assert policy_step(policy, state, cp, params)[0] is None
        taken.insert(0, state.d_prev)
        assert [id(d) for d in policy.memory] == [id(d) for d in taken[:3]]


@pytest.mark.parametrize("name", ["ext_rosenbrock(10)", "quad_hilbert(8)",
                                  "quad_diag(200)"])
def test_final_gnorm_is_the_max_norm_of_the_gradient_at_x(name):
    from rlsmcg.baselines import BaselineKind, BaselineTag, run_baseline
    prob = get_problem(name)
    for report in (run(prob),
                   run_baseline(BaselineKind(BaselineTag.HS_CG), prob)):
        assert report.status is Status.CONVERGED
        g = prob.eval_g(report.x)
        assert report.final_gnorm_inf == float(np.max(np.abs(g)))


# --- products and checks the iteration shares --------------------------------------

def test_smcg_direction_gets_the_products_of_its_own_iterate(monkeypatch):
    # the policy hands smcg_direction the g'g, g's and s'y it took at the
    # same iterate, so the direction is the one from the vectors themselves
    from rlsmcg import smcg_direction as smcg
    from rlsmcg.core import dot
    real, tags = smcg.smcg_direction, set()

    def checked(state, params, t_k, quad_like, shared):
        g, s, y = state.g, state.s_prev, state.y_prev
        own = shared if s is None else (dot(g, g), dot(g, s), dot(s, y))
        assert shared == own
        rec = real(state, params, t_k, quad_like, shared)
        ref = real(state, params, t_k, quad_like, own)
        assert rec.case_tag is ref.case_tag and rec.d.tobytes() == ref.d.tobytes()
        tags.add(rec.case_tag)
        return rec

    monkeypatch.setattr(smcg, "smcg_direction", checked)
    for name in ("ext_rosenbrock(10)", "quad_hilbert(8)", "trigonometric(10)"):
        assert run(get_problem(name)).status is Status.CONVERGED
    assert {CaseTag.REG_SUBPROBLEM, CaseTag.QUAD_SUBPROBLEM,
            CaseTag.NEG_GRAD} <= tags


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
@pytest.mark.parametrize("d", [[math.inf, -1.0], [-math.inf, -1.0],
                               [math.nan, -1.0], [0.0, -math.inf]])
def test_a_non_finite_direction_falls_back_to_steepest_descent(monkeypatch, d):
    # g = e1: a bad entry that meets g_i = 0 shows only as g'd = NaN, one
    # along g as g'd = -inf, which passes the margin and fails the finiteness
    from rlsmcg import smcg_direction as smcg
    from rlsmcg.core import DirectionRecord, SolverState, dot
    g, d = np.array([0.0, 1.0]), np.array(d)
    monkeypatch.setattr(smcg, "smcg_direction", lambda *args: DirectionRecord(
        d=d, case_tag=CaseTag.HS, gTd=dot(g, d)))
    state = SolverState(k=1, x=np.zeros(2), f=1.0, g=g, s_prev=np.ones(2),
                        y_prev=np.ones(2), d_prev=-g)
    rec = Rlsmcg().direction(state, P.resolve(2))
    assert rec.case_tag is CaseTag.NEG_GRAD
    np.testing.assert_array_equal(rec.d, -g)


def test_descent_margin_and_gradient_norms_are_taken_once(monkeypatch):
    # one descent margin per run; one max-norm per taken step (land's, which
    # accept reuses), plus the start's and one per accepted acceleration
    from rlsmcg import smcg_direction as smcg
    from rlsmcg import solver
    calls = {"margin": 0, "norm": 0}
    margin, norm = smcg.sufficient_descent_coefficient, solver.norm_inf

    def counted_margin(params):
        calls["margin"] += 1
        return margin(params)

    def counted_norm(v):
        calls["norm"] += 1
        return norm(v)

    monkeypatch.setattr(smcg, "sufficient_descent_coefficient", counted_margin)
    monkeypatch.setattr(solver, "norm_inf", counted_norm)
    for name in ("ext_rosenbrock(10)", "quad_hilbert(8)"):
        calls.update(margin=0, norm=0)
        report, trace = run_with_trace(get_problem(name))
        accels = sum(rec.accel_accepted for rec in trace)
        assert calls == {"margin": 1, "norm": 1 + report.n_iter + accels}


@pytest.mark.parametrize("n, seed", [(100, 2), (200, 2), (300, 1)])
@pytest.mark.parametrize("solver", ["rlsmcg", "hs"])
def test_dense_quadratics_finish_once_steps_are_fitted_to_slopes(solver, n, seed):
    # near the end of these solves each step moves f by a few ulps of f, a
    # value fit through phi(1) misses the line minimizer, and the search
    # stopped with linesearch_fail short of the tolerance; fitted to slopes,
    # the trial steps stay exact and the solves converge
    from rlsmcg.bench import SOLVERS
    from rlsmcg.problems import dense_quadratic
    report = SOLVERS[solver](dense_quadratic(n, seed))
    assert report.status is Status.CONVERGED
