"""Driver: one iteration loop for all five solvers, and the rlsmcg iteration.

``minimize`` runs the loop, its termination tests and the trace hook.  Every
iteration searches through ``search`` (nonmonotone Wolfe, two-strike rescue)
and moves through ``accept``.  The rlsmcg iteration, ``step``, adds restarts,
acceleration and the state-flag transition driven by the orthogonality
predicates; a baseline supplies a direction policy to ``policy_step``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import smcg_direction as smcg
from . import subspace_rqn as rqn
from .acceleration import TrialPoint, accel_criterion, apply_acceleration
from .core import (CaseTag, CountingProblem, DirectionRecord, IterType,
                   NumericError, Problem, RunReport, SolverParams, SolverState,
                   Status, Vector, dot, norm_inf)
from .linesearch import (AcceptKind, LineFunction, NonmonotoneLedger, StepResult,
                         bb_fallback_stepsize, bb_stepsizes, clip_step,
                         initial_stepsize, ledger_update, wolfe_search)


def update_restart_counters(iter_restart: int, iter_quad: int, t_k: float,
                            restarted: bool, params: SolverParams) -> Tuple[int, int]:
    """Iterations since the last restart and the length of the current
    quad-like run, advanced by one step; a forced restart zeroes both."""
    if restarted:
        return 0, 0
    return iter_restart + 1, iter_quad + 1 if t_k <= params.xi4 else 0


@dataclass
class TraceRecord:
    """Everything observable about one iteration, of any solver.

    The defaulted fields are rlsmcg's own; a baseline leaves the defaults."""

    k: int
    case_tag: CaseTag
    alpha: float
    gnorm_inf: float          # of the new gradient
    Ck: float                 # reference value after the update
    state: IterType           # state flag after the transition
    state_before: IterType    # state flag the iteration ran under
    # diagnostics for the property suites
    gTd: float
    gnorm2: float             # ||g_k||^2 at direction time
    dnorm: float
    f: float                  # f_{k+1}
    Ck_before: float
    accepted_by: AcceptKind
    rescued: bool
    failure: Optional[Status]
    mu: float = 0.0
    t_k: float = math.inf
    eta_bar: float = 1.0
    accel_attempted: bool = False
    accel_accepted: bool = False
    entered_rqn: bool = False
    exited_rqn: bool = False
    orth_lost_flag: Optional[bool] = None
    bhat: Optional[np.ndarray] = None  # updated reduced Hessian, RQN steps
    guard_fallback: bool = False
    early_converged: bool = False


TraceHook = Callable[[TraceRecord], None]


def search(state: SolverState, cp: CountingProblem, params: SolverParams,
           record: DirectionRecord, line: LineFunction, alpha0: float,
           rescue_step: Callable[[SolverState, SolverParams], float]
           ) -> Tuple[DirectionRecord, LineFunction, Optional[StepResult], bool]:
    """Nonmonotone Wolfe search along ``record.d`` from ``alpha0``.

    The best point of a search that hit its backtracking cap is accepted
    once; on a second such search in a row, or with no point below C_k, the
    search reruns along -g from ``rescue_step(state, params)``.  Returns the
    direction and line searched last, the result (None if the rescue failed
    too) and whether the rescue ran."""
    result = wolfe_search(line, alpha0, state.ledger, record.gTd, params)
    if result.accepted_by is AcceptKind.WOLFE:
        state.backtrack_strikes = 0
        return record, line, result, False
    state.backtrack_strikes += 1
    if state.backtrack_strikes < 2 and result.alpha is not None:
        return record, line, result, False
    record = smcg.neg_grad_record(state.g)
    line = LineFunction(cp, state.x, record.d, f0=state.f, g0=state.g)
    result = wolfe_search(line, rescue_step(state, params), state.ledger,
                          record.gTd, params)
    if result.accepted_by is not AcceptKind.WOLFE:
        return record, line, None, True
    state.backtrack_strikes = 0
    return record, line, result, True


def accept(state: SolverState, record: DirectionRecord, x_next: Vector,
           f_next: float, g_next: Vector, params: SolverParams) -> Optional[Status]:
    """Move to ``x_next`` after a step along ``record.d``: advance C_k, push
    the direction onto the history (newest first, ``memory_m`` kept) and shift
    (s, y) and the iterate.  Returns NUMERIC_FAIL, with ``state`` untouched,
    when f or g is not finite there, else None.
    """
    if not (math.isfinite(f_next) and bool(np.all(np.isfinite(g_next)))):
        return Status.NUMERIC_FAIL
    state.ledger = ledger_update(state.ledger, f_next)
    state.dir_history.insert(0, record.d)
    del state.dir_history[params.memory_m:]
    state.s_prev = x_next - state.x
    state.y_prev = g_next - state.g
    state.f_prev = state.f
    state.x, state.f, state.g = x_next, f_next, g_next
    state.prev_case = record.case_tag
    state.k += 1
    return None


def _trace(traced: bool, state: SolverState, record: DirectionRecord,
           gnorm2: float, ledger: NonmonotoneLedger, result: Optional[StepResult],
           rescued: bool, state_before: IterType, failure: Optional[Status] = None,
           **rlsmcg_fields) -> Optional[TraceRecord]:
    """The iteration's record when ``traced``, read from ``state`` after the
    step, or as it stayed when the step failed."""
    if not traced:
        return None
    return TraceRecord(
        k=state.k if failure else state.k - 1, case_tag=record.case_tag,
        alpha=math.nan if failure else result.alpha, gnorm_inf=norm_inf(state.g),
        Ck=state.ledger.Ck, state=state.state_flag, state_before=state_before,
        gTd=record.gTd, gnorm2=gnorm2, dnorm=float(np.linalg.norm(record.d)),
        f=state.f, Ck_before=ledger.Ck,
        accepted_by=AcceptKind.MAX_BACKTRACK if failure else result.accepted_by,
        rescued=rescued, failure=failure,
        mu=state.bhat.mu if state.bhat is not None else 0.0, **rlsmcg_fields)


def initial_state(cp: CountingProblem) -> SolverState:
    x0 = cp.problem.x0.copy()
    f0 = cp.f(x0)
    g0 = cp.g(x0)
    return SolverState(k=0, x=x0, f=f0, g=g0, ledger=NonmonotoneLedger.start(f0))


def minimize(problem: Problem, params: Optional[SolverParams],
             iterate: Callable, trace_hook: Optional[TraceHook] = None) -> RunReport:
    """Run ``iterate(state, cp, params, traced)``, one step as ``step`` takes
    it, until the max-norm gradient tolerance, the iteration cap or a failure.
    """
    p = (params if params is not None else SolverParams()).resolve(problem.dim)
    cp = CountingProblem(problem)
    t_start = time.perf_counter()
    state = initial_state(cp)
    finite_start = math.isfinite(state.f) and bool(np.all(np.isfinite(state.g)))
    status = None if finite_start else Status.NUMERIC_FAIL
    traced = trace_hook is not None
    while status is None:
        if norm_inf(state.g) <= p.grad_tol:
            status = Status.CONVERGED
        elif state.k >= p.max_iter:
            status = Status.ITER_CAP
        else:
            try:
                status, rec = iterate(state, cp, p, traced)
            except NumericError:
                status, rec = Status.NUMERIC_FAIL, None
            if rec is not None:
                trace_hook(rec)

    return RunReport(n_iter=state.k, n_f=cp.n_f, n_g=cp.n_g,
                     wall_time=time.perf_counter() - t_start, status=status,
                     final_gnorm_inf=norm_inf(state.g) if finite_start else math.nan,
                     x=state.x, f=state.f)


def policy_step(policy, state: SolverState, cp: CountingProblem,
                params: SolverParams, traced: bool = True
                ) -> Tuple[Optional[Status], Optional[TraceRecord]]:
    """One iteration of a baseline, given by its ``policy``; returns what
    ``step`` returns.  The policy supplies ``direction(state, params)``,
    ``trial_step(line, state, record, params)``, ``rescue_step(state,
    params)`` and ``update(state)``; a non-descent direction becomes -g.
    """
    record = policy.direction(state, params)
    if record.gTd >= 0.0 or not np.all(np.isfinite(record.d)):
        record = smcg.neg_grad_record(state.g)
    ledger = state.ledger
    gnorm2 = dot(state.g, state.g) if traced else math.nan
    line = LineFunction(cp, state.x, record.d, f0=state.f, g0=state.g)
    alpha0 = policy.trial_step(line, state, record, params)
    record, line, result, rescued = search(state, cp, params, record, line,
                                           alpha0, policy.rescue_step)
    status = Status.LINESEARCH_FAIL if result is None else accept(
        state, record, line.point(result.alpha), result.f_trial, result.g_trial,
        params)
    if status is None:
        policy.update(state)
    return status, _trace(traced, state, record, gnorm2, ledger, result,
                          rescued, state.state_flag, status)


def _rescue_stepsize(state: SolverState, params: SolverParams) -> float:
    if state.s_prev is not None and dot(state.s_prev, state.y_prev) > 0.0:
        bb1, _ = bb_stepsizes(state.s_prev, state.y_prev)
        return clip_step(bb1, params)
    gni = norm_inf(state.g)
    return clip_step(1.0 / gni if gni > 0.0 else 1.0, params)


def step(state: SolverState, cp: CountingProblem, params: SolverParams,
         traced: bool = True, *, rqn_enabled: bool = True
         ) -> Tuple[Optional[Status], Optional[TraceRecord]]:
    """One full rlsmcg iteration; mutates ``state``.

    Returns the failure status (None when the step was taken) and, when
    ``traced``, the record.  Raises NumericError only when the reduced
    quasi-Newton solve fails twice."""
    x, f, g = state.x, state.f, state.g
    ledger = state.ledger
    state_before = state.state_flag
    gnorm2 = dot(g, g)
    t_k = smcg.closeness_from_state(state)
    quad_like = smcg.is_quadratic_like(t_k, state.t_prev, params)

    # --- Step 2: direction ---------------------------------------------
    restarted = False
    guard_fallback = False
    if state.state_flag is IterType.RQN:
        record = rqn.rqn_direction(state.subspace, state.bhat, g)
        c1 = smcg.sufficient_descent_coefficient(params)
        if (not np.all(np.isfinite(record.d))) or record.gTd > -c1 * gnorm2:
            # degenerate reduced step: restart with -g and leave the phase
            record = smcg.neg_grad_record(g)
            guard_fallback = True
    elif state.iter_quad == params.min_quad and state.iter_quad != state.iter_restart:
        record = smcg.neg_grad_record(g)
        restarted = True
    else:
        record = smcg.smcg_direction(state, params, t_k)

    # --- Step 3: initial stepsize ---------------------------------------
    line = LineFunction(cp, x, record.d, f0=f, g0=g)
    if record.case_tag is CaseTag.RQN:
        kind = "rqn_identity" if state.bhat.is_identity else "interp"
    elif record.case_tag is CaseTag.NEG_GRAD:
        kind = "neg_grad"
    else:
        kind = "interp"
    # the BB step only where initial_stepsize can use it
    bb = None if kind == "interp" else bb_fallback_stepsize(g, state.s_prev,
                                                             state.y_prev, params)
    prev_was_neg_grad = state.prev_case is None or state.prev_case is CaseTag.NEG_GRAD
    alpha0 = initial_stepsize(line, params, kind=kind, gTd=record.gTd,
                              gnorm2=gnorm2, quad_like=quad_like,
                              bb_fallback=bb, prev_was_neg_grad=prev_was_neg_grad)

    # --- Step 4: line search (plus the rescue path) ----------------------
    record, line, result, rescued = search(state, cp, params, record, line,
                                           alpha0, _rescue_stepsize)
    guard_fallback = guard_fallback or (rescued and state_before is IterType.RQN)
    if result is None:
        return Status.LINESEARCH_FAIL, _trace(
            traced, state, record, gnorm2, ledger, result, rescued, state_before,
            Status.LINESEARCH_FAIL, t_k=t_k)

    alpha = result.alpha
    f_z = result.f_trial
    g_z = result.g_trial
    z = line.point(alpha)

    # --- Step 5: trial-point termination check ---------------------------
    early = norm_inf(g_z) <= params.grad_tol

    # --- Steps 6/7: acceleration or plain update -------------------------
    trial = TrialPoint(z=z, f_z=f_z, g_z=g_z, alpha=alpha, d=record.d)
    x_next, f_next, g_next = z, f_z, g_z
    accel = None
    if not early and accel_criterion(f, gnorm2, record.gTd, trial, params):
        accel = apply_acceleration(cp, x, record.gTd, trial, ledger, params)
        x_next, f_next, g_next = accel.x_next, accel.f_next, accel.g_next

    # --- Steps 9/11: reference update, direction history and shift --------
    failure = accept(state, record, x_next, f_next, g_next, params)
    if failure is not None:
        return failure, _trace(traced, state, record, gnorm2, ledger, result,
                               rescued, state_before, failure, t_k=t_k)

    # --- Step 8: restart counters ----------------------------------------
    state.iter_restart, state.iter_quad = update_restart_counters(
        state.iter_restart, state.iter_quad, t_k, restarted, params)
    state.t_prev = t_k

    # --- Step 10: state transition ----------------------------------------
    entered = False
    exited = False
    orth_lost_flag = None
    bhat = None
    if state_before is IterType.SMCG:
        if len(state.dir_history) == params.memory_m:
            Z = rqn.qr_update(state.dir_history)
            if Z is not None:
                orth_lost_flag = rqn.orthogonality_lost(Z, g_next, params)
                if orth_lost_flag and rqn_enabled:
                    # the phase is judged on the well-conditioned core of the
                    # span: entered only when the core is a proper subspace
                    # (else the exit predicate could never hold), left once
                    # the gradient points out of it
                    core = rqn.qr_update(state.dir_history, rqn.ENTRY_RANK_TOL)
                    if core is not None and core.shape[1] < cp.dim:
                        # the model lives on the core, unless the memory spans
                        # R^n and f is locally quadratic.  Then the model takes
                        # all of R^n: the core's complement holds the weak
                        # modes the stall neglects, and with the exact line
                        # minimizers that interpolation gives on a quadratic,
                        # BFGS iterates do not depend on the scale of the
                        # identity it starts from there.  Off that regime the
                        # scale matters, so the phase keeps to the core.
                        basis = core
                        if params.memory_m >= cp.dim and quad_like:
                            basis = np.eye(cp.dim)
                        state.state_flag = IterType.RQN
                        state.subspace = basis
                        state.core = core
                        state.bhat = rqn.SubspaceHessian.identity(
                            basis.shape[1], params.mu_min)
                        entered = True
    else:
        if record.case_tag is CaseTag.RQN:
            Z = state.subspace
            s_hat = Z.T @ state.s_prev
            y_hat = Z.T @ state.y_prev
            d_hat = Z.T @ record.d
            r = rqn.ratio(f, f_z, alpha, Z.T @ g, d_hat, state.bhat.B_hat)
            if r is None and f_z < f:
                # the model rose past alpha = 2 where f fell: it overstated
                # the curvature along d, so the step beat it (ratio +inf)
                r = math.inf
            mu_new = rqn.update_mu(state.bhat.mu, r,
                                   dot(state.s_prev, state.s_prev), params)
            state.rqn_phase_iter += 1
            state.bhat = rqn.rbfgs_update(replace(state.bhat, mu=mu_new),
                                          s_hat, y_hat, state.rqn_phase_iter, params)
            bhat = state.bhat.B_hat
            # exit once the gradient is mostly orthogonal to the frozen core
            if rqn.orthogonality_restored(state.core, g_next, params):
                exited = True
        else:
            # guard or rescue replaced the reduced step: abandon the phase
            exited = True
        if exited:
            state.state_flag = IterType.SMCG
            state.subspace = None
            state.core = None
            state.bhat = None
            state.rqn_phase_iter = 0

    return None, _trace(
        traced, state, record, gnorm2, ledger, result, rescued, state_before, t_k=t_k,
        eta_bar=accel.eta_bar if accel else 1.0, accel_attempted=accel is not None,
        accel_accepted=accel is not None and accel.accepted, entered_rqn=entered,
        exited_rqn=exited, orth_lost_flag=orth_lost_flag, bhat=bhat,
        guard_fallback=guard_fallback, early_converged=early)


def run(problem: Problem, params: Optional[SolverParams] = None, *,
        rqn_enabled: bool = True, trace_hook: Optional[TraceHook] = None
        ) -> RunReport:
    """Minimize ``problem`` to the max-norm gradient tolerance.

    ``rqn_enabled=False`` is the ablation switch: the orthogonality predicate
    is still evaluated and traced, but the quasi-Newton phase is never
    entered.
    """
    iterate = partial(step, rqn_enabled=rqn_enabled)
    return minimize(problem, params, iterate, trace_hook)


def run_with_trace(problem: Problem, params: Optional[SolverParams] = None, *,
                   rqn_enabled: bool = True
                   ) -> Tuple[RunReport, List[TraceRecord]]:
    """run() plus the full list of per-iteration trace records; an RQN-case
    record carries the reduced Hessian the step updated in ``bhat``."""
    records: List[TraceRecord] = []
    report = run(problem, params, rqn_enabled=rqn_enabled,
                 trace_hook=records.append)
    return report, records
