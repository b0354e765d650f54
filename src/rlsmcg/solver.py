"""Driver: one iteration loop for every solver, and the rlsmcg policy.

``minimize`` runs the loop, its termination tests and the trace hook; every
iteration is one ``policy_step``: the policy's direction, the nonmonotone
Wolfe search with its two-strike -g rescue, which starts from the BB fallback
step for every solver, the policy's landing point, the move through
``accept`` and the policy's update.  A baseline is a direction policy
(``baselines._Policy``).  ``Rlsmcg`` is the paper's method: its
trial-step rule, restarts, acceleration, and the subspace quasi-Newton phase
that the orthogonality predicates open and close, held as one ``Phase`` value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import smcg_direction as smcg
from . import subspace_rqn as rqn
from .acceleration import TrialPoint, accel_criterion, apply_acceleration
from .core import (CaseTag, CountingProblem, DirectionRecord, IterType,
                   Problem, RunReport, SolverParams, SolverState, Status,
                   Vector, dot, norm_inf)
from .linesearch import (AcceptKind, LineFunction, NonmonotoneLedger, StepResult,
                         bb_fallback_stepsize, f_at_rounding_level,
                         initial_stepsize, interp_step, ledger_update,
                         wolfe_search)


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

    The defaulted fields are the policy's ``trace_fields``; a baseline's
    are the defaults (an SMCG state flag, no RQN phase)."""

    k: int
    case_tag: CaseTag
    alpha: float
    gnorm_inf: float          # of the new gradient
    Ck: float                 # reference value after the update
    # diagnostics for the property suites
    gTd: float
    gnorm2: float             # ||g_k||^2 at direction time
    dnorm: float
    f: float                  # f_{k+1}
    Ck_before: float
    accepted_by: AcceptKind
    rescued: bool
    failure: Optional[Status]
    state: IterType = IterType.SMCG         # state flag after the transition
    state_before: IterType = IterType.SMCG  # state flag the iteration ran under
    mu: float = 0.0
    t_k: float = math.inf
    eta_bar: float = 1.0
    accel_attempted: bool = False
    accel_accepted: bool = False
    entered_rqn: bool = False
    exited_rqn: bool = False
    # the entry test on a full SMCG memory; a False may be the Gram
    # screen's proof (subspace_rqn.orthogonality_kept), not the QR's answer
    orth_lost_flag: Optional[bool] = None
    bhat: Optional[np.ndarray] = None  # updated reduced Hessian, RQN steps
    guard_fallback: bool = False
    early_converged: bool = False


TraceHook = Callable[[TraceRecord], None]


def accept(state: SolverState, d: Vector, x_next: Vector, f_next: float,
           g_next: Vector, gnorm_inf: float) -> Optional[Status]:
    """Move to ``x_next`` after a step along ``d``: advance C_k, keep the
    direction as ``d_prev`` and shift (s, y), the iterate and its gradient
    max-norm ``gnorm_inf``, which is ``norm_inf(g_next)``, and set
    ``slope_fit`` when the step moved f at rounding level.  Returns
    NUMERIC_FAIL, with ``state`` untouched, when f or g is not finite there
    (g is not exactly when its max-norm is not), else None.
    """
    if not (math.isfinite(f_next) and math.isfinite(gnorm_inf)):
        return Status.NUMERIC_FAIL
    state.ledger = ledger_update(state.ledger, f_next)
    state.slope_fit = f_at_rounding_level(state.f, f_next)
    state.d_prev = d
    state.s_prev = x_next - state.x
    state.y_prev = g_next - state.g
    state.x, state.f, state.g, state.gnorm_inf = x_next, f_next, g_next, gnorm_inf
    state.k += 1
    return None


def initial_state(cp: CountingProblem) -> SolverState:
    x0 = cp.problem.x0.copy()
    f0 = cp.f(x0)
    g0 = cp.g(x0)
    return SolverState(k=0, x=x0, f=f0, g=g0, gnorm_inf=norm_inf(g0),
                       ledger=NonmonotoneLedger.start(f0))


def minimize(problem: Problem, params: Optional[SolverParams], policy,
             trace_hook: Optional[TraceHook] = None) -> RunReport:
    """Run ``policy_step`` with a fresh ``policy`` until the max-norm
    gradient tolerance, the iteration cap or a failure."""
    p = (params if params is not None else SolverParams()).resolve(problem.dim)
    cp = CountingProblem(problem)
    t_start = time.perf_counter()
    state = initial_state(cp)
    finite_start = math.isfinite(state.f) and math.isfinite(state.gnorm_inf)
    status = None if finite_start else Status.NUMERIC_FAIL
    traced = trace_hook is not None
    grad_tol, max_iter = p.grad_tol, p.max_iter
    while status is None:
        if state.gnorm_inf <= grad_tol:
            status = Status.CONVERGED
        elif state.k >= max_iter:
            status = Status.ITER_CAP
        else:
            status, rec = policy_step(policy, state, cp, p, traced)
            if rec is not None:
                trace_hook(rec)

    return RunReport(n_iter=state.k, n_f=cp.n_f, n_g=cp.n_g,
                     wall_time=time.perf_counter() - t_start, status=status,
                     final_gnorm_inf=state.gnorm_inf if finite_start else math.nan,
                     x=state.x, f=state.f)


def policy_step(policy, state: SolverState, cp: CountingProblem,
                params: SolverParams, traced: bool = True
                ) -> Tuple[Optional[Status], Optional[TraceRecord]]:
    """One iteration of the solver given by ``policy``; mutates ``state``.

    The policy supplies the ``direction``, replaced by -g unless its g'd is
    finite and negative, the search's ``trial_step``, the point to ``land``
    on from the search's step on its line (x, f, g and the max-norm of g),
    the ``update`` after a step is taken, and for a traced step the record
    fields it owns (``trace_fields`` of the direction taken).  A search that
    hit its backtracking cap is taken once; a second one in a row, or one
    with no point below C_k, reruns along -g from ``bb_fallback_stepsize``,
    whatever the policy.  Where -g is needed but its g'd = -g'g is not
    negative, as when g'g underflows to zero, float64 cannot certify descent
    along it and the step fails with NUMERIC_FAIL.
    Returns the failure status (None when the step was taken) and, when
    ``traced``, the record.
    """
    status, result, rescued = None, None, False
    record = policy.direction(state, params)
    if not -math.inf < record.gTd < 0.0:
        record = smcg.neg_grad_record(state.g)
        if not record.gTd < 0.0:
            status = Status.NUMERIC_FAIL
    ledger = state.ledger
    gnorm2 = dot(state.g, state.g) if traced else math.nan
    if status is None:
        line = LineFunction(cp, state.x, record.d, f0=state.f, g0=state.g)
        alpha0 = policy.trial_step(line, state, record, params)
        result = wolfe_search(line, alpha0, ledger, record.gTd, params)
        wolfe = result.accepted_by is AcceptKind.WOLFE
        state.backtrack_strikes = 0 if wolfe else state.backtrack_strikes + 1
        rescued = state.backtrack_strikes >= 2 or result.alpha is None
    if rescued:
        record, result = smcg.neg_grad_record(state.g), None
        if not record.gTd < 0.0:
            status = Status.NUMERIC_FAIL
        else:
            line = LineFunction(cp, state.x, record.d, f0=state.f, g0=state.g)
            alpha0 = bb_fallback_stepsize(state.g, state.s_prev, state.y_prev,
                                          params)
            result = wolfe_search(line, alpha0, ledger, record.gTd, params)
            if result.accepted_by is AcceptKind.WOLFE:
                state.backtrack_strikes = 0
            else:
                result = None
    if status is None:
        status = Status.LINESEARCH_FAIL if result is None else accept(
            state, record.d, *policy.land(state, record, line, result, params))
    if status is None:
        policy.update(state, record, line, result, params)
    if not traced:
        return status, None
    return status, TraceRecord(
        k=state.k if status else state.k - 1, case_tag=record.case_tag,
        alpha=math.nan if status else result.alpha, gnorm_inf=state.gnorm_inf,
        Ck=state.ledger.Ck, gTd=record.gTd, gnorm2=gnorm2,
        dnorm=float(np.linalg.norm(record.d)), f=state.f, Ck_before=ledger.Ck,
        accepted_by=AcceptKind.MAX_BACKTRACK if status else result.accepted_by,
        rescued=rescued, failure=status, **policy.trace_fields(record))


@dataclass(frozen=True)
class Phase:
    """An open RQN phase: the reduced model ``bhat`` lives in the orthonormal
    ``basis``, or on all of R^n when ``basis`` is None (the whole-space
    phase, which multiplies by no basis), and the phase is left once the
    gradient points out of ``core``, the well-conditioned part of the
    memory's span at entry.  ``iters`` counts the RQN iterations taken."""

    basis: Optional[np.ndarray]
    core: np.ndarray
    bhat: rqn.SubspaceHessian
    iters: int = 0


class Rlsmcg:
    """The rlsmcg iteration as ``policy_step`` runs it (see ``run``)."""

    def __init__(self, rqn_enabled: bool = True):
        self.rqn_enabled = rqn_enabled
        # quadratic closeness at the current iterate (inf = no usable
        # sample yet) and the quadratic-like test on it and the one before
        self.t_k, self.quad_like = math.inf, False
        self.iter_restart = self.iter_quad = 0
        self.prev_case: Optional[CaseTag] = None
        self.phase: Optional[Phase] = None
        # the last memory_m directions, newest first, and, for the monitor's
        # screen, their unit rows and Gram matrix (none when memory_m >= n:
        # a memory that may span R^n, where the screen can never certify)
        self.memory: List[Vector] = []
        self.gram: Optional[rqn.GramRing] = None
        # g'g, g's and s'y of the current iterate, taken by ``update`` (g'g
        # of the start by the first ``direction``; g is finite, so g'g is
        # never NaN) for the monitor and the closeness test: the direction
        # at that iterate shares them
        self.gnorm2 = self.gTs = self.sTy = math.nan
        # d'd of the step's direction, taken by ``land`` for the acceleration
        # gate and pushed with d into the screen's ring by ``update``
        self.dTd = math.nan
        self.descent_margin: Optional[float] = None
        # the phase the step's direction ran under, and its record fields
        self.phase_seen: Optional[Phase] = None
        self.step_fields: dict = {}

    def _restart_due(self, params: SolverParams) -> bool:
        return self.iter_quad == params.min_quad != self.iter_restart

    def direction(self, state: SolverState, params: SolverParams) -> DirectionRecord:
        g = state.g
        if math.isnan(self.gnorm2):  # the start: no update has taken it
            self.gnorm2 = dot(g, g)
        self.phase_seen = self.phase
        self.step_fields = {"t_k": self.t_k}
        if self.phase is not None:
            record = rqn.rqn_direction(self.phase.basis, self.phase.bhat, g)
        elif self._restart_due(params):
            return smcg.neg_grad_record(g)
        else:
            record = smcg.smcg_direction(state, params, self.t_k, self.quad_like,
                                         (self.gnorm2, self.gTs, self.sTy))
        # floating-point backstop for the sufficient-descent guarantee of
        # every branch; -g always meets it, and in a phase it closes the
        # phase.  Every branch's g'd is the product g.d with g finite, so a d
        # that is not finite gives a g'd that is not finite either.
        if self.descent_margin is None:
            self.descent_margin = smcg.sufficient_descent_coefficient(params)
        if (math.isfinite(record.gTd)
                and record.gTd <= -self.descent_margin * self.gnorm2):
            return record
        return smcg.neg_grad_record(g)

    def trace_fields(self, record: DirectionRecord) -> dict:
        """The step's own record fields, and its state flags, shift and phase
        moves, from the phase ``direction`` saw to the one the step left."""
        before, after = self.phase_seen, self.phase
        return dict(
            self.step_fields,
            state_before=IterType.SMCG if before is None else IterType.RQN,
            state=IterType.SMCG if after is None else IterType.RQN,
            mu=0.0 if after is None else after.bhat.mu,
            entered_rqn=before is None and after is not None,
            exited_rqn=before is not None and after is None,
            # the guard or the rescue replaced the reduced step of an open phase
            guard_fallback=before is not None and record.case_tag is not CaseTag.RQN)

    def trial_step(self, line: LineFunction, state: SolverState,
                   record: DirectionRecord, params: SolverParams) -> float:
        """The initial step of the search, chosen per direction type.

        -g interpolates through phi at the BB step when f is quadratic-like,
        ||g|| <= 1 and the step before was no -g, else takes the BB step.
        Every other direction interpolates through phi(1) (``initial_stepsize``)
        with a unit fallback, or the BB step while the reduced Hessian of an
        RQN step is still the identity.  Once the last step moved f at
        rounding level (``f_at_rounding_level``), phi(1) - phi(0) is mostly
        rounding; such a direction then evaluates g at 1 instead and takes
        the secant step on the slopes, and the value rules only when the
        slopes have no convex fit.
        """
        if record.case_tag is CaseTag.NEG_GRAD:
            step = bb_fallback_stepsize(state.g, state.s_prev, state.y_prev, params)
            if (self.quad_like and self.gnorm2 <= 1.0
                    and self.prev_case not in (None, CaseTag.NEG_GRAD)):
                return interp_step(line, step, record.gTd, params) or step
            return step
        step = initial_stepsize(line, record.gTd, params,
                                quad_like=self.quad_like, slope_fit=state.slope_fit)
        if step is not None:
            return step
        if record.case_tag is CaseTag.RQN and self.phase.bhat.is_identity:
            return bb_fallback_stepsize(state.g, state.s_prev, state.y_prev, params)
        return 1.0

    def land(self, state: SolverState, record: DirectionRecord,
             line: LineFunction, result: StepResult, params: SolverParams):
        """The trial point, or its secant rescale when the acceleration gate
        opens before the trial point has converged."""
        a = result.alpha
        z, f_z, g_z = line.point(a), line.value(a), line.gradient(a)
        gnorm_z = norm_inf(g_z)
        early = gnorm_z <= params.grad_tol
        self.step_fields["early_converged"] = early
        self.dTd = dot(record.d, record.d)
        if early or not accel_criterion(state.f, self.gnorm2, record.gTd, a, f_z,
                                        line.slope(a), self.dTd, params):
            return z, f_z, g_z, gnorm_z
        trial = TrialPoint(z=z, f_z=f_z, g_z=g_z, alpha=a, d=record.d)
        accel = apply_acceleration(line.problem, state.x, record.gTd, trial,
                                   state.ledger, params)
        self.step_fields.update(eta_bar=accel.eta_bar, accel_attempted=True,
                                accel_accepted=accel.accepted)
        # a rejected rescale hands back the trial point itself
        gnorm = norm_inf(accel.g_next) if accel.accepted else gnorm_z
        return accel.x_next, accel.f_next, accel.g_next, gnorm

    def update(self, state: SolverState, record: DirectionRecord,
               line: LineFunction, result: StepResult, params: SolverParams):
        """Advance the counters and the direction memory, open, advance or
        close the phase, and take the closeness of the new iterate."""
        self.iter_restart, self.iter_quad = update_restart_counters(
            self.iter_restart, self.iter_quad, self.t_k, self._restart_due(params),
            params)
        self.prev_case = record.case_tag
        memory, m, n = self.memory, params.memory_m, state.x.size
        memory.insert(0, record.d)
        del memory[m:]
        if m < n:
            if self.gram is None:
                self.gram = rqn.GramRing.empty(m, n)
            self.gram.push(record.d, self.dTd)
        self.gnorm2 = dot(state.g, state.g)
        if self.phase is None:
            self._monitor(state, params)
        elif record.case_tag is CaseTag.RQN:
            self._advance(state, record, line, result, params)
        else:
            self.phase = None  # guard or rescue replaced the reduced step
        s = state.s_prev
        self.gTs, self.sTy = dot(state.g, s), dot(s, state.y_prev)
        f_prev = line.value(0.0)  # line's phi(0) is the pre-step f
        t_next = smcg.quadratic_closeness(f_prev, state.f, self.gTs, self.sTy)
        self.quad_like = smcg.is_quadratic_like(t_next, self.t_k, params)
        self.t_k = t_next

    def _monitor(self, state: SolverState, params: SolverParams) -> None:
        """With a full memory, test whether g lost orthogonality to its span,
        and if so open a phase."""
        if len(self.memory) < params.memory_m:
            return
        # the Gram screen answers "not lost" where it can prove it; the QR
        # and the exact predicate answer everything else
        g, gTg = state.g, self.gnorm2
        if self.gram is not None and rqn.orthogonality_kept(
                self.gram, g, gTg, params):
            self.step_fields["orth_lost_flag"] = False
            return
        # the phase is judged on the well-conditioned core of the span:
        # entered only when the core is a proper subspace (else the exit
        # predicate could never hold), left once the gradient points out of
        # it.  The QR that gives the test's basis gives the core.
        Z, core = rqn.qr_update(self.memory, rqn.ENTRY_RANK_TOL)
        if Z is None:
            return
        lost = rqn.orthogonality_lost(Z, g, gTg, params)
        self.step_fields["orth_lost_flag"] = lost
        if not (lost and self.rqn_enabled):
            return
        n = state.x.size
        if core.shape[1] >= n:
            return
        # the model lives on the core, unless the memory spans R^n and f is
        # locally quadratic.  Then the model takes all of R^n: the core's
        # complement holds the weak modes the stall neglects.  Off that
        # regime the phase keeps to the core.  Either model opens at the
        # curvature the last step measured, gamma*I with gamma = s'y/s's:
        # with exact line minimizers on a quadratic, BFGS iterates would not
        # depend on that scale, but in floating point they do (on
        # palmer_poly(8) the unit start costs 45 gradients, gamma*I 26).
        whole = params.memory_m >= n and self.quad_like
        self.phase = Phase(None if whole else core, core,
                           rqn.SubspaceHessian.identity(
                               n if whole else core.shape[1], params.mu_min,
                               rqn.curvature_scale(state.s_prev, state.y_prev)))

    def _advance(self, state: SolverState, record: DirectionRecord,
                 line: LineFunction, result: StepResult, params: SolverParams):
        """One regularized BFGS update after an RQN step; the phase closes
        once the gradient is mostly orthogonal to the frozen core."""
        phase = self.phase
        Z, bhat = phase.basis, phase.bhat
        s, y, d = state.s_prev, state.y_prev, record.d
        if Z is not None:  # else the model is on all of R^n: Z = I
            s, y, d = Z.T @ s, Z.T @ y, Z.T @ d
        # line's phi(0) is the pre-step f, and the record holds Z'g there
        r = rqn.ratio(line.value(0.0), line.value(result.alpha), result.alpha,
                      record.g_hat, d, bhat.B_hat)
        mu = rqn.update_mu(bhat.mu, r, dot(state.s_prev, state.s_prev), params)
        iters = phase.iters + 1
        bhat = rqn.rbfgs_update(bhat, s, y, iters, mu, params)
        self.step_fields["bhat"] = bhat.B_hat
        if rqn.orthogonality_restored(phase.core, state.g, self.gnorm2, params):
            self.phase = None
        else:
            self.phase = Phase(Z, phase.core, bhat, iters)


def run(problem: Problem, params: Optional[SolverParams] = None, *,
        rqn_enabled: bool = True, trace_hook: Optional[TraceHook] = None
        ) -> RunReport:
    """Minimize ``problem`` to the max-norm gradient tolerance.

    ``rqn_enabled=False`` is the ablation switch: the orthogonality predicate
    is still evaluated and traced, but the quasi-Newton phase is never
    entered.
    """
    return minimize(problem, params, Rlsmcg(rqn_enabled), trace_hook)


def run_with_trace(problem: Problem, params: Optional[SolverParams] = None, *,
                   rqn_enabled: bool = True
                   ) -> Tuple[RunReport, List[TraceRecord]]:
    """run() plus the full list of per-iteration trace records; an RQN-case
    record carries the reduced Hessian the step updated in ``bhat``."""
    records: List[TraceRecord] = []
    report = run(problem, params, rqn_enabled=rqn_enabled,
                 trace_hook=records.append)
    return report, records
