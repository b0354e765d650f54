"""Reference solvers, run on the main solver's driver.

Two classics for comparison runs: Hestenes-Stiefel conjugate gradients with
Powell restarts and limited-memory BFGS (in compact form).  Each supplies
only a search direction, a trial step and, for L-BFGS, its pair memory.
Everything else (the evaluation counting, the nonmonotone Wolfe search with
its -g rescue from the BB fallback step, the termination tests and the
trace records) is the main solver's own, so reported counters are directly
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (CaseTag, DirectionRecord, Problem, RunReport, SolverParams,
                   SolverState, Vector, dot, norm_inf)
from .linesearch import (LineFunction, StepResult, bb_fallback_stepsize,
                         clip_step, initial_stepsize)
# not called here; tools that time the layers patch these names in this module
from .linesearch import ledger_update, wolfe_search  # noqa: F401
from .smcg_direction import hs_direction, neg_grad_record
from .solver import TraceHook, minimize


class BaselineTag(Enum):
    HS_CG = "hs"
    LBFGS = "lbfgs"


@dataclass(frozen=True)
class BaselineKind:
    tag: BaselineTag


# L-BFGS keeps this many (s, y) pairs
LBFGS_MEMORY = 11
# pairs with s'y below this times ||s|| ||y|| are skipped (curvature too weak)
LBFGS_SKIP = 1e-10
# HS restarts along -g once |g'g_prev| >= this times g'g (Powell, 1977)
POWELL_RESTART = 0.2


class PairMemory:
    """The L-BFGS (s, y) pairs in the compact form of Byrd, Nocedal and
    Schnabel (1994), kept in ring slots: pair i's s in row i of ``W`` and
    its y in row ``LBFGS_MEMORY`` + i.  Beside them, in slot order,
    ``Rinv`` = R^-1 for R the upper triangle of S'Y in age order, ``YY`` =
    Y'Y, ``D`` = the s_i'y_i, and the seed scale s'y / y'y of the newest
    pair, the usual scaling of the seed matrix.  Empty slots are zero.  The
    form does not change under a common permutation of the pairs, so no
    slot ever moves."""

    def __init__(self):
        m = LBFGS_MEMORY
        self.W: Optional[np.ndarray] = None  # (2m, n) once the first pair comes
        self.Rinv, self.YY, self.D = np.zeros((m, m)), np.zeros((m, m)), np.zeros(m)
        self.seed_scale = 1.0
        self.pushes = 0

    def __len__(self) -> int:
        return min(self.pushes, LBFGS_MEMORY)

    def push(self, s: Vector, y: Vector, sTy: float, yTy: float) -> None:
        """Add the pair with s'y = ``sTy`` and y'y = ``yTy`` in the oldest
        slot, keeping the newest ``LBFGS_MEMORY``.  R^-1's trailing block is
        the inverse of R's, so the dropped pair only zeroes its row (its
        column is zero save the diagonal); the new column is -R^-1 S'y / s'y
        and the new row is zero save 1 / s'y."""
        m, k = LBFGS_MEMORY, self.pushes % LBFGS_MEMORY
        if self.W is None:
            self.W = np.zeros((2 * m, len(s)))
        W, Rinv = self.W, self.Rinv
        W[k], W[m + k] = s, y
        v = W @ y  # S'y and Y'y
        Rinv[k] = 0.0
        Rinv[:, k] = (Rinv @ v[:m]) / -sTy
        Rinv[k, k] = 1.0 / sTy
        self.YY[k] = self.YY[:, k] = v[m:]
        self.YY[k, k], self.D[k] = yTy, sTy
        self.seed_scale = sTy / yTy
        self.pushes += 1


def lbfgs_two_loop(g: Vector, pairs: PairMemory) -> Vector:
    """-H g, a fresh array, for H the L-BFGS inverse-Hessian estimate over
    ``pairs`` from the seed matrix gamma I, gamma = ``pairs.seed_scale``: the
    two-loop recursion's result from the compact form, H g = gamma g + W'c
    with u = R^-1 S'g and c = [R^-T (D u + gamma (Y'Y u - Y'g)); -gamma u]."""
    if not len(pairs):
        return np.negative(g, dtype=float)
    m, gamma = LBFGS_MEMORY, pairs.seed_scale
    p = pairs.W @ g
    u = pairs.Rinv @ p[:m]
    c = np.concatenate((pairs.Rinv.T @ (pairs.D * u + gamma * (pairs.YY @ u - p[m:])),
                        -gamma * u))
    d = c @ pairs.W
    d += gamma * g
    return np.negative(d, out=d)


class _Policy:
    """A baseline as ``solver.policy_step`` runs it: its direction, its trial
    step, and the L-BFGS pair memory.  It lands on the search's point and
    adds no field to the record."""

    def __init__(self, kind: BaselineKind):
        self.kind = kind
        self.pairs = PairMemory()
        # alpha g'd of the last step, from which HS scales its first trial
        self.alpha_gTd = math.nan

    def direction(self, state: SolverState, params: SolverParams) -> DirectionRecord:
        """HS, or its restart along -g (beta = 0) when g'g_prev = g'g - g'y
        is no longer small against g'g; L-BFGS's direction once it holds a
        pair; else -g."""
        g = state.g
        if self.kind.tag is BaselineTag.HS_CG and state.d_prev is not None:
            gTg = dot(g, g)
            if abs(gTg - dot(g, state.y_prev)) >= POWELL_RESTART * gTg:
                return DirectionRecord(d=-g, case_tag=CaseTag.HS, gTd=-gTg)
            d = hs_direction(g, state.y_prev, state.d_prev)
            if d is not None:
                return DirectionRecord(d=d, case_tag=CaseTag.HS, gTd=dot(g, d))
        elif self.kind.tag is BaselineTag.LBFGS and self.pairs:
            d = lbfgs_two_loop(g, self.pairs)
            return DirectionRecord(d=d, case_tag=CaseTag.LBFGS, gTd=dot(g, d))
        return neg_grad_record(g)

    def trial_step(self, line: LineFunction, state: SolverState,
                   record: DirectionRecord, params: SolverParams) -> float:
        """L-BFGS tries the unit step, and -g the BB step.  HS probes at
        a = alpha_{k-1} g_{k-1}'d_{k-1} / g'd (Nocedal & Wright, 3.60),
        which keeps the last step's first-order decrease and, unlike 1, has
        no units of d.  From phi(a) it aims at the 1-D minimizer, exact on
        quadratics, with no tau2 gate (``initial_stepsize`` as if
        quadratic-like), or, once the last step moved f only at rounding
        level, from the slope phi'(a), which no rounding in f touches.  The
        secant falls back to the value fit, and that to the BB step."""
        if record.case_tag is CaseTag.LBFGS:
            return 1.0
        if record.case_tag is CaseTag.HS:
            at = clip_step(self.alpha_gTd / record.gTd, params)
            step = initial_stepsize(line, record.gTd, params, quad_like=True,
                                    slope_fit=state.slope_fit, at=at)
            if step is not None:
                return step
        return bb_fallback_stepsize(state.g, state.s_prev, state.y_prev, params)

    def land(self, state: SolverState, record: DirectionRecord,
             line: LineFunction, result: StepResult, params: SolverParams):
        a = result.alpha
        g = line.gradient(a)
        return line.point(a), line.value(a), g, norm_inf(g)

    def trace_fields(self, record: DirectionRecord) -> dict:
        return {}

    def update(self, state: SolverState, record: DirectionRecord,
               line: LineFunction, result: StepResult, params: SolverParams) -> None:
        if self.kind.tag is BaselineTag.HS_CG:
            self.alpha_gTd = result.alpha * record.gTd
            return
        s, y = state.s_prev, state.y_prev
        sTy, yTy = dot(s, y), dot(y, y)
        # a y'y that underflows to 0 would pass any s'y > 0 and leave no
        # seed scale s'y / y'y
        if yTy > 0.0 and sTy > LBFGS_SKIP * math.sqrt(dot(s, s)) * math.sqrt(yTy):
            self.pairs.push(s, y, sTy, yTy)


def run_baseline(kind: BaselineKind, problem: Problem,
                 params: Optional[SolverParams] = None,
                 trace_hook: Optional[TraceHook] = None) -> RunReport:
    """Minimize with the chosen baseline under the shared protocol."""
    return minimize(problem, params, _Policy(kind), trace_hook)
