"""Reference solvers, run on the main solver's driver.

Three classics for comparison runs: Hestenes-Stiefel conjugate gradients,
limited-memory BFGS (two-loop recursion), and Barzilai-Borwein steepest
descent.  Each supplies only a search direction, a trial step, the BB
rescue step and, for L-BFGS, its pair memory.  Everything else (the
evaluation counting, the nonmonotone Wolfe search with its rescue, the
termination tests and the trace records) is the main solver's own, so
reported counters are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from .core import (CaseTag, DirectionRecord, Problem, RunReport, SolverParams,
                   SolverState, Vector, dot, norm_inf)
from .linesearch import (LineFunction, StepResult, bb_fallback_stepsize,
                         bb_stepsizes, clip_step, interp_step)
# not called here; tools that time the layers patch these names in this module
from .linesearch import ledger_update, wolfe_search  # noqa: F401
from .smcg_direction import hs_direction, neg_grad_record
from .solver import TraceHook, minimize


class BaselineTag(Enum):
    HS_CG = "hs"
    LBFGS = "lbfgs"
    BB_SD = "bbsd"


@dataclass(frozen=True)
class BaselineKind:
    tag: BaselineTag


# L-BFGS keeps this many (s, y) pairs
LBFGS_MEMORY = 11
# pairs with s'y below this times ||s|| ||y|| are skipped (curvature too weak)
LBFGS_SKIP = 1e-10


class PairMemory:
    """The L-BFGS (s, y) pairs, newest first, each with its 1 / s'y, and the
    seed scale s'y / y'y of the newest pair, the usual scaling of the seed
    matrix."""

    def __init__(self):
        self.s: List[Vector] = []
        self.y: List[Vector] = []
        self.rho: List[float] = []
        self.seed_scale = 1.0

    def push(self, s: Vector, y: Vector, sTy: float, yTy: float) -> None:
        """Add the pair with s'y = ``sTy`` and y'y = ``yTy``, keeping the
        newest ``LBFGS_MEMORY``."""
        for pairs, new in ((self.s, s), (self.y, y), (self.rho, 1.0 / sTy)):
            pairs.insert(0, new)
            del pairs[LBFGS_MEMORY:]
        self.seed_scale = sTy / yTy


def lbfgs_two_loop(g: Vector, pairs: PairMemory) -> Vector:
    """Standard two-loop recursion over ``pairs``, from the seed matrix
    ``pairs.seed_scale`` I."""
    q = np.array(g, dtype=float)  # a copy, updated in place below
    if not pairs.s:
        return np.negative(q, out=q)
    alpha = []
    for r, s, y in zip(pairs.rho, pairs.s, pairs.y):
        a = r * dot(s, q)
        alpha.append(a)
        q -= a * y
    q *= pairs.seed_scale
    for r, s, y, a in zip(reversed(pairs.rho), reversed(pairs.s),
                          reversed(pairs.y), reversed(alpha)):
        b = r * dot(y, q)
        q += (a - b) * s
    return np.negative(q, out=q)


class _Policy:
    """A baseline as ``solver.policy_step`` runs it: its direction, its trial
    step, the BB rescue step, and the L-BFGS pair memory.  It lands on the
    search's point, never opens a phase and adds nothing to the record."""

    phase = None

    def __init__(self, kind: BaselineKind):
        self.kind = kind
        self.pairs = PairMemory()
        self.trace_fields: dict = {}

    def direction(self, state: SolverState, params: SolverParams) -> DirectionRecord:
        g = state.g
        if self.kind.tag is BaselineTag.HS_CG and state.dir_history:
            d = hs_direction(g, state.y_prev, state.dir_history[0])
            if d is not None:
                return DirectionRecord(d=d, case_tag=CaseTag.HS, gTd=dot(g, d))
        elif self.kind.tag is BaselineTag.LBFGS and self.pairs.s:
            d = lbfgs_two_loop(g, self.pairs)
            return DirectionRecord(d=d, case_tag=CaseTag.LBFGS, gTd=dot(g, d))
        return neg_grad_record(g)

    def trial_step(self, line: LineFunction, state: SolverState,
                   record: DirectionRecord, params: SolverParams) -> float:
        s, y = state.s_prev, state.y_prev
        if record.case_tag is CaseTag.LBFGS:
            return 1.0
        if record.case_tag is CaseTag.HS:
            # aim the trial at the interpolated 1-D minimizer (exact on
            # quadratics), fall back to the BB scale
            return (interp_step(line, 1.0, record.gTd, params)
                    or self.rescue_step(state, params))
        if self.kind.tag is BaselineTag.BB_SD and s is not None and dot(s, y) > 0.0:
            bb1, bb2 = bb_stepsizes(s, y)
            return clip_step(bb1 if state.k % 2 == 1 else bb2, params)
        return self.rescue_step(state, params)

    def rescue_step(self, state: SolverState, params: SolverParams) -> float:
        return bb_fallback_stepsize(state.g, state.s_prev, state.y_prev, params)

    def land(self, cp, state: SolverState, record: DirectionRecord,
             line: LineFunction, result: StepResult, params: SolverParams):
        return (line.point(result.alpha), result.f_trial, result.g_trial,
                norm_inf(result.g_trial))

    def update(self, state: SolverState, record: DirectionRecord,
               line: LineFunction, result: StepResult, params: SolverParams) -> None:
        if self.kind.tag is not BaselineTag.LBFGS:
            return
        s, y = state.s_prev, state.y_prev
        sTy, yTy = dot(s, y), dot(y, y)
        if sTy > LBFGS_SKIP * math.sqrt(dot(s, s)) * math.sqrt(yTy):
            self.pairs.push(s, y, sTy, yTy)


def run_baseline(kind: BaselineKind, problem: Problem,
                 params: Optional[SolverParams] = None,
                 trace_hook: Optional[TraceHook] = None) -> RunReport:
    """Minimize with the chosen baseline under the shared protocol."""
    return minimize(problem, params, _Policy(kind), trace_hook)
