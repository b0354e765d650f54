"""Trial-step primitives and the generalized nonmonotone Wolfe search.

The sufficient-decrease test is measured against a weighted reference value
C_k (a convex combination of past objective values) instead of f_k, which
permits controlled nonmonotonicity; the curvature side is the usual one-sided
Wolfe condition.  Trial steps are built from quadratic interpolation along
the line or from one Barzilai-Borwein rule; which of them a direction gets
is its solver's choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .core import SolverParams, Vector, dot, norm_inf


class AcceptKind(Enum):
    WOLFE = "wolfe"
    MAX_BACKTRACK = "max_backtrack"


class NonmonotoneLedger(NamedTuple):
    """Reference value C_k and accumulated weight Q_k after k updates."""

    Ck: float
    Qk: float
    k: int

    @classmethod
    def start(cls, f0: float) -> "NonmonotoneLedger":
        return cls(Ck=f0, Qk=1.0, k=0)


@dataclass
class StepResult:
    """Outcome of one line search: the step on its line (None when the
    search found no point below C_k) and how it was accepted.  f and g at
    the step are in the line's cache."""

    alpha: Optional[float]
    accepted_by: AcceptKind


class LineFunction:
    """The 1-D restriction phi(a) = f(x + a d) with cached evaluations and
    slopes phi'(a).

    ``problem`` (a CountingProblem) counts the evaluations.  Each step's
    point x + a d is built once, and its f, its g and the caller's landing
    point share it.  Seeding the a = 0 slot with the already-known (f, g)
    keeps the evaluation accounting honest: phi(0) and phi'(0) never
    re-evaluate.
    """

    def __init__(self, problem, x: Vector, d: Vector,
                 f0: Optional[float] = None, g0: Optional[Vector] = None):
        self.problem = problem
        self.x = np.asarray(x, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self._points = {}
        self._f_cache = {} if f0 is None else {0.0: float(f0)}
        self._g_cache = {} if g0 is None else {0.0: np.asarray(g0, dtype=float)}
        self._slope_cache = {}

    def point(self, a: float) -> Vector:
        x_a = self._points.get(a)
        if x_a is None:
            x_a = self._points[a] = self.x + a * self.d
        return x_a

    def value(self, a: float) -> float:
        f_a = self._f_cache.get(a)
        if f_a is None:
            f_a = self._f_cache[a] = self.problem.f(self.point(a))
        return f_a

    def gradient(self, a: float) -> Vector:
        g_a = self._g_cache.get(a)
        if g_a is None:
            g_a = self._g_cache[a] = self.problem.g(self.point(a))
        return g_a

    def slope(self, a: float) -> float:
        s_a = self._slope_cache.get(a)
        if s_a is None:
            s_a = self._slope_cache[a] = float(self.gradient(a).dot(self.d))
        return s_a


def quad_interp_min(phi0: float, dphi0: float, phi_a: float, a: float) -> Optional[float]:
    """Minimizer of the quadratic through (0, phi0) with slope dphi0 and value phi_a at a.

    Returns None for a concave or linear fit (no interior minimizer).
    """
    denom = 2.0 * (phi_a - phi0 - dphi0 * a)
    if denom <= 0.0 or not math.isfinite(denom):
        return None
    return -dphi0 * a * a / denom


def clip_step(alpha: float, params: SolverParams) -> float:
    return max(min(alpha, params.alpha_max), params.alpha_min)


def interp_step(line: LineFunction, a: float, gTd: float,
                params: SolverParams) -> Optional[float]:
    """Clipped minimizer of the quadratic through phi(0), slope gTd and phi(a).

    None when phi(a) is not finite or the fit has no positive minimizer.
    """
    phi_a = line.value(a)
    if not math.isfinite(phi_a):
        return None
    t = quad_interp_min(line.value(0.0), gTd, phi_a, a)
    return clip_step(t, params) if t is not None and t > 0.0 else None


def bb_fallback_stepsize(g: Vector, s_prev: Optional[Vector],
                         y_prev: Optional[Vector], params: SolverParams) -> float:
    """The Barzilai-Borwein trial step, clipped to [alpha_min, alpha_max].

    Before the first pair it is 1/||g||_inf (1 at g = 0).  With a pair it
    is alpha_min when s'y <= 0, else s'y/y'y (BB2) when g's > 0 and s's/s'y
    (BB1) otherwise; only the returned quotient is formed.  A quotient that
    is NaN, as inf/inf is when both of its products overflow, gives way to
    the first rule.
    """
    if s_prev is not None and y_prev is not None:
        sTy = dot(s_prev, y_prev)
        if sTy <= 0.0:
            return params.alpha_min
        if dot(g, s_prev) > 0.0:
            q = sTy / dot(y_prev, y_prev)
        else:
            q = dot(s_prev, s_prev) / sTy
        if not math.isnan(q):
            return clip_step(q, params)
    gni = norm_inf(g)
    return clip_step(1.0 / gni if gni > 0.0 else 1.0, params)


# --- nonmonotone ledger -----------------------------------------------------

def _eta_rule(Ck: float, f_next: float, k: int) -> float:
    """Nonmonotonicity control: lock to 1 only on a >95% reduction late in the run."""
    if Ck - f_next > 0.95 * abs(Ck) and k > 100:
        return 1.0
    return 0.9


def q_next(ledger: NonmonotoneLedger, f_next: float) -> float:
    """Weight Q_{k+1} entering the sufficient-decrease test (2.0 at the first step)."""
    if ledger.k == 0:
        return 2.0
    return _eta_rule(ledger.Ck, f_next, ledger.k) * ledger.Qk + 1.0


def ledger_update(ledger: NonmonotoneLedger, f_next: float) -> NonmonotoneLedger:
    """Advance (C_k, Q_k) after accepting f_{k+1}.

    The first update uses the fixed pair Q_1 = 2.0, C_1 = min(C_0, f_1 + 1.0);
    afterwards C is the eta-weighted running combination.
    """
    if ledger.k == 0:
        return NonmonotoneLedger(Ck=min(ledger.Ck, f_next + 1.0), Qk=2.0, k=1)
    eta = _eta_rule(ledger.Ck, f_next, ledger.k)
    Qn = eta * ledger.Qk + 1.0
    Cn = (eta * ledger.Qk * ledger.Ck + f_next) / Qn
    return NonmonotoneLedger(Ck=Cn, Qk=Qn, k=ledger.k + 1)


def sufficient_decrease_ok(f_new: float, ledger: NonmonotoneLedger, eta_bar: float,
                           alpha: float, gTd: float, params: SolverParams) -> bool:
    """f(x + eta*a*d) <= C_k + Q_{k+1} delta_k eta a g'd, with Q_{k+1} self-consistent.

    Under the Zhang-Hager override (delta_k = zh/Q_{k+1}) the weight cancels
    and the test is applied in its reduced form.
    """
    if not math.isfinite(f_new):
        return False
    if params.zh_delta is not None:
        return f_new <= ledger.Ck + params.zh_delta * eta_bar * alpha * gTd
    Qn = q_next(ledger, f_new)
    return f_new <= ledger.Ck + Qn * params.delta_k * eta_bar * alpha * gTd


def curvature_ok(slope_new: float, gTd: float, params: SolverParams) -> bool:
    return slope_new >= params.sigma_wolfe * gTd


# --- initial stepsize -------------------------------------------------------

def initial_stepsize(line: LineFunction, gTd: float, params: SolverParams, *,
                     quad_like: bool) -> Optional[float]:
    """Trial step along a model direction: interpolate through phi(1).

    The interpolated step is taken when f is quadratic-like or phi(1) stays
    within tau2 relative changes of phi(0), measured as
    |phi(1) - phi(0)| / (tau1 + |phi(0)|), which is taken only when f is
    not quadratic-like.  None when the fit or the gate fails; the caller
    then picks its own fallback step.
    """
    alpha = interp_step(line, 1.0, gTd, params)
    if alpha is None or quad_like:
        return alpha
    phi0 = line.value(0.0)
    varpi = abs(line.value(1.0) - phi0) / (params.tau1 + abs(phi0))
    return alpha if varpi <= params.tau2 else None


# --- the search itself ------------------------------------------------------

GROW = 5.0
MAX_ROUNDS = 50


def wolfe_search(line: LineFunction, alpha0: float, ledger: NonmonotoneLedger,
                 gTd: float, params: SolverParams) -> StepResult:
    """Bracket-and-interpolate search for the nonmonotone Wolfe conditions.

    A failed decrease test shrinks the bracket; a failed curvature test
    (slope still steeply negative) expands it.  Gradients are evaluated only
    at points that already pass the decrease test.  If no acceptable point is
    found in MAX_ROUNDS rounds, the best trial that at least stayed below C_k
    is returned, flagged MAX_BACKTRACK (alpha None when not even that exists).
    f and g at a returned step are evaluated, so ``line`` holds both.
    """
    if gTd >= 0.0:
        raise ValueError("wolfe_search requires a descent direction (g'd < 0)")
    if not alpha0 > 0.0:  # NaN included
        raise ValueError("wolfe_search requires alpha0 > 0")

    lo, phi_lo, slope_lo = 0.0, line.value(0.0), gTd
    hi, phi_hi = None, None
    alpha = alpha0
    best_alpha, best_phi = None, math.inf

    for _ in range(MAX_ROUNDS):
        phi_a = line.value(alpha)
        if math.isfinite(phi_a) and phi_a <= ledger.Ck and phi_a < best_phi:
            best_alpha, best_phi = alpha, phi_a
        if sufficient_decrease_ok(phi_a, ledger, 1.0, alpha, gTd, params):
            slope_a = line.slope(alpha)
            if math.isfinite(slope_a) and curvature_ok(slope_a, gTd, params):
                return StepResult(alpha, AcceptKind.WOLFE)
            # decrease fine but still descending steeply: move right
            lo, phi_lo, slope_lo = alpha, phi_a, slope_a
        else:
            hi, phi_hi = alpha, phi_a

        if hi is None:
            alpha = GROW * alpha
        else:
            span = hi - lo
            if span <= 1e-12 * max(hi, 1.0):
                break  # bracket collapsed; nothing acceptable in it
            cand = None
            if math.isfinite(phi_hi):
                t = quad_interp_min(phi_lo, slope_lo, phi_hi, span)
                if t is not None:
                    cand = lo + t
            if cand is None or not (lo + 0.1 * span <= cand <= lo + 0.9 * span):
                cand = lo + 0.5 * span
            alpha = cand

    if best_alpha is not None:
        line.gradient(best_alpha)
    return StepResult(best_alpha, AcceptKind.MAX_BACKTRACK)
