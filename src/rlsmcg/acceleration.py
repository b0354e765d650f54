"""Secant-based step rescaling applied after the line search.

Once a trial point z = x + alpha*d is available, the quadratic interpolant of
the 1-D restriction built from the two directional slopes yields a multiplier
eta = -a_bar / b_bar.  When a conservative five-clause criterion holds, the
iterate moves to x + eta*alpha*d instead, provided the rescaled point still
passes both line-search conditions; otherwise the plain trial point is kept
bit for bit.  On 1-D quadratics the multiplier is the exact secant step, so
an accepted rescale lands on the line minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SolverParams, Vector
from .linesearch import NonmonotoneLedger, curvature_ok, sufficient_decrease_ok


@dataclass(frozen=True)
class TrialPoint:
    """The line-search trial z = x + alpha*d with its evaluations."""

    z: Vector
    f_z: float
    g_z: Vector
    alpha: float
    d: Vector


@dataclass(frozen=True)
class AccelResult:
    x_next: Vector
    f_next: float
    g_next: Vector
    eta_bar: float
    accepted: bool


def _interp_scalars(gTd: float, alpha: float, slope_z: float):
    a_bar = alpha * gTd
    b_bar = alpha * (slope_z - gTd)
    sTg_z = alpha * slope_z  # s_z'g_z with s_z = alpha*d
    return a_bar, b_bar, sTg_z


def accel_criterion(f_cur: float, gnorm2: float, gTd: float, alpha: float,
                    f_z: float, slope_z: float, dTd: float,
                    params: SolverParams) -> bool:
    """Five-clause gate for attempting the rescale, on the scalars of the
    step: at x, f_cur, ||g||^2 = gnorm2 and g'd; at the trial point z =
    x + alpha*d, f_z and the slope g_z'd = slope_z; and d'd.

    Requires a convex local slope gap (b_bar >= eps_bar), a short step, a
    small gradient, a near-quadratic interpolation residual |t_bar| < c_bar,
    and a floor on |s_z'g_z| so the residual itself is trustworthy.  An exact
    zero s_z'g_z leaves t_bar undefined and fails the gate.
    """
    a_bar, b_bar, sTg_z = _interp_scalars(gTd, alpha, slope_z)
    if not (math.isfinite(b_bar) and b_bar >= params.eps_bar):
        return False
    if alpha ** 2 * dTd > params.tau_bar:
        return False
    if gnorm2 > params.tau_hat:
        return False
    if sTg_z == 0.0:
        return False
    t_bar = abs(2.0 * (f_cur - f_z + sTg_z) / sTg_z - 1.0)
    if not (math.isfinite(t_bar) and t_bar < params.c_bar):
        return False
    return abs(sTg_z) >= max(params.varsigma, params.varsigma_bar * b_bar)


def accel_parameter(a_bar: float, b_bar: float, params: SolverParams) -> float:
    """The secant multiplier eta = -a_bar / b_bar (> 0 since a_bar < 0)."""
    if b_bar < params.eps_bar:
        raise ValueError("accel_parameter requires b_bar >= eps_bar")
    return -a_bar / b_bar


def apply_acceleration(problem, x: Vector, gTd: float, trial: TrialPoint,
                       ledger: NonmonotoneLedger, params: SolverParams) -> AccelResult:
    """Evaluate the rescaled candidate and keep it only if it passes both conditions.

    Exactly one extra (f, g) evaluation pair is charged whether or not the
    candidate is accepted; rejection returns the unaccelerated trial point
    unchanged.
    """
    a_bar, b_bar, _ = _interp_scalars(gTd, trial.alpha,
                                      float(np.dot(trial.g_z, trial.d)))
    eta = accel_parameter(a_bar, b_bar, params)
    x_cand = x + eta * trial.alpha * trial.d
    f_cand = problem.f(x_cand)
    g_cand = problem.g(x_cand)
    ok = (math.isfinite(f_cand) and bool(np.all(np.isfinite(g_cand)))
          and sufficient_decrease_ok(f_cand, ledger, eta, trial.alpha, gTd, params)
          and curvature_ok(float(np.dot(g_cand, trial.d)), gTd, params))
    if ok:
        return AccelResult(x_next=x_cand, f_next=f_cand, g_next=g_cand,
                           eta_bar=eta, accepted=True)
    return AccelResult(x_next=trial.z, f_next=trial.f_z, g_next=trial.g_z,
                       eta_bar=1.0, accepted=False)
