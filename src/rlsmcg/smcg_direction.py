"""Search direction of the conjugate-gradient-type iteration.

Four mutually exclusive branches, gated on two cheap indicators:

* ``quadratic closeness`` t_k - how well a quadratic interpolates f between
  the last two iterates (0 for an exact quadratic), and
* ``well-conditioned curvature`` - two Rayleigh-quotient bounds on the
  (s, y) pair.

Depending on the gates, the direction minimizes a cubic-regularized or plain
quadratic model over span{g, s_prev}, falls back to a Hestenes-Stiefel step,
or restarts with -g.  All branches guarantee sufficient descent in exact
arithmetic; the solver's policy (``solver.Rlsmcg.direction``) checks each
emitted direction against the margin and takes -g where rounding broke it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

from .core import CaseTag, DirectionRecord, SolverParams, SolverState, Vector, dot


class CurvatureSnapshot(NamedTuple):
    """Pairwise products of (g, s_prev, y_prev) used by every gate and solve."""

    sTy: float
    sTs: float
    yTy: float
    gTg: float
    gTs: float
    gTy: float

    @classmethod
    def from_vectors(cls, g: Vector, s: Vector, y: Vector,
                     shared: Tuple[float, float, float]) -> "CurvatureSnapshot":
        """The snapshot of (g, s, y), given ``shared`` = (g'g, g's, s'y);
        ValueError when a product is not finite."""
        gTg, gTs, sTy = shared
        snap = cls(sTy, dot(s, s), dot(y, y), gTg, gTs, dot(g, y))
        if not all(map(math.isfinite, snap)):
            raise ValueError("non-finite curvature snapshot")
        return snap


def quadratic_closeness(f_prev: float, f_cur: float, gTs: float, sTy: float) -> float:
    """t = |2 (f_prev - f_cur + g's) / (s'y) - 1|; zero iff the data fits a quadratic.

    inf when s'y == 0 or t is not finite: the closeness is undefined, and the
    quadratic-likeness test on it fails.
    """
    if sTy == 0.0:
        return math.inf
    t = abs(2.0 * (f_prev - f_cur + gTs) / sTy - 1.0)
    return t if math.isfinite(t) else math.inf


def is_quadratic_like(t_k: float, t_prev: float, params: SolverParams) -> bool:
    """True when the last one or two closeness samples are below threshold."""
    return t_k <= params.xi4 or (t_k <= params.xi5 and t_prev <= params.xi5)


def is_well_conditioned(snap: CurvatureSnapshot, params: SolverParams) -> bool:
    """Rayleigh-quotient sandwich xi1 <= s'y/s's <= y'y/s'y <= xi2.

    Evaluated left to right; s'y <= 0 fails immediately.
    """
    if snap.sTy <= 0.0 or snap.sTs <= 0.0:
        return False
    r1 = snap.sTy / snap.sTs
    r2 = snap.yTy / snap.sTy
    return params.xi1 <= r1 <= r2 <= params.xi2


def hs_fallback_ok(snap: CurvatureSnapshot, params: SolverParams) -> bool:
    """Gate for the Hestenes-Stiefel branch: bounded cross terms, positive curvature."""
    if snap.sTy < params.xi1 * snap.sTs:
        return False
    return abs(snap.gTy * snap.gTs) <= params.xi3 * snap.sTy * snap.gTg


def rho_estimate(snap: CurvatureSnapshot) -> float:
    """Scaled estimate of g'Bg: (3/2) (y'y / s'y) ||g||^2."""
    if snap.sTy <= 0.0:
        raise ValueError("rho estimate requires s'y > 0")
    return 1.5 * (snap.yTy / snap.sTy) * snap.gTg


def solve_quadratic_subproblem(snap: CurvatureSnapshot) -> Optional[Tuple[float, float]]:
    """Exact minimizer (u, v) of the 2-D quadratic model over span{g, s}.

    Returns None when the 2x2 model matrix is not positive definite
    (degenerate model); the caller falls back to -g.
    """
    if snap.sTy <= 0.0:
        return None
    rho = rho_estimate(snap)
    delta = rho * snap.sTy - snap.gTy ** 2
    if delta <= 0.0 or not math.isfinite(delta):
        return None
    u = (snap.gTy * snap.gTs - snap.sTy * snap.gTg) / delta
    v = (snap.gTy * snap.gTg - rho * snap.gTs) / delta
    return u, v


def default_regularization_weight(t_k: float, snap: CurvatureSnapshot) -> float:
    """Regularization weight min(t_k, 1) * (s'y / s's).

    Vanishes as the quadratic fit improves and scales with the local
    curvature, so the regularized solve degrades gracefully to the plain
    quadratic one.
    """
    return min(t_k, 1.0) * (snap.sTy / snap.sTs)


def solve_regularized_subproblem(snap: CurvatureSnapshot,
                                 sigma: float) -> Optional[Tuple[float, float]]:
    """Global minimizer (u, v) of the cubic-regularized 2-D model.

    With B = [[rho, g'y], [g'y, s'y]] and c = (||g||^2, g's), the model is
    c'w + w'Bw/2 + (sigma/3) ||w||_B^3.  Its stationarity condition collapses
    to w = w0 / (1 + sigma * varpi) with w0 the unregularized solution and
    varpi = ||w||_B the unique nonnegative root of
    sigma * varpi^2 + varpi - N = 0, N = ||w0||_B.  sigma == 0 reproduces the
    plain quadratic solution exactly.  Returns None for a degenerate model or
    a negative or non-finite sigma.
    """
    base = solve_quadratic_subproblem(snap)
    if base is None or not math.isfinite(sigma) or sigma < 0.0:
        return None
    if sigma == 0.0:
        return base
    u0, v0 = base
    n_b = _bnorm(u0, v0, snap)
    varpi = 2.0 * n_b / (1.0 + math.sqrt(1.0 + 4.0 * sigma * n_b))
    scale = 1.0 / (1.0 + sigma * varpi)
    return scale * u0, scale * v0


def _bnorm(u: float, v: float, snap: CurvatureSnapshot) -> float:
    rho = rho_estimate(snap)
    q = rho * u * u + 2.0 * snap.gTy * u * v + snap.sTy * v * v
    return math.sqrt(max(q, 0.0))


def hs_direction(g_cur: Vector, y_prev: Vector, d_prev: Vector) -> Optional[Vector]:
    """Hestenes-Stiefel step d = -g + (g'y / d'y) d_prev; None when d'y == 0."""
    dTy = dot(d_prev, y_prev)
    if dTy == 0.0:
        return None
    d = dot(g_cur, y_prev) / dTy * d_prev
    d -= g_cur  # the same sum as -g_cur + beta * d_prev, in one vector
    return d


def sufficient_descent_coefficient(params: SolverParams) -> float:
    """Uniform descent margin: every direction satisfies g'd <= -c1 ||g||^2."""
    return min(
        0.5,
        1.0 - params.xi3,
        2.0 / (3.0 * params.xi2),
        1.0 / (3.0 * params.xi2),
        2.0 / (5.0 * params.xi2),
    )


def smcg_direction(state: SolverState, params: SolverParams, t_k: float,
                   quad_like: bool, shared: Tuple[float, float, float]
                   ) -> DirectionRecord:
    """Four-case direction selection for the conjugate-gradient-type iteration.

    ``quad_like`` is the quadratic-like test on the closeness ``t_k`` and the
    one before it; ``shared`` holds (g'g, g's, s'y) at ``state``.

    Case (i)  well-conditioned, not quadratic-like: cubic-regularized solve.
    Case (ii) well-conditioned and quadratic-like:  plain quadratic solve.
    Case (iii) otherwise, HS gate open:             Hestenes-Stiefel step.
    Case (iv) everything else (and the first step): -g.

    Any degenerate or non-finite intermediate falls through to -g.  The
    sufficient-descent margin is checked by the caller.
    """
    g = state.g
    if state.s_prev is None:
        return neg_grad_record(g)
    try:
        snap = CurvatureSnapshot.from_vectors(g, state.s_prev, state.y_prev, shared)
    except ValueError:
        return neg_grad_record(g)

    record = None
    if is_well_conditioned(snap, params):
        if quad_like:
            sol = solve_quadratic_subproblem(snap)
            if sol is not None:
                u, v = sol
                record = _combine(g, state.s_prev, u, v, CaseTag.QUAD_SUBPROBLEM)
        else:
            sol = solve_regularized_subproblem(
                snap, default_regularization_weight(t_k, snap))
            if sol is not None:
                u, v = sol
                record = _combine(g, state.s_prev, u, v, CaseTag.REG_SUBPROBLEM)
    elif hs_fallback_ok(snap, params):
        d = hs_direction(g, state.y_prev, state.d_prev)
        if d is not None:
            record = DirectionRecord(d=d, case_tag=CaseTag.HS, gTd=dot(g, d))

    return neg_grad_record(g) if record is None else record


def _combine(g: Vector, s: Vector, u: float, v: float, tag: CaseTag) -> DirectionRecord:
    d = u * g + v * s
    return DirectionRecord(d=d, case_tag=tag, gTd=dot(g, d))


def neg_grad_record(g: Vector) -> DirectionRecord:
    """The steepest-descent step -g, which every solver restarts and rescues with."""
    return DirectionRecord(d=-g, case_tag=CaseTag.NEG_GRAD, gTd=-dot(g, g))
