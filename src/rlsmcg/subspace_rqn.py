"""Orthogonality monitoring and the regularized BFGS iteration in a direction subspace.

When the current gradient (numerically) falls inside the span of the last m
search directions, conjugate-gradient behavior degrades; the driver then
switches to a quasi-Newton iteration confined to that span (or to all of R^n
when the memory spans it).  The machinery here provides the orthonormal basis
Z of the span (a rank-revealing Householder QR that drops dependent columns),
the enter/exit predicates on Z, the regularized BFGS update of the reduced
Hessian, and the lift of the reduced direction back to full space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import CaseTag, DirectionRecord, NumericError, SolverParams, Vector

# columns whose residual after projection is below this times their original
# norm are treated as linearly dependent and dropped
DROP_TOL = 1e-12

# the core a phase must leave is the numerically well-conditioned part of the
# span; ~sqrt(eps) is the usual half-precision-lost threshold.  During a
# conjugate-gradient stall the recent directions cluster, so their core is a
# proper subspace: the polluted span the gradient is trapped in.
ENTRY_RANK_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceHessian:
    """Reduced Hessian approximation carried through one quasi-Newton phase.

    ``mu`` is the regularization weight folded into the update through the
    shifted gradient difference y + mu*s; ``updates_since_reset == 0`` means
    the matrix is the identity.
    """

    B_hat: np.ndarray
    updates_since_reset: int
    mu: float

    @classmethod
    def identity(cls, m: int, mu: float) -> "SubspaceHessian":
        return cls(B_hat=np.eye(m), updates_since_reset=0, mu=mu)

    @property
    def is_identity(self) -> bool:
        return self.updates_since_reset == 0


def qr_update(dirs: List[Vector],
              drop_tol: float = DROP_TOL) -> Optional[np.ndarray]:
    """Orthonormal basis Z of the independent direction columns, by LAPACK
    Householder QR; None when no column survives.

    Columns are judged in order: one is dependent, and dropped, when its
    residual against the columns kept before it is at most drop_tol times its
    own norm.  A Householder QR gives those residuals as |R_jj|, but only up
    to the first dependent column j, since past it the basis holds that
    column's rounding noise.  Past j, ||R[j:, k]|| is column k's residual
    against the j columns before j; the kept columns before k include those,
    so where it is small k is dependent too.  Column j and those are deleted
    and the rest refactored until none is dependent.  Zero and non-finite
    columns are dropped first.  Column i of Z is the i-th kept direction
    orthogonalized against the kept ones before it, scaled to unit length,
    so it has a positive component along that direction.
    """
    kept = [d for d in dirs if 0.0 < np.dot(d, d) < math.inf]
    while kept:
        Z, R = np.linalg.qr(np.array(kept).T)
        norms = np.linalg.norm(R, axis=0)  # ||d_k||, as Z is orthonormal
        # R has no diagonal past its n-th column: such a column lies in the
        # span of the n before it
        resid = np.zeros(len(kept))
        resid[:len(R)] = np.abs(np.diag(R))
        dependent = np.flatnonzero(resid <= drop_tol * norms)
        if dependent.size == 0:
            return Z * np.sign(np.diag(R))
        j = dependent[0]
        tail = np.linalg.norm(R[j:, j:], axis=0)
        kept = kept[:j] + [d for d, t, nrm in zip(kept[j:], tail, norms[j:])
                           if t > drop_tol * nrm]
    return None


def _outside_norm2(Z: np.ndarray, g: Vector) -> float:
    """||g - Z Z'g||^2, the squared distance from g to the span of Z."""
    r = g - Z @ (Z.T @ g)
    return float(np.dot(r, r))


def orthogonality_lost(Z: np.ndarray, g: Vector,
                       params: SolverParams) -> bool:
    """True when g lies (almost) inside the span: ||g - ZZ'g||^2 <= eta0^2 ||g||^2.

    The test is written on the residual, not as ||Z'g||^2 >= (1 - eta0^2)
    ||g||^2: with the default eta0 = 1e-9 the factor 1 - eta0^2 rounds to
    exactly 1.0 in float64, which would leave the decision to rounding.
    """
    gTg = float(np.dot(g, g))
    if gTg <= 0.0:
        return False
    return _outside_norm2(Z, g) <= params.eta0_tilde ** 2 * gTg


def orthogonality_restored(Z: np.ndarray, g: Vector,
                           params: SolverParams) -> bool:
    """True when g points back out of the span: ||g - ZZ'g||^2 >= eta1^2 ||g||^2.

    By Pythagoras this is ||Z'g||^2 <= (1 - eta1^2) ||g||^2, but computed on
    the residual so that it keeps its meaning for any eta1 in (0, 1).
    """
    gTg = float(np.dot(g, g))
    if gTg <= 0.0:
        return True
    return _outside_norm2(Z, g) >= params.eta1_tilde ** 2 * gTg


def rbfgs_update(H: SubspaceHessian, s_hat: Vector, y_hat: Vector, k: int,
                 params: SolverParams) -> SubspaceHessian:
    """Regularized BFGS update of the reduced Hessian.

    With y(mu) = y_hat + mu * s_hat, the update applies when the phase
    counter k is not a multiple of l_reset and the shifted curvature
    s'y(mu)/s's clears the floor; otherwise the matrix resets to the
    identity.  A non-finite result also resets.
    """
    m = H.B_hat.shape[0]
    if k % params.l_reset == 0:
        return SubspaceHessian.identity(m, H.mu)
    sTs = float(np.dot(s_hat, s_hat))
    y_mu = y_hat + H.mu * s_hat
    sTy_mu = float(np.dot(s_hat, y_mu))
    if sTs <= 0.0 or sTy_mu / sTs < params.upsilon:
        return SubspaceHessian.identity(m, H.mu)
    B = H.B_hat
    Bs = B @ s_hat
    sBs = float(np.dot(s_hat, Bs))
    if sBs <= 0.0:
        return SubspaceHessian.identity(m, H.mu)
    B_new = B - np.outer(Bs, Bs) / sBs + np.outer(y_mu, y_mu) / sTy_mu
    B_new = 0.5 * (B_new + B_new.T)
    if not np.all(np.isfinite(B_new)):
        return SubspaceHessian.identity(m, H.mu)
    try:
        np.linalg.cholesky(B_new)
    except np.linalg.LinAlgError:
        # positive definiteness lost to rounding (near-degenerate pair)
        return SubspaceHessian.identity(m, H.mu)
    return SubspaceHessian(B_hat=B_new,
                           updates_since_reset=H.updates_since_reset + 1,
                           mu=H.mu)


def ratio(f_cur: float, f_trial: float, alpha: float, g_hat: Vector,
          d_hat: Vector, B_hat_mu: np.ndarray) -> Optional[float]:
    """Actual-over-model decrease for the trial step alpha * d_hat.

    Model: q = f_cur + alpha g'd + alpha^2 d'Bd / 2.  Returns None when the
    model predicts no decrease.  For d = -B^{-1} g_hat that happens exactly
    when alpha >= 2; the driver then counts the step as beating the model if
    f fell anyway, and as a poor ratio (mu grows) if it did not.
    """
    pred = -(alpha * float(np.dot(g_hat, d_hat))
             + 0.5 * alpha * alpha * float(d_hat @ B_hat_mu @ d_hat))
    if pred <= 0.0 or not math.isfinite(pred):
        return None
    return (f_cur - f_trial) / pred


def update_mu(mu: float, r: Optional[float], s_hat_norm2: float,
              params: SolverParams) -> float:
    """Trust-region-flavored update of the regularization weight.

    Small steps adapt mu by the decrease ratio (shrink on success, grow on
    failure, clipped to [mu_min, mu_max]); large steps switch regularization
    off entirely.  A ``None`` ratio (no model decrease) counts as failure.
    """
    if s_hat_norm2 > params.tau_hat:
        return 0.0
    if r is not None and r >= params.sigma3:
        return max(params.mu_min, params.sigma1 * mu)
    return min(params.mu_max, params.sigma2 * mu)


def rqn_direction(Z: np.ndarray, H: SubspaceHessian,
                  g: Vector) -> DirectionRecord:
    """Lifted quasi-Newton step d = -Z B^{-1} Z'g via a Cholesky solve.

    On a factorization failure the reduced Hessian is replaced by the
    identity and the solve retried once; a second failure raises
    NumericError.
    """
    g_hat = Z.T @ g
    B = H.B_hat
    for attempt in range(2):
        try:
            L = np.linalg.cholesky(B)
            d_hat = -np.linalg.solve(L.T, np.linalg.solve(L, g_hat))
        except np.linalg.LinAlgError:
            d_hat = None
        if d_hat is not None and np.all(np.isfinite(d_hat)):
            break
        if attempt == 1:
            raise NumericError("reduced quasi-Newton solve failed twice")
        B = np.eye(B.shape[0])
    d = Z @ d_hat
    return DirectionRecord(d=d, case_tag=CaseTag.RQN, gTd=float(np.dot(g, d)))
