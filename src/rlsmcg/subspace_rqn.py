"""Orthogonality monitoring and the regularized BFGS iteration in a direction subspace.

When the current gradient (numerically) falls inside the span of the last m
search directions, conjugate-gradient behavior degrades; the driver then
switches to a quasi-Newton iteration confined to that span (or to all of R^n
when the memory spans it).  The machinery here provides the orthonormal basis
Z of the span (a rank-revealing Householder QR that drops dependent columns),
the enter/exit predicates on Z, the regularized BFGS update of the reduced
Hessian, and the lift of the reduced direction back to full space.

Most gradients stay well away from the span, so the entry test is screened
first: ``GramRing`` keeps the memory's unit directions and their Gram matrix
current at O(nm) a step, and ``orthogonality_kept`` answers "not lost" from
the normal equations when a rounding bound proves that the exact test would.
For n directions in R^n, where the driver keeps no ring, ``lost_in_rn``
proves from one Cholesky factorization that the QR keeps them all, and
answers on that basis of R^n.  Where neither can (G singular or not finite,
the residual inside the bound), the QR and ``orthogonality_lost`` decide,
so every decision is the exact test's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core import CaseTag, DirectionRecord, SolverParams, Vector, dot

# columns whose residual after projection is below this times their original
# norm are treated as linearly dependent and dropped
DROP_TOL = 1e-12

# the core a phase must leave is the numerically well-conditioned part of the
# span; ~sqrt(eps) is the usual half-precision-lost threshold.  During a
# conjugate-gradient stall the recent directions cluster, so their core is a
# proper subspace: the polluted span the gradient is trapped in.
ENTRY_RANK_TOL = 1e-8

_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1022  # the least normal float64


# The Cholesky factor, the solves with it and the QR call the LAPACK gufuncs
# that numpy.linalg's ``cholesky``, ``solve`` and ``qr`` dispatch to, on the
# same arrays, so they return the same bits; at the sizes used here the
# wrappers' conversions and checks cost more than the kernels.  The error
# state is the wrappers': a failed kernel raises LinAlgError and overflow
# stays silent.  Each helper has one errstate, built at import and applied
# as a decorator, which enters it afresh on every call.

def _lapack_errors(message: str) -> np.errstate:
    """The wrappers' error state, raising LinAlgError(message)."""
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


@_lapack_errors("matrix is not positive definite")
def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the square matrix ``a``, read from its lower
    triangle; LinAlgError when a pivot is not positive."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@_lapack_errors("matrix is not positive definite")
def _cholesky_solve(L: np.ndarray, b: Vector) -> Vector:
    """(L L')^{-1} b for the lower Cholesky factor ``L``, solved against L
    and then L' (LU solves, as numpy.linalg's); a singular L is a failed
    factor of L L'."""
    return _umath_linalg.solve1(
        L.T, _umath_linalg.solve1(L, b, signature="dd->d"), signature="dd->d")


@_lapack_errors("QR factorization failed")
def _qr(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Q, R) of the reduced Householder QR of the 2-D ``a``, as
    ``np.linalg.qr(a)`` returns them: the kernels run on the copy it makes."""
    a = a.astype(np.float64, copy=True)
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    return (_umath_linalg.qr_reduced(a, tau, signature="dd->d"),
            np.triu(a[:len(tau)]))


@dataclass(frozen=True)
class SubspaceHessian:
    """Reduced Hessian approximation carried through one quasi-Newton phase,
    symmetric positive definite by construction.

    Building one factors ``B_hat`` and keeps its lower Cholesky factor in
    ``L``; a ``B_hat`` that is not finite or not positive definite raises
    ``LinAlgError``.  ``mu`` is the regularization weight folded into the
    update through the shifted gradient difference y + mu*s.  ``scale`` is
    the curvature gamma of the phase's opening matrix gamma*I, to which
    every reset returns; ``is_identity`` is True while ``B_hat`` is that
    matrix, until an update is accepted.

    The opening matrix is built with L = sqrt(gamma)*I, which is LAPACK's
    factor of gamma*I bit for bit: its first pivot is the correctly rounded
    sqrt(gamma), each entry below it is 0/sqrt(gamma) = +0, and each later
    pivot is sqrt(gamma - 0) again.
    """

    B_hat: np.ndarray
    is_identity: bool
    mu: float
    scale: float = 1.0
    L: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.L is not None:
            return
        # cholesky returns NaN or inf for non-finite input instead of raising
        if not np.isfinite(self.B_hat).all():
            raise LinAlgError("reduced Hessian is not finite")
        object.__setattr__(self, "L", _cholesky(self.B_hat))

    @classmethod
    def identity(cls, m: int, mu: float, scale: float = 1.0) -> "SubspaceHessian":
        """The m x m opening matrix scale*I, for a positive finite scale."""
        eye = np.eye(m)
        return cls(B_hat=scale * eye, is_identity=True, mu=mu, scale=scale,
                   L=math.sqrt(scale) * eye)


def curvature_scale(s: Vector, y: Vector) -> float:
    """gamma = s'y / s's, the curvature of f measured along the step s with
    gradient change y, whose reciprocal is the BB1 step; 1.0 where gamma is
    not positive and finite (s = 0, s'y <= 0, overflow or NaN)."""
    sTs = dot(s, s)
    if not sTs > 0.0:
        return 1.0
    gamma = dot(s, y) / sTs
    return gamma if 0.0 < gamma < math.inf else 1.0


def qr_update(dirs: List[Vector], core_tol: Optional[float] = None):
    """Orthonormal basis Z of the independent direction columns, by LAPACK
    Householder QR; None when no column survives.  Given ``core_tol``, the
    pair (Z, core) instead, where core is the basis of the same directions
    at ``core_tol``.

    Columns are judged in order: one is dependent, and dropped, when its
    residual against the columns kept before it is at most DROP_TOL times its
    own norm.  A Householder QR gives those residuals as |R_jj|, but only up
    to the first dependent column j, since past it the basis holds that
    column's rounding noise.  Past j, ||R[j:, k]|| is column k's residual
    against the j columns before j; the kept columns before k include those,
    so where it is small k is dependent too.  Column j and those are deleted
    and the rest refactored until none is dependent.  Zero and non-finite
    columns are dropped first.  Column i of Z is the i-th kept direction
    orthogonalized against the kept ones before it, scaled to unit length,
    so it has a positive component along that direction.

    Both tolerances start from one factorization of the nonzero finite
    columns, which is the first round of each; past it, each refactors only
    the columns it keeps.
    """
    kept = [d for d in dirs if 0.0 < dot(d, d) < math.inf]
    if not kept:
        return None if core_tol is None else (None, None)
    Q, R = _qr(np.array(kept).T)
    Z = _drop_dependent(kept, Q, R, DROP_TOL)
    if core_tol is None:
        return Z
    return Z, _drop_dependent(kept, Q, R, core_tol)


def _drop_dependent(kept: List[Vector], Q: np.ndarray, R: np.ndarray,
                    drop_tol: float) -> np.ndarray:
    """The rounds of ``qr_update`` at ``drop_tol`` from the factorization
    Q R of ``kept``, up to the signed basis of a round with no dependent
    column.  Column 0 is never dependent, as its residual is its norm."""
    while True:
        # ||d_k||, as Q is orthonormal; np.linalg.norm(R, axis=0) bit for bit
        norms = np.sqrt(np.add.reduce(R * R, axis=0))
        # R has no diagonal past its n-th column: such a column lies in the
        # span of the n before it
        resid = np.zeros(len(kept))
        resid[:len(R)] = np.abs(R.diagonal())
        dependent = np.flatnonzero(resid <= drop_tol * norms)
        if dependent.size == 0:
            return Q * np.sign(R.diagonal())
        j = dependent[0]
        tail = np.sqrt(np.add.reduce(R[j:, j:] ** 2, axis=0))
        kept = kept[:j] + [d for d, t, nrm in zip(kept[j:], tail, norms[j:])
                           if t > drop_tol * nrm]
        Q, R = _qr(np.array(kept).T)


def _outside_norm2(Z: np.ndarray, g: Vector) -> float:
    """||g - Z Z'g||^2, the squared distance from g to the span of Z."""
    r = g - Z @ (Z.T @ g)
    return dot(r, r)


def orthogonality_lost(Z: np.ndarray, g: Vector, gTg: float,
                       params: SolverParams) -> bool:
    """True when g lies (almost) inside the span: ||g - ZZ'g||^2 <= eta0^2 ||g||^2,
    with ``gTg`` = g'g.

    The test is written on the residual, not as ||Z'g||^2 >= (1 - eta0^2)
    ||g||^2: with the default eta0 = 1e-9 the factor 1 - eta0^2 rounds to
    exactly 1.0 in float64, which would leave the decision to rounding.
    """
    if gTg <= 0.0:
        return False
    return _outside_norm2(Z, g) <= params.eta0_tilde ** 2 * gTg


class GramRing:
    """The memory's directions scaled to unit length, one per row of the
    m x n buffer ``D``, and their Gram matrix ``G = D D'``, held as the
    leading block of the screen's (2m+1) x (2m+1) bordered matrix ``A``
    (see ``orthogonality_kept``), whose constant blocks are written once,
    as is the coefficient ``rounding`` of kappa in the screen's bound.

    The rows are in ring order: a push overwrites the oldest row and its row
    and column of G in place, at O(nm), and nothing is rolled, since the
    span does not depend on the order.  A push takes the direction with its
    d'd, which the caller has already.  A direction whose norm is zero or
    not finite leaves a row of NaNs, which ``orthogonality_kept`` cannot
    certify.
    """

    __slots__ = ("D", "A", "rounding", "pushes")

    def __init__(self, D: np.ndarray, A: np.ndarray, rounding: float):
        self.D, self.A, self.rounding, self.pushes = D, A, rounding, 0

    @classmethod
    def empty(cls, m: int, n: int) -> "GramRing":
        A = np.zeros((2 * m + 1, 2 * m + 1))
        A[m + 1:, :m] = np.eye(m)
        A[m + 1:, m + 1:] = np.eye(m) / _U
        return cls(np.zeros((m, n)), A,
                   (8.0 * (n + m + 2) + 1e4 * m ** 3 * n * n * _U) * _U)

    def push(self, d: Vector, dTd: float) -> None:
        D, A, m = self.D, self.A, len(self.D)
        i = self.pushes % m
        norm = math.sqrt(dTd)
        if 0.0 < norm < math.inf:
            np.divide(d, norm, out=D[i])
        else:
            D[i] = math.nan
        D.dot(D[i], out=A[i, :m])
        A[:m, i] = A[i, :m]
        self.pushes += 1


def orthogonality_kept(ring: GramRing, g: Vector, gTg: float,
                       params: SolverParams) -> bool:
    """True only when rounding analysis proves ``orthogonality_lost`` False
    on the ``qr_update`` basis of the directions whose unit rows are
    ``ring.D``, with Gram matrix G in ``ring.A``; False leaves the question to
    that exact test.  ``gTg`` is g'g.

    The Cholesky factor of the Gram matrix of [D; g'], whose leading block
    is G's factor L, has as its last pivot r, the distance from g to the
    span of the rows by the normal equations: r^2 = g'g - ||L^{-1} Dg||^2.
    With u = 2^-53, kappa = m ||L^{-1}||_F^2 and lambda the least eigenvalue
    of G, the test certifies when

        r^2 > (2 eta0^2 + (8 (n + m + 2) + 1e4 m^3 n^2 u) u kappa) g'g.

    Both r and kappa come from one Cholesky factorization, of the ring's
    bordered matrix

        A = [[G, Dg, I], [g'D, g'g, 0], [I, 0, cI]],  c = 1/u:

    its factor holds L, the row (L^{-1} Dg)', the pivot r, and below L the
    block L31 = L^{-T}, since I = L31 L'.  So kappa = m ||L31||_F^2, with
    L^{-1} computed by substitution, as an explicit inverse would be.

    Derivation, to first order in u with gamma_k = k u (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed.; ch. 20 analyses the
    normal equations the same way).  The rows have unit norm, so trace G = m
    and cond(G) <= m / lambda <= kappa, and kappa >= m^2.

    1. The computed Gram matrix of [D; g'] is off by gamma_n |[D; g']||.|'
       (Thm 3.5), and Cholesky adds gamma_{m+2} |L^||L^'| (Thm 10.3), whose
       rows have the norms of the matrix's: 1 for D, ||g|| for g.  So r^2
       is exactly the last pivot of a perturbation E of that matrix, and the
       pivot moves by at most E_gg + 2 ||e|| ||x|| + ||E_G|| ||x||^2, where
       x = G^{-1} Dg has ||x|| <= ||g|| / sqrt(lambda) and E is split into
       its G block, its g column e and its corner.  That is at most
       (gamma_n + gamma_{m+2}) (1 + sqrt(m / lambda))^2 g'g
       <= 4 (n + m + 2) u kappa g'g.
    2. The exact test measures g against the Householder basis of the
       unscaled directions.  The columns ``qr_update`` drops only shrink the
       span and raise the residual.  Rounding the unit scaling (u per row)
       and the backward error of the QR (Thm 19.4, gamma~ = c n m u per
       column, c a small constant) tilt the span by at most their size
       times sqrt(m / lambda) (subsets of the columns have no smaller least
       singular value), and the test's computed residual moves by
       3 sqrt(m) gamma~ ||g|| more: by tau ||g|| in all, with
       tau <= 5 sqrt(m) gamma~ sqrt(kappa), so 2 tau^2 <= 5e3 m^3 n^2 u^2
       kappa for c <= 10.
    3. The test's residual is then at least sqrt(r^2 / g'g - 4 (n + m + 2)
       u kappa) - tau times ||g||, which exceeds eta0 ||g|| once the bound
       above holds, since (eta0 + tau)^2 <= 2 eta0^2 + 2 tau^2.  The factor 2
       on the rounding terms covers the second-order terms and lambda read
       off the computed L: when the bound holds, r^2 <= g'g forces
       8 (n + m + 2) u kappa < 1, so E moves lambda by less than 1/8 of it.
    4. The border's constant c only has to keep A positive definite, and
       soundness does not rest on it: a Cholesky failure anywhere, in the
       trailing block as at G or at r, returns False and defers to the
       exact test.  Nor does c cost a certification.  The trailing pivot
       block is cI less the leading block of the inverse of the Gram matrix
       of [D; g'], G^{-1} + x x' / r^2, whose trace kappa / m + ||x||^2 / r^2
       is below 2 / (8 m (n + m + 2) u) <= c / 16 wherever the bound holds,
       by step 3 and ||x||^2 <= (kappa / m) g'g.

    A NaN anywhere reaches r^2 or kappa, and every comparison with a NaN
    is false, as is one against an infinite bound.
    """
    D, A = ring.D, ring.A
    m = len(D)
    D.dot(g, out=A[m, :m])  # cholesky reads the lower triangle only
    A[m, m] = gTg
    try:
        L = _cholesky(A)
    except LinAlgError:  # G singular, g in its span, or step 4
        return False
    r2 = float(L[m, m]) ** 2
    L31 = L[m + 1:, :m]
    kappa = m * float(np.vdot(L31, L31))
    threshold = 2.0 * params.eta0_tilde ** 2 * gTg
    return r2 > threshold + ring.rounding * kappa * gTg


def lost_in_rn(dirs: List[Vector], gTg: float,
               params: SolverParams) -> Optional[bool]:
    """``orthogonality_lost`` on the ``qr_update`` basis of n directions in
    R^n, where rounding analysis proves that ``qr_update(dirs,
    ENTRY_RANK_TOL)`` keeps them all, at both tolerances, so that Z and the
    core span R^n; None leaves the question to the QR.  ``gTg`` is g'g.

    With t = ENTRY_RANK_TOL, u = 2^-53, e = 10 n^2.5 u and L the Cholesky
    factor of G, the unit directions' Gram matrix, the memory is certified
    when each d'd lies in [2^-900, 2^900], clear of range effects, and
    1 / ||L^{-1}||_F^2 > 2 (2t + e)^2 + 2n (4n + 5) u.  To first order, as
    in ``orthogonality_kept`` (whose border gives L31 = L^{-T} here too):
    L31 is (I + E) L^{-T}, ||E||_F <= gamma_{2n+1} ||L31||_F sqrt(n) < 1/8
    (Thm 10.3), so lambda_min(L L') >= (3/4) / ||L31||_F^2; L L' is off G
    by n gamma_{2n+1} (Thm 10.3) and G off the exact one by n gamma_{2n+4}
    (Thm 3.5, with the rounded norms), so the unit directions' least
    singular value has sigma^2 > (3/2) (2t + e)^2.  Householder QR is exact
    for columns moved by gamma~ = 10 n^2 u of their norms (Thm 19.4), so
    |R_kk| >= ||d_k|| (sigma - sqrt(n) gamma~) > t (1 + 2 gamma~) ||d_k||,
    which bounds the norm ``_drop_dependent`` scales t by: every column is
    kept, at DROP_TOL < t too.

    On that basis the answer is False for g'g <= 0, and True where g'g and
    eta0^2 g'g are normal and 2 rho^2 <= eta0^2, rho = (20 n^2.5 + 2 n^1.5
    + 1) u: Q is within 10 n^2.5 u of orthogonal (section 19.3), Z'g and
    Z(Z'g) add n^1.5 u ||g|| each and the difference u ||g||, so the
    residual is at most rho ||g||; the 2 covers both sides' rounding.
    """
    n, eta2 = len(dirs), params.eta0_tilde ** 2
    if gTg <= 0.0:
        lost = False
    elif (gTg < math.inf and eta2 * gTg >= _TINY
          and 2.0 * ((20.0 * n ** 2.5 + 2.0 * n ** 1.5 + 1.0) * _U) ** 2 <= eta2):
        lost = True
    else:
        return None
    if n != dirs[0].size:
        return None
    D = np.array(dirs)
    G = D @ D.T
    dd = G.diagonal()  # a NaN, a zero or an infinity in D fails the range
    if not (2.0 ** -900 <= dd.min() and dd.max() <= 2.0 ** 900):
        return None
    A = np.eye(2 * n)  # [[G, I], [I, I/u]], with G written below
    A[n:, :n] = A[:n, :n]
    A[n:, n:] /= _U
    norms = np.sqrt(dd)
    np.divide(G, np.multiply.outer(norms, norms), out=A[:n, :n])
    try:
        L31 = _cholesky(A)[n:, :n]
    except LinAlgError:
        return None
    bound = (2.0 * (2.0 * ENTRY_RANK_TOL + 10.0 * n ** 2.5 * _U) ** 2
             + 2.0 * n * (4 * n + 5) * _U)
    return lost if 1.0 / float(np.vdot(L31, L31)) > bound else None


def orthogonality_restored(Z: np.ndarray, g: Vector, gTg: float,
                           params: SolverParams) -> bool:
    """True when g points back out of the span: ||g - ZZ'g||^2 >= eta1^2 ||g||^2,
    with ``gTg`` = g'g.

    By Pythagoras this is ||Z'g||^2 <= (1 - eta1^2) ||g||^2, but computed on
    the residual so that it keeps its meaning for any eta1 in (0, 1).
    """
    if gTg <= 0.0:
        return True
    return _outside_norm2(Z, g) >= params.eta1_tilde ** 2 * gTg


def rbfgs_update(H: SubspaceHessian, s_hat: Vector, y_hat: Vector, k: int,
                 mu: float, params: SolverParams) -> SubspaceHessian:
    """Regularized BFGS update of the reduced Hessian under the new shift mu.

    With y(mu) = y_hat + mu * s_hat, the update applies when the phase
    counter k is not a multiple of l_reset and the pair clears the cosine
    floor s'y(mu) > upsilon ||s|| ||y(mu)|| (the usual skip rule, Nocedal and
    Wright, *Numerical Optimization*, 2nd ed., section 6.1); otherwise the
    matrix resets to the phase's opening matrix gamma*I, gamma = ``H.scale``.
    So does an update that is not finite or not positive definite, which
    the SubspaceHessian constructor rejects.
    The floor bounds the angle between s and y(mu), so it has no units: with
    f scaled by 2^k and x by 2^-j, (s, y, mu) -> (2^-j s, 2^(k+j) y,
    2^(k+2j) mu), and both sides scale by exactly 2^k.  A floor on the
    curvature s'y(mu)/s's would instead reset every step along a mode
    weaker than itself, the modes the phase is there to learn.

    The floor bounds the largest eigenvalue of B_hat (acceptance criterion
    5).  The phase opens at gamma = s'y/s's of a full step, and
    gamma <= ||y|| / ||s|| <= L for a gradient with Lipschitz constant L.
    An update subtracts the semidefinite Bss'B/s'Bs and adds
    y(mu)y(mu)'/s'y(mu), whose one nonzero eigenvalue ||y(mu)||^2 / s'y(mu)
    is below ||y(mu)|| / (upsilon ||s||) once the pair clears the floor.
    For a step in the span of Z, ||y_hat|| <= ||y|| <= L ||s|| = L ||s_hat||,
    so each update adds at most (L + mu) / upsilon <= (L + mu_max) / upsilon,
    and with a reset to gamma*I at least every l_reset updates

        lambda_max(B_hat) <= gamma + l_reset (L + mu_max) / upsilon,
                             gamma <= L.

    The bound criterion 5 checks, 1 + l_reset L^2 / upsilon + 2 l_reset
    mu_max, follows from this one where L - 1 <= (l_reset / upsilon)
    (L^2 - L - mu_max) + 2 l_reset mu_max.  At the defaults (mu_max = 1,
    l_reset >= 20, upsilon = 5e-7) both terms on the right are nonnegative
    for L >= 1.6181; the second covers L <= 41 and the first L >= 3, where
    L^2 - L - 1 >= L.  That covers palmer_poly(8) and quad_hilbert(6|8|12).
    On the quadratics with L = 1 (sphere, quad_diag), y(mu) = (A + mu I) s
    gives ||y(mu)||^2 / s'y(mu) <= L + mu in exact arithmetic, with no floor
    at all, so lambda_max <= 1 + l_reset (1 + mu_max), below the bound.
    """
    m = H.B_hat.shape[0]
    sTs = dot(s_hat, s_hat)
    y_mu = y_hat + mu * s_hat
    sTy_mu = dot(s_hat, y_mu)
    floor = params.upsilon * math.sqrt(sTs) * math.sqrt(dot(y_mu, y_mu))
    if k % params.l_reset == 0 or sTs <= 0.0 or sTy_mu <= floor:
        return SubspaceHessian.identity(m, mu, H.scale)
    B = H.B_hat
    Bs = B @ s_hat
    sBs = dot(s_hat, Bs)
    if sBs <= 0.0:
        return SubspaceHessian.identity(m, mu, H.scale)
    B_new = B - Bs[:, None] * Bs / sBs + y_mu[:, None] * y_mu / sTy_mu
    try:
        return SubspaceHessian(0.5 * (B_new + B_new.T), False, mu, H.scale)
    except LinAlgError:  # not finite, or rounding broke definiteness
        return SubspaceHessian.identity(m, mu, H.scale)


def ratio(f_cur: float, f_trial: float, alpha: float, g_hat: Vector,
          d_hat: Vector, B_hat: np.ndarray) -> float:
    """Actual-over-model decrease for the trial step alpha * d_hat.

    Model: q = f_cur + alpha g'd + alpha^2 d'Bd / 2.  When the model predicts
    no decrease (for d = -B^{-1} g_hat, exactly when alpha >= 2) the ratio is
    inf if f fell anyway, since the model overstated the curvature along d
    and the step beat it, and 0 if f did not fall.
    """
    pred = -(alpha * dot(g_hat, d_hat)
             + 0.5 * alpha * alpha * float(d_hat @ B_hat @ d_hat))
    if pred <= 0.0 or not math.isfinite(pred):
        return math.inf if f_trial < f_cur else 0.0
    return (f_cur - f_trial) / pred


def update_mu(mu: float, r: float, s_norm2: float,
              params: SolverParams) -> float:
    """Trust-region-flavored update of the regularization weight.

    ``s_norm2`` is ||s||^2 of the full step just taken.  Small steps adapt
    mu by the decrease ratio r (shrink on success, grow on failure, clipped
    to [mu_min, mu_max]); large steps switch regularization off entirely.
    """
    if s_norm2 > params.tau_hat:
        return 0.0
    if r >= params.sigma3:
        return max(params.mu_min, params.sigma1 * mu)
    return min(params.mu_max, params.sigma2 * mu)


def rqn_direction(Z: Optional[np.ndarray], H: SubspaceHessian,
                  g: Vector) -> DirectionRecord:
    """Lifted quasi-Newton step d = -Z B^{-1} Z'g, solved with the Cholesky
    factor ``H.L``; Z None stands for the whole space, where Z = I and the
    step is -B^{-1} g with no product by a basis.

    H is positive definite by construction, so the solve cannot fail; one
    that overflows gives a non-finite d, which the policy's descent backstop
    replaces by -g.
    """
    g_hat = g if Z is None else Z.T @ g
    d = d_hat = -_cholesky_solve(H.L, g_hat)
    if Z is not None:
        d = Z @ d_hat
    return DirectionRecord(d, CaseTag.RQN, dot(g, d), g_hat)
