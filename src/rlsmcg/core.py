"""Shared primitives: problem abstraction, parameter ledger, run state and reports.

Everything downstream (direction selection, line search, the driver, the
baselines and the bench harness) builds on the types defined here.  A
``Problem`` is a pure (f, g) evaluator pair; evaluation counting happens in
``CountingProblem`` so no code path can evade accounting.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class NumericError(RuntimeError):
    """A computation produced non-finite values."""


class Status(Enum):
    CONVERGED = "converged"
    ITER_CAP = "iter_cap"
    LINESEARCH_FAIL = "linesearch_fail"
    NUMERIC_FAIL = "numeric_fail"


class IterType(Enum):
    SMCG = "SMCG"
    RQN = "RQN"


class CaseTag(Enum):
    """Which branch of the direction selection produced a step."""

    REG_SUBPROBLEM = "reg_subproblem"
    QUAD_SUBPROBLEM = "quad_subproblem"
    HS = "hs"
    NEG_GRAD = "neg_grad"
    RQN = "rqn"
    LBFGS = "lbfgs"


def dot(a: Vector, b: Vector) -> float:
    """Euclidean inner product of two equal-length vectors (ValueError if not)."""
    return float(a.dot(b))


def _is_count(value) -> bool:
    """Whether ``value`` is an integer (``operator.index`` takes it) >= 1
    other than a bool, which ``operator.index`` would take as 0 or 1."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= 1
    except TypeError:
        return False


def norm_inf(v: Vector) -> float:
    """Max-norm of a nonempty vector (ValueError if empty); finite exactly
    when every entry of ``v`` is, as a NaN propagates through the max."""
    return float(np.maximum.reduce(np.abs(v)))


@dataclass(frozen=True)
class Problem:
    """Smooth unconstrained objective with exact gradient and standard start.

    Attributes:
        name: identifier, e.g. ``"quad_hilbert(8)"``.
        dim: number of variables, ``n >= 1``.
        eval_f: maps a point in R^n to the objective value.
        eval_g: maps a point in R^n to the exact gradient.
        x0: standard starting point (length ``dim``).
    """

    name: str
    dim: int
    eval_f: Callable[[Vector], float]
    eval_g: Callable[[Vector], Vector]
    x0: Vector

    def __post_init__(self):
        if not _is_count(self.dim):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({self.dim},)")
        object.__setattr__(self, "x0", x0)


class CountingProblem:
    """Evaluation-counting wrapper around a Problem.

    All solvers evaluate f and g only through this wrapper, so the reported
    N_f / N_g are exact by construction.  A value of f that is no real
    scalar, and a gradient not of shape ``(dim,)`` or not of a real dtype
    (text or complex, say), are rejected here, before any solver arithmetic
    converts, broadcasts or truncates them.
    """

    def __init__(self, problem: Problem):
        self.problem = problem
        self.n_f = 0
        self.n_g = 0
        self._shape = (problem.dim,)

    def f(self, x: Vector) -> float:
        self.n_f += 1
        value = self.problem.eval_f(x)
        if isinstance(value, float):  # a Python float or a numpy float64
            return float(value)
        if np.ndim(value) != 0:
            raise ValueError(f"{self.problem.name}: eval_f returned "
                             f"{type(value).__name__} of shape "
                             f"{np.shape(value)}, expected a scalar")
        if isinstance(value, numbers.Real):
            return float(value)
        return float(_real_array(value, f"{self.problem.name}: eval_f"))

    def g(self, x: Vector) -> Vector:
        self.n_g += 1
        g = self.problem.eval_g(x)
        if type(g) is not np.ndarray or g.dtype != float:
            g = _real_array(g, f"{self.problem.name}: eval_g")
        if g.shape != self._shape:
            raise ValueError(f"{self.problem.name}: eval_g returned shape "
                             f"{g.shape}, expected {self._shape}")
        return g


def _real_array(value, source: str) -> Vector:
    """``value`` as a float64 array where numpy types it as bool, integer or
    float; else a ValueError naming ``source`` and the type."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = np.empty(0, dtype=object)
    if array.dtype.kind not in "biuf":
        raise ValueError(f"{source} returned {type(value).__name__} of dtype "
                         f"{array.dtype}, expected real values")
    return array.astype(float, copy=False)


def finite_diff_steps(x: Vector) -> Vector:
    """The per-coordinate steps h_i = 1e-6 (1 + |x_i|) of ``finite_diff_gradient``."""
    return 1e-6 * (1.0 + np.abs(x))


def finite_diff_gradient(problem: Problem, x: Vector) -> Vector:
    """Central-difference gradient with the steps of ``finite_diff_steps``.

    Used as an independent oracle against ``eval_g``.  Raises NumericError if
    any function evaluation is non-finite.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i, h in enumerate(finite_diff_steps(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = problem.eval_f(xp)
        fm = problem.eval_f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite f while differencing coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


# the ``SolverParams`` fields that count, and so take integers only
INT_PARAMS = ("memory_m", "l_reset", "max_iter", "min_quad")


@dataclass(frozen=True)
class SolverParams:
    """Every tunable of the solver, with protocol defaults.

    ``memory_m``, ``varsigma`` and ``l_reset`` depend on the problem dimension
    (memory is capped at min(n, 11)); leave them ``None`` and call
    :meth:`resolve` with the dimension to obtain a fully concrete instance.
    """

    # direction-selection thresholds
    xi1: float = 1e-10
    xi2: float = 1.2e4
    xi3: float = 5e-5
    xi4: float = 1e-4
    xi5: float = 0.08
    # orthogonality enter/exit thresholds
    eta0_tilde: float = 1e-9
    eta1_tilde: float = 0.5
    # subspace quasi-Newton controls; upsilon floors the cosine of s and
    # y + mu*s in the reduced BFGS update, so it has no units
    upsilon: float = 5e-7
    memory_m: Optional[int] = None          # min(n, 11) when resolved
    sigma1: float = 0.1
    sigma2: float = 5.0
    sigma3: float = 0.85
    # the shift mu is a curvature that enters every learned one (y + mu*s),
    # so its floor sits far below the curvatures the phase learns (palmer's
    # weakest Hessian eigenvalue is 1.3e-9); a floor near them would let the
    # shift, not the pair, set the weak modes of B_hat
    mu_min: float = 1e-10
    mu_max: float = 1.0
    l_reset: Optional[int] = None           # max(memory_m**2, 20) when resolved
    # acceleration constants
    tau_hat: float = 1.0
    tau_bar: float = 0.225
    c_bar: float = 0.1
    varsigma: Optional[float] = None        # 5e-5 if n <= 11 else 5e-6
    varsigma_bar: float = 5e-3
    eps_bar: float = 1e-10
    # initial-stepsize controls
    tau1: float = 0.1
    tau2: float = 135.0
    alpha_min: float = 1e-8
    alpha_max: float = 1e8
    # line-search coefficients
    delta_k: float = 0.0005
    sigma_wolfe: float = 0.9999
    # when set, the sufficient-decrease coefficient becomes
    # zh_delta / Q_{k+1} per iteration (the Zhang-Hager reduction)
    zh_delta: Optional[float] = None
    # termination / restart
    grad_tol: float = 1e-6
    max_iter: int = 200_000
    min_quad: int = 50

    def __post_init__(self):
        def require(cond, msg):
            if not cond:
                raise ValueError(f"SolverParams: {msg}")

        # a float count would fail mid-solve as a slice index, or never
        # equal the integer counter it is compared with
        for name in INT_PARAMS:
            value = getattr(self, name)
            require(value is None or _is_count(value),
                    f"{name} must be an integer >= 1, got {value!r}")
        for name in ("xi1", "xi2", "xi5"):
            require(getattr(self, name) > 0, f"{name} must be positive")
        # xi3 >= 1 would make the descent margin 1 - xi3 nonpositive
        require(0 < self.xi3 < 1, "xi3 must be in (0, 1)")
        require(self.xi4 > 0 and self.xi4 < self.xi5, "need 0 < xi4 < xi5")
        require(0 < self.eta0_tilde < self.eta1_tilde < 1,
                "need 0 < eta0_tilde < eta1_tilde < 1")
        # the entry test compares with eta0_tilde**2; if that underflows to
        # 0 it fires only on an exactly zero residual
        require(self.eta0_tilde ** 2 > 0, "eta0_tilde**2 underflows to 0")
        require(self.upsilon > 0, "upsilon must be positive")
        require(0 < self.sigma1 <= 1, "sigma1 must be in (0, 1]")
        require(self.sigma2 > 1, "sigma2 must be > 1")
        require(0 < self.sigma3 <= 1, "sigma3 must be in (0, 1]")
        require(0 < self.mu_min <= self.mu_max, "need 0 < mu_min <= mu_max")
        for name in ("tau_hat", "tau_bar", "c_bar", "varsigma_bar", "eps_bar",
                     "tau1", "tau2"):
            require(getattr(self, name) > 0, f"{name} must be positive")
        if self.varsigma is not None:
            require(self.varsigma > 0, "varsigma must be positive")
        require(0 < self.alpha_min < self.alpha_max,
                "need 0 < alpha_min < alpha_max")
        require(1e-6 < self.delta_k < 0.9, "delta_k must be in (1e-6, 0.9)")
        if self.zh_delta is not None:
            require(0 < self.zh_delta < 1, "zh_delta must be in (0, 1)")
        require(0 < self.sigma_wolfe < 1, "sigma_wolfe must be in (0, 1)")
        require(self.grad_tol > 0, "grad_tol must be positive")

    def resolve(self, dim: int) -> "SolverParams":
        """Concrete parameters for a problem of the given dimension."""
        m = self.memory_m if self.memory_m is not None else min(dim, 11)
        m = min(m, dim)
        lr = self.l_reset if self.l_reset is not None else max(m * m, 20)
        vs = self.varsigma
        if vs is None:
            vs = 5e-5 if dim <= 11 else 5e-6
        return replace(self, memory_m=m, l_reset=lr, varsigma=vs)


@dataclass
class DirectionRecord:
    """A chosen search direction plus the branch that produced it.

    ``solver.policy_step`` searches only along a direction whose gTd is
    finite and negative, and replaces any other by -g; the rlsmcg policy
    asks for sufficient descent before that.
    """

    d: Vector
    case_tag: CaseTag
    gTd: float
    g_hat: Optional[Vector] = None  # Z'g, which an RQN step is solved from


@dataclass
class RunReport:
    """Outcome of a single solver run."""

    n_iter: int
    n_f: int
    n_g: int
    wall_time: float
    status: Status
    final_gnorm_inf: float
    x: Optional[Vector] = None
    f: Optional[float] = None


@dataclass
class SolverState:
    """What the driver (``solver.minimize`` and ``solver.accept``) advances
    for every solver, confined to one run; a solver's own state, such as
    rlsmcg's memory of its last ``memory_m`` directions, lives in its
    policy."""

    k: int
    x: Vector
    f: float
    g: Vector
    # ||g||_inf, advanced with g; it doubles as the finiteness test of g
    gnorm_inf: float = math.nan
    # previous accepted step, its gradient difference and its direction
    s_prev: Optional[Vector] = None
    y_prev: Optional[Vector] = None
    d_prev: Optional[Vector] = None
    # nonmonotone reference value and weight (a linesearch.NonmonotoneLedger)
    ledger: Optional[object] = None
    # the last step moved f at rounding level: model trial steps fit slopes
    slope_fit: bool = False
    # consecutive line-search fallbacks, for the failure escalation rule
    backtrack_strikes: int = 0
