"""Analytic unconstrained test problems with exact gradients.

The suite covers the qualitative regimes the solver must handle: benign and
severely ill-conditioned convex quadratics (including a clustered polynomial
least-squares fit whose Gram matrix is numerically near-singular, the problem
class on which plain conjugate gradients lose orthogonality), plus the
classic nonquadratic families (extended Rosenbrock, Powell singular,
trigonometric, Broyden tridiagonal).

Problems are addressable by ``"family(dim)"`` strings; scalable families
accept any admissible dimension, the registry lists the standard instances.
The checks' suites live here too, by name in ``SUITES``: the registry, its
``perturbed_start`` starts, the ``ulp_start`` starts of ``ULP_INSTANCES``
and the dense quadratics of ``DENSE_SIZES`` and ``DENSE_SEEDS``; ``scaled``
puts any of them in other units of f.

The evaluators take exactly their formulas' floating-point operations in
order, form each shared subexpression once, reduce through the ufunc
(``ndarray.sum``, ``ndarray.dot``, not ``np.sum``) and never write into their
argument.  A rewrite must keep every bit; ``tests/test_problems.py`` checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (Problem, Vector, _is_count, finite_diff_gradient,
                   finite_diff_steps)


class ProblemSpec(NamedTuple):
    """A registered problem instance plus whatever is known about its optimum."""

    name: str
    dim: int
    make: Callable[[], Problem]
    known_fmin: Optional[float] = None
    known_minimizer: Optional[Vector] = None
    grad_lipschitz: Optional[float] = None


# --- quadratics --------------------------------------------------------------

def sphere(n: int) -> Problem:
    """f = ||x||^2 / 2; the identity-Hessian sanity case."""
    return Problem(
        name=f"sphere({n})", dim=n,
        eval_f=lambda x: 0.5 * float(np.dot(x, x)),
        eval_g=lambda x: np.asarray(x, dtype=float).copy(),
        x0=np.ones(n))


def quad_diag(n: int, cond: float = 1e4) -> Problem:
    """Diagonal quadratic with log-spaced spectrum in [1/cond, 1]."""
    lam = np.logspace(-np.log10(cond), 0.0, n)
    return Problem(
        name=f"quad_diag({n})", dim=n,
        eval_f=lambda x: 0.5 * float(np.dot(x, lam * x)),
        eval_g=lambda x: lam * x,
        x0=np.ones(n))


def hilbert_matrix(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return 1.0 / (i[:, None] + i[None, :] - 1.0)


def _spectral_start(A: np.ndarray, cut: float = 1e-6) -> np.ndarray:
    """Start point with equal objective energy per usable eigenmode of A.

    Coefficient 1/sqrt(lambda) along each eigenvector with lambda >= cut puts
    that mode's initial gradient at sqrt(lambda), so the gradient tolerance
    engages the whole usable spectrum and the conjugate-gradient grind
    through the ill-conditioned tail is reproduced at desk scale.  Modes
    below ``cut`` get unit coefficients instead: their gradients stay under
    the tolerance (they never need solving) but they seed genuine components
    outside the numerically explored span.  The cut also bounds the start
    magnitude at 1/sqrt(cut), keeping objective-evaluation roundoff well
    below the decreases the line search must certify.
    """
    lam, V = np.linalg.eigh(A)
    coeff = np.where(lam >= cut, 1.0 / np.sqrt(np.maximum(lam, cut)), 1.0)
    return V @ coeff


def quad_hilbert(n: int) -> Problem:
    """f = x'Hx / 2 with the n-by-n Hilbert matrix; condition grows like e^{3.5 n}.

    The start point excites every numerically usable eigenmode equally, which
    is what makes this the canonical orthogonality-loss stress test.
    """
    H = hilbert_matrix(n)
    return Problem(
        name=f"quad_hilbert({n})", dim=n,
        eval_f=lambda x: 0.5 * float(x @ H @ x),
        eval_g=lambda x: H @ x,
        x0=_spectral_start(H))


# --- clustered even-polynomial least squares ---------------------------------

_PALMER_POINTS = 31
_PALMER_SPAN = 1.789


def _palmer_design(degree_count: int):
    """Column-normalized even-power design matrix on clustered abscissae.

    Powers t^0, t^2, ..., t^{2(degree_count-1)} evaluated on a symmetric grid;
    the columns are nearly parallel, so the Gram matrix is numerically close
    to singular while its norm stays O(1).
    """
    t = np.linspace(-_PALMER_SPAN, _PALMER_SPAN, _PALMER_POINTS)
    A = np.column_stack([t ** (2 * j) for j in range(degree_count)])
    A = A / np.linalg.norm(A, axis=0, keepdims=True)
    return A


def palmer_poly(n: int = 8) -> Problem:
    """Consistent least-squares fit of an even polynomial, f = ||Ac - y||^2 / 2.

    The target is generated from a known coefficient vector, so the global
    minimum value is exactly zero.  This is the in-repo stand-in for the
    ill-conditioned polynomial fitting problems on which conjugate-gradient
    iterations stall.
    """
    A = _palmer_design(n)
    c_star = palmer_minimizer(n)
    y = A @ c_star
    # the residual form evaluates cleanly, so every mode can carry energy
    x0 = c_star + _spectral_start(A.T @ A, cut=1e-10)

    def f(c):
        r = A @ c - y
        return 0.5 * float(np.dot(r, r))

    return Problem(name=f"palmer_poly({n})", dim=n, eval_f=f,
                   eval_g=lambda c: A.T @ (A @ c - y), x0=x0)


def palmer_minimizer(n: int = 8) -> np.ndarray:
    return np.array([(-0.5) ** j for j in range(n)]) + 1.0


# --- classic nonquadratic families --------------------------------------------

def ext_rosenbrock(n: int) -> Problem:
    """Extended Rosenbrock in adjacent pairs; standard start (-1.2, 1, ...)."""
    if n % 2 != 0:
        raise ValueError("ext_rosenbrock needs an even dimension")

    def f(x):
        xo = x[0::2]
        return float((100.0 * (x[1::2] - xo ** 2) ** 2 + (1.0 - xo) ** 2).sum())

    def g(x):
        xo = x[0::2]
        t = x[1::2] - xo ** 2
        grad = np.empty_like(x)
        grad[0::2] = -400.0 * xo * t - 2.0 * (1.0 - xo)
        grad[1::2] = 200.0 * t
        return grad

    x0 = np.empty(n)
    x0[0::2] = -1.2
    x0[1::2] = 1.0
    return Problem(name=f"ext_rosenbrock({n})", dim=n, eval_f=f, eval_g=g, x0=x0)


def powell_singular(n: int) -> Problem:
    """Extended Powell singular function; the Hessian is singular at the solution."""
    if n % 4 != 0:
        raise ValueError("powell_singular needs a dimension divisible by 4")

    def f(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(((x1 + 10.0 * x2) ** 2 + 5.0 * (x3 - x4) ** 2
                      + (x2 - 2.0 * x3) ** 4 + 10.0 * (x1 - x4) ** 4).sum())

    def g(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        grad = np.empty_like(x)
        a = x1 + 10.0 * x2
        b = x3 - x4
        c3 = (x2 - 2.0 * x3) ** 3
        d3 = (x1 - x4) ** 3
        grad[0::4] = 2.0 * a + 40.0 * d3
        grad[1::4] = 20.0 * a + 4.0 * c3
        grad[2::4] = 10.0 * b - 8.0 * c3
        grad[3::4] = -10.0 * b - 40.0 * d3
        return grad

    x0 = np.tile([3.0, -1.0, 0.0, 1.0], n // 4)
    return Problem(name=f"powell_singular({n})", dim=n, eval_f=f, eval_g=g, x0=x0)


def trigonometric(n: int) -> Problem:
    """Trigonometric system residuals, f = ||r||^2 / 2, start at (1/n, ..., 1/n)."""

    i = np.arange(1.0, n + 1.0)

    def residuals(cos_x, sin_x):
        return n - cos_x.sum() + i * (1.0 - cos_x) - sin_x

    def f(x):
        r = residuals(np.cos(x), np.sin(x))
        return 0.5 * float(r.dot(r))

    def g(x):
        cos_x, sin_x = np.cos(x), np.sin(x)
        r = residuals(cos_x, sin_x)
        # d r_i / d x_j = sin x_j + [i == j] (i sin x_i - cos x_i)
        return sin_x * r.sum() + r * (i * sin_x - cos_x)

    return Problem(name=f"trigonometric({n})", dim=n, eval_f=f, eval_g=g,
                   x0=np.full(n, 1.0 / n))


def broyden_tridiag(n: int) -> Problem:
    """Broyden tridiagonal residuals, f = ||r||^2 / 2, start at (-1, ..., -1)."""

    def residuals(x):
        # the formula's order; the omitted end terms' "- 0.0" changes no bit
        r = (3.0 - 2.0 * x) * x
        r[1:] -= x[:-1]
        r[:-1] -= 2.0 * x[1:]
        r += 1.0
        return r

    def f(x):
        r = residuals(x)
        return 0.5 * float(r.dot(r))

    def g(x):
        r = residuals(x)
        grad = (3.0 - 4.0 * x) * r
        grad[:-1] -= r[1:]
        grad[1:] -= 2.0 * r[:-1]
        return grad

    return Problem(name=f"broyden_tridiag({n})", dim=n, eval_f=f, eval_g=g,
                   x0=np.full(n, -1.0))


# --- registry ----------------------------------------------------------------

_FAMILIES = {
    "sphere": sphere,
    "quad_diag": quad_diag,
    "quad_hilbert": quad_hilbert,
    "palmer_poly": palmer_poly,
    "ext_rosenbrock": ext_rosenbrock,
    "powell_singular": powell_singular,
    "trigonometric": trigonometric,
    "broyden_tridiag": broyden_tridiag,
}


def registry() -> List[ProblemSpec]:
    """The standard desk-scale suite (21 instances, dimensions 2 to 1000)."""
    specs: List[ProblemSpec] = []

    def add(family, dim, fmin=None, xmin=None, lip=None):
        specs.append(ProblemSpec(
            name=f"{family}({dim})", dim=dim,
            make=lambda family=family, dim=dim: _FAMILIES[family](dim),
            known_fmin=fmin, known_minimizer=xmin, grad_lipschitz=lip))

    add("sphere", 10, fmin=0.0, xmin=np.zeros(10), lip=1.0)
    add("sphere", 100, fmin=0.0, xmin=np.zeros(100), lip=1.0)
    for n in (10, 50, 200):
        add("quad_diag", n, fmin=0.0, xmin=np.zeros(n), lip=1.0)
    for n in (6, 8, 12):
        H = hilbert_matrix(n)
        add("quad_hilbert", n, fmin=0.0, xmin=np.zeros(n),
            lip=float(np.linalg.eigvalsh(H)[-1]))
    A = _palmer_design(8)
    add("palmer_poly", 8, fmin=0.0, xmin=palmer_minimizer(8),
        lip=float(np.linalg.eigvalsh(A.T @ A)[-1]))
    for n in (2, 10, 100, 1000):
        add("ext_rosenbrock", n, fmin=0.0, xmin=np.ones(n))
    for n in (4, 40, 100):
        add("powell_singular", n, fmin=0.0, xmin=np.zeros(n))
    for n in (10, 100):
        add("trigonometric", n)
    for n in (10, 100, 1000):
        add("broyden_tridiag", n)
    return specs


_NAME_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(\d+)\s*\)\s*$")


def get_problem(name: str) -> Problem:
    """Instantiate a problem from a ``"family(dim)"`` string."""
    m = _NAME_RE.match(name)
    if not m:
        raise KeyError(f"problem name {name!r} is not of the form family(dim)")
    family, dim = m.group(1), int(m.group(2))
    if family not in _FAMILIES:
        raise KeyError(f"unknown problem family {family!r}")
    return _FAMILIES[family](dim)


# --- the checks' suites: perturbed and ulp starts, dense quadratics, units ---

PERTURBED_SEEDS = range(1, 6)


def perturbed_start(x0: Vector, j: int) -> Vector:
    """Start j of the perturbed suite: x0 + 1e-3 (1 + |x0|) N(0, 1), drawn from
    ``numpy.random.default_rng(j)``.  It breaks the symmetry of a standard
    start that repeats one block, from which every block takes one path."""
    noise = np.random.default_rng(j).standard_normal(x0.size)
    return x0 + 1e-3 * (1.0 + np.abs(x0)) * noise


ULP_STARTS = range(24)
ULP_INSTANCES = ("palmer_poly(8)", "quad_hilbert(8)", "quad_hilbert(12)")


def ulp_start(x0: Vector, j: int) -> Vector:
    """Start j of the ulp-perturbed suite: x0 itself for j = 0, else
    x0 + k ``numpy.spacing(x0)`` with k drawn per coordinate from
    {-3, ..., 3} by ``numpy.random.default_rng(j)``.  Starts a few ulps
    apart show how far rounding alone spreads a solve's cost."""
    if j == 0:
        return x0.copy()
    k = np.random.default_rng(j).integers(-3, 4, size=x0.size)
    return x0 + k * np.spacing(x0)


DENSE_SIZES = (50, 100, 200, 300, 500)
DENSE_SEEDS = range(3)


def dense_quadratic_terms(n: int, seed: int) -> Tuple[np.ndarray, Vector]:
    """(A, b) of ``dense_quadratic(n, seed)``."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    A = (Q * np.logspace(-4.0, 0.0, n)) @ Q.T
    A = 0.5 * (A + A.T)
    return A, rng.standard_normal(n)


def dense_quadratic(n: int, seed: int) -> Problem:
    """f = x'Ax/2 - b'x started at 0, with A = Q diag(logspace(-4, 0, n)) Q',
    Q Haar-random (a Gaussian matrix's QR, R's diagonal made positive) and
    b ~ N(0, 1), all from ``default_rng(seed)``.  The minimizer lies far out
    along the small eigenvalues and |f| grows until its rounding competes
    with the last decreases: the regime where searches get rescued."""
    A, b = dense_quadratic_terms(n, seed)
    return Problem(f"dense_quad({n})", n,
                   lambda x: 0.5 * float(x @ (A @ x)) - float(b @ x),
                   lambda x: A @ x - b, np.zeros(n))


def _started(start: Callable[[Vector, int], Vector], names,
             seeds) -> List[Tuple[str, Problem]]:
    """``("name j", name from start(x0, j))`` for each name, then each j."""
    made = ((name, j, get_problem(name)) for name in names for j in seeds)
    return [(f"{name} {j}", replace(p, x0=start(p.x0, j))) for name, j, p in made]


# each check suite by name: a function that builds its (label, problem)
# pairs afresh, in run order
SUITES: Dict[str, Callable[[], List[Tuple[str, Problem]]]] = {
    "registry": lambda: [(spec.name, spec.make()) for spec in registry()],
    "perturbed": lambda: _started(perturbed_start,
                                  [spec.name for spec in registry()],
                                  PERTURBED_SEEDS),
    "dense": lambda: [(f"dense_quad({n}) {seed}", dense_quadratic(n, seed))
                      for n in DENSE_SIZES for seed in DENSE_SEEDS],
    "ulp": lambda: _started(ulp_start, ULP_INSTANCES, ULP_STARTS),
}


def scaled(problem: Problem, k: int) -> Problem:
    """``problem`` with f and g multiplied by 2^k, -1022 <= k <= 1023: 2^k is
    a normal float, so the products are exact barring overflow and underflow
    and this is the same problem in other units."""
    if not -1022 <= k <= 1023:
        raise ValueError(f"scale exponent k must lie in [-1022, 1023], got {k}")
    c = math.ldexp(1.0, k)
    return replace(problem, eval_f=lambda x: c * problem.eval_f(x),
                   eval_g=lambda x: c * problem.eval_g(x))


# --- gradient verification ----------------------------------------------------

class GradientCheckReport(NamedTuple):
    name: str
    n_points: int
    ok: bool
    worst_error: float
    failures: list  # (point index, coordinate, error)


def verify_gradients(spec: ProblemSpec, n_points: int = 10,
                     seed: int = 0, tol: float = 1e-6) -> GradientCheckReport:
    """Compare eval_g against central differences at random points near x0.

    A coordinate fails when |fd - g| exceeds tol * (1 + |g|) plus the
    provable roundoff floor of the difference quotient itself (summation
    noise of order eps * |f| / h, which dominates tol for large-sum
    objectives).  The report names every failing coordinate.
    """
    if not _is_count(n_points):
        raise ValueError(f"n_points must be an integer >= 1, got {n_points!r}")
    problem = spec.make()
    rng = np.random.default_rng(seed)
    failures = []
    worst = 0.0
    eps = float(np.finfo(float).eps)
    for p_idx in range(n_points):
        x = problem.x0 + 0.5 * rng.standard_normal(problem.dim)
        fd = finite_diff_gradient(problem, x)
        an = problem.eval_g(x)
        err = np.abs(fd - an)
        noise = 64.0 * eps * abs(problem.eval_f(x)) / (2.0 * finite_diff_steps(x))
        bound = tol * (1.0 + np.abs(an)) + noise
        rel = err / (1.0 + np.abs(an))
        worst = max(worst, float(np.max(rel)))
        for coord in np.nonzero(err > bound)[0]:
            failures.append((p_idx, int(coord), float(rel[coord])))
    return GradientCheckReport(name=problem.name, n_points=n_points,
                               ok=not failures, worst_error=worst,
                               failures=failures)
