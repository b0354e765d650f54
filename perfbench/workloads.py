"""The benchmark's workloads: which solvers run on which problem instances.

Registry problems run from the library's standard starts.  Perturbed starts
were measured and dropped: at this commit a 1e-3 perturbation moves a single
solve's gradient count by up to 100x (powell_singular(100) with rlsmcg: 31
at the standard start, 420 to 3,095 perturbed), so no affordable number of
seeded starts keeps a workload's totals steady from seed to seed.

The dense objectives are the benchmark's own inputs.  The logistic
regression is drawn from the run's seed.  The dense quadratic is drawn from
a fixed generator seed: whether rlsmcg and hs reach the tolerance on it
flips from matrix to matrix (one more solve converged on 3 of 10 seeds),
which would make ``solved_frac`` jump by a sixth between runs.

Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

GRAD_TOL = 1e-6

DENSE_QUAD_N = 1000
DENSE_QUAD_SEED = 0
LOGREG_SHAPE = (3000, 1000)
LOGREG_LAMBDA = 1e-5


@dataclass(frozen=True)
class Workload:
    """Solvers crossed with problems; one sweep runs every pair once.

    ``problems`` names registry problems as ``"family(dim)"``;
    ``whole_registry`` takes all 21 instances instead.  ``dense`` adds the
    dense quadratic and the logistic regression.  ``speed_kernel`` names
    the reference kernel in ``speed.py`` that its times are scaled by: one
    whose speed drifts the way the workload's does.
    """

    solvers: Tuple[str, ...]
    problems: Tuple[str, ...] = ()
    whole_registry: bool = False
    dense: bool = False
    speed_kernel: str = "python"


WORKLOADS = {
    "stall": Workload(
        solvers=("rlsmcg",),
        problems=("palmer_poly(8)", "quad_hilbert(6)", "quad_hilbert(8)",
                  "quad_hilbert(12)")),
    "large_n": Workload(
        solvers=("rlsmcg",),
        problems=("quad_diag(50)", "quad_diag(200)", "ext_rosenbrock(100)",
                  "ext_rosenbrock(1000)", "powell_singular(100)",
                  "trigonometric(100)", "broyden_tridiag(100)",
                  "broyden_tridiag(1000)")),
    # bbsd is left out: 27 s per registry sweep, two iteration-cap stops,
    # and no layer that hs does not already exercise
    "baselines": Workload(solvers=("hs", "lbfgs"), whole_registry=True),
    "dense_eval": Workload(solvers=("rlsmcg", "hs", "lbfgs"), dense=True,
                           speed_kernel="blas"),
}


# An objective the benchmark generates itself: name, dim, f, g, x0.
Objective = Tuple[str, int, Callable, Callable, np.ndarray]


def make_inputs(workload: Workload, seed: int) -> List[Objective]:
    """The workload's generated objectives; made before set-up is timed."""
    if not workload.dense:
        return []
    return [dense_quadratic(np.random.default_rng(DENSE_QUAD_SEED), DENSE_QUAD_N),
            logistic_regression(np.random.default_rng(seed), *LOGREG_SHAPE,
                                LOGREG_LAMBDA)]


def build_problems(rl, workload: Workload, objectives: List[Objective]) -> list:
    """Construct every instance through the library; this is the timed set-up."""
    if workload.whole_registry:
        problems = [spec.make() for spec in rl.registry()]
    else:
        problems = [rl.get_problem(name) for name in workload.problems]
    for name, dim, f, g, x0 in objectives:
        problems.append(rl.Problem(name, dim, f, g, x0))
    return problems


def dense_quadratic(rng, n: int) -> Objective:
    """f = x'Ax/2 - b'x with A = Q diag(logspace(-4, 0)) Q', Q Haar-random.

    Started at 0, the minimizer sits far out along the small eigenvalues, so
    |f| near the end is large and evaluation roundoff competes with the last
    decreases the line search must certify.
    """
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    A = (Q * np.logspace(-4.0, 0.0, n)) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    return (f"dense_quad({n})", n,
            lambda x: 0.5 * float(x @ (A @ x)) - float(b @ x),
            lambda x: A @ x - b,
            np.zeros(n))


def logistic_regression(rng, m: int, n: int, lam: float) -> Objective:
    """Mean logistic loss plus (lam/2)||w||^2 on Gaussian features, noisy labels."""
    X = rng.standard_normal((m, n))
    w_true = rng.standard_normal(n) / np.sqrt(n)
    y = np.where(X @ w_true + 0.5 * rng.standard_normal(m) > 0.0, 1.0, -1.0)

    def f(w):
        return float(np.mean(np.logaddexp(0.0, -y * (X @ w))) + 0.5 * lam * (w @ w))

    def g(w):
        sigma = np.exp(-np.logaddexp(0.0, y * (X @ w)))
        return X.T @ (-y * sigma) / m + lam * w

    return (f"logreg({m}x{n})", n, f, g, np.zeros(n))
