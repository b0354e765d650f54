"""scipy's CG and L-BFGS-B beside the harness's solvers, cell by cell.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/scipy_ref.py [registry|perturbed|dense|ulp]

runs ``scipy.optimize.minimize`` with ``method="CG"`` and
``method="L-BFGS-B"`` and the harness's hs, lbfgs and rlsmcg (from
``bench.SOLVERS``) on every instance of a suite, and prints one row per
instance with ``n_f n_g status`` for each solver, then the per-family
totals ``n_f n_g converged/runs`` and the suite's.  The suite is any of
``rlsmcg.problems.SUITES`` by name, ``registry`` by default, so ``ulp``
(the ulp-perturbed starts of three stall instances) is one too; a row is
labelled as the suite labels it, and a family is the label up to its
``(``.  Without scipy the tool exits with code 2 and an ``error:`` line
before any output.

scipy stops on the max-norm of g at the harness's ``grad_tol`` (``gtol``;
L-BFGS-B with ``ftol`` 0 and the harness's memory of 11 pairs), within the
harness's iteration cap.  Its f and g calls are counted by the harness's
``CountingProblem``, so ``n_f`` and ``n_g`` count every evaluation as the
harness's solvers report theirs.  A scipy run is ``converged`` when g at
its final point has max-norm at most ``grad_tol`` (that g is not counted),
else ``failed``; the harness's runs print their ``Status``.  scipy's
searches and first trials differ from the shared driver's, so a gap
between a CG row of scipy and hs points at hs's direction or trial step,
not at the Wolfe search.  The library never imports scipy; this tool does.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

import numpy as np

from rlsmcg import SolverParams
from rlsmcg.baselines import LBFGS_MEMORY
from rlsmcg.bench import SOLVERS
from rlsmcg.core import CountingProblem, norm_inf
from rlsmcg.problems import SUITES

HARNESS = ("hs", "lbfgs", "rlsmcg")
COLUMNS = ("scipy_cg", "scipy_lbfgsb") + HARNESS


def scipy_run(method: str, problem, params: SolverParams) -> tuple:
    """(n_f, n_g, status) of ``scipy.optimize.minimize`` with ``method``
    ("CG" or "L-BFGS-B") on ``problem`` from its start."""
    from scipy.optimize import minimize

    cp = CountingProblem(problem)
    if method == "CG":
        options = {"gtol": params.grad_tol, "norm": np.inf,
                   "maxiter": params.max_iter}
    else:
        options = {"gtol": params.grad_tol, "ftol": 0.0, "maxcor": LBFGS_MEMORY,
                   "maxiter": params.max_iter, "maxfun": 10 * params.max_iter}
    res = minimize(cp.f, problem.x0.copy(), jac=cp.g, method=method,
                   options=options)
    gnorm = norm_inf(problem.eval_g(res.x))
    return cp.n_f, cp.n_g, "converged" if gnorm <= params.grad_tol else "failed"


def cell(problem, params: SolverParams) -> dict:
    """Column name -> (n_f, n_g, status) of every solver on ``problem``."""
    row = {"scipy_cg": scipy_run("CG", problem, params),
           "scipy_lbfgsb": scipy_run("L-BFGS-B", problem, params)}
    for name in HARNESS:
        rep = SOLVERS[name](problem, params)
        row[name] = (rep.n_f, rep.n_g, rep.status.value)
    return row


def family_totals(rows: list) -> dict:
    """Family -> column -> [n_f, n_g, converged, runs] over ``rows`` of
    (label, cell), in the order the families first appear, and "all"."""
    totals = defaultdict(lambda: {c: [0, 0, 0, 0] for c in COLUMNS})
    for label, row in rows:
        for family in (label.split("(")[0], "all"):
            for column, (n_f, n_g, status) in row.items():
                t = totals[family][column]
                t[0] += n_f
                t[1] += n_g
                t[2] += status == "converged"
                t[3] += 1
    totals["all"] = totals.pop("all")  # last
    return dict(totals)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="scipy_ref.py")
    parser.add_argument("suite", nargs="?", default="registry",
                        choices=tuple(SUITES))
    args = parser.parse_args(argv[1:])
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        print("error: scipy_ref.py needs scipy, which is missing", file=sys.stderr)
        return 2
    params = SolverParams()
    first, width = 28, 22
    print(f"{'cell (n_f n_g status)':<{first}}"
          + "".join(f"{c:<{width}}" for c in COLUMNS))
    rows = []
    for label, problem in SUITES[args.suite]():
        row = cell(problem, params)
        rows.append((label, row))
        print(f"{label:<{first}}" + "".join(
            f"{' '.join(map(str, row[c])):<{width}}" for c in COLUMNS), flush=True)
    print(f"\n{'family (n_f n_g conv/runs)':<{first}}"
          + "".join(f"{c:<{width}}" for c in COLUMNS))
    for family, columns in family_totals(rows).items():
        print(f"{family:<{first}}" + "".join(
            f"{f'{t[0]} {t[1]} {t[2]}/{t[3]}':<{width}}"
            for t in (columns[c] for c in COLUMNS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
