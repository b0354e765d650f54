"""The nonmonotone reference value and the generalized Wolfe conditions.

The sufficient-decrease test compares the trial value against a weighted
running combination C_k of past objective values rather than f_k itself, so
occasional increases of f are tolerated while C_k decreases monotonically.
This script traces (f_k, C_k) on a nonquadratic run and then demonstrates
the acceptance test on a bare 1-D function.
"""

import numpy as np

from rlsmcg import CountingProblem, Problem, SolverParams, get_problem
from rlsmcg.linesearch import (LineFunction, NonmonotoneLedger, ledger_update,
                               wolfe_search)
from rlsmcg.solver import run_with_trace

report, trace = run_with_trace(get_problem("trigonometric(10)"))
rises = sum(1 for a, b in zip(trace, trace[1:]) if b.f > a.f)
print(f"trigonometric(10): {report.n_iter} iterations, "
      f"{rises} of them increased f, yet C never rose:")
print(f"{'k':>4} {'f_k+1':>14} {'C_k+1':>14}")
for rec in trace[:10]:
    print(f"{rec.k:>4} {rec.f:>14.6e} {rec.Ck:>14.6e}")

# the acceptance machinery on a raw 1-D restriction
print("\n1-D search on phi(a) = (1 - a)^2 / 2:")
prob = Problem("quad1d", 1, lambda x: 0.5 * float((1 - x[0]) ** 2),
               lambda x: np.array([x[0] - 1.0]), np.zeros(1))
cp = CountingProblem(prob)
line = LineFunction(cp, np.zeros(1), np.ones(1), f0=0.5, g0=np.array([-1.0]))
ledger = NonmonotoneLedger.start(0.5)
result = wolfe_search(line, 1.0, ledger, -1.0, SolverParams())
print(f"  accepted alpha = {result.alpha} by {result.accepted_by.value} "
      f"using {cp.n_f} f-evals and {cp.n_g} g-evals")
ledger = ledger_update(ledger, line.value(result.alpha))
print(f"  ledger after the step: C = {ledger.Ck}, Q = {ledger.Qk}")
