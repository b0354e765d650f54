"""Solver-by-problem benchmark matrix and performance-profile curves.

Equivalent to the `bench` command line, driven through the library API:
run the matrix, write the per-run CSV, compute the gradient-evaluation
profile (for each solver, the fraction of problems solved within a factor
tau of the best solver), and emit a gnuplot script for the curves.
"""

from rlsmcg.bench import (BenchConfig, gnuplot_script, performance_profile,
                          run_matrix, write_profile_csv, write_results_csv)

cfg = BenchConfig(
    solvers=["rlsmcg", "rlsmcg_norqn", "hs", "lbfgs"],
    problems=["sphere(100)", "quad_diag(50)", "quad_hilbert(8)",
              "palmer_poly(8)", "ext_rosenbrock(100)", "powell_singular(40)",
              "trigonometric(10)", "broyden_tridiag(100)"],
)

rows = run_matrix(cfg)
write_results_csv(rows, "results.csv")
print(f"{'solver':14s} {'problem':22s} {'status':12s} {'n_iter':>7} {'n_g':>7}")
for row in rows:
    print(f"{row['solver']:14s} {row['problem']:22s} {row['status']:12s} "
          f"{row['n_iter']:>7} {row['n_g']:>7}")

taus, curves = performance_profile(rows, "ng")
write_profile_csv(taus, curves, "profile_ng.csv")
with open("profile_ng.gp", "w") as fh:
    fh.write(gnuplot_script("profile_ng.csv", "ng", list(curves)))

print("\ngradient-evaluation profile (fraction solved within factor tau):")
header = "  ".join(f"{s:>13s}" for s in sorted(curves))
print(f"{'tau':>8}  {header}")
for i in (0, len(taus) // 2, len(taus) - 1):
    vals = "  ".join(f"{curves[s][i]:>13.2f}" for s in sorted(curves))
    print(f"{taus[i]:>8.2f}  {vals}")
print("\nwrote results.csv, profile_ng.csv, profile_ng.gp")
