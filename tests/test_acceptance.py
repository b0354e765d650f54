"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The full-suite solver runs are shared through the session-scoped
``suite_runs`` fixture.
"""

import math

import numpy as np

from rlsmcg.baselines import (BaselineKind, BaselineTag, PairMemory, lbfgs_two_loop,
                              run_baseline)
from rlsmcg.bench import parse_config, run_matrix
from rlsmcg.core import Problem, SolverParams, Status, dot
from rlsmcg.problems import get_problem, registry, verify_gradients
from rlsmcg.smcg_direction import (rho_estimate, solve_quadratic_subproblem,
                                   solve_regularized_subproblem,
                                   sufficient_descent_coefficient)
from rlsmcg.solver import run_with_trace

PARAMS = SolverParams()


def _verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_sufficient_descent_sweep(suite_runs):
    results, elapsed = suite_runs
    c1 = sufficient_descent_coefficient(PARAMS)
    violations = 0
    checked = 0
    for name, (spec, report, trace) in results.items():
        for rec in trace:
            checked += 1
            if rec.gTd > -c1 * rec.gnorm2:
                violations += 1
    ok = violations == 0 and elapsed < 300.0
    _verdict(1, ok, f"g'd <= -{c1:.3e} ||g||^2 at {checked} iterations, "
                    f"{violations} violations, suite ran in {elapsed:.1f}s")


def test_criterion_2_nonmonotone_ledger(suite_runs):
    results, _ = suite_runs
    viol_fc = viol_mono = 0
    for name, (spec, report, trace) in results.items():
        prev_C = None
        for rec in trace:
            if rec.f > rec.Ck + 1e-12 * max(1.0, abs(rec.Ck)):
                viol_fc += 1
            if rec.k >= 1 and prev_C is not None and \
                    rec.Ck > prev_C + 1e-12 * max(1.0, abs(prev_C)):
                viol_mono += 1
            prev_C = rec.Ck
    ok = viol_fc == 0 and viol_mono == 0
    _verdict(2, ok, f"f <= C at every iteration ({viol_fc} violations), "
                    f"C nonincreasing after k=1 ({viol_mono} violations)")


def test_criterion_3_zhang_hager_reduction():
    delta = PARAMS.delta_k
    params = SolverParams(zh_delta=delta)
    names = ["quad_diag(10)", "quad_hilbert(8)", "palmer_poly(8)",
             "ext_rosenbrock(10)", "trigonometric(10)", "broyden_tridiag(100)"]
    checked = violations = 0
    for name in names:
        report, trace = run_with_trace(get_problem(name), params)
        for rec in trace:
            if rec.rescued or rec.accepted_by.value != "wolfe":
                continue
            checked += 1
            rhs = rec.Ck_before + delta * rec.eta_bar * rec.alpha * rec.gTd
            if rec.f > rhs + 1e-12 * max(1.0, abs(rec.Ck_before)):
                violations += 1
    ok = checked > 0 and violations == 0
    _verdict(3, ok, f"Zhang-Hager reduction held at {checked} accepted steps "
                    f"({violations} violations)")


def test_criterion_4_subproblem_oracle():
    def model_min_oracle(snap, sigma):
        rho = rho_estimate(snap)
        B = np.array([[rho, snap.gTy], [snap.gTy, snap.sTy]])
        c = np.array([snap.gTg, snap.gTs])

        def val(w):
            q = float(w @ B @ w)
            return float(c @ w) + 0.5 * q + (sigma / 3.0) * max(q, 0.0) ** 1.5

        center = -np.linalg.solve(B, c)
        half = 2.0 * max(float(np.linalg.norm(center)), 1e-3)
        for _ in range(3):
            us = np.linspace(center[0] - half, center[0] + half, 61)
            vs = np.linspace(center[1] - half, center[1] + half, 61)
            best = min(((val(np.array([u, v])), u, v) for u in us for v in vs))
            center = np.array([best[1], best[2]])
            half /= 15.0
        w = center
        for _ in range(100):
            nb = math.sqrt(max(float(w @ B @ w), 1e-300))
            grad = c + B @ w + sigma * nb * (B @ w)
            hess = B * (1.0 + sigma * nb) + sigma * np.outer(B @ w, B @ w) / nb
            w = w - np.linalg.solve(hess, grad)
            if float(np.linalg.norm(grad)) < 1e-14:
                break
        return w

    from rlsmcg.smcg_direction import CurvatureSnapshot
    rng = np.random.default_rng(123)
    worst = 0.0
    exact_zero_checked = 0
    for trial in range(100):
        g = rng.standard_normal(6)
        s = rng.standard_normal(6)
        y = rng.standard_normal(6)
        if float(s @ y) <= 0.0:
            y = -y
        snap = CurvatureSnapshot.from_vectors(
            g, s, y, (dot(g, g), dot(g, s), dot(s, y)))
        sigma = 0.0 if trial < 20 else float(rng.uniform(0.0, 4.0))
        u, v = solve_regularized_subproblem(snap, sigma)
        if sigma == 0.0:
            base = solve_quadratic_subproblem(snap)
            assert u == base[0] and v == base[1]
            exact_zero_checked += 1
        w = model_min_oracle(snap, sigma)
        worst = max(worst, abs(u - w[0]), abs(v - w[1]))
    ok = worst <= 1e-8 and exact_zero_checked == 20
    _verdict(4, ok, f"closed form vs brute-force oracle: worst |diff| = "
                    f"{worst:.2e} over 100 snapshots ({exact_zero_checked} "
                    "exact sigma=0 checks)")


def test_criterion_5_regularized_bfgs_soundness(suite_runs):
    results, _ = suite_runs
    chol_failures = 0
    bound_failures = 0
    n_updates = 0
    for name, (spec, report, trace) in results.items():
        p = PARAMS.resolve(spec.dim)
        for rec in trace:
            if rec.bhat is None:
                continue
            n_updates += 1
            try:
                np.linalg.cholesky(rec.bhat)
            except np.linalg.LinAlgError:
                chol_failures += 1
            if spec.grad_lipschitz is not None:
                L = spec.grad_lipschitz
                bound = 1.0 + p.l_reset * L * L / p.upsilon \
                    + 2.0 * p.l_reset * p.mu_max
                lam_max = float(np.linalg.eigvalsh(rec.bhat)[-1])
                if lam_max > bound:
                    bound_failures += 1
    ok = n_updates > 0 and chol_failures == 0 and bound_failures == 0
    _verdict(5, ok, f"{n_updates} reduced-Hessian updates: Cholesky failures="
                    f"{chol_failures}, eigenvalue-bound failures={bound_failures}")


def test_criterion_6_orthogonality_recovery():
    details = []
    ok = True
    for name in ("quad_hilbert(8)", "palmer_poly(8)"):
        prob = get_problem(name)
        report, trace = run_with_trace(prob)
        entered = sum(rec.entered_rqn for rec in trace)
        exited = sum(rec.exited_rqn for rec in trace)
        converged = report.status is Status.CONVERGED and \
            report.final_gnorm_inf <= 1e-6
        ablation = run_with_trace(prob, rqn_enabled=False)[0]
        ratio = ablation.n_g / report.n_g
        this_ok = entered >= 1 and exited >= 1 and converged and ratio >= 1.2
        ok = ok and this_ok
        details.append(f"{name}: entered={entered} exited={exited} "
                       f"converged={converged} ablation-n_g ratio={ratio:.2f}")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_convergence_coverage(suite_runs):
    results, elapsed = suite_runs
    total = len(results)
    converged = sum(report.status is Status.CONVERGED
                    and report.final_gnorm_inf <= 1e-6
                    for _, report, _ in results.values())
    ok = converged / total >= 0.95 and elapsed < 600.0
    _verdict(7, ok, f"{converged}/{total} problems converged to 1e-6 "
                    f"within the 200000-iteration cap in {elapsed:.1f}s")


def test_criterion_8_baseline_sanity():
    # finite termination of the conjugate-gradient baseline
    params = SolverParams(sigma_wolfe=1e-4)
    ft_ok = True
    for n in (2, 4, 6, 8, 10):
        lam = np.linspace(1.0, 3.0, n)
        prob = Problem(f"q{n}", n, lambda x, lam=lam: 0.5 * float(x @ (lam * x)),
                       lambda x, lam=lam: lam * x, np.ones(n))
        rep = run_baseline(BaselineKind(BaselineTag.HS_CG), prob, params)
        ft_ok = ft_ok and rep.status is Status.CONVERGED and rep.n_iter <= n + 1

    # two-loop recursion equals the dense inverse application
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, 6))
        s_list, y_list, pairs = [], [], PairMemory()
        for _ in range(m):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0.0:
                y = -y
            s_list.insert(0, s)
            y_list.insert(0, y)
            pairs.push(s, y, float(s @ y), float(y @ y))
        g = rng.standard_normal(n)
        H = (float(s_list[0] @ y_list[0]) / float(y_list[0] @ y_list[0])) * np.eye(n)
        for s, y in zip(reversed(s_list), reversed(y_list)):
            rho = 1.0 / float(s @ y)
            V = np.eye(n) - rho * np.outer(y, s)
            H = V.T @ H @ V + rho * np.outer(s, s)
        d_oracle = -H @ g
        diff = lbfgs_two_loop(g, pairs) - d_oracle
        # 1e-10 relative to the direction scale (random low-curvature pairs
        # can make the inverse, and hence both outputs, arbitrarily large)
        worst = max(worst, float(np.max(np.abs(diff)))
                    / max(1.0, float(np.max(np.abs(d_oracle)))))
    tl_ok = worst <= 1e-10
    ok = ft_ok and tl_ok
    _verdict(8, ok, f"HS finite termination on quadratics up to n=10: {ft_ok}; "
                    f"two-loop vs dense oracle worst diff {worst:.2e}")


def test_criterion_9_gradient_oracle():
    bad = []
    for spec in registry():
        report = verify_gradients(spec, n_points=10)
        if not report.ok:
            bad.append(spec.name)
    ok = not bad
    _verdict(9, ok, f"all {len(registry())} problems pass the finite-difference "
                    f"check at 10 points each" + (f"; failures: {bad}" if bad else ""))


def test_criterion_10_determinism(tmp_path):
    cfg = parse_config(
        "solvers = rlsmcg, lbfgs, hs\n"
        "problems = sphere(10), quad_hilbert(8), ext_rosenbrock(10)\n"
        "seed = 0\n")
    rows1 = run_matrix(cfg)
    rows2 = run_matrix(cfg)
    stripped1 = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows1]
    stripped2 = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows2]
    ok = stripped1 == stripped2
    _verdict(10, ok, f"two identical configs produced identical CSV content "
                     f"modulo timing ({len(rows1)} rows)")
