"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload stall --seed 0 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.  The process is single
threaded: BLAS is pinned to one thread before numpy is loaded.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Earlier lines of standard output record the environment (and, when
traced, a per-solve telemetry table); the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from spans import Trace  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (GRAD_TOL, WORKLOADS, build_problems,  # noqa: E402
                       make_inputs)

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 30


def import_library():
    """Import ``rlsmcg`` fresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "rlsmcg" or m.startswith("rlsmcg.")]:
        del sys.modules[name]
    return importlib.import_module("rlsmcg")


def timed_setup(workload, objectives):
    """Import the library and construct the workload's problems.

    Returns the start and end time of the set-up, the module and the problems.
    """
    start = perf_counter()
    rl = import_library()
    problems = build_problems(rl, workload, objectives)
    return (start, perf_counter()), rl, problems


def solve(rl, solver, problem, trace=None):
    """One solve through the public entry points; spans and hooks when traced."""
    params = rl.SolverParams(grad_tol=GRAD_TOL)
    if solver == "rlsmcg":
        run = rl.run if trace is None else trace.wrap("solver", rl.run)
        hook = None if trace is None else trace.rlsmcg_hook
        return run(problem, params, trace_hook=hook)
    tag = {"hs": rl.BaselineTag.HS_CG, "lbfgs": rl.BaselineTag.LBFGS}[solver]
    run = rl.run_baseline if trace is None else trace.wrap("baselines", rl.run_baseline)
    hook = None if trace is None else trace.baseline_hook
    return run(rl.BaselineKind(tag), problem, params, trace_hook=hook)


def sweep(rl, cells, trace=None):
    """Every (solver, problem) cell once: (start, end) and report (or exception) each."""
    out = []
    for solver, problem in cells:
        start = perf_counter()
        try:
            result = solve(rl, solver, problem, trace)
        except Exception as exc:  # a raising solve is a failed operation, not a crash
            result = exc
        out.append(((start, perf_counter()), result))
        if trace is not None:
            trace.end_solve((solver, problem.name))
    return out


def measure(rl, cells, seconds, trace=None):
    """Sweep until ``seconds`` have passed (at least once).

    Returns per-cell lists of (start, end) intervals, the outcome key of
    each cell (None when two sweeps disagreed on a count or status) and the
    last sweep.
    """
    times = [[] for _ in cells]
    keys = None
    stable = True
    start = perf_counter()
    while True:
        results = sweep(rl, cells, trace)
        sweep_keys = [outcome_key(r) for _, r in results]
        stable = stable and (keys is None or sweep_keys == keys)
        keys = sweep_keys
        for cell_times, (interval, _) in zip(times, results):
            cell_times.append(interval)
        if perf_counter() - start >= seconds:
            return times, keys if stable else None, results


def outcome_key(result):
    if isinstance(result, Exception):
        return ("error", type(result).__name__)
    return (result.n_iter, result.n_f, result.n_g, result.status.value)


def independent_check(problem, result) -> bool:
    """A converged report must hold up outside the solver's own counters."""
    x = np.asarray(result.x, dtype=float)
    g = np.asarray(problem.eval_g(x), dtype=float)
    f = float(problem.eval_f(x))
    return (bool(np.all(np.isfinite(g))) and float(np.max(np.abs(g))) <= GRAD_TOL
            and np.isfinite(f) and f <= float(problem.eval_f(problem.x0)))


def anchor_mismatches(workload, names, cells, keys):
    """Standard-start cells must match what ``rlsmcg.bench.run_matrix`` reports."""
    if not names:
        return []
    bench = importlib.import_module("rlsmcg.bench")
    cfg = bench.BenchConfig(solvers=list(workload.solvers), problems=list(names),
                            param_overrides={"grad_tol": GRAD_TOL})
    ours = {(s, p.name): key for (s, p), key in zip(cells, keys)}
    bad = []
    for row in bench.run_matrix(cfg):
        cell = (row["solver"], row["problem"])
        theirs = (row["n_iter"], row["n_f"], row["n_g"], row["status"])
        if ours[cell] != theirs:
            bad.append((*cell, ours[cell], theirs))
    return bad


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "machine": platform.machine()}


def median_wall(times):
    """Seconds for one sweep: the sum over cells of each cell's median time."""
    return sum(statistics.median(t) for t in times)


def seconds(intervals, probe=None):
    """Raw seconds of each (start, end), or seconds at reference speed."""
    if probe is None:
        return [end - start for start, end in intervals]
    return [probe.scaled_s(start, end) for start, end in intervals]


def end_to_end_metrics(setup_s, times, results, solved):
    reports = [r for _, r in results if not isinstance(r, Exception)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_wall(times), "s"),
        "n_iter": (sum(r.n_iter for r in reports), "count"),
        "n_f": (sum(r.n_f for r in reports), "count"),
        "n_g": (sum(r.n_g for r in reports), "count"),
        "solved_frac": (sum(solved) / len(solved), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(trace, sweeps, cells, results, plain_times, traced_times):
    """Span figures per traced sweep, plus telemetry and per-iteration cost."""
    tel = trace.telemetry_totals()

    def calls(span):
        return trace.calls[span] // sweeps

    def self_s(span):
        return trace.self_s[span] / sweeps

    def ratio(num, base):
        return num / base if base else 0.0

    iters = {"solver": 0, "baselines": 0}
    untraced = {"solver": 0.0, "baselines": 0.0}
    for (solver, _), t, (_, r) in zip(cells, plain_times, results):
        layer = "solver" if solver == "rlsmcg" else "baselines"
        iters[layer] += 0 if isinstance(r, Exception) else r.n_iter
        untraced[layer] += statistics.median(t)
    traced_wall = median_wall(traced_times)
    searches = calls("linesearch.wolfe_search")
    rbfgs = calls("subspace_rqn.rbfgs_update")
    eval_s = self_s("problems.eval_f") + self_s("problems.eval_g")

    m = {
        "problems.eval_f.calls": (calls("problems.eval_f"), "count"),
        "problems.eval_g.calls": (calls("problems.eval_g"), "count"),
        "problems.eval.self_s": (eval_s, "s"),
        "problems.eval.share": (ratio(eval_s, traced_wall), "ratio"),
    }
    for span in ("smcg_direction.smcg_direction", "subspace_rqn.qr_update",
                 "subspace_rqn.orthogonality_lost", "subspace_rqn.orthogonality_restored",
                 "subspace_rqn.rbfgs_update", "subspace_rqn.rqn_direction",
                 "linesearch.wolfe_search", "linesearch.initial_stepsize",
                 "linesearch.bb_fallback_stepsize", "linesearch.ledger_update",
                 "acceleration.accel_criterion", "acceleration.apply_acceleration",
                 "baselines.lbfgs_two_loop"):
        m[span + ".calls"] = (calls(span), "count")
        m[span + ".self_s"] = (self_s(span), "s")
    for case in ("reg_subproblem", "quad_subproblem", "hs", "neg_grad"):
        m["smcg_direction.case." + case] = (tel["case." + case], "count")
    m.update({
        "subspace_rqn.phases_entered": (tel["phases_entered"], "count"),
        "subspace_rqn.rqn_iters": (tel["rqn_iters"], "count"),
        "subspace_rqn.rqn_iter_share": (ratio(tel["rqn_iters"], iters["solver"]), "ratio"),
        "subspace_rqn.longest_phase": (tel["longest_phase"], "count"),
        "subspace_rqn.guard_fallbacks": (tel["guard_fallbacks"], "count"),
        "subspace_rqn.rbfgs_update.reset_ratio": (ratio(tel["rbfgs_resets"], rbfgs), "ratio"),
        "linesearch.wolfe_search.total_s": (trace.total_s["linesearch.wolfe_search"] / sweeps, "s"),
        "linesearch.initial_stepsize.f_evals": (
            trace.child_calls["linesearch.initial_stepsize", "problems.eval_f"] // sweeps, "count"),
        "linesearch.f_per_search": (ratio(
            trace.child_calls["linesearch.wolfe_search", "problems.eval_f"] // sweeps,
            searches), "f/search"),
        "linesearch.wolfe_accept_ratio": (ratio(tel["search.wolfe"], searches), "ratio"),
        "linesearch.max_backtrack": (tel["search.max_backtrack"], "count"),
        "linesearch.rescues": (tel["rescues"], "count"),
        "acceleration.attempts": (tel["accel_attempts"], "count"),
        "acceleration.accepts": (tel["accel_accepts"], "count"),
        "acceleration.accept_ratio": (ratio(tel["accel_accepts"], tel["accel_attempts"]),
                                      "ratio"),
        "solver.n_iter": (iters["solver"], "count"),
        "solver.self_s": (self_s("solver"), "s"),
        "solver.us_per_iter": (1e6 * ratio(untraced["solver"], iters["solver"]), "us"),
        "baselines.n_iter": (iters["baselines"], "count"),
        "baselines.self_s": (self_s("baselines"), "s"),
        "baselines.us_per_iter": (1e6 * ratio(untraced["baselines"], iters["baselines"]),
                                  "us"),
        "trace_overhead_s": (traced_wall - median_wall(plain_times), "s"),
    })
    return m


def print_telemetry(trace, cells, results):
    print("# solver problem n_iter n_g status rqn_iters phases longest guards "
          "rescues accel")
    for (solver, problem), (_, r) in zip(cells, results):
        ev = trace.solves[solver, problem.name]
        status = type(r).__name__ if isinstance(r, Exception) else \
            f"{r.n_iter} {r.n_g} {r.status.value}"
        print(f"# {solver} {problem.name} {status} {ev['rqn_iters']} "
              f"{ev['phases_entered']} {ev['longest_phase']} {ev['guard_fallbacks']} "
              f"{ev['rescues']} {ev['accel_attempts']}/{ev['accel_accepts']}")


def verify(cells, results):
    """Per cell: solved (converged and independently confirmed) and wrong."""
    solved, wrong = [], []
    for (_, problem), (_, r) in zip(cells, results):
        if isinstance(r, Exception):
            solved.append(False)
            wrong.append(True)
        elif r.status.value == "converged":
            ok = independent_check(problem, r)
            solved.append(ok)
            wrong.append(not ok)
        else:  # an honest non-converged status: unsolved, not wrong
            solved.append(False)
            wrong.append(False)
    return solved, wrong


def trace_errors(trace, sweeps, keys, traced_keys):
    """Tracing must not change the program: same outcomes, same evaluations."""
    if traced_keys != keys:
        return ["traced counts differ from untraced counts"]
    n_f = sum(k[1] for k in keys if k[0] != "error")
    n_g = sum(k[2] for k in keys if k[0] != "error")
    if (trace.calls["problems.eval_f"], trace.calls["problems.eval_g"]) != \
            (sweeps * n_f, sweeps * n_g):
        return ["timed evaluations differ from reported n_f/n_g"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rlsmcg" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    objectives = make_inputs(workload, args.seed)
    # The untraced run scales its times by a reference kernel's speed (see
    # speed.py): set-up, an import, by the interpreter kernel, solves by the
    # workload's kernel.  The traced run reports raw times, which kernel
    # samples would pollute.
    setup_probe = None if args.trace else SpeedProbe("python")
    with setup_probe or nullcontext():
        setups = [timed_setup(workload, objectives) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(
        seconds([interval for interval, _, _ in setups], setup_probe))
    _, rl, problems = setups[-1]
    if not Path(rl.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {rl.__file__}, not the checkout's library", file=sys.stderr)
        return 2
    cells = [(s, p) for p in problems for s in workload.solvers]
    print("# env " + json.dumps(environment(), sort_keys=True))

    budget = args.seconds / 2 if args.trace else args.seconds
    probe = None if args.trace else SpeedProbe(workload.speed_kernel)
    with probe or nullcontext():
        intervals, keys, results = measure(rl, cells, budget)
    times = [seconds(cell, probe) for cell in intervals]
    errors = [] if keys is not None else ["counts differ between sweeps"]
    solved, wrong = verify(cells, results)

    if args.trace:
        trace = Trace()
        traced_cells = [(s, trace.timed_problem(rl, p)) for s, p in cells]
        with trace.patched():
            traced_intervals, traced_keys, _ = measure(rl, traced_cells,
                                                       args.seconds - budget, trace)
        traced_times = [seconds(cell) for cell in traced_intervals]
        sweeps = len(traced_times[0])
        errors += trace_errors(trace, sweeps, keys, traced_keys)
        print_telemetry(trace, cells, results)
        metrics = per_layer_metrics(trace, sweeps, cells, results, times, traced_times)
    else:
        metrics = end_to_end_metrics(setup_s, times, results, solved)

    if not errors:
        generated = {name for name, *_ in objectives}
        registry_names = [p.name for p in problems if p.name not in generated]
        errors += [f"anchor {solver} {name}: benchmark {ours} vs run_matrix {theirs}"
                   for solver, name, ours, theirs in
                   anchor_mismatches(workload, registry_names, cells, keys)]
    for message in errors:
        print("error: " + message, file=sys.stderr)

    print(json.dumps({
        "correct": not errors and not any(wrong),
        "attempted": len(cells),
        "failed": sum(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
