"""Benchmark harness: solver-by-problem matrices, performance profiles, traces.

The command line has three subcommands::

    bench run --config benchmark.cfg
    bench profile --metric ng --in results.csv --out profile.csv
    bench trace --solver rlsmcg --problem "quad_hilbert(8)"

Config files are flat key-value text (``key = value``, ``#`` comments).
Recognized keys: ``solvers`` and ``problems`` (comma-separated lists),
``out``, ``repetitions``, and any solver parameter name as an override
(e.g. ``grad_tol = 1e-8``).  A ``seed`` key is accepted and ignored: runs
are deterministic, so the same config reproduces every column except the
two timings (``wall_time_s`` and ``us_per_iter``).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from . import solver
from .baselines import BaselineKind, BaselineTag, run_baseline
from .core import INT_PARAMS, Problem, RunReport, SolverParams, Status, _is_count
from .problems import get_problem

RESULT_HEADER = ["solver", "problem", "dim", "n_iter", "n_f", "n_g",
                 "wall_time_s", "status", "final_gnorm_inf"]
# the wall time per iteration in microseconds, which ``write_results_csv``
# appends; a results file from elsewhere may carry it or not
PER_ITER_COLUMN = "us_per_iter"
TRACE_HEADER = ["k", "case", "alpha", "gnorm_inf", "Ck", "state", "mu"]

# every solver, called as solve(problem, params, trace_hook=hook)
SOLVERS = {
    "rlsmcg": solver.run,
    "rlsmcg_norqn": partial(solver.run, rqn_enabled=False),
    "hs": partial(run_baseline, BaselineKind(BaselineTag.HS_CG)),
    "lbfgs": partial(run_baseline, BaselineKind(BaselineTag.LBFGS)),
}

_METRICS = {"niter": "n_iter", "nf": "n_f", "ng": "n_g", "time": "wall_time_s",
            "n_iter": "n_iter", "n_f": "n_f", "n_g": "n_g",
            "wall_time_s": "wall_time_s"}


class ConfigError(ValueError):
    pass


@dataclass
class BenchConfig:
    solvers: List[str]
    problems: List[str]
    out: str = "results.csv"
    repetitions: int = 1
    param_overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.solvers:
            raise ConfigError("no solvers listed")
        if not self.problems:
            raise ConfigError("no problems listed")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ConfigError(f"unknown solver {s!r} (choose from {tuple(SOLVERS)})")
        if not _is_count(self.repetitions):
            raise ConfigError("repetitions must be an integer >= 1, "
                              f"got {self.repetitions!r}")

    def params(self) -> SolverParams:
        return _solver_params(self.param_overrides)


def _solver_params(overrides: Dict[str, object]) -> SolverParams:
    """SolverParams with the overrides; ConfigError for a rejected value."""
    try:
        return SolverParams(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter override: {exc}") from exc


def _resolve_problem(name: str) -> Problem:
    """The problem ``name`` gives; ConfigError for a bad name or dimension."""
    try:
        return get_problem(name)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from exc


_PARAM_FIELDS = {f.name: f for f in dc_fields(SolverParams)}


def _number(convert, key: str, value: str, lineno: int):
    try:
        return convert(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be of type "
                          f"{convert.__name__}, got {value!r}") from None


def parse_config(text: str) -> BenchConfig:
    """Parse the flat key-value grammar into a BenchConfig."""
    solvers: List[str] = []
    problems: List[str] = []
    kwargs: Dict[str, object] = {}
    overrides: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "solvers":
            solvers = [s.strip() for s in value.split(",") if s.strip()]
        elif key == "problems":
            problems = [s.strip() for s in value.split(",") if s.strip()]
        elif key == "out":
            kwargs["out"] = value
        elif key == "repetitions":
            kwargs["repetitions"] = _number(int, key, value, lineno)
        elif key == "seed":
            pass  # runs are deterministic; older configs still carry the key
        elif key in _PARAM_FIELDS:
            overrides[key] = _number(int if key in INT_PARAMS else float,
                                     key, value, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return BenchConfig(solvers=solvers, problems=problems,
                       param_overrides=overrides, **kwargs)


def run_matrix(cfg: BenchConfig) -> List[dict]:
    """One row per (solver, problem); all names resolved before any run starts."""
    params = cfg.params()
    resolved = [_resolve_problem(name) for name in cfg.problems]
    rows = []
    for solver_name in cfg.solvers:
        for problem in resolved:
            best: Optional[RunReport] = None
            for _ in range(cfg.repetitions):
                rep = SOLVERS[solver_name](problem, params)
                if best is None or rep.wall_time < best.wall_time:
                    best = rep
            rows.append({
                "solver": solver_name, "problem": problem.name,
                "dim": problem.dim, "n_iter": best.n_iter, "n_f": best.n_f,
                "n_g": best.n_g, "wall_time_s": best.wall_time,
                "status": best.status.value,
                "final_gnorm_inf": best.final_gnorm_inf,
            })
    rows.sort(key=lambda r: (r["solver"], r["problem"]))
    return rows


def write_results_csv(rows: List[dict], path: str) -> None:
    """The rows under RESULT_HEADER and the column ``us_per_iter``,
    wall_time_s / max(n_iter, 1) in microseconds."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh,
                                fieldnames=RESULT_HEADER + [PER_ITER_COLUMN])
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["wall_time_s"] = f"{row['wall_time_s']:.6f}"
            out["final_gnorm_inf"] = f"{row['final_gnorm_inf']:.6e}"
            us = 1e6 * row["wall_time_s"] / max(row["n_iter"], 1)
            out[PER_ITER_COLUMN] = f"{us:.3f}"
            writer.writerow(out)


def _probe_writable(path: str) -> None:
    """Open ``path`` for appending, so that an ``out`` that cannot be written
    fails before any solve; a file the probe creates is removed again."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


# each numeric column's type and least value; a value must be finite, but
# a run whose start is not finite writes a ``final_gnorm_inf`` of nan
_NUMERIC_COLUMNS = {"dim": (int, 1), "n_iter": (int, 0), "n_f": (int, 0),
                    "n_g": (int, 0), "wall_time_s": (float, 0.0),
                    "final_gnorm_inf": (float, 0.0), PER_ITER_COLUMN: (float, 0.0)}


def _column_value(key: str, value: str):
    convert, least = _NUMERIC_COLUMNS[key]
    number = convert(value)
    if least <= number < math.inf or (key == "final_gnorm_inf" and math.isnan(number)):
        return number
    raise ValueError


def read_results_csv(path: str) -> List[dict]:
    """The rows ``write_results_csv`` wrote, with or without ``us_per_iter``;
    ConfigError naming the line and column of a value that is missing, does
    not parse, or is out of range: a count below 0, a ``dim`` below 1, a
    time or gradient norm that is negative or not finite, or a ``status``
    that is no ``Status`` value."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = list(RESULT_HEADER)
        if PER_ITER_COLUMN in (reader.fieldnames or ()):
            columns.append(PER_ITER_COLUMN)
        rows = []
        for row in reader:
            for key in columns:
                value = row.get(key)
                try:
                    if value is None:  # a short row, or no such column
                        raise ValueError
                    if key in _NUMERIC_COLUMNS:
                        row[key] = _column_value(key, value)
                    elif key == "status":
                        Status(value)
                except ValueError:
                    raise ConfigError(f"{path}, line {reader.line_num}: "
                                      f"missing or malformed {key!r}: "
                                      f"{value!r}") from None
            rows.append(row)
    return rows


def performance_profile(rows: List[dict], metric: str,
                        n_grid: int = 64) -> tuple:
    """Dolan-More style curves: fraction of problems within a factor tau of the best.

    Returns (taus, {solver: rho array}).  Unsolved cells count as infinite
    ratios; a problem no solver finished stays in the denominator with them
    (the Dolan-More convention), named in a warning on stderr.
    """
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r} (choose from "
                          f"{sorted(set(_METRICS))})")
    column = _METRICS[metric]
    solvers = sorted({r["solver"] for r in rows})
    problems = sorted({r["problem"] for r in rows})
    ratios: Dict[str, List[float]] = {s: [] for s in solvers}
    any_solved = 0
    for prob in problems:
        cells = {r["solver"]: r for r in rows if r["problem"] == prob}
        vals = {}
        for s in solvers:
            row = cells.get(s)
            if row is None or row["status"] != Status.CONVERGED.value:
                vals[s] = math.inf
            else:
                vals[s] = max(float(row[column]), 1e-16)
        best = min(vals.values())
        if math.isinf(best):
            # no ratios exist; the problem still counts in the denominator
            print(f"warning: problem {prob} unsolved by every solver; kept in "
                  "the denominator with infinite ratios", file=sys.stderr)
            for s in solvers:
                ratios[s].append(math.inf)
            continue
        any_solved += 1
        for s in solvers:
            ratios[s].append(vals[s] / best)
    if any_solved == 0:
        raise ConfigError("no problem was solved by any solver")
    total = len(problems)
    finite = [r for rs in ratios.values() for r in rs if math.isfinite(r)]
    r_max = max(finite)
    if r_max <= 1.0:
        taus = np.array([1.0])
    else:
        taus = np.geomspace(1.0, r_max, n_grid)
        taus[0] = 1.0
    curves = {}
    for s in solvers:
        arr = np.array(ratios[s])
        curves[s] = np.array([np.count_nonzero(arr <= t) / total for t in taus])
    return taus, curves


def write_profile_csv(taus, curves: Dict[str, np.ndarray], path: str) -> None:
    solvers = sorted(curves)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau"] + solvers)
        for i, tau in enumerate(taus):
            writer.writerow([f"{tau:.10g}"] + [f"{curves[s][i]:.6f}" for s in solvers])


def gnuplot_script(profile_csv: str, metric: str, solvers: List[str]) -> str:
    lines = [
        "set datafile separator ','",
        "set key bottom right",
        "set logscale x",
        f"set xlabel 'tau ({metric})'",
        "set ylabel 'fraction of problems'",
        "set yrange [0:1.05]",
    ]
    plots = [f"'{profile_csv}' using 1:{i + 2} with steps title '{s}'"
             for i, s in enumerate(sorted(solvers))]
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"


def write_trace_csv(records: List[solver.TraceRecord], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(TRACE_HEADER)
    for rec in records:
        writer.writerow([rec.k, rec.case_tag.value, f"{rec.alpha:.10g}",
                         f"{rec.gnorm_inf:.6e}", f"{rec.Ck:.10g}",
                         rec.state.value, f"{rec.mu:.6g}"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench",
                                     description="solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver-by-problem matrix")
    p_run.add_argument("--config", required=True, help="flat key-value config file")

    p_prof = sub.add_parser("profile", help="compute performance-profile curves")
    p_prof.add_argument("--metric", required=True)
    p_prof.add_argument("--in", dest="input", required=True)
    p_prof.add_argument("--out", required=True)
    p_prof.add_argument("--gnuplot", default=None,
                        help="also emit a gnuplot script here")

    p_tr = sub.add_parser("trace", help="per-iteration trace of one run")
    p_tr.add_argument("--solver", required=True, choices=tuple(SOLVERS))
    p_tr.add_argument("--problem", required=True)
    p_tr.add_argument("--out", default=None, help="trace CSV path (default stdout)")
    p_tr.add_argument("--max-iter", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
            _probe_writable(cfg.out)
            rows = run_matrix(cfg)
            write_results_csv(rows, cfg.out)
            n_conv = sum(r["status"] == Status.CONVERGED.value for r in rows)
            print(f"wrote {len(rows)} rows to {cfg.out} ({n_conv} converged)")
            return 0
        if args.command == "profile":
            rows = read_results_csv(args.input)
            taus, curves = performance_profile(rows, args.metric)
            write_profile_csv(taus, curves, args.out)
            if args.gnuplot:
                with open(args.gnuplot, "w") as fh:
                    fh.write(gnuplot_script(args.out, args.metric, list(curves)))
            print(f"wrote profile ({len(taus)} grid points) to {args.out}")
            return 0
        if args.command == "trace":
            problem = _resolve_problem(args.problem)
            params = _solver_params({} if args.max_iter is None else
                                   {"max_iter": args.max_iter})
            records: List[solver.TraceRecord] = []
            SOLVERS[args.solver](problem, params, trace_hook=records.append)
            if args.out:
                with open(args.out, "w", newline="") as fh:
                    write_trace_csv(records, fh)
                print(f"wrote {len(records)} trace rows to {args.out}")
            else:
                write_trace_csv(records, sys.stdout)
            return 0
    except (ConfigError, OSError) as exc:  # OSError: a file read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
