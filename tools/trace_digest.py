"""One sha256 per (solver, instance) over every trace record and the report.

    OPENBLAS_NUM_THREADS=1 python tools/trace_digest.py [--perturbed|--dense|--ulp|--scale K] SRC_DIR

imports ``rlsmcg`` from ``SRC_DIR`` (a checkout's ``src``), runs every solver
of ``bench.SOLVERS`` with a trace hook on each instance of a suite from that
tree's ``rlsmcg.problems``, and prints one line ``solver label digest n_f n_g``
per run, then a ``#`` line with the run count, the number of runs that
converged, the record count and the n_f and n_g totals.  The suite is
``registry()``, labelled by instance name; with ``--perturbed`` it is
``perturbed_registry()``, labelled ``instance j``; with ``--dense`` it is
``dense_quadratic(n, seed)`` over ``DENSE_SIZES`` and ``DENSE_SEEDS``,
labelled ``dense_quad(n) seed``, the one suite that reaches the driver's -g
rescue; with ``--ulp`` it is ``palmer_poly(8)``, ``quad_hilbert(8)`` and
``quad_hilbert(12)`` from the ``ulp_start`` starts of ``ULP_STARTS``,
labelled ``instance j`` and run by rlsmcg and ``rlsmcg_norqn`` only: how far
rounding alone spreads the cost of the RQN phase and of its ablation (the
pin of ``quad_hilbert(12)`` moved with rounding once); with ``--scale K`` it
is the registry ``scaled`` by 2^K, run with ``grad_tol = 2^K 1e-6``: the
same problems in other units, where a change to a test that compares unlike
units can move steps although it moves none at 2^0.  A tree from before the suites moved
into ``rlsmcg.problems`` is digested by the tool from its own commit.  A
digest covers every
``TraceRecord`` field, taken in name order so that reordering the dataclass
keeps it, with floats and arrays by their bytes, and the report's
``n_iter``, status, ``x``, ``f`` and ``final_gnorm_inf``.  The report's
evaluation counts are the two columns after the digest, not part of it.
Two source trees whose outputs are equal took the same steps bit for bit
at the same cost; comparing them is the check of a change meant to keep
every decision.  Equal digests beside lower counts are a change that
took the same steps and evaluated less.  Pin BLAS to one thread: a
threaded reduction may round differently from run to run.  The tool exits
with code 2 and an ``error:`` line, before any solve, when ``SRC_DIR/rlsmcg``
holds no package, when the ``rlsmcg`` it imports does not come from
``SRC_DIR`` (one already imported, or an installed copy), so that it never
digests another tree than the one named, when ``scaled`` refuses K, or with
``--ulp`` when the tree has no ``ulp_start``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import struct
import sys
from enum import Enum
from pathlib import Path

import numpy as np


ULP_INSTANCES = ("palmer_poly(8)", "quad_hilbert(8)", "quad_hilbert(12)")


def _encode(value) -> bytes:
    """The bytes of one field value, tagged by kind so that no two kinds
    of value collide."""
    if value is None:
        return b"N"
    if isinstance(value, Enum):
        return b"E" + str(value.value).encode()
    if isinstance(value, (bool, np.bool_)):
        return b"B1" if value else b"B0"
    if isinstance(value, (int, np.integer)):
        return b"I" + str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return b"F" + struct.pack("<d", float(value))
    if isinstance(value, np.ndarray):
        return (b"A" + value.dtype.str.encode() + repr(value.shape).encode()
                + np.ascontiguousarray(value).tobytes())
    raise TypeError(f"no encoding for {type(value).__name__}")


def _feed(h, name: str, value) -> None:
    chunk = _encode(value)
    h.update(name.encode() + b"=" + struct.pack("<Q", len(chunk)) + chunk)


def digest(solve, problem, params=None) -> tuple:
    """(hex digest, record count, n_f, n_g, converged) of one traced
    ``solve`` of ``problem``; the digest leaves out the two counts.
    ``converged`` reads the status by its value, which every tree's
    ``Status`` shares."""
    records = []
    report = solve(problem, params, trace_hook=records.append)
    h = hashlib.sha256()
    for rec in records:
        for name in sorted(f.name for f in dataclasses.fields(rec)):
            _feed(h, name, getattr(rec, name))
    for name in ("n_iter", "status", "x", "f", "final_gnorm_inf"):
        _feed(h, "report." + name, getattr(report, name))
    return (h.hexdigest(), len(records), report.n_f, report.n_g,
            report.status.value == "converged")


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="trace_digest.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--perturbed", action="store_true")
    mode.add_argument("--dense", action="store_true")
    mode.add_argument("--ulp", action="store_true")
    mode.add_argument("--scale", type=int, metavar="K")
    parser.add_argument("src_dir")
    args = parser.parse_args(argv[1:])
    src = Path(args.src_dir).resolve()
    if not (src / "rlsmcg" / "__init__.py").is_file():
        print(f"error: no library source at {args.src_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src_dir)
    import rlsmcg
    if not Path(rlsmcg.__file__).resolve().is_relative_to(src):
        print(f"error: imported {rlsmcg.__file__}, not the library under "
              f"{args.src_dir}", file=sys.stderr)
        return 2
    from rlsmcg import SolverParams
    from rlsmcg.bench import SOLVERS
    from rlsmcg.problems import (DENSE_SEEDS, DENSE_SIZES, dense_quadratic,
                                 get_problem, perturbed_registry, registry,
                                 scaled)

    params, solvers = None, SOLVERS
    if args.ulp:
        try:
            from rlsmcg.problems import ULP_STARTS, ulp_start
        except ImportError:
            print(f"error: no ulp_start in {args.src_dir}", file=sys.stderr)
            return 2
        suite = []
        for name in ULP_INSTANCES:
            problem = get_problem(name)
            suite += [(f"{name} {j}", dataclasses.replace(
                problem, x0=ulp_start(problem.x0, j))) for j in ULP_STARTS]
        solvers = {name: SOLVERS[name] for name in ("rlsmcg", "rlsmcg_norqn")}
    elif args.dense:
        suite = [(f"dense_quad({n}) {seed}", dense_quadratic(n, seed))
                 for n in DENSE_SIZES for seed in DENSE_SEEDS]
    elif args.perturbed:
        suite = [(f"{spec.name} {j}", spec.make()) for spec, j in perturbed_registry()]
    else:
        suite = [(spec.name, spec.make()) for spec in registry()]
    if args.scale is not None:
        try:
            suite = [(name, scaled(problem, args.scale)) for name, problem in suite]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        params = SolverParams(grad_tol=math.ldexp(1e-6, args.scale))
    runs = converged = records = n_f = n_g = 0
    for solver_name, solve in solvers.items():
        for label, problem in suite:
            hexdigest, count, run_f, run_g, done = digest(solve, problem, params)
            print(solver_name, label, hexdigest, run_f, run_g)
            runs += 1
            converged += done
            records += count
            n_f += run_f
            n_g += run_g
    print(f"# {runs} runs, {converged} converged, {records} records, "
          f"n_f {n_f}, n_g {n_g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
