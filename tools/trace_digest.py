"""One sha256 per (solver, instance) over every trace record and the report.

    OPENBLAS_NUM_THREADS=1 python tools/trace_digest.py [--perturbed|--dense|--ulp|--scale K]
        [--solver NAME]... SRC_DIR

imports ``rlsmcg`` from ``SRC_DIR`` (a checkout's ``src``), runs every solver
of ``bench.SOLVERS`` with a trace hook on each instance of a suite from that
tree's ``rlsmcg.problems.SUITES``, and prints one line ``solver label digest
n_f n_g`` per run, labelled as the suite labels it, then a ``#`` line with
the run count, the number of runs that converged, the record count and the
n_f and n_g totals.  The suite is ``SUITES["registry"]`` by default,
``SUITES["perturbed"]`` with ``--perturbed``, ``SUITES["dense"]`` with
``--dense`` (the one suite that reaches the driver's -g rescue) and
``SUITES["ulp"]`` with ``--ulp``, run by rlsmcg and ``rlsmcg_norqn`` only:
how far rounding alone spreads the cost of the RQN phase and of its
ablation (the pin of ``quad_hilbert(12)`` moved with rounding once).  With
``--scale K`` it is the registry ``scaled`` by 2^K, run with ``grad_tol =
2^K 1e-6``: the same problems in other units, where a change to a test that
compares unlike units can move steps although it moves none at 2^0.  In
any mode, ``--solver NAME`` (repeatable) runs only the named solvers of
``bench.SOLVERS``, in ``SOLVERS`` order: ``--ulp --solver lbfgs`` is how
far rounding alone spreads the cost of L-BFGS.  A tree without ``SUITES``
is digested by the tool from its own commit.  A digest
covers every ``TraceRecord`` field, taken in name order so that reordering
the dataclass keeps it, with floats and arrays by their bytes, and the
report's ``n_iter``, status, ``x``, ``f`` and ``final_gnorm_inf``.  The
report's evaluation counts are the two columns after the digest, not part
of it.  Two source trees whose outputs are equal took the same steps bit
for bit at the same cost; comparing them is the check of a change meant to
keep every decision.  Equal digests beside lower counts are a change that
took the same steps and evaluated less.  Pin BLAS to one thread: a threaded
reduction may round differently from run to run.  The tool exits with code
2 and an ``error:`` line, before any solve, when ``SRC_DIR/rlsmcg`` holds
no package, when the ``rlsmcg`` it imports does not come from ``SRC_DIR``
(one already imported, or an installed copy), so that it never digests
another tree than the one named, when the tree has no ``SUITES``, when a
``--solver`` is not in its ``SOLVERS``, or when ``scaled`` refuses K.
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
    for name in ("perturbed", "dense", "ulp"):
        mode.add_argument(f"--{name}", dest="suite", action="store_const",
                          const=name, default="registry")
    mode.add_argument("--scale", type=int, metavar="K")
    parser.add_argument("--solver", action="append", metavar="NAME")
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
    try:
        from rlsmcg.problems import SUITES, scaled
    except ImportError:
        print(f"error: no SUITES in {args.src_dir}", file=sys.stderr)
        return 2

    params, suite = None, SUITES[args.suite]()
    names = args.solver or (("rlsmcg", "rlsmcg_norqn") if args.suite == "ulp"
                            else SOLVERS)
    unknown = sorted(set(names) - set(SOLVERS))
    if unknown:
        print(f"error: no solver {', '.join(unknown)} in bench.SOLVERS "
              f"({', '.join(SOLVERS)})", file=sys.stderr)
        return 2
    solvers = {name: solve for name, solve in SOLVERS.items() if name in names}
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
