"""One sha256 per (solver, instance) over every trace record and the report.

    OPENBLAS_NUM_THREADS=1 python tools/trace_digest.py [--perturbed|--dense|--scale K] SRC_DIR

imports ``rlsmcg`` from ``SRC_DIR`` (a checkout's ``src``), runs every solver
of ``bench.SOLVERS`` on every registry instance with a trace hook, and prints
one line ``solver instance digest`` per run, then a ``#`` line with the run
and record counts.  With ``--perturbed`` it runs each instance from the five
perturbed starts of ``perturbed_start`` instead, and prints ``solver
instance j digest`` per run.  With ``--dense`` it runs the 15 dense
quadratics of ``dense_quadratic`` instead, and prints ``solver
dense_quad(n) seed digest`` per run: neither the registry nor the perturbed
starts ever reach the driver's -g rescue, and these do.  With ``--scale K``
it runs every registry instance with f and g multiplied by 2^K (``scaled``)
and ``grad_tol = 2^K 1e-6``, and prints the lines of the plain mode: the
same problems in other units, where a change to a test that compares
unlike units can move steps although it moves none at 2^0.  A digest
covers every ``TraceRecord`` field, taken in name order so that reordering
the dataclass keeps it, with floats and arrays by their bytes, and the
report's counts, status, ``x``, ``f`` and ``final_gnorm_inf``.  Two source
trees whose outputs are equal took the same steps bit for bit; comparing
them is the check of a change meant to keep every decision.  Pin BLAS to
one thread: a threaded reduction may round differently from run to run.
The tool exits with code 2 and an ``error:`` line, before any solve, when
``SRC_DIR/rlsmcg`` holds no package or when the ``rlsmcg`` it imports does
not come from ``SRC_DIR`` (one already imported, or an installed copy), so
that it never digests another tree than the one named.
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
    """(hex digest, record count) of one traced ``solve`` of ``problem``."""
    records = []
    report = solve(problem, params, trace_hook=records.append)
    h = hashlib.sha256()
    for rec in records:
        for name in sorted(f.name for f in dataclasses.fields(rec)):
            _feed(h, name, getattr(rec, name))
    for name in ("n_iter", "n_f", "n_g", "status", "x", "f", "final_gnorm_inf"):
        _feed(h, "report." + name, getattr(report, name))
    return h.hexdigest(), len(records)


# the seeds j of the perturbed starts
PERTURBED_SEEDS = range(1, 6)


def perturbed_start(x0: np.ndarray, j: int) -> np.ndarray:
    """Start j of the perturbed suite: x0 + 1e-3 (1 + |x0|) N(0, 1), with the
    normal draws from ``numpy.random.default_rng(j)``.  A standard start that
    repeats one block makes every block follow the same path; these starts
    break that symmetry."""
    noise = np.random.default_rng(j).standard_normal(x0.size)
    return x0 + 1e-3 * (1.0 + np.abs(x0)) * noise


# the sizes n and generator seeds of the dense quadratics
DENSE_SIZES = (50, 100, 200, 300, 500)
DENSE_SEEDS = range(3)


def dense_quadratic(n: int, seed: int) -> tuple:
    """(A, b) of f = x'Ax/2 - b'x with A = Q diag(logspace(-4, 0, n)) Q', Q
    Haar-random (the QR of a Gaussian matrix with R's diagonal made
    positive) and b ~ N(0, 1), all drawn from ``default_rng(seed)``.  The
    runs start at 0, so the minimizer lies far out along the small
    eigenvalues, |f| grows large, and the last decreases compete with its
    rounding: the regime where searches hit their cap and get rescued."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    A = (Q * np.logspace(-4.0, 0.0, n)) @ Q.T
    A = 0.5 * (A + A.T)
    return A, rng.standard_normal(n)


def dense_cases(Problem) -> list:
    """(label, problem) of every dense quadratic, built as ``Problem``."""
    cases = []
    for n in DENSE_SIZES:
        for seed in DENSE_SEEDS:
            A, b = dense_quadratic(n, seed)
            cases.append((f"dense_quad({n}) {seed}", Problem(
                f"dense_quad({n})", n,
                lambda x, A=A, b=b: 0.5 * float(x @ (A @ x)) - float(b @ x),
                lambda x, A=A, b=b: A @ x - b, np.zeros(n))))
    return cases


def scaled(problem, k: int):
    """``problem`` with f and g multiplied by 2^k.  The product is exact in
    float64 barring overflow and underflow, so this is the same problem in
    other units."""
    c = math.ldexp(1.0, k)
    return dataclasses.replace(problem, eval_f=lambda x: c * problem.eval_f(x),
                               eval_g=lambda x: c * problem.eval_g(x))


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="trace_digest.py")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--perturbed", action="store_true")
    mode.add_argument("--dense", action="store_true")
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
    from rlsmcg import Problem, SolverParams, registry
    from rlsmcg.bench import SOLVERS

    params = None
    if args.dense:
        suite = dense_cases(Problem)
    else:
        suite = [(spec.name, spec.make()) for spec in registry()]
        if args.perturbed:
            suite = [(f"{name} {j}", dataclasses.replace(
                problem, x0=perturbed_start(problem.x0, j)))
                for name, problem in suite for j in PERTURBED_SEEDS]
        elif args.scale is not None:
            suite = [(name, scaled(problem, args.scale)) for name, problem in suite]
            params = SolverParams(grad_tol=math.ldexp(1e-6, args.scale))
    runs = records = 0
    for solver_name, solve in SOLVERS.items():
        for label, problem in suite:
            hexdigest, count = digest(solve, problem, params)
            print(solver_name, label, hexdigest)
            runs += 1
            records += count
    print(f"# {runs} runs, {records} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
