"""One sha256 per (solver, instance) over every trace record and the report.

    OPENBLAS_NUM_THREADS=1 python tools/trace_digest.py [--perturbed] SRC_DIR

imports ``rlsmcg`` from ``SRC_DIR`` (a checkout's ``src``), runs every solver
of ``bench.SOLVERS`` on every registry instance with a trace hook, and prints
one line ``solver instance digest`` per run, then a ``#`` line with the run
and record counts.  With ``--perturbed`` it runs each instance from the five
perturbed starts of ``perturbed_start`` instead, and prints ``solver
instance j digest`` per run.  A digest covers every ``TraceRecord`` field,
taken in name order so that reordering the dataclass keeps it, with floats
and arrays by their bytes, and the report's counts, status, ``x``, ``f`` and
``final_gnorm_inf``.  Two source trees whose outputs are equal took the same
steps bit for bit; comparing them is the check of a change meant to keep
every decision.  Pin BLAS to one thread: a threaded reduction may round
differently from run to run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import sys
from enum import Enum

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


def digest(solve, problem) -> tuple:
    """(hex digest, record count) of one traced ``solve`` of ``problem``."""
    records = []
    report = solve(problem, None, trace_hook=records.append)
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


def main(argv) -> int:
    perturbed = len(argv) == 3 and argv[1] == "--perturbed"
    if len(argv) != 2 and not perturbed:
        print("usage: trace_digest.py [--perturbed] SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[-1])
    from rlsmcg import registry
    from rlsmcg.bench import SOLVERS

    runs = records = 0
    for solver_name, solve in SOLVERS.items():
        for spec in registry():
            problem = spec.make()
            cases = [(spec.name, problem)]
            if perturbed:
                cases = [(f"{spec.name} {j}", dataclasses.replace(
                    problem, x0=perturbed_start(problem.x0, j)))
                    for j in PERTURBED_SEEDS]
            for label, start in cases:
                hexdigest, count = digest(solve, start)
                print(solver_name, label, hexdigest)
                runs += 1
                records += count
    print(f"# {runs} runs, {records} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
