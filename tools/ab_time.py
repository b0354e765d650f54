"""Interleaved A/B timing of solves from two source trees, in one process.

    OPENBLAS_NUM_THREADS=1 python tools/ab_time.py [--solves N] [--repeats R] SRC_A SRC_B CELL...

loads the ``rlsmcg`` of each source tree (a checkout's ``src``) under its
own package name, so that both run in one interpreter on the same numpy.
A CELL is ``solver:family(dim)``, with a solver of ``bench.SOLVERS``, for
example ``hs:ext_rosenbrock(10)``.  Each cell is first solved once by each
tree; a cell whose ``(n_iter, n_f, n_g, status)`` differ between the trees
is refused, and the tool exits with code 2 before it times anything, since
µs per iteration compares only runs that take the same iterations.  Then,
in each of R repeats, it solves every cell N times with each tree,
alternating which tree solves first, and prints one line per cell and
repeat: the median µs per iteration of A and of B and their ratio B/A.
Timing is wall time around the whole solve at the default parameters.
The same cell from the same tree drifts by up to 2x between runs on a
shared host, and interleaving is what keeps the ratio meaningful.  Pin
BLAS to one thread, as the other tools do.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import platform
import re
import statistics
import sys
from pathlib import Path
from time import perf_counter

_CELL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):(.+)$")


def load_tree(src_dir: str, name: str):
    """The ``rlsmcg`` package of ``src_dir`` imported as ``name``, with its
    ``bench`` submodule loaded; None when ``src_dir`` holds no package."""
    init = Path(src_dir) / "rlsmcg" / "__init__.py"
    if not init.is_file():
        return None
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".bench")
    return module


def cell_runs(cell: str, trees) -> list:
    """(solve, problem) of ``cell`` in each tree; KeyError when the cell is
    malformed or names no solver or problem there, ValueError when the
    family refuses its dimension."""
    m = _CELL_RE.match(cell)
    if not m:
        raise KeyError(f"cell {cell!r} is not of the form solver:family(dim)")
    solver, name = m.groups()
    runs = []
    for tree in trees:
        solvers = tree.bench.SOLVERS
        if solver not in solvers:
            raise KeyError(f"unknown solver {solver!r} (choose from {tuple(solvers)})")
        runs.append((solvers[solver], tree.get_problem(name)))
    return runs


def us_per_iter(solve, problem) -> float:
    """µs per iteration of one solve."""
    start = perf_counter()
    report = solve(problem)
    return 1e6 * (perf_counter() - start) / max(report.n_iter, 1)


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="ab_time.py")
    parser.add_argument("--solves", type=int, default=30,
                        help="solves per tree, cell and repeat (default 30)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats of every cell (default 3)")
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("cells", nargs="+", metavar="CELL")
    args = parser.parse_args(argv[1:])
    if args.solves < 1 or args.repeats < 1:
        print("error: --solves and --repeats must be at least 1", file=sys.stderr)
        return 2

    trees = []
    for src_dir, name in ((args.src_a, "rlsmcg_ab_a"), (args.src_b, "rlsmcg_ab_b")):
        tree = load_tree(src_dir, name)
        if tree is None:
            print(f"error: no library source at {src_dir}", file=sys.stderr)
            return 2
        trees.append(tree)

    cells = []
    for cell in args.cells:
        try:
            runs = cell_runs(cell, trees)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        first = [(r.n_iter, r.n_f, r.n_g, r.status.value)
                 for r in (solve(problem) for solve, problem in runs)]
        if first[0] != first[1]:
            print(f"error: {cell}: (n_iter, n_f, n_g, status) {first[0]} in A, "
                  f"{first[1]} in B", file=sys.stderr)
            return 2
        cells.append((cell, runs))

    import numpy
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"{args.solves} solves per tree, cell and repeat")
    print(f"{'cell':32s} {'repeat':>6s} {'A us/it':>9s} {'B us/it':>9s} {'B/A':>7s}")
    for repeat in range(1, args.repeats + 1):
        for cell, runs in cells:
            times = ([], [])
            for j in range(args.solves):
                order = (0, 1) if j % 2 == 0 else (1, 0)
                for t in order:
                    times[t].append(us_per_iter(*runs[t]))
            a, b = (statistics.median(ts) for ts in times)
            print(f"{cell:32s} {repeat:6d} {a:9.1f} {b:9.1f} {b / a:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
