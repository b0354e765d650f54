"""Alternating pairs of benchmark runs from two checkouts.

    python tools/ab_bench.py ROOT_A ROOT_B --workload W [--pairs N] [--seconds S] [--first-seed K]

runs ``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` of
checkout ROOT_A and of checkout ROOT_B for pair i = 0 .. N-1, each run in a
process of its own, alternating which checkout runs first (A in even
pairs, B in odd ones), so that a drift of the host's speed falls on both
alike.  The two runs of a pair share a seed, so they solve the same
inputs.  Each pair prints one line: its seed, the checkout that ran first,
both runs' ``wall_s``, the ratio B/A and ``same`` or ``DIFF`` as the runs'
``n_iter``, ``n_f``, ``n_g`` and ``solved_frac`` agree or not.  Then it
prints the median and the quartiles of each checkout's ``wall_s``, the
median ratio B/A, the number of pairs B ran faster and the number whose
counts differ.  The defaults are 10 pairs of 20 s runs from seed 0.

The tool exits with code 2 and an ``error:`` line when a root has no
``perfbench/run.py`` (before any run), when a run exits with an error or
prints no JSON line, or when a run prints ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COUNTS = ("n_iter", "n_f", "n_g", "solved_frac")


class RunError(Exception):
    pass


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run of ``root``'s benchmark, by name;
    RunError when the run fails or is not correct."""
    proc = subprocess.run(
        [sys.executable, str(Path(root) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise RunError(f"{root}, seed {seed}: exit code {proc.returncode}, "
                       f"no JSON line; {proc.stderr.strip()}")
    if result.get("correct") is not True:
        correct = json.dumps(result.get("correct"))
        raise RunError(f'{root}, seed {seed}: "correct": {correct}')
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) of ``values``, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="ab_bench.py")
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv[1:])
    if args.pairs < 1 or not args.seconds > 0:
        print("error: --pairs must be at least 1 and --seconds positive",
              file=sys.stderr)
        return 2
    roots = (args.root_a, args.root_b)
    for root in roots:
        if not (Path(root) / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py in {root}", file=sys.stderr)
            return 2

    print(f"# workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {args.first_seed} to {args.first_seed + args.pairs - 1}")
    print(f"{'seed':>6s} {'first':>5s} {'A wall_s':>10s} {'B wall_s':>10s} "
          f"{'B/A':>7s}  counts")
    walls, ratios, wins, differ = ([], []), [], 0, 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = [None, None]
        try:
            for t in order:
                runs[t] = run_once(roots[t], args.workload, seed, args.seconds)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        a, b = (run["wall_s"] for run in runs)
        same = all(runs[0][k] == runs[1][k] for k in COUNTS)
        walls[0].append(a)
        walls[1].append(b)
        ratios.append(b / a)
        wins += b < a
        differ += not same
        print(f"{seed:6d} {'AB'[order[0]]:>5s} {a:10.6f} {b:10.6f} {b / a:7.3f}  "
              f"{'same' if same else 'DIFF'}", flush=True)
    for name, values in zip("AB", walls):
        q1, med, q3 = quartiles(values)
        print(f"# {name} wall_s median {med:.6f}, quartiles {q1:.6f} {q3:.6f}")
    print(f"# B/A median {statistics.median(ratios):.3f}; B faster in {wins} of "
          f"{args.pairs} pairs; counts differ in {differ}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
