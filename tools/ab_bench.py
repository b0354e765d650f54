"""Alternating pairs of benchmark runs from two checkouts.

    python tools/ab_bench.py ROOT_A ROOT_B --workload W [--pairs N] [--seconds S] [--first-seed K]

runs ``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` of
checkout ROOT_A and of checkout ROOT_B for pair i = 0 .. N-1, each run in a
process of its own, alternating which checkout runs first (A in even
pairs, B in odd ones), so that a drift of the host's speed falls on both
alike.  The two runs of a pair share a seed, so they solve the same
inputs.  Each pair prints one line: its seed, the checkout that ran first,
both runs' ``wall_s``, ``setup_s`` and ``peak_rss_mb`` with the ratio B/A
of each, and ``same`` or ``DIFF`` as the runs' ``n_iter``, ``n_f``, ``n_g``
and ``solved_frac`` agree or not.  Then, for each of the three metrics, it
prints the median and the quartiles of each checkout's values, the median
ratio B/A and the number of pairs in which B's value was lower, and last
the number of pairs whose counts differ.  The defaults are 10 pairs of
20 s runs from seed 0.  Given the same root twice, it measures the host's
own A/A bias: the spread that a change must exceed to show.

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
# the metrics compared pair by pair, with the format of their values
METRICS = (("wall_s", ".6f"), ("setup_s", ".6f"), ("peak_rss_mb", ".2f"))


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
    header = "".join(f" {'A ' + name:>14s} {'B ' + name:>14s} {'B/A':>6s}"
                     for name, _ in METRICS)
    print(f"{'seed':>6s} {'first':>5s}{header}  counts")
    values = {name: ([], []) for name, _ in METRICS}
    differ = 0
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
        same = all(runs[0][k] == runs[1][k] for k in COUNTS)
        differ += not same
        cells = ""
        for name, fmt in METRICS:
            a, b = runs[0][name], runs[1][name]
            values[name][0].append(a)
            values[name][1].append(b)
            cells += f" {a:14{fmt}} {b:14{fmt}} {b / a:6.3f}"
        print(f"{seed:6d} {'AB'[order[0]]:>5s}{cells}  {'same' if same else 'DIFF'}",
              flush=True)
    for name, fmt in METRICS:
        for label, column in zip("AB", values[name]):
            q1, med, q3 = quartiles(column)
            print(f"# {label} {name} median {med:{fmt}}, quartiles {q1:{fmt}} {q3:{fmt}}")
        a, b = values[name]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        lower = sum(y < x for x, y in zip(a, b))
        print(f"# {name} B/A median {ratio:.3f}; B lower in {lower} of {args.pairs} pairs")
    print(f"# counts differ in {differ} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
