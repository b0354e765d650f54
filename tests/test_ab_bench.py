"""The alternating-pairs benchmark tool ``tools/ab_bench.py``, run against
stub checkouts whose ``perfbench/run.py`` prints fixed JSON."""

import pytest

STUB = """import json, sys
from pathlib import Path
args = sys.argv[1:]
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + " ".join(args) + "\\n")
print("# env {{}}")
print(json.dumps({{"correct": {correct}, "attempted": 4, "failed": 0, "metrics": {{
    "setup_s": {{"value": 0.05, "unit": "s"}},
    "wall_s": {{"value": {wall}, "unit": "s"}},
    "n_iter": {{"value": {n_iter}, "unit": "count"}},
    "n_f": {{"value": 141, "unit": "count"}},
    "n_g": {{"value": 74, "unit": "count"}},
    "solved_frac": {{"value": 1.0, "unit": "ratio"}}}}}}))
"""


@pytest.fixture
def ab_bench(load_script):
    return load_script("tools/ab_bench.py", "ab_bench")


def _root(tmp_path, name, wall, n_iter=70, correct=True):
    bench = tmp_path / name / "perfbench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(STUB.format(
        correct=correct, wall=wall, n_iter=n_iter))
    return str(tmp_path / name)


def test_pairs_alternate_and_summarize(ab_bench, capsys, tmp_path):
    a, b = _root(tmp_path, "a", 0.010), _root(tmp_path, "b", 0.009)
    argv = ["ab_bench.py", a, b, "--workload", "stall", "--pairs", "3",
            "--seconds", "1.5", "--first-seed", "41"]
    assert ab_bench.main(argv) == 0
    runs = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in runs] == ["a", "b", "b", "a", "a", "b"]
    assert runs[0].split()[1:] == ["--workload", "stall", "--seed", "41",
                                   "--seconds", "1.5", "--trace", "0"]
    assert [line.split()[4] for line in runs] == ["41", "41", "42", "42", "43", "43"]
    out = capsys.readouterr().out.splitlines()
    pairs = [line.split() for line in out if not line.startswith("#")][1:]
    assert pairs == [["41", "A", "0.010000", "0.009000", "0.900", "same"],
                     ["42", "B", "0.010000", "0.009000", "0.900", "same"],
                     ["43", "A", "0.010000", "0.009000", "0.900", "same"]]
    assert out[-3] == "# A wall_s median 0.010000, quartiles 0.010000 0.010000"
    assert out[-2] == "# B wall_s median 0.009000, quartiles 0.009000 0.009000"
    assert out[-1] == "# B/A median 0.900; B faster in 3 of 3 pairs; counts differ in 0"


def test_counts_that_differ_are_flagged(ab_bench, capsys, tmp_path):
    a, b = _root(tmp_path, "a", 0.010), _root(tmp_path, "b", 0.011, n_iter=71)
    assert ab_bench.main(["ab_bench.py", a, b, "--workload", "stall",
                          "--pairs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].split() == ["0", "A", "0.010000", "0.011000", "1.100", "DIFF"]
    assert out[-1] == "# B/A median 1.100; B faster in 0 of 1 pairs; counts differ in 1"


def test_a_root_without_the_benchmark_is_refused(ab_bench, capsys, tmp_path):
    a = _root(tmp_path, "a", 0.010)
    (tmp_path / "empty").mkdir()
    argv = ["ab_bench.py", a, str(tmp_path / "empty"), "--workload", "stall"]
    assert ab_bench.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: no perfbench/run.py in")
    assert not (tmp_path / "order.log").exists()


def test_a_run_that_is_not_correct_is_refused(ab_bench, capsys, tmp_path):
    a, b = _root(tmp_path, "a", 0.010), _root(tmp_path, "b", 0.009, correct=False)
    assert ab_bench.main(["ab_bench.py", a, b, "--workload", "stall"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and '"correct": false' in err
