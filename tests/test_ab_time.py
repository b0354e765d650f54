"""The interleaved A/B timer ``tools/ab_time.py``, loaded by path."""

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture
def ab_time(load_script):
    # no bytecode is written next to the tool or into the trees it loads
    yield load_script("tools/ab_time.py", "ab_time")
    for name in [m for m in sys.modules if m.startswith("rlsmcg_ab_")]:
        del sys.modules[name]


def test_one_tree_against_itself_times_every_cell(ab_time, capsys):
    argv = ["ab_time.py", "--solves", "2", "--repeats", "1", str(SRC), str(SRC),
            "hs:quad_diag(10)"]
    assert ab_time.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# python")
    cell, repeat, a, b, ratio = out[-1].split()
    assert (cell, repeat) == ("hs:quad_diag(10)", "1")
    assert float(a) > 0 and float(b) > 0
    assert float(ratio) == pytest.approx(float(b) / float(a), rel=1e-2, abs=1e-3)


def test_a_cell_whose_counts_differ_is_refused(ab_time, capsys, tmp_path):
    # tree B: the same library with quad_diag's condition number changed
    shutil.copytree(SRC / "rlsmcg", tmp_path / "rlsmcg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    problems = tmp_path / "rlsmcg" / "problems.py"
    text = problems.read_text()
    assert "cond: float = 1e4" in text
    problems.write_text(text.replace("cond: float = 1e4", "cond: float = 1e2"))
    argv = ["ab_time.py", "--solves", "1", "--repeats", "1", str(SRC),
            str(tmp_path), "hs:quad_diag(10)"]
    assert ab_time.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: hs:quad_diag(10)")


@pytest.mark.parametrize("cell", ["hs:quad_diag(10", "nosuch:quad_diag(10)",
                                  "hs:nosuch(3)", "hs:ext_rosenbrock(3)",
                                  "hs:sphere(0)"])
def test_a_malformed_cell_is_refused(ab_time, capsys, cell):
    assert ab_time.main(["ab_time.py", str(SRC), str(SRC), cell]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_a_directory_without_the_library_is_refused(ab_time, capsys, tmp_path):
    assert ab_time.main(["ab_time.py", str(SRC), str(tmp_path), "hs:sphere(2)"]) == 2
    assert capsys.readouterr().err.startswith("error: no library source")
