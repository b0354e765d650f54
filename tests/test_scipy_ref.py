"""The external yardstick ``tools/scipy_ref.py``, loaded by path."""

import sys

import pytest

from rlsmcg import SolverParams
from rlsmcg.bench import SOLVERS
from rlsmcg.problems import get_problem


@pytest.fixture
def scipy_ref(load_script):
    pytest.importorskip("scipy")
    return load_script("tools/scipy_ref.py", "scipy_ref")


def test_one_cell_beside_the_harness(scipy_ref):
    name = "ext_rosenbrock(10)"
    row = scipy_ref.cell(get_problem(name), SolverParams())
    assert tuple(row) == scipy_ref.COLUMNS
    for column in ("scipy_cg", "scipy_lbfgsb"):
        n_f, n_g, status = row[column]
        assert status == "converged" and n_f > 0 and n_g > 0
    for column in scipy_ref.HARNESS:
        rep = SOLVERS[column](get_problem(name))
        assert row[column] == (rep.n_f, rep.n_g, "converged")
    assert row["hs"] == (84, 45, "converged")


def test_family_totals_sum_each_column(scipy_ref):
    ok, bad = (3, 2, "converged"), (5, 4, "failed")
    rows = [("quad_diag(10)", dict.fromkeys(scipy_ref.COLUMNS, ok)),
            ("palmer_poly(8) 1", dict.fromkeys(scipy_ref.COLUMNS, bad)),
            ("quad_diag(50)", dict.fromkeys(scipy_ref.COLUMNS, ok))]
    totals = scipy_ref.family_totals(rows)
    assert list(totals) == ["quad_diag", "palmer_poly", "all"]
    assert totals["quad_diag"]["hs"] == [6, 4, 2, 2]
    assert totals["palmer_poly"]["scipy_cg"] == [5, 4, 0, 1]
    assert totals["all"]["rlsmcg"] == [11, 8, 2, 3]


def test_a_missing_scipy_is_refused_before_any_output(load_script, monkeypatch,
                                                       capsys):
    # needs no scipy: the import fails as it would where scipy is missing
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    scipy_ref = load_script("tools/scipy_ref.py", "scipy_ref")
    assert scipy_ref.main(["scipy_ref.py"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "scipy" in err
