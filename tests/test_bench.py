import csv
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rlsmcg.bench import (ConfigError, BenchConfig, RESULT_HEADER, TRACE_HEADER,
                          gnuplot_script, main, parse_config, performance_profile,
                          read_results_csv, run_matrix, write_results_csv)

SMALL_CFG = """
# two solvers, three problems
solvers = rlsmcg, lbfgs
problems = sphere(10), quad_diag(10), ext_rosenbrock(10)
repetitions = 1
seed = 0
"""


def test_parse_config_grammar():
    cfg = parse_config(SMALL_CFG + "grad_tol = 1e-8\nmax_iter = 500\n")
    assert cfg.solvers == ["rlsmcg", "lbfgs"]
    assert cfg.problems == ["sphere(10)", "quad_diag(10)", "ext_rosenbrock(10)"]
    assert cfg.param_overrides == {"grad_tol": 1e-8, "max_iter": 500}
    assert cfg.params().grad_tol == 1e-8


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("solvers = rlsmcg\nproblems = sphere(5)\nbogus = 1\n")


def test_parse_config_rejects_unknown_solver():
    with pytest.raises(ConfigError):
        parse_config("solvers = nosuch\nproblems = sphere(5)\n")


def test_parse_config_requires_lists():
    with pytest.raises(ConfigError):
        parse_config("solvers = rlsmcg\n")


def test_run_matrix_cardinality_and_order():
    rows = run_matrix(parse_config(SMALL_CFG))
    assert len(rows) == 6
    assert [r["solver"] for r in rows] == sorted(r["solver"] for r in rows)
    for row in rows:
        assert set(row) == set(RESULT_HEADER)


def test_run_matrix_rejects_unknown_problem_before_running():
    cfg = BenchConfig(solvers=["rlsmcg"], problems=["sphere(5)", "nosuch(3)"])
    with pytest.raises(ConfigError):
        run_matrix(cfg)


def test_failed_runs_still_produce_rows():
    cfg = parse_config("solvers = bbsd\nproblems = ext_rosenbrock(10)\n"
                       "max_iter = 3\n")
    rows = run_matrix(cfg)
    assert len(rows) == 1
    assert rows[0]["status"] == "iter_cap"
    assert rows[0]["n_iter"] == 3
    assert math.isfinite(rows[0]["final_gnorm_inf"])


def test_matrix_is_deterministic_modulo_timing():
    cfg = parse_config(SMALL_CFG)
    rows1 = run_matrix(cfg)
    rows2 = run_matrix(cfg)
    for a, b in zip(rows1, rows2):
        a2 = {k: v for k, v in a.items() if k != "wall_time_s"}
        b2 = {k: v for k, v in b.items() if k != "wall_time_s"}
        assert a2 == b2


def test_results_csv_roundtrip(tmp_path):
    rows = run_matrix(parse_config(SMALL_CFG))
    path = tmp_path / "results.csv"
    write_results_csv(rows, str(path))
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ",".join(RESULT_HEADER)
    back = read_results_csv(str(path))
    assert [r["problem"] for r in back] == [r["problem"] for r in rows]
    assert [r["n_g"] for r in back] == [r["n_g"] for r in rows]


def _toy_rows():
    rows = []
    for solver, vals in (("A", [2, 4, 10]), ("B", [4, 4, 5])):
        for i, v in enumerate(vals):
            rows.append({"solver": solver, "problem": f"p{i}", "dim": 2,
                         "n_iter": v, "n_f": v, "n_g": v, "wall_time_s": 0.0,
                         "status": "converged", "final_gnorm_inf": 1e-8})
    return rows


def test_profile_matches_hand_computed_oracle():
    taus, curves = performance_profile(_toy_rows(), "ng")
    # ratios: A = [1, 1, 2], B = [2, 1, 1]
    assert taus[0] == 1.0
    assert curves["A"][0] == pytest.approx(2.0 / 3.0)
    assert curves["B"][0] == pytest.approx(2.0 / 3.0)
    assert curves["A"][-1] == 1.0 and curves["B"][-1] == 1.0
    assert taus[-1] == pytest.approx(2.0)


def test_profile_single_solver_fraction_solved():
    rows = [dict(r) for r in _toy_rows() if r["solver"] == "A"]
    rows[2]["status"] = "iter_cap"
    taus, curves = performance_profile(rows, "niter")
    assert curves["A"][0] == pytest.approx(2.0 / 3.0)


def test_profile_dominance():
    rows = []
    for solver, vals in (("fast", [1, 1]), ("slow", [9, 9])):
        for i, v in enumerate(vals):
            rows.append({"solver": solver, "problem": f"p{i}", "dim": 2,
                         "n_iter": v, "n_f": v, "n_g": v, "wall_time_s": 0.0,
                         "status": "converged", "final_gnorm_inf": 0.0})
    taus, curves = performance_profile(rows, "nf")
    assert curves["fast"][0] == 1.0
    assert curves["slow"][0] == 0.0
    assert curves["slow"][-1] == 1.0


def test_profile_curves_monotone_and_bounded(suite_rows=None):
    taus, curves = performance_profile(_toy_rows(), "ng")
    for rho in curves.values():
        assert np.all(np.diff(rho) >= -1e-15)
        assert np.all((0.0 <= rho) & (rho <= 1.0))


def test_profile_ties_counted_for_all():
    rows = _toy_rows()
    # p1 is a tie (4 vs 4): both solvers attain the min there
    taus, curves = performance_profile(rows, "ng")
    winners = sum(curves[s][0] * 3 for s in curves)  # counts at tau = 1
    assert winners >= 3


def test_profile_drops_fully_unsolved_problem(capsys):
    rows = _toy_rows()
    for row in rows:
        if row["problem"] == "p2":
            row["status"] = "linesearch_fail"
    taus, curves = performance_profile(rows, "ng")
    err = capsys.readouterr().err
    assert "p2" in err
    # p2 stays in the denominator but contributes no finite ratio
    assert curves["A"][0] == pytest.approx(2.0 / 3.0)
    assert curves["A"][-1] == pytest.approx(2.0 / 3.0)


def test_profile_rejects_unknown_metric():
    with pytest.raises(ConfigError):
        performance_profile(_toy_rows(), "parsecs")


def test_gnuplot_script_references_profile():
    text = gnuplot_script("prof.csv", "ng", ["A", "B"])
    assert "prof.csv" in text
    assert "logscale x" in text


# --- the command line -------------------------------------------------------

def test_cli_run_profile_trace_roundtrip(tmp_path):
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "results.csv"
    cfg.write_text(SMALL_CFG + f"out = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert out.exists()

    prof = tmp_path / "profile.csv"
    plot = tmp_path / "profile.gp"
    code = main(["profile", "--metric", "ng", "--in", str(out),
                 "--out", str(prof), "--gnuplot", str(plot)])
    assert code == 0
    with open(prof) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["tau", "lbfgs", "rlsmcg"]
    assert plot.read_text().count(str(prof)) >= 1

    tr = tmp_path / "trace.csv"
    code = main(["trace", "--solver", "rlsmcg", "--problem", "quad_hilbert(8)",
                 "--out", str(tr)])
    assert code == 0
    with open(tr) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRACE_HEADER
    assert len(rows) > 2


def test_cli_trace_supports_baselines(tmp_path):
    tr = tmp_path / "trace.csv"
    assert main(["trace", "--solver", "lbfgs", "--problem", "sphere(5)",
                 "--out", str(tr)]) == 0
    with open(tr) as fh:
        assert fh.readline().strip() == ",".join(TRACE_HEADER)


def test_cli_errors_give_nonzero_exit(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("solvers = nosuch\nproblems = sphere(5)\n")
    assert main(["run", "--config", str(bad)]) == 2
    ok_results = tmp_path / "r.csv"
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(f"solvers = bbsd\nproblems = sphere(5)\nout = {ok_results}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["profile", "--metric", "warp", "--in", str(ok_results),
                 "--out", str(tmp_path / "p.csv")]) == 2
    # values that do not parse and problems whose dimension the family rejects
    for line in ("repetitions = two", "grad_tol = tiny", "memory_m = 2.5",
                 "problems = ext_rosenbrock(3)", "problems = powell_singular(6)"):
        bad.write_text(f"solvers = hs\nproblems = sphere(5)\n{line}\n")
        assert main(["run", "--config", str(bad)]) == 2, line
    assert main(["trace", "--solver", "hs", "--problem", "ext_rosenbrock(3)"]) == 2
    assert main(["trace", "--solver", "hs", "--problem", "sphere(5)",
                 "--max-iter", "0"]) == 2
    # an output path that cannot be written
    unwritable = str(tmp_path / "missing_dir" / "out.csv")
    bad.write_text(f"solvers = hs\nproblems = sphere(5)\nout = {unwritable}\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["trace", "--solver", "hs", "--problem", "sphere(5)",
                 "--out", unwritable]) == 2


@pytest.mark.parametrize("body", [
    "hs,sphere(5),5,x,2,2,0.1,converged,1e-9\n",  # a value that does not parse
    "hs,sphere(5),5,1,2\n",                       # a short row
], ids=["malformed", "short"])
def test_cli_profile_rejects_a_bad_results_csv(tmp_path, capsys, body):
    bad = tmp_path / "r.csv"
    bad.write_text(",".join(RESULT_HEADER) + "\n" + body)
    with pytest.raises(ConfigError, match="line 2"):
        read_results_csv(str(bad))
    assert main(["profile", "--metric", "ng", "--in", str(bad),
                 "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err and "n_" in err
    # a file without the count columns names the first one it lacks
    bad.write_text("solver,problem,dim\nhs,sphere(5),5\n")
    with pytest.raises(ConfigError, match="'n_iter'"):
        read_results_csv(str(bad))


def test_cli_run_checks_out_before_solving(tmp_path, monkeypatch):
    def no_run(cfg):
        raise AssertionError("run_matrix called with an unwritable out")
    monkeypatch.setattr("rlsmcg.bench.run_matrix", no_run)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("solvers = hs\nproblems = sphere(5)\n"
                   f"out = {tmp_path / 'missing_dir' / 'r.csv'}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    # the probe of a writable out leaves no file behind
    out = tmp_path / "r.csv"
    cfg.write_text(f"solvers = hs\nproblems = sphere(5)\nout = {out}\n")
    with pytest.raises(AssertionError):
        main(["run", "--config", str(cfg)])
    assert not out.exists()


def test_perfbench_patch_list_resolves(monkeypatch):
    # the traced benchmark run wraps each (module, attr) of this list where
    # the drivers look it up; a name deleted from the library breaks only
    # that run, so the list is checked here.  No bytecode is written there.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_FUNCTIONS
    for module_name, attr, _ in spans.LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
