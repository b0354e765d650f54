import csv
import importlib
import math

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


@pytest.mark.parametrize("repetitions", [0, 1.5, 2.0, "2", True])
def test_config_rejects_a_repetition_count_that_is_no_integer_above_zero(
        repetitions):
    with pytest.raises(ConfigError, match="repetitions"):
        BenchConfig(solvers=["rlsmcg"], problems=["sphere(5)"],
                    repetitions=repetitions)


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
    cfg = parse_config("solvers = hs\nproblems = ext_rosenbrock(10)\n"
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
    assert header == ",".join(RESULT_HEADER + ["us_per_iter"])
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
    cfg.write_text(f"solvers = hs\nproblems = sphere(5)\nout = {ok_results}\n")
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


_GOOD_ROW = {"solver": "hs", "problem": "sphere(5)", "dim": "5", "n_iter": "1",
             "n_f": "2", "n_g": "2", "wall_time_s": "0.1", "status": "converged",
             "final_gnorm_inf": "1e-9", "us_per_iter": "1e5"}


@pytest.mark.parametrize("key, value, ok", [
    ("wall_time_s", "nan", False), ("wall_time_s", "inf", False),
    ("wall_time_s", "-0.1", False), ("us_per_iter", "nan", False),
    ("us_per_iter", "-inf", False), ("us_per_iter", "-1", False),
    ("n_iter", "-1", False), ("n_f", "-1", False), ("n_g", "-5", False),
    ("dim", "0", False), ("final_gnorm_inf", "-1e-9", False),
    ("final_gnorm_inf", "inf", False), ("status", "convergd", False),
    ("status", "iter_cap", True),
    # what a run from a start that is not finite writes, a run that starts
    # at the tolerance, and one timed below a microsecond
    ("final_gnorm_inf", "nan", True), ("n_iter", "0", True),
    ("wall_time_s", "0.000000", True),
])
def test_results_csv_rejects_numbers_out_of_range(tmp_path, key, value, ok):
    # a nan time or a negative count would win the profile's ratio test,
    # and a misspelt status would score its cell unsolved
    path = tmp_path / "r.csv"
    path.write_text(",".join(_GOOD_ROW) + "\n"
                    + ",".join({**_GOOD_ROW, key: value}.values()) + "\n")
    if ok:
        read_results_csv(str(path))
    else:
        with pytest.raises(ConfigError, match=f"line 2: .*'{key}'"):
            read_results_csv(str(path))


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


def test_perfbench_patch_list_resolves(load_script):
    # the traced benchmark run wraps each (module, attr) of this list where
    # the drivers look it up; a name deleted from the library breaks only
    # that run, so the list is checked here.  No bytecode is written there.
    spans = load_script("perfbench/spans.py", "perfbench_spans")
    assert spans.LAYER_FUNCTIONS
    for module_name, attr, _ in spans.LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


# (module, name) of each traced layer and the solvers that must reach it
# through that module attribute; rlsmcg.baselines' wolfe_search and
# ledger_update are exempt, as the shared driver in rlsmcg.solver calls them
_DRIVER_PATH_LAYERS = {
    ("rlsmcg.solver", "wolfe_search"): ("rlsmcg", "hs", "lbfgs"),
    ("rlsmcg.solver", "ledger_update"): ("rlsmcg", "hs", "lbfgs"),
    ("rlsmcg.solver", "initial_stepsize"): ("rlsmcg",),
    ("rlsmcg.solver", "bb_fallback_stepsize"): ("rlsmcg",),
    ("rlsmcg.baselines", "bb_fallback_stepsize"): ("hs", "lbfgs"),
    ("rlsmcg.baselines", "lbfgs_two_loop"): ("lbfgs",),
}


def test_traced_layers_stay_on_the_driver_path(monkeypatch, load_script):
    # the traced benchmark run times a layer by replacing its module
    # attribute; a layer the driver stops calling through that attribute
    # would read zero calls there without any error
    from rlsmcg.baselines import BaselineKind, BaselineTag, run_baseline
    from rlsmcg.problems import get_problem
    from rlsmcg.solver import run
    spans = load_script("perfbench/spans.py", "perfbench_spans")
    listed = {(m, a) for m, a, _ in spans.LAYER_FUNCTIONS}
    assert set(_DRIVER_PATH_LAYERS) <= listed
    calls = {}
    for module_name, attr in _DRIVER_PATH_LAYERS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        def counted(*args, _key=(module_name, attr), _fn=fn, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    solves = {
        "rlsmcg": lambda: run(get_problem("quad_diag(200)")),
        "hs": lambda: run_baseline(BaselineKind(BaselineTag.HS_CG),
                                   get_problem("ext_rosenbrock(10)")),
        "lbfgs": lambda: run_baseline(BaselineKind(BaselineTag.LBFGS),
                                      get_problem("ext_rosenbrock(10)")),
    }
    for solver, solve in solves.items():
        calls.clear()
        solve()
        for key, solvers in _DRIVER_PATH_LAYERS.items():
            if solver in solvers:
                assert calls.get(key, 0) >= 1, (solver, key)


def test_cli_run_appends_us_per_iter_and_profile_reads_either(tmp_path):
    out = tmp_path / "r.csv"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"solvers = hs, lbfgs\nproblems = sphere(5), quad_diag(10)\n"
                   f"out = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header == RESULT_HEADER + ["us_per_iter"]
    rows = read_results_csv(str(out))
    for row in rows:
        us = row["us_per_iter"]
        assert isinstance(us, float)
        # wall_time_s is written to the microsecond, us_per_iter to 1e-3
        n = max(row["n_iter"], 1)
        assert us == pytest.approx(1e6 * row["wall_time_s"] / n,
                                   rel=0, abs=1.0 / n + 1e-3)
    # the same rows without the column read back with the same counts
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                             for line in out.read_text().splitlines()))
    with open(plain) as fh:
        assert fh.readline().strip() == ",".join(RESULT_HEADER)
    back = read_results_csv(str(plain))
    assert "us_per_iter" not in back[0]
    assert [r["n_g"] for r in back] == [r["n_g"] for r in rows]
    for path in (out, plain):
        assert main(["profile", "--metric", "ng", "--in", str(path),
                     "--out", str(tmp_path / "p.csv")]) == 0
    # a malformed value in the column is named like any other
    out.write_text(",".join(RESULT_HEADER + ["us_per_iter"]) + "\n"
                   "hs,sphere(5),5,1,2,2,0.1,converged,1e-9,x\n")
    with pytest.raises(ConfigError, match="us_per_iter"):
        read_results_csv(str(out))
