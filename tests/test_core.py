import math

import numpy as np
import pytest

from rlsmcg.core import (CountingProblem, NumericError, Problem, RunReport,
                         SolverParams, Status, dot, finite_diff_gradient,
                         norm_inf)
from rlsmcg.problems import ext_rosenbrock


def test_dot_orthogonal():
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_dot_hand_value():
    assert dot(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_dot_self_matches_componentwise_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 40))
        expected = sum(float(x) * float(x) for x in v)
        assert dot(v, v) >= 0.0
        assert dot(v, v) == pytest.approx(expected, rel=1e-12)


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot(np.ones(3), np.ones(4))


def test_norm_inf_zeros():
    assert norm_inf(np.zeros(3)) == 0.0


def test_norm_inf_signed():
    assert norm_inf(np.array([-3.0, 2.0])) == 3.0


def test_norm_inf_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(rng.integers(1, 30))
        assert norm_inf(v) == max(abs(float(x)) for x in v)


def test_norm_inf_empty_rejected():
    with pytest.raises(ValueError):
        norm_inf(np.array([]))


def test_finite_diff_quadratic():
    p = Problem("halfsq", 2, lambda x: 0.5 * float(x @ x), lambda x: x,
                np.zeros(2))
    fd = finite_diff_gradient(p, np.array([1.0, 2.0]))
    assert np.all(np.abs(fd - np.array([1.0, 2.0])) <= 1e-8)


def test_finite_diff_bilinear():
    p = Problem("xy", 2, lambda x: float(x[0] * x[1]),
                lambda x: np.array([x[1], x[0]]), np.zeros(2))
    fd = finite_diff_gradient(p, np.array([2.0, 3.0]))
    assert fd == pytest.approx([3.0, 2.0], abs=1e-8)


def test_finite_diff_rosenbrock_matches_analytic():
    p = ext_rosenbrock(10)
    fd = finite_diff_gradient(p, p.x0)
    an = p.eval_g(p.x0)
    assert np.all(np.abs(fd - an) <= 1e-6 * (1.0 + np.abs(an)))


def test_finite_diff_nonfinite_signals():
    p = Problem("bad", 1, lambda x: math.inf, lambda x: x, np.zeros(1))
    with pytest.raises(NumericError):
        finite_diff_gradient(p, np.zeros(1))


def test_params_defaults_are_protocol_values():
    p = SolverParams()
    assert p.xi1 == 1e-10
    assert p.xi2 == 1.2e4
    assert p.xi3 == 5e-5
    assert p.xi4 == 1e-4
    assert p.xi5 == 0.08
    assert p.eta0_tilde == 1e-9
    assert p.eta1_tilde == 0.5
    assert p.upsilon == 5e-7
    assert p.sigma1 == 0.1
    assert p.sigma2 == 5.0
    assert p.sigma3 == 0.85
    assert p.tau_hat == 1.0
    assert p.tau_bar == 0.225
    assert p.c_bar == 0.1
    assert p.varsigma_bar == 5e-3
    assert p.tau1 == 0.1
    assert p.tau2 == 135.0
    assert p.delta_k == 0.0005
    assert p.sigma_wolfe == 0.9999
    assert p.grad_tol == 1e-6
    assert p.max_iter == 200_000


def test_params_resolve_memory_and_varsigma():
    p = SolverParams()
    small = p.resolve(5)
    assert small.memory_m == 5
    assert small.varsigma == 5e-5
    assert small.l_reset == max(25, 20)
    big = p.resolve(100)
    assert big.memory_m == 11
    assert big.varsigma == 5e-6
    assert big.l_reset == max(121, 20)


@pytest.mark.parametrize("bad", [
    dict(xi4=0.09, xi5=0.08),       # needs xi4 < xi5
    dict(eta0_tilde=0.6, eta1_tilde=0.5),
    dict(sigma1=0.0),
    dict(sigma2=1.0),
    dict(mu_min=2.0, mu_max=1.0),
    dict(sigma_wolfe=1.0),
    dict(delta_k=0.95),
    dict(alpha_min=1.0, alpha_max=0.5),
    dict(grad_tol=-1.0),
    dict(memory_m=0),
])
def test_params_validation_rejects(bad):
    with pytest.raises(ValueError):
        SolverParams(**bad)


@pytest.mark.parametrize("name", ["dim", "memory_m", "l_reset", "max_iter",
                                  "min_quad"])
def test_integer_inputs_reject_non_integers(name):
    # a float count would fail mid-solve (a slice index) or never fire (a
    # counter compared with ==), and True would pass as 1, so each is
    # refused where it is given
    for value in (2.0 if name == "dim" else 2.5, True):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            if name == "dim":
                # a start of int(value) entries, so that the shape check
                # agrees and only the integer check can refuse
                Problem("sq", value, lambda x: 0.0, lambda x: x,
                        np.zeros(int(value)))
            else:
                SolverParams(**{name: value})


def test_problem_validates_dimension_and_start():
    with pytest.raises(ValueError):
        Problem("p", 0, lambda x: 0.0, lambda x: x, np.zeros(0))
    with pytest.raises(ValueError):
        Problem("p", 3, lambda x: 0.0, lambda x: x, np.zeros(2))


def test_counting_problem_counts_every_call():
    p = Problem("halfsq", 2, lambda x: 0.5 * float(x @ x), lambda x: x,
                np.zeros(2))
    cp = CountingProblem(p)
    x = np.array([1.0, 1.0])
    for _ in range(3):
        cp.f(x)
    cp.g(x)
    assert cp.n_f == 3
    assert cp.n_g == 1


def test_run_report_holds_fields():
    rep = RunReport(n_iter=2, n_f=5, n_g=3, wall_time=0.1,
                    status=Status.CONVERGED, final_gnorm_inf=1e-8)
    assert rep.n_f >= rep.n_iter
    assert rep.n_g >= rep.n_iter


# --- gradient shape ------------------------------------------------------------

def _column_gradient_problem(n):
    """A sphere whose eval_g returns an (n, 1) column instead of (n,)."""
    return Problem("column_sphere", n, lambda x: 0.5 * float(x @ x),
                   lambda x: x.reshape(-1, 1).copy(), np.ones(n))


@pytest.mark.parametrize("n", [5, 1])
def test_counting_problem_rejects_a_gradient_of_the_wrong_shape(n):
    cp = CountingProblem(_column_gradient_problem(n))
    with pytest.raises(ValueError) as info:
        cp.g(np.ones(n))
    msg = str(info.value)
    assert "column_sphere" in msg and str((n, 1)) in msg and str((n,)) in msg


def _vector_value_problem():
    """A sphere whose eval_f returns the vector x*x instead of its sum."""
    return Problem("vecf", 3, lambda x: x * x, lambda x: 2.0 * x, np.ones(3))


def test_counting_problem_rejects_a_value_that_is_no_scalar():
    cp = CountingProblem(_vector_value_problem())
    with pytest.raises(ValueError) as info:
        cp.f(np.ones(3))
    msg = str(info.value)
    assert "vecf" in msg and "ndarray" in msg and str((3,)) in msg
    assert cp.n_f == 1


@pytest.mark.parametrize("solver", ["rlsmcg", "lbfgs"])
def test_solvers_report_a_vector_value_by_its_problem_and_shape(solver):
    from rlsmcg.baselines import BaselineKind, BaselineTag, run_baseline
    from rlsmcg.solver import run
    problem = _vector_value_problem()
    with pytest.raises(ValueError, match=r"vecf.*ndarray.*\(3,\)"):
        if solver == "rlsmcg":
            run(problem)
        else:
            run_baseline(BaselineKind(BaselineTag.LBFGS), problem)


# --- real values only -------------------------------------------------------------

def _sphere_returning(f=None, g=None):
    """A 2-D sphere whose eval_f or eval_g returns the given value instead."""
    return CountingProblem(Problem(
        "odd_sphere", 2,
        (lambda x: 0.5 * float(x @ x)) if f is None else (lambda x: f),
        (lambda x: x.copy()) if g is None else g, np.ones(2)))


@pytest.mark.parametrize("value, kind", [
    ("3.0", "str"), (b"4.5", "bytes"), (np.str_("5.5"), "str_"),
    (np.complex128(1.0), "complex128"), (np.array(2.0 + 0j), "ndarray")])
def test_counting_problem_rejects_a_value_that_is_not_real(value, kind):
    cp = _sphere_returning(f=value)
    with pytest.raises(ValueError, match=r"odd_sphere: eval_f returned "
                       + kind + r" of dtype .*, expected real values"):
        cp.f(np.ones(2))


def test_counting_problem_takes_real_scalars_of_every_kind():
    for value in (3, 2.5, np.float32(2.5), np.int64(4), np.array(2.0)):
        assert _sphere_returning(f=value).f(np.ones(2)) == float(value)


def test_a_complex_gradient_is_rejected_not_cut_to_its_real_part():
    from rlsmcg.solver import run
    problem = _sphere_returning(g=lambda x: x + 1e-3j).problem
    with pytest.raises(ValueError, match=r"odd_sphere: eval_g returned "
                       r"ndarray of dtype complex128, expected real values"):
        run(problem)


@pytest.mark.parametrize("g", [lambda x: ["a", "b"], lambda x: [None, 1.0],
                               lambda x: [[1.0, 2.0], [3.0]]])
def test_a_gradient_that_is_no_real_array_is_rejected_by_name(g):
    with pytest.raises(ValueError, match=r"odd_sphere: eval_g returned list"):
        _sphere_returning(g=g).g(np.ones(2))


def test_counting_problem_converts_real_gradients_to_float64():
    for g in ([1, 2], np.array([1, 2], dtype=np.float32),
              np.array([1.0, 2.0], dtype=">f8")):
        got = _sphere_returning(g=lambda x: g).g(np.ones(2))
        assert got.dtype == np.float64 and list(got) == [1.0, 2.0]


@pytest.mark.parametrize("n", [5, 1])
@pytest.mark.parametrize("solver", ["rlsmcg", "lbfgs"])
def test_solvers_report_a_column_gradient_by_its_shape(n, solver):
    from rlsmcg.baselines import BaselineKind, BaselineTag, run_baseline
    from rlsmcg.solver import run
    problem = _column_gradient_problem(n)
    with pytest.raises(ValueError, match=r"column_sphere.*\(%d, 1\)" % n):
        if solver == "rlsmcg":
            run(problem)
        else:
            run_baseline(BaselineKind(BaselineTag.LBFGS), problem)
