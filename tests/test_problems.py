import numpy as np
import pytest

from rlsmcg.core import Problem
from rlsmcg.problems import (ProblemSpec, get_problem, hilbert_matrix,
                             palmer_minimizer, registry, verify_gradients)
from rlsmcg.solver import run_with_trace


def test_registry_is_large_enough():
    specs = registry()
    assert len(specs) >= 20
    names = [s.name for s in specs]
    assert len(names) == len(set(names))


def test_registry_dimensions_span_desk_scale():
    dims = [s.dim for s in registry()]
    assert min(dims) == 2
    assert max(dims) == 1000


def test_lookup_rosenbrock_standard_start():
    p = get_problem("ext_rosenbrock(100)")
    assert p.dim == 100
    assert p.x0[0] == -1.2 and p.x0[1] == 1.0
    assert p.eval_f(np.ones(100)) == 0.0


def test_lookup_hilbert_is_quadratic_with_zero_minimum():
    p = get_problem("quad_hilbert(8)")
    H = hilbert_matrix(8)
    x = np.arange(1.0, 9.0)
    assert p.eval_f(x) == pytest.approx(0.5 * float(x @ H @ x))
    np.testing.assert_allclose(p.eval_g(x), H @ x)
    assert p.eval_f(np.zeros(8)) == 0.0


def test_lookup_unknown_name_fails():
    with pytest.raises(KeyError):
        get_problem("nosuch(3)")
    with pytest.raises(KeyError):
        get_problem("not a name")


def test_known_minima_reproduced():
    for spec in registry():
        if spec.known_fmin is None or spec.known_minimizer is None:
            continue
        prob = spec.make()
        assert abs(prob.eval_f(spec.known_minimizer) - spec.known_fmin) <= 1e-12, \
            spec.name


def test_palmer_minimizer_zeroes_gradient():
    p = get_problem("palmer_poly(8)")
    g = p.eval_g(palmer_minimizer(8))
    assert np.max(np.abs(g)) <= 1e-12


def test_hilbert_condition_number_target():
    for n in (8, 12):
        ev = np.linalg.eigvalsh(hilbert_matrix(n))
        assert ev[-1] / ev[0] >= 1e8 or ev[0] <= 0  # 12 is numerically singular


def test_palmer_gram_is_severely_ill_conditioned():
    p = get_problem("palmer_poly(8)")
    # Gram matrix reconstructed through the gradient map
    G = np.column_stack([p.eval_g(e) - p.eval_g(np.zeros(8))
                         for e in np.eye(8)])
    ev = np.linalg.eigvalsh(0.5 * (G + G.T))
    assert ev[-1] / ev[0] >= 1e8


def test_every_registered_problem_passes_gradient_check():
    for spec in registry():
        report = verify_gradients(spec, n_points=10)
        assert report.ok, (spec.name, report.failures[:3])


def test_gradient_check_names_corrupted_coordinate():
    base = get_problem("ext_rosenbrock(10)")

    def bad_grad(x):
        g = base.eval_g(x)
        g[3] += 0.5
        return g

    broken = Problem("broken", 10, base.eval_f, bad_grad, base.x0)
    spec = ProblemSpec(name="broken", dim=10, make=lambda: broken)
    report = verify_gradients(spec, n_points=3)
    assert not report.ok
    assert report.failures
    assert {c for _, c, _ in report.failures} == {3}


def test_gradient_check_requires_points():
    with pytest.raises(ValueError):
        verify_gradients(registry()[0], n_points=0)


@pytest.mark.parametrize("n_points", [2.5, 2.0, "2", None, True])
def test_gradient_check_rejects_a_point_count_that_is_no_integer(n_points):
    with pytest.raises(ValueError, match="n_points"):
        verify_gradients(registry()[0], n_points=n_points)


def test_evaluators_are_pure():
    p = get_problem("trigonometric(10)")
    x = p.x0 + 0.1
    assert p.eval_f(x) == p.eval_f(x)
    np.testing.assert_array_equal(p.eval_g(x), p.eval_g(x))


def test_ill_conditioned_family_triggers_orthogonality_loss_in_ablation():
    for name in ("quad_hilbert(8)", "palmer_poly(8)"):
        _, trace = run_with_trace(get_problem(name), rqn_enabled=False)
        assert any(rec.orth_lost_flag for rec in trace), name
