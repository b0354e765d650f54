
import numpy as np
import pytest

from rlsmcg.core import Problem
from rlsmcg.problems import (DENSE_SEEDS, DENSE_SIZES, PERTURBED_SEEDS,
                             SUITES, ULP_INSTANCES, ULP_STARTS, ProblemSpec,
                             dense_quadratic, dense_quadratic_terms,
                             get_problem, hilbert_matrix, palmer_minimizer,
                             perturbed_start, registry, scaled, ulp_start,
                             verify_gradients)
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


def _same_bits(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


@pytest.mark.parametrize("name", [spec.name for spec in registry()])
def test_every_registered_evaluator_is_pure(name):
    p = get_problem(name)
    rng = np.random.default_rng(3)
    for x in (p.x0, p.x0 + rng.standard_normal(p.dim)):
        before = x.tobytes()
        f1, g1 = p.eval_f(x), p.eval_g(x)
        assert x.tobytes() == before
        g1_bytes = np.asarray(g1).tobytes()
        f2, g2 = p.eval_f(x), p.eval_g(x)
        assert x.tobytes() == before
        assert _same_bits(f1, f2) and np.asarray(g1).tobytes() == g1_bytes
        assert np.asarray(g2).tobytes() == g1_bytes


# --- the four nonquadratic families in their textbook form ----------------------
# Each library evaluator must return these formulas' values bit for bit.

def _reference_ext_rosenbrock(n):
    def f(x):
        xo = x[0::2]
        xe = x[1::2]
        return float(np.sum(100.0 * (xe - xo ** 2) ** 2 + (1.0 - xo) ** 2))

    def g(x):
        xo = x[0::2]
        xe = x[1::2]
        grad = np.empty_like(x)
        grad[0::2] = -400.0 * xo * (xe - xo ** 2) - 2.0 * (1.0 - xo)
        grad[1::2] = 200.0 * (xe - xo ** 2)
        return grad

    return f, g


def _reference_powell_singular(n):
    def f(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        return float(np.sum((x1 + 10.0 * x2) ** 2 + 5.0 * (x3 - x4) ** 2
                            + (x2 - 2.0 * x3) ** 4 + 10.0 * (x1 - x4) ** 4))

    def g(x):
        x1, x2, x3, x4 = x[0::4], x[1::4], x[2::4], x[3::4]
        grad = np.empty_like(x)
        a = x1 + 10.0 * x2
        b = x3 - x4
        c = x2 - 2.0 * x3
        d = x1 - x4
        grad[0::4] = 2.0 * a + 40.0 * d ** 3
        grad[1::4] = 20.0 * a + 4.0 * c ** 3
        grad[2::4] = 10.0 * b - 8.0 * c ** 3
        grad[3::4] = -10.0 * b - 40.0 * d ** 3
        return grad

    return f, g


def _reference_trigonometric(n):
    def residuals(x):
        i = np.arange(1, n + 1)
        return n - np.sum(np.cos(x)) + i * (1.0 - np.cos(x)) - np.sin(x)

    def f(x):
        r = residuals(x)
        return 0.5 * float(np.dot(r, r))

    def g(x):
        i = np.arange(1, n + 1)
        r = residuals(x)
        return np.sin(x) * np.sum(r) + r * (i * np.sin(x) - np.cos(x))

    return f, g


def _reference_broyden_tridiag(n):
    def residuals(x):
        xm = np.concatenate(([0.0], x[:-1]))
        xp = np.concatenate((x[1:], [0.0]))
        return (3.0 - 2.0 * x) * x - xm - 2.0 * xp + 1.0

    def f(x):
        r = residuals(x)
        return 0.5 * float(np.dot(r, r))

    def g(x):
        r = residuals(x)
        grad = (3.0 - 4.0 * x) * r
        grad[:-1] -= r[1:]
        grad[1:] -= 2.0 * r[:-1]
        return grad

    return f, g


_REFERENCES = {
    "ext_rosenbrock": _reference_ext_rosenbrock,
    "powell_singular": _reference_powell_singular,
    "trigonometric": _reference_trigonometric,
    "broyden_tridiag": _reference_broyden_tridiag,
}


def _probe_points(x0, seed):
    """x0, seeded points at scales 1e-8 to 10 (about x0 and about 0), and
    points with an inf, a -inf, a NaN or signed zeros in them."""
    rng = np.random.default_rng(seed)
    n = x0.size
    points = [x0]
    for scale in (1e-8, 1e-4, 1e-2, 1.0, 10.0):
        points.append(x0 + scale * rng.standard_normal(n))
        points.append(scale * rng.standard_normal(n))
    for special in (np.inf, -np.inf, np.nan):
        x = x0.copy()
        x[rng.integers(n)] = special
        points.append(x)
    points.append(np.full(n, -0.0))
    points.append(np.where(rng.random(n) < 0.5, -0.0, 0.0))
    return points


@pytest.mark.parametrize("name", [spec.name for spec in registry()
                                  if spec.name.split("(")[0] in _REFERENCES])
def test_evaluators_return_the_textbook_formulas_bit_for_bit(name):
    p = get_problem(name)
    ref_f, ref_g = _REFERENCES[name.split("(")[0]](p.dim)
    for x in _probe_points(p.x0, seed=p.dim):
        with np.errstate(all="ignore"):
            f, g = p.eval_f(x), p.eval_g(x)
            want_f, want_g = ref_f(x.copy()), ref_g(x.copy())
        assert f == want_f or (np.isnan(f) and np.isnan(want_f)), (name, x)
        assert _same_bits(f, want_f), (name, x)
        assert g.dtype == want_g.dtype and g.shape == want_g.shape
        assert _same_bits(g, want_g), (name, x)


def test_ill_conditioned_family_triggers_orthogonality_loss_in_ablation():
    for name in ("quad_hilbert(8)", "palmer_poly(8)"):
        _, trace = run_with_trace(get_problem(name), rqn_enabled=False)
        assert any(rec.orth_lost_flag for rec in trace), name


# --- the checks' other suites: perturbed starts, dense quadratics, units --------

def test_perturbed_starts_are_fixed_and_leave_the_standard_start():
    x0 = get_problem("ext_rosenbrock(10)").x0
    starts = [perturbed_start(x0, j) for j in PERTURBED_SEEDS]
    assert len(starts) == 5
    for j, start in zip(PERTURBED_SEEDS, starts):
        np.testing.assert_array_equal(perturbed_start(x0, j), start)
        assert np.all(start != x0)
        # each entry moves by 1e-3 (1 + |x0_i|) times a standard normal draw
        assert np.all(np.abs(start - x0) <= 6e-3 * (1.0 + np.abs(x0)))
    assert len({s.tobytes() for s in starts}) == 5
    np.testing.assert_array_equal(x0, get_problem("ext_rosenbrock(10)").x0)


def test_ulp_starts_are_fixed_and_within_three_ulps_of_the_standard_start():
    x0 = get_problem("palmer_poly(8)").x0
    starts = [ulp_start(x0, j) for j in ULP_STARTS]
    assert len(starts) == 24
    np.testing.assert_array_equal(starts[0], x0)
    for j, start in zip(ULP_STARTS, starts):
        np.testing.assert_array_equal(ulp_start(x0, j), start)
        steps = (start - x0) / np.spacing(x0)
        np.testing.assert_array_equal(steps, np.round(steps))
        assert np.abs(steps).max() <= 3.0
    assert len({s.tobytes() for s in starts}) == 24
    np.testing.assert_array_equal(x0, get_problem("palmer_poly(8)").x0)


def test_perturbed_suite_starts_each_instance_from_each_seed():
    suite = SUITES["perturbed"]()
    specs = registry()
    assert [label for label, _ in suite] == [
        f"{spec.name} {j}" for spec in specs for j in PERTURBED_SEEDS]
    cases = ((spec, j) for spec in specs for j in PERTURBED_SEEDS)
    for (_, problem), (spec, j) in zip(suite, cases):
        standard = spec.make()
        assert problem.name == spec.name and problem.dim == spec.dim
        np.testing.assert_array_equal(problem.x0,
                                      perturbed_start(standard.x0, j))
        x = problem.x0
        assert problem.eval_f(x) == standard.eval_f(x)
        np.testing.assert_array_equal(problem.eval_g(x), standard.eval_g(x))


def test_suites_are_the_four_check_suites_with_their_labels_and_starts():
    assert list(SUITES) == ["registry", "perturbed", "dense", "ulp"]
    suites = {name: build() for name, build in SUITES.items()}
    assert {name: len(suite) for name, suite in suites.items()} == {
        "registry": 21, "perturbed": 105, "dense": 15, "ulp": 72}
    names = [spec.name for spec in registry()]
    assert [label for label, _ in suites["registry"]] == names
    assert [p.name for _, p in suites["registry"]] == names
    assert [label for label, _ in suites["dense"]] == [
        f"dense_quad({n}) {seed}" for n in DENSE_SIZES for seed in DENSE_SEEDS]
    for (_, problem), n in zip(suites["dense"],
                               (n for n in DENSE_SIZES for _ in DENSE_SEEDS)):
        assert (problem.name, problem.dim) == (f"dense_quad({n})", n)
    for suite, start, instances, seeds in (
            ("perturbed", perturbed_start, names, PERTURBED_SEEDS),
            ("ulp", ulp_start, ULP_INSTANCES, ULP_STARTS)):
        cases = [(name, j) for name in instances for j in seeds]
        assert [label for label, _ in suites[suite]] == [
            f"{name} {j}" for name, j in cases]
        for (_, problem), (name, j) in zip(suites[suite], cases):
            assert problem.name == name
            np.testing.assert_array_equal(
                problem.x0, start(get_problem(name).x0, j))
    # each call builds its problems afresh
    for name, build in SUITES.items():
        again = build()
        assert all(a is not b for (_, a), (_, b) in zip(suites[name], again))


def test_dense_quadratics_are_fixed_and_positive_definite():
    assert len(DENSE_SIZES) * len(DENSE_SEEDS) == 15
    for n in DENSE_SIZES:
        drawn = [dense_quadratic_terms(n, seed) for seed in DENSE_SEEDS]
        for seed, (A, b) in zip(DENSE_SEEDS, drawn):
            again = dense_quadratic_terms(n, seed)
            np.testing.assert_array_equal(again[0], A)
            np.testing.assert_array_equal(again[1], b)
            assert A.shape == (n, n) and b.shape == (n,)
            np.testing.assert_array_equal(A, A.T)
            # the spectrum is logspace(-4, 0, n), up to rounding
            np.testing.assert_allclose(np.linalg.eigvalsh(A),
                                       np.logspace(-4.0, 0.0, n),
                                       rtol=1e-6, atol=1e-12)
        assert len({A.tobytes() for A, _ in drawn}) == len(drawn)


def test_dense_suite_builds_each_quadratic_started_at_zero():
    for n in DENSE_SIZES:
        for seed in DENSE_SEEDS:
            problem = dense_quadratic(n, seed)
            assert problem.name == f"dense_quad({n})" and problem.dim == n
            A, b = dense_quadratic_terms(n, seed)
            np.testing.assert_array_equal(problem.x0, np.zeros(n))
            x = np.linspace(-1.0, 1.0, n)
            np.testing.assert_array_equal(problem.eval_g(x), A @ x - b)
            assert problem.eval_f(x) == 0.5 * float(x @ (A @ x)) - float(b @ x)


def test_dense_quadratic_is_the_benchmarks_dense_quad_bit_for_bit(load_script):
    # the benchmark keeps its own copy; load it by path, writing no bytecode
    # and registering it, as its dataclasses look their module up by name
    workloads = load_script("perfbench/workloads.py", "perfbench_workloads",
                            register=True)
    n, seed = workloads.DENSE_QUAD_N, workloads.DENSE_QUAD_SEED
    name, dim, f, g, x0 = workloads.dense_quadratic(np.random.default_rng(seed), n)
    problem = dense_quadratic(n, seed)
    assert (problem.name, problem.dim) == (name, dim) == ("dense_quad(1000)", 1000)
    np.testing.assert_array_equal(problem.x0, x0)
    x = np.random.default_rng(7).standard_normal(n)
    assert problem.eval_f(x) == f(x)
    assert problem.eval_g(x).tobytes() == g(x).tobytes()


@pytest.mark.parametrize("k", [-10, 10])
def test_scaled_f_and_g_are_exactly_two_to_the_k_times_the_plain_ones(k):
    for name in ("ext_rosenbrock(10)", "palmer_poly(8)", "trigonometric(10)"):
        problem = get_problem(name)
        big = scaled(problem, k)
        x0 = problem.x0
        assert big.eval_f(x0) == 2.0 ** k * problem.eval_f(x0) != 0.0
        np.testing.assert_array_equal(big.eval_g(x0),
                                      2.0 ** k * problem.eval_g(x0))
        np.testing.assert_array_equal(big.x0, x0)


@pytest.mark.parametrize("k", [-1022, 1023])
def test_scaled_takes_every_normal_power_of_two(k):
    problem = get_problem("sphere(10)")
    x = np.full(10, 0.5)
    assert scaled(problem, k).eval_f(x) == 2.0 ** k * problem.eval_f(x) != 0.0


@pytest.mark.parametrize("k", [-1100, -1075, -1023, 1024, 2000])
def test_scaled_refuses_a_power_of_two_that_is_not_a_normal_float(k):
    with pytest.raises(ValueError, match=str(k)):
        scaled(get_problem("sphere(10)"), k)
