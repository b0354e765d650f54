import numpy as np
import pytest

from rlsmcg.acceleration import (TrialPoint, accel_criterion, accel_parameter,
                                 apply_acceleration)
from rlsmcg.core import CountingProblem, Problem, SolverParams
from rlsmcg.linesearch import NonmonotoneLedger

P = SolverParams().resolve(2)


def halfsq_1d():
    return Problem("halfsq", 1, lambda x: 0.5 * float(x[0] ** 2),
                   lambda x: np.array([x[0]]), np.zeros(1))


def make_trial(prob, x, d, alpha):
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    z = x + alpha * d
    return TrialPoint(z=z, f_z=prob.eval_f(z), g_z=prob.eval_g(z),
                      alpha=alpha, d=d)


def gate_scalars(trial):
    """alpha, f_z, the slope g_z'd and d'd: what the gate reads of a trial."""
    return (trial.alpha, trial.f_z, float(trial.g_z @ trial.d),
            float(trial.d @ trial.d))


def test_criterion_rejects_large_gradient():
    prob = halfsq_1d()
    x = np.array([2.0])  # ||g||^2 = 4 > tau_hat
    trial = make_trial(prob, x, [-1.0], 0.1)
    gTd = float(prob.eval_g(x) @ trial.d)
    assert not accel_criterion(prob.eval_f(x), 4.0, gTd, *gate_scalars(trial), P)


def test_criterion_rejects_concave_slope_gap():
    # f concave along the step: b_bar < 0 < eps_bar
    prob = Problem("conc", 1, lambda x: -0.5 * float(x[0] ** 2),
                   lambda x: np.array([-x[0]]), np.zeros(1))
    x = np.array([0.5])
    trial = make_trial(prob, x, [1.0], 0.1)
    gTd = float(prob.eval_g(x) @ trial.d)
    assert gTd < 0
    assert not accel_criterion(prob.eval_f(x), 0.25, gTd, *gate_scalars(trial), P)


def test_criterion_rejects_long_step():
    # x=0.9, d=-1, alpha=0.5: b=0.25 >= eps, but ||s||^2 = 0.25 > tau_bar
    prob = halfsq_1d()
    x = np.array([0.9])
    trial = make_trial(prob, x, [-1.0], 0.5)
    gTd = float(prob.eval_g(x) @ trial.d)
    b_bar = trial.alpha * (float(trial.g_z @ trial.d) - gTd)
    assert b_bar == pytest.approx(0.25)
    assert b_bar >= P.eps_bar
    assert 0.81 <= P.tau_hat
    assert not accel_criterion(prob.eval_f(x), 0.81, gTd, *gate_scalars(trial), P)


def test_criterion_accepts_overshot_quadratic_step():
    # an 11x overshoot of the line minimizer keeps the interpolation
    # residual small: t = eta/(1-eta) with eta = |g's| / s'Hs = 0.05
    prob = halfsq_1d()
    x = np.array([0.02])
    trial = make_trial(prob, x, [-1.0], 0.4)
    gTd = float(prob.eval_g(x) @ trial.d)
    assert accel_criterion(prob.eval_f(x), 4e-4, gTd, *gate_scalars(trial), P)


def test_parameter_secant_step_on_quadratic():
    # x=1, d=-1, alpha=0.5: a=-0.5, b=0.25, eta=2; x+ = 0 is the minimizer
    a_bar, b_bar = -0.5, 0.25
    eta = accel_parameter(a_bar, b_bar, P)
    assert eta == 2.0
    assert 1.0 + eta * 0.5 * (-1.0) == 0.0


def test_parameter_noop_when_scalars_balance():
    assert accel_parameter(-0.25, 0.25, P) == 1.0


def test_parameter_exact_linesearch_gives_one():
    # g_z'd = 0 implies b = -a, hence eta = 1
    prob = halfsq_1d()
    x = np.array([1.0])
    trial = make_trial(prob, x, [-1.0], 1.0)  # lands exactly at the minimizer
    gTd = float(prob.eval_g(x) @ trial.d)
    a_bar = trial.alpha * gTd
    b_bar = trial.alpha * (float(trial.g_z @ trial.d) - gTd)
    assert accel_parameter(a_bar, b_bar, P) == 1.0


def test_parameter_guards_small_denominator():
    with pytest.raises(ValueError):
        accel_parameter(-1.0, P.eps_bar / 10.0, P)


def test_apply_accepts_and_lands_on_minimizer():
    prob = halfsq_1d()
    cp = CountingProblem(prob)
    x = np.array([1.0])
    f = prob.eval_f(x)
    trial = make_trial(prob, x, [-1.0], 0.5)
    gTd = float(prob.eval_g(x) @ trial.d)
    led = NonmonotoneLedger.start(f)
    res = apply_acceleration(cp, x, gTd, trial, led, P)
    assert res.accepted
    assert res.eta_bar == 2.0
    assert res.x_next == pytest.approx([0.0])
    assert res.g_next == pytest.approx([0.0])
    assert (cp.n_f, cp.n_g) == (1, 1)  # exactly one extra pair


def test_apply_rejection_restores_trial_bitwise():
    # objective with a spike at the rescaled candidate so it fails the test
    def f(x):
        base = 0.5 * float(x[0] ** 2)
        return base + (100.0 if abs(x[0]) < 1e-3 else 0.0)

    prob = Problem("spiky", 1, f, lambda x: np.array([x[0]]), np.zeros(1))
    cp = CountingProblem(prob)
    x = np.array([1.0])
    f0 = prob.eval_f(x)
    clean = halfsq_1d()
    trial = make_trial(clean, x, [-1.0], 0.5)  # z=0.5, smooth values
    gTd = float(clean.eval_g(x) @ trial.d)
    led = NonmonotoneLedger.start(f0)
    res = apply_acceleration(cp, x, gTd, trial, led, P)
    assert not res.accepted
    assert res.eta_bar == 1.0
    assert res.x_next is trial.z
    assert res.f_next == trial.f_z
    assert res.g_next is trial.g_z
    assert (cp.n_f, cp.n_g) == (1, 1)  # the failed candidate still costs one pair


def test_secant_exactness_on_random_quadratics():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(-1.0, 1.0))
        prob = Problem("q", 1, lambda x, a=a, b=b: 0.5 * a * float((x[0] - b) ** 2),
                       lambda x, a=a, b=b: np.array([a * (x[0] - b)]),
                       np.zeros(1))
        x = np.array([b + float(rng.uniform(0.05, 0.5))])
        g = prob.eval_g(x)
        d = -g
        alpha = float(rng.uniform(0.05, 0.5)) / a
        trial = make_trial(prob, x, d, alpha)
        gTd = float(g @ d)
        a_bar = alpha * gTd
        b_bar = alpha * (float(trial.g_z @ d) - gTd)
        eta = accel_parameter(a_bar, b_bar, P)
        landing = x + eta * alpha * d
        assert landing[0] == pytest.approx(b, abs=1e-10)
