import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rlsmcg import linesearch
from rlsmcg.core import (CaseTag, CountingProblem, DirectionRecord, Problem,
                         SolverParams, SolverState, dot)
from rlsmcg.linesearch import (SLOPE_FIT_REL, AcceptKind, LineFunction,
                               NonmonotoneLedger, _eta_rule,
                               bb_fallback_stepsize, clip_step, curvature_ok,
                               f_at_rounding_level, initial_stepsize,
                               interp_step, ledger_update, q_next,
                               quad_interp_min, secant_step,
                               sufficient_decrease_ok, wolfe_search)
from rlsmcg.solver import Phase, Rlsmcg
from rlsmcg.subspace_rqn import SubspaceHessian

P = SolverParams()


def line_1d(f, g, x0=0.0, d=1.0, f0=None, g0=None):
    """1-D LineFunction over scalar callables."""
    prob = Problem("line", 1, lambda x: float(f(x[0])),
                   lambda x: np.array([g(x[0])]), np.zeros(1))
    cp = CountingProblem(prob)
    return LineFunction(cp, np.array([x0]), np.array([d]),
                        f0=f0, g0=None if g0 is None else np.array([g0]))


# --- interpolation -------------------------------------------------------------

def test_interp_hand_value():
    assert quad_interp_min(1.0, -1.0, 1.0, 1.0) == pytest.approx(0.5)


def test_interp_exact_on_quadratic():
    # phi(a) = (a - 0.3)^2 has phi(0)=0.09, phi'(0)=-0.6, phi(1)=0.49
    assert quad_interp_min(0.09, -0.6, 0.49, 1.0) == pytest.approx(0.3, abs=1e-15)


def test_interp_linear_data_has_no_minimizer():
    assert quad_interp_min(1.0, -1.0, 0.0, 1.0) is None


# --- BB step ---------------------------------------------------------------------
# g = -s makes g's < 0 and selects BB1 = s's/s'y; g = s selects BB2 = s'y/y'y

def test_bb_equal_vectors():
    s = np.array([1.0, 0.0])
    assert bb_fallback_stepsize(-s, s, s, P) == 1.0
    assert bb_fallback_stepsize(s, s, s, P) == 1.0


def test_bb_hand_values():
    s, y = np.array([1.0, 1.0]), np.array([1.0, 2.0])
    bb1, bb2 = bb_fallback_stepsize(-s, s, y, P), bb_fallback_stepsize(s, s, y, P)
    assert bb1 == (s @ s) / (s @ y) == pytest.approx(2.0 / 3.0)
    assert bb2 == (s @ y) / (y @ y) == pytest.approx(3.0 / 5.0)


def test_bb_ordering_and_eigen_interval():
    rng = np.random.default_rng(2)
    lam = 7.0
    A = np.diag([1.0, lam])
    for _ in range(100):
        s = rng.standard_normal(2)
        y = A @ s
        bb1 = bb_fallback_stepsize(-s, s, y, P)
        bb2 = bb_fallback_stepsize(s, s, y, P)
        assert bb2 <= bb1 + 1e-15
        assert 1.0 / lam - 1e-12 <= bb1 <= 1.0 + 1e-12


def test_bb_with_a_pair_takes_three_products(monkeypatch):
    # s'y, g's and the one quotient's other product, for either quotient
    products = []

    def counted(a, b):
        products.append((a, b))
        return dot(a, b)

    monkeypatch.setattr(linesearch, "dot", counted)
    s, y = np.array([1.0, 1.0]), np.array([1.0, 2.0])
    for g in (-s, s):
        products.clear()
        bb_fallback_stepsize(g, s, y, P)
        assert len(products) == 3


def test_bb_fallback_first_iteration_uses_gradient_scale():
    g = np.array([0.0, 4.0])
    assert bb_fallback_stepsize(g, None, None, P) == pytest.approx(0.25)
    assert bb_fallback_stepsize(np.zeros(2), None, None, P) == 1.0
    assert bb_fallback_stepsize(np.array([1e-20]), None, None, P) == P.alpha_max


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_bb_quotient_of_two_overflows_falls_back_to_gradient_scale():
    # s'y, s's and y'y all overflow, so either quotient is inf/inf = NaN
    s = np.array([1e160, 1e160])
    assert bb_fallback_stepsize(np.array([1.0, 0.5]), s, s, P) == 1.0      # BB2
    assert bb_fallback_stepsize(np.array([-4.0, 0.0]), s, s, P) == 0.25    # BB1


def test_bb2_over_a_yty_that_underflows_is_the_longest_step():
    # s'y = 1e-200 > 0 but y'y = 1e-400 underflows to 0: the limit is +inf
    s, y = np.array([1.0]), np.array([1e-200])
    assert bb_fallback_stepsize(np.array([1.0]), s, y, P) == P.alpha_max


def test_bb_fallback_nonpositive_curvature_clips_to_floor():
    g = np.array([1.0, 0.0])
    s = np.array([1.0, 0.0])
    y = np.array([-1.0, 0.0])
    assert bb_fallback_stepsize(g, s, y, P) == P.alpha_min


# --- initial stepsize ------------------------------------------------------------

def test_initial_step_interpolates_exact_quadratic():
    # phi(a) = 2 (a - 0.4)^2: minimizer 0.4 inside the clip window
    line = line_1d(lambda a: 2 * (a - 0.4) ** 2, lambda a: 4 * (a - 0.4),
                   f0=2 * 0.16)
    a0 = initial_stepsize(line, -1.6, P, quad_like=True)
    assert a0 == pytest.approx(0.4, abs=1e-12)


def test_initial_step_gate_measures_change_relative_to_abs_f():
    # at phi(0) = -1 the steep phi(1) is still (1e6 - 1) / 1.1 relative
    # changes away, far past tau2; a signed denominator tau1 + phi(0) < 0
    # would let the gate pass
    f0 = -1.0
    line = line_1d(lambda a: f0 + 1e6 * a * a - a, lambda a: 2e6 * a - 1, f0=f0)
    assert initial_stepsize(line, -1.0, P, quad_like=False) is None


def _trial_step(line, gTd, case_tag, bb, *, quad_like=True, gnorm2=1.0,
                phase=None, slope_fit=False):
    """``Rlsmcg.trial_step`` for a ``case_tag`` record along ``line``, after a
    model step, with ||g||^2 = ``gnorm2``, the RQN phase ``phase``, the pair
    s = bb, y = 1 (BB2 = bb, taken since g's > 0) and the slope gate
    ``slope_fit`` on the state."""
    policy = Rlsmcg()
    policy.quad_like, policy.gnorm2 = quad_like, gnorm2
    policy.prev_case, policy.phase = CaseTag.QUAD_SUBPROBLEM, phase
    state = SolverState(k=1, x=np.zeros(1), f=line.value(0.0), g=np.ones(1),
                        s_prev=np.array([bb]), y_prev=np.ones(1),
                        slope_fit=slope_fit)
    record = DirectionRecord(d=line.d, case_tag=case_tag, gTd=gTd)
    return policy.trial_step(line, state, record, P)


def _steep_line():
    # steep growth of phi(1) makes the relative-change ratio exceed tau2
    f0 = 0.001
    return line_1d(lambda a: f0 + 1e6 * a * a - a, lambda a: 2e6 * a - 1, f0=f0)


def test_initial_step_unit_fallback_when_gates_closed():
    # a model step falls back to 1 even with a BB value on offer
    a0 = _trial_step(_steep_line(), -1.0, CaseTag.QUAD_SUBPROBLEM, bb=0.123,
                     quad_like=False)
    assert a0 == 1.0


def test_initial_step_neg_grad_gate_requires_small_gradient():
    line = line_1d(lambda a: 0.5 * (a - 1.0) ** 2, lambda a: a - 1.0, f0=0.5)
    a0 = _trial_step(line, -1.0, CaseTag.NEG_GRAD, bb=0.321, gnorm2=4.0)
    assert a0 == 0.321  # ||g||^2 = 4 > 1 forces the BB fallback


def test_initial_step_neg_grad_interpolates_when_gate_open():
    line = line_1d(lambda a: 0.5 * (a - 0.25) ** 2, lambda a: a - 0.25,
                   f0=0.5 * 0.25 ** 2)
    a0 = _trial_step(line, -0.25, CaseTag.NEG_GRAD, bb=1.0, gnorm2=0.0625)
    assert a0 == pytest.approx(0.25, abs=1e-12)


def test_initial_step_rqn_identity_falls_back_to_bb():
    # while the reduced Hessian is still the identity, the BB step replaces 1
    phase = Phase(basis=np.ones((1, 1)), core=np.ones((1, 1)),
                  bhat=SubspaceHessian.identity(1, 0.0))
    a0 = _trial_step(_steep_line(), -1.0, CaseTag.RQN, bb=0.777,
                     quad_like=False, phase=phase)
    assert a0 == 0.777


def test_interp_step_declines_nonfinite_and_concave_data():
    line = line_1d(lambda a: math.inf if a > 0.5 else -a, lambda a: -1.0, f0=0.0)
    assert interp_step(line, 1.0, -1.0, P) is None   # phi(1) = inf
    assert interp_step(line, 0.5, -1.0, P) is None   # linear: no minimizer
    line = line_1d(lambda a: (a - 3.0) ** 2, lambda a: 2 * (a - 3.0), f0=9.0)
    assert interp_step(line, 1.0, -6.0, P) == pytest.approx(3.0)


# --- the slope fit once f's changes are at rounding level ---------------------
# phi(a) = 2^40 + h (a - 0.3)^2 / 2: one ulp of phi is 2^-12, and phi(1) -
# phi(0) = 2e-4 rounds to one ulp, so a fit through values misses 0.3;
# the slopes h (a - 0.3) are exact to a few ulps of 1e-3

OFFSET, H, A_STAR = 2.0 ** 40, 1e-3, 0.3


def _offset_line():
    return line_1d(lambda a: OFFSET + 0.5 * H * (a - A_STAR) ** 2,
                   lambda a: H * (a - A_STAR), f0=OFFSET + 0.5 * H * A_STAR ** 2,
                   g0=-H * A_STAR)


def test_secant_step_hits_the_minimizer_where_the_value_fit_misses():
    gTd = -H * A_STAR
    line = _offset_line()
    assert line.value(1.0) - line.value(0.0) == 2.0 ** -12
    assert abs(interp_step(line, 1.0, gTd, P) - A_STAR) > 0.01
    line = _offset_line()
    assert secant_step(line, 1.0, gTd, P) == pytest.approx(A_STAR, rel=1e-13)
    # the probe evaluates g at 1, and no f
    assert (line.problem.n_f, line.problem.n_g) == (0, 1)


@pytest.mark.parametrize("slope1", [-H * A_STAR, -1.0, math.nan, math.inf,
                                    -math.inf])
def test_secant_step_without_a_convex_fit_is_none(slope1):
    # phi'(1) - g'd is 0 (linear), negative (concave) or not finite
    line = line_1d(lambda a: -a, lambda a: slope1 if a else -H * A_STAR, f0=0.0)
    assert secant_step(line, 1.0, -H * A_STAR, P) is None


def test_secant_step_is_clipped():
    # a slope that barely rises puts the zero far past alpha_max
    line = line_1d(lambda a: -a, lambda a: -1.0 + 1e-12 * a, f0=0.0)
    assert secant_step(line, 1.0, -1.0, P) == P.alpha_max


@pytest.mark.parametrize("case_tag", [CaseTag.QUAD_SUBPROBLEM, CaseTag.RQN])
def test_trial_step_fits_slopes_only_through_the_gate(case_tag):
    phase = Phase(basis=np.ones((1, 1)), core=np.ones((1, 1)),
                  bhat=SubspaceHessian.identity(1, 0.0))
    gTd = -H * A_STAR
    fitted = _trial_step(_offset_line(), gTd, case_tag, bb=0.777,
                         phase=phase, slope_fit=True)
    assert fitted == pytest.approx(A_STAR, rel=1e-13)
    by_value = _trial_step(_offset_line(), gTd, case_tag, bb=0.777,
                           phase=phase)
    assert by_value == interp_step(_offset_line(), 1.0, gTd, P) != fitted


def test_trial_step_falls_back_to_the_value_rule_without_a_slope_fit():
    # concave slopes, convex values: the gate is open, the secant declines,
    # and the step is the value fit's (2.0) as with the gate shut
    line = line_1d(lambda a: 0.25 * (a - 2.0) ** 2, lambda a: -1.0 - a, f0=1.0)
    assert secant_step(line, 1.0, -1.0, P) is None
    for slope_fit in (True, False):
        a0 = _trial_step(line, -1.0, CaseTag.QUAD_SUBPROBLEM, bb=0.777,
                         slope_fit=slope_fit)
        assert a0 == pytest.approx(2.0)


def test_neg_grad_trial_step_ignores_the_gate():
    line = line_1d(lambda a: 0.5 * (a - 0.25) ** 2, lambda a: a - 0.25,
                   f0=0.5 * 0.25 ** 2)
    a0 = _trial_step(line, -0.25, CaseTag.NEG_GRAD, bb=0.321, gnorm2=4.0,
                     slope_fit=True)
    assert a0 == 0.321 and line.problem.n_g == 0


@pytest.mark.parametrize("slope_fit", [True, False])
def test_hs_trial_step_fits_slopes_only_through_the_gate(slope_fit):
    from rlsmcg.baselines import BaselineKind, BaselineTag, _Policy
    policy = _Policy(BaselineKind(BaselineTag.HS_CG))
    line, gTd = _offset_line(), -H * A_STAR
    # the last step's alpha g'd puts N&W's probe alpha g'd / g'd at 2
    policy.alpha_gTd, probe = 2.0 * gTd, 2.0
    state = SolverState(k=1, x=np.zeros(1), f=line.value(0.0),
                        g=np.array([gTd]), s_prev=np.ones(1), y_prev=np.ones(1),
                        slope_fit=slope_fit)
    record = DirectionRecord(d=line.d, case_tag=CaseTag.HS, gTd=gTd)
    a0 = policy.trial_step(line, state, record, P)
    if slope_fit:
        assert a0 == secant_step(_offset_line(), probe, gTd, P)
        assert a0 == pytest.approx(A_STAR, rel=1e-13)
        assert (line.problem.n_f, line.problem.n_g) == (0, 1)
        line.slope(probe)  # the one g was taken at the probe: a cache hit
    else:
        assert a0 == interp_step(_offset_line(), probe, gTd, P)
        assert a0 != interp_step(_offset_line(), 1.0, gTd, P)
        assert (line.problem.n_f, line.problem.n_g) == (1, 0)
        line.value(probe)  # the one f was taken at the probe: a cache hit
    assert (line.problem.n_f, line.problem.n_g) == ((0, 1) if slope_fit else (1, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(h=st.floats(1e-3, 1e3), x_star=st.floats(0.5, 10.0),
       quartic=st.floats(0.0, 1.0), c=st.floats(-1e3, 1e3),
       probe=st.floats(1e-3, 1e3), slope_fit=st.booleans(),
       k=st.sampled_from([10, -10]))
def test_hs_first_trial_has_no_units(h, x_star, quartic, c, probe, slope_fit, k):
    # phi = c + h (a - x*)^2 / 2 + quartic (a - x*)^4 along d = -g(0), in
    # native units and at f 2^k; the scaled d and g'd carry 2^k and 2^2k,
    # the last alpha g'd 2^k, so the probe and the trial carry 2^-k
    from rlsmcg.baselines import BaselineKind, BaselineTag, _Policy

    def trial(scale):
        u = math.ldexp(1.0, scale)
        f = lambda a: u * (c + 0.5 * h * (a - x_star) ** 2
                           + quartic * (a - x_star) ** 4)
        g = lambda a: u * (h * (a - x_star) + 4.0 * quartic * (a - x_star) ** 3)
        g0 = g(0.0)
        line = line_1d(f, g, d=-g0, f0=f(0.0), g0=g0)
        policy = _Policy(BaselineKind(BaselineTag.HS_CG))
        gTd = -g0 * g0
        policy.alpha_gTd = probe * math.ldexp(gTd, -scale)
        state = SolverState(k=1, x=np.zeros(1), f=f(0.0), g=np.array([g0]),
                            s_prev=np.ones(1), y_prev=np.ones(1),
                            slope_fit=slope_fit)
        record = DirectionRecord(d=line.d, case_tag=CaseTag.HS, gTd=gTd)
        at = policy.alpha_gTd / gTd
        fit = (secant_step if slope_fit else interp_step)(
            line_1d(f, g, d=-g0, f0=f(0.0), g0=g0), at, gTd, P)
        return policy.trial_step(line, state, record, P), fit

    native, native_fit = trial(0)
    assume(native_fit is not None and native == native_fit)
    assume(P.alpha_min * 2.0 ** 10 <= native <= P.alpha_max * 2.0 ** -10)
    assert trial(k) == (math.ldexp(native, -k), math.ldexp(native_fit, -k))


def test_rounding_level_gate_hand_values():
    assert SLOPE_FIT_REL == 1e-12
    assert f_at_rounding_level(1.0 + 2.0 ** -40, 1.0)      # 9.1e-13
    assert not f_at_rounding_level(1.0 + 2.0 ** -39, 1.0)  # 1.8e-12
    assert f_at_rounding_level(-5.0, -5.0)
    assert f_at_rounding_level(0.0, 0.0)
    assert not f_at_rounding_level(math.nan, 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.floats(1.0, 2.0, exclude_max=True), sign=st.sampled_from([1, -1]),
       e=st.integers(-100, 100), ulps=st.integers(-9000, 9000),
       k=st.sampled_from([10, -10]))
def test_rounding_level_gate_has_no_units(m, sign, e, ulps, k):
    # f_prev up to 9,000 ulps from f straddles SLOPE_FIT_REL |f| = 1e-12 |f|,
    # 4,500 to 9,000 ulps; scaling both by 2^k is exact and keeps the answer
    f = sign * math.ldexp(m, e)
    f_prev = f + ulps * math.ulp(f)
    assert (f_at_rounding_level(math.ldexp(f_prev, k), math.ldexp(f, k))
            == f_at_rounding_level(f_prev, f))


# --- ledger ----------------------------------------------------------------------

def test_ledger_first_update_uses_fixed_weight():
    led = NonmonotoneLedger.start(10.0)
    led1 = ledger_update(led, 9.0)
    assert led1.Qk == 2.0
    assert led1.Ck == 10.0  # min(10, 9 + 1)
    assert led1.k == 1


def test_ledger_eta_stays_low_early():
    led = NonmonotoneLedger(Ck=1.0, Qk=3.0, k=50)
    led2 = ledger_update(led, 0.01)
    # reduction 0.99 > 0.95 but k <= 100 keeps eta at 0.9
    assert led2.Qk == pytest.approx(0.9 * 3.0 + 1.0)


def test_ledger_eta_locks_late_on_large_reduction():
    led = NonmonotoneLedger(Ck=1.0, Qk=3.0, k=150)
    led2 = ledger_update(led, 0.01)
    assert led2.Qk == pytest.approx(1.0 * 3.0 + 1.0)


def test_ledger_recurrences_hold_exactly():
    rng = np.random.default_rng(4)
    led = NonmonotoneLedger(Ck=5.0, Qk=1.7, k=3)
    for _ in range(50):
        f_next = float(rng.normal())
        new = ledger_update(led, f_next)
        eta = _eta_rule(led.Ck, f_next, led.k)
        assert new.Qk == eta * led.Qk + 1.0
        assert new.Ck == (eta * led.Qk * led.Ck + f_next) / new.Qk
        led = new


def test_equivalence_identity_between_forms():
    # C_{k+1} <= C_k + X  iff  f_{k+1} <= C_k + Q_{k+1} X, via Q_{k+1} - eta Q_k = 1
    rng = np.random.default_rng(9)
    for _ in range(200):
        led = NonmonotoneLedger(Ck=float(rng.normal()),
                                Qk=float(rng.uniform(1, 10)),
                                k=int(rng.integers(1, 300)))
        f_next = float(rng.normal())
        X = float(-abs(rng.normal()))
        new = ledger_update(led, f_next)
        lhs = new.Ck - (led.Ck + X)
        rhs = (f_next - (led.Ck + new.Qk * X)) / new.Qk
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_reference_value_monotone_under_acceptance():
    rng = np.random.default_rng(10)
    led = NonmonotoneLedger.start(3.0)
    for k in range(100):
        gTd = -abs(float(rng.normal())) - 1e-3
        alpha = float(rng.uniform(0.1, 2.0))
        Qn = None
        # accepted step: satisfies the explicit-form decrease strictly
        for _ in range(50):
            f_next = led.Ck + q_next(led, led.Ck) * P.delta_k * alpha * gTd \
                - abs(float(rng.normal())) * 1e-3
            if sufficient_decrease_ok(f_next, led, 1.0, alpha, gTd, P):
                break
        new = ledger_update(led, f_next)
        assert new.Ck <= led.Ck + 1e-14 * max(1.0, abs(led.Ck))
        led = new


def test_reference_stays_in_range_from_the_default_first_step():
    rng = np.random.default_rng(12)
    led = NonmonotoneLedger.start(1.0)
    values = [1.0]
    # the first step's C_1 = min(C_0, f_1 + 1) lies in the range as well
    for _ in range(60):
        f_next = float(rng.uniform(-5, 5))
        values.append(f_next)
        led = ledger_update(led, f_next)
        assert min(values) - 1e-12 <= led.Ck <= max(values) + 1e-12


# --- the Wolfe search ------------------------------------------------------------

def test_wolfe_accepts_unit_step_on_quadratic():
    # phi(a) = (1-a)^2 / 2, phi'(0) = -1; alpha0 = 1 passes both conditions
    line = line_1d(lambda a: 0.5 * (1 - a) ** 2, lambda a: a - 1.0, f0=0.5)
    led = NonmonotoneLedger.start(0.5)
    res = wolfe_search(line, 1.0, led, -1.0, P)
    assert res.accepted_by is AcceptKind.WOLFE
    assert res.alpha == 1.0
    assert line.value(res.alpha) == 0.0
    assert line.problem.n_f == 1 and line.problem.n_g == 1


def test_wolfe_satisfies_both_conditions():
    line = line_1d(lambda a: math.exp(-a) + 0.05 * a * a,
                   lambda a: -math.exp(-a) + 0.1 * a, f0=1.0)
    led = NonmonotoneLedger.start(1.0)
    res = wolfe_search(line, 1e-6, led, -1.0, P)
    assert res.accepted_by is AcceptKind.WOLFE
    assert res.alpha > 1e-6  # curvature forces it past the tiny start
    assert curvature_ok(line.slope(res.alpha), -1.0, P)
    assert sufficient_decrease_ok(line.value(res.alpha), led, 1.0, res.alpha,
                                  -1.0, P)


def test_wolfe_agrees_with_bisection_oracle_region():
    # independent check: scan a fine grid for the acceptance region and
    # confirm the returned alpha lies inside it
    f = lambda a: (a - 3.0) ** 2 / 6.0
    g = lambda a: (a - 3.0) / 3.0
    line = line_1d(f, g, f0=1.5)
    led = NonmonotoneLedger.start(1.5)
    res = wolfe_search(line, 0.01, led, -1.0, P)
    assert res.accepted_by is AcceptKind.WOLFE
    a = res.alpha
    assert f(a) <= led.Ck + q_next(led, f(a)) * P.delta_k * a * (-1.0)
    assert g(a) >= P.sigma_wolfe * (-1.0)


def test_wolfe_zhang_hager_override_reduces_to_plain_rule():
    params = SolverParams(zh_delta=0.0005)
    line = line_1d(lambda a: 0.5 * (1 - a) ** 2, lambda a: a - 1.0, f0=0.5)
    led = NonmonotoneLedger.start(0.5)
    res = wolfe_search(line, 1.0, led, -1.0, params)
    assert res.accepted_by is AcceptKind.WOLFE
    assert line.value(res.alpha) <= led.Ck + 0.0005 * res.alpha * (-1.0) + 1e-12


def test_wolfe_gives_up_on_rising_function():
    # function rises immediately; the claimed slope is descent, so every
    # trial fails the decrease test and no usable fallback exists
    line = line_1d(lambda a: 1.0 + a, lambda a: 1.0, f0=1.0)
    led = NonmonotoneLedger.start(1.0)
    res = wolfe_search(line, 1.0, led, -1.0, P)
    assert res.accepted_by is AcceptKind.MAX_BACKTRACK
    assert res.alpha is None


def test_wolfe_rejects_nondescent_input():
    line = line_1d(lambda a: a, lambda a: 1.0, f0=0.0)
    with pytest.raises(ValueError):
        wolfe_search(line, 1.0, NonmonotoneLedger.start(0.0), 1.0, P)


def test_wolfe_rejects_a_nan_initial_step_before_evaluating():
    line = line_1d(lambda a: 0.5 * (1 - a) ** 2, lambda a: a - 1.0, f0=0.5)
    with pytest.raises(ValueError):
        wolfe_search(line, math.nan, NonmonotoneLedger.start(0.5), -1.0, P)
    assert line.problem.n_f == 0 and line.problem.n_g == 0


def test_wolfe_stepsize_lower_bound_on_quadratic():
    # accepted alpha >= (1 - sigma) |g'd| / (L ||d||^2) on an L-smooth quadratic
    L = 4.0
    line = line_1d(lambda a: 0.5 * L * (a - 1.0) ** 2, lambda a: L * (a - 1.0),
                   f0=0.5 * L)
    led = NonmonotoneLedger.start(0.5 * L)
    gTd = -L
    res = wolfe_search(line, 0.5, led, gTd, P)
    assert res.accepted_by is AcceptKind.WOLFE
    assert res.alpha >= (1.0 - P.sigma_wolfe) * abs(gTd) / L - 1e-15


# A line as at the end of a solve of dense_quad(1000): phi(0) = -5.67e5, whose
# ulp is 1.16e-10, and a slope g'd = -5e-10, so that every step a <= 0.05
# changes f by less than half an ulp to first order.  f rounds up by 4 ulps
# past ``step_at``, as a sum over many terms does; g is exact, and halves
# below ``flat_below``.  Everything is multiplied by 2^k.
ROUNDING_PHI0, ROUNDING_GTD = -567000.0, -5e-10


def _rounding_search(k, alpha0, ck_ulps, step_at, flat_below=0.0):
    """The search from alpha0 with C_k ``ck_ulps`` ulps above phi(0): its
    result, its trial steps and its (n_f, n_g)."""
    ulp, trials = math.ulp(ROUNDING_PHI0), []

    def f(a):
        trials.append(a)
        return math.ldexp(ROUNDING_PHI0 + (4 * ulp if a >= step_at else 0.0), k)

    def g(a):
        return math.ldexp(ROUNDING_GTD / (2 if a < flat_below else 1), k)

    line = line_1d(f, g, f0=math.ldexp(ROUNDING_PHI0, k),
                   g0=math.ldexp(ROUNDING_GTD, k))
    led = NonmonotoneLedger(Ck=math.ldexp(ROUNDING_PHI0 + ck_ulps * ulp, k),
                            Qk=3.0, k=10)
    res = wolfe_search(line, alpha0, led, math.ldexp(ROUNDING_GTD, k), P)
    return res, trials, (line.problem.n_f, line.problem.n_g)


@pytest.mark.parametrize("k", [0, 10, -10])
def test_wolfe_stops_once_rounding_in_f_decides_the_decrease_test(k):
    # C_k sits 2 ulps above phi(0).  The first trial 0.01 passes the
    # decrease test but not the curvature test; the next, 0.05, fails the
    # decrease test while 0.05 g'd rounds away against phi(0).  The search
    # returns the first trial.  Without the stop it bisects toward 0.03
    # until the bracket collapses: 38 f and 36 g, 36 f and 35 g past it.
    assert ROUNDING_PHI0 + 0.05 * ROUNDING_GTD == ROUNDING_PHI0
    res, trials, counts = _rounding_search(k, 0.01, 2, step_at=0.03)
    assert res.accepted_by is AcceptKind.MAX_BACKTRACK and res.alpha == 0.01
    assert trials == [0.01, 0.05] and counts == (2, 1)


@pytest.mark.parametrize("k", [0, 10, -10])
def test_wolfe_keeps_bisecting_without_a_point_below_the_reference(k):
    # C_k = phi(0): every trial from 0.05 down to 0.0015625 fails the
    # decrease test with a g'd that rounds away, and none is below C_k,
    # so the search bisects on, as without the stop, and finds the Wolfe
    # step 0.05/64 where f rounds back to phi(0) and the slope halves
    res, trials, counts = _rounding_search(k, 0.05, 0, step_at=0.001,
                                           flat_below=0.001)
    assert res.accepted_by is AcceptKind.WOLFE and res.alpha == 0.05 / 64
    assert trials == [0.05 / 2 ** i for i in range(7)] and counts == (7, 1)


def test_line_function_caches_and_counts():
    calls = {"f": 0, "g": 0}

    def f(x):
        calls["f"] += 1
        return float(x[0] ** 2)

    def g(x):
        calls["g"] += 1
        return np.array([2.0 * x[0]])

    cp = CountingProblem(Problem("q", 1, f, g, np.zeros(1)))
    line = LineFunction(cp, np.zeros(1), np.ones(1), f0=0.0, g0=np.zeros(1))
    assert line.value(0.0) == 0.0 and calls["f"] == 0  # seeded
    line.value(0.5)
    line.value(0.5)
    assert calls["f"] == 1
    line.slope(0.5)
    line.gradient(0.5)
    assert calls["g"] == 1


def test_clip_step_bounds():
    assert clip_step(1e20, P) == P.alpha_max
    assert clip_step(1e-20, P) == P.alpha_min
    assert clip_step(0.5, P) == 0.5


# --- LineFunction caching and the ledger's value semantics -------------------

class _Recorder:
    """A CountingProblem stand-in that keeps every point f and g saw."""

    def __init__(self, problem):
        self.problem = problem
        self.f_points, self.g_points = [], []

    def f(self, x):
        self.f_points.append(x)
        return float(self.problem.eval_f(x))

    def g(self, x):
        self.g_points.append(x)
        return np.asarray(self.problem.eval_g(x), dtype=float)


def test_line_function_evaluates_and_builds_each_step_once():
    from rlsmcg.problems import ext_rosenbrock
    prob = ext_rosenbrock(4)
    rec = _Recorder(prob)
    x, d = prob.x0, -prob.eval_g(prob.x0)
    line = LineFunction(rec, x, d, f0=prob.eval_f(x), g0=prob.eval_g(x))
    for a in (1e-3, 0.5, 1e-3, 0.5, 1e-3):
        line.value(a)
        line.slope(a)
        line.gradient(a)
        line.value(a)
    assert len(rec.f_points) == 2 and len(rec.g_points) == 2
    for a, xf, xg in zip((1e-3, 0.5), rec.f_points, rec.g_points):
        # one array per step, shared by f, g and the landing point
        assert xf is xg and line.point(a) is xf
        assert xf.tobytes() == (x + a * d).tobytes()
    # the seeded a = 0 slot never evaluates
    line.value(0.0), line.gradient(0.0), line.slope(0.0)
    assert len(rec.f_points) == 2 and len(rec.g_points) == 2


@pytest.mark.parametrize("solver", ["rlsmcg", "hs", "lbfgs"])
def test_a_solve_evaluates_each_point_once_and_keeps_every_step(solver):
    # a line keys its values on the step, so two steps whose points round
    # to one array would evaluate it twice; no solve of dense_quad(100)
    # seed 1 to the default tolerance reaches one point twice, in a search
    # or across the searches of its run, so a cache by point has no traffic
    from rlsmcg.bench import SOLVERS
    from rlsmcg.problems import dense_quadratic
    prob = dense_quadratic(100, 1)
    seen = {"f": [], "g": []}

    def recorded(kind, fn):
        def ev(x):
            seen[kind].append(x.tobytes())
            return fn(x)
        return ev

    report = SOLVERS[solver](Problem(prob.name, prob.dim,
                                     recorded("f", prob.eval_f),
                                     recorded("g", prob.eval_g), prob.x0))
    assert report.status.value == "converged"
    for kind in ("f", "g"):
        assert len(set(seen[kind])) == len(seen[kind])


@pytest.mark.parametrize("solver", ["rlsmcg", "hs"])
def test_landing_point_is_the_evaluated_point(solver):
    # every iterate the driver moves to is, bytewise, a point where both f
    # and g were evaluated; the steps stop at the tolerance, as a run does
    from rlsmcg.baselines import BaselineKind, BaselineTag, _Policy
    from rlsmcg.problems import ext_rosenbrock
    from rlsmcg.solver import initial_state, policy_step
    prob = ext_rosenbrock(10)
    params = P.resolve(prob.dim)
    rec = _Recorder(prob)
    state = initial_state(CountingProblem(prob))
    policy = Rlsmcg() if solver == "rlsmcg" else _Policy(
        BaselineKind(BaselineTag.HS_CG))
    for _ in range(40):
        if state.gnorm_inf <= params.grad_tol:
            break
        n_f, n_g = len(rec.f_points), len(rec.g_points)
        status, _ = policy_step(policy, state, rec, params, traced=False)
        assert status is None
        f_new = {x.tobytes() for x in rec.f_points[n_f:]}
        g_new = {x.tobytes() for x in rec.g_points[n_g:]}
        assert state.x.tobytes() in f_new & g_new


def test_ledger_is_an_immutable_value():
    led = NonmonotoneLedger.start(2.0)
    assert led == NonmonotoneLedger(Ck=2.0, Qk=1.0, k=0)
    assert (led.Ck, led.Qk, led.k) == (2.0, 1.0, 0)
    for name in ("Ck", "Qk", "k"):
        with pytest.raises(AttributeError):
            setattr(led, name, 0.0)
    nxt = ledger_update(led, 1.5)
    assert led == NonmonotoneLedger.start(2.0) and nxt.k == 1
