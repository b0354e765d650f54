import numpy as np
import pytest

from rlsmcg.core import SolverParams
from rlsmcg.subspace_rqn import (DROP_TOL, ENTRY_RANK_TOL, SubspaceHessian,
                                 orthogonality_lost, orthogonality_restored,
                                 qr_update, ratio, rbfgs_update, rqn_direction,
                                 update_mu)

P = SolverParams().resolve(50)


def e(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


# --- QR -------------------------------------------------------------------------

def test_qr_single_unit_vector():
    Z = qr_update([e(0)])
    assert Z.shape == (4, 1)
    assert Z[:, 0] == pytest.approx(e(0))


def test_qr_hand_gram_schmidt():
    Z = qr_update([e(0), e(0) + e(1)])
    np.testing.assert_allclose(Z, np.column_stack([e(0), e(1)]), atol=1e-15)


def test_qr_drops_dependent_column():
    Z = qr_update([e(0), 2.0 * e(0)])
    assert Z.shape[1] == 1
    # more columns than rows: only n can be kept
    Z = qr_update([e(0, 2), e(0, 2), e(1, 2), e(0, 2) + e(1, 2)])
    assert Z.shape[1] == 2
    np.testing.assert_allclose(Z, np.eye(2), atol=1e-15)


def _assert_qr_invariants(Z, dirs, drop_tol):
    # orthonormal columns whose span holds every input direction up to the
    # drop tolerance
    ZtZ = Z.T @ Z
    assert np.max(np.abs(ZtZ - np.eye(Z.shape[1]))) <= 1e-12
    for d in dirs:
        err = np.linalg.norm(d - Z @ (Z.T @ d))
        assert err <= max(drop_tol, 1e-10) * np.linalg.norm(d)
    # with nothing dropped, column i has a positive component along dirs[i]
    if Z.shape[1] == len(dirs):
        assert all(Z[:, i] @ d > 0.0 for i, d in enumerate(dirs))


def test_qr_invariants_on_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        m = int(rng.integers(1, min(n, 8) + 1))
        dirs = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                for _ in range(m)]
        _assert_qr_invariants(qr_update(dirs), dirs, DROP_TOL)
    # near-dependent columns: a combination of earlier columns plus noise of
    # 1e-13 times its norm is dependent at both tolerances; with noise of
    # 1e-10 it is kept at DROP_TOL = 1e-12 and dropped at ENTRY_RANK_TOL = 1e-8
    for _ in range(25):
        n = int(rng.integers(12, 30))
        base = int(rng.integers(1, 5))
        noises = rng.choice([1e-13, 1e-10], size=int(rng.integers(1, 5)))
        dirs = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                for _ in range(base)]
        for noise in noises:
            c = rng.standard_normal(base) @ np.array(dirs[:base])
            u = rng.standard_normal(n)
            dirs.insert(int(rng.integers(base, len(dirs) + 1)),
                        c + noise * np.linalg.norm(c) * u / np.linalg.norm(u))
        fine = qr_update(dirs, DROP_TOL)
        _assert_qr_invariants(fine, dirs, DROP_TOL)
        assert fine.shape[1] == base + int(np.sum(noises == 1e-10))
        core = qr_update(dirs, ENTRY_RANK_TOL)
        _assert_qr_invariants(core, dirs, ENTRY_RANK_TOL)
        assert core.shape[1] == base


def test_qr_drop_rule_is_sequential():
    n = 3
    near = e(0, n) + 1e-10 * e(1, n)
    dirs = [e(0, n), near, e(1, n) + e(2, n)]
    assert qr_update(dirs, DROP_TOL).shape[1] == 3
    core = qr_update(dirs, ENTRY_RANK_TOL)
    assert core.shape[1] == 2
    # near is dropped, so the basis is built from e0 and e1 + e2
    np.testing.assert_allclose(
        core, np.column_stack([e(0, n), (e(1, n) + e(2, n)) / np.sqrt(2.0)]),
        atol=1e-15)
    # a later column is judged against the kept columns only: e1 is in the
    # span of [e0, near] but not of [e0], so it stays once near is dropped
    core = qr_update([e(0, n), near, e(1, n)], ENTRY_RANK_TOL)
    assert core.shape[1] == 2
    np.testing.assert_allclose(core, np.column_stack([e(0, n), e(1, n)]),
                               atol=1e-15)


def test_qr_signs_give_positive_diagonal():
    # each column has a positive component along its source direction
    Z = qr_update([-e(0)])
    np.testing.assert_array_equal(Z, -e(0)[:, None])


def test_qr_empty_subspace_signal():
    assert qr_update([np.zeros(4), np.zeros(4)]) is None
    assert qr_update([]) is None


# --- orthogonality predicates ------------------------------------------------

def test_lost_fires_for_contained_gradient():
    Z = qr_update([e(0), e(1)])
    assert orthogonality_lost(Z, 2.0 * e(0) - e(1), P)


def test_lost_quiet_for_orthogonal_gradient():
    Z = qr_update([e(0), e(1)])
    assert not orthogonality_lost(Z, e(2), P)


def test_lost_quiet_for_small_outside_component():
    Z = qr_update([e(0)])
    g = e(0) + 1e-3 * e(1)
    assert not orthogonality_lost(Z, g, P)


def test_restored_for_orthogonal_gradient():
    Z = qr_update([e(0)])
    assert orthogonality_restored(Z, e(1), P)


def test_restored_rejects_contained_gradient():
    Z = qr_update([e(0)])
    assert not orthogonality_restored(Z, e(0), P)


def test_restored_at_seventy_percent_ratio():
    Z = qr_update([e(0)])
    g = np.sqrt(0.7) * e(0) + np.sqrt(0.3) * e(1)
    assert orthogonality_restored(Z, g, P)  # 0.7 <= 0.75


# the default thresholds must keep their meaning in float64: 1 - eta0^2
# rounds to 1.0, so the predicates are written on the residual g - ZZ'g

def test_lost_quiet_at_ten_times_the_entry_threshold():
    assert 1.0 - P.eta0_tilde ** 2 == 1.0  # why the residual form is needed
    Z = qr_update([e(0)])
    assert not orthogonality_lost(Z, e(0) + 1e-8 * e(1), P)


def test_lost_fires_below_the_entry_threshold():
    Z = qr_update([e(0)])
    assert orthogonality_lost(Z, e(0) + 1e-10 * e(1), P)


def test_restored_switches_at_the_exit_threshold():
    # g = e0 + t e1 has the share t^2 / (1 + t^2) of its square outside
    # span{e0}; eta1 = 0.5 puts the switch at t = 1/sqrt(3) = 0.57735...
    Z = qr_update([e(0)])
    assert orthogonality_restored(Z, e(0) + 0.578 * e(1), P)
    assert not orthogonality_restored(Z, e(0) + 0.577 * e(1), P)


# --- regularized BFGS update ----------------------------------------------------

def test_rbfgs_identity_fixed_point():
    H = SubspaceHessian.identity(2, mu=0.0)
    H2 = rbfgs_update(H, e(0, 2), e(0, 2), k=1, params=P)
    np.testing.assert_allclose(H2.B_hat, np.eye(2))


def test_rbfgs_hand_update():
    H = SubspaceHessian.identity(2, mu=0.0)
    H2 = rbfgs_update(H, np.array([1.0, 0.0]), np.array([2.0, 0.0]), k=1,
                      params=P)
    np.testing.assert_allclose(H2.B_hat, np.diag([2.0, 1.0]))
    assert H2.updates_since_reset == 1
    assert not H2.is_identity


def test_rbfgs_weak_curvature_resets():
    H = SubspaceHessian(B_hat=np.diag([2.0, 1.0]), updates_since_reset=3, mu=0.0)
    H2 = rbfgs_update(H, np.array([1.0, 0.0]),
                      np.array([P.upsilon / 10.0, 0.0]), k=4, params=P)
    np.testing.assert_allclose(H2.B_hat, np.eye(2))
    assert H2.updates_since_reset == 0


def test_rbfgs_periodic_reset():
    H = SubspaceHessian(B_hat=np.diag([3.0, 1.0]), updates_since_reset=5, mu=0.0)
    H2 = rbfgs_update(H, e(0, 2), e(0, 2), k=P.l_reset, params=P)
    assert H2.is_identity


def test_rbfgs_mu_shift_enters_update():
    H = SubspaceHessian.identity(1, mu=0.5)
    H2 = rbfgs_update(H, np.array([1.0]), np.array([1.0]), k=1, params=P)
    # y(mu) = 1 + 0.5, update gives y y / s'y = 1.5
    np.testing.assert_allclose(H2.B_hat, [[1.5]])


def test_rbfgs_stays_positive_definite():
    rng = np.random.default_rng(5)
    H = SubspaceHessian.identity(4, mu=1e-3)
    for k in range(1, 40):
        s = rng.standard_normal(4)
        y = rng.standard_normal(4)
        if np.dot(s, y) <= 0:
            y = -y
        H = rbfgs_update(H, s, y, k=k, params=P)
        np.linalg.cholesky(H.B_hat)  # raises if not SPD (safeguard resets)
        assert np.max(np.abs(H.B_hat - H.B_hat.T)) <= 1e-12


def test_rbfgs_reset_honesty_window():
    rng = np.random.default_rng(6)
    H = SubspaceHessian.identity(3, mu=0.0)
    resets = 0
    for k in range(1, P.l_reset + 1):
        s = rng.standard_normal(3)
        y = s + 0.1 * rng.standard_normal(3)
        H = rbfgs_update(H, s, y, k=k, params=P)
        if H.is_identity:
            resets += 1
    assert resets >= 1


# --- ratio and mu ---------------------------------------------------------------

def test_ratio_exact_model_is_one():
    B = np.diag([2.0, 1.0])
    g = np.array([1.0, 1.0])
    d = -np.linalg.solve(B, g)
    alpha = 0.7
    # trial value of the exact quadratic f(x) = f0 + g'x + x'Bx/2 at alpha*d
    f0 = 5.0
    f_trial = f0 + alpha * float(g @ d) + 0.5 * alpha ** 2 * float(d @ B @ d)
    assert ratio(f0, f_trial, alpha, g, d, B) == pytest.approx(1.0)


def test_ratio_no_actual_decrease_is_zero():
    B = np.eye(2)
    g = np.array([1.0, 0.0])
    d = -g
    assert ratio(1.0, 1.0, 0.5, g, d, B) == 0.0


def test_ratio_hand_arithmetic():
    B = np.array([[1.0]])
    r = ratio(1.0, 0.4, 1.0, np.array([-1.0]), np.array([1.0]), B)
    assert r == pytest.approx(1.2)


def test_ratio_model_not_descent_signals():
    B = np.eye(1)
    # ascent direction: model predicts increase
    assert ratio(1.0, 0.9, 1.0, np.array([1.0]), np.array([1.0]), B) is None


def test_update_mu_good_ratio_shrinks():
    assert update_mu(1e-3, 0.9, 0.5, P) == pytest.approx(1e-4)


def test_update_mu_poor_ratio_grows():
    assert update_mu(1e-3, 0.1, 0.5, P) == pytest.approx(5e-3)


def test_update_mu_large_step_disables():
    assert update_mu(1e-3, 0.1, 2.0, P) == 0.0


def test_update_mu_none_ratio_counts_as_poor():
    assert update_mu(1e-2, None, 0.5, P) == pytest.approx(5e-2)


# --- reduced direction -----------------------------------------------------------

def test_rqn_direction_identity_is_negated_projection():
    Z = qr_update([e(0), e(1)])
    H = SubspaceHessian.identity(2, mu=0.0)
    g = np.array([1.0, 2.0, 3.0, 0.0])
    rec = rqn_direction(Z, H, g)
    assert rec.d == pytest.approx([-1.0, -2.0, 0.0, 0.0])
    assert rec.case_tag.value == "rqn"


def test_rqn_direction_one_dimensional_solve():
    Z = qr_update([np.array([1.0, 0.0])])
    H = SubspaceHessian(B_hat=np.array([[2.0]]), updates_since_reset=1, mu=0.0)
    rec = rqn_direction(Z, H, np.array([4.0, 1.0]))
    assert rec.d == pytest.approx([-2.0, 0.0])


def test_rqn_direction_null_projection():
    Z = qr_update([e(0)])
    rec = rqn_direction(Z, SubspaceHessian.identity(1, mu=0.0), e(1))
    assert rec.d == pytest.approx(np.zeros(4))
    assert rec.gTd == 0.0


def test_rqn_direction_eigenvalue_bounds():
    # the reduced operator inherits the spectral bounds of B
    rng = np.random.default_rng(8)
    for _ in range(20):
        M = rng.standard_normal((3, 3))
        B = M @ M.T + 0.5 * np.eye(3)
        lam_max = float(np.linalg.eigvalsh(B)[-1])
        g_hat = rng.standard_normal(3)
        d_hat = -np.linalg.solve(B, g_hat)
        assert float(d_hat @ B @ d_hat) >= (1.0 - 1e-12) * float(d_hat @ d_hat) / lam_max
        assert float(g_hat @ np.linalg.solve(B, g_hat)) >= \
            (1.0 - 1e-12) * float(g_hat @ g_hat) / lam_max


def test_rqn_direction_retries_with_identity_then_fails():
    from rlsmcg.core import NumericError
    Z = qr_update([np.array([1.0, 0.0])])
    broken = SubspaceHessian(B_hat=np.array([[-1.0]]), updates_since_reset=2,
                             mu=0.0)
    # first solve fails (indefinite), the identity retry succeeds
    rec = rqn_direction(Z, broken, np.array([4.0, 1.0]))
    assert rec.d == pytest.approx([-4.0, 0.0])
    # a non-finite gradient defeats the retry as well
    with pytest.raises(NumericError):
        rqn_direction(Z, broken, np.array([np.nan, 1.0]))
