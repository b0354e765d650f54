import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rlsmcg import subspace_rqn
from rlsmcg.core import SolverParams
from rlsmcg.subspace_rqn import (DROP_TOL, ENTRY_RANK_TOL, GramRing,
                                 SubspaceHessian, curvature_scale,
                                 orthogonality_kept, orthogonality_lost,
                                 orthogonality_restored, qr_update, ratio,
                                 rbfgs_update, rqn_direction, update_mu)

P = SolverParams().resolve(50)


def e(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def gtg(v):
    """v'v, as the predicates take it."""
    return float(np.dot(v, v))


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
        fine = qr_update(dirs)
        _assert_qr_invariants(fine, dirs, DROP_TOL)
        assert fine.shape[1] == base + int(np.sum(noises == 1e-10))
        core = qr_update(dirs, ENTRY_RANK_TOL)[1]
        _assert_qr_invariants(core, dirs, ENTRY_RANK_TOL)
        assert core.shape[1] == base


def test_qr_drop_rule_is_sequential():
    n = 3
    near = e(0, n) + 1e-10 * e(1, n)
    dirs = [e(0, n), near, e(1, n) + e(2, n)]
    assert qr_update(dirs).shape[1] == 3
    core = qr_update(dirs, ENTRY_RANK_TOL)[1]
    assert core.shape[1] == 2
    # near is dropped, so the basis is built from e0 and e1 + e2
    np.testing.assert_allclose(
        core, np.column_stack([e(0, n), (e(1, n) + e(2, n)) / np.sqrt(2.0)]),
        atol=1e-15)
    # a later column is judged against the kept columns only: e1 is in the
    # span of [e0, near] but not of [e0], so it stays once near is dropped
    core = qr_update([e(0, n), near, e(1, n)], ENTRY_RANK_TOL)[1]
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
    g = 2.0 * e(0) - e(1)
    assert orthogonality_lost(Z, g, gtg(g), P)


def test_lost_quiet_for_orthogonal_gradient():
    Z = qr_update([e(0), e(1)])
    assert not orthogonality_lost(Z, e(2), gtg(e(2)), P)


def test_lost_quiet_for_small_outside_component():
    Z = qr_update([e(0)])
    g = e(0) + 1e-3 * e(1)
    assert not orthogonality_lost(Z, g, gtg(g), P)


def test_restored_for_orthogonal_gradient():
    Z = qr_update([e(0)])
    assert orthogonality_restored(Z, e(1), gtg(e(1)), P)


def test_restored_rejects_contained_gradient():
    Z = qr_update([e(0)])
    assert not orthogonality_restored(Z, e(0), gtg(e(0)), P)


def test_restored_at_seventy_percent_ratio():
    Z = qr_update([e(0)])
    g = np.sqrt(0.7) * e(0) + np.sqrt(0.3) * e(1)
    assert orthogonality_restored(Z, g, gtg(g), P)  # 0.7 <= 0.75


# the default thresholds must keep their meaning in float64: 1 - eta0^2
# rounds to 1.0, so the predicates are written on the residual g - ZZ'g

def test_lost_quiet_at_ten_times_the_entry_threshold():
    assert 1.0 - P.eta0_tilde ** 2 == 1.0  # why the residual form is needed
    Z = qr_update([e(0)])
    g = e(0) + 1e-8 * e(1)
    assert not orthogonality_lost(Z, g, gtg(g), P)


def test_lost_fires_below_the_entry_threshold():
    Z = qr_update([e(0)])
    g = e(0) + 1e-10 * e(1)
    assert orthogonality_lost(Z, g, gtg(g), P)


def test_restored_switches_at_the_exit_threshold():
    # g = e0 + t e1 has the share t^2 / (1 + t^2) of its square outside
    # span{e0}; eta1 = 0.5 puts the switch at t = 1/sqrt(3) = 0.57735...
    Z = qr_update([e(0)])
    g = e(0) + 0.578 * e(1)
    assert orthogonality_restored(Z, g, gtg(g), P)
    g = e(0) + 0.577 * e(1)
    assert not orthogonality_restored(Z, g, gtg(g), P)


def _qr_update_alone(dirs, drop_tol):
    """The single-tolerance ``qr_update`` that factors every round itself,
    the first included: the oracle the shared first round must match."""
    kept = [d for d in dirs if 0.0 < np.dot(d, d) < math.inf]
    while kept:
        Z, R = np.linalg.qr(np.array(kept).T)
        norms = np.linalg.norm(R, axis=0)
        resid = np.zeros(len(kept))
        resid[:len(R)] = np.abs(np.diag(R))
        dependent = np.flatnonzero(resid <= drop_tol * norms)
        if dependent.size == 0:
            return Z * np.sign(np.diag(R))
        j = dependent[0]
        tail = np.linalg.norm(R[j:, j:], axis=0)
        kept = kept[:j] + [d for d, t, nrm in zip(kept[j:], tail, norms[j:])
                           if t > drop_tol * nrm]
    return None


def _same_basis(a, b):
    return a is None and b is None or (
        a is not None and b is not None and np.array_equal(a, b))


@st.composite
def memories(draw):
    """Directions in R^n with columns mixed in that are combinations of
    earlier ones plus noise of 1e-13 (dependent at DROP_TOL, so at both
    tolerances), 1e-10 (dependent at ENTRY_RANK_TOL only), both kinds or
    neither, each set with or without columns of noise 1e-6 (dependent at
    neither), and zero and non-finite columns anywhere."""
    kinds = draw(st.sampled_from([[], [1e-13], [1e-10], [1e-13, 1e-10]]))
    loose = draw(st.lists(st.just(1e-6), max_size=2))
    noises = draw(st.permutations(kinds + loose))
    dirs = draw(direction_sets(noises=st.just(noises)))
    n = dirs[0].size
    for bad in draw(st.lists(st.sampled_from(
            [0.0, math.inf, -math.inf, math.nan, 1e300]), max_size=3)):
        col = np.zeros(n)
        col[draw(st.integers(0, n - 1))] = bad
        if bad == 1e300:  # finite entries whose norm overflows
            col[:] = bad
        dirs.insert(draw(st.integers(0, len(dirs))), col)
    return dirs


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(dirs=memories())
def test_one_first_round_gives_both_bases_bit_for_bit(dirs):
    fine = _qr_update_alone(dirs, DROP_TOL)
    core = _qr_update_alone(dirs, ENTRY_RANK_TOL)
    assert fine is not None and core is not None
    Z, C = qr_update(dirs, ENTRY_RANK_TOL)
    assert _same_basis(Z, fine) and _same_basis(C, core)
    assert _same_basis(qr_update(dirs), fine)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_no_usable_column_gives_no_basis_at_either_tolerance():
    bad = [np.zeros(4), np.full(4, math.nan), np.full(4, 1e300),
           np.full(4, -math.inf)]
    assert qr_update(bad, ENTRY_RANK_TOL) == (None, None)
    assert qr_update([], ENTRY_RANK_TOL) == (None, None)


# --- the Gram screen ----------------------------------------------------------------

def _ring(dirs, n):
    ring = GramRing.empty(len(dirs), n)
    for d in dirs:
        ring.push(d, gtg(d))
    return ring


def _kept(dirs, g):
    ring = _ring(dirs, g.size)
    return orthogonality_kept(ring, g, gtg(g), P)


def test_screen_certifies_a_gradient_well_outside_the_span():
    dirs = [e(0, 6), 3.0 * (e(0, 6) + e(1, 6)), -e(2, 6)]
    assert _kept(dirs, e(3, 6) + e(0, 6))
    assert _kept(dirs, e(0, 6) + 1e-3 * e(4, 6))


def test_screen_leaves_contained_and_near_threshold_gradients_open():
    dirs = [e(0, 6), e(0, 6) + e(1, 6)]
    for g in (2.0 * e(0, 6) - e(1, 6),         # in the span
              e(0, 6) + 1e-8 * e(2, 6),        # outside, but too close to call
              np.zeros(6)):
        assert not _kept(dirs, g)
    # the exact test says "not lost" to the second, so the screen only defers
    g = e(0, 6) + 1e-8 * e(2, 6)
    assert not orthogonality_lost(qr_update(dirs), g, gtg(g), P)
    # with a coarse entry threshold, a residual just below it is lost
    coarse = replace(P, eta0_tilde=1e-3)
    ring = _ring(dirs, 6)
    for t, lost in ((0.9e-3, True), (2e-3, False)):
        g = e(0, 6) + t * e(2, 6)
        assert orthogonality_lost(qr_update(dirs), g, gtg(g), coarse) is lost
        assert orthogonality_kept(ring, g, gtg(g), coarse) is not lost


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_screen_leaves_singular_or_nonfinite_memories_open():
    g = e(3, 6)
    assert not _kept([e(0, 6), e(0, 6), e(1, 6)], g)          # repeated direction
    assert not _kept([e(0, 6), np.zeros(6)], g)               # zero direction
    assert not _kept([e(0, 6), np.full(6, math.nan)], g)      # NaN direction
    assert not _kept([e(0, 6), np.full(6, 1e300)], g)         # norm overflows
    assert not _kept([e(0, 6), e(1, 6)], np.full(6, math.inf))
    # a memory that spans R^n holds every gradient
    assert not _kept([e(i, 4) for i in range(4)], np.ones(4))


def _screened(ring, g):
    """``orthogonality_kept`` on ``ring`` and ``g``, and the number of
    Cholesky factorizations (``subspace_rqn._cholesky``) and
    ``np.linalg.inv`` calls it made, with the factors the calls that
    succeeded returned."""
    calls = {"cholesky": 0, "inv": 0}
    factors = []
    with pytest.MonkeyPatch.context() as mp:
        for owner, attr, name in ((subspace_rqn, "_cholesky", "cholesky"),
                                  (np.linalg, "inv", "inv")):
            def counted(a, _name=name, _fn=getattr(owner, attr)):
                calls[_name] += 1
                out = _fn(a)
                factors.append(out)
                return out
            mp.setattr(owner, attr, counted)
        kept = orthogonality_kept(ring, g, gtg(g), P)
    return kept, calls, factors


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_screen_factors_once_and_inverts_nothing():
    cases = [([e(0, 6), e(1, 6)], e(3, 6) + e(0, 6), True),       # certified
             ([e(0, 6), e(1, 6)], e(0, 6) - e(1, 6), False),       # in the span
             ([e(0, 6), e(0, 6) + e(1, 6)], e(0, 6) + 1e-8 * e(2, 6), False),
             ([e(0, 6), e(0, 6), e(1, 6)], e(3, 6), False),        # G singular
             ([e(0, 6), np.full(6, math.nan)], e(3, 6), False)]
    for dirs, g, certified in cases:
        kept, calls, _ = _screened(_ring(dirs, 6), g)
        assert kept is certified
        assert calls == {"cholesky": 1, "inv": 0}


def test_screen_defers_inside_its_rounding_bound():
    # two unit directions 1e-4 apart: kappa = m tr(G^{-1}) is about 4e8, so
    # the bound's rounding term (about 80 u kappa) dwarfs 2 eta0^2; the
    # screen certifies a residual share of twice the bound, not one of half
    n, m = 6, 2
    dirs = [e(0, n), math.cos(1e-4) * e(0, n) + math.sin(1e-4) * e(1, n)]
    ring = _ring(dirs, n)
    L_inv = np.linalg.inv(np.linalg.cholesky(ring.A[:m, :m]))
    kappa = m * float(np.vdot(L_inv, L_inv))
    u = 2.0 ** -53
    share = (2.0 * P.eta0_tilde ** 2
             + (8.0 * (n + m + 2) + 1e4 * m ** 3 * n * n * u) * u * kappa)
    for factor, certified in ((0.5, False), (2.0, True)):
        g = e(0, n) + math.sqrt(factor * share) * e(2, n)
        assert not orthogonality_lost(qr_update(dirs), g, gtg(g), P)
        assert orthogonality_kept(ring, g, gtg(g), P) is certified


def test_screen_kappa_from_the_border_is_the_inverse_factor_norm():
    # the block below L in the bordered factor is L^{-T}; on memories with
    # near-dependent directions (kappa up to ~1e16), m ||L31||_F^2 stays within
    # 1e-12 of m ||inv(L)||_F^2 for the same computed L
    rng = np.random.default_rng(11)
    checked = 0
    for noise in (1e-2, 1e-4, 1e-6, 1e-7):
        for _ in range(40):
            n, m = int(rng.integers(12, 60)), int(rng.integers(2, 12))
            base = (rng.standard_normal((m // 2, n))
                    * 10.0 ** rng.uniform(-3.0, 3.0, (m // 2, 1)))
            dirs = list(base)
            while len(dirs) < m:
                c = rng.uniform(0.1, 1.0, m // 2) @ base
                dirs.append(c + noise * np.linalg.norm(c)
                            * _unit(rng.standard_normal(n)))
            _, calls, factors = _screened(_ring(dirs, n), rng.standard_normal(n))
            if not factors:  # the factorization failed: nothing to read
                continue
            L = factors[0]
            L31 = L[m + 1:, :m]
            L_inv = np.linalg.inv(L[:m, :m])
            kappa_border = m * float(np.vdot(L31, L31))
            kappa_inv = m * float(np.vdot(L_inv, L_inv))
            assert abs(kappa_border - kappa_inv) <= 1e-12 * kappa_inv
            checked += 1
    assert checked >= 120


def _unit(v):
    return v / np.linalg.norm(v)


@st.composite
def direction_sets(draw, noises=st.lists(st.sampled_from([1e-13, 1e-10, 1e-6]),
                                         max_size=3)):
    """Directions of scales 10^[-3, 3] in R^n, n in [4, 30], with columns
    mixed in that are combinations of earlier ones plus noise of 1e-13 (dependent
    at both QR tolerances), 1e-10 (kept at DROP_TOL only) or 1e-6 times their
    norm, as in test_qr_invariants_on_random_sets; ``noises`` draws the list
    of noise levels."""
    n = draw(st.integers(4, 30))
    base = draw(st.integers(1, min(n, 8)))
    rows = draw(arrays(np.float64, (base, n), elements=st.floats(-1.0, 1.0))
                .filter(lambda a: np.all(np.abs(a).sum(axis=1) > 0.1)))
    exps = draw(arrays(np.float64, base, elements=st.floats(-3.0, 3.0)))
    dirs = list(rows * 10.0 ** exps[:, None])
    for noise in draw(noises):
        coef = draw(arrays(np.float64, base, elements=st.floats(0.1, 1.0)))
        c = coef @ np.array(dirs[:base])
        u = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0))
                 .filter(lambda a: np.abs(a).sum() > 0.1))
        dirs.insert(draw(st.integers(base, len(dirs))),
                    c + noise * np.linalg.norm(c) * _unit(u))
    return dirs


# relative out-of-span residuals, one decade at a time: 0, then 1e-12 to
# 1e-6 around the entry threshold eta0 = 1e-9, then up to 1e-1, where the
# screen starts to certify
residuals = st.integers(-13, -1).flatmap(
    lambda e: st.just(0.0) if e == -13 else st.floats(e, e + 1.0).map(lambda x: 10.0 ** x))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(dirs=direction_sets(), t=residuals, data=st.data())
def test_screen_never_certifies_what_the_exact_test_calls_lost(dirs, t, data):
    n, m = dirs[0].size, len(dirs)
    Q = np.linalg.qr(np.array(dirs).T, mode="complete")[0]
    k = min(m, n)
    # along the whole span, ill-determined directions included, where the
    # normal equations lose the most
    inside = Q[:, :k] @ data.draw(arrays(np.float64, k, elements=st.floats(0.1, 1.0)))
    g = _unit(inside)
    if k < n:  # a prescribed residual t ||g|| along the complement
        out = Q[:, k:] @ data.draw(arrays(np.float64, n - k,
                                          elements=st.floats(0.1, 1.0)))
        g = g + t * _unit(out)
    g = g * 10.0 ** data.draw(st.floats(-3.0, 3.0))
    if _kept(dirs, g):
        Z = qr_update(dirs)
        assert Z is not None and not orthogonality_lost(Z, g, gtg(g), P)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(data=st.data(), m=st.integers(1, 11), n=st.integers(1, 40),
       extra=st.integers(0, 40))
def test_ring_gram_is_the_gram_of_the_last_m_unit_directions(data, m, n, extra):
    rows = data.draw(arrays(np.float64, (m + extra, n), elements=st.floats(-1.0, 1.0))
                     .filter(lambda a: np.all(np.abs(a).sum(axis=1) > 0.1)))
    exps = data.draw(arrays(np.float64, m + extra, elements=st.floats(-3.0, 3.0)))
    pushed = list(rows * 10.0 ** exps[:, None])
    ring = GramRing.empty(m, n)
    for d in pushed:
        ring.push(d, gtg(d))
    # push k lives in row k mod m
    for k in range(extra, m + extra):
        np.testing.assert_allclose(ring.D[k % m], _unit(pushed[k]),
                                   rtol=4e-16 * n, atol=0.0)
    G = ring.A[:m, :m]
    np.testing.assert_array_equal(G, G.T)
    np.testing.assert_allclose(G, ring.D @ ring.D.T, rtol=0.0,
                               atol=4e-16 * n)


# --- regularized BFGS update ----------------------------------------------------

def test_rbfgs_identity_fixed_point():
    H = SubspaceHessian.identity(2, mu=0.0)
    H2 = rbfgs_update(H, e(0, 2), e(0, 2), k=1, mu=0.0, params=P)
    np.testing.assert_allclose(H2.B_hat, np.eye(2))


def test_rbfgs_hand_update():
    H = SubspaceHessian.identity(2, mu=0.0)
    H2 = rbfgs_update(H, np.array([1.0, 0.0]), np.array([2.0, 0.0]), k=1,
                      mu=0.0, params=P)
    np.testing.assert_allclose(H2.B_hat, np.diag([2.0, 1.0]))
    assert H2.is_identity is False


def test_rbfgs_weak_curvature_resets():
    # the floor is on the cosine of s and y(mu): a pair whose s'y is a tenth
    # of upsilon ||s|| ||y|| resets, while a parallel pair of curvature
    # upsilon / 10 updates, since its cosine is 1
    H = SubspaceHessian(B_hat=np.diag([2.0, 1.0]), is_identity=False, mu=0.0)
    s = np.array([1.0, 0.0])
    H2 = rbfgs_update(H, s, np.array([P.upsilon / 10.0, 1.0]), k=4, mu=0.0,
                      params=P)
    np.testing.assert_allclose(H2.B_hat, np.eye(2))
    assert H2.is_identity is True
    H2 = rbfgs_update(H, s, np.array([P.upsilon / 10.0, 0.0]), k=4, mu=0.0,
                      params=P)
    np.testing.assert_allclose(H2.B_hat, np.diag([P.upsilon / 10.0, 1.0]))
    assert H2.is_identity is False


def test_rbfgs_periodic_reset():
    H = SubspaceHessian(B_hat=np.diag([3.0, 1.0]), is_identity=False, mu=0.0)
    H2 = rbfgs_update(H, e(0, 2), e(0, 2), k=P.l_reset, mu=0.0, params=P)
    assert H2.is_identity


def test_rbfgs_mu_shift_enters_update():
    H = SubspaceHessian.identity(1, mu=0.5)
    H2 = rbfgs_update(H, np.array([1.0]), np.array([1.0]), k=1, mu=0.5, params=P)
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
        H = rbfgs_update(H, s, y, k=k, mu=1e-3, params=P)
        np.linalg.cholesky(H.B_hat)  # raises if not SPD (safeguard resets)
        assert np.max(np.abs(H.B_hat - H.B_hat.T)) <= 1e-12


def test_rbfgs_reset_honesty_window():
    rng = np.random.default_rng(6)
    H = SubspaceHessian.identity(3, mu=0.0)
    resets = 0
    for k in range(1, P.l_reset + 1):
        s = rng.standard_normal(3)
        y = s + 0.1 * rng.standard_normal(3)
        H = rbfgs_update(H, s, y, k=k, mu=0.0, params=P)
        if H.is_identity:
            resets += 1
    assert resets >= 1


def test_opening_factor_is_lapacks_bit_for_bit():
    # every power of two in 2^[-60, 60], and other scales down to a
    # subnormal and up to near the largest double, where sqrt(scale)^2 is
    # not the scale: L is the kernel's factor of scale*I all the same
    scales = [math.ldexp(1.0, e) for e in range(-60, 61)] + [
        3.0, 0.1, 1.0 / 3.0, math.pi * 1e-9, 7e17, 1.3e-300, 5e-324, 1.7e308]
    for scale in scales:
        for m in (1, 2, 5, 11):
            H = SubspaceHessian.identity(m, 0.0, scale)
            B = scale * np.eye(m)
            assert H.B_hat.tobytes() == B.tobytes(), scale
            assert H.L.tobytes() == subspace_rqn._cholesky(B).tobytes(), scale
            assert H.scale == scale and H.is_identity


@pytest.mark.parametrize("s, y", [
    ([0.0, 0.0], [1.0, 2.0]),          # no step
    ([1.0, 0.0], [-2.0, 0.0]),         # negative curvature
    ([1.0, 0.0], [0.0, 1.0]),          # zero curvature
    ([1.0, math.nan], [1.0, 1.0]),     # NaN
    ([1e-160, 0.0], [1e160, 0.0]),     # s'y / s's overflows
    ([1e-170, 0.0], [1.0, 0.0]),       # s's underflows to zero
    ([1e200, 0.0], [1.0, 0.0]),        # s's overflows
], ids=["zero_s", "negative", "zero", "nan", "overflow", "underflow", "inf_sTs"])
def test_a_curvature_that_is_not_positive_and_finite_opens_at_one(s, y):
    with np.errstate(over="ignore"):
        assert curvature_scale(np.array(s), np.array(y)) == 1.0


def test_curvature_scale_is_the_quotient_s_y_over_s_s():
    s, y = np.array([1.0, 2.0]), np.array([3.0, 0.5])
    assert curvature_scale(s, y) == 4.0 / 5.0
    assert curvature_scale(np.array([1e-170]), np.array([1e-170])) == 1.0


@pytest.mark.parametrize("cause", ["l_reset", "floor", "zero_step", "sBs",
                                   "not_finite"])
def test_a_reset_returns_to_the_phases_opening_scale(cause):
    gamma = 3.0
    H = SubspaceHessian.identity(2, 0.0, gamma)
    # one accepted update first, so that the reset is visible
    H = rbfgs_update(H, e(0, 2), 2.0 * e(0, 2), k=1, mu=0.0, params=P)
    np.testing.assert_array_equal(H.B_hat, np.diag([2.0, gamma]))
    assert not H.is_identity and H.scale == gamma
    k, s, y = 2, e(0, 2), e(0, 2)
    if cause == "l_reset":
        k = P.l_reset
    elif cause == "floor":
        y = np.array([P.upsilon / 10.0, 1.0])
    elif cause == "zero_step":
        s = np.zeros(2)
    elif cause == "sBs":
        # B s underflows to zero while s's and s'y do not
        H = SubspaceHessian(np.diag([1e-300, 1.0]), False, 0.0, gamma)
        s, y = np.array([1e-100, 0.0]), e(0, 2)
    else:
        # y y'/s'y overflows past a pair that clears the floor
        s, y = np.array([1e-160, 0.0]), np.array([1e153, 0.0])
    with np.errstate(over="ignore"):
        H2 = rbfgs_update(H, s, y, k=k, mu=0.0, params=P)
    assert H2.is_identity and H2.scale == gamma
    assert H2.B_hat.tobytes() == (gamma * np.eye(2)).tobytes()
    assert H2.L.tobytes() == subspace_rqn._cholesky(gamma * np.eye(2)).tobytes()


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
    # ascent direction: model predicts increase, yet f fell
    assert ratio(1.0, 0.9, 1.0, np.array([1.0]), np.array([1.0]), B) == math.inf
    # ... and where f did not fall the step failed the model
    assert ratio(1.0, 1.0, 1.0, np.array([1.0]), np.array([1.0]), B) == 0.0


def test_update_mu_good_ratio_shrinks():
    assert update_mu(1e-3, 0.9, 0.5, P) == pytest.approx(1e-4)


def test_update_mu_poor_ratio_grows():
    assert update_mu(1e-3, 0.1, 0.5, P) == pytest.approx(5e-3)


def test_update_mu_large_step_disables():
    assert update_mu(1e-3, 0.1, 2.0, P) == 0.0


def test_update_mu_none_ratio_counts_as_poor():
    # a step that did not lower f under a model without decrease has no
    # usable ratio; ratio() reports it as 0.0, and mu grows as on any failure
    r = ratio(1.0, 1.0, 1.0, np.array([1.0]), np.array([1.0]), np.eye(1))
    assert r == 0.0
    assert update_mu(1e-2, r, 0.5, P) == pytest.approx(5e-2)


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
    H = SubspaceHessian(B_hat=np.array([[2.0]]), is_identity=False, mu=0.0)
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



# --- generated reduced Hessians -------------------------------------------------

GENERATED = settings(derandomize=True, database=None, deadline=None,
                     max_examples=50)
dims = st.integers(1, 11)


@st.composite
def orthonormal(draw, rows, cols):
    A = draw(arrays(np.float64, (rows, cols), elements=st.floats(-1.0, 1.0)))
    return np.linalg.qr(A)[0]  # Householder: orthonormal columns for any A


@st.composite
def spd_spectra(draw, m):
    """(Q, lam) with Q orthonormal and eigenvalues in 10^[-6, 6], so that
    Q diag(lam) Q' has a condition number up to 1e12."""
    exponents = draw(arrays(np.float64, m, elements=st.floats(-6.0, 6.0)))
    return draw(orthonormal(m, m)), 10.0 ** exponents


def _matrix(Q, lam):
    B = (Q * lam) @ Q.T
    return 0.5 * (B + B.T)


def _vectors(m):
    return arrays(np.float64, m, elements=st.floats(-10.0, 10.0))


@GENERATED
@given(data=st.data(), m=dims)
def test_rbfgs_update_keeps_the_factor_of_its_matrix(data, m):
    B = _matrix(*data.draw(spd_spectra(m)))
    s = data.draw(_vectors(m))
    # y near C s for a generated SPD C, so that many pairs clear the floor
    C = _matrix(*data.draw(spd_spectra(m)))
    y = C @ s + data.draw(st.floats(-1.0, 1.0)) * data.draw(_vectors(m))
    H = rbfgs_update(SubspaceHessian(B_hat=B, is_identity=False, mu=0.0),
                     s, y, k=data.draw(st.integers(1, 3 * P.l_reset)),
                     mu=data.draw(st.floats(0.0, 1.0)), params=P)
    np.testing.assert_allclose(H.L @ H.L.T, H.B_hat, rtol=0.0,
                               atol=(m + 1) * 1e-15 * np.abs(H.B_hat).max())


@GENERATED
@given(data=st.data(), m=dims,
       bad=st.sampled_from([-1.0, math.nan, math.inf, -math.inf]))
def test_hessian_rejects_a_matrix_that_is_not_spd_or_not_finite(data, m, bad):
    Q, lam = data.draw(spd_spectra(m))
    i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    if bad == -1.0:
        lam[i] = -lam[i]  # one negative eigenvalue
        B = _matrix(Q, lam)
    else:
        B = _matrix(Q, lam)
        B[i, j] = bad  # cholesky reads only one triangle
    with pytest.raises(np.linalg.LinAlgError):
        SubspaceHessian(B_hat=B, is_identity=False, mu=0.0)


@GENERATED
@given(data=st.data(), m=dims, extra=st.integers(0, 3))
def test_rqn_direction_descends_for_a_gradient_in_the_span(data, m, extra):
    Z = data.draw(orthonormal(m + extra, m))
    H = SubspaceHessian(B_hat=_matrix(*data.draw(spd_spectra(m))),
                        is_identity=False, mu=0.0)
    c = data.draw(_vectors(m).filter(lambda v: np.dot(v, v) > 1e-6))
    assert rqn_direction(Z, H, Z @ c).gTd < 0.0


# --- the LAPACK gufuncs against numpy.linalg ---------------------------------------

def _factor_or_error(factor, a):
    """``factor(a)``, or LinAlgError when it raises one."""
    try:
        return factor(a)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


def _same_factor(a):
    """Whether ``_cholesky`` and ``np.linalg.cholesky`` both raise on ``a``
    or return the same bits."""
    ours = _factor_or_error(subspace_rqn._cholesky, a)
    theirs = _factor_or_error(np.linalg.cholesky, a)
    if ours is np.linalg.LinAlgError or theirs is np.linalg.LinAlgError:
        return ours is theirs
    return ours.tobytes() == theirs.tobytes()


@GENERATED
@given(data=st.data(), m=st.integers(1, 23))
def test_factor_is_numpys_bit_for_bit_on_spd_matrices(data, m):
    B = _matrix(*data.draw(spd_spectra(m)))
    subspace_rqn._cholesky(B)  # raises if it is not SPD to the kernel
    assert _same_factor(B)


@GENERATED
@given(data=st.data(), m=st.integers(1, 11), extra=st.integers(0, 20))
def test_factor_is_numpys_bit_for_bit_on_the_screens_bordered_matrix(data, m, extra):
    # the columns of Z S V' for Z orthonormal: m directions in R^(m + extra)
    # with a Gram matrix of condition number up to 1e12, so that the order
    # 2m + 1 <= 23 bordered matrix factors on most draws
    V, lam = data.draw(spd_spectra(m))
    Z = data.draw(orthonormal(m + extra, m))
    ring = _ring(list(((Z * np.sqrt(lam)) @ V.T).T), m + extra)
    g = data.draw(_vectors(m + extra).filter(lambda v: np.dot(v, v) > 1e-6))
    np.dot(ring.D, g, out=ring.A[m, :m])  # as orthogonality_kept fills it
    ring.A[m, m] = gtg(g)
    assert _same_factor(ring.A)


@GENERATED
@given(data=st.data(), m=st.integers(1, 23),
       bad=st.sampled_from([-1.0, 0.0, math.nan, math.inf, -math.inf]))
def test_factor_raises_exactly_where_numpy_does(data, m, bad):
    Q, lam = data.draw(spd_spectra(m))
    i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    if bad in (-1.0, 0.0):
        lam[i] *= bad  # a negative or zero eigenvalue
        B = _matrix(Q, lam)
    else:
        B = _matrix(Q, lam)
        B[max(i, j), min(i, j)] = bad  # in the triangle the kernel reads
    # numpy raises on a pivot that is not positive, but passes NaN and inf
    # through to a factor that is not finite
    assert _same_factor(B)


@GENERATED
@given(data=st.data(), m=st.integers(1, 23))
def test_solve_pair_is_numpys_bit_for_bit_on_cholesky_factors(data, m):
    L = np.linalg.cholesky(_matrix(*data.draw(spd_spectra(m))))
    g = data.draw(_vectors(m))
    ours = subspace_rqn._cholesky_solve(L, g)
    theirs = np.linalg.solve(L.T, np.linalg.solve(L, g))  # L.T is a strided view
    assert ours.tobytes() == theirs.tobytes()


class _Unfactored(SubspaceHessian):
    """A reduced Hessian that is never factored, so that ``is_identity``
    after ``rbfgs_update`` is the floor's decision with no Cholesky failure
    mixed in."""

    def __post_init__(self):
        pass


@GENERATED
@given(data=st.data(), m=st.integers(2, 11), j=st.integers(-40, 40),
       k=st.integers(-40, 40),
       cosine=st.sampled_from([0.0, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0,
                               1e3, 1e6]))
def test_rbfgs_floor_decision_is_scale_free(data, m, j, k, cosine):
    # f scaled by 2^k and x by 2^-j take (s, y, mu) to (2^-j s, 2^(k+j) y,
    # 2^(k+2j) mu), and B_hat and its opening scale to 2^(k+2j) times
    # themselves: the pair is accepted or reset alike, and the result, an
    # update or the opening matrix, scales exactly
    grid = st.integers(-2 ** 20, 2 ** 20).map(lambda i: i / 2.0 ** 20)
    s = data.draw(arrays(np.float64, m, elements=grid).filter(
        lambda v: np.abs(v).sum() > 0.1))
    w = data.draw(arrays(np.float64, m, elements=grid))
    w = w - (s @ w) / (s @ s) * s  # about orthogonal to s
    # cos(s, y) is about cosine * upsilon, near the floor on both sides
    y = cosine * P.upsilon * math.sqrt(w @ w / (s @ s)) * s + w
    mu = data.draw(st.just(0.0) | st.floats(1e-12, 1e-5))
    c = math.ldexp(1.0, k + 2 * j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspace_rqn, "SubspaceHessian", _Unfactored)
        native = rbfgs_update(_Unfactored(np.eye(m), False, 0.0, 1.0), s, y,
                              1, mu, P)
        scaled = rbfgs_update(_Unfactored(c * np.eye(m), False, 0.0, c),
                              np.ldexp(s, -j), np.ldexp(y, k + j), 1,
                              math.ldexp(mu, k + 2 * j), P)
    assert scaled.is_identity == native.is_identity
    np.testing.assert_array_equal(scaled.B_hat, c * native.B_hat)
    if mu == 0.0 and w @ w > 1e-6 * (s @ s) and abs(cosine - 1.0) >= 0.1:
        assert native.is_identity == (cosine < 1.0)


@GENERATED
@given(data=st.data(), m=st.integers(1, 11), j=st.integers(-40, 40),
       k=st.integers(-40, 40))
def test_opening_matrix_scales_with_the_units(data, m, j, k):
    # f scaled by 2^k and x by 2^-j take (s, y) to (2^-j s, 2^(k+j) y):
    # s's and s'y scale by powers of two, so gamma = s'y/s's and the opening
    # matrix gamma*I scale by exactly 2^(k+2j), and a pair that gives no
    # positive curvature opens at 1.0 in any units
    grid = st.integers(-2 ** 20, 2 ** 20).map(lambda i: i / 2.0 ** 20)
    s = data.draw(arrays(np.float64, m, elements=grid).filter(
        lambda v: np.abs(v).sum() > 0.1))
    # y near C s for a generated SPD C, so that most pairs curve upward
    C = _matrix(*data.draw(spd_spectra(m)))
    y = C @ s + data.draw(st.floats(-1.0, 1.0)) * data.draw(_vectors(m))
    c = math.ldexp(1.0, k + 2 * j)
    native = SubspaceHessian.identity(m, 0.0, curvature_scale(s, y))
    scaled = SubspaceHessian.identity(
        m, 0.0, curvature_scale(np.ldexp(s, -j), np.ldexp(y, k + j)))
    if np.dot(s, y) > 0.0:
        assert scaled.scale == c * native.scale
        assert scaled.B_hat.tobytes() == (c * native.B_hat).tobytes()
    else:
        assert native.scale == scaled.scale == 1.0
