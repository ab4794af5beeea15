import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import entrodual as ed
from entrodual.dual import DUAL_BALL_SLACK, _rows_lse, _rows_softmax

from oracles import (
    _lse_rows,
    _softmax_rows,
    block_hessian_norms,
    conj_g,
    dense_dual_grad,
    dense_dual_value,
    dense_operators,
    dual_kernel_floor,
    laplacian,
    softmax_map,
)
from strategies import small_instances


def random_state(inst, W, rng, spread=1.0):
    z = spread * rng.standard_normal(inst.m * inst.d)
    return ed.DualState.of(inst, W, z, spread * rng.standard_normal(inst.m * inst.n))


def origin(inst, W):
    return ed.DualState.of(inst, W, np.zeros(inst.m * inst.d), np.zeros(inst.m * inst.n))


def simplex_grid(d, step):
    """All grid points with coordinates k*step summing to 1."""
    n = round(1.0 / step)
    if d == 2:
        i = np.arange(n + 1)
        return np.stack([i, n - i], axis=1) / n
    if d == 3:
        pts = []
        for i in range(n + 1):
            j = np.arange(n + 1 - i)
            block = np.stack([np.full_like(j, i), j, n - i - j], axis=1)
            pts.append(block)
        return np.concatenate(pts) / n
    raise ValueError("grid oracle only supports d in {2, 3}")


class TestConjG:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.standard_normal(5)
            theta = 10 ** rng.uniform(-1, 1)
            direct = theta * math.log(float(np.sum(np.exp(t / theta))))
            assert conj_g(t, theta) == pytest.approx(direct, rel=1e-12)

    def test_overflow_stability(self):
        t = np.array([1000.0, 0.0])
        val = conj_g(t, 0.5)
        assert math.isfinite(val)
        assert val == pytest.approx(1000.0, abs=1e-12)

    def test_simplex_sup_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(2, 6)
            t = rng.standard_normal(d)
            theta = 0.7
            val = conj_g(t, theta)
            assert val >= t.max() - 1e-12
            assert val <= t.max() + theta * math.log(d) + 1e-12

    def test_grid_oracle_small(self):
        # scaled-down version of the acceptance grid check
        rng = np.random.default_rng(2)
        step = 1e-3
        for d in (2, 3):
            grid = simplex_grid(d, step)
            ent = np.where(grid > 0, grid * np.log(np.where(grid > 0, grid, 1.0)), 0.0)
            ent = ent.sum(axis=1)
            for _ in range(15):
                t = rng.uniform(-1.0, 1.0, size=d)
                theta = 1.0
                values = grid @ t - theta * ent
                brute = float(values.max())
                assert abs(conj_g(t, theta) - brute) <= 2e-3

    def test_softmax_is_gradient(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal(4)
        theta = 0.6
        fd = np.empty(4)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd[i] = (conj_g(t + e, theta) - conj_g(t - e, theta)) / (2 * h)
        assert np.allclose(softmax_map(t, theta), fd, rtol=1e-6, atol=1e-8)

    def test_softmax_on_simplex(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = softmax_map(rng.standard_normal(6) * 5, 0.3)
            assert x.min() > 0.0
            assert x.sum() == pytest.approx(1.0, abs=1e-12)


def assert_rows_match_oracle(T, theta):
    """Both row kernels against the row-major textbook oracle: each
    log-sum-exp to 1e-14 relative, and simplex softmax rows to 1e-14
    relative in every entry above the subnormal range."""
    lse, ref_lse = _rows_lse(T, theta), _lse_rows(T, theta)
    X, ref_X = _rows_softmax(T, theta), _softmax_rows(T, theta)
    assert np.isfinite(lse).all() and np.isfinite(ref_lse).all()
    np.testing.assert_allclose(lse, ref_lse, rtol=1e-14, atol=0.0)
    assert X.shape == T.shape
    assert X.flags.c_contiguous
    np.testing.assert_allclose(X, ref_X, rtol=1e-14, atol=1e-300)
    assert X.min() >= 0.0
    np.testing.assert_allclose(X.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
    # the softmax pass that also fills lse matches both kernels bit for bit
    out = np.full(T.shape[0], np.nan)
    np.testing.assert_array_equal(_rows_softmax(T, theta, lse=out), X)
    np.testing.assert_array_equal(out, lse)


class TestRowKernels:
    @pytest.mark.parametrize("m,d", [(1, 1), (4, 5), (64, 50), (512, 8), (1024, 25)])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 3.0])
    def test_match_the_oracle(self, m, d, theta):
        rng = np.random.default_rng(m * d)
        assert_rows_match_oracle(rng.standard_normal((m, d)) + 2.0, theta)

    def test_softmax_is_c_contiguous(self):
        T = np.random.default_rng(14).standard_normal((512, 8))
        X = _rows_softmax(T, 3.0)
        assert X.flags.c_contiguous and not X.flags.f_contiguous
        assert _rows_softmax(np.asfortranarray(T), 3.0).flags.c_contiguous

    def test_spread_far_beyond_the_exp_range(self):
        # spreads of 1e4 theta: every entry below the row maximum underflows
        theta = 0.5
        T = np.array([[0.0, -5e3, -2e3], [1e3, -4e3, 1e3], [7.0, 7.0 - 1e4, 7.0 - 400.0]])
        assert_rows_match_oracle(T, theta)
        np.testing.assert_array_equal(_rows_lse(T, theta)[:2], [0.0, 1e3 + theta * math.log(2.0)])
        np.testing.assert_array_equal(_rows_softmax(T, theta)[:2], [[1, 0, 0], [0.5, 0, 0.5]])

    def test_row_far_below_the_others(self):
        rng = np.random.default_rng(15)
        T = rng.standard_normal((64, 8))
        T[5] -= 1e6
        assert_rows_match_oracle(T, 0.5)
        # the shift is per row, so the low row keeps its own softmax
        np.testing.assert_allclose(
            _rows_softmax(T, 0.5)[5], _softmax_rows(T[5:6] + 1e6, 0.5)[0], rtol=1e-9)

    def test_entries_near_the_float_limit(self):
        T = np.array([[1e300, -1e300, 0.0], [-1e300, -1e300, -1e300], [1e300, 1e300, -1e300]])
        for theta in (0.5, 3.0):
            assert_rows_match_oracle(T, theta)
            np.testing.assert_array_equal(_rows_softmax(T, theta),
                                          [[1, 0, 0], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0]])

    @settings(max_examples=60, deadline=None)
    @given(
        T=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.floats(-1e6, 1e6),
        ),
        theta=st.sampled_from([1e-3, 0.1, 0.5, 3.0]),
    )
    def test_random_links(self, T, theta):
        lse, X = _rows_lse(T, theta), _rows_softmax(T, theta)
        ref_lse, ref_X = _lse_rows(T, theta), _softmax_rows(T, theta)
        # the maxima are exact; only the sums of exponentials are reordered
        assert np.all(np.abs(lse - ref_lse) <= 1e-14 * (np.abs(ref_lse) + theta))
        assert np.all(lse >= T.max(axis=1))
        assert np.all(lse <= T.max(axis=1) + theta * math.log(T.shape[1]) * (1 + 1e-14))
        np.testing.assert_allclose(X, ref_X, rtol=1e-14, atol=1e-300)
        assert X.flags.c_contiguous and X.min() >= 0.0
        np.testing.assert_allclose(X.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


class TestConjF:
    def test_linear_inside_ball_p2(self, toy_p2):
        rng = np.random.default_rng(7)
        t = rng.standard_normal(12)
        t *= 0.9 / np.linalg.norm(t)
        assert ed.conj_F(t, toy_p2) == pytest.approx(float(t @ toy_p2.stacked_b()))

    def test_infinite_outside_ball_p2(self, toy_p2):
        t = np.zeros(12)
        t[0] = 1.1
        assert math.isinf(ed.conj_F(t, toy_p2))

    def test_ball_slack_edge(self, toy_p2):
        t = np.zeros(12)
        t[0] = 1.0 + 0.5 * DUAL_BALL_SLACK
        assert math.isfinite(ed.conj_F(t, toy_p2))
        t[0] = 1.0 + 1e-6
        assert math.isinf(ed.conj_F(t, toy_p2))

    def test_p1_uses_sup_norm(self, toy_p1):
        t = np.full(12, 0.999)
        assert math.isfinite(ed.conj_F(t, toy_p1))
        t[3] = 1.01
        assert math.isinf(ed.conj_F(t, toy_p1))


class TestDualObjective:
    def test_matches_dense_reference(self, toy_p2, ring4):
        Wk, Ak, b = dense_operators(toy_p2, ring4)
        rng = np.random.default_rng(8)
        for _ in range(10):
            st_ = random_state(toy_p2, ring4, rng, spread=2.0)
            dense = dense_dual_value(st_.z, st_.s, toy_p2, Wk, Ak, b)
            assert ed.dual_objective(st_, toy_p2, 0.0) == pytest.approx(
                dense, rel=1e-12, abs=1e-10
            )

    def test_penalty_term_added(self, toy_p2, ring4):
        rng = np.random.default_rng(9)
        st_ = random_state(toy_p2, ring4, rng)
        nu = 0.05
        base = ed.dual_objective(st_, toy_p2, 0.0)
        full = ed.dual_objective(st_, toy_p2, nu)
        assert full - base == pytest.approx(nu * float(np.sum(st_.s**2)), rel=1e-10)

    def test_q_inf_feasible_has_no_penalty(self, toy_p1, ring4):
        rng = np.random.default_rng(10)
        st_ = ed.DualState.of(toy_p1, ring4, rng.standard_normal(20), rng.uniform(-1, 1, 12))
        val = ed.dual_objective(st_, toy_p1, 0.7)
        assert val == pytest.approx(
            ed.dual_objective(st_, toy_p1, 0.0), rel=1e-14
        )

    def test_q_inf_rejects_infeasible(self, toy_p1, ring4):
        st_ = ed.DualState.of(toy_p1, ring4, np.zeros(20), np.full(12, 1.5))
        with pytest.raises(ValueError, match="inf mode"):
            ed.dual_objective(st_, toy_p1, 0.0)

    def test_negative_nu_rejected(self, toy_p2, ring4):
        with pytest.raises(ValueError, match="nonnegative"):
            ed.dual_objective(origin(toy_p2, ring4), toy_p2, -1.0)

    @settings(max_examples=20, deadline=None)
    @given(small_instances(), st.integers(0, 2**31 - 1))
    def test_convexity_midpoint(self, inst, seed):
        rng = np.random.default_rng(seed)
        W = ed.build_laplacian(ed.topology_ring(inst.m))
        a = random_state(inst, W, rng)
        b = random_state(inst, W, rng)
        if inst.p == 1.0:  # the box mode's objective is finite on the box only
            a, b = (ed.DualState.of(inst, W, x.z, np.clip(x.s, -1.0, 1.0)) for x in (a, b))
        mid = ed.DualState.of(inst, W, 0.5 * (a.z + b.z), 0.5 * (a.s + b.s))
        fa = ed.dual_objective(a, inst, 0.0)
        fb = ed.dual_objective(b, inst, 0.0)
        fm = ed.dual_objective(mid, inst, 0.0)
        assert fm <= 0.5 * (fa + fb) + 1e-9 * max(1.0, abs(fa), abs(fb))


class TestDualGradient:
    def test_matches_dense_reference(self, toy_p2, ring4):
        Wk, Ak, b = dense_operators(toy_p2, ring4)
        rng = np.random.default_rng(11)
        for _ in range(10):
            st_ = random_state(toy_p2, ring4, rng, spread=1.5)
            gz, gs = ed.dual_gradient(st_, toy_p2, ring4)
            rz, rs = dense_dual_grad(st_.z, st_.s, toy_p2, Wk, Ak, b)
            assert np.allclose(gz, rz, atol=1e-12)
            assert np.allclose(gs, rs, atol=1e-12)

    def test_finite_difference_spot_check(self, toy_p2, ring4):
        rng = np.random.default_rng(12)
        st_ = random_state(toy_p2, ring4, rng)
        gz, gs = ed.dual_gradient(st_, toy_p2, ring4)
        g = np.concatenate([gz, gs])
        h = 1e-6
        for idx in rng.choice(g.size, size=8, replace=False):
            zp, sp = st_.z.copy(), st_.s.copy()
            zm, sm = st_.z.copy(), st_.s.copy()
            if idx < st_.z.size:
                zp[idx] += h
                zm[idx] -= h
            else:
                sp[idx - st_.z.size] += h
                sm[idx - st_.z.size] -= h
            fp = ed.dual_objective(ed.DualState.of(toy_p2, ring4, zp, sp), toy_p2, 0.0)
            fm = ed.dual_objective(ed.DualState.of(toy_p2, ring4, zm, sm), toy_p2, 0.0)
            assert (fp - fm) / (2 * h) == pytest.approx(g[idx], rel=2e-5, abs=1e-8)

    def test_gradient_zero_data_at_origin(self, ring4):
        inst = ed.ProblemInstance(2.0, 0.5, np.ones((4, 2, 3)), np.zeros((4, 2)))
        gz, gs = ed.dual_gradient(origin(inst, ring4), inst, ring4)
        # uniform softmax blocks are consensual, so the z gradient vanishes
        assert np.allclose(gz, 0.0, atol=1e-14)
        assert np.allclose(gs, -1.0, atol=1e-14)


class TestConstants:
    def test_formulas_from_dense_quantities(self, toy_p2, ring4):
        lam = float(np.linalg.eigvalsh(laplacian(ed.topology_ring(4)))[-1])
        sig = max(
            float(np.linalg.svd(toy_p2.A[i], compute_uv=False)[0])
            for i in range(toy_p2.m)
        )
        c = ed.lipschitz_constants(toy_p2, ring4)
        m, theta = toy_p2.m, toy_p2.theta
        assert c.L_H == pytest.approx(m * (sig**2 + lam**2) / theta, rel=1e-12)
        assert c.L_z == pytest.approx(lam**2 / (2 * theta), rel=1e-12)
        assert c.L_s == pytest.approx(sig**2 / (2 * theta), rel=1e-12)
        assert c.eta == pytest.approx(lam / (lam + sig), rel=1e-12)

    @pytest.mark.parametrize("m,n,d", [(4, 3, 5), (64, 20, 50), (512, 2, 8)])
    def test_block_constants_bound_the_block_hessians(self, m, n, d):
        # the benchmark's toy, ring64 and ring512 instances: ring, seed 7, theta 3
        inst = ed.generate_instance(7, m, n, d, 1.0, 3.0)
        W = ed.build_laplacian(ed.topology_ring(m))
        c = ed.lipschitz_constants(inst, W)
        rng = np.random.default_rng(7)
        for _ in range(3):
            z, s = rng.standard_normal(m * d), rng.uniform(-1.0, 1.0, m * n)
            lam_z, lam_s = block_hessian_norms(inst, W, z, s)
            assert 0.0 < lam_z / c.L_z <= 1.0 + 1e-9
            assert 0.0 < lam_s / c.L_s <= 1.0 + 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_zero_data_gives_eta_one_which_only_acrcd_reads(self, p, ring4):
        # sigma_max = 0: eta = lambda_max / (lambda_max + 0) = 1, L_s = 0
        inst = ed.generate_instance(7, 4, 3, 5, p, 3.0, scale=0.0)
        c = ed.lipschitz_constants(inst, ring4)
        assert (c.eta, c.L_s) == (1.0, 0.0)
        # STM steps with L_H alone and never reads eta
        _, trace = ed.run_stm(inst, ring4, ed.STMConfig(max_iter=5))
        assert trace.iter[-1] == 5
        if p == 1.0:
            with pytest.raises(ValueError, match="all data blocks are zero"):
                ed.run_acrcd(inst, ring4, ed.ACRCDConfig(rng_seed=0, max_iter=5))
        # the comparator's step divides by sigma_max, so it refuses at either p
        with pytest.raises(ValueError, match="all data blocks are zero"):
            ed.subgradient_baseline(inst, ring4, 5)

    def test_empirical_smoothness_never_exceeds_bounds(self, toy_p2, ring4):
        c = ed.lipschitz_constants(toy_p2, ring4)
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = random_state(toy_p2, ring4, rng, spread=3.0)
            dz = rng.standard_normal(20) * 0.1
            ds = rng.standard_normal(12) * 0.1
            # full perturbation vs L_H
            b = ed.DualState.of(toy_p2, ring4, a.z + dz, a.s + ds)
            ga = np.concatenate(ed.dual_gradient(a, toy_p2, ring4))
            gb = np.concatenate(ed.dual_gradient(b, toy_p2, ring4))
            step = math.sqrt(float(dz @ dz + ds @ ds))
            assert np.linalg.norm(ga - gb) <= c.L_H * step * (1 + 1e-12)
            # z-only vs L_z, s-only vs L_s
            bz = ed.DualState.of(toy_p2, ring4, a.z + dz, a.s)
            gbz = np.concatenate(ed.dual_gradient(bz, toy_p2, ring4))
            assert np.linalg.norm(ga - gbz) <= c.L_z * np.linalg.norm(dz) * (1 + 1e-12)
            bs = ed.DualState.of(toy_p2, ring4, a.z, a.s + ds)
            gbs = np.concatenate(ed.dual_gradient(bs, toy_p2, ring4))
            assert np.linalg.norm(ga - gbs) <= c.L_s * np.linalg.norm(ds) * (1 + 1e-12)


class TestRadii:
    def test_default_weight(self, toy_p2, toy_p1):
        assert ed.default_regularizer_weight(toy_p2, 1e-4) == pytest.approx(5e-5)
        # the box mode (q = inf) takes no penalty
        assert ed.default_regularizer_weight(toy_p1, 1e-4) == 0.0
        with pytest.raises(ValueError):
            ed.default_regularizer_weight(toy_p2, 0.0)
        for inst in (toy_p1, toy_p2):
            for eps in (math.nan, math.inf):
                with pytest.raises(ValueError, match="target accuracy must be positive"):
                    ed.default_regularizer_weight(inst, eps)

    def test_kernel_floor_matches_dense_eig(self, toy_p2, ring4):
        exact, claimed = dual_kernel_floor(toy_p2, ring4)
        Wk, Ak, _ = dense_operators(toy_p2, ring4)
        M = Wk @ Wk + Ak.T @ Ak
        evals = np.linalg.eigvalsh(M)
        positive = evals[evals > 1e-12 * evals[-1]]
        assert exact == pytest.approx(float(positive[0]), rel=1e-9)
        dc = ed.data_constants(toy_p2)
        assert claimed == pytest.approx(
            min(ring4.lambda_min_plus**2, dc.sigma_min_plus_A**2), rel=1e-12
        )
        assert exact > 0.0


class TestDualState:
    def test_of_forms_the_dense_link(self, toy_p2, ring4):
        Wk, Ak, _ = dense_operators(toy_p2, ring4)
        st_ = random_state(toy_p2, ring4, np.random.default_rng(14))
        assert st_.z.shape == (20,)
        assert st_.s.shape == (12,)
        dense = -(Wk @ st_.z + Ak.T @ st_.s).reshape(toy_p2.m, toy_p2.d)
        assert np.allclose(st_.link, dense, rtol=1e-12, atol=1e-12)
        # -(0 + 0): the origin's link is -0.0, which STM's traces are pinned to
        assert np.signbit(origin(toy_p2, ring4).link).all()
