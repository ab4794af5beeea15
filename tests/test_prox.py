import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrodual as ed

from oracles import ProxParams, prox_lq_scalar


def prox_objective(s, t, params):
    return (t - s) ** 2 / (2.0 * params.gamma) + params.nu * abs(s) ** params.q_exponent


def grid_refine_minimizer(t, params, stages=6, points=2001):
    """Nested 1-D grid refinement of the prox objective, oracle-style."""
    lo, hi = min(0.0, t), max(0.0, t)
    best = 0.0
    for _ in range(stages):
        grid = np.linspace(lo, hi, points)
        vals = (t - grid) ** 2 / (2.0 * params.gamma) + params.nu * np.abs(
            grid
        ) ** params.q_exponent
        best = float(grid[int(np.argmin(vals))])
        span = (hi - lo) / (points - 1)
        lo, hi = best - 2 * span, best + 2 * span
    return best


class TestClosedForms:
    def test_q2_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            t = float(rng.uniform(-5, 5))
            params = ProxParams(
                gamma=float(10 ** rng.uniform(-2, 1)),
                nu=float(10 ** rng.uniform(-3, 0)),
                q_exponent=2.0,
            )
            expected = t / (1.0 + 2.0 * params.gamma * params.nu)
            assert abs(prox_lq_scalar(t, params) - expected) <= 1e-12

    def test_q1_soft_threshold(self):
        params = ProxParams(gamma=0.5, nu=0.4, q_exponent=1.0)
        shift = 0.2
        assert prox_lq_scalar(1.0, params) == pytest.approx(1.0 - shift, abs=1e-15)
        assert prox_lq_scalar(-1.0, params) == pytest.approx(-0.8, abs=1e-15)
        assert prox_lq_scalar(0.1, params) == 0.0
        assert prox_lq_scalar(-0.15, params) == 0.0

    def test_q_inf_clamps(self):
        params = ProxParams(gamma=1.0, nu=0.0, q_exponent=math.inf)
        assert prox_lq_scalar(2.5, params) == 1.0
        assert prox_lq_scalar(-3.0, params) == -1.0
        assert prox_lq_scalar(0.4, params) == 0.4

    def test_zero_nu_is_identity(self):
        params = ProxParams(gamma=0.3, nu=0.0, q_exponent=3.0)
        assert prox_lq_scalar(1.7, params) == 1.7

    def test_zero_input_fixed(self):
        params = ProxParams(gamma=0.3, nu=0.9, q_exponent=1.5)
        assert prox_lq_scalar(0.0, params) == 0.0


class TestBisection:
    @pytest.mark.parametrize("q", [1.5, 3.0])
    def test_stationarity_residual(self, q):
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = float(rng.uniform(-4, 4))
            params = ProxParams(
                gamma=float(10 ** rng.uniform(-2, 0.5)),
                nu=float(10 ** rng.uniform(-3, 0)),
                q_exponent=q,
            )
            s = prox_lq_scalar(t, params)
            # t = s + gamma q nu |s|^(q-1) sign(s) at the minimizer
            resid = s + params.gamma * q * params.nu * abs(s) ** (q - 1) * np.sign(s) - t
            assert abs(resid) <= 5e-11 * max(1.0, abs(t))

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_against_grid_refinement(self, q):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = float(rng.uniform(-3, 3))
            params = ProxParams(
                gamma=float(10 ** rng.uniform(-1, 0.5)),
                nu=float(10 ** rng.uniform(-2, 0)),
                q_exponent=q,
            )
            s = prox_lq_scalar(t, params)
            s_grid = grid_refine_minimizer(t, params)
            assert prox_objective(s, t, params) <= prox_objective(
                s_grid, t, params
            ) + 1e-8

    def test_odd_symmetry(self):
        params = ProxParams(gamma=0.7, nu=0.3, q_exponent=1.5)
        for t in (0.5, 1.3, 2.9):
            assert prox_lq_scalar(-t, params) == pytest.approx(
                -prox_lq_scalar(t, params), abs=1e-14
            )

    def test_shrinks_toward_zero(self):
        params = ProxParams(gamma=1.0, nu=0.5, q_exponent=3.0)
        for t in (0.1, 1.0, 10.0, 1e4):
            s = prox_lq_scalar(t, params)
            assert 0.0 <= s <= t

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    def test_nonexpansive(self, t1, t2, q):
        params = ProxParams(gamma=0.8, nu=0.25, q_exponent=q)
        a, b = prox_lq_scalar(t1, params), prox_lq_scalar(t2, params)
        assert abs(a - b) <= abs(t1 - t2) + 4 * params.tol


# the toy instance whose p gives R's exponent q = 1 / (1 - 1/p)
TOY_OF_Q = {2.0: "toy_p2", math.inf: "toy_p1"}


class TestProxR:
    def test_q_inf_projects_box(self, toy_p1):
        s = np.array([2.0, -0.5, -4.0])
        out = ed.prox_R(s, 1.0, 0.0, toy_p1)
        assert np.array_equal(out, [1.0, -0.5, -1.0])

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_matches_scalar_map(self, q, request):
        inst = request.getfixturevalue(TOY_OF_Q[q])
        rng = np.random.default_rng(3)
        s = rng.uniform(-3, 3, size=9)
        params = ProxParams(gamma=0.6, nu=0.2, q_exponent=q)
        out = ed.prox_R(s, params.gamma, params.nu, inst)
        expected = [prox_lq_scalar(v, params) for v in s]
        assert np.allclose(out, expected, atol=5e-12)

    def test_zero_nu_copies(self, toy_p2):
        s = np.array([3.0, -3.0])
        out = ed.prox_R(s, 1.0, 0.0, toy_p2)
        assert np.array_equal(out, s)
        out[0] = 0.0
        assert s[0] == 3.0

    @pytest.mark.parametrize("q", [2.0, math.inf])
    @pytest.mark.parametrize("nu", [0.0, 0.2])
    def test_in_place_matches_fresh(self, q, nu, request):
        # the solver writes the prox over its own input
        inst = request.getfixturevalue(TOY_OF_Q[q])
        s = np.random.default_rng(4).uniform(-3, 3, size=9)
        fresh = ed.prox_R(s, 0.6, nu, inst)
        target = s.copy()
        assert ed.prox_R(target, 0.6, nu, inst, out=target) is target
        assert np.array_equal(target, fresh)

    def test_rejects_bad_parameters(self, toy_p2):
        s = np.zeros(2)
        with pytest.raises(ValueError, match="gamma"):
            ed.prox_R(s, 0.0, 0.1, toy_p2)
        with pytest.raises(ValueError, match="nu"):
            ed.prox_R(s, 1.0, -0.1, toy_p2)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            ProxParams(gamma=0.0, nu=0.1, q_exponent=2.0)
        with pytest.raises(ValueError, match="nu"):
            ProxParams(gamma=1.0, nu=-0.1, q_exponent=2.0)
        with pytest.raises(ValueError, match="q must"):
            ProxParams(gamma=1.0, nu=0.1, q_exponent=0.5)
        with pytest.raises(ValueError, match="tol"):
            ProxParams(gamma=1.0, nu=0.1, q_exponent=2.0, tol=0.0)


class TestProjectBox:
    def test_idempotent(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-5, 5, size=20)
        once = ed.project_box(s)
        assert np.array_equal(ed.project_box(once), once)
        assert np.abs(once).max() <= 1.0

    def test_interior_unchanged(self):
        s = np.array([-0.9, 0.0, 0.3])
        assert np.array_equal(ed.project_box(s), s)
