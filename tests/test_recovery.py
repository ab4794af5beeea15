"""Primal recovery maps and duality-gap certificates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import entrodual as ed

from entrodual.network import NeighbourSlots
from entrodual.problem import BLAS_BLOCK_MIN

from oracles import (duality_gap_reference, fista_reference, laplacian,
                     primal_subgradient_reference)
from reference_values import PRIMAL_OPT_P2


def random_state(inst, W, seed, z_scale=1.0, s_scale=1.0):
    rng = np.random.default_rng(seed)
    z = z_scale * rng.standard_normal(inst.m * inst.d)
    s = s_scale * rng.standard_normal(inst.m * inst.n)
    return ed.DualState.of(inst, W, z, s)


def ball_project(inst, s):
    """Pull s into the dual-norm unit ball that ``conj_F`` tests: the box at
    p = 1, and at p = 2 one Euclidean ball over the stacked s of all nodes."""
    if inst.p == 1.0:
        return np.clip(s, -1.0, 1.0)
    return s / max(float(np.linalg.norm(s)), 1.0)


class TestPrimalFromDual:
    def test_blocks_are_simplex_points(self, toy_p2, ring4):
        ps = ed.primal_from_dual(random_state(toy_p2, ring4, 0, 2.0, 2.0), toy_p2, ring4)
        assert ps.x_blocks.shape == (toy_p2.m, toy_p2.d)
        assert ps.x_blocks.min() >= 0.0
        np.testing.assert_allclose(ps.x_blocks.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_manual_softmax(self, toy_p1, ring4):
        state = random_state(toy_p1, ring4, 1, 1.5, 0.5)
        ps = ed.primal_from_dual(state, toy_p1, ring4)
        lifted = np.kron(laplacian(ed.topology_ring(4)), np.eye(toy_p1.d))
        link = lifted @ state.z
        for i in range(toy_p1.m):
            link[i * toy_p1.d:(i + 1) * toy_p1.d] += (
                toy_p1.A[i].T @ state.s[i * toy_p1.n:(i + 1) * toy_p1.n]
            )
        t = (-link / toy_p1.theta).reshape(toy_p1.m, toy_p1.d)
        expect = np.exp(t - t.max(axis=1, keepdims=True))
        expect /= expect.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(ps.x_blocks, expect, atol=1e-12)

    def test_makes_no_data_product(self, toy_p2, ring4, data_log):
        # the certificate reads only the blocks, so recovery forms no A x
        state = random_state(toy_p2, ring4, 2)
        data_log.clear()  # the link's A^T s, taken when the point is made
        ps = ed.primal_from_dual(state, toy_p2, ring4)
        assert data_log == []
        assert [f.name for f in dataclasses.fields(ps)] == ["x_blocks"]

    def test_zero_state_gives_uniform_blocks(self, toy_p2, ring4):
        zero = ed.DualState.of(
            toy_p2, ring4, np.zeros(toy_p2.m * toy_p2.d), np.zeros(toy_p2.m * toy_p2.n))
        ps = ed.primal_from_dual(zero, toy_p2, ring4)
        np.testing.assert_allclose(ps.x_blocks, 1.0 / toy_p2.d, atol=1e-15)


class TestConsensusCandidate:
    def test_identical_blocks_pass_through(self):
        x = np.array([0.2, 0.5, 0.3])
        blocks = np.tile(x, (3, 1))
        np.testing.assert_allclose(ed.consensus_candidate(blocks), x, atol=1e-15)

    def test_mean_then_renormalize(self):
        blocks = np.array([[0.8, 0.2], [0.4, 0.6]])
        np.testing.assert_allclose(ed.consensus_candidate(blocks), [0.6, 0.4], atol=1e-15)

    def test_output_on_simplex(self, toy_p1, ring4):
        ps = ed.primal_from_dual(random_state(toy_p1, ring4, 3, 3.0, 0.7), toy_p1, ring4)
        x = ed.consensus_candidate(ps.x_blocks)
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)


class TestDualityGap:
    def test_zero_data_zero_state_exact_zero(self):
        inst = ed.ProblemInstance(2, 1, 1, 2.0, 0.5, np.zeros((2, 1, 1)), np.zeros((2, 1)))
        W = ed.build_laplacian(ed.topology_path(2))
        rep = ed.duality_gap(ed.DualState.of(inst, W, np.zeros(2), np.zeros(2)), inst, W)
        assert rep.gap == 0.0
        assert rep.primal_value == 0.0
        assert rep.dual_value == 0.0
        assert rep.consensus_residual == 0.0

    def test_infeasible_s_reports_infinite_gap(self, toy_p1, ring4):
        state = ed.DualState.of(
            toy_p1, ring4, np.zeros(toy_p1.m * toy_p1.d), np.full(toy_p1.m * toy_p1.n, 2.0))
        rep = ed.duality_gap(state, toy_p1, ring4)
        assert math.isinf(rep.gap)
        assert math.isinf(rep.dual_value)
        assert math.isfinite(rep.primal_value)

    def test_infeasible_p2_node_norm(self, toy_p2, ring4):
        s = np.zeros(toy_p2.m * toy_p2.n)
        s[:toy_p2.n] = 2.0
        state = ed.DualState.of(toy_p2, ring4, np.zeros(toy_p2.m * toy_p2.d), s)
        rep = ed.duality_gap(state, toy_p2, ring4)
        assert math.isinf(rep.gap)

    @settings(max_examples=40, deadline=None)
    @given(
        z=hnp.arrays(np.float64, 20, elements=st.floats(-5, 5)),
        s=hnp.arrays(np.float64, 12, elements=st.floats(-5, 5)),
        seed=st.integers(0, 3),
    )
    def test_weak_duality_p1(self, toy_p1, ring4, z, s, seed):
        del seed
        state = ed.DualState.of(toy_p1, ring4, z, ball_project(toy_p1, s))
        rep = ed.duality_gap(state, toy_p1, ring4)
        assert rep.gap >= -1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        z=hnp.arrays(np.float64, 20, elements=st.floats(-5, 5)),
        s=hnp.arrays(np.float64, 12, elements=st.floats(-5, 5)),
    )
    def test_weak_duality_p2(self, toy_p2, ring4, z, s):
        state = ed.DualState.of(toy_p2, ring4, z, ball_project(toy_p2, s))
        rep = ed.duality_gap(state, toy_p2, ring4)
        assert math.isfinite(rep.gap)
        assert rep.gap >= -1e-8


# (m, n, d) of each product path the certificate runs on, with the forms
# that apply W and the data blocks there
PRODUCT_PATHS = {
    "dense-einsum": ((4, 3, 5), "dense", "einsum"),
    "dense-blas": ((64, 20, 50), "dense", "blas"),
    "slots-einsum": ((512, 2, 8), "slots", "einsum"),
}


@pytest.fixture(scope="module", params=sorted(PRODUCT_PATHS))
def product_path(request):
    (m, n, d), w_form, data_form = PRODUCT_PATHS[request.param]
    W = ed.build_laplacian(ed.topology_ring(m))
    assert isinstance(W.operator, NeighbourSlots) == (w_form == "slots")
    blas = n * d >= BLAS_BLOCK_MIN
    assert blas == (data_form == "blas")
    return (m, n, d), W


class TestCertificateOracle:
    """The certificate equals the earlier arithmetic (``oracles.
    duality_gap_reference``) exactly, on every product path, at p = 1 and
    p = 2, with s inside and outside the dual ball.  theta = 1e-3 makes the
    entropy term small beside the norm, so the norm's last bits reach the
    primal value, and gives softmax blocks with entries that underflow to 0."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("theta", [None, 1e-3], ids=["theta-default", "theta-1e-3"])
    def test_gap_report_equals_the_oracle(self, product_path, p, feasible, theta):
        (m, n, d), W = product_path
        if theta is None:
            theta = 3.0 if p == 1.0 else 0.5
        inst = ed.generate_instance(7, m, n, d, p, theta)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(m * d)
            s = rng.standard_normal(m * n)
            if p == 1.0:
                s = np.clip(s, -1.0, 1.0)
                if not feasible:
                    s[rng.integers(m * n)] = 1.5
            else:
                s *= (0.9 if feasible else 1.5) / np.linalg.norm(s)
            state = ed.DualState.of(inst, W, z, s)
            expect = duality_gap_reference(state, inst, W)
            assert math.isfinite(expect.gap) == feasible
            assert ed.duality_gap(state, inst, W) == expect


@pytest.fixture(scope="module")
def ball_solution(toy_p2, ring4):
    z, s, _ = fista_reference(toy_p2, ring4, "ball2", 20000)
    return ed.DualState.of(toy_p2, ring4, z, s)


class TestReferenceCrossChecks:
    def test_ball_reference_closes_gap(self, toy_p2, ring4, ball_solution):
        rep = ed.duality_gap(ball_solution, toy_p2, ring4)
        assert rep.gap <= 1e-10
        assert rep.consensus_residual <= 1e-6

    def test_recovered_primal_matches_frozen_optimum(self, toy_p2, ring4, ball_solution):
        rep = ed.duality_gap(ball_solution, toy_p2, ring4)
        assert rep.primal_value / toy_p2.m == pytest.approx(PRIMAL_OPT_P2, abs=1e-8)

    def test_subgradient_reference_agrees(self, toy_p2):
        _, value = primal_subgradient_reference(toy_p2, 150000)
        assert value == pytest.approx(PRIMAL_OPT_P2, abs=1e-6)


class TestGapTrend:
    def test_window_medians_decrease(self, stm_p1_trace):
        _, trace = stm_p1_trace
        gaps = [g for g in trace.gap if math.isfinite(g)]
        assert len(gaps) >= 1500
        windows = [gaps[i:i + 400] for i in range(0, 2000, 400)]
        medians = [sorted(w)[len(w) // 2] for w in windows if w]
        assert all(b < a for a, b in zip(medians, medians[1:]))
