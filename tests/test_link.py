"""The carried dual link -(Wz + A^T s): agreement with a fresh link, and the
gossip products it saves, counted at the one place products with W are taken
from (``gossip_operator``), on dense and on neighbour-slot graphs.  Passes of
the per-node log-sum-exp/softmax kernel are counted the same way, at
``dual._rows_shifted_exp``, and products with A and A^T at ``np.einsum``."""

import math

import numpy as np
import pytest

import entrodual as ed
import entrodual.dual as dual_mod
import entrodual.stm as stm_mod
from entrodual.acrcd import BlockOracle, acrcd_init, acrcd_step
from entrodual.dual import _neg_link
from entrodual.network import NeighbourSlots

LINK_RTOL = 1e-12


class ScriptedRNG:
    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class CountingGossip:
    """Stands in for the operator that applies W and logs every product taken with it."""

    def __init__(self, W, log):
        self.W = W
        self.log = log

    def __matmul__(self, other):
        self.log.append(other.shape)
        return self.W @ other


@pytest.fixture
def gossip_log(monkeypatch):
    log = []
    real = dual_mod.gossip_operator
    monkeypatch.setattr(dual_mod, "gossip_operator", lambda W: CountingGossip(real(W), log))
    return log


@pytest.fixture
def kernel_log(monkeypatch):
    """Shapes of the links passed to the row kernel, one entry per pass."""
    log = []
    real = dual_mod._rows_shifted_exp
    monkeypatch.setattr(dual_mod, "_rows_shifted_exp",
                        lambda T, theta: log.append(T.shape) or real(T, theta))
    return log


@pytest.fixture(scope="module")
def ring64():
    return ed.build_laplacian(ed.topology_ring(64))


@pytest.fixture(scope="module")
def ring256():
    """A ring whose W is applied from its neighbour slots."""
    W = ed.build_laplacian(ed.topology_ring(256))
    assert isinstance(W.operator, NeighbourSlots)
    return W


def ring256_instance(p):
    return ed.generate_instance(7, 256, 2, 4, p, 3.0 if p == 1.0 else 0.5)


def link_error(state, inst, W):
    fresh = _neg_link(inst, W, state.z, state.s)
    return float(np.abs(state.link - fresh).max() / np.abs(fresh).max())


def run_solver(solver, inst, W, iters):
    if solver == "acrcd":
        cfg = ed.ACRCDConfig(rng_seed=11, max_iter=iters, trace_every=iters)
        return ed.run_acrcd(inst, W, cfg)
    return ed.run_stm(inst, W, ed.STMConfig(max_iter=iters, trace_every=iters))


class TestCarriedLinkAgrees:
    # the toy runs go past the iteration at which the p = 1 gap reaches 1e-4
    @pytest.mark.parametrize("solver,p", [("stm", 1.0), ("stm", 2.0), ("acrcd", 1.0)])
    def test_toy(self, solver, p, toy_p1, toy_p2, ring4):
        inst = toy_p1 if p == 1.0 else toy_p2
        state, trace = run_solver(solver, inst, ring4, 3000)
        assert trace.iter[-1] >= 2511
        assert state.link is not None
        assert link_error(state, inst, ring4) <= LINK_RTOL

    @pytest.mark.parametrize("solver,p", [("stm", 1.0), ("stm", 2.0), ("acrcd", 1.0)])
    def test_ring64(self, solver, p, ring64):
        inst = ed.generate_instance(7, 64, 4, 6, p, 3.0 if p == 1.0 else 0.5)
        state, trace = run_solver(solver, inst, ring64, 600)
        assert trace.iter[-1] == 600
        assert link_error(state, inst, ring64) <= LINK_RTOL

    @pytest.mark.parametrize("solver,p", [("stm", 1.0), ("stm", 2.0), ("acrcd", 1.0)])
    def test_slot_ring(self, solver, p, ring256):
        inst = ring256_instance(p)
        state, trace = run_solver(solver, inst, ring256, 600)
        assert trace.iter[-1] == 600
        assert link_error(state, inst, ring256) <= LINK_RTOL

    def test_acrcd_images_of_both_pairs(self, toy_p1, ring4):
        # P = W z and Q = A^T s of the running and the momentum pair, after
        # many z steps have been accumulated into P
        oracle = BlockOracle(toy_p1, ring4)
        c = ed.lipschitz_constants(toy_p1, ring4)
        cfg = ed.ACRCDConfig(rng_seed=3, L_z=c.L_z, L_s=c.L_s, eta=c.eta)
        rng = np.random.Generator(np.random.PCG64(3))
        state = acrcd_init(np.zeros(20), np.zeros(12), oracle)
        for _ in range(3000):
            state = acrcd_step(state, cfg, rng, oracle)
        assert state.n_comm > 1000
        for z, P in ((state.z_bar, state.P_bar), (state.z_under, state.P_under)):
            fresh = oracle.gossip(z)
            assert np.abs(P - fresh).max() <= LINK_RTOL * np.abs(fresh).max()
        for s, Q in ((state.s_bar, state.Q_bar), (state.s_under, state.Q_under)):
            np.testing.assert_array_equal(Q, oracle.adjoint(s))


class TestGossipProducts:
    def test_stm_iteration(self, toy_p1, ring4, gossip_log, monkeypatch):
        # one link from scratch (one W product) and W xhat per iteration;
        # the stall check and the trace rows read q's carried link
        fresh = []
        monkeypatch.setattr(stm_mod, "_neg_link", lambda *a: fresh.append(1) or _neg_link(*a))
        counts = {}
        for iters in (1, 11):
            gossip_log.clear()
            fresh.clear()
            ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=iters, trace_every=iters))
            counts[iters] = (len(gossip_log), len(fresh))
        assert counts[11][0] - counts[1][0] == 2 * 10
        assert counts[11][1] - counts[1][1] == 10

    def test_stm_iteration_on_slot_ring(self, ring256, gossip_log):
        inst = ring256_instance(1.0)
        counts = {}
        for iters in (1, 11):
            gossip_log.clear()
            ed.run_stm(inst, ring256, ed.STMConfig(max_iter=iters, trace_every=iters))
            counts[iters] = len(gossip_log)
        assert counts[11] - counts[1] == 2 * 10
        assert set(gossip_log) == {(256, 4)}

    @pytest.fixture
    def acrcd_setup(self, toy_p1, ring4):
        oracle = BlockOracle(toy_p1, ring4)
        c = ed.lipschitz_constants(toy_p1, ring4)
        cfg = ed.ACRCDConfig(rng_seed=0, L_z=c.L_z, L_s=c.L_s, eta=c.eta)
        rng = np.random.default_rng(1)
        state = acrcd_init(rng.standard_normal(20), rng.uniform(-1, 1, 12), oracle)
        return oracle, cfg, state

    def test_acrcd_s_step_applies_no_w(self, acrcd_setup, toy_p1, ring4, gossip_log):
        oracle, cfg, state = acrcd_setup
        new = acrcd_step(state, cfg, ScriptedRNG([0.999]), oracle)
        ed.dual_objective(ed.DualState(new.z_bar, new.s_bar, -(new.P_bar + new.Q_bar)),
                          toy_p1, ring4, 0.0, math.inf)
        assert new.n_comp == 1
        assert gossip_log == []

    def test_acrcd_z_step_applies_w_twice(self, acrcd_setup, gossip_log):
        oracle, cfg, state = acrcd_setup
        new = acrcd_step(state, cfg, ScriptedRNG([0.0]), oracle)
        assert new.n_comm == 1
        assert len(gossip_log) == 2

    def test_duality_gap_forms_the_link_once(self, toy_p1, ring4, gossip_log):
        rng = np.random.default_rng(2)
        state = ed.DualState(rng.standard_normal(20), rng.uniform(-1, 1, 12))
        rep = ed.duality_gap(state, toy_p1, ring4)
        assert len(gossip_log) == 1
        gossip_log.clear()
        carried = ed.DualState(state.z, state.s, _neg_link(toy_p1, ring4, state.z, state.s))
        assert gossip_log == [(4, 5)]
        gossip_log.clear()
        assert ed.duality_gap(carried, toy_p1, ring4) == rep
        assert gossip_log == []


class TestKernelPasses:
    """Two passes per solver iteration (softmax at the gradient's point,
    log-sum-exp for the objective) and one per certificate, which yields
    both its softmax and its log-sum-exp."""

    @pytest.mark.parametrize("solver", ["stm", "acrcd"])
    def test_per_untraced_iteration(self, solver, toy_p1, ring4, kernel_log):
        counts = {}
        for iters in (1, 11):
            kernel_log.clear()
            run_solver(solver, toy_p1, ring4, iters)
            counts[iters] = len(kernel_log)
        assert counts[11] - counts[1] == 2 * 10
        assert set(kernel_log) == {(4, 5)}

    def test_per_trace_row(self, toy_p1, ring4, kernel_log):
        # 11 iterations traced at every row against one traced only at the ends
        ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=11, trace_every=11))
        ends = len(kernel_log)
        kernel_log.clear()
        ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=11, trace_every=1))
        assert len(kernel_log) - ends == 1 * 10

    def test_duality_gap(self, toy_p1, ring4, kernel_log):
        rng = np.random.default_rng(2)
        for s in (rng.uniform(-1, 1, 12), np.zeros(12)):
            kernel_log.clear()
            ed.duality_gap(ed.DualState(rng.standard_normal(20), s), toy_p1, ring4)
            assert kernel_log == [(4, 5)]


class TestPerIterationCounts:
    """Everything one solver iteration applies, counted together."""

    @pytest.fixture
    def data_log(self, monkeypatch):
        """Subscripts of every einsum: "ind,in->id" is A^T s, "ind,id->in" is A x."""
        log = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum",
                            lambda spec, *a, **k: log.append(spec) or real(spec, *a, **k))
        return log

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_stm_products_and_passes(self, p, toy_p1, toy_p2, ring4,
                                     gossip_log, kernel_log, data_log):
        inst = toy_p1 if p == 1.0 else toy_p2
        counts = {}
        for iters in (1, 11):
            for log in (gossip_log, kernel_log, data_log):
                log.clear()
            ed.run_stm(inst, ring4, ed.STMConfig(max_iter=iters, trace_every=iters))
            counts[iters] = (len(gossip_log), data_log.count("ind,in->id"),
                             data_log.count("ind,id->in"), len(kernel_log))
        per_iter = [(b - a) / 10 for a, b in zip(counts[1], counts[11])]
        assert per_iter == [2, 1, 1, 2]

    def test_acrcd_w_products_follow_the_coin(self, toy_p1, ring4, gossip_log):
        # 2 W products per z step, none per s step
        logged = {}
        for iters in (1, 41):
            gossip_log.clear()
            _, trace = run_solver("acrcd", toy_p1, ring4, iters)
            logged[iters] = (len(gossip_log), trace.n_comm[-1], trace.n_comp[-1])
        (w1, z1, s1), (w41, z41, s41) = logged[1], logged[41]
        assert 0 < z41 - z1 < 40 and (z41 - z1) + (s41 - s1) == 40
        assert w41 - w1 == 2 * (z41 - z1)


def test_block_singular_values_match_the_per_block_loop(toy_p1):
    for inst in (toy_p1, ed.generate_instance(7, 64, 20, 50, 1.0, 3.0)):
        loop = np.stack([np.linalg.svd(inst.A[i], compute_uv=False) for i in range(inst.m)])
        np.testing.assert_array_equal(inst.block_singular_values, loop)
