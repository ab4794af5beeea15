"""The carried dual link -(Wz + A^T s): agreement with a fresh link, and the
gossip products it saves, counted at the one place products with W are taken
from (``gossip_operator``), on dense and on neighbour-slot graphs.  Passes of
the per-node log-sum-exp/softmax kernel are counted the same way, at
``dual._rows_shifted_exp``, and products with A and A^T at
``ProblemInstance.block_products`` (the ``data_log`` fixture)."""


import numpy as np
import pytest

import entrodual as ed
import entrodual.acrcd as acrcd_mod
import entrodual.dual as dual_mod
import entrodual.problem as problem_mod
import entrodual.recovery as recovery_mod
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
        for zP in (state.zP_bar, state.zP_under):
            fresh = oracle.gossip(zP.x)
            assert np.abs(zP.image - fresh).max() <= LINK_RTOL * np.abs(fresh).max()
        for sQ in (state.sQ_bar, state.sQ_under):
            np.testing.assert_array_equal(sQ.image, oracle.adjoint(sQ.x))


class TestGossipProducts:
    def test_stm_iteration(self, toy_p1, ring4, gossip_log, monkeypatch):
        # one link from scratch (one W product) and W xhat per iteration;
        # the stall check reads the gradient's kernel pass at y, and the
        # trace rows read q's carried link
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
        link = -(new.zP_bar.image + new.sQ_bar.image)
        ed.dual_objective(ed.DualState(new.zP_bar.x, new.sQ_bar.x, link), toy_p1, ring4, 0.0)
        assert new.n_comp == 1
        assert gossip_log == []

    def test_acrcd_z_step_applies_w_twice(self, acrcd_setup, gossip_log):
        oracle, cfg, state = acrcd_setup
        new = acrcd_step(state, cfg, ScriptedRNG([0.0]), oracle)
        assert new.n_comm == 1
        assert len(gossip_log) == 2

    def test_of_forms_the_link_and_duality_gap_reads_it(self, toy_p1, ring4, gossip_log):
        # the point's one W product is taken when it is made; the certificate's
        # consensus residual is taken in problem, outside this log
        rng = np.random.default_rng(2)
        state = ed.DualState.of(toy_p1, ring4, rng.standard_normal(20), rng.uniform(-1, 1, 12))
        assert gossip_log == [(4, 5)]
        gossip_log.clear()
        ed.duality_gap(state, toy_p1, ring4)
        assert gossip_log == []


@pytest.fixture
def certificates(monkeypatch):
    """One entry per ``duality_gap`` call made by either solver."""
    log = []
    for module in (acrcd_mod, stm_mod):
        real = module.duality_gap
        monkeypatch.setattr(module, "duality_gap",
                            lambda *a, real=real: log.append(1) or real(*a))
    return log


class TestKernelPasses:
    """One pass per iteration of either solver: STM's softmax at y, whose
    log-sum-exp also gives the stall check's F(y), and ACRCD's softmax at the
    midpoint, whose log-sum-exp also gives the midpoint's objective for the
    best point.  One more per certificate, which yields both its softmax and
    its log-sum-exp."""

    @pytest.mark.parametrize("solver", ["stm", "acrcd"])
    def test_per_untraced_iteration(self, solver, toy_p1, ring4, kernel_log, certificates):
        # ACRCD certifies its closing row only if the best point changed, so
        # the passes of the certificates at the ends are taken out
        counts = {}
        for iters in (1, 11):
            kernel_log.clear()
            certificates.clear()
            run_solver(solver, toy_p1, ring4, iters)
            counts[iters] = len(kernel_log) - len(certificates)
        assert counts[11] - counts[1] == 1 * 10
        assert set(kernel_log) == {(4, 5)}

    def test_per_traced_acrcd_iteration(self, toy_p1, ring4, kernel_log, certificates):
        # a row certifies only a changed best point, so a stride-1 run makes
        # one pass per iteration and one per certificate, after the one pass
        # that values the origin for row 0
        iters = 200
        ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=11, max_iter=iters, trace_every=1))
        assert 1 < len(certificates) < iters
        assert len(kernel_log) == 1 + iters + len(certificates)

    def test_per_traced_stm_iteration(self, toy_p1, ring4, kernel_log):
        counts = {}
        for iters in (1, 11):
            kernel_log.clear()
            ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=iters, trace_every=1))
            counts[iters] = len(kernel_log)
        assert counts[11] - counts[1] == 2 * 10

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
            state = ed.DualState.of(toy_p1, ring4, rng.standard_normal(20), s)
            kernel_log.clear()
            ed.duality_gap(state, toy_p1, ring4)
            assert kernel_log == [(4, 5)]


class TestTraceRowCost:
    """What a trace row adds to an STM iteration: one kernel pass (counted in
    ``TestKernelPasses``), one W product, and no objective evaluation beyond
    the one the stall check reads at y."""

    def test_w_products_per_row(self, toy_p1, ring4, monkeypatch):
        # the certificate's consensus residual is the row's only W product;
        # it is taken in problem, so both modules' gossip_operator are counted
        log = []
        real = dual_mod.gossip_operator

        def counted(W):
            return CountingGossip(real(W), log)

        monkeypatch.setattr(dual_mod, "gossip_operator", counted)
        monkeypatch.setattr(problem_mod, "gossip_operator", counted)
        ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=11, trace_every=11))
        ends = len(log)
        log.clear()
        ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=11, trace_every=1))
        assert len(log) - ends == 1 * 10

    @pytest.mark.parametrize("p", [1.0, 2.0], ids=["box", "penalised"])
    def test_objective_evaluations_per_traced_iteration(self, p, toy_p1, toy_p2, ring4,
                                                        monkeypatch):
        # F(y) for the stall check; the row's F(q) comes from the certificate's
        # H, which takes <s, b> and the ball test from conj_F, so neither the
        # row nor the certificate evaluates the objective
        inst = toy_p1 if p == 1.0 else toy_p2
        calls = []
        real = dual_mod.objective_from_lse
        for module in (dual_mod, stm_mod, recovery_mod):
            if hasattr(module, "objective_from_lse"):
                monkeypatch.setattr(module, "objective_from_lse",
                                    lambda *a, **k: calls.append(1) or real(*a, **k))
        counts = {}
        for iters in (1, 11):
            calls.clear()
            ed.run_stm(inst, ring4, ed.STMConfig(max_iter=iters, trace_every=1))
            counts[iters] = len(calls)
        assert counts[11] - counts[1] == 1 * 10


class TestPerIterationCounts:
    """Everything one solver iteration applies, counted together."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_stm_products_and_passes(self, p, toy_p1, toy_p2, ring4,
                                     gossip_log, kernel_log, data_log):
        inst = toy_p1 if p == 1.0 else toy_p2
        counts = {}
        for iters in (1, 11):
            for log in (gossip_log, kernel_log, data_log):
                log.clear()
            ed.run_stm(inst, ring4, ed.STMConfig(max_iter=iters, trace_every=iters))
            counts[iters] = (len(gossip_log), data_log.count("adjoint"),
                             data_log.count("apply"), len(kernel_log))
        per_iter = [(b - a) / 10 for a, b in zip(counts[1], counts[11])]
        assert per_iter == [2, 1, 1, 1]

    def test_stm_data_products_above_the_blas_crossover(self, ring64, data_log):
        # ring64's blocks are applied by BLAS; still 1 A^T and 1 A per iteration
        inst = ed.generate_instance(7, 64, 20, 50, 1.0, 3.0)
        assert inst.n * inst.d >= ed.problem.BLAS_BLOCK_MIN
        counts = {}
        for iters in (1, 11):
            data_log.clear()
            ed.run_stm(inst, ring64, ed.STMConfig(max_iter=iters, trace_every=iters))
            counts[iters] = (data_log.count("adjoint"), data_log.count("apply"))
        assert [(b - a) / 10 for a, b in zip(counts[1], counts[11])] == [1, 1]

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
