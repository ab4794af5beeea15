"""Block-coordinate dual solver: coefficients, coin, branches, convergence."""

import math

import numpy as np
import pytest

import entrodual as ed
from entrodual.acrcd import acrcd_init, acrcd_step, step_coefficients

from reference_values import DUAL_OPT_P1_BOX


class ScriptedRNG:
    """Replays a fixed list of uniform draws; over-drawing fails loudly."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class ConstantOracle:
    """Constant partial gradients; every link image is a zero (1,) array, so
    the carried links stay zero and only the step arithmetic is exercised."""

    def __init__(self, g_z, g_s):
        self.g_z = np.asarray(g_z, dtype=float)
        self.g_s = np.asarray(g_s, dtype=float)

    def partial(self, point, take_z):
        return (self.g_z if take_z else self.g_s).copy()

    def gossip(self, z):
        return np.zeros(1)

    def adjoint(self, s, out=None):
        if out is None:
            return np.zeros(1)
        out.fill(0.0)
        return out


ZERO = ConstantOracle([0.0], [0.0])


# L_z = 2, L_s = 8 gives eta = sqrt(2)/(sqrt(2)+sqrt(8)) = 1/3 exactly
def tiny_cfg(**kw):
    base = dict(rng_seed=0, L_z=2.0, L_s=8.0, eta=1.0 / 3.0, max_iter=10)
    base.update(kw)
    return ed.ACRCDConfig(**base)


class TestStepCoefficients:
    def test_exact_values(self):
        assert step_coefficients(0) == (0.25, 1.0)
        assert step_coefficients(1) == (0.375, 2.0 / 3.0)
        assert step_coefficients(6) == (1.0, 0.25)

    def test_first_midpoint_is_momentum_point(self):
        _, tau0 = step_coefficients(0)
        assert tau0 == 1.0

    def test_product_identity(self):
        # alpha_{k+1} * tau_k = 1/4 for every k, up to rounding
        for k in range(200):
            alpha, tau = step_coefficients(k)
            assert alpha * tau == pytest.approx(0.25, rel=1e-15)

    def test_tau_decreases_alpha_grows(self):
        pairs = [step_coefficients(k) for k in range(50)]
        alphas = [a for a, _ in pairs]
        taus = [t for _, t in pairs]
        assert alphas == sorted(alphas)
        assert taus == sorted(taus, reverse=True)


class TestConfigValidation:
    def test_max_iter_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            ed.ACRCDConfig(rng_seed=0, max_iter=0)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.5])
    def test_eta_open_interval(self, eta):
        with pytest.raises(ValueError, match="eta"):
            ed.ACRCDConfig(rng_seed=0, eta=eta)

    def test_eta_identity_enforced(self):
        with pytest.raises(ValueError, match="disagrees with sqrt"):
            ed.ACRCDConfig(rng_seed=0, L_z=2.0, L_s=8.0, eta=0.5)

    def test_one_eta_message_for_solver_and_constants(self):
        messages = []
        for build in (lambda: ed.ACRCDConfig(rng_seed=0, L_z=2.0, L_s=8.0, eta=0.5),
                      lambda: ed.DualConstants(L_H=10.0, L_z=2.0, L_s=8.0, eta=0.5)):
            with pytest.raises(ValueError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("eta=0.5 disagrees with sqrt(L_z)/(sqrt(L_z)+sqrt(L_s))=")

    def test_consistent_triple_accepted(self):
        cfg = tiny_cfg()
        assert cfg.eta == pytest.approx(1.0 / 3.0)

    def test_partial_override_not_validated_at_construction(self):
        # the identity only binds once all three constants are known
        ed.ACRCDConfig(rng_seed=0, eta=0.9)
        ed.ACRCDConfig(rng_seed=0, L_z=123.0)


class TestInit:
    def test_copies_inputs(self):
        z0 = np.array([1.0, 2.0])
        s0 = np.array([0.5])
        state = acrcd_init(z0, s0, ZERO)
        z0[0] = 99.0
        s0[0] = 99.0
        assert state.z_bar[0] == 1.0
        assert state.s_bar[0] == 0.5

    def test_six_independent_arrays(self):
        state = acrcd_init([1.0, 2.0], [0.5], ZERO)
        state.z_bar[0] = -7.0
        state.s_bar[0] = -7.0
        state.P_bar[0] = -7.0
        state.Q_bar[0] = -7.0
        assert state.z_under[0] == 1.0
        assert state.z_mid[0] == 1.0
        assert state.s_under[0] == 0.5
        assert state.s_mid[0] == 0.5
        assert state.P_under[0] == 0.0
        assert state.Q_under[0] == 0.0

    def test_counters_start_at_zero(self):
        state = acrcd_init([0.0], [0.0], ZERO)
        assert (state.k, state.n_comm, state.n_comp) == (0, 0, 0)


class TestStepBranches:
    def test_unresolved_config_raises(self):
        state = acrcd_init([0.0], [0.0], ZERO)
        cfg = ed.ACRCDConfig(rng_seed=0)
        with pytest.raises(ValueError, match="resolved"):
            acrcd_step(state, cfg, ScriptedRNG([0.1]), ZERO)

    def test_z_branch_hand_computed(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.2]), oracle)
        # k=0: alpha=1/4, tau=1 so the midpoint is the momentum point
        np.testing.assert_array_equal(new.z_mid, [1.0, 2.0])
        np.testing.assert_allclose(new.z_bar, [0.5, 1.5])
        np.testing.assert_allclose(new.z_under, [0.75, 1.75])
        assert (new.k, new.n_comm, new.n_comp) == (1, 1, 0)

    def test_z_branch_leaves_s_untouched(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.2]), oracle)
        assert new.s_bar is state.s_bar
        assert new.s_under is state.s_under
        assert new.Q_bar is state.Q_bar
        assert new.Q_under is state.Q_under

    def test_s_branch_hand_computed_with_box(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.9]), oracle)
        # raw steps [-0.75, -1.75] and [-0.125, -1.125] clamp to the box
        np.testing.assert_allclose(new.s_bar, [-0.75, -1.0])
        np.testing.assert_allclose(new.s_under, [-0.125, -1.0])
        assert (new.k, new.n_comm, new.n_comp) == (1, 0, 1)

    def test_s_branch_leaves_z_untouched(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.9]), oracle)
        assert new.z_bar is state.z_bar
        assert new.z_under is state.z_under
        assert new.P_bar is state.P_bar
        assert new.P_under is state.P_under

    def test_one_coin_per_step(self):
        state = acrcd_init([0.0], [0.0], ZERO)
        rng = ScriptedRNG([0.2])
        acrcd_step(state, tiny_cfg(), ScriptedRNG([0.2]), ZERO)
        state = acrcd_step(state, tiny_cfg(), rng, ZERO)
        assert rng.draws == []
        with pytest.raises(IndexError):
            acrcd_step(state, tiny_cfg(), rng, ZERO)

    def test_draw_equal_to_eta_takes_s_branch(self):
        # strict < comparison; L_z = L_s makes eta exactly one half
        cfg = ed.ACRCDConfig(rng_seed=0, L_z=2.0, L_s=2.0, eta=0.5)
        state = acrcd_init([1.0], [0.0], ZERO)
        oracle = ConstantOracle([1.0], [1.0])
        new = acrcd_step(state, cfg, ScriptedRNG([0.5]), oracle)
        assert new.n_comp == 1
        new = acrcd_step(state, cfg, ScriptedRNG([0.4999]), oracle)
        assert new.n_comm == 1

    def test_midpoint_formula_at_later_k(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [1.0, 1.0])
        state = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.0]), oracle)
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.0]), oracle)
        _, tau = step_coefficients(1)
        expect = tau * state.z_under + (1.0 - tau) * state.z_bar
        np.testing.assert_allclose(new.z_mid, expect)


class TestRunACRCD:
    def test_rejects_p2(self, toy_p2, ring4):
        with pytest.raises(ValueError, match="p = 1"):
            ed.run_acrcd(toy_p2, ring4, ed.ACRCDConfig(rng_seed=0, max_iter=10))

    def test_partial_constant_override_rejected(self, toy_p1, ring4):
        # a lone L_z override cannot satisfy the eta identity against the
        # instance's other resolved constants
        with pytest.raises(ValueError, match="disagrees with sqrt"):
            ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=0, L_z=1.0, max_iter=5))

    def test_same_seed_byte_identical(self, toy_p1, ring4, tmp_path):
        cfg = ed.ACRCDConfig(rng_seed=42, max_iter=400, trace_every=20)
        _, ta = ed.run_acrcd(toy_p1, ring4, cfg)
        _, tb = ed.run_acrcd(toy_p1, ring4, cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        ed.save_trace(ta, pa)
        ed.save_trace(tb, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self, toy_p1, ring4):
        _, ta = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=0, max_iter=400, trace_every=400))
        _, tb = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=1, max_iter=400, trace_every=400))
        assert ta.n_comm[-1] != tb.n_comm[-1] or ta.dual_obj[-1] != tb.dual_obj[-1]

    def test_trace_reports_running_best(self, toy_p1, ring4):
        _, trace = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=5, max_iter=500, trace_every=10))
        vals = trace.dual_obj
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_counter_split_sums_to_iteration(self, toy_p1, ring4):
        _, trace = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=5, max_iter=300, trace_every=50))
        for k, comm, comp in zip(trace.iter, trace.n_comm, trace.n_comp):
            assert comm + comp == k

    def test_best_state_in_box(self, toy_p1, ring4):
        best, _ = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=2, max_iter=2000, trace_every=2000))
        assert float(np.abs(best.s).max()) <= 1.0 + 1e-12
        assert np.isfinite(best.z).all() and np.isfinite(best.s).all()

    def test_converges_to_reference_optimum(self, toy_p1, ring4):
        _, trace = ed.run_acrcd(
            toy_p1, ring4, ed.ACRCDConfig(rng_seed=3, max_iter=10000, trace_every=10000)
        )
        assert trace.dual_obj[-1] == pytest.approx(DUAL_OPT_P1_BOX, abs=1e-9)

    def test_gap_shrinks_and_stays_finite(self, toy_p1, ring4):
        _, trace = ed.run_acrcd(
            toy_p1, ring4, ed.ACRCDConfig(rng_seed=3, max_iter=10000, trace_every=2000)
        )
        assert all(math.isfinite(g) for g in trace.gap)
        assert trace.gap[-1] <= 1e-6
        assert trace.gap[-1] < trace.gap[0]

    def test_coin_split_matches_eta(self, toy_p1, ring4):
        n = 10000
        consts = ed.lipschitz_constants(toy_p1, ring4)
        _, trace = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=7, max_iter=n, trace_every=n))
        sigma = math.sqrt(n * consts.eta * (1.0 - consts.eta))
        assert abs(trace.n_comm[-1] - consts.eta * n) <= 3.0 * sigma

    def test_comm_comp_ratio_tracks_spectra(self, toy_p1, ring4):
        n = 10000
        data = ed.data_constants(toy_p1)
        target = ring4.lambda_max / data.sigma_max_A
        _, trace = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=7, max_iter=n, trace_every=n))
        ratio = trace.n_comm[-1] / trace.n_comp[-1]
        assert abs(ratio - target) <= 0.25 * target

    @pytest.mark.parametrize("coin", [0, 1, 2])
    def test_ring64_certifies_within_800_iterations(self, coin):
        # the benchmark's ring64 workload and its eps: with the tight block
        # constants coins 0-2 certify at 401/358/346 iterations, with the
        # sqrt(m)-scaled ones at 1648/1622/1561
        inst = ed.generate_instance(7, 64, 20, 50, 1.0, 3.0)
        W = ed.build_laplacian(ed.topology_ring(64))
        _, trace = ed.run_acrcd(inst, W, ed.ACRCDConfig(rng_seed=coin, max_iter=800, trace_every=1))
        assert min(trace.gap) <= 15.0
