"""Block-coordinate dual solver: coefficients, coin, branches, convergence."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import entrodual as ed
import entrodual.acrcd as acrcd_mod
from entrodual.acrcd import acrcd_init, acrcd_step, step_coefficients
from entrodual.cli import main

from reference_values import DUAL_OPT_P1_BOX, ITERATE_SHA256

REPO = Path(__file__).resolve().parent.parent


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


class RecordingOracle(ConstantOracle):
    """A ConstantOracle that keeps a copy of every point a step asks it at,
    which is the step's midpoint."""

    def __init__(self, g_z, g_s):
        super().__init__(g_z, g_s)
        self.points = []

    def partial(self, point, take_z):
        self.points.append((point.z.copy(), point.s.copy()))
        return super().partial(point, take_z)


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
    def test_max_iter_positive(self, toy_p1, ring4):
        # observe checks the loop settings of every solver
        with pytest.raises(ValueError, match="max_iter must be positive"):
            ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=0, max_iter=0))

    def test_seed_required(self):
        # a None seed would draw the coin stream from OS entropy
        with pytest.raises(ValueError, match="acrcd needs rng_seed"):
            ed.ACRCDConfig(rng_seed=None)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.5])
    def test_eta_open_interval(self, eta):
        with pytest.raises(ValueError, match="strictly in"):
            ed.ACRCDConfig(rng_seed=0, L_z=2.0, L_s=8.0, eta=eta)

    def test_eta_identity_enforced(self):
        with pytest.raises(ValueError, match="disagrees with sqrt"):
            ed.ACRCDConfig(rng_seed=0, L_z=2.0, L_s=8.0, eta=0.5)

    def test_consistent_triple_accepted(self):
        cfg = tiny_cfg()
        assert cfg.eta == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("given", [("L_z",), ("L_s",), ("eta",), ("L_z", "L_s"),
                                       ("L_z", "eta"), ("L_s", "eta")])
    def test_constants_set_together_or_not_at_all(self, given):
        # a strict subset is refused before any instance is seen
        triple = dict(L_z=2.0, L_s=8.0, eta=1.0 / 3.0)
        with pytest.raises(ValueError, match="set together or not at all"):
            ed.ACRCDConfig(rng_seed=0, **{name: triple[name] for name in given})


class TestInit:
    def test_copies_inputs(self):
        z0 = np.array([1.0, 2.0])
        s0 = np.array([0.5])
        state = acrcd_init(z0, s0, ZERO)
        z0[0] = 99.0
        s0[0] = 99.0
        assert state.zP_bar.x[0] == 1.0
        assert state.sQ_bar.x[0] == 0.5

    def test_four_independent_buffers(self):
        state = acrcd_init([1.0, 2.0], [0.5], ZERO)
        buffers = (state.zP_bar.buf, state.zP_under.buf, state.sQ_bar.buf,
                   state.sQ_under.buf)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers)
                       for b in buffers[i + 1:])
        state.zP_bar.x[0] = -7.0
        state.sQ_bar.x[0] = -7.0
        state.zP_bar.image[0] = -7.0
        state.sQ_bar.image[0] = -7.0
        assert state.zP_under.x[0] == 1.0
        assert state.sQ_under.x[0] == 0.5
        assert state.zP_under.image[0] == 0.0
        assert state.sQ_under.image[0] == 0.0

    def test_counters_start_at_zero(self):
        state = acrcd_init([0.0], [0.0], ZERO)
        assert (state.n_comm, state.n_comp) == (0, 0)


class TestStepBranches:
    def test_unresolved_config_raises(self):
        state = acrcd_init([0.0], [0.0], ZERO)
        cfg = ed.ACRCDConfig(rng_seed=0)
        with pytest.raises(ValueError, match="resolved"):
            acrcd_step(state, cfg, ScriptedRNG([0.1]), ZERO)

    def test_z_branch_hand_computed(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = RecordingOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.2]), oracle)
        # k=0: alpha=1/4, tau=1 so the midpoint is the momentum point
        (z_mid, _), = oracle.points
        np.testing.assert_array_equal(z_mid, [1.0, 2.0])
        np.testing.assert_allclose(new.zP_bar.x, [0.5, 1.5])
        np.testing.assert_allclose(new.zP_under.x, [0.75, 1.75])
        assert (new.n_comm, new.n_comp) == (1, 0)

    def test_z_branch_leaves_s_untouched(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.2]), oracle)
        assert new.sQ_bar.x is state.sQ_bar.x
        assert new.sQ_under.x is state.sQ_under.x
        assert new.sQ_bar.image is state.sQ_bar.image
        assert new.sQ_under.image is state.sQ_under.image

    def test_s_branch_hand_computed_with_box(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.9]), oracle)
        # raw steps [-0.75, -1.75] and [-0.125, -1.125] clamp to the box
        np.testing.assert_allclose(new.sQ_bar.x, [-0.75, -1.0])
        np.testing.assert_allclose(new.sQ_under.x, [-0.125, -1.0])
        assert (new.n_comm, new.n_comp) == (0, 1)

    def test_s_branch_leaves_z_untouched(self):
        state = acrcd_init([1.0, 2.0], [0.5, -0.5], ZERO)
        oracle = ConstantOracle([1.0, 1.0], [10.0, 10.0])
        new = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.9]), oracle)
        assert new.zP_bar.x is state.zP_bar.x
        assert new.zP_under.x is state.zP_under.x
        assert new.zP_bar.image is state.zP_bar.image
        assert new.zP_under.image is state.zP_under.image

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
        oracle = RecordingOracle([1.0, 1.0], [1.0, 1.0])
        state = acrcd_step(state, tiny_cfg(), ScriptedRNG([0.0]), oracle)
        acrcd_step(state, tiny_cfg(), ScriptedRNG([0.0]), oracle)
        _, tau = step_coefficients(1)
        expect = tau * state.zP_under.x + (1.0 - tau) * state.zP_bar.x
        np.testing.assert_allclose(oracle.points[1][0], expect)


class TestRunACRCD:
    def test_rejects_p2(self, toy_p2, ring4):
        with pytest.raises(ValueError, match="p = 1"):
            ed.run_acrcd(toy_p2, ring4, ed.ACRCDConfig(rng_seed=0, max_iter=10))

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

    def test_one_certificate_per_change_of_best(self, toy_p1, ring4, monkeypatch):
        # a row whose best point is the one last certified reuses its report
        certified = []
        real = acrcd_mod.duality_gap
        monkeypatch.setattr(acrcd_mod, "duality_gap",
                            lambda pair, *a: certified.append(pair) or real(pair, *a))
        best, trace = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=3, max_iter=430))
        # best_value strictly decreases whenever the best point changes
        changes = sum(b != a for a, b in zip(trace.dual_obj, trace.dual_obj[1:]))
        assert 0 < changes < 430 // 2
        assert len(certified) == 1 + changes
        assert len({id(pair) for pair in certified}) == len(certified)
        assert certified[-1] is best
        assert trace.gap[-1] == real(best, toy_p1, ring4).gap
        # each step bills one counter, so every row's iter is their sum
        assert list(trace.iter) == [c + s for c, s in zip(trace.n_comm, trace.n_comp)]

    def test_counter_split_sums_to_iteration(self, toy_p1, ring4):
        _, trace = ed.run_acrcd(toy_p1, ring4, ed.ACRCDConfig(rng_seed=5, max_iter=300, trace_every=50))
        for k, comm, comp in zip(trace.iter, trace.n_comm, trace.n_comp):
            assert comm + comp == k

    @pytest.mark.parametrize("shape,coin,iters", [((4, 3, 5), 2, 2000), ((64, 20, 50), 3, 200)],
                             ids=["toy", "ring64"])
    def test_best_state_in_box(self, shape, coin, iters):
        # the best value, read from the gradient's kernel pass at the best
        # midpoint, is dual_objective's own pass at that point, bit for bit
        m, n, d = shape
        inst = ed.generate_instance(7, m, n, d, 1.0, 3.0)
        W = ed.build_laplacian(ed.topology_ring(m))
        best, trace = ed.run_acrcd(inst, W, ed.ACRCDConfig(rng_seed=coin, max_iter=iters,
                                                           trace_every=iters))
        assert float(np.abs(best.s).max()) <= 1.0 + 1e-12
        assert np.isfinite(best.z).all() and np.isfinite(best.s).all()
        assert trace.dual_obj[-1] < trace.dual_obj[0]
        assert trace.dual_obj[-1] == ed.dual_objective(best, inst, W, 0.0)

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

    @pytest.mark.parametrize("coin,first", [(0, (400, 91)), (1, (356, 92)), (2, (345, 90))])
    def test_ring64_first_certified(self, coin, first):
        # the benchmark's ring64 workload and its eps: the first row whose gap
        # reaches 15, as (iteration, n_comm)
        inst = ed.generate_instance(7, 64, 20, 50, 1.0, 3.0)
        W = ed.build_laplacian(ed.topology_ring(64))
        _, trace = ed.run_acrcd(inst, W, ed.ACRCDConfig(rng_seed=coin, max_iter=first[0],
                                                        trace_every=1))
        hits = [(k, c) for k, g, c in zip(trace.iter, trace.gap, trace.n_comm) if g <= 15.0]
        assert hits[:1] == [first]


@pytest.mark.parametrize("config,flags", [
    pytest.param(config, flags, id="-".join((Path(config).stem, *(f.lstrip("-") for f in flags))))
    for config, flags in sorted(ITERATE_SHA256)])
def test_iterates_are_pinned(config, flags, tmp_path, monkeypatch):
    """The running pair after the last step of ``entrodual solve``, byte for byte."""
    states = []
    monkeypatch.setattr(acrcd_mod, "acrcd_step",
                        lambda *a: states.append(acrcd_step(*a)) or states[-1])
    assert main(["solve", "--config", str(REPO / config), *flags, "--out", str(tmp_path)]) == 0
    last = states[-1]
    assert last.n_comm + last.n_comp == len(states)
    digest = hashlib.sha256(last.zP_bar.buf.tobytes() + last.sQ_bar.buf.tobytes()).hexdigest()
    assert digest == ITERATE_SHA256[config, flags]
