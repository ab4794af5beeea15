import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import entrodual as ed
import entrodual.stm as stm_mod
from entrodual.cli import main
from entrodual.errors import NumericFailure
from entrodual.stm import STALL_WINDOW, resolve_config, stm_init, stm_step

from oracles import fista_reference
from reference_values import (
    DUAL_OPT_P1_BOX,
    DUAL_OPT_P1_TOL,
    PENALIZED_DUAL_OPT_P2,
    STM_ITERATE_SHA256,
)

REPO = Path(__file__).resolve().parent.parent


def resolved_quadratic_cfg(L):
    return ed.STMConfig(L=L)


def box_prox(s, gamma):
    """The prox of the box mode's R: projection onto ||s||_inf <= 1."""
    ed.project_box(s, out=s)


def no_link(z, s, out):
    """The link of a quadratic that has none: it carries a zero-width T."""


def linked(z, s):
    """(z, s) as a DualState carrying a zero-width link."""
    return ed.DualState(z, s, np.empty(0))


def run_quadratic(L, steps, center_z, center_s, scale=1.0):
    """Drive the stepper on H(u) = scale/2 ||u - center||^2."""

    def grad(ds):
        return scale * (ds.z - center_z), scale * (ds.s - center_s)

    state = stm_init(linked(np.zeros_like(center_z), np.zeros_like(center_s)))
    cfg = resolved_quadratic_cfg(L)
    values = []
    for _ in range(steps):
        state = stm_step(state, cfg, grad, box_prox, no_link)
        err_z = state.q.z - center_z
        err_s = state.q.s - center_s
        values.append(0.5 * scale * float(err_z @ err_z + err_s @ err_s))
    return state, values


class TestStepCoefficients:
    def test_recurrence_invariants(self):
        # L alpha_{k+1}^2 = A_{k+1}, with alpha_{k+1} = A_{k+1} - A_k and A
        # growing every step
        L = 3.0

        def grad(ds):
            return np.zeros(2), np.zeros(1)

        state = stm_init(linked(np.zeros(2), np.zeros(1)))
        cfg = resolved_quadratic_cfg(L)
        prev_A = 0.0
        for _ in range(200):
            new = stm_step(state, cfg, grad, box_prox, no_link)
            alpha = new.A_k - state.A_k
            assert L * alpha**2 == pytest.approx(new.A_k, rel=1e-10)
            assert new.A_k > prev_A
            prev_A = new.A_k
            state = new

    def test_first_step_is_inverse_l(self):
        L = 7.0

        def grad(ds):
            return np.zeros(1), np.zeros(1)

        state = stm_step(
            stm_init(linked(np.zeros(1), np.zeros(1))),
            resolved_quadratic_cfg(L),
            grad,
            box_prox,
            no_link,
        )
        # A_0 = 0, so A_1 is alpha_1
        assert state.A_k == pytest.approx(1.0 / L, rel=1e-14)

    def test_weights_grow_quadratically(self):
        # A_k ~ k^2 / (4L) drives the O(1/k^2) rate
        L = 2.0

        def grad(ds):
            return np.zeros(1), np.zeros(1)

        state = stm_init(linked(np.zeros(1), np.zeros(1)))
        cfg = resolved_quadratic_cfg(L)
        for _ in range(400):
            state = stm_step(state, cfg, grad, box_prox, no_link)
        assert state.A_k >= 400**2 / (4.0 * L)

    def test_unresolved_config_rejected(self):
        with pytest.raises(ValueError, match="resolved"):
            stm_step(
                stm_init(linked(np.zeros(1), np.zeros(1))),
                ed.STMConfig(),
                lambda ds: ds,
                box_prox,
                no_link,
            )


class TestFlatIterates:
    def test_views_share_the_buffers(self):
        q0 = ed.DualState(np.array([1.0, 2.0]), np.array([0.5]), np.array([[3.0, 4.0]]))
        state = stm_init(q0)
        q = state.q
        for part in (q.z, q.s, q.link):
            assert np.shares_memory(part, state.q_buf)
        np.testing.assert_array_equal(state.q_buf, [1.0, 2.0, 0.5, 3.0, 4.0])
        assert state.u_buf is not state.q_buf

    def test_step_leaves_its_input_untouched(self):
        def grad(ds):
            return ds.z - 1.0, ds.s + 2.0

        state = stm_step(stm_init(linked(np.zeros(3), np.zeros(2))),
                         resolved_quadratic_cfg(2.0), grad, box_prox, no_link)
        before = (state.q_buf.copy(), state.u_buf.copy())
        new = stm_step(state, resolved_quadratic_cfg(2.0), grad, box_prox, no_link)
        np.testing.assert_array_equal(state.q_buf, before[0])
        np.testing.assert_array_equal(state.u_buf, before[1])
        assert new.q_buf is not state.q_buf and new.u_buf is not state.u_buf



class TestQuadraticConvergence:
    def test_exact_step_lands_on_minimizer(self):
        # alpha_1 = 1/L makes the first update exact when L matches the curvature
        rng = np.random.default_rng(0)
        center_z = rng.standard_normal(6)
        center_s = rng.uniform(-0.6, 0.6, 4)
        _, values = run_quadratic(5.0, 5, center_z, center_s, scale=5.0)
        assert values[0] <= 1e-25

    def test_accelerated_envelope_with_conservative_l(self):
        rng = np.random.default_rng(1)
        center_z = rng.standard_normal(6)
        center_s = rng.uniform(-0.6, 0.6, 4)
        L = 5.0
        state, values = run_quadratic(L, 300, center_z, center_s, scale=2.0)
        R_sq = float(center_z @ center_z + center_s @ center_s)
        for k, val in enumerate(values, start=1):
            assert val <= 2.0 * L * R_sq / (k * k) + 1e-12
        assert values[-1] <= 1e-10
        assert np.allclose(state.q.z, center_z, atol=1e-5)

    def test_box_constraint_respected_on_path(self):
        # minimizer s-component outside the box: iterates stay clipped
        center_z = np.zeros(2)
        center_s = np.array([2.0, -3.0])

        def grad(ds):
            return ds.z - center_z, ds.s - center_s

        state = stm_init(linked(np.zeros(2), np.zeros(2)))
        cfg = resolved_quadratic_cfg(1.0)
        for _ in range(200):
            state = stm_step(state, cfg, grad, box_prox, no_link)
            assert np.abs(state.u.s).max() <= 1.0 + 1e-12
        assert np.allclose(state.q.s, [1.0, -1.0], atol=1e-6)


class TestResolveConfig:
    def test_fills_defaults_p2(self, toy_p2, ring4):
        cfg = resolve_config(ed.STMConfig(), toy_p2, ring4)
        c = ed.lipschitz_constants(toy_p2, ring4)
        assert cfg.L == pytest.approx(c.L_H)

    def test_fills_defaults_p1(self, toy_p1, ring4):
        cfg = resolve_config(ed.STMConfig(), toy_p1, ring4)
        assert cfg.L == pytest.approx(ed.lipschitz_constants(toy_p1, ring4).L_H)

    def test_explicit_values_kept(self, toy_p2, ring4):
        cfg = resolve_config(ed.STMConfig(L=10.0), toy_p2, ring4)
        assert cfg.L == 10.0

    @pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
    def test_set_L_must_be_positive(self, L):
        # STMConfig owns the rule; the harness never sets L
        with pytest.raises(ValueError, match="L must be positive"):
            ed.STMConfig(L=L)

    def test_config_validation(self, toy_p1, toy_p2, ring4):
        # the loop settings are observe's to check, target_eps is
        # default_regularizer_weight's; both run at the start of run_stm
        with pytest.raises(ValueError, match="max_iter must be positive"):
            ed.run_stm(toy_p2, ring4, ed.STMConfig(max_iter=0))
        for eps in (math.nan, math.inf, -1.0, 0.0):
            for inst in (toy_p1, toy_p2):
                with pytest.raises(ValueError, match="target accuracy must be positive"):
                    ed.run_stm(inst, ring4, ed.STMConfig(max_iter=5, target_eps=eps))


class TestRunSTM:
    def test_trace_bookkeeping(self, toy_p2, ring4):
        _, trace = ed.run_stm(toy_p2, ring4, ed.STMConfig(max_iter=40, trace_every=1))
        assert trace.iter == list(range(41))
        # one gossip exchange and one local pass per iteration
        assert trace.n_comm == trace.iter
        assert trace.n_comp == trace.iter
        assert all(w == 0.0 for w in trace.wall_ms)
        assert all(math.isfinite(v) for v in trace.dual_obj)

    def test_trace_every_subsamples(self, toy_p2, ring4):
        _, trace = ed.run_stm(toy_p2, ring4, ed.STMConfig(max_iter=100, trace_every=25))
        assert trace.iter == [0, 25, 50, 75, 100]

    def test_timing_opt_in(self, toy_p2, ring4):
        _, trace = ed.run_stm(
            toy_p2, ring4, ed.STMConfig(max_iter=30, trace_every=10, timing=True)
        )
        assert max(trace.wall_ms) > 0.0

    def test_objective_tail_near_reference_p2(self, toy_p2, ring4):
        _, trace = ed.run_stm(toy_p2, ring4, ed.STMConfig(max_iter=40000, trace_every=4000))
        final = trace.dual_obj[-1]
        assert final >= PENALIZED_DUAL_OPT_P2 - 1e-9
        assert final <= PENALIZED_DUAL_OPT_P2 + 5e-3

    def test_objective_converges_p1_box(self, toy_p1, ring4):
        state, trace = ed.run_stm(
            toy_p1, ring4, ed.STMConfig(max_iter=30000, trace_every=3000)
        )
        assert trace.dual_obj[-1] == pytest.approx(DUAL_OPT_P1_BOX, abs=1e-6)
        assert np.abs(state.s).max() <= 1.0 + 1e-12

    def test_matches_independent_dense_solver(self, toy_p1, ring4):
        _, _, best = fista_reference(toy_p1, ring4, "box", 20000)
        assert best == pytest.approx(DUAL_OPT_P1_BOX, abs=DUAL_OPT_P1_TOL * 10)

    def test_gap_column_finite_and_shrinking_p1(self, stm_p1_trace):
        _, trace = stm_p1_trace
        gaps = np.array(trace.gap)
        assert np.isfinite(gaps).all()
        assert gaps[-1] < 1e-2 * gaps[1]

    def test_penalized_p2_gap_reported_infinite(self, toy_p2, ring4):
        # with per-node noise the penalized optimum sits outside the dual
        # ball, so once the iterate drifts out the certificate turns
        # infinite and stays there; reported, never raised
        _, trace = ed.run_stm(toy_p2, ring4, ed.STMConfig(max_iter=200, trace_every=50))
        assert math.isfinite(trace.gap[0])
        assert math.isinf(trace.gap[-1])

    def test_stall_cutoff_fires(self, toy_p1, ring4, monkeypatch):
        # freeze the value the stall check reads, F(y), below f0 (which
        # dual_objective still gives): the first step improves on f0 and no
        # later one does, so the cutoff fires STALL_WINDOW iterations later
        # and still records a closing row between trace marks
        monkeypatch.setattr(stm_mod, "objective_from_lse", lambda *a, **k: -1.0)
        _, trace = ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=50000, trace_every=1000))
        assert trace.iter == [0, 1 + STALL_WINDOW]
        assert trace.iter[-1] == trace.n_comm[-1]

    def test_divergent_step_raises(self, toy_p2, ring4):
        with pytest.raises(NumericFailure, match="diverged|non-finite"):
            ed.run_stm(toy_p2, ring4, ed.STMConfig(L=1e-7, max_iter=3000))

    def test_deterministic_repeat(self, toy_p2, ring4, tmp_path):
        cfg = ed.STMConfig(max_iter=300, trace_every=10)
        _, ta = ed.run_stm(toy_p2, ring4, cfg)
        _, tb = ed.run_stm(toy_p2, ring4, cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        ed.save_trace(ta, pa)
        ed.save_trace(tb, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_default_config_used_when_none(self, toy_p1, ring4):
        state, trace = ed.run_stm(toy_p1, ring4)
        assert len(trace) >= 2
        assert np.abs(state.s).max() <= 1.0 + 1e-12


class TestObjectiveFromTheKernelPass:
    """The values run_stm reads come from kernel passes it makes anyway, and
    equal ``dual_objective`` at the same point bit for bit."""

    @pytest.fixture(params=[1.0, 2.0], ids=["p1", "p2"])
    def problem(self, request, toy_p1, toy_p2, ring4):
        inst = toy_p1 if request.param == 1.0 else toy_p2
        return inst, ring4, resolve_config(ed.STMConfig(max_iter=60, trace_every=1),
                                           inst, ring4)

    def test_stall_value_is_the_objective_at_y(self, problem, monkeypatch):
        inst, W, cfg = problem
        nu = ed.default_regularizer_weight(inst, cfg.target_eps)
        points, values = [], []
        real_grad, real_value = stm_mod.dual_gradient, stm_mod.objective_from_lse

        def grad(ds, *a, **k):
            points.append(ds)
            return real_grad(ds, *a, **k)

        def value(s, *a, **k):
            out = real_value(s, *a, **k)
            if points and s is points[-1].s:
                values.append(out)
            return out

        monkeypatch.setattr(stm_mod, "dual_gradient", grad)
        monkeypatch.setattr(stm_mod, "objective_from_lse", value)
        ed.run_stm(inst, W, cfg)
        assert len(values) == len(points) == cfg.max_iter
        for y, v in zip(points, values):
            assert y.link is not None
            assert v == ed.dual_objective(y, inst, nu)

    def test_trace_rows_report_the_objective_at_q(self, problem, monkeypatch):
        inst, W, cfg = problem
        nu = ed.default_regularizer_weight(inst, cfg.target_eps)
        certified = []
        real = stm_mod.duality_gap
        monkeypatch.setattr(stm_mod, "duality_gap",
                            lambda q, *a, **k: certified.append(q) or real(q, *a, **k))
        _, trace = ed.run_stm(inst, W, cfg)
        assert len(certified) == len(trace) == cfg.max_iter + 1
        for q, row_value in zip(certified, trace.dual_obj):
            assert row_value == ed.dual_objective(q, inst, nu)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("shape", [(4, 3, 5), (64, 20, 50), (512, 2, 8)],
                         ids=["toy", "ring64", "ring512"])
def test_steps_never_write_into_points_handed_to_grad(shape, p, monkeypatch):
    """Every point grad was asked at keeps its bytes through all later steps:
    the stall value and a caller that keeps the points rely on it."""
    asked = []
    real_step = stm_mod.stm_step

    def recording(grad):
        def inner(ds):
            asked.append((ds, [a.copy() for a in (ds.z, ds.s, ds.link)]))
            return grad(ds)
        return inner

    monkeypatch.setattr(stm_mod, "stm_step", lambda state, cfg, grad, prox, link:
                        real_step(state, cfg, recording(grad), prox, link))
    inst = ed.generate_instance(7, *shape, p, 3.0)
    W = ed.build_laplacian(ed.topology_ring(shape[0]))
    ed.run_stm(inst, W, ed.STMConfig(max_iter=20, trace_every=1))
    assert len(asked) == 20
    for point, kept in asked:
        assert [a.tobytes() for a in (point.z, point.s, point.link)] == \
            [a.tobytes() for a in kept]


@pytest.mark.parametrize("config,flags", [
    pytest.param(config, flags, id="-".join((Path(config).stem, *(f.lstrip("-") for f in flags))))
    for config, flags in sorted(STM_ITERATE_SHA256)])
def test_iterates_are_pinned(config, flags, tmp_path, monkeypatch):
    """The iterates q and u after the last step of ``entrodual solve``, byte for byte."""
    states = []
    monkeypatch.setattr(stm_mod, "stm_step",
                        lambda *a: states.append(stm_step(*a)) or states[-1])
    assert main(["solve", "--config", str(REPO / config), *flags, "--out", str(tmp_path)]) == 0
    last = states[-1]
    digest = hashlib.sha256(last.q_buf.tobytes() + last.u_buf.tobytes()).hexdigest()
    assert digest == STM_ITERATE_SHA256[config, flags]
