"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s``).  The weak-duality sweep runs last so it can audit every
trace the other criteria produced.
"""

import math
import time

import numpy as np
import pytest

import entrodual as ed
from entrodual.cli import main

from oracles import ProxParams, conj_g, dual_kernel_floor, prox_lq_scalar, softmax_map
from reference_values import (
    DUAL_OPT_P1_BOX,
    TOY_D,
    TOY_M,
    TOY_N,
    TOY_P1_THETA,
    TOY_SEED,
)

RECORDED = []


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _register(label, trace):
    RECORDED.append((label, trace))
    return trace


@pytest.fixture(scope="module")
def long_p1(toy_p1, ring4):
    """Densely traced 30k-iteration reference run on the p=1 toy."""
    t0 = time.perf_counter()
    state, trace = ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=30000, trace_every=1))
    elapsed = time.perf_counter() - t0
    _register("stm-p1-30k", trace)
    return state, trace, elapsed


@pytest.fixture(scope="module")
def acrcd_runs(toy_p1, ring4):
    """Ten seeded coordinate-descent runs of 10000 iterations each."""
    runs = []
    for seed in range(10):
        best, trace = ed.run_acrcd(
            toy_p1, ring4, ed.ACRCDConfig(rng_seed=seed, max_iter=10000, trace_every=100)
        )
        _register(f"acrcd-seed{seed}", trace)
        runs.append((best, trace))
    return runs


@pytest.fixture(scope="module")
def solved_batch(ring4):
    """Five solved p=1 instances with interior consensual solutions."""
    batch = []
    for seed in range(11, 16):
        inst = ed.generate_instance(seed, 4, 3, 5, 1.0, 3.0)
        state, trace = ed.run_stm(inst, ring4, ed.STMConfig(max_iter=5000, trace_every=500))
        _register(f"stm-seed{seed}", trace)
        batch.append((inst, state, trace))
    return batch


@pytest.fixture(scope="module")
def p2_run(toy_p2, ring4):
    _, trace = ed.run_stm(toy_p2, ring4, ed.STMConfig(max_iter=500, trace_every=10))
    return _register("stm-p2-500", trace)


def simplex_grid(d, step):
    n = round(1.0 / step)
    if d == 1:
        return np.array([[1.0]])
    if d == 2:
        i = np.arange(n + 1)
        return np.column_stack([i * step, 1.0 - i * step])
    pts = []
    for i in range(n + 1):
        j = np.arange(n + 1 - i)
        block = np.empty((j.size, 3))
        block[:, 0] = i * step
        block[:, 1] = j * step
        block[:, 2] = 1.0 - i * step - j * step
        pts.append(block)
    return np.vstack(pts)


def grid_entropy(X):
    P = np.where(X > 0.0, X, 1.0)
    return np.sum(X * np.log(P), axis=1)


def test_criterion_01_conjugate_against_simplex_grid():
    step = 1e-3
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst_val = 0.0
    worst_loc = 0.0
    for d in (1, 2, 3):
        grid = simplex_grid(d, step)
        ent = grid_entropy(grid)
        draws = rng.uniform(-1.0, 1.0, size=(200, d))
        thetas = [0.5] * 100 + [3.0] * 100
        for t, theta in zip(draws, thetas):
            scores = grid @ t - theta * ent
            k = int(np.argmax(scores))
            worst_val = max(worst_val, abs(conj_g(t, theta) - float(scores[k])))
            x_star = softmax_map(t, theta)
            worst_loc = max(worst_loc, float(np.abs(x_star - grid[k]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_val <= 2e-3 and worst_loc <= 2.0 * step and elapsed < 60.0
    _report(1, ok,
            f"conjugate grid check: max value err {worst_val:.2e} (tol 2e-03), "
            f"max argmax offset {worst_loc / step:.2f} grid steps (tol 2), "
            f"{elapsed:.1f}s")


def test_criterion_02_gradient_matches_central_differences(toy_p1, toy_p2, ring4):
    h = 1e-6
    rng = np.random.default_rng(99)
    worst = 0.0
    for inst, s_draw in ((toy_p2, lambda n: rng.standard_normal(n)),
                         (toy_p1, lambda n: rng.uniform(-0.9, 0.9, n))):
        def value(vec):
            state = ed.DualState(vec[: inst.m * inst.d], vec[inst.m * inst.d:])
            return ed.dual_objective(state, inst, ring4, 0.0)

        for _ in range(25):
            z = rng.standard_normal(inst.m * inst.d)
            s = s_draw(inst.m * inst.n)
            vec = np.concatenate([z, s])
            g_z, g_s = ed.dual_gradient(ed.DualState(z, s), inst, ring4)
            g = np.concatenate([g_z, g_s])
            fd = np.empty_like(vec)
            for i in range(vec.size):
                lo, hi = vec.copy(), vec.copy()
                lo[i] -= h
                hi[i] += h
                fd[i] = (value(hi) - value(lo)) / (2.0 * h)
            rel = float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
            worst = max(worst, rel)
    _report(2, worst <= 1e-5,
            f"gradient vs central differences on 50 points: worst rel err "
            f"{worst:.2e} (tol 1e-05)")


def test_criterion_03_smoothness_constants_bound_gradients(toy_p1, toy_p2, ring4):
    slack = 1e-12
    rng = np.random.default_rng(7)
    worst = worst_z = worst_s = 0.0
    for inst in (toy_p2, toy_p1):
        consts = ed.lipschitz_constants(inst, ring4)
        nz, ns = inst.m * inst.d, inst.m * inst.n
        for _ in range(50):
            za, zb = rng.normal(0, 2, nz), rng.normal(0, 2, nz)
            sa, sb = rng.normal(0, 2, ns), rng.normal(0, 2, ns)
            ga = np.concatenate(ed.dual_gradient(ed.DualState(za, sa), inst, ring4))
            gb = np.concatenate(ed.dual_gradient(ed.DualState(zb, sb), inst, ring4))
            dq = math.hypot(np.linalg.norm(za - zb), np.linalg.norm(sa - sb))
            assert np.linalg.norm(ga - gb) <= consts.L_H * dq + slack
            worst = max(worst, float(np.linalg.norm(ga - gb) / (consts.L_H * dq)))

            gza, _ = ed.dual_gradient(ed.DualState(za, sa), inst, ring4)
            gzb, _ = ed.dual_gradient(ed.DualState(zb, sa), inst, ring4)
            assert np.linalg.norm(gza - gzb) <= consts.L_z * np.linalg.norm(za - zb) + slack
            worst_z = max(worst_z, float(np.linalg.norm(gza - gzb)
                                         / (consts.L_z * np.linalg.norm(za - zb))))

            _, gsa = ed.dual_gradient(ed.DualState(za, sa), inst, ring4)
            _, gsb = ed.dual_gradient(ed.DualState(za, sb), inst, ring4)
            assert np.linalg.norm(gsa - gsb) <= consts.L_s * np.linalg.norm(sa - sb) + slack
            worst_s = max(worst_s, float(np.linalg.norm(gsa - gsb)
                                         / (consts.L_s * np.linalg.norm(sa - sb))))
    _report(3, True,
            f"100 random pairs within L_H/L_z/L_s bounds (worst joint ratio "
            f"{worst:.3f} of L_H, z block {worst_z:.3f} of L_z, s block "
            f"{worst_s:.3f} of L_s)")


def grid_refine(t, params, stages=6, points=2001):
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


def test_criterion_04_prox_matches_nested_grid():
    rng = np.random.default_rng(5)
    worst_obj = 0.0
    worst_q2 = 0.0
    for q in (1.0, 1.5, 2.0, 3.0):
        for _ in range(25):
            t = float(rng.uniform(-3, 3))
            params = ProxParams(
                gamma=float(10 ** rng.uniform(-1, 0.5)),
                nu=float(10 ** rng.uniform(-2, 0)),
                q_exponent=q,
            )
            s = prox_lq_scalar(t, params)

            def objective(v):
                return (t - v) ** 2 / (2.0 * params.gamma) + params.nu * abs(v) ** q

            diff = objective(s) - objective(grid_refine(t, params))
            worst_obj = max(worst_obj, diff)
            assert diff <= 1e-8
            if q == 2.0:
                closed = t / (1.0 + 2.0 * params.gamma * params.nu)
                worst_q2 = max(worst_q2, abs(s - closed))
                assert abs(s - closed) <= 1e-12
    _report(4, True,
            f"prox vs nested grid on 100 cases: worst objective excess "
            f"{worst_obj:.2e} (tol 1e-08), q=2 closed form off by "
            f"{worst_q2:.2e} (tol 1e-12)")


def test_criterion_05_rate_signature_and_iteration_bound(toy_p1, ring4, long_p1):
    state, trace, build_s = long_p1
    t0 = time.perf_counter()
    report = ed.fit_rate(trace, window=(10, 500), f_star=DUAL_OPT_P1_BOX)
    consts = ed.lipschitz_constants(toy_p1, ring4)
    q_sq = float(state.z @ state.z + state.s @ state.s)
    errs = np.asarray(trace.dual_obj) - DUAL_OPT_P1_BOX
    bound_ok = True
    checked = []
    for eps in (1e-2, 1e-3, 1e-4):
        hit = np.nonzero(errs <= eps)[0]
        if hit.size == 0:
            bound_ok = False
            continue
        k_emp = trace.iter[int(hit[0])]
        k_bound = 8.0 * math.sqrt(consts.L_H * q_sq / (toy_p1.m * eps))
        bound_ok = bound_ok and k_emp <= k_bound
        checked.append(eps)
    elapsed = build_s + (time.perf_counter() - t0)
    ok = (-2.6 <= report.slope <= -1.6 and report.r_squared >= 0.9
          and bound_ok and len(checked) == 3 and elapsed < 120.0)
    _report(5, ok,
            f"dual error slope {report.slope:.3f} in [-2.6, -1.6], "
            f"r^2 {report.r_squared:.3f} >= 0.9, iteration bound held at "
            f"{len(checked)} accuracy levels, {elapsed:.1f}s")


def test_criterion_06_solvers_agree_on_p1_toy(toy_p1, ring4, long_p1, acrcd_runs):
    _, trace, _ = long_p1
    stm_value = trace.dual_obj[-1]
    acrcd_value = min(run_trace.dual_obj[-1] for _, run_trace in acrcd_runs)
    # box mode runs penalty-free, so nu = 0 and the tolerance is flat
    _, R_s_sq = ed.block_radii(toy_p1, ring4, np.full(toy_p1.d, 1.0 / toy_p1.d),
                               toy_p1.q_exponent)
    tol = 1e-4 + 0.0 * R_s_sq
    diff = abs(stm_value - acrcd_value)
    _report(6, diff <= tol,
            f"best-of-10 coordinate descent vs accelerated reference differ by "
            f"{diff:.2e} (tol {tol:.1e})")


def test_criterion_07_sampling_accounting(toy_p1, ring4, acrcd_runs):
    n = 10000
    consts = ed.lipschitz_constants(toy_p1, ring4)
    data = ed.data_constants(toy_p1)
    _, trace = acrcd_runs[0]
    n_comm, n_comp = trace.n_comm[-1], trace.n_comp[-1]
    sigma = math.sqrt(n * consts.eta * (1.0 - consts.eta))
    dev = abs(n_comm - consts.eta * n)
    target = ring4.lambda_max / data.sigma_max_A
    ratio = n_comm / n_comp
    ok = dev <= 3.0 * sigma and abs(ratio - target) <= 0.25 * target
    _report(7, ok,
            f"coin split off expectation by {dev:.0f} (3 sigma = {3 * sigma:.0f}); "
            f"comm/comp ratio {ratio:.3f} vs spectral target {target:.3f} "
            f"(within 25%)")


def test_criterion_08_certificates_on_solved_batch(ring4, solved_batch):
    violations = []
    advisories = []
    for inst, state, _ in solved_batch:
        xbar = ed.consensus_candidate(ed.primal_from_dual(state, inst, ring4))
        tag = f"seed instance ({inst.m},{inst.n},{inst.d})"
        if xbar.min() <= 1e-3:
            violations.append(f"{tag}: solution not interior (min {xbar.min():.2e})")
        s_inf = float(np.abs(state.s).max())
        if s_inf > 1.0 + 1e-6:
            violations.append(f"{tag}: ||s||_inf = {s_inf:.8f} leaves the unit box")
        q_sq = float(state.z @ state.z + state.s @ state.s)
        R_sq = ed.dual_radius(inst, ring4, xbar)
        exact, claimed = dual_kernel_floor(inst, ring4)
        if exact < claimed * (1.0 - 1e-9):
            advisories.append(
                f"{tag}: kernel floor caveat ({exact:.3f} < claimed {claimed:.3f}), "
                f"radius bound advisory only (||q||^2 {q_sq:.1f} vs R^2 {R_sq:.1f})"
            )
        elif q_sq > R_sq:
            violations.append(f"{tag}: ||q||^2 {q_sq:.3f} exceeds radius bound {R_sq:.3f}")
    for line in advisories:
        print("  advisory:", line)
    _report(8, not violations,
            f"5 solved instances: box and radius certificates hold "
            f"({len(advisories)} kernel-caveat advisories); violations: "
            f"{violations or 'none'}")


def test_criterion_10_cli_runs_are_reproducible(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    blobs = []
    for name in ("first", "second"):
        out = base / name
        code = main([
            "solve", "--seed", str(TOY_SEED), "--m", str(TOY_M), "--n", str(TOY_N),
            "--d", str(TOY_D), "--p", "1", "--theta", str(TOY_P1_THETA),
            "--max-iter", "400", "--trace-every", "20", "--out", str(out),
        ])
        assert code == 0
        blobs.append((out / "trace.csv").read_bytes())
    _register("cli-solve", ed.load_trace(base / "first" / "trace.csv"))
    _report(10, blobs[0] == blobs[1],
            f"two CLI solve runs produced identical {len(blobs[0])}-byte traces")


def test_criterion_09_weak_duality_on_every_recorded_iterate(
        long_p1, acrcd_runs, solved_batch, p2_run):
    rows = 0
    finite = 0
    worst = math.inf
    for _, trace in RECORDED:
        for g in trace.gap:
            rows += 1
            if math.isfinite(g):
                finite += 1
                worst = min(worst, g)
                assert g >= -1e-8
    ok = rows > 1000 and finite > 0
    _report(9, ok,
            f"weak duality on {rows} recorded iterates across {len(RECORDED)} "
            f"traces ({finite} finite certificates, smallest gap {worst:.2e} "
            f">= -1e-08)")
