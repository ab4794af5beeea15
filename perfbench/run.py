#!/usr/bin/env python3
"""Benchmark of entrodual: time and rounds to a certified gap.

Run from the repository root:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 40 --trace 0

Each workload (see ``workloads.json``) runs three solver cases on one
instance and topology: ``stm`` (STM, p = 1, hard box mode), ``acrcd``
(ACRCD, p = 1, coins drawn from ``--seed``) and ``stm_p2`` (STM, p = 2,
penalised mode).  Everything goes through the library's public entry points,
``harness.run_experiment`` (the body of ``entrodual solve``) and
``run_stm``/``run_acrcd``, in this one process.

``--trace 0`` measures the end-to-end metrics with the library unwrapped.
``--trace 1`` is a separate run that wraps module attributes (``spans.py``)
and reports per-layer metrics and the tracing overhead.  Extra lines on
standard output describe the machine and any failed operation; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metrics.
"""

import os

# One BLAS/OpenMP thread, set before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import numpy as np
    from entrodual import acrcd, dual, harness, network, problem, recovery, stm
except ImportError as exc:
    sys.exit(f"perfbench: cannot import entrodual from {SRC}: {exc}")
if not os.path.realpath(harness.__file__).startswith(os.path.realpath(SRC) + os.sep):
    sys.exit(f"perfbench: imported entrodual from {harness.__file__}, not from {SRC}")

from spans import RunSpans, Tracer

CASES = ("stm", "acrcd", "stm_p2")
P1_CASES = ("stm", "acrcd")
SIMPLEX_TOL = 1e-9
# An observed run that has not reached eps by its cap is retried with the cap doubled.
CAP_DOUBLINGS = 3
SETUP_MIN_REPEATS = 9
SETUP_MIN_SECONDS = 1.0
SETUP_BATCH_S = 0.05
# The calibration window after a timed call: this share of the call's wall
# time, within the bounds below.
CALIBRATION_SHARE = 0.25
CALIBRATION_MIN_S = 0.03
CALIBRATION_MAX_S = 0.1

# Module attributes wrapped by the traced run, by module.  A name missing
# from a module is skipped, so the list may name more than a version has.
TRACE_TARGETS = {
    harness: ("run_experiment", "generate_instance", "make_topology",
              "build_laplacian", "data_constants", "resolve_config",
              "lipschitz_constants", "run_stm", "run_acrcd", "primal_from_dual",
              "duality_gap", "save_trace"),
    stm: ("stm_step", "dual_gradient", "dual_objective", "prox_R",
          "duality_gap", "lipschitz_constants"),
    acrcd: ("acrcd_step", "dual_gradient", "dual_objective", "project_box",
            "duality_gap", "lipschitz_constants"),
    recovery: ("primal_from_dual",),
    dual: ("data_constants",),
}


def trace_targets():
    return [(module, attr) for module, attrs in TRACE_TARGETS.items() for attr in attrs]


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def load_workloads(path=os.path.join(HERE, "workloads.json")):
    with open(path) as fh:
        return json.load(fh)["workloads"]


def coin_seeds(seed, count):
    """ACRCD coin seeds of one run, all drawn from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def experiment(w, case, **overrides):
    """The harness config of one case of workload ``w``."""
    p2 = case == "stm_p2"
    return harness.ExperimentConfig(
        solver="acrcd" if case == "acrcd" else "stm", topology=w["topology"],
        m=w["m"], n=w["n"], d=w["d"], p=2.0 if p2 else 1.0,
        theta=w["theta_p2"] if p2 else w["theta"], seed=w["instance_seed"],
        target_eps=w["eps"], **overrides)


def time_call(fn, *args):
    """(wall seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class SpeedClock:
    """Times calls in seconds of the reference machine.

    The clock owns a calibration kernel shaped like one iteration of the
    workload: the link ``-(W Z + A^T S)`` with a dense ring Laplacian, a row
    softmax and a second product with ``W``, on fixed arrays of the
    workload's sizes.  It does not use the library, so no change to ``src/``
    moves it, but it stresses what the workload's iterations stress: the
    interpreter on ``toy``, the cache on ``ring512``.

    Every timed call is followed by a window of kernel repetitions whose
    median gives the machine's current speed; the window lasts
    CALIBRATION_SHARE of the call, within CALIBRATION_MIN_S and
    CALIBRATION_MAX_S.  The call's wall time is scaled by the workload's
    ``calibration_rep_s`` (the kernel's repetition time on the reference
    machine) over the mean of the speeds measured just before and just after
    the call.  A slow phase of the machine thus slows the call and its scale
    alike; on a machine of steady speed the scale is one constant factor.
    """

    def __init__(self, w):
        m, n, d = w["m"], w["n"], w["d"]
        rng = np.random.default_rng(0)
        self.W = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        self.A = rng.standard_normal((m, n, d))
        self.S = rng.standard_normal((m, n))
        self.Z = rng.standard_normal((m, d))
        self.reference = w["calibration_rep_s"]
        self.last = self.rep_seconds(CALIBRATION_MIN_S)

    def rep(self):
        T = -(self.W @ self.Z + np.einsum("ind,in->id", self.A, self.S))
        E = np.exp((T - T.max(axis=1, keepdims=True)) / 3.0)
        return float((self.W @ (E / E.sum(axis=1, keepdims=True))).sum())

    def rep_seconds(self, window):
        """Median kernel repetition over ``window`` seconds of repetitions."""
        reps = []
        t_end = time.perf_counter() + window
        while not reps or time.perf_counter() < t_end:
            wall, _ = time_call(self.rep)
            reps.append(wall)
        return statistics.median(reps)

    def __call__(self, fn, *args):
        before = self.last
        wall, out = time_call(fn, *args)
        window = min(CALIBRATION_MAX_S, max(CALIBRATION_MIN_S, CALIBRATION_SHARE * wall))
        self.last = self.rep_seconds(window)
        return wall * self.reference / (0.5 * (before + self.last)), out


def first_certified(trace, eps):
    """(iteration, n_comm) of the first row with a finite gap <= eps, or None."""
    for k, gap, comm in zip(trace.iter, trace.gap, trace.n_comm):
        if math.isfinite(gap) and gap <= eps:
            return k, comm
    return None


def check_certified(trace, iters, eps):
    if trace.iter[-1] != iters:
        raise CheckFailed(f"ran {trace.iter[-1]} iterations, stride-1 run certified at {iters}")
    gap = trace.gap[-1]
    if not (math.isfinite(gap) and gap <= eps):
        raise CheckFailed(f"last row certifies gap {gap!r}, target {eps!r}")


def check_p2_value(w, value):
    ref = w["stm_p2"]["reference"]
    rtol = w["stm_p2"]["rtol"]
    if ref is None or not abs(value - ref) <= rtol * abs(ref):
        raise CheckFailed(f"stm_p2 final penalised dual objective {value!r}, "
                          f"reference {ref!r} (rtol {rtol})")


def check_simplex(state, inst, W):
    X = recovery.primal_from_dual(state, inst, W).x_blocks
    if X.min() < -SIMPLEX_TOL or np.abs(X.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
        raise CheckFailed("stm_p2 recovered blocks leave the simplex")


class Ledger:
    """Counts operations; one timed solver run is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn):
        """fn's result, or None after counting and reporting a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # any error fails this operation, not the run
            self.failed += 1
            print(f"failed operation {label}: {exc!r}", file=sys.stderr)
            return None


@dataclasses.dataclass
class Case:
    """One solver case of a workload with its set-up done once, outside timing."""

    w: dict
    name: str
    coin: int | None
    inst: object
    W: object
    solver_cfg: object
    cap: int
    iters: int | None = None
    rounds: int | None = None

    @classmethod
    def prepare(cls, w, name, coin=None):
        cfg = experiment(w, name)
        inst = problem.generate_instance(cfg.seed, cfg.m, cfg.n, cfg.d, cfg.p, cfg.theta)
        W = network.build_laplacian(network.make_topology(cfg.topology, cfg.m))
        if name == "acrcd":
            c = dual.lipschitz_constants(inst, W)
            solver_cfg = acrcd.ACRCDConfig(rng_seed=coin, L_z=c.L_z, L_s=c.L_s, eta=c.eta)
            cap = w["observe_cap"]["acrcd"]
        else:
            solver_cfg = stm.resolve_config(stm.STMConfig(target_eps=cfg.target_eps), inst, W)
            cap = w["stm_p2"]["iters"] if name == "stm_p2" else w["observe_cap"]["stm"]
        return cls(w, name, coin, inst, W, solver_cfg, cap)

    @property
    def label(self):
        return self.name if self.coin is None else f"{self.name}[coin {self.coin}]"

    @property
    def budget(self):
        """Iterations of the untraced runs: iters_to_eps, or stm_p2's fixed budget."""
        return self.cap if self.name == "stm_p2" else self.iters

    def observe(self, out_dir, clock=time_call):
        """Stride-1 run_experiment with an output directory: (wall s, iterations).

        For p = 1 it also fixes iters_to_eps and rounds_to_eps; a run that
        stops at its cap before reaching eps is repeated with the cap doubled.
        """
        for _ in range(CAP_DOUBLINGS + 1):
            cfg = experiment(self.w, self.name, max_iter=self.cap, trace_every=1,
                             solver_seed=self.coin, out=out_dir)
            wall, (summary, trace) = clock(harness.run_experiment, cfg)
            if self.name == "stm_p2":
                check_p2_value(self.w, summary["final_dual_obj"])
                return wall, trace.iter[-1]
            hit = first_certified(trace, self.w["eps"])
            if hit is not None:
                self.iters, self.rounds = hit
                return wall, trace.iter[-1]
            if trace.iter[-1] < self.cap:
                break
            self.cap *= 2
        raise CheckFailed(f"gap never reached {self.w['eps']!r} within {trace.iter[-1]} iterations")

    def time_to_eps(self, clock=time_call):
        """Seconds of one run_experiment call with trace rows only at its ends."""
        cfg = experiment(self.w, self.name, max_iter=self.budget, trace_every=self.budget,
                         solver_seed=self.coin)
        wall, (summary, trace) = clock(harness.run_experiment, cfg)
        self.check(trace, summary["final_dual_obj"])
        return wall

    def solve(self, clock=time_call):
        """Seconds inside one untraced run_stm/run_acrcd call."""
        cfg = dataclasses.replace(self.solver_cfg, max_iter=self.budget,
                                  trace_every=self.budget)
        solver = acrcd.run_acrcd if self.name == "acrcd" else stm.run_stm
        wall, (state, trace) = clock(solver, self.inst, self.W, cfg)
        self.check(trace, trace.dual_obj[-1])
        if self.name == "stm_p2":
            check_simplex(state, self.inst, self.W)
        return wall

    def check(self, trace, final_dual_obj):
        if self.name == "stm_p2":
            check_p2_value(self.w, final_dual_obj)
        else:
            check_certified(trace, self.iters, self.w["eps"])


def setup(w):
    """What a p = 1 STM solve does before its first iteration can begin."""
    inst = problem.generate_instance(w["instance_seed"], w["m"], w["n"], w["d"], 1.0, w["theta"])
    W = network.build_laplacian(network.make_topology(w["topology"], w["m"]))
    problem.data_constants(inst)
    return stm.resolve_config(stm.STMConfig(target_eps=w["eps"]), inst, W)


def setup_batch(w):
    """Set up repeatedly for SETUP_BATCH_S; the number of set-ups made."""
    count = 0
    t0 = time.perf_counter()
    while count == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
        setup(w)
        count += 1
    return count


def setup_time(w, clock):
    """Time per set-up of one batch, timed as one call of the clock."""
    seconds, count = clock(setup_batch, w)
    return seconds / count


def setup_times(w, clock):
    """Set-up times of the batches made before the solver runs."""
    samples = []
    t0 = time.perf_counter()
    while len(samples) < SETUP_MIN_REPEATS or time.perf_counter() - t0 < SETUP_MIN_SECONDS:
        samples.append(setup_time(w, clock))
    return samples


def prepare_cases(w, seed):
    coins = coin_seeds(seed, w["acrcd_coins"])
    return ([Case.prepare(w, "stm")]
            + [Case.prepare(w, "acrcd", coin) for coin in coins]
            + [Case.prepare(w, "stm_p2")])


def end_to_end(w, seed, seconds, out_dir):
    """Untraced measurement of one workload: (metrics, ledger).

    Set-up is timed in batches before the solver runs and once after every
    visit, so its samples span the run.  The stride-1 runs come first and
    fix iters_to_eps; then every coin of every case is visited once.
    Further visits go to the case with the fewest visits summed over its
    coins, cycling through its coins, while half the case's last visit still
    fits in the ``seconds`` since the stride-1 runs began.  A visit times
    whichever of the coin's runs has the fewest samples, so all kinds of run
    stay level.
    """
    ledger = Ledger()
    clock = SpeedClock(w)
    setup_samples = setup_times(w, clock)
    start = time.perf_counter()
    cases = prepare_cases(w, seed)
    samples = {c.label: {"observe": [], "time_to_eps": [], "solve": []} for c in cases}
    observed_iters = {}
    visits = {}
    last_visit_s = {}

    def sample(case, kind):
        args = (out_dir, clock) if kind == "observe" else (clock,)
        result = ledger.run(f"{case.label} {kind}", lambda: getattr(case, kind)(*args))
        if result is None:
            return
        if kind == "observe":
            result, observed_iters[case.label] = result
        samples[case.label][kind].append(result)

    def visit(case):
        t0 = time.perf_counter()
        kinds = [k for k in samples[case.label]
                 if case.name in P1_CASES or k != "time_to_eps"]
        fewest = min(len(samples[case.label][k]) for k in kinds)
        for kind in kinds:
            if len(samples[case.label][kind]) == fewest:
                sample(case, kind)
        setup_samples.append(setup_time(w, clock))
        visits[case.label] += 1
        last_visit_s[case.name] = time.perf_counter() - t0

    for case in cases:
        sample(case, "observe")
    ready = [c for c in cases if c.label in observed_iters]
    visits.update((c.label, 0) for c in ready)
    for case in ready:
        visit(case)
    groups = {name: [c for c in ready if c.name == name] for name in CASES}
    groups = {name: group for name, group in groups.items() if group}
    while groups:
        name = min(groups, key=lambda n: sum(visits[c.label] for c in groups[n]))
        if time.perf_counter() - start + 0.5 * last_visit_s[name] >= seconds:
            break
        visit(min(groups[name], key=lambda c: visits[c.label]))

    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    for name, group in groups.items():
        metrics.update(case_metrics(name, group, samples, observed_iters))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, ledger


def case_metrics(name, group, samples, observed_iters):
    """End-to-end metrics of one case from its coins' scaled samples.

    Each coin's samples of one kind are reduced to their median; the
    per-iteration metrics divide the coins' summed medians by their summed
    iterations, and ``time_to_eps_s`` is the mean over coins.
    """
    best = {c.label: {k: statistics.median(v) for k, v in samples[c.label].items() if v}
            for c in group}
    if not all("solve" in best[c.label] for c in group):
        return {}
    metrics = {
        f"{name}.ms_per_iter": (
            1e3 * sum(best[c.label]["solve"] for c in group) / sum(c.budget for c in group), "ms"),
        f"{name}.observed_ms_per_iter": (
            1e3 * sum(best[c.label]["observe"] for c in group)
            / sum(observed_iters[c.label] for c in group), "ms"),
    }
    if name in P1_CASES and all("time_to_eps" in best[c.label] for c in group):
        metrics[f"{name}.time_to_eps_s"] = (
            statistics.fmean(best[c.label]["time_to_eps"] for c in group), "s")
        metrics[f"{name}.iters_to_eps"] = (statistics.fmean(c.iters for c in group), "count")
        metrics[f"{name}.rounds_to_eps"] = (statistics.fmean(c.rounds for c in group), "count")
    return metrics


def layer_metrics(case, a, b):
    """Per-layer metrics of one case from the spans of its untraced-config
    run ``a`` and of its stride-1 run ``b``."""
    name = case.name
    iters_a = case.budget
    solver = "acrcd.run_acrcd" if name == "acrcd" else "stm.run_stm"
    step = "acrcd.acrcd_step" if name == "acrcd" else "stm.stm_step"
    out = {
        f"{name}.{step}.self_us": (1e6 * a.mean_self(step), "us"),
        f"{name}.{solver}.self_us_per_iter": (1e6 * a.self_total(solver) / iters_a, "us"),
    }
    for fn in ("dual.dual_gradient", "dual.dual_objective"):
        out[f"{name}.{fn}.calls_per_iter"] = (a.calls(fn) / iters_a, "count")
        out[f"{name}.{fn}.self_us"] = (1e6 * a.mean_self(fn), "us")
    prox = "prox.project_box" if name == "acrcd" else "prox.prox_R"
    out[f"{name}.{prox}.calls_per_iter"] = (a.calls(prox) / iters_a, "count")
    out[f"{name}.{prox}.us"] = (1e6 * a.mean(prox), "us")
    obs_iters = max(1, b.calls(step))
    out[f"{name}.recovery.duality_gap.calls_per_iter"] = (
        b.calls("recovery.duality_gap") / obs_iters, "count")
    out[f"{name}.recovery.duality_gap.self_us"] = (1e6 * b.mean_self("recovery.duality_gap"), "us")
    out[f"{name}.recovery.primal_from_dual.calls_per_iter"] = (
        b.calls("recovery.primal_from_dual") / obs_iters, "count")
    out[f"{name}.recovery.primal_from_dual.us"] = (1e6 * b.mean("recovery.primal_from_dual"), "us")
    out[f"{name}.recovery.share"] = (
        b.within("recovery.duality_gap", solver) / max(b.total(solver), 1e-12), "ratio")
    out[f"{name}.trace.save_trace.ms"] = (1e3 * b.total("trace.save_trace"), "ms")
    (run,) = a.named("harness.run_experiment")
    (call,) = a.named(solver)
    post = run.end - call.end - a.within("trace.save_trace", "harness.run_experiment")
    out[f"{name}.harness.post_solve_ms"] = (1e3 * post, "ms")
    if name == "acrcd":
        out["acrcd.acrcd.z_share"] = (case.rounds / case.iters, "ratio")
    return out


def setup_layer_metrics(a):
    return {
        "problem.generate_instance.ms": (1e3 * a.total("problem.generate_instance"), "ms"),
        "network.make_topology.ms": (1e3 * a.total("network.make_topology"), "ms"),
        "network.build_laplacian.ms": (1e3 * a.total("network.build_laplacian"), "ms"),
        "dual.lipschitz_constants.calls": (a.calls("dual.lipschitz_constants"), "count"),
        "dual.lipschitz_constants.ms": (1e3 * a.total("dual.lipschitz_constants"), "ms"),
        "problem.data_constants.calls": (a.calls("problem.data_constants"), "count"),
        "problem.data_constants.ms": (1e3 * a.total("problem.data_constants"), "ms"),
    }


def traced(w, seed, seconds, out_dir):
    """Per-layer metrics from a traced run, and the tracing overhead: (metrics, ledger)."""
    ledger = Ledger()
    start = time.perf_counter()
    coin = coin_seeds(seed, w["acrcd_coins"])[0]
    cases = [Case.prepare(w, "stm"), Case.prepare(w, "acrcd", coin), Case.prepare(w, "stm_p2")]
    ready = [c for c in cases
             if ledger.run(f"{c.label} observed", lambda c=c: c.observe(out_dir)) is not None]
    plain = {c.label: [] for c in ready}
    wrapped = {c.label: [] for c in ready}
    tracer = Tracer(trace_targets())
    runs = {}
    # Rounds of pairs of untraced and traced calls, so the overhead compares
    # like with like; a further round starts while half the last one fits.
    while True:
        round_start = time.perf_counter()
        for case in ready:
            wall = ledger.run(f"{case.label} untraced", case.time_to_eps)
            if wall is None:
                continue
            plain[case.label].append(wall)
            with tracer:
                mark = len(tracer.spans)
                run_a = tracer.new_run()
                wall = ledger.run(f"{case.label} traced", case.time_to_eps)
                if wall is not None:
                    wrapped[case.label].append(wall)
                if case.label in runs:
                    del tracer.spans[mark:]  # later pairs only feed the overhead
                elif wall is not None:
                    run_b = tracer.new_run()
                    if ledger.run(f"{case.label} traced observe",
                                  lambda c=case: c.observe(out_dir)) is not None:
                        runs[case.label] = (run_a, run_b)
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= seconds:
            break

    metrics = {}
    for case in ready:
        if case.label not in runs:
            continue
        a, b = (RunSpans(tracer, run) for run in runs[case.label])
        metrics.update(layer_metrics(case, a, b))
        overhead = min(wrapped[case.label]) / min(plain[case.label]) - 1.0
        metrics[f"{case.name}.tracing_overhead"] = (overhead, "ratio")
        if case.name == "stm":
            metrics.update(setup_layer_metrics(a))
    return metrics, ledger


def machine_info():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy before 1.26 only prints its build configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "python": sys.version.split()[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    w = workloads[args.workload]
    print(json.dumps({"meta": dict(machine_info(), workload=args.workload, seed=args.seed,
                                   trace=args.trace)}))
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=scratch)
    try:
        measure = traced if args.trace else end_to_end
        metrics, ledger = measure(w, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
