"""Tests of the benchmark itself: wrapping, span arithmetic, stride-1 reads.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
import spans
from spans import RunSpans, Tracer

WORKLOADS = run.load_workloads()
TOY = WORKLOADS["toy"]


def _originals():
    return {(m.__name__, a): getattr(m, a) for m, a in run.trace_targets() if hasattr(m, a)}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _originals()
    assert len(before) == len(run.trace_targets())
    metrics, ledger = run.traced(TOY, seed=3, seconds=0, out_dir=str(tmp_path))
    assert ledger.failed == 0
    assert metrics["stm.dual.dual_gradient.calls_per_iter"][0] == 1.0
    after = _originals()
    assert all(after[key] is fn for key, fn in before.items())


def test_tracer_restores_attributes_when_the_block_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer(run.trace_targets()):
            assert run.stm.stm_step is not before[("entrodual.stm", "stm_step")]
            raise RuntimeError("boom")
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in before.items())


def test_self_time_subtracts_direct_children(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    mod = types.SimpleNamespace()

    def leaf():
        return 1

    def outer():
        return mod.leaf() + mod.leaf()

    leaf.__module__ = outer.__module__ = "pkg.mod"
    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer([(mod, "outer"), (mod, "leaf")])
    with tracer:
        assert mod.outer() == 2
    # outer [0, 5], leaf [1, 2] and [3, 4]
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("mod.outer", 0.0, 5.0, None), ("mod.leaf", 1.0, 2.0, 0), ("mod.leaf", 3.0, 4.0, 0)]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_library_spans_nest_as_called():
    case = run.Case.prepare(TOY, "stm")
    cfg = run.dataclasses.replace(case.solver_cfg, max_iter=20, trace_every=1)
    tracer = Tracer(run.trace_targets())
    with tracer:
        tracer.new_run()
        run.stm.run_stm(case.inst, case.W, cfg)
    spans_ = tracer.spans
    names = [s.name for s in spans_]
    for span in spans_:
        if span.name in ("dual.dual_gradient", "prox.prox_R"):
            assert names[span.parent] == "stm.stm_step"
        if span.name == "recovery.primal_from_dual":
            assert names[span.parent] == "recovery.duality_gap"
    selfs = spans.self_times(spans_)
    for i, span in enumerate(spans_):
        if span.name in ("stm.stm_step", "recovery.duality_gap"):
            children = [c for c in spans_ if c.parent == i]
            assert children
            assert selfs[i] == pytest.approx(span.duration - sum(c.duration for c in children))
            assert 0.0 <= selfs[i] <= span.duration
    run_spans = RunSpans(tracer, 1)
    assert run_spans.calls("stm.stm_step") == 20
    assert run_spans.calls("recovery.duality_gap") == 21


def test_iters_to_eps_is_read_at_stride_one(tmp_path):
    case = run.Case.prepare(TOY, "stm")
    case.observe(str(tmp_path))
    assert (case.iters, case.rounds) == (2511, 2511)
    cfg = run.experiment(TOY, "stm", max_iter=2700, trace_every=10)
    _, trace = run.harness.run_experiment(cfg)
    assert run.first_certified(trace, TOY["eps"])[0] == 2610


def test_benchmark_json_records_eps_and_reference():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    assert set(whys) == set(WORKLOADS)
    for name, w in WORKLOADS.items():
        assert f"eps_w={w['eps']!r}" in whys[name]
        assert f"stm_p2 ref {w['stm_p2']['reference']!r}" in whys[name]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
