"""Experiment harness, trace round-trips, rate fitting, and the CLI."""

import dataclasses
import hashlib
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrodual as ed
from entrodual.cli import _config_from_args, build_parser, main
import entrodual.stm as stm_mod
from entrodual.harness import (
    CONFIG_TYPES,
    NOT_REACHED,
    comparison_table,
    merge_config,
    write_summary,
)

from oracles import csv_trace_bytes, read_summary, save_topology
from reference_values import (PRIMAL_OPT_P1, PRIMAL_OPT_P2, TOY_D, TOY_M, TOY_N, TOY_P1_THETA,
                              TOY_P2_THETA, TOY_SEED, TRACE_SHA256)
from strategies import invalid_accuracies

REPO = Path(__file__).resolve().parent.parent
ACRCD_P_RULE = "acrcd handles p = 1 only; use stm"


def synthetic_trace(values, start=1):
    trace = ed.SolverTrace()
    for k, v in enumerate(values, start=start):
        trace.append(k, v, v, 0.0, 0.0, k, k, 0.0)
    return trace


class TestFitRate:
    def test_recovers_quadratic_decay(self):
        ks = np.arange(1, 601)
        trace = synthetic_trace(5.0 * ks.astype(float) ** -2.0)
        report = ed.fit_rate(trace, window=(10, 500))
        assert report.slope == pytest.approx(-2.0, abs=1e-9)
        assert report.intercept == pytest.approx(math.log(5.0), abs=1e-9)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.window == (10, 500)

    def test_f_star_shift(self):
        ks = np.arange(1, 601)
        trace = synthetic_trace(3.0 + 1.0 / ks)
        report = ed.fit_rate(trace, window=(10, 500), f_star=3.0)
        assert report.slope == pytest.approx(-1.0, abs=1e-9)

    def test_saturated_window_raises(self):
        trace = synthetic_trace([0.0] * 100)
        with pytest.raises(ValueError, match="saturated"):
            ed.fit_rate(trace, window=(10, 50))

    def test_infinite_rows_dropped(self):
        # the rows of an infeasible s, whose objective or gap is infinite
        rng = np.random.default_rng(0)
        ks = np.arange(1, 301)
        vals = 5.0 / ks * np.exp(0.1 * rng.standard_normal(ks.size))
        vals[::4] = math.inf
        full, finite = ed.SolverTrace(), ed.SolverTrace()
        for k, v in zip(ks.tolist(), vals.tolist()):
            full.append(k, v, v, 0.0, 0.0, k, k, 0.0)
            if math.isfinite(v):
                finite.append(k, v, v, 0.0, 0.0, k, k, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ed.fit_rate(full, window=(10, 250))
        assert math.isfinite(report.slope)
        assert report == ed.fit_rate(finite, window=(10, 250))

    def test_all_rows_infinite_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="saturated"):
                ed.fit_rate(synthetic_trace([math.inf] * 100), window=(10, 50))

    def test_iteration_zero_rows_dropped(self):
        trace = synthetic_trace([7.0] + [1.0 / k**2 for k in range(1, 100)], start=0)
        report = ed.fit_rate(trace, window=(0, 99))
        assert report.slope == pytest.approx(-2.0, abs=1e-9)

    def test_unknown_column_rejected(self):
        trace = synthetic_trace([1.0, 0.5])
        with pytest.raises(KeyError):
            ed.fit_rate(trace, error_column="bogus")


class TestSolverTrace:
    def test_append_requires_increasing_iterations(self):
        trace = synthetic_trace([1.0, 0.5])
        with pytest.raises(ValueError, match="does not increase"):
            trace.append(2, 0.4, 0.4, 0.0, 0.0, 3, 3, 0.0)

    def test_counters_never_decrease(self):
        trace = ed.SolverTrace()
        trace.append(0, 1.0, 1.0, 0.0, 0.0, 5, 5, 0.0)
        with pytest.raises(ValueError, match="communication"):
            trace.append(1, 1.0, 1.0, 0.0, 0.0, 4, 5, 0.0)
        with pytest.raises(ValueError, match="computation"):
            trace.append(1, 1.0, 1.0, 0.0, 0.0, 5, 4, 0.0)

    def test_round_trip_exact(self, tmp_path):
        trace = ed.SolverTrace()
        trace.append(0, 0.1, -0.30000000000000004, math.inf, 1e-300, 0, 0, 0.0)
        trace.append(7, -1.5e-8, 2.0, 3.5, 0.25, 4, 3, 1.25)
        path = tmp_path / "t.csv"
        ed.save_trace(trace, path)
        loaded = ed.load_trace(path)
        assert loaded.rows() == trace.rows()

    def test_save_trace_writes_the_csv_writer_bytes(self, tmp_path, stm_p1_trace):
        # the one-format writer against csv.writer on the values a float repr
        # and an int can take, and on a solver's own trace
        edge = ed.SolverTrace()
        edge.append(0, math.inf, -math.inf, math.nan, -0.0, 0, 0, 5e-324)
        edge.append(1, -0.0, 5e-324, -1.7976931348623157e308, math.nan, 2**63, 2**63, 0.0)
        edge.append(10**20, 0.1, 1 / 3, math.inf, -5e-324, 2**80, 10**30, 1e-300)
        for trace in (edge, stm_p1_trace[1], ed.SolverTrace()):
            path = tmp_path / "t.csv"
            ed.save_trace(trace, path)
            assert path.read_bytes() == csv_trace_bytes(trace)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iter,value\n0,1.0\n")
        with pytest.raises(ValueError, match="bad trace header"):
            ed.load_trace(path)

    def test_malformed_row_diagnosed_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(ed.trace.TRACE_COLUMNS)
        path.write_text(header + "\n0,1.0,1.0,0.0,0.0,0,0,zero\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            ed.load_trace(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(ed.trace.TRACE_COLUMNS)
        path.write_text(header + "\n0,1.0\n")
        with pytest.raises(ValueError, match="expected 8 fields"):
            ed.load_trace(path)

    def test_column_accessor(self):
        trace = synthetic_trace([2.0, 1.0])
        np.testing.assert_array_equal(trace.column("dual_obj"), [2.0, 1.0])
        with pytest.raises(KeyError):
            trace.column("nope")
        assert len(trace) == 2


class TestObserve:
    """``trace.observe`` checks the loop parameters of every solver."""

    @pytest.mark.parametrize("solver", ["stm", "acrcd", "subgradient"])
    def test_zero_trace_every_is_named(self, solver, toy_p1, ring4):
        runs = {
            "stm": lambda: ed.run_stm(toy_p1, ring4, ed.STMConfig(max_iter=5, trace_every=0)),
            "acrcd": lambda: ed.run_acrcd(
                toy_p1, ring4, ed.ACRCDConfig(rng_seed=0, max_iter=5, trace_every=0)),
            "subgradient": lambda: ed.subgradient_baseline(toy_p1, ring4, 5, trace_every=0),
        }
        with pytest.raises(ValueError, match="trace_every must be positive"):
            runs[solver]()

    def test_nonpositive_max_iter_is_named(self, toy_p1, ring4):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            ed.subgradient_baseline(toy_p1, ring4, 0)
        with pytest.raises(ValueError, match="max_iter must be positive"):
            ed.trace.observe(lambda k: None, lambda k: (0.0,) * 6, -1)


class TestExperimentConfig:
    def base(self, **kw):
        kw.setdefault("seed", 3)
        return ed.ExperimentConfig(**kw)

    def test_valid_default_passes(self):
        self.base().validate()

    def test_unknown_solver(self):
        with pytest.raises(ed.ConfigError, match="unknown solver"):
            self.base(solver="sgd").validate()

    def test_needs_seed_or_instance(self):
        with pytest.raises(ed.ConfigError, match="seed"):
            ed.ExperimentConfig().validate()

    def test_missing_instance_file(self):
        # open() owns the check, so the path cannot vanish after it
        self.base(instance="/nonexistent/inst.txt").validate()
        with pytest.raises(FileNotFoundError, match="/nonexistent/inst.txt"):
            ed.run_experiment(self.base(instance="/nonexistent/inst.txt"))

    def test_p_restricted(self):
        # ProblemInstance owns the check
        for p in (1.5, 0.5):
            with pytest.raises(ValueError, match="p must be 1 or 2"):
                ed.run_experiment(self.base(p=p))

    def test_positive_theta_and_dims(self):
        # theta is checked where every instance passes, in ProblemInstance
        with pytest.raises(ValueError, match="theta must be positive"):
            ed.run_experiment(self.base(theta=0.0))
        with pytest.raises(ed.ConfigError, match="positive"):
            self.base(d=0).validate()

    def test_acrcd_needs_solver_seed(self):
        # ACRCDConfig owns the check
        with pytest.raises(ValueError, match="solver_seed"):
            ed.run_experiment(self.base(solver="acrcd", p=1.0))

    def test_iteration_knobs_positive(self):
        # observe owns the check, for every solver
        for solver in ed.harness.SOLVERS:
            cfg = self.base(solver=solver, p=1.0, solver_seed=0)
            with pytest.raises(ValueError, match="max_iter must be positive"):
                ed.run_experiment(dataclasses.replace(cfg, max_iter=0))
            with pytest.raises(ValueError, match="trace_every must be positive"):
                ed.run_experiment(dataclasses.replace(cfg, trace_every=0))

    @pytest.mark.parametrize("change, message", [
        (dict(max_iter=0), "max_iter must be positive"),
        (dict(trace_every=0), "trace_every must be positive"),
        (dict(solver="acrcd", p=1.0), "acrcd needs rng_seed"),
        (dict(solver="acrcd", p=2.0, solver_seed=0), ACRCD_P_RULE),
    ])
    def test_settings_fail_before_set_up(self, change, message, monkeypatch):
        # the instance, W and the block SVDs are never built for a bad setting;
        # acrcd's p rule reads the instance's p, so only the topology waits for it
        def no_set_up(*args):
            raise AssertionError("set-up ran before the settings were checked")

        if message != ACRCD_P_RULE:
            monkeypatch.setattr(ed.harness, "_load_or_generate", no_set_up)
        monkeypatch.setattr(ed.harness, "_build_topology", no_set_up)
        with pytest.raises(ValueError, match=message):
            ed.run_experiment(self.base(**change))

    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from([1.0, 2.0]), eps=invalid_accuracies())
    def test_target_eps_positive_in_every_mode(self, p, eps):
        # the box mode (p = 1) never derives nu from it, so validate checks it
        with pytest.raises(ed.ConfigError, match="target accuracy must be positive"):
            self.base(p=p, target_eps=eps).validate()

    def test_topology_file_checked(self):
        # open() owns the check
        with pytest.raises(FileNotFoundError, match="/nonexistent/top.txt"):
            ed.run_experiment(self.base(topology="file:/nonexistent/top.txt"))

    def test_merge_skips_none_and_rejects_unknown(self):
        cfg = self.base(theta=0.7)
        merged = merge_config(cfg, {"theta": None, "m": 6})
        assert merged.theta == 0.7
        assert merged.m == 6
        with pytest.raises(ed.ConfigError, match="unknown config keys"):
            merge_config(cfg, {"wat": 1})


class TestLoadConfig:
    def test_parses_types_comments_blanks(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment\n"
            "solver = stm\n"
            "m = 3  # trailing comment\n"
            "theta = 0.25\n"
            "\n"
            "timing = on\n"
            "seed = 9\n"
        )
        cfg = ed.load_config(path)
        assert cfg.solver == "stm"
        assert cfg.m == 3 and isinstance(cfg.m, int)
        assert cfg.theta == 0.25
        assert cfg.timing is True
        assert cfg.seed == 9

    def test_missing_equals_diagnosed(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("solver stm\n")
        with pytest.raises(ed.ConfigError, match=r"exp\.cfg:1"):
            ed.load_config(path)

    def test_unknown_key_diagnosed(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("solvr = stm\n")
        with pytest.raises(ed.ConfigError, match="unknown key"):
            ed.load_config(path)

    def test_bad_value_diagnosed(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("m = three\n")
        with pytest.raises(ed.ConfigError, match="bad value"):
            ed.load_config(path)

    def test_empty_value_keeps_default(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 4\nsolver_seed =\n")
        cfg = ed.load_config(path)
        assert cfg.solver_seed is None and cfg.seed == 4

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ed.ConfigError, match="cannot read"):
            ed.load_config(tmp_path / "missing.cfg")


class TestConfigSchema:
    """A config file and the command line read every ExperimentConfig key alike."""

    # one value per type, each unlike every default of that type
    SAMPLES = {int: "7", float: "0.25", str: "acrcd", bool: "on"}

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ed.ExperimentConfig)])
    def test_flag_and_file_agree(self, key, tmp_path):
        kind = CONFIG_TYPES[key]
        raw = self.SAMPLES[kind]
        path = tmp_path / "exp.cfg"
        path.write_text(f"{key} = {raw}\n")
        from_file = ed.load_config(path)
        flag = ["--" + key.replace("_", "-")] + ([] if kind is bool else [raw])
        from_flag = _config_from_args(build_parser().parse_args(["solve", *flag]))
        assert from_flag == from_file
        value = getattr(from_flag, key)
        assert value != getattr(ed.ExperimentConfig(), key)
        assert type(value) is kind and type(getattr(from_file, key)) is kind

    def test_solver_flag_takes_the_harness_solvers(self):
        for name in ed.harness.SOLVERS:
            args = build_parser().parse_args(["solve", "--solver", name])
            assert args.solver == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--solver", "newton"])


class TestRunExperiment:
    def small_cfg(self, **kw):
        base = dict(seed=3, m=3, n=2, d=3, p=2.0, theta=0.5,
                    max_iter=200, trace_every=50)
        base.update(kw)
        return ed.ExperimentConfig(**base)

    def test_stm_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        summary, trace = ed.run_experiment(self.small_cfg(out=str(out)))
        assert (out / "trace.csv").exists()
        assert (out / "summary.txt").exists()
        assert summary["iters"] == 200
        assert summary["solver"] == "stm"
        assert len(summary["checksum"]) == 64
        loaded = ed.load_trace(out / "trace.csv")
        assert loaded.rows() == trace.rows()

    def test_summary_round_trip(self, tmp_path):
        out = tmp_path / "run"
        summary, _ = ed.run_experiment(self.small_cfg(out=str(out)))
        loaded = read_summary(out / "summary.txt")
        assert loaded["checksum"] == summary["checksum"]
        assert loaded["final_dual_obj"] == summary["final_dual_obj"]
        assert loaded["n_comm"] == summary["n_comm"]
        assert loaded["lambda_max"] == summary["lambda_max"]

    def test_summary_reports_constants(self):
        summary, _ = ed.run_experiment(self.small_cfg())
        for key in ("L_H", "L_z", "L_s", "eta", "sigma_max", "lambda_max", "chi"):
            assert math.isfinite(summary[key])
        # STM steps with L_H, so no separate L is reported
        assert "L" not in summary
        assert summary["nu"] == ed.default_regularizer_weight(
            ed.generate_instance(3, 3, 2, 3, 2.0, 0.5), 1e-4)

    @pytest.mark.parametrize("p,nu", [(2.0, 5e-5), (1.0, 0.0)])
    def test_summary_nu_is_half_the_target_accuracy(self, p, nu, tmp_path):
        # nu = eps / 2 in the penalised mode, 0 in the box mode; never set
        out = tmp_path / "run"
        ed.run_experiment(self.small_cfg(p=p, theta=3.0, target_eps=1e-4, out=str(out)))
        loaded = read_summary(out / "summary.txt")
        assert loaded["nu"] == nu
        assert "nu_default" not in loaded

    def test_nu_is_not_a_setting(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--seed", "1", "--nu", "0.5"])
        assert exc.value.code == 2
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\nnu = 0.5\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "unknown key 'nu'" in capsys.readouterr().err

    def test_L_is_not_a_setting(self, tmp_path, capsys):
        # STM's step is always the worked-out L_H
        assert "L" not in CONFIG_TYPES
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--seed", "1", "--L", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --L 5" in capsys.readouterr().err
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\nL = 5\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "unknown key 'L'" in capsys.readouterr().err

    def test_mu_is_not_a_setting(self, tmp_path, capsys):
        # the dual is not strongly convex, so STM takes the plain step
        assert "mu" not in CONFIG_TYPES
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--seed", "1", "--mu", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mu 3" in capsys.readouterr().err
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 1\nmu = 0.01\n")
        assert main(["solve", "--config", str(path)]) == 2
        assert "unknown key 'mu'" in capsys.readouterr().err

    def test_acrcd_path(self):
        cfg = self.small_cfg(solver="acrcd", p=1.0, solver_seed=11)
        summary, trace = ed.run_experiment(cfg)
        assert summary["n_comm"] + summary["n_comp"] == 200
        assert all(math.isfinite(v) for v in trace.dual_obj)

    def test_acrcd_rejects_p2(self):
        # acrcd.check_p owns the check; run_acrcd and the harness call it
        cfg = self.small_cfg(solver="acrcd", solver_seed=11)
        with pytest.raises(ValueError, match="p = 1"):
            ed.run_experiment(cfg)

    def test_subgradient_path_decreases_primal(self):
        cfg = self.small_cfg(solver="subgradient", max_iter=400)
        summary, trace = ed.run_experiment(cfg)
        assert all(math.isinf(v) for v in trace.dual_obj)
        assert trace.primal_obj[-1] < trace.primal_obj[0]
        # no dual iterate exists, so no certificate keys are reported
        assert "final_gap" not in summary

    def test_instance_file_round_trip(self, tmp_path, toy_p2):
        inst_path = tmp_path / "inst.txt"
        ed.save_instance(toy_p2, inst_path)
        cfg = ed.ExperimentConfig(instance=str(inst_path), max_iter=100, trace_every=100)
        summary, _ = ed.run_experiment(cfg)
        assert summary["checksum"] == ed.instance_checksum(toy_p2)

    def test_topology_node_mismatch(self, tmp_path):
        top_path = tmp_path / "top.txt"
        save_topology(ed.topology_ring(5), top_path)
        cfg = self.small_cfg(topology=f"file:{top_path}")
        with pytest.raises(ed.ConfigError, match="nodes"):
            ed.run_experiment(cfg)

    def test_bad_topology_spec(self):
        # make_topology owns the check
        with pytest.raises(ValueError, match="unknown topology spec 'moebius'"):
            ed.run_experiment(self.small_cfg(topology="moebius"))

    def test_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            ed.run_experiment(self.small_cfg(out=str(out)))
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("solver", ["stm", "acrcd"])
    def test_reruns_byte_identical_on_slot_ring(self, solver, tmp_path):
        # a ring large enough that W is applied from its neighbour slots
        assert isinstance(ed.build_laplacian(ed.topology_ring(256)).operator,
                          ed.network.NeighbourSlots)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            ed.run_experiment(self.small_cfg(m=256, p=1.0, theta=3.0, solver=solver,
                                             solver_seed=4, max_iter=300,
                                             out=str(out)))
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_edge_list_ring_takes_slots_and_solves_as_the_generator(self, tmp_path):
        # a file: topology builds its slots from the edges, as a generator does
        top_path = tmp_path / "ring256.txt"
        save_topology(ed.topology_ring(256), top_path)
        W = ed.build_laplacian(ed.load_topology(top_path))
        assert isinstance(W.operator, ed.network.NeighbourSlots)
        blobs = []
        for name, topology in (("file", f"file:{top_path}"), ("ring", "ring")):
            out = tmp_path / name
            assert main(["solve", "--seed", "3", "--m", "256", "--n", "2", "--d", "3",
                         "--p", "1", "--theta", "3", "--topology", topology,
                         "--max-iter", "100", "--trace-every", "10",
                         "--out", str(out)]) == 0
            blobs.append((out / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_baseline_on_slot_ring_matches_dense(self, monkeypatch):
        # the mixing product and the observer's residual both take the slots
        summary, trace = ed.run_experiment(self.small_cfg(
            m=256, p=1.0, theta=3.0, solver="subgradient", max_iter=40, trace_every=10))
        assert summary["iters"] == 40
        inst = ed.generate_instance(3, 256, 2, 3, 1.0, 3.0)
        # the same ring on the dense form: a crossover above m keeps every graph dense
        monkeypatch.setattr(ed.network, "SLOT_CROSSOVER", 257)
        W = ed.build_laplacian(ed.topology_ring(256))
        assert type(W.operator) is np.ndarray
        dense = ed.subgradient_baseline(inst, W, 40, trace_every=10)
        assert trace.iter == dense.iter
        np.testing.assert_allclose(trace.primal_obj, dense.primal_obj, rtol=1e-12)
        np.testing.assert_allclose(trace.consensus_residual, dense.consensus_residual,
                                   rtol=1e-12)

    def toy_p1_cfg(self, **kw):
        return ed.ExperimentConfig(seed=TOY_SEED, m=TOY_M, n=TOY_N, d=TOY_D, p=1.0,
                                   theta=TOY_P1_THETA, **kw)

    def test_summary_explains_the_stop(self, tmp_path):
        # the p = 1 toy first certifies 1e-4 at iteration 2511 (one round each)
        out = tmp_path / "run"
        summary, _ = ed.run_experiment(self.toy_p1_cfg(max_iter=2600, trace_every=1,
                                                       out=str(out)))
        assert (summary["stop_reason"], summary["iters_to_eps"],
                summary["rounds_to_eps"]) == ("max_iter", 2511, 2511)
        loaded = read_summary(out / "summary.txt")
        assert (loaded["stop_reason"], loaded["iters_to_eps"],
                loaded["rounds_to_eps"]) == ("max_iter", 2511, 2511)

    def test_eps_is_read_at_the_trace_stride(self):
        # the gap is not monotone: rows every 10th iteration first hit eps at 2610
        summary, _ = ed.run_experiment(self.toy_p1_cfg(max_iter=2700, trace_every=10))
        assert summary["iters_to_eps"] == summary["rounds_to_eps"] == 2610

    def test_summary_spells_eps_not_reached(self, tmp_path):
        out = tmp_path / "run"
        summary, _ = ed.run_experiment(self.toy_p1_cfg(max_iter=100, out=str(out)))
        assert summary["iters_to_eps"] == summary["rounds_to_eps"] == NOT_REACHED
        text = (out / "summary.txt").read_text()
        assert f"iters_to_eps={NOT_REACHED}\n" in text
        assert f"rounds_to_eps={NOT_REACHED}\n" in text

    def test_summary_names_a_stall_stop(self, monkeypatch):
        # a frozen objective never improves, so the stall stop ends the run
        monkeypatch.setattr(stm_mod, "objective_from_lse", lambda *a, **k: -1.0)
        summary, _ = ed.run_experiment(self.toy_p1_cfg(max_iter=1000))
        assert summary["stop_reason"] == "stall"
        assert summary["iters"] == 1 + stm_mod.STALL_WINDOW
        # a stall on the last iteration is still named a stall
        summary, _ = ed.run_experiment(self.toy_p1_cfg(max_iter=1 + stm_mod.STALL_WINDOW))
        assert summary["stop_reason"] == "stall"
        assert summary["iters"] == 1 + stm_mod.STALL_WINDOW

    # ACRCD has no stall stop; 137 is no multiple of the stride 10, and the
    # stall stop comes at iteration 51
    @pytest.mark.parametrize("solver,p,stop", [
        ("stm", 1.0, "max_iter"), ("stm", 2.0, "max_iter"), ("acrcd", 1.0, "max_iter"),
        ("stm", 1.0, "stall"), ("stm", 2.0, "stall"),
    ])
    def test_summary_certificate_is_the_last_rows(self, solver, p, stop, monkeypatch):
        if stop == "stall":
            monkeypatch.setattr(stm_mod, "objective_from_lse", lambda *a, **k: -1.0)
        theta = TOY_P1_THETA if p == 1.0 else TOY_P2_THETA
        summary, trace = ed.run_experiment(ed.ExperimentConfig(
            seed=TOY_SEED, m=TOY_M, n=TOY_N, d=TOY_D, p=p, theta=theta, solver=solver,
            solver_seed=3, max_iter=137 if stop == "max_iter" else 1000, trace_every=10))
        assert summary["stop_reason"] == stop
        assert summary["iters"] == (137 if stop == "max_iter" else 1 + stm_mod.STALL_WINDOW)
        assert summary["final_gap"] == trace.gap[-1]  # two infinite gaps compare equal
        if p == 1.0:  # the box mode's row objective is the certificate's H
            assert summary["final_dual_certificate"] == summary["final_dual_obj"]

    @pytest.mark.parametrize("solver", ["acrcd", "subgradient"])
    def test_other_solvers_stop_at_max_iter(self, solver):
        summary, _ = ed.run_experiment(self.toy_p1_cfg(solver=solver, solver_seed=3,
                                                       max_iter=60))
        assert summary["stop_reason"] == "max_iter"
        assert summary["iters_to_eps"] == NOT_REACHED

    @pytest.mark.parametrize("solver", ed.harness.SOLVERS)
    def test_strided_rows_are_the_stride_1_rows(self, solver):
        # rows at 0, every 7th k and max_iter, each the same as at stride 1
        runs = [ed.run_experiment(self.toy_p1_cfg(solver=solver, solver_seed=3, max_iter=60,
                                                  trace_every=every))[1]
                for every in (1, 7)]
        every_row, strided = (trace.rows() for trace in runs)
        assert runs[1].iter == [*range(0, 57, 7), 60]
        assert strided == [every_row[k] for k in runs[1].iter]

    def test_subgradient_honours_timing(self):
        _, timed = ed.run_experiment(self.toy_p1_cfg(solver="subgradient", max_iter=30,
                                                     trace_every=10, timing=True))
        assert timed.wall_ms[0] > 0.0
        assert all(b >= a for a, b in zip(timed.wall_ms, timed.wall_ms[1:]))
        _, untimed = ed.run_experiment(self.toy_p1_cfg(solver="subgradient", max_iter=30,
                                                       trace_every=10))
        assert untimed.wall_ms == [0.0] * len(untimed)

    def test_block_svd_taken_once_per_run(self, monkeypatch):
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
        ed.run_experiment(self.small_cfg())
        assert len(calls) == 1


class TestComparator:
    """The entropic mirror comparator: it converges, its trace depends on the
    instance alone, its rows read simplex blocks, and edge data run clean."""

    @pytest.mark.parametrize("config,optimum,tol", [
        ("configs/toy_p1.cfg", PRIMAL_OPT_P1, 2e-3),
        ("configs/toy.cfg", PRIMAL_OPT_P2, 1e-4),
    ], ids=["toy_p1", "toy"])
    def test_best_primal_reaches_the_optimum(self, config, optimum, tol):
        cfg = merge_config(ed.load_config(REPO / config),
                           {"solver": "subgradient", "max_iter": 2000, "trace_every": 1})
        _, trace = ed.run_experiment(cfg)
        assert abs(min(trace.primal_obj) - optimum) <= tol

    def test_generated_and_loaded_instance_trace_alike(self, tmp_path):
        flags = ["--m", "4", "--n", "3", "--d", "5", "--p", "1", "--theta", "3"]
        inst_path = tmp_path / "inst.txt"
        assert main(["gen", "--seed", "7", *flags, "--out", str(inst_path)]) == 0
        blobs = []
        for name, source in (("gen", ["--seed", "7", *flags]),
                             ("file", ["--instance", str(inst_path)])):
            out = tmp_path / name
            assert main(["solve", *source, "--solver", "subgradient", "--max-iter", "50",
                         "--trace-every", "1", "--out", str(out)]) == 0
            blobs.append((out / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_rows_read_simplex_blocks(self, monkeypatch):
        # every row's blocks pass the library's own simplex check
        checked = []
        real = ed.baseline.primal_side

        def spy(inst, W, X):
            checked.append(ed.PrimalState(X))
            return real(inst, W, X)

        monkeypatch.setattr(ed.baseline, "primal_side", spy)
        inst = ed.generate_instance(7, 64, 20, 50, 2.0, 3.0)
        ed.subgradient_baseline(inst, ed.build_laplacian(ed.topology_ring(64)), 400)
        assert len(checked) == 401

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_one_point_simplex_is_fixed(self, p, ring4):
        # at d = 1 the step is 0 and every node sits at x = 1
        inst = ed.generate_instance(7, 4, 3, 1, p, 3.0)
        trace = ed.subgradient_baseline(inst, ring4, 20)
        loss = ed.problem.vector_norm(inst.stacked_A()[:, 0] - inst.stacked_b(), p)
        assert trace.primal_obj == [loss / 4] * 21
        assert trace.consensus_residual == [0.0] * 21

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("theta,scale", [(1e-3, 1.0), (3.0, 1e6)],
                             ids=["theta=1e-3", "scale=1e6"])
    def test_small_theta_and_large_scale_run_clean(self, theta, scale, p, ring4):
        inst = ed.generate_instance(7, 4, 3, 5, p, theta, scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = ed.subgradient_baseline(inst, ring4, 2000, trace_every=100)
        assert all(math.isfinite(v) for v in trace.primal_obj)


@pytest.mark.parametrize("config,flags", [
    pytest.param(config, flags, id="-".join((Path(config).stem, *(f.lstrip("-") for f in flags))))
    for config, flags in sorted(TRACE_SHA256)])
def test_trace_bytes_are_pinned(config, flags, tmp_path):
    """Stride-1 traces of the shipped configs, byte for byte."""
    out = tmp_path / "run"
    assert main(["solve", "--config", str(REPO / config), *flags,
                 "--trace-every", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[config, flags]


def test_toy_experiment_script_runs(tmp_path):
    """scripts/run_toy_experiment.py reads the summary keys it prints."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_toy_experiment.py"),
         "--max-iter", "50", "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    table = done.stdout.split("three-way comparison", 1)[1]
    for solver in ed.harness.SOLVERS:
        assert f"\n{solver} " in table


def test_crossover_script_quick_runs():
    """scripts/crossover.py --quick prints both tables, with the forms the
    package picks on every row: for W, the operator and the slot form."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "crossover.py"), "--quick"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    gossip, data = done.stdout.strip().split("\n\n")
    # below each table's title and column header, one row per case
    for rows, forms in ((gossip.splitlines()[3:], [{"dense", "slots"}, {"gather", "slices"}]),
                        (data.splitlines()[2:], [{"blas", "einsum"}])):
        assert rows
        for row in rows:
            picks = row.split()[-len(forms):]
            assert all(pick in choices for pick, choices in zip(picks, forms)), row


def test_readme_lists_the_config_keys():
    text = " ".join((REPO / "README.md").read_text().split())
    listed = text.split("Keys mirror `ExperimentConfig`: ", 1)[1].split(".", 1)[0]
    assert [key.strip() for key in listed.split(",")] == list(CONFIG_TYPES)


class TestWriteSummary:
    def test_floats_use_repr(self, tmp_path):
        path = tmp_path / "s.txt"
        write_summary(path, {"a": 0.1, "b": 3, "c": "text", "d": np.float64(0.25)})
        text = path.read_text()
        assert "a=0.1\n" in text
        assert "b=3\n" in text
        assert "d=0.25\n" in text
        loaded = read_summary(path)
        assert loaded == {"a": 0.1, "b": 3, "c": "text", "d": 0.25}


class TestCompareSolvers:
    def test_head_to_head(self, tmp_path):
        cfg = ed.ExperimentConfig(seed=3, m=3, n=2, d=3, p=1.0, theta=0.5,
                                  max_iter=400, trace_every=100,
                                  solver_seed=5, out=str(tmp_path / "cmp"))
        results = ed.compare_solvers(cfg, ["stm", "subgradient"])
        assert [r["solver"] for r in results] == ["stm", "subgradient"]
        assert (tmp_path / "cmp" / "stm" / "trace.csv").exists()
        assert (tmp_path / "cmp" / "subgradient" / "trace.csv").exists()
        # the dual method should not lose to the plain yardstick
        assert results[0]["final_primal_obj"] <= results[1]["final_primal_obj"] + 1e-6

    def test_table_layout(self):
        rows = [
            {"solver": "stm", "final_dual_obj": 1.23456789, "final_primal_obj": 2.0,
             "final_gap": 0.5, "n_comm": 10, "n_comp": 10},
            {"solver": "subgradient", "final_primal_obj": 3.0, "n_comm": 5, "n_comp": 5},
        ]
        table = comparison_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("solver")
        assert len(lines) == 3
        assert "1.23457" in lines[1]
        assert "-" in lines[2]


class TestCLI:
    def test_gen_writes_loadable_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code = main(["gen", "--seed", "5", "--m", "2", "--n", "2", "--d", "3",
                     "--out", str(out)])
        assert code == 0
        inst = ed.load_instance(out)
        assert (inst.m, inst.n, inst.d) == (2, 2, 3)
        assert ed.instance_checksum(inst) in capsys.readouterr().out

    def test_solve_prints_summary_lines(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--seed", "3", "--m", "3", "--n", "2", "--d", "3",
                     "--max-iter", "150", "--trace-every", "50", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "solver=stm" in text
        assert "final_dual_obj=" in text
        assert (out / "trace.csv").exists()

    def test_solve_reruns_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "--seed", "3", "--m", "3", "--n", "2", "--d", "3",
                         "--max-iter", "150", "--trace-every", "50",
                         "--out", str(out)]) == 0
            blobs.append((out / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_solve_with_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("seed = 3\nm = 3\nn = 2\nd = 3\nmax_iter = 100\n")
        code = main(["solve", "--config", str(cfg_path), "--max-iter", "120"])
        assert code == 0
        assert "iters=120" in capsys.readouterr().out

    def test_rate_command(self, tmp_path, capsys):
        trace = synthetic_trace([4.0 / k for k in range(1, 300)])
        path = tmp_path / "t.csv"
        ed.save_trace(trace, path)
        code = main(["rate", "--trace", str(path), "--kmin", "10", "--kmax", "250",
                     "--fstar", "0.0"])
        assert code == 0
        text = capsys.readouterr().out
        assert "slope=-1.0" in text or "slope=-0.999" in text
        assert "r_squared=" in text

    def test_rate_with_reference_trace(self, tmp_path, capsys):
        trace = synthetic_trace([2.0 + 4.0 / k for k in range(1, 300)])
        ref = synthetic_trace([2.0])
        tp, rp = tmp_path / "t.csv", tmp_path / "r.csv"
        ed.save_trace(trace, tp)
        ed.save_trace(ref, rp)
        code = main(["rate", "--trace", str(tp), "--ref", str(rp)])
        assert code == 0
        assert "slope=" in capsys.readouterr().out

    @pytest.mark.parametrize("solve,target,code", [
        pytest.param(["--config", str(REPO / "configs/toy_p1.cfg"), "--solver", "subgradient"],
                     ["--fstar", "0"], 2, id="subgradient-fstar"),
        pytest.param(["--config", str(REPO / "configs/toy_p1.cfg"), "--solver", "subgradient"],
                     ["--ref", "{trace}"], 2, id="subgradient-ref"),
        pytest.param(["--config", str(REPO / "configs/toy.cfg")],
                     ["--column", "gap", "--fstar", "0"], 0, id="p2-gap"),
    ])
    def test_rate_drops_infinite_rows(self, solve, target, code, tmp_path, capsys):
        # the subgradient's dual_obj is inf on every row; the p = 2 gap is inf
        # once s leaves the dual ball (from iteration 70 on the toy)
        out = tmp_path / "run"
        assert main(["solve", *solve, "--max-iter", "600", "--out", str(out)]) == 0
        trace = str(out / "trace.csv")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["rate", "--trace", trace, *(arg.format(trace=trace) for arg in target)]
            assert main(argv) == code
        text = capsys.readouterr()
        if code == 2:
            assert "is saturated" in text.err
        else:
            slope = float(text.out.splitlines()[0].removeprefix("slope="))
            assert math.isfinite(slope)
            assert "window=10..60" in text.out

    def test_rate_needs_target(self, tmp_path, capsys):
        trace = synthetic_trace([1.0, 0.5])
        path = tmp_path / "t.csv"
        ed.save_trace(trace, path)
        code = main(["rate", "--trace", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [["--fstar", "0"], ["--ref", "{trace}"]],
                             ids=["fstar", "ref"])
    def test_rate_unknown_column(self, target, tmp_path, capsys):
        # argparse names the columns; the library's KeyError is never reached
        path = tmp_path / "t.csv"
        ed.save_trace(synthetic_trace([1.0, 0.5]), path)
        argv = ["rate", "--trace", str(path), "--column", "bogus"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [arg.format(trace=path) for arg in target])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "'dual_obj'" in err
        assert "Traceback" not in err

    def test_config_error_exit_code(self, capsys):
        code = main(["solve", "--solver", "acrcd", "--seed", "3", "--p", "1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_single_node_exit_code(self, capsys):
        code = main(["solve", "--m", "1", "--seed", "7", "--p", "1", "--theta", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "a gossip matrix needs at least 2 nodes, got m = 1" in err

    def test_numeric_failure_exit_code(self, capsys):
        code = main(["solve", "--seed", "3", "--m", "3", "--n", "2", "--d", "3",
                     "--scale", "1e153"])
        assert code == 3
        assert "numeric failure: non-finite iterate at iteration 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code,message", [
        pytest.param(["solve", "--seed", "1", "--scale", "1e160"], 3, "", id="scale=1e160"),
        pytest.param(["solve", "--seed", "1", "--scale", "0"], 2, "all data blocks are zero",
                     id="scale=0"),
        pytest.param(["gen", "--seed", "1", "--scale", "0", "--out", "{missing}"], 2,
                     "all data blocks are zero", id="gen-scale=0"),
        # 7.11 PiB: refused before a page is touched; never test a shape that fits
        pytest.param(["gen", "--seed", "1", "--m", "100000", "--n", "100000", "--d", "100000",
                      "--out", "{missing}"], 2, "Unable to allocate", id="gen-huge"),
        pytest.param(["solve", "--seed", "1", "--m", "100000", "--n", "100000", "--d",
                      "100000", "--out", "{out}"], 2, "Unable to allocate", id="solve-huge"),
        pytest.param(["rate", "--trace", "{missing}", "--fstar", "0"], 2, "{missing}",
                     id="missing-trace"),
        pytest.param(["rate", "--trace", "{trace}", "--ref", "{missing}"], 2, "{missing}",
                     id="missing-ref"),
        pytest.param(["solve", "--seed", "1", "--theta", "nan"], 2, "theta must be positive",
                     id="theta=nan"),
        pytest.param(["solve", "--seed", "1", "--target-eps", "nan"], 2,
                     "target accuracy must be positive", id="target-eps=nan"),
        pytest.param(["solve", "--config", str(REPO / "configs/toy_p1.cfg"),
                      "--target-eps", "nan"], 2, "target accuracy must be positive",
                     id="box-target-eps=nan"),
        pytest.param(["solve", "--config", str(REPO / "configs/toy_p1.cfg"),
                      "--target-eps", "-1"], 2, "target accuracy must be positive",
                     id="box-target-eps=-1"),
        pytest.param(["solve", "--seed", "1", "--target-eps", "inf"], 2,
                     "target accuracy must be positive", id="target-eps=inf"),
        pytest.param(["solve", "--config", str(REPO / "configs/toy_p1.cfg"),
                      "--target-eps", "inf"], 2, "target accuracy must be positive",
                     id="box-target-eps=inf"),
        pytest.param(["solve", "--seed", "1", "--theta", "inf"], 2, "theta must be positive",
                     id="theta=inf"),
        pytest.param(["gen", "--seed", "1", "--theta", "inf", "--out", "{missing}"], 2,
                     "theta must be positive", id="gen-theta=inf"),
        pytest.param(["solve", "--instance", "{dir}"], 2, "{dir}", id="instance-dir"),
        pytest.param(["solve", "--seed", "1", "--topology", "file:{dir}"], 2, "{dir}",
                     id="topology-dir"),
        pytest.param(["gen", "--seed", "1", "--out", "{dir}"], 2, "{dir}", id="gen-out-dir"),
        pytest.param(["solve", "--seed", "1", "--max-iter", "5", "--out", "{trace}"], 2,
                     "{trace}", id="out-is-a-file"),
        pytest.param(["gen", "--seed", "1", "--p", "1.5", "--out", "{missing}"], 2,
                     "p must be 1 or 2", id="gen-p=1.5"),
        pytest.param(["gen", "--seed", "1", "--p", "inf", "--out", "{missing}"], 2,
                     "p must be 1 or 2", id="gen-p=inf"),
        pytest.param(["solve", "--seed", "1", "--p", "1.5"], 2, "p must be 1 or 2",
                     id="solve-p=1.5"),
        pytest.param(["solve", "--instance", "{p15}"], 2, "{p15}: p must be 1 or 2",
                     id="instance-p=1.5"),
        pytest.param(["solve", "--seed", "1", "--max-iter", "0", "--out", "{out}"], 2,
                     "max_iter must be positive", id="max-iter=0"),
        pytest.param(["solve", "--seed", "1", "--trace-every", "0", "--out", "{out}"], 2,
                     "trace_every must be positive", id="trace-every=0"),
        pytest.param(["solve", "--instance", "{missing}", "--out", "{out}"], 2, "{missing}",
                     id="missing-instance"),
        pytest.param(["solve", "--seed", "1", "--topology", "file:{missing}", "--out", "{out}"],
                     2, "{missing}", id="missing-topology"),
        pytest.param(["solve", "--solver", "acrcd", "--solver-seed", "0", "--seed", "1",
                      "--p", "2", "--out", "{out}"], 2, "acrcd handles p = 1 only; use stm",
                     id="acrcd-p=2"),
        pytest.param(["solve", "--solver", "acrcd", "--seed", "1", "--p", "1", "--out", "{out}"],
                     2, "acrcd needs rng_seed (solver_seed in a config)", id="acrcd-no-seed"),
        pytest.param(["solve", "--seed", "-1"], 2, "instance seed must be nonnegative, got -1",
                     id="seed=-1"),
        pytest.param(["gen", "--seed", "-1", "--out", "{missing}"], 2,
                     "instance seed must be nonnegative, got -1", id="gen-seed=-1"),
        pytest.param(["solve", "--solver", "acrcd", "--seed", "1", "--p", "1",
                      "--solver-seed", "-1"], 2,
                     "rng_seed (solver_seed in a config) must be nonnegative, got -1",
                     id="solver-seed=-1"),
        pytest.param(["solve", "--seed", "1", "--topology", "erdos-renyi 0.5 -1"], 2,
                     "erdos-renyi seed must be nonnegative, got -1", id="erdos-renyi-seed=-1"),
        pytest.param(["gen", "--seed", "1", "--m", "-1", "--out", "{missing}"], 2,
                     "dimensions m, n, d must be positive", id="gen-m=-1"),
        pytest.param(["gen", "--seed", "1", "--m", "0", "--out", "{missing}"], 2,
                     "dimensions m, n, d must be positive", id="gen-m=0"),
        pytest.param(["gen", "--m", "2", "--out", "{missing}"], 2,
                     "a generator seed is required", id="gen-no-seed"),
        pytest.param(["solve", "--seed", "1", "--topology", "erdos-renyi 0.5 1.5"], 2,
                     "bad arguments in topology spec 'erdos-renyi 0.5 1.5'; "
                     "erdos-renyi takes: p seed", id="erdos-renyi-seed=1.5"),
        pytest.param(["solve", "--seed", "1", "--topology", "erdos-renyi half 1"], 2,
                     "bad arguments in topology spec 'erdos-renyi half 1'; "
                     "erdos-renyi takes: p seed", id="erdos-renyi-p=half"),
    ])
    def test_edge_input_outcome(self, argv, code, message, tmp_path, capsys):
        """Each edge input ends in its documented exit code and message."""
        trace = tmp_path / "t.csv"
        ed.save_trace(synthetic_trace([1.0, 0.5]), trace)
        p15 = tmp_path / "p15.txt"  # a well-formed instance file with p = 1.5
        p15.write_text("2 1 2 1.5 0.5\n1.0,0.0,0.5\n0.0,1.0,0.5\n")
        paths = {"missing": str(tmp_path / "missing.csv"), "trace": str(trace),
                 "p15": str(p15), "dir": str(tmp_path), "out": str(tmp_path / "out")}
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err
        assert ("config error" if code == 2 else "numeric failure") in err
        assert message.format(**paths) in err
        assert "Traceback" not in err
        assert not (tmp_path / "missing.csv").exists()  # gen writes no file
        assert not (tmp_path / "out").exists()  # solve makes no output directory

    def test_compare_command(self, capsys):
        code = main(["compare", "--seed", "3", "--m", "3", "--n", "2", "--d", "3",
                     "--p", "1", "--solver-seed", "5", "--max-iter", "200",
                     "--trace-every", "100", "--solvers", "stm,acrcd,subgradient"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].startswith("solver")
        for name in ("stm", "acrcd", "subgradient"):
            assert name in text

    def test_compare_rejects_empty_solver_list(self, capsys):
        code = main(["compare", "--seed", "3", "--solvers", ","])
        assert code == 2
        assert "no solvers" in capsys.readouterr().err
