"""Experiment configuration, end-to-end runs, and summaries.

A run is described by a flat key=value config (or equivalent keyword
arguments): the topology, the instance (generated from a seed or loaded from
a file), the solver, and its knobs.  ``run_experiment`` wires everything,
writes ``trace.csv`` and ``summary.txt`` into the output directory, and
returns the summary mapping.  Traces are byte-reproducible by default; wall
times are only measured when timing is switched on.

The summary says why the run stopped and when it first certified the target
accuracy: ``stop_reason`` is the trace's (``max_iter``, or ``stall`` when
STM's stall stop ended the run); ``iters_to_eps`` and ``rounds_to_eps`` are
the iteration and the n_comm of the first trace row whose finite gap is at
most target_eps, so they are read at the trace stride, and both are
``none`` (NOT_REACHED) when no row gets there.
"""

import dataclasses
import math
import os
import typing
from dataclasses import dataclass

from .acrcd import ACRCDConfig, check_p, run_acrcd
from .baseline import subgradient_baseline
from .dual import default_regularizer_weight, lipschitz_constants
from .errors import ConfigError
from .network import build_laplacian, load_topology, make_topology
from .problem import data_constants, generate_instance, instance_checksum, load_instance
from .recovery import duality_gap
from .recovery import primal_from_dual  # unused here; perfbench's spans wrap it
from .stm import STMConfig, resolve_config, run_stm
from .trace import check_loop_settings, save_trace

SOLVERS = ("stm", "acrcd", "subgradient")
# iters_to_eps and rounds_to_eps of a run whose gap never reaches target_eps
NOT_REACHED = "none"


@dataclass
class ExperimentConfig:
    """Flat description of one experiment; mirrors the config-file keys."""

    solver: str = "stm"
    topology: str = "ring"
    instance: str | None = None
    m: int = 4
    n: int = 3
    d: int = 5
    p: float = 2.0
    theta: float = 0.5
    seed: int | None = None
    scale: float = 1.0
    max_iter: int = 2000
    target_eps: float = 1e-4
    solver_seed: int | None = None
    trace_every: int = 1
    timing: bool = False
    out: str | None = None

    def validate(self):
        """Check the rules that only the harness sees; every other rule is
        checked once, by the object that every run passes through."""
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        if self.instance is None and self.seed is None:
            raise ConfigError("a generator seed is required when no instance file is given")
        # numpy rejects a negative shape before ProblemInstance could name it
        if self.instance is None and min(self.m, self.n, self.d) < 1:
            raise ConfigError("dimensions m, n, d must be positive")
        # run_stm checks target_eps itself; acrcd and subgradient never read
        # it, only first_certified below does
        if not 0.0 < self.target_eps < math.inf:  # NaN fails too
            raise ConfigError("target accuracy must be positive and finite")
        return self


def _value_type(annotation):
    """int, float, bool or str: the annotation with an optional None dropped."""
    kinds = [t for t in typing.get_args(annotation) if t is not type(None)]
    return kinds[0] if kinds else annotation


# The config schema: every ExperimentConfig key, in field order, with the type
# its value takes in a config file and on the command line.
CONFIG_TYPES = {f.name: _value_type(f.type) for f in dataclasses.fields(ExperimentConfig)}
_BOOL_TRUE = {"on", "true", "yes", "1"}
_BOOL_FALSE = {"off", "false", "no", "0"}


def _coerce(key, raw, where=""):
    raw = raw.strip()
    if raw == "":
        return None
    kind = CONFIG_TYPES[key]
    try:
        if kind is bool:
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}bad value {raw!r} for key {key!r}") from None


def load_config(path):
    """Parse a flat key=value file ('#' starts a comment) into a config."""
    values = {}
    try:
        with open(path) as fh:
            lines = list(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        coerced = _coerce(key, raw, where=f"{path}:{lineno}: ")
        if coerced is not None:
            values[key] = coerced
    return ExperimentConfig(**values)


def merge_config(cfg, overrides):
    """New config with non-None override values applied on top of cfg."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(updates) - CONFIG_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return dataclasses.replace(cfg, **updates)


def _build_topology(cfg, m):
    if cfg.topology.startswith("file:"):
        return load_topology(cfg.topology[len("file:"):])
    return make_topology(cfg.topology, m)


def _load_or_generate(cfg):
    if cfg.instance is not None:
        return load_instance(cfg.instance)
    return generate_instance(cfg.seed, cfg.m, cfg.n, cfg.d, cfg.p, cfg.theta, cfg.scale)


def run_experiment(cfg):
    """Run one configured experiment; returns (summary dict, trace).

    When cfg.out is set, trace.csv and summary.txt are written there.
    """
    cfg.validate()
    # the loop and solver settings fail here, before the instance and W are built
    check_loop_settings(cfg.max_iter, cfg.trace_every)
    if cfg.solver == "stm":
        solver_cfg = STMConfig(max_iter=cfg.max_iter, target_eps=cfg.target_eps,
                               trace_every=cfg.trace_every, timing=cfg.timing)
    elif cfg.solver == "acrcd":
        solver_cfg = ACRCDConfig(rng_seed=cfg.solver_seed, max_iter=cfg.max_iter,
                                 trace_every=cfg.trace_every, timing=cfg.timing)
    inst = _load_or_generate(cfg)
    if cfg.solver == "acrcd":
        check_p(inst)  # the instance's rule, checked before the topology's spectrum
    topology = _build_topology(cfg, inst.m)
    if topology.m != inst.m:
        raise ConfigError(
            f"topology has {topology.m} nodes but the instance has {inst.m}"
        )
    W = build_laplacian(topology)
    summary = {
        "solver": cfg.solver,
        "m": inst.m,
        "n": inst.n,
        "d": inst.d,
        "p": inst.p,
        "theta": inst.theta,
        "checksum": instance_checksum(inst),
        "lambda_max": W.lambda_max,
        "lambda_min_plus": W.lambda_min_plus,
        "chi": W.chi,
    }
    dc = data_constants(inst)
    summary["sigma_max"] = dc.sigma_max_A
    summary["sigma_min_plus"] = dc.sigma_min_plus_A

    final_state = None
    if cfg.solver == "stm":
        scfg = resolve_config(solver_cfg, inst, W)
        final_state, trace = run_stm(inst, W, scfg)
        summary["nu"] = default_regularizer_weight(inst, cfg.target_eps)
        summary["q_exponent"] = inst.q_exponent
    elif cfg.solver == "acrcd":
        final_state, trace = run_acrcd(inst, W, solver_cfg)
    else:
        trace = subgradient_baseline(inst, W, cfg.max_iter, trace_every=cfg.trace_every,
                                     timing=cfg.timing)

    consts = lipschitz_constants(inst, W)
    summary["L_H"] = consts.L_H
    summary["L_z"] = consts.L_z
    summary["L_s"] = consts.L_s
    summary["eta"] = consts.eta
    if final_state is not None:
        rep = duality_gap(final_state, inst, W)
        summary["final_gap"] = rep.gap
        summary["final_dual_certificate"] = rep.dual_value
    summary["iters"] = trace.iter[-1]
    summary["final_dual_obj"] = trace.dual_obj[-1]
    summary["final_primal_obj"] = trace.primal_obj[-1]
    summary["final_consensus_residual"] = trace.consensus_residual[-1]
    summary["n_comm"] = trace.n_comm[-1]
    summary["n_comp"] = trace.n_comp[-1]
    summary["stop_reason"] = trace.stop_reason
    summary["iters_to_eps"], summary["rounds_to_eps"] = first_certified(trace, cfg.target_eps)

    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)
        save_trace(trace, os.path.join(cfg.out, "trace.csv"))
        write_summary(os.path.join(cfg.out, "summary.txt"), summary)
    return summary, trace


def first_certified(trace, eps):
    """(iteration, n_comm) of the first trace row with a finite gap <= eps,
    else (NOT_REACHED, NOT_REACHED)."""
    for k, gap, comm in zip(trace.iter, trace.gap, trace.n_comm):
        if math.isfinite(gap) and gap <= eps:
            return k, comm
    return NOT_REACHED, NOT_REACHED


def write_summary(path, summary):
    """key=value lines in sorted key order; floats use repr."""
    lines = []
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, float):
            lines.append(f"{key}={float(value)!r}")
        else:
            lines.append(f"{key}={value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def compare_solvers(cfg, solvers):
    """Run several solvers on the identical instance/topology; returns summaries.

    Each solver writes into out/<solver>/ when an output directory is set.
    """
    results = []
    for name in solvers:
        sub = dataclasses.replace(
            cfg, solver=name,
            out=None if cfg.out is None else os.path.join(cfg.out, name),
        )
        summary, _ = run_experiment(sub)
        results.append(summary)
    return results


def comparison_table(results):
    """Plain-text table of the headline metrics per solver."""
    headers = ("solver", "final_dual_obj", "final_primal_obj", "final_gap",
               "n_comm", "n_comp")
    rows = [headers]
    for summary in results:
        rows.append(tuple(_fmt(summary.get(h, "-")) for h in headers))
    widths = [max(len(r[c]) for r in rows) for c in range(len(headers))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
