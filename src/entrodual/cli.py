"""Command-line interface: gen, solve, rate, compare.

Exit codes: 0 on success, 2 for configuration problems (including NaN
settings, input or output paths that cannot be read or written, and
dimensions too large to allocate), 3 for
numeric failures inside a solver (including overflow and other
ArithmeticErrors).
"""

import argparse
import sys

from .errors import ConfigError, NumericFailure
from .harness import (
    CONFIG_TYPES,
    SOLVERS,
    ExperimentConfig,
    compare_solvers,
    comparison_table,
    load_config,
    merge_config,
    run_experiment,
)
from .problem import check_data, generate_instance, instance_checksum, save_instance
from .trace import TRACE_COLUMNS, fit_rate, load_trace

# Safety margin subtracted from a reference run's best value when it stands
# in for the unknown optimum.
REFERENCE_MARGIN = 1e-12


# Help texts of the flags that have one; every other config flag is bare.
_FLAG_HELP = {
    "config": "flat key=value config file",
    "topology": "generator spec or file:<path>",
    "instance": "instance file to load instead of generating",
    "seed": "instance generator seed",
    "p": "loss exponent: 1 (box mode) or 2 (penalised mode)",
    "timing": "record wall times (makes traces run-dependent)",
    "out": "output directory",
}


# The ExperimentConfig keys that describe a generated instance: gen's flags.
_GEN_KEYS = ("seed", "m", "n", "d", "p", "theta", "scale")


def _add_config_flags(sub, keys=None):
    """--config, then one --key flag per ExperimentConfig key (underscores
    become dashes); with ``keys``, only those keys' flags and no --config.
    Each defaults to None so that unset flags override nothing."""
    if keys is None:
        sub.add_argument("--config", help=_FLAG_HELP["config"])
    for key in keys or CONFIG_TYPES:
        kind = CONFIG_TYPES[key]
        flag, help_text = "--" + key.replace("_", "-"), _FLAG_HELP.get(key)
        if kind is bool:
            sub.add_argument(flag, dest=key, action="store_const", const=True,
                             default=None, help=help_text)
        else:
            sub.add_argument(flag, dest=key, help=help_text,
                             type=None if kind is str else kind,
                             choices=SOLVERS if key == "solver" else None)


def _config_from_args(args):
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return merge_config(cfg, {key: getattr(args, key) for key in CONFIG_TYPES})


def _cmd_gen(args):
    cfg = merge_config(ExperimentConfig(), {key: getattr(args, key) for key in _GEN_KEYS})
    cfg.validate()
    inst = generate_instance(cfg.seed, cfg.m, cfg.n, cfg.d, cfg.p, cfg.theta, cfg.scale)
    check_data(inst)  # an all-zero instance is one that no solver accepts
    save_instance(inst, args.out)
    print(f"wrote {args.out} (checksum {instance_checksum(inst)})")
    return 0


def _cmd_solve(args):
    cfg = _config_from_args(args)
    summary, _ = run_experiment(cfg)
    for key in ("solver", "iters", "final_dual_obj", "final_primal_obj",
                "final_gap", "final_consensus_residual", "n_comm", "n_comp"):
        if key in summary:
            print(f"{key}={summary[key]}")
    if cfg.out:
        print(f"artifacts in {cfg.out}")
    return 0


def _cmd_rate(args):
    trace = load_trace(args.trace)
    if args.fstar is not None:
        f_star = args.fstar
    elif args.ref is not None:
        ref = load_trace(args.ref)
        f_star = min(ref.column(args.column)) - REFERENCE_MARGIN
    else:
        raise ConfigError("rate needs --fstar or --ref")
    report = fit_rate(trace, args.column, (args.kmin, args.kmax), f_star)
    print(f"slope={report.slope!r}")
    print(f"intercept={report.intercept!r}")
    print(f"window={report.window[0]}..{report.window[1]}")
    print(f"r_squared={report.r_squared!r}")
    return 0


def _cmd_compare(args):
    cfg = _config_from_args(args)
    solvers = [name.strip() for name in args.solvers.split(",") if name.strip()]
    if not solvers:
        raise ConfigError("no solvers listed")
    results = compare_solvers(cfg, solvers)
    print(comparison_table(results))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entrodual",
        description="Dual decomposition solvers for entropy-regularized "
                    "p-norm fitting over networks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a random instance file")
    _add_config_flags(gen, _GEN_KEYS)
    gen.add_argument("--out", required=True, help="instance file to write")
    gen.set_defaults(func=_cmd_gen)

    solve = commands.add_parser("solve", help="run one configured experiment")
    _add_config_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    rate = commands.add_parser("rate", help="fit a power-law rate to a trace")
    rate.add_argument("--trace", required=True)
    rate.add_argument("--column", default="dual_obj", choices=TRACE_COLUMNS)
    rate.add_argument("--kmin", type=int, default=10)
    rate.add_argument("--kmax", type=int, default=500)
    rate.add_argument("--fstar", type=float)
    rate.add_argument("--ref", help="reference trace; its best value stands in for F*")
    rate.set_defaults(func=_cmd_rate)

    compare = commands.add_parser("compare", help="run several solvers on one instance")
    _add_config_flags(compare)
    compare.add_argument("--solvers", default="stm,subgradient",
                         help="comma-separated solver list")
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
