"""Exceptions shared by the solvers and the command-line harness."""


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI maps it, like every
    ValueError, to exit code 2."""


class NumericFailure(RuntimeError):
    """Solver produced non-finite or diverging values; CLI exit code 3."""
