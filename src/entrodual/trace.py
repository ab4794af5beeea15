"""Iteration traces, the observed solver loop, CSV round-tripping, and
convergence-rate fitting."""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

TRACE_COLUMNS = (
    "iter",
    "dual_obj",
    "primal_obj",
    "gap",
    "consensus_residual",
    "n_comm",
    "n_comp",
    "wall_ms",
)
_INT_COLUMNS = {"iter", "n_comm", "n_comp"}


@dataclass
class SolverTrace:
    """Per-iteration solver record with communication/computation counters.

    Iteration numbers must strictly increase and the counters never decrease;
    ``append`` enforces both so loaded traces are revalidated for free.
    ``stop_reason`` says why the run that made the trace stopped ("max_iter"
    or "stall"); it is None for a trace that ``observe`` did not make, such
    as a loaded one.
    """

    iter: list = field(default_factory=list)
    dual_obj: list = field(default_factory=list)
    primal_obj: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    consensus_residual: list = field(default_factory=list)
    n_comm: list = field(default_factory=list)
    n_comp: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    stop_reason: str | None = None

    def append(self, it, dual_obj, primal_obj, gap, consensus_residual,
               n_comm, n_comp, wall_ms=0.0):
        if self.iter and it <= self.iter[-1]:
            raise ValueError(f"iteration {it} does not increase past {self.iter[-1]}")
        if self.n_comm and n_comm < self.n_comm[-1]:
            raise ValueError("communication counter decreased")
        if self.n_comp and n_comp < self.n_comp[-1]:
            raise ValueError("computation counter decreased")
        self.iter.append(int(it))
        self.dual_obj.append(float(dual_obj))
        self.primal_obj.append(float(primal_obj))
        self.gap.append(float(gap))
        self.consensus_residual.append(float(consensus_residual))
        self.n_comm.append(int(n_comm))
        self.n_comp.append(int(n_comp))
        self.wall_ms.append(float(wall_ms))

    def __len__(self):
        return len(self.iter)

    def column(self, name):
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return np.asarray(getattr(self, name))

    def rows(self):
        return list(zip(*(getattr(self, c) for c in TRACE_COLUMNS)))


def check_loop_settings(max_iter, trace_every):
    """Raise ValueError unless max_iter and trace_every are at least 1."""
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if trace_every < 1:
        raise ValueError("trace_every must be positive")


def observe(step, row, max_iter, trace_every=1, timing=False):
    """Run a solver's iterations k = 1..max_iter and return their trace.

    ``step(k)`` takes iteration k and returns None, or a stop reason that
    ends the run after it.  ``row(k)`` gives the current point's row as
    (dual_obj, primal_obj, gap, consensus_residual, n_comm, n_comp).  Rows
    are taken at k = 0, at every ``trace_every``-th k, at max_iter, and at
    the k whose step stopped the run.  ``wall_ms`` counts from the loop's
    start when ``timing`` is on and is 0.0 otherwise.  The trace's
    ``stop_reason`` is the step's reason, else "max_iter".  A max_iter or
    trace_every below 1 raises ValueError (``check_loop_settings``).
    """
    check_loop_settings(max_iter, trace_every)
    trace = SolverTrace(stop_reason="max_iter")
    t0 = time.perf_counter()

    def record(k):
        values = row(k)
        trace.append(k, *values, (time.perf_counter() - t0) * 1e3 if timing else 0.0)

    record(0)
    for k in range(1, max_iter + 1):
        stop = step(k)
        if stop is not None or k % trace_every == 0 or k == max_iter:
            record(k)
        if stop is not None:
            trace.stop_reason = stop
            break
    return trace


_ROW_FORMAT = ",".join("%s" if c in _INT_COLUMNS else "%r" for c in TRACE_COLUMNS) + "\r\n"


def save_trace(trace, path):
    """Write the fixed-header CSV; floats use repr so values round-trip exactly.

    Each row is formatted once, by one ``%`` format whose five float reprs
    are most of a row's cost, into the bytes ``csv.writer`` writes for it:
    no int and no float repr needs quoting, so the fields are joined by
    commas and the row ends in CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for row in trace.rows():
            fh.write(_ROW_FORMAT % row)


def load_trace(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}: bad trace header {header!r}")
        trace = SolverTrace()
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields")
            try:
                values = [
                    int(v) if c in _INT_COLUMNS else float(v)
                    for c, v in zip(TRACE_COLUMNS, row)
                ]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
            trace.append(*values)
    return trace


@dataclass(frozen=True)
class RateReport:
    """Power-law fit log(err) ~ slope * log(k) + intercept over a window."""

    slope: float
    intercept: float
    window: tuple
    r_squared: float


def fit_rate(trace, error_column="dual_obj", window=(10, 500), f_star=0.0):
    """Least-squares slope of log(F_k - f_star) against log k.

    Rows outside the window, at iteration 0, with a non-finite value (the
    infinite objective or gap of an infeasible s), or with nonpositive error
    (already converged past f_star) are dropped; if fewer than two usable
    rows remain the window is saturated and a ValueError is raised.
    """
    ks = trace.column("iter").astype(float)
    vals = trace.column(error_column)
    lo, hi = window
    mask = (ks >= lo) & (ks <= hi) & (ks > 0) & np.isfinite(vals)
    ks, errs = ks[mask], vals[mask] - f_star
    keep = errs > 0.0
    if int(keep.sum()) < 2:
        raise ValueError(
            f"window [{lo}, {hi}] is saturated: fewer than two rows with "
            "finite positive error remain"
        )
    x = np.log(ks[keep])
    y = np.log(errs[keep])
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(residual @ residual) / ss_tot
    used = (int(ks[keep].min()), int(ks[keep].max()))
    return RateReport(float(slope), float(intercept), used, min(1.0, max(0.0, r2)))
