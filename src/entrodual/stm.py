"""Similar-triangles accelerated proximal method on the composite dual.

Each iteration forms the coupling point y, takes a single gradient of the
smooth part H there, and applies the prox of the regularizer:

    alpha_{k+1}:  L alpha^2 = (A_k + alpha)(1 + mu A_k),   A_{k+1} = A_k + alpha
    y^{k+1} = (alpha u^k + A_k q^k) / A_{k+1}
    u^{k+1} = prox_{gamma R}[mu gamma y + (1 - mu gamma) u - gamma grad H(y)],
              gamma = alpha / (1 + mu A_{k+1})
    q^{k+1} = (alpha u^{k+1} + A_k q^k) / A_{k+1}

With mu = 0 (the dual here is convex but not strongly so) the first step is
alpha_1 = 1/L and the scheme reduces to the classical accelerated prox
method with O(L R^2 / k^2) decay.

Each iterate is one float64 buffer [z | s | T], T the carried link
-(Wz + A^T s) flattened.  T is linear in (z, s), so y and q^{k+1} are each
one fused combination a u + c q of whole buffers; only u^{k+1}, which the
nonlinear prox produces, has its link formed from scratch.  A step
allocates three buffers (y, u, q) and the temporaries of the gradient and
of u's link.  It applies W twice (in u's link and in grad_z H = -W xhat),
A^T once (in u's link) and A once (in grad_s H = b - A xhat); the stall
check and the trace rows read q's link.  It also makes two passes of the
row kernel ``dual._rows_shifted_exp``: the softmax xhat at y and the
log-sum-exp of the stall-check objective at q.  A trace row adds one more
(``duality_gap``, whose single pass yields both softmax and log-sum-exp).
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dual import (
    DualState,
    _neg_link,
    default_regularizer_weight,
    dual_gradient,
    dual_objective,
    lipschitz_constants,
)
from .errors import NumericFailure
from .prox import prox_R
from .recovery import duality_gap
from .trace import SolverTrace

STALL_WINDOW = 50
STALL_RTOL = 1e-14
DIVERGENCE_FACTOR = 1e3
COUPLING_RTOL = 1e-10


@dataclass
class STMConfig:
    """Solver knobs; unset entries are resolved from the problem at run time.

    L defaults to the global dual Lipschitz bound, nu to the accuracy-scaled
    penalty weight (0 in the hard-constrained q = inf mode), q_exponent to
    the conjugate of the instance's p.
    """

    L: float | None = None
    mu: float = 0.0
    max_iter: int = 1000
    target_eps: float = 1e-4
    nu: float | None = None
    q_exponent: float | None = None
    prox_tol: float = 1e-12
    trace_every: int = 1
    timing: bool = False

    def __post_init__(self):
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class STMState:
    """The accumulated step weights and the iterates q and u.

    Each iterate is one flat buffer [z | s | T]; ``layout`` is
    (len(z), len(s), shape of T), the shape None when the buffers carry no
    link.  ``q`` and ``u`` view the buffers as DualStates.
    """

    A_k: float
    alpha_k: float
    q_buf: np.ndarray
    u_buf: np.ndarray
    layout: tuple
    k: int = 0

    def view(self, buf):
        """``buf`` as a DualState whose z, s and link are views into it."""
        nz, ns, link_shape = self.layout
        link = None if link_shape is None else buf[nz + ns:].reshape(link_shape)
        return DualState(buf[:nz], buf[nz:nz + ns], link)

    q = property(lambda self: self.view(self.q_buf))
    u = property(lambda self: self.view(self.u_buf))


def stm_init(q0):
    """Start with u and q at the DualState q0, and its link if it carries one."""
    if q0.link is None:
        buf, link_shape = np.concatenate((q0.z, q0.s)), None
    else:
        buf, link_shape = np.concatenate((q0.z, q0.s, q0.link.reshape(-1))), q0.link.shape
    return STMState(0.0, 0.0, buf, buf.copy(), (q0.z.size, q0.s.size, link_shape))


def stm_step(state, cfg, grad, link=None):
    """Advance one iteration using exactly one gradient evaluation.

    Parameters
    ----------
    state : STMState
    cfg : STMConfig
        Must be fully resolved: numeric L, nu and q_exponent.
    grad : callable
        Maps y, a DualState viewing y's buffer (with its link when the
        buffers carry one), to the gradient of H there as (g_z, g_s).
    link : callable, optional
        ``link(z, s, out)`` writes the link of (z, s) into the (m, d) array
        ``out``; required when the buffers carry a link, which it fills in
        for the new u.

    Returns
    -------
    STMState
        The advanced state in new buffers; ``state`` is not modified.
    """
    if cfg.L is None or cfg.nu is None or cfg.q_exponent is None:
        raise ValueError("stm_step needs a resolved config (L, nu, q_exponent)")
    nz, ns, link_shape = state.layout
    if link_shape is not None and link is None:
        raise ValueError("iterates that carry their link need a link callable")
    one = 1.0 + cfg.mu * state.A_k
    alpha = (one + math.sqrt(one * one + 4.0 * cfg.L * state.A_k * one)) / (2.0 * cfg.L)
    lhs = cfg.L * alpha * alpha
    rhs = (state.A_k + alpha) * one
    if abs(lhs - rhs) > COUPLING_RTOL * max(1.0, abs(lhs)):
        raise ArithmeticError("step-size recurrence lost precision")
    A_new = state.A_k + alpha
    a, c = alpha / A_new, state.A_k / A_new
    y = a * state.u_buf + c * state.q_buf
    g_z, g_s = grad(state.view(y))
    gamma = alpha / (1.0 + cfg.mu * A_new)
    lam = cfg.mu * gamma
    # lam y + (1 - lam) u, which is u itself when mu = 0
    base = state.u_buf if lam == 0.0 else lam * y + (1.0 - lam) * state.u_buf
    u = np.empty_like(y)
    z, s = u[:nz], u[nz:nz + ns]
    np.subtract(base[:nz], np.multiply(g_z, gamma, out=z), out=z)
    np.subtract(base[nz:nz + ns], np.multiply(g_s, gamma, out=s), out=s)
    prox_R(s, gamma, cfg.nu, cfg.q_exponent, cfg.prox_tol, out=s)
    if link_shape is not None:
        link(z, s, u[nz + ns:].reshape(link_shape))
    q = a * u + c * state.q_buf
    return STMState(A_new, alpha, q, u, state.layout, state.k + 1)


def resolve_config(cfg, inst, W):
    """Fill unset solver knobs from the problem: L, q_exponent, nu."""
    L = cfg.L
    if L is None:
        L = lipschitz_constants(inst, W).L_H
    qe = cfg.q_exponent if cfg.q_exponent is not None else inst.q_exponent
    nu = cfg.nu
    if nu is None:
        nu = 0.0 if math.isinf(qe) else default_regularizer_weight(inst, cfg.target_eps, qe)
    return replace(cfg, L=L, q_exponent=qe, nu=nu)


def run_stm(inst, W, cfg=None):
    """Minimize the composite dual from the origin.

    Parameters
    ----------
    inst : ProblemInstance
    W : GossipMatrix
    cfg : STMConfig, optional

    Returns
    -------
    (DualState, SolverTrace)
        Final iterate q^k and the per-iteration trace.  Row k of the trace
        records the composite objective at q^k, the recovered primal metrics,
        and the counters; metric evaluations are observer-side and do not
        bill communication, so n_comm equals the iteration index (one gossip
        exchange per gradient).

    Stops at max_iter, or earlier once the running best objective has not
    improved by STALL_RTOL (relative) for STALL_WINDOW iterations.  Raises
    NumericFailure on divergence or non-finite iterates.
    """
    cfg = resolve_config(cfg if cfg is not None else STMConfig(), inst, W)
    counters = {"comm": 0, "comp": 0}

    def grad(ds):
        # one gossip exchange and one local pass per evaluation
        counters["comm"] += 1
        counters["comp"] += 1
        return dual_gradient(ds, inst, W)

    def link(z, s, out):
        _neg_link(inst, W, z, s, out)

    def objective(ds):
        return dual_objective(ds, inst, W, cfg.nu, cfg.q_exponent)

    t0 = time.perf_counter()

    def record(trace, k, value):
        rep = duality_gap(state.q, inst, W)
        wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0
        trace.append(k, value, rep.primal_value / inst.m, rep.gap,
                     rep.consensus_residual, counters["comm"], counters["comp"], wall)

    q0 = DualState.zeros(inst)
    q0.link = _neg_link(inst, W, q0.z, q0.s)
    state = stm_init(q0)
    trace = SolverTrace()
    f0 = objective(state.q)
    best = f0
    last_improvement = 0
    record(trace, 0, f0)
    for _ in range(cfg.max_iter):
        state = stm_step(state, cfg, grad, link)
        # z, s and the carried link in one pass over q's buffer
        if not np.isfinite(state.q_buf).all():
            raise NumericFailure(f"non-finite iterate at iteration {state.k}")
        value = objective(state.q)
        if not math.isfinite(value):
            raise NumericFailure(f"non-finite objective at iteration {state.k}")
        if value - f0 > DIVERGENCE_FACTOR * max(1.0, abs(f0)):
            raise NumericFailure(
                f"objective diverged: {value:.6e} from initial {f0:.6e}"
            )
        if best - value > STALL_RTOL * max(1.0, abs(best)):
            best = value
            last_improvement = state.k
        if state.k % cfg.trace_every == 0 or state.k == cfg.max_iter:
            record(trace, state.k, value)
        if state.k - last_improvement >= STALL_WINDOW:
            if trace.iter[-1] != state.k:
                record(trace, state.k, value)
            break
    return state.q, trace
