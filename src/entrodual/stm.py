"""Similar-triangles accelerated proximal method on the composite dual.

Each iteration forms the coupling point y, takes a single gradient of the
smooth part H there, and applies the prox of the regularizer:

    alpha_{k+1}:  L alpha^2 = A_k + alpha,   A_{k+1} = A_k + alpha
    y^{k+1} = (alpha u^k + A_k q^k) / A_{k+1}
    u^{k+1} = prox_{alpha R}[u^k - alpha grad H(y^{k+1})]
    q^{k+1} = (alpha u^{k+1} + A_k q^k) / A_{k+1}

The dual here is smooth and convex but not strongly convex, so this is the
plain scheme: the first step is alpha_1 = 1/L, and the objective decays as
O(L R^2 / k^2).

The state is A_k (alpha is recomputed from it) and two float64 buffers,
the iterates q and u, each [z | s | T]: every iterate carries its link
T = -(Wz + A^T s), flattened.  T is linear in (z, s), so y and q^{k+1} are
each one fused combination a u + c q of whole buffers; only u^{k+1}, which the
nonlinear prox produces, has its link formed from scratch.  A step
allocates three buffers (y, u, q) and the temporaries of the gradient and
of u's link.  It applies W twice (in u's link and in grad_z H = -W xhat),
A^T once (in u's link) and A once (in grad_s H = b - A xhat).  It makes
one pass of the row kernel ``dual._rows_shifted_exp``, the softmax xhat at
y, and that pass also yields the log-sum-exp from which run_stm's stall and
divergence checks read the objective F(y).  A trace row adds one more pass
and one more W product: ``duality_gap`` at q, whose single pass yields both
softmax and log-sum-exp, and whose consensus residual applies W.  The row's
objective F(q) is the certificate's H, plus nu ||s||_2^2 in the penalised
mode, equal bit for bit to ``dual_objective`` at q; only a q whose s lies
outside the dual ball, where H is infinite, takes F(q) from the pass's
log-sum-exp by ``objective_from_lse`` instead.  ``stm_step`` takes grad H,
the prox of alpha R and the link as callables; ``run_stm`` builds them from
the instance, whose p fixes R: the box constraint at p = 1, the penalty
nu ||s||_2^2 at p = 2.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dual import (
    DualState,
    _neg_link,
    default_regularizer_weight,
    dual_gradient,
    dual_objective,
    lipschitz_constants,
    objective_from_lse,
    regularizer,
)
from .errors import NumericFailure
from .prox import prox_R
from .recovery import duality_gap
from .trace import observe

STALL_WINDOW = 50
STALL_RTOL = 1e-14
DIVERGENCE_FACTOR = 1e3
COUPLING_RTOL = 1e-10


@dataclass
class STMConfig:
    """Solver knobs; an unset L is resolved from the problem at run time.

    L defaults to the global dual Lipschitz bound.  R's exponent q is the
    instance's, and its penalty weight nu is worked out from target_eps
    (``default_regularizer_weight``, which also checks it), never set.
    ``observe`` checks the loop settings max_iter and trace_every.
    """

    L: float | None = None
    max_iter: int = 1000
    target_eps: float = 1e-4
    trace_every: int = 1
    timing: bool = False

    def __post_init__(self):
        # written so that NaN fails the check
        if self.L is not None and not self.L > 0.0:
            raise ValueError("L must be positive")


@dataclass
class STMState:
    """The accumulated step weight A_k and the iterates q and u.

    Each iterate is one flat buffer [z | s | T] and always carries its link
    T; ``layout`` is (len(z), len(s), shape of T).  ``q`` and ``u`` view the
    buffers as DualStates.
    """

    A_k: float
    q_buf: np.ndarray
    u_buf: np.ndarray
    layout: tuple

    def view(self, buf):
        """``buf`` as a DualState whose z, s and link are views into it."""
        nz, ns, link_shape = self.layout
        return DualState(buf[:nz], buf[nz:nz + ns], buf[nz + ns:].reshape(link_shape))

    q = property(lambda self: self.view(self.q_buf))
    u = property(lambda self: self.view(self.u_buf))


def stm_init(q0):
    """Start with u and q at the DualState q0 and its link."""
    buf = np.concatenate((q0.z, q0.s, q0.link.reshape(-1)))
    return STMState(0.0, buf, buf.copy(), (q0.z.size, q0.s.size, q0.link.shape))


def stm_step(state, cfg, grad, prox, link):
    """Advance one iteration using exactly one gradient evaluation.

    Parameters
    ----------
    state : STMState
    cfg : STMConfig
        Must have a numeric L, the only setting the step reads.
    grad : callable
        Maps y, a DualState viewing y's buffer with its link, to the
        gradient of H there as (g_z, g_s).
    prox : callable
        ``prox(s, alpha)`` overwrites the s block with prox_{alpha R}(s).
    link : callable
        ``link(z, s, out)`` writes the link of (z, s) into the array
        ``out`` of the layout's link shape; it fills in the new u's link.

    Returns
    -------
    STMState
        The advanced state in new buffers; ``state`` is not modified.
    """
    if cfg.L is None:
        raise ValueError("stm_step needs a resolved config (L)")
    nz, ns, link_shape = state.layout
    alpha = (1.0 + math.sqrt(1.0 + 4.0 * cfg.L * state.A_k)) / (2.0 * cfg.L)
    A_new = state.A_k + alpha
    lhs = cfg.L * alpha * alpha
    if abs(lhs - A_new) > COUPLING_RTOL * max(1.0, abs(lhs)):
        raise ArithmeticError("step-size recurrence lost precision")
    a, c = alpha / A_new, state.A_k / A_new
    y = a * state.u_buf + c * state.q_buf
    g_z, g_s = grad(state.view(y))
    u = np.empty_like(y)
    z, s = u[:nz], u[nz:nz + ns]
    np.subtract(state.u_buf[:nz], np.multiply(g_z, alpha, out=z), out=z)
    np.subtract(state.u_buf[nz:nz + ns], np.multiply(g_s, alpha, out=s), out=s)
    prox(s, alpha)
    link(z, s, u[nz + ns:].reshape(link_shape))
    q = a * u + c * state.q_buf
    return STMState(A_new, q, u, state.layout)


def resolve_config(cfg, inst, W):
    """Fill an unset L from the problem: the global dual Lipschitz bound."""
    if cfg.L is not None:
        return cfg
    return replace(cfg, L=lipschitz_constants(inst, W).L_H)


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
        and the counters; metric evaluations are observer-side and bill
        nothing, so n_comm = n_comp = k (one gradient, so one gossip exchange
        and one local pass, per iteration).

    Stops at max_iter, or earlier once the running best objective has not
    improved by STALL_RTOL (relative) for STALL_WINDOW iterations; the
    trace's ``stop_reason`` says which.  The stall and divergence checks read
    F(y), the objective at the point whose gradient the step took, from that
    gradient's own kernel pass; the trace rows report F(q).  Raises
    NumericFailure on divergence or non-finite iterates.
    """
    cfg = resolve_config(cfg if cfg is not None else STMConfig(), inst, W)
    nu = default_regularizer_weight(inst, cfg.target_eps)
    qe = inst.q_exponent  # R's exponent, the conjugate of the instance's p
    box = math.isinf(qe)
    lse = np.empty(inst.m)
    value_at_y = math.nan

    def objective_at(s):
        # H + R at the point whose row log-sum-exp the last kernel pass left in lse
        return objective_from_lse(s, lse, inst, nu)

    def grad(ds):
        # the softmax's kernel pass also yields F(y)
        nonlocal value_at_y
        g = dual_gradient(ds, inst, W, lse=lse)
        value_at_y = objective_at(ds.s)
        return g

    def prox(s, alpha):
        prox_R(s, alpha, nu, qe, out=s)

    def link(z, s, out):
        _neg_link(inst, W, z, s, out)

    origin = np.zeros(inst.m * inst.d), np.zeros(inst.m * inst.n)
    state = stm_init(DualState.of(inst, W, *origin))
    f0 = dual_objective(state.q, inst, W, nu)
    best, last_improvement = f0, 0

    def step(k):
        nonlocal state, best, last_improvement
        state = stm_step(state, cfg, grad, prox, link)
        # z, s and the carried link in one pass over q's buffer
        if not np.isfinite(state.q_buf).all():
            raise NumericFailure(f"non-finite iterate at iteration {k}")
        value = value_at_y
        if not math.isfinite(value):
            raise NumericFailure(f"non-finite objective at iteration {k}")
        if value - f0 > DIVERGENCE_FACTOR * max(1.0, abs(f0)):
            raise NumericFailure(
                f"objective diverged: {value:.6e} from initial {f0:.6e}"
            )
        if best - value > STALL_RTOL * max(1.0, abs(best)):
            best, last_improvement = value, k
        return "stall" if k - last_improvement >= STALL_WINDOW else None

    def row(k):
        q = state.q
        rep = duality_gap(q, inst, W, lse)
        # F(q) from the certificate's H, which is finite only for a feasible
        # s; otherwise from the pass it left in lse (raises in box mode)
        h = rep.dual_value
        if not math.isfinite(h):
            value = objective_at(q.s)
        elif box:
            value = h
        else:
            value = h + regularizer(q.s, nu)
        return value, rep.primal_value / inst.m, rep.gap, rep.consensus_residual, k, k

    trace = observe(step, row, cfg.max_iter, cfg.trace_every, cfg.timing)
    return state.q, trace
