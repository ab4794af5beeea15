"""Accelerated randomized block-coordinate descent on the hard-constrained dual.

Designed for the p = 1 case, where the dual ball is the box ||s||_inf <= 1
and the two natural blocks (z, s) have very different smoothness.  Each
iteration couples the running pair, flips a coin with probability eta for
the z block, and moves only the sampled block:

    alpha_{k+1} = (k + 2) / 8,   tau_k = 2 / (k + 2)
    (z, s)^{k+1} = tau_k (z_, s_) + (1 - tau_k) (z-, s-)        midpoints
    z branch:  z- <- z - grad_z H / L_z,   z_ <- z_ - 2 alpha grad_z H / L_z
    s branch:  same with L_s and a box projection on both updates

Only the z branch pays a communication round; the s branch is node-local.
Both pairs carry their link images P = W z and Q = A^T s, and the midpoint's
are the same tau-combination, so the midpoint's link -(P + Q) costs no
product.  Only the sampled block's partial gradient is evaluated.  A z step
applies W twice: in grad_z H = -W xhat, and to grad_z H itself, which moves
P with the coefficients that move z.  An s step applies A once, in
grad_s H = b - A xhat, and A^T twice, to form Q afresh after the box
projection; it applies no W.  The candidate objective reads the running
pair's link -(P + Q).  Each iteration of run_acrcd makes two passes of the
row kernel ``dual._rows_shifted_exp``: the softmax xhat at the midpoint and
the log-sum-exp of the candidate objective; a trace row adds one more
(``duality_gap``, whose single pass yields both softmax and log-sum-exp).

Each pair keeps a block and its image in one float64 buffer (``Stacked``),
[z | P] and [s | Q], so the midpoint is two fused combinations.  A step
allocates the two midpoints and two new buffers for the sampled block (plus
the temporaries of its gradient, and of [g | W g] on a z step), passes the
other block's buffers along, and never writes into a buffer it did not make.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dual import (
    DualState,
    check_eta,
    data_image,
    dual_gradient,
    dual_objective,
    gossip_image,
    lipschitz_constants,
)
from .errors import NumericFailure
from .prox import project_box
from .recovery import duality_gap
from .trace import SolverTrace


@dataclass
class ACRCDConfig:
    """Block steps and the sampling coin; unset constants resolve at run time.

    The coin stream comes from a PCG64 generator seeded with rng_seed, one
    uniform draw per iteration, so runs are reproducible bit for bit.
    """

    rng_seed: int
    L_z: float | None = None
    L_s: float | None = None
    eta: float | None = None
    max_iter: int = 10000
    trace_every: int = 1
    timing: bool = False

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.eta is not None:
            check_eta(self.eta, self.L_z, self.L_s)


class BlockOracle:
    """The dual of one instance as a step sees it: the sampled block's partial
    gradient at a point that carries its link, and the link images of z and s."""

    def __init__(self, inst, W):
        self.inst = inst
        self.W = W

    def partial(self, point, take_z):
        """grad_z H (one gossip product) or grad_s H (local) at ``point``."""
        g_z, g_s = dual_gradient(point, self.inst, self.W, "z" if take_z else "s")
        return g_z if take_z else g_s

    def gossip(self, z):
        """P = W z as an (m, d) array: one gossip product."""
        return gossip_image(self.inst, self.W, z)

    def adjoint(self, s, out=None):
        """Q = A^T s as an (m, d) array, written into ``out`` when given: local."""
        return data_image(self.inst, s, out)


class Stacked:
    """A dual block x and its link image in one buffer ``buf`` = [x | image].

    ``x`` and ``image`` are views into ``buf``, made once, so a state that
    passes the block along passes the same arrays.
    """

    __slots__ = ("buf", "x", "image")

    def __init__(self, buf, n, shape):
        self.buf = buf
        self.x = buf[:n]
        self.image = buf[n:].reshape(shape)

    @classmethod
    def of(cls, x, image):
        """A new buffer holding copies of x and image."""
        return cls(np.concatenate((x, image.reshape(-1))), x.size, image.shape)

    def like(self, buf):
        """``buf`` laid out as this block."""
        return Stacked(buf, self.x.size, self.image.shape)


@dataclass
class ACRCDState:
    """Running pair (bar), momentum pair (under) and the last midpoints; each
    pair's blocks as [z | P] and [s | Q] buffers, which ``z_bar``, ``P_bar``,
    ``s_under`` and the rest view."""

    zP_bar: Stacked
    zP_under: Stacked
    sQ_bar: Stacked
    sQ_under: Stacked
    z_mid: np.ndarray
    s_mid: np.ndarray
    k: int = 0
    n_comm: int = 0
    n_comp: int = 0

    z_bar = property(lambda self: self.zP_bar.x)
    P_bar = property(lambda self: self.zP_bar.image)
    z_under = property(lambda self: self.zP_under.x)
    P_under = property(lambda self: self.zP_under.image)
    s_bar = property(lambda self: self.sQ_bar.x)
    Q_bar = property(lambda self: self.sQ_bar.image)
    s_under = property(lambda self: self.sQ_under.x)
    Q_under = property(lambda self: self.sQ_under.image)


def acrcd_init(z0, s0, oracle):
    z0 = np.asarray(z0, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    zP = Stacked.of(z0, oracle.gossip(z0))
    sQ = Stacked.of(s0, oracle.adjoint(s0))
    return ACRCDState(zP, zP.like(zP.buf.copy()), sQ, sQ.like(sQ.buf.copy()),
                      z0.copy(), s0.copy())


def step_coefficients(k):
    """(alpha_{k+1}, tau_k) for iteration counter k, recomputed every step."""
    return (k + 2) / 8.0, 2.0 / (k + 2)


def acrcd_step(state, cfg, rng, oracle):
    """Advance one iteration; exactly one coin draw, one sampled block moved.

    Parameters
    ----------
    state : ACRCDState
    cfg : ACRCDConfig
        Must carry numeric L_z, L_s, eta.
    rng : numpy.random.Generator
        Source of the block-sampling coin.
    oracle : BlockOracle
        Or any object with the same ``partial``, ``gossip`` and ``adjoint``
        (which must accept ``out``); only the sampled block's partial
        gradient is asked for (and billed).
    """
    if cfg.L_z is None or cfg.L_s is None or cfg.eta is None:
        raise ValueError("acrcd_step needs a resolved config (L_z, L_s, eta)")
    alpha, tau = step_coefficients(state.k)
    zP_mid = tau * state.zP_under.buf + (1.0 - tau) * state.zP_bar.buf
    sQ_mid = tau * state.sQ_under.buf + (1.0 - tau) * state.sQ_bar.buf
    nz, ns = state.zP_bar.x.size, state.sQ_bar.x.size
    z_mid, s_mid = zP_mid[:nz], sQ_mid[:ns]
    link = -(zP_mid[nz:] + sQ_mid[ns:]).reshape(state.zP_bar.image.shape)
    take_z = rng.random() < cfg.eta
    g = oracle.partial(DualState(z_mid, s_mid, link), take_z)
    if take_z:
        # [g | W g] moves [z | P] with the coefficients that move z
        gWg = np.concatenate((g, oracle.gossip(g).reshape(-1)))
        step = 2.0 * alpha / cfg.L_z
        return ACRCDState(state.zP_bar.like(zP_mid - gWg / cfg.L_z),
                          state.zP_under.like(state.zP_under.buf - step * gWg),
                          state.sQ_bar, state.sQ_under, z_mid, s_mid,
                          state.k + 1, state.n_comm + 1, state.n_comp)
    # [s | Q] is written in place: the projected s, then its image A^T s
    bar = state.sQ_bar.like(np.empty_like(sQ_mid))
    under = state.sQ_under.like(np.empty_like(sQ_mid))
    project_box(s_mid - g / cfg.L_s, bar.x)
    project_box(state.sQ_under.x - (2.0 * alpha / cfg.L_s) * g, under.x)
    oracle.adjoint(bar.x, bar.image)
    oracle.adjoint(under.x, under.image)
    return ACRCDState(state.zP_bar, state.zP_under, bar, under, z_mid, s_mid,
                      state.k + 1, state.n_comm, state.n_comp + 1)


def _running_pair(state):
    """(z_bar, s_bar) with its carried link -(P_bar + Q_bar)."""
    return DualState(state.z_bar, state.s_bar, -(state.P_bar + state.Q_bar))


def run_acrcd(inst, W, cfg):
    """Minimize the hard-constrained dual of a p = 1 instance from the origin.

    Returns
    -------
    (DualState, SolverTrace)
        Best (z_bar, s_bar) snapshot by dual objective, and the trace; trace
        rows report the running best, so the dual_obj column is monotone.

    Raises
    ------
    ValueError
        If the instance has p != 1 (use run_stm for general p).
    """
    if inst.p != 1.0:
        raise ValueError("block-coordinate solver handles p = 1 only; use run_stm")
    consts = None
    if cfg.L_z is None or cfg.L_s is None or cfg.eta is None:
        consts = lipschitz_constants(inst, W)
    resolved = replace(
        cfg,
        L_z=cfg.L_z if cfg.L_z is not None else consts.L_z,
        L_s=cfg.L_s if cfg.L_s is not None else consts.L_s,
        eta=cfg.eta if cfg.eta is not None else consts.eta,
    )
    rng = np.random.Generator(np.random.PCG64(resolved.rng_seed))
    oracle = BlockOracle(inst, W)

    def objective(ds):
        return dual_objective(ds, inst, W, 0.0, math.inf)

    t0 = time.perf_counter()
    state = acrcd_init(np.zeros(inst.m * inst.d), np.zeros(inst.m * inst.n), oracle)
    # a step writes only buffers it creates, so the best pair is kept uncopied
    best = _running_pair(state)
    best_value = objective(best)
    trace = SolverTrace()

    def record(k):
        rep = duality_gap(best, inst, W)
        wall = (time.perf_counter() - t0) * 1e3 if resolved.timing else 0.0
        trace.append(k, best_value, rep.primal_value / inst.m, rep.gap,
                     rep.consensus_residual, state.n_comm, state.n_comp, wall)

    record(0)
    for _ in range(resolved.max_iter):
        prev, state = state, acrcd_step(state, resolved, rng, oracle)
        # only the sampled block's buffers are new; the other passed when written
        written = state.zP_bar if state.zP_bar is not prev.zP_bar else state.sQ_bar
        if not np.isfinite(written.x).all():
            raise NumericFailure(f"non-finite iterate at iteration {state.k}")
        candidate = _running_pair(state)
        value = objective(candidate)
        if value < best_value:
            best_value = value
            best = candidate
        if state.k % resolved.trace_every == 0 or state.k == resolved.max_iter:
            record(state.k)
    return best, trace
