"""Accelerated randomized block-coordinate descent on the hard-constrained dual.

Designed for the p = 1 case, where the dual ball is the box ||s||_inf <= 1
and the two natural blocks (z, s) have very different smoothness.  Each
iteration couples the running pair, flips a coin with probability eta for
the z block, and moves only the sampled block; k is the number of steps
taken, n_comm + n_comp, since each step bills exactly one of the two:

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
projection; it applies no W.  Each iteration of run_acrcd makes one pass
of the row kernel ``dual._rows_shifted_exp``, the softmax xhat at the
midpoint, and that pass also yields the log-sum-exp from which run_acrcd
reads the midpoint's objective; the best midpoint so far is the candidate
the run keeps.  A trace row certifies the best point (``duality_gap``, whose
single pass yields both softmax and log-sum-exp), and only when it changed
since the last certificate; otherwise it reuses that certificate, which has
the same inputs.

Each pair keeps a block and its image in one float64 buffer (``Stacked``),
[z | P] and [s | Q], so the midpoint is two fused combinations.  A step
allocates the two midpoints and two new buffers for the sampled block (plus
the temporaries of its gradient, and of [g | W g] on a z step), passes the
other block's buffers along, and never writes into a buffer it did not make.
"""

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
    objective_from_lse,
)
from .errors import NumericFailure
from .problem import check_data
from .prox import project_box
from .recovery import duality_gap
from .trace import observe


@dataclass
class ACRCDConfig:
    """Block steps and the sampling coin.

    L_z, L_s and eta are one bundle, set together or not at all: left unset,
    ``run_acrcd`` works all three out (``lipschitz_constants``); set, eta
    must equal sqrt(L_z) / (sqrt(L_z) + sqrt(L_s)) (``check_eta``).  The coin
    stream comes from a PCG64 generator seeded with rng_seed, one
    uniform draw per iteration, so runs are reproducible bit for bit; a
    None seed, which would draw from OS entropy, is rejected.  ``observe``
    checks the loop settings max_iter and trace_every.
    """

    rng_seed: int
    L_z: float | None = None
    L_s: float | None = None
    eta: float | None = None
    max_iter: int = 10000
    trace_every: int = 1
    timing: bool = False

    def __post_init__(self):
        if self.rng_seed is None:
            raise ValueError("acrcd needs rng_seed (solver_seed in a config) for its coin")
        if self.rng_seed < 0:
            raise ValueError(
                f"rng_seed (solver_seed in a config) must be nonnegative, got {self.rng_seed}")
        if [self.L_z, self.L_s, self.eta].count(None) in (1, 2):
            raise ValueError("L_z, L_s and eta are set together or not at all")
        if self.eta is not None:
            check_eta(self.eta, self.L_z, self.L_s)


class BlockOracle:
    """The dual of one instance as a step sees it: the sampled block's partial
    gradient at a point that carries its link, and the link images of z and s.

    ``partial`` keeps the point it was last asked at (``point``) and writes
    that point's row log-sum-exp, from the gradient's own kernel pass, into
    ``lse``, so ``objective_from_lse`` gives the point's objective without a
    second pass.
    """

    def __init__(self, inst, W):
        self.inst = inst
        self.W = W
        self.point = None
        self.lse = np.empty(inst.m)

    def partial(self, point, take_z):
        """grad_z H (one gossip product) or grad_s H (local) at ``point``."""
        self.point = point
        g_z, g_s = dual_gradient(point, self.inst, self.W, "z" if take_z else "s", self.lse)
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
    """Running pair (bar) and momentum pair (under) as [z | P] and [s | Q]
    buffers, and the steps taken: n_comm z steps and n_comp s steps, whose
    sum is the step counter k."""

    zP_bar: Stacked
    zP_under: Stacked
    sQ_bar: Stacked
    sQ_under: Stacked
    n_comm: int = 0
    n_comp: int = 0


def acrcd_init(z0, s0, oracle):
    z0 = np.asarray(z0, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    zP = Stacked.of(z0, oracle.gossip(z0))
    sQ = Stacked.of(s0, oracle.adjoint(s0))
    return ACRCDState(zP, zP.like(zP.buf.copy()), sQ, sQ.like(sQ.buf.copy()))


def step_coefficients(k):
    """(alpha_{k+1}, tau_k) for iteration counter k, recomputed every step."""
    return (k + 2) / 8.0, 2.0 / (k + 2)


def acrcd_step(state, cfg, rng, oracle):
    """Advance one iteration; exactly one coin draw, one sampled block moved.

    Parameters
    ----------
    state : ACRCDState
    cfg : ACRCDConfig
        Must carry its constants (set together, so eta stands for all three).
    rng : numpy.random.Generator
        Source of the block-sampling coin.
    oracle : BlockOracle
        Or any object with the same ``partial``, ``gossip`` and ``adjoint``
        (which must accept ``out``); only the sampled block's partial
        gradient is asked for (and billed).
    """
    if cfg.eta is None:
        raise ValueError("acrcd_step needs a resolved config (L_z, L_s, eta)")
    alpha, tau = step_coefficients(state.n_comm + state.n_comp)
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
                          state.sQ_bar, state.sQ_under, state.n_comm + 1, state.n_comp)
    # [s | Q] is written in place: the projected s, then its image A^T s
    bar = state.sQ_bar.like(np.empty_like(sQ_mid))
    under = state.sQ_under.like(np.empty_like(sQ_mid))
    project_box(s_mid - g / cfg.L_s, bar.x)
    project_box(state.sQ_under.x - (2.0 * alpha / cfg.L_s) * g, under.x)
    oracle.adjoint(bar.x, bar.image)
    oracle.adjoint(under.x, under.image)
    return ACRCDState(state.zP_bar, state.zP_under, bar, under, state.n_comm,
                      state.n_comp + 1)


def check_p(inst):
    """Raise unless ``inst`` is a p = 1 instance, the one mode ACRCD solves."""
    if inst.p != 1.0:
        raise ValueError("acrcd handles p = 1 only; use stm")


def run_acrcd(inst, W, cfg):
    """Minimize the hard-constrained dual of a p = 1 instance from the origin.

    Returns
    -------
    (DualState, SolverTrace)
        The best point by dual objective among the origin and the midpoints
        the steps took their gradients at, and the trace; trace rows report
        the running best, so the dual_obj column is monotone.

    Raises
    ------
    ValueError
        If the instance has p != 1 (use run_stm for p = 2), or, when the
        constants are left to resolve, if all its data blocks are zero.
    """
    check_p(inst)
    if cfg.eta is None:
        # zero data resolves eta to 1, and a coin that never picks s solves nothing
        check_data(inst)
        c = lipschitz_constants(inst, W)
        cfg = replace(cfg, L_z=c.L_z, L_s=c.L_s, eta=c.eta)
    rng = np.random.Generator(np.random.PCG64(cfg.rng_seed))
    oracle = BlockOracle(inst, W)
    state = acrcd_init(np.zeros(inst.m * inst.d), np.zeros(inst.m * inst.n), oracle)
    best = DualState(state.zP_bar.x, state.sQ_bar.x,
                     -(state.zP_bar.image + state.sQ_bar.image))
    best_value = dual_objective(best, inst, W, 0.0)
    certified = None  # (point, GapReport) of the last certificate

    def step(k):
        nonlocal state, best, best_value
        prev, state = state, acrcd_step(state, cfg, rng, oracle)
        # only the sampled block's buffers are new; the other passed when written
        written = state.zP_bar if state.zP_bar is not prev.zP_bar else state.sQ_bar
        if not np.isfinite(written.x).all():
            raise NumericFailure(f"non-finite iterate at iteration {k}")
        value = objective_from_lse(oracle.point.s, oracle.lse, inst, 0.0)
        if value < best_value:
            # a step never writes into its midpoint once it has stepped, so
            # the best midpoint is kept uncopied
            best_value = value
            best = oracle.point

    def row(k):
        nonlocal certified
        if certified is None or certified[0] is not best:
            certified = (best, duality_gap(best, inst, W))
        rep = certified[1]
        return (best_value, rep.primal_value / inst.m, rep.gap,
                rep.consensus_residual, state.n_comm, state.n_comp)

    trace = observe(step, row, cfg.max_iter, cfg.trace_every, cfg.timing)
    return best, trace
