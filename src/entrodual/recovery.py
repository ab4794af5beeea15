"""Primal recovery from dual iterates and duality-gap reporting."""

import math
from dataclasses import dataclass

import numpy as np

from .dual import _rows_softmax, conj_F
from .problem import PrimalState, consensus_residual, entropy, vector_norm


@dataclass(frozen=True)
class GapReport:
    """Certificate bundle at a dual point.

    dual_value is H(z, s); the lower bound on the distributed primal is
    Phi = -H, so gap = primal_value - Phi = primal_value + dual_value.
    An infeasible s in the hard-constrained mode yields an infinite gap.
    """

    primal_value: float
    dual_value: float
    gap: float
    consensus_residual: float


def primal_from_dual(state, inst, W, lse=None):
    """Map a dual point to per-node primal blocks via the block softmax.

    x_i = softmax(-[Wz + A^T s]_i / theta), read from the point's link, is
    exactly the gradient of the conjugate entropy term; the row kernel puts
    each row on the simplex, so nothing checks it again.  W is not read.
    When ``lse`` (an (m,) array) is given, the same row-kernel pass also
    writes each node's g*(-[Wz + A^T s]_i), the scaled log-sum-exp, into it.
    """
    return PrimalState(_rows_softmax(state.link, inst.theta, lse))


def consensus_candidate(X):
    """Average the (m, d) simplex blocks X, whose mean needs no clamp, and
    renormalize; exact for strictly positive blocks."""
    # the reductions X.mean(axis=0) and x.sum() make, without their dispatch
    x = np.add.reduce(X, axis=0) / len(X)
    return x / np.add.reduce(x)


def primal_side(inst, W, X):
    """(primal, consensus_residual(W, X)) of the (m, d) blocks X, the latter
    one W product.  primal, the one primal value of a set of blocks, is the
    distributed objective ||A xbar - b||_p + m theta <xbar, log xbar> at the
    renormalized block mean xbar replicated to every node."""
    xbar = consensus_candidate(X)
    residual = inst.stacked_A() @ xbar
    residual -= inst.stacked_b()
    primal = vector_norm(residual, inst.p) + inst.m * inst.theta * entropy(xbar)
    return primal, consensus_residual(W, X)


def duality_gap(state, inst, W, lse=None):
    """Gap between the consensual recovered point and the dual certificate.

    The primal side is ``primal_side`` of the recovered blocks; the dual side
    is Phi = -H with H = conj_F(s) + sum_i g*(-[Wz + A^T s]_i), g* the
    entropy conjugate (a scaled log-sum-exp per node).  The certificate is penalty-free: only the
    problem's own conjugate pairing enters, whatever penalty the solver used.
    Weak duality makes gap >= 0 up to rounding whenever s is feasible; an
    infeasible s reports an infinite gap rather than raising.

    A certificate, and so a trace row, costs one pass of the row kernel,
    which yields both the softmax and the log-sum-exp from the point's link,
    and one W product, for the consensus residual.  The rest reads that pass
    once: one <s, b> and one dual-ball test (``conj_F``; at q = inf it is the
    box test), the p-norms by the reductions ``np.linalg.norm`` makes, and no
    objective evaluation.  When ``lse`` (an (m,) array) is given, the
    log-sum-exp is written into it.
    """
    lse = np.empty(inst.m) if lse is None else lse
    primal, cres = primal_side(inst, W, primal_from_dual(state, inst, W, lse).x_blocks)
    fstar = conj_F(state.s, inst)
    if math.isinf(fstar):
        return GapReport(primal, math.inf, math.inf, cres)
    h = fstar + float(np.add.reduce(lse))
    return GapReport(primal, h, primal + h, cres)
