"""Primal recovery from dual iterates and duality-gap reporting."""

import math
from dataclasses import dataclass

import numpy as np

from .dual import _link_of, _rows_softmax, conj_F
from .problem import PrimalState, apply_blocks, consensus_residual, entropy


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

    x_i = softmax(-[Wz + A^T s]_i / theta) is exactly the gradient of the
    conjugate entropy term, so it inherits simplex feasibility to rounding.
    When ``lse`` (an (m,) array) is given, the same row-kernel pass also
    writes each node's g*(-[Wz + A^T s]_i), the scaled log-sum-exp, into it.
    """
    X = _rows_softmax(_link_of(state, inst, W), inst.theta, lse)
    return PrimalState(X, apply_blocks(inst, X))


def consensus_candidate(ps):
    """Average the blocks and renormalize; exact for strictly positive blocks."""
    x = np.maximum(ps.x_blocks.mean(axis=0), 0.0)
    return x / x.sum()


def duality_gap(state, inst, W):
    """Gap between the consensual recovered point and the dual certificate.

    The primal side evaluates the distributed objective at the renormalized
    block mean replicated to every node; the dual side is Phi = -conj_F(s) -
    sum_i g*(-[Wz + A^T s]_i), with g* the entropy conjugate (a scaled
    log-sum-exp per node).  The certificate is penalty-free: only the problem's
    own conjugate pairing enters, whatever penalty the solver used.  Weak
    duality makes gap >= 0 up to rounding whenever s is feasible; an
    infeasible s reports an infinite gap rather than raising.  The link is
    formed at most once per call, and not at all when ``state`` carries it;
    the call makes one pass of the row kernel, which yields both the softmax
    and the log-sum-exp.
    """
    lse = np.empty(inst.m)
    ps = primal_from_dual(state, inst, W, lse)
    xbar = consensus_candidate(ps)
    residual = inst.stacked_A() @ xbar - inst.stacked_b()
    primal = float(np.linalg.norm(residual, inst.p)) + inst.m * inst.theta * entropy(xbar)
    cres = consensus_residual(W, ps.x_blocks)
    fstar = conj_F(state.s, inst)
    if math.isinf(fstar):
        return GapReport(primal, math.inf, math.inf, cres)
    h = float(state.s @ inst.stacked_b()) + float(lse.sum())
    return GapReport(primal, h, primal + h, cres)
