"""Decentralized entropic mirror descent: the primal comparator.

A plain primal method used only as a yardstick.  Each iteration mixes the
blocks once with I - W / lambda_max (Nedic & Ozdaglar 2009), then every node
takes the composite entropic mirror step (Duchi et al. 2010)

    x_i = argmin_x <g_i, x> + theta <x, log x> + KL(x, y_i) / alpha_k
        = softmax((log y_i - alpha_k g_i) / (1 + alpha_k theta)),

with g_i = A_i^T u_i, u a subgradient of ||r||_p at the residual r = A x - b.
The closed form is the row kernel's softmax, so the iterates stay strictly
positive and on the simplex with no projection.  The step
alpha_k = sqrt(2 log d) / (G sqrt k) comes from the data: G bounds
||g_i||_inf, sigma_max sqrt(n) at p = 1 and sigma_max at p = 2.  The run
starts at the uniform point.  With no dual iterate, rows carry infinite
dual_obj and gap.
"""

import math

import numpy as np

from .dual import _rows_softmax
from .network import gossip_operator
from .problem import check_data, sigma_max, vector_norm
from .recovery import primal_side
from .trace import observe


def _norm_subgradient(residual, p):
    """A subgradient of ||r||_p at r for p in {1, 2}."""
    if p == 1.0:
        return np.sign(residual)
    nrm = vector_norm(residual, 2.0)
    return residual / nrm if nrm > 0.0 else np.zeros_like(residual)


def subgradient_baseline(inst, W, steps, trace_every=1, timing=False):
    """Run the comparator and return its trace.

    An iteration bills one round (the one W product of the mixing) and one
    local pass.  At p = 1 that is what a network pays, since the loss splits
    by node.  At p = 2 the subgradient divides by the global ||r||_2, a sum a
    network would also have to exchange; it is not billed.
    """
    check_data(inst)
    Wm = gossip_operator(W)
    G = sigma_max(inst) * (math.sqrt(inst.n) if inst.p == 1.0 else 1.0)
    scale = math.sqrt(2.0 * math.log(inst.d)) / G
    X = np.full((inst.m, inst.d), 1.0 / inst.d)
    products = inst.block_products

    def step(k):
        nonlocal X
        Y = X - (Wm @ X) / W.lambda_max  # the one term that talks to neighbours
        residual = products.apply(X).reshape(-1) - inst.stacked_b()
        u = _norm_subgradient(residual, inst.p).reshape(inst.m, inst.n)
        alpha = scale / math.sqrt(k)
        X = _rows_softmax(np.log(Y) - alpha * products.adjoint(u), 1.0 + alpha * inst.theta)

    def row(k):
        primal, cres = primal_side(inst, W, X)
        return np.inf, primal / inst.m, np.inf, cres, k, k

    return observe(step, row, steps, trace_every, timing)
