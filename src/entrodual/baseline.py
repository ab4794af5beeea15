"""Projected-subgradient comparator on the penalized distributed objective.

A deliberately plain primal method used only as a yardstick: minimize

    ||A x - b||_p + theta <x, log x> + (PENALTY / 2) <x, W x>

over per-node simplex blocks by subgradient steps of length
STEP_SCALE / sqrt(k) and blockwise Euclidean projection.  Consensus is only
encouraged through the quadratic penalty, so the method has no dual
certificate; trace rows carry infinite dual_obj/gap.
"""

import numpy as np

from .network import gossip_operator
from .problem import consensus_residual, primal_objective, vector_norm
from .recovery import consensus_candidate
from .trace import observe

# Floor inside the entropy gradient; the true subgradient blows up at 0.
ENTROPY_FLOOR = 1e-300
# Step k is STEP_SCALE / sqrt(k); PENALTY weighs the consensus term.
STEP_SCALE = 0.1
PENALTY = 1.0


def project_simplex_rows(V):
    """Rowwise Euclidean projection onto the probability simplex (sort-based)."""
    V = np.asarray(V, dtype=float)
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    j = np.arange(1, V.shape[1] + 1)
    rho = np.sum(U - css / j > 0.0, axis=1)
    lam = -css[np.arange(V.shape[0]), rho - 1] / rho
    return np.maximum(V + lam[:, None], 0.0)


def _norm_subgradient(residual, p):
    """A subgradient of ||r||_p at r for p in {1, 2}."""
    if p == 1.0:
        return np.sign(residual)
    nrm = vector_norm(residual, 2.0)
    return residual / nrm if nrm > 0.0 else np.zeros_like(residual)


def subgradient_baseline(inst, W, steps, seed=0, trace_every=1, timing=False):
    """Run the comparator and return its trace.

    The starting blocks are random simplex points from the given seed, so the
    whole run is deterministic per (instance, seed).  Each iteration costs
    one gossip exchange (the penalty term) and one local pass.
    """
    Wm = gossip_operator(W)
    rng = np.random.default_rng(seed)
    X = rng.dirichlet(np.ones(inst.d), size=inst.m)
    products = inst.block_products

    def step(k):
        nonlocal X
        residual = products.apply(X).reshape(-1) - inst.stacked_b()
        dual_vec = _norm_subgradient(residual, inst.p).reshape(inst.m, inst.n)
        G = products.adjoint(dual_vec)
        G += inst.theta * (np.log(np.maximum(X, ENTROPY_FLOOR)) + 1.0)
        G += PENALTY * (Wm @ X)  # the one term that talks to neighbours
        X = project_simplex_rows(X - STEP_SCALE / np.sqrt(k) * G)

    def row(k):
        xbar = consensus_candidate(X)
        return np.inf, primal_objective(inst, xbar), np.inf, consensus_residual(W, X), k, k

    return observe(step, row, steps, trace_every, timing)
