"""Conjugate functions, the smooth dual objective, and its constants.

Dualizing the consensus constraint (multiplier z) and the link y = A x
(multiplier s) turns the distributed problem into

    min_{z, s}  H(z, s) + R(s),
    H(z, s) = <s, b> + sum_i g*(-[Wz + A^T s]_i),

where g* is the conjugate of the block entropy (a scaled log-sum-exp) and R
is either the penalty nu ||s||_2^2 (p = 2, q = 2) or the hard constraint
||s||_inf <= 1 (p = 1, q = inf).  H is smooth; its gradient needs one
gossip exchange for the z block and only local products for the s block.

Every evaluation reads the link T = -(Wz + A^T s), which each DualState
carries (``link``).  ``DualState.of`` forms it once, with one W and one A^T
product, and no evaluation forms it again.  T is linear in (z, s), so a
solver whose iterates are affine combinations of each other updates it with
the iterates' own coefficients.

Products with W come from ``network.gossip_operator``, products with the
data blocks from ``ProblemInstance.block_products``: A xhat (the rows
A_i xhat_i) and A^T s (the rows A_i^T s_i).  The instance picks once, from
its block size n * d, between np.einsum, whose fixed cost is lower, and
batched BLAS np.matmul, about twice as fast on large blocks (see
``problem.BLAS_BLOCK_MIN``); the einsum form adds no Python call.

Every evaluation of g* or of its gradient is a per-node (per-row) log-sum-exp
or softmax of the (m, d) link, and both come from one kernel,
``_rows_shifted_exp``.  It copies T into a (d, m) workspace and takes the row
maxima, the shifted exponentials and the row sums there, so each reduction
runs along the contiguous node axis.  NumPy reduces a short contiguous axis
one row at a time: on a 512 x 8 link ``T.max(axis=1)`` takes 40 to 46 us on
one core, the same maxima over a (d, m) copy 6.6 us, copy included.  The
shift by each row's own maximum is kept, so overflow and underflow behave as
in the textbook row-major form.  The softmax comes back C-contiguous,
because the products with W and A that consume it are about twice as slow
on an F-ordered operand.
"""

import math
from dataclasses import dataclass

import numpy as np

from .network import gossip_operator
from .problem import data_constants  # unused here; perfbench's spans wrap it
from .problem import sigma_max, vector_norm

# Feasibility slack for the dual-ball constraint ||s||_q <= 1.
DUAL_BALL_SLACK = 1e-9
# Largest accepted disagreement between eta and sqrt(L_z)/(sqrt(L_z)+sqrt(L_s)).
ETA_IDENTITY_TOL = 1e-12


@dataclass
class DualState:
    """Dual variables: z (m*d,) pairs with consensus, s (m*n,) with y = A x.

    ``link`` is the (m, d) link -(Wz + A^T s) of this point, and every
    evaluation here reads it.  It is only valid while z and s keep their
    values; ``of`` makes a point whose link is formed from z and s.
    """

    z: np.ndarray
    s: np.ndarray
    link: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.s = np.asarray(self.s, dtype=float)

    @classmethod
    def of(cls, inst, W, z, s):
        """The point (z, s), two arrays, with its link: one W and one A^T product."""
        return cls(z, s, _neg_link(inst, W, z, s))


@dataclass(frozen=True)
class DualConstants:
    """Smoothness constants of H and the block-sampling probability eta.

    L_z and L_s bound the curvature of H along the z and the s block, L_H
    along both together.  ``lipschitz_constants``, their one producer, takes
    all four from the same lambda_max(W) and sigma_max(A), so eta =
    lambda_max / (lambda_max + sigma_max) = sqrt(L_z) / (sqrt(L_z) + sqrt(L_s))
    by construction.  It is 1 when every data block is zero, a value STM
    never reads and ``run_acrcd`` refuses as all-zero data.
    """

    L_H: float
    L_z: float
    L_s: float
    eta: float


def check_eta(eta, L_z, L_s):
    """Check an eta that a caller supplies with its block constants
    (``ACRCDConfig``): raise unless 0 < eta < 1 and
    eta = sqrt(L_z) / (sqrt(L_z) + sqrt(L_s)) to within ETA_IDENTITY_TOL."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly in (0, 1), got {eta}")
    implied = math.sqrt(L_z) / (math.sqrt(L_z) + math.sqrt(L_s))
    if abs(eta - implied) > ETA_IDENTITY_TOL:
        raise ValueError(
            f"eta={eta!r} disagrees with sqrt(L_z)/(sqrt(L_z)+sqrt(L_s))={implied!r}"
        )


def conj_F(t, inst):
    """Conjugate of the p-norm loss: <t, b> on the dual-norm unit ball, else math.inf."""
    t = np.asarray(t, dtype=float)
    if vector_norm(t, inst.q_exponent) <= 1.0 + DUAL_BALL_SLACK:
        return float(t @ inst.stacked_b())
    return math.inf


def _rows_shifted_exp(T, theta):
    """(M, E, S) for the rows of an (m, d) T, computed along the node axis.

    M (m,) holds the row maxima, E (d, m) the shifted exponentials
    exp((T_i - M_i) / theta) with node i in column i, and S (m,) the column
    sums of E.  Every reduction runs over the contiguous node axis.
    """
    E = T.T.copy()
    M = E.max(axis=0)
    E -= M
    E /= theta
    np.exp(E, out=E)
    return M, E, E.sum(axis=0)


def _lse_from(M, S, theta, out=None):
    """M + theta log S, the per-row log-sum-exp from the kernel's M and S."""
    out = np.log(S, out=out)
    out *= theta
    out += M
    return out


def _rows_lse(T, theta):
    """Stabilized per-row log-sum-exp, scaled by theta: (m,)."""
    M, _, S = _rows_shifted_exp(T, theta)
    return _lse_from(M, S, theta)


def _rows_softmax(T, theta, lse=None):
    """Per-row softmax of T / theta, as a C-contiguous (m, d) array.

    When ``lse`` (an (m,) array) is given, the same kernel pass also writes
    the per-row log-sum-exp into it, equal bit for bit to ``_rows_lse``.
    """
    M, E, S = _rows_shifted_exp(T, theta)
    if lse is not None:
        _lse_from(M, S, theta, out=lse)
    E /= S
    return E.T.copy()


def gossip_image(inst, W, z):
    """W z for a stacked z (m*d,), as an (m, d) array: one gossip product."""
    return gossip_operator(W) @ z.reshape(inst.m, inst.d)


def data_image(inst, s, out=None):
    """The blocks A_i^T s_i for a stacked s (m*n,), as an (m, d) array: local."""
    return inst.block_products.adjoint(s.reshape(inst.m, inst.n), out=out)


def _neg_link(inst, W, z, s, out=None):
    """Blocks of -(Wz + A^T s) as an (m, d) array, into ``out`` when given;
    row i is the argument of node i's entropy conjugate g*."""
    out = data_image(inst, s, out)
    out += gossip_image(inst, W, z)
    return np.negative(out, out=out)


def objective_from_lse(s, lse, inst, nu):
    """H(z, s) + R(s) from s and the point's row log-sum-exp ``lse``.

    H = <s, b> + sum_i lse_i, lse_i = g*(-[Wz + A^T s]_i) as the row kernel
    yields it, so a caller that already made the point's kernel pass (for
    its softmax) gets the objective without a second one.  R is
    nu ||s||_2^2 at q = 2 and 0 at q = inf, the box constraint.  The
    solvers' s is made by the prox or is a convex combination of such
    points, so it is in the box; ``dual_objective`` checks an s from outside.
    """
    h = float(s @ inst.stacked_b()) + float(lse.sum())
    if math.isinf(inst.q_exponent):
        return h
    return h + regularizer(s, nu)


def regularizer(s, nu):
    """The penalty R(s) = nu ||s||_2^2 of the p = 2 mode."""
    return nu * float(np.sum(s * s))


def dual_objective(state, inst, nu):
    """H(z, s) + R(s) at ``state`` (see ``objective_from_lse``), from one
    kernel pass over its link; the call makes no W product.

    It takes s from outside the solvers, so it checks ||s||_inf <= 1 (to
    DUAL_BALL_SLACK) at q = inf and nu >= 0 at q = 2.
    """
    if math.isinf(inst.q_exponent):
        if vector_norm(state.s, math.inf) > 1.0 + DUAL_BALL_SLACK:
            raise ValueError("q = inf mode requires ||s||_inf <= 1")
    elif nu < 0.0:
        raise ValueError("nu must be nonnegative")
    lse = _rows_lse(state.link, inst.theta)
    return objective_from_lse(state.s, lse, inst, nu)


def dual_gradient(state, inst, W, block=None, lse=None):
    """(grad_z H, grad_s H) = (-W xhat, b - A xhat) with xhat the block softmax.

    The z component is the only one that touches neighbours; evaluating it
    costs one communication round, the s component none.  ``block`` "z" or
    "s" evaluates only that component and returns None for the other.  The
    softmax reads the point's link.  When ``lse`` (an (m,) array) is given,
    the softmax's kernel pass also writes the per-row log-sum-exp into it, so
    ``objective_from_lse`` then gives the objective at the same point.
    """
    X = _rows_softmax(state.link, inst.theta, lse)
    g_z = g_s = None
    # the sign and the difference go into the products' own buffers
    if block != "s":
        WX = gossip_operator(W) @ X
        g_z = np.negative(WX, out=WX).reshape(-1)
    if block != "z":
        AX = inst.block_products.apply(X)
        g_s = np.subtract(inst.b, AX, out=AX).reshape(-1)
    return g_z, g_s


def lipschitz_constants(inst, W):
    """Global and per-block gradient Lipschitz bounds, plus eta.

    L_z = lambda_max^2 / (2 theta),  L_s = sigma_max^2 / (2 theta),
    L_H = m (sigma_max^2 + lambda_max^2) / theta,

    with sigma_max the largest sigma_max(A_i) over the nodes.

    The Hessian of H is K^T D K, where K(z, s) = Wz + A^T s block by block
    and D is block diagonal with node i's softmax Jacobian
    (diag x_i - x_i x_i^T) / theta.  v^T (diag x - x x^T) v is the variance of
    v under x, and Popoviciu's inequality bounds it by (max v - min v)^2 / 4
    <= ||v||^2 / 2, so ||D|| <= 1 / (2 theta).  The z block's Hessian W D W
    then has norm at most lambda_max^2 / (2 theta), and the s block's,
    block diagonal in A_i D_i A_i^T, at most sigma_max^2 / (2 theta).  eta is
    the same for any common factor of L_z and L_s.

    L_H still carries the factor m.  It is valid but loose: since
    ||K||^2 <= lambda_max^2 + sigma_max^2, the same argument gives
    (lambda_max^2 + sigma_max^2) / (2 theta), and L_H exceeds ||K||^2 / theta
    by 4.8x on the 4x3x5 ring, 68x on the 64x20x50 ring and 637x on the
    512x2x8 ring (instance seed 7, theta = 3).  STM steps with 1 / L_H, so
    tightening it changes every STM trajectory, including the iteration
    counts and p = 2 reference values that the benchmark pins; it waits for
    the benchmark's re-base.
    """
    gossip_operator(W)  # raises TypeError unless W is a GossipMatrix
    sW = W.lambda_max
    sA = sigma_max(inst)
    L_H = inst.m * (sA**2 + sW**2) / inst.theta
    L_z = sW**2 / (2.0 * inst.theta)
    L_s = sA**2 / (2.0 * inst.theta)
    return DualConstants(L_H, L_z, L_s, eta=sW / (sW + sA))


def default_regularizer_weight(inst, target_eps):
    """nu = eps / (2 R_s^2) = eps / 2 at p = 2, the dual ball ||s||_2 <= 1
    having radius R_s = 1: the penalty perturbs the dual optimum by <= eps/2.
    0 in the box mode (p = 1), whose hard constraint takes no penalty."""
    if not 0.0 < target_eps < math.inf:  # NaN fails too
        raise ValueError("target accuracy must be positive and finite")
    if math.isinf(inst.q_exponent):
        return 0.0
    return target_eps / 2.0
