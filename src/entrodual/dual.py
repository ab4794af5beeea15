"""Conjugate functions, the smooth dual objective, and its constants.

Dualizing the consensus constraint (multiplier z) and the link y = A x
(multiplier s) turns the distributed problem into

    min_{z, s}  H(z, s) + R(s),
    H(z, s) = <s, b> + sum_i g*(-[Wz + A^T s]_i),

where g* is the conjugate of the block entropy (a scaled log-sum-exp) and R
is either nu ||s||_q^q (finite q) or the hard constraint ||s||_inf <= 1
(q = inf, i.e. p = 1).  H is smooth; its gradient needs one gossip exchange
for the z block and only local products for the s block.

Every evaluation starts from the link T = -(Wz + A^T s).  T is linear in
(z, s), so a solver whose iterates are affine combinations of each other
carries T on each DualState (``link``) and updates it with the iterates'
own coefficients; an evaluation at such a point then skips the product with
W and A^T that forming T costs.

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
from .problem import data_constants, sigma_max

# Feasibility slack for the dual-ball constraint ||s||_q <= 1.
DUAL_BALL_SLACK = 1e-9
# Largest accepted disagreement between eta and sqrt(L_z)/(sqrt(L_z)+sqrt(L_s)).
ETA_IDENTITY_TOL = 1e-12


@dataclass
class DualState:
    """Dual variables: z (m*d,) pairs with consensus, s (m*n,) with y = A x.

    ``link``, when set, is the (m, d) link -(Wz + A^T s) of this point, and
    every evaluation here reads it instead of forming it.  It is only valid
    while z and s keep their values; None means "not known".
    """

    z: np.ndarray
    s: np.ndarray
    link: np.ndarray | None = None

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.s = np.asarray(self.s, dtype=float)

    @classmethod
    def zeros(cls, inst):
        return cls(np.zeros(inst.m * inst.d), np.zeros(inst.m * inst.n))


@dataclass(frozen=True)
class DualConstants:
    """Smoothness constants of H and the block-sampling probability eta.

    L_z and L_s bound the curvature of H along the z and the s block, L_H
    along both together; ``lipschitz_constants`` derives them.  eta equals
    both lambda_max(W) / (lambda_max(W) + sigma_max(A)) and
    sqrt(L_z) / (sqrt(L_z) + sqrt(L_s)); ``check_eta`` asserts the identity.
    """

    L_H: float
    L_z: float
    L_s: float
    eta: float

    def __post_init__(self):
        check_eta(self.eta, self.L_z, self.L_s)


def check_eta(eta, L_z=None, L_s=None):
    """Raise unless 0 < eta < 1 and, when both block constants are given,
    eta = sqrt(L_z) / (sqrt(L_z) + sqrt(L_s)) to within ETA_IDENTITY_TOL."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly in (0, 1), got {eta}")
    if L_z is None or L_s is None:
        return
    implied = math.sqrt(L_z) / (math.sqrt(L_z) + math.sqrt(L_s))
    if abs(eta - implied) > ETA_IDENTITY_TOL:
        raise ValueError(
            f"eta={eta!r} disagrees with sqrt(L_z)/(sqrt(L_z)+sqrt(L_s))={implied!r}"
        )


def conj_F(t, inst):
    """Conjugate of the p-norm loss: <t, b> on the dual-norm unit ball, else math.inf."""
    t = np.asarray(t, dtype=float)
    if np.linalg.norm(t, inst.q_exponent) <= 1.0 + DUAL_BALL_SLACK:
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
    return np.einsum("ind,in->id", inst.A, s.reshape(inst.m, inst.n), out=out)


def _neg_link(inst, W, z, s, out=None):
    """Blocks of -(Wz + A^T s) as an (m, d) array, into ``out`` when given;
    row i is the argument of node i's entropy conjugate g*."""
    out = data_image(inst, s, out)
    out += gossip_image(inst, W, z)
    return np.negative(out, out=out)


def _link_of(state, inst, W):
    """The link of ``state``: the carried one, else formed from z and s."""
    return _neg_link(inst, W, state.z, state.s) if state.link is None else state.link


def dual_objective(state, inst, W, nu, q_exponent=None):
    """H(z, s) plus the regularizer nu ||s||_q^q.

    For q = inf the regularizer is replaced by the hard ball constraint
    ||s||_inf <= 1 (violations beyond the slack raise) and contributes 0.
    A carried link is used as it is, so the call makes no W product.
    """
    qe = inst.q_exponent if q_exponent is None else q_exponent
    T = _link_of(state, inst, W)
    h = float(state.s @ inst.stacked_b()) + float(_rows_lse(T, inst.theta).sum())
    if math.isinf(qe):
        if np.abs(state.s).max(initial=0.0) > 1.0 + DUAL_BALL_SLACK:
            raise ValueError("q = inf mode requires ||s||_inf <= 1")
        return h
    if nu < 0.0:
        raise ValueError("nu must be nonnegative")
    return h + nu * float(np.sum(np.abs(state.s) ** qe))


def dual_gradient(state, inst, W, block=None):
    """(grad_z H, grad_s H) = (-W xhat, b - A xhat) with xhat the block softmax.

    The z component is the only one that touches neighbours; evaluating it
    costs one communication round, the s component none.  ``block`` "z" or
    "s" evaluates only that component and returns None for the other.  A
    carried link saves the products that forming it costs.
    """
    X = _rows_softmax(_link_of(state, inst, W), inst.theta)
    g_z = g_s = None
    if block != "s":
        g_z = -(gossip_operator(W) @ X).reshape(-1)
    if block != "z":
        g_s = (inst.b - np.einsum("ind,id->in", inst.A, X)).reshape(-1)
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
    sW = W.lambda_max
    sA = sigma_max(inst)
    L_H = inst.m * (sA**2 + sW**2) / inst.theta
    L_z = sW**2 / (2.0 * inst.theta)
    L_s = sA**2 / (2.0 * inst.theta)
    return DualConstants(L_H, L_z, L_s, eta=sW / (sW + sA))


def _log_shift_sq(x_star):
    x = np.asarray(x_star, dtype=float)
    if x.min() <= 0.0:
        raise ValueError("radius bounds need a strictly interior simplex point")
    v = np.log(x) + 1.0
    return float(v @ v)


def dual_radius(inst, W, x_star):
    """Bound R^2 on ||q*||^2 driven by the solution's log-coordinates.

    R^2 = theta^2 m ||log x* + 1||^2 / min(sigma_min_plus^2, lambda_min_plus^2).
    Valid when the dual solution has no component in the kernel of the
    stacked constraint map, i.e. when the smallest positive eigenvalue of
    W^2 + A^T A is the per-factor floor in the denominator.
    """
    dc = data_constants(inst)
    denom = min(dc.sigma_min_plus_A**2, W.lambda_min_plus**2)
    return inst.theta**2 * inst.m * _log_shift_sq(x_star) / denom


def _dual_ball_radius_sq(inst, q_exponent):
    """R_s^2 = max(1, (mn)^(1 - 2/q)), mn at q = inf: the squared 2-norm
    radius of the dual ball ||s||_q <= 1 in R^(mn)."""
    mn = inst.m * inst.n
    if math.isinf(q_exponent):
        return float(mn)
    return max(1.0, float(mn) ** (1.0 - 2.0 / q_exponent))


def block_radii(inst, W, x_star, q_exponent):
    """Per-block radius bounds (R_z^2, R_s^2) used by the coordinate method.

    R_s^2 is the dual ball's squared 2-norm radius (``_dual_ball_radius_sq``);
    R_z^2 folds the solution shift and the data through lambda_min_plus.
    """
    if q_exponent < 1.0:
        raise ValueError("q must be at least 1")
    R_s_sq = _dual_ball_radius_sq(inst, q_exponent)
    sA = sigma_max(inst)
    num = 2.0 * inst.theta**2 * inst.m * _log_shift_sq(x_star) + 2.0 * sA**2 * R_s_sq
    return num / W.lambda_min_plus**2, R_s_sq


def default_regularizer_weight(inst, target_eps, q_exponent=None):
    """nu = eps / (2 R_s^2): the penalty perturbs the dual optimum by <= eps/2."""
    if target_eps <= 0.0:
        raise ValueError("target accuracy must be positive")
    qe = inst.q_exponent if q_exponent is None else q_exponent
    return target_eps / (2.0 * _dual_ball_radius_sq(inst, qe))
