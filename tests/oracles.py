"""Independent reference implementations, and the helpers only tests use.

Everything here is written against dense matrices and textbook update rules,
on purpose: these oracles share no code with the package beyond the raw
problem data, so agreement is meaningful evidence of correctness.  The
exceptions are ``dual_kernel_floor``, which reads the package's spectral and
data constants, and ``prox_lq_scalar``, which takes the package's bisection
cap.  The helpers at the end (``ProxParams``, ``spectral_constants``,
``save_topology``, ``read_summary``) serve tests; no solver needs them.
"""

import math
from dataclasses import dataclass

import numpy as np

from entrodual.network import _extreme_eigenvalues
from entrodual.problem import data_constants
from entrodual.prox import BISECT_MAX_ITER, _check_prox_params


def dense_operators(inst, W):
    """Dense lifted matrices: kron(W, I_d), the block-diagonal data map, and b."""
    Wm = W.W if hasattr(W, "W") else np.asarray(W, dtype=float)
    Wk = np.kron(Wm, np.eye(inst.d))
    Ak = np.zeros((inst.m * inst.n, inst.m * inst.d))
    for i in range(inst.m):
        Ak[i * inst.n : (i + 1) * inst.n, i * inst.d : (i + 1) * inst.d] = inst.A[i]
    return Wk, Ak, inst.b.reshape(-1).copy()


def _lse_rows(T, theta):
    M = T.max(axis=1, keepdims=True)
    return M[:, 0] + theta * np.log(np.exp((T - M) / theta).sum(axis=1))


def _softmax_rows(T, theta):
    E = np.exp((T - T.max(axis=1, keepdims=True)) / theta)
    return E / E.sum(axis=1, keepdims=True)


def dense_dual_value(z, s, inst, Wk, Ak, b):
    T = -(Wk @ z + Ak.T @ s).reshape(inst.m, inst.d)
    return float(s @ b) + float(_lse_rows(T, inst.theta).sum())


def dense_dual_grad(z, s, inst, Wk, Ak, b):
    T = -(Wk @ z + Ak.T @ s).reshape(inst.m, inst.d)
    xhat = _softmax_rows(T, inst.theta).reshape(-1)
    return -(Wk @ xhat), b - Ak @ xhat


def fista_reference(inst, W, mode, iters, L=None, nu=0.0):
    """Accelerated proximal gradient on the dense dual formulation.

    mode selects the s-block prox: 'box' clips to [-1, 1], 'ball2' projects
    onto the Euclidean unit ball, 'penalty' shrinks by 1 / (1 + 2 nu / L).
    Returns (z, s, best dual value seen).
    """
    Wk, Ak, b = dense_operators(inst, W)
    if L is None:
        # global bound m (lambda_max^2 + sigma_max^2) / theta from dense norms
        lam_sq = float(np.linalg.eigvalsh(Wk @ Wk).max())
        sig_sq = float(np.linalg.norm(Ak, 2)) ** 2
        L = inst.m * (lam_sq + sig_sq) / inst.theta

    def prox_s(v):
        if mode == "box":
            return np.clip(v, -1.0, 1.0)
        if mode == "ball2":
            nrm = float(np.linalg.norm(v))
            return v if nrm <= 1.0 else v / nrm
        if mode == "penalty":
            return v / (1.0 + 2.0 * nu / L)
        raise ValueError(mode)

    z = np.zeros(inst.m * inst.d)
    s = np.zeros(inst.m * inst.n)
    zy, sy = z.copy(), s.copy()
    t = 1.0
    best = math.inf
    for _ in range(iters):
        gz, gs = dense_dual_grad(zy, sy, inst, Wk, Ak, b)
        zn = zy - gz / L
        sn = prox_s(sy - gs / L)
        tn = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        zy = zn + (t - 1.0) / tn * (zn - z)
        sy = sn + (t - 1.0) / tn * (sn - s)
        z, s, t = zn, sn, tn
        val = dense_dual_value(z, s, inst, Wk, Ak, b)
        if mode == "penalty":
            val += nu * float(s @ s)
        if val < best:
            best = val
    return z, s, best


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def primal_subgradient_reference(inst, iters):
    """Projected subgradient on the single-simplex objective with averaging.

    The entropy term is theta-strongly convex on the simplex, so the classic
    2 / (theta (k+1)) step with linear-weight averaging converges at O(1/k).
    Returns (x_average, objective value at x_average computed directly).
    """
    x = np.full(inst.d, 1.0 / inst.d)
    acc = np.zeros(inst.d)
    wsum = 0.0
    A = inst.A.reshape(inst.m * inst.n, inst.d)
    b = inst.b.reshape(-1)
    for k in range(1, iters + 1):
        r = A @ x - b
        if inst.p == 2.0:
            nr = float(np.linalg.norm(r))
            gn = A.T @ (r / nr) if nr > 0.0 else np.zeros(inst.d)
        elif inst.p == 1.0:
            gn = A.T @ np.sign(r)
        else:
            raise ValueError("reference supports p in {1, 2}")
        g = gn / inst.m + inst.theta * (np.log(np.maximum(x, 1e-300)) + 1.0)
        x = project_simplex(x - (2.0 / (inst.theta * (k + 1))) * g)
        acc += k * x
        wsum += k
    xavg = acc / wsum
    r = A @ xavg - b
    pos = xavg[xavg > 0.0]
    value = float(np.linalg.norm(r, inst.p)) / inst.m + inst.theta * float(
        np.sum(pos * np.log(pos))
    )
    return xavg, value


# Scalar and dense forms that the package itself does not use: the blockwise
# kernels and the vectorized prox are checked against these.


def conj_g(t, theta):
    """Conjugate of the entropy block: theta * log(sum exp(t / theta)).

    Evaluated in max-shifted form so large arguments cannot overflow.
    """
    t = np.asarray(t, dtype=float)
    tmax = float(t.max())
    return tmax + theta * math.log(float(np.sum(np.exp((t - tmax) / theta))))


def softmax_map(t, theta):
    """Gradient of conj_g: the simplex point exp(t/theta) / sum exp(t/theta)."""
    t = np.asarray(t, dtype=float)
    e = np.exp((t - t.max()) / theta)
    return e / e.sum()


def prox_lq_scalar(t, params):
    """Minimizer of (t - s)^2 / (2 gamma) + nu |s|^q over real s.

    ``params`` is a ``ProxParams``.  Bisects the magnitude
    equation r + gamma q nu r^(q-1) = |t| on [0, |t|] down to ``params.tol``;
    the result keeps the sign of t and never exceeds |t|.  Exceeding the
    iteration cap is an internal error and raises.
    """
    t = float(t)
    q = params.q_exponent
    if math.isinf(q):
        return min(1.0, max(-1.0, t))
    if params.nu == 0.0 or t == 0.0:
        return t
    if q == 1.0:
        shift = params.gamma * params.nu
        return math.copysign(max(abs(t) - shift, 0.0), t)
    coef = params.gamma * q * params.nu
    target = abs(t)
    lo, hi = 0.0, target
    iters = 0
    while hi - lo > params.tol:
        if iters >= BISECT_MAX_ITER:
            raise RuntimeError(
                f"prox bisection failed to reach tol={params.tol} within "
                f"{BISECT_MAX_ITER} iterations (|t|={target})"
            )
        mid = 0.5 * (lo + hi)
        if mid + coef * mid ** (q - 1.0) <= target:
            lo = mid
        else:
            hi = mid
        iters += 1
    return math.copysign(0.5 * (lo + hi), t)


def dual_kernel_floor(inst, W):
    """(exact, claimed) smallest positive eigenvalue of W^2 + A^T A.

    The radius bounds divide by the claimed per-factor floor
    min(lambda_min_plus(W)^2, sigma_min_plus(A)^2); that floor matches the
    exact value only when the two kernels line up, so callers should compare
    the pair before trusting dual_radius as a hard bound.
    """
    Wm = W.W if hasattr(W, "W") else np.asarray(W, dtype=float)
    M = np.kron(Wm @ Wm, np.eye(inst.d))
    for i in range(inst.m):
        sl = slice(i * inst.d, (i + 1) * inst.d)
        M[sl, sl] += inst.A[i].T @ inst.A[i]
    evals = np.linalg.eigvalsh(M)
    lam_max = float(evals[-1])
    positive = evals[evals > 1e-12 * lam_max]
    exact = float(positive[0]) if positive.size else 0.0
    dc = data_constants(inst)
    claimed = min(spectral_constants(Wm)[1] ** 2, dc.sigma_min_plus_A**2)
    return exact, claimed


def block_hessian_norms(inst, W, z, s, iters=300, seed=0):
    """Power-iteration estimates of the largest eigenvalues of the dual's
    z block W D W and s block A D A^T at (z, s): (lambda_z, lambda_s).

    D is block diagonal in the per-node softmax Jacobians
    (diag x_i - x_i x_i^T) / theta, x_i the softmax of the link
    -(Wz + A^T s)_i / theta.  Each estimate is a Rayleigh quotient of a unit
    vector, so it never exceeds the true eigenvalue.
    """
    Wm = W.W
    A = inst.A
    T = -(Wm @ z.reshape(inst.m, inst.d) + np.einsum("ind,in->id", A, s.reshape(inst.m, inst.n)))
    X = _softmax_rows(T, inst.theta)

    def jac(V):
        return (X * V - X * (X * V).sum(axis=1, keepdims=True)) / inst.theta

    def hz(V):
        return Wm @ jac(Wm @ V)

    def hs(U):
        return np.einsum("ind,id->in", A, jac(np.einsum("ind,in->id", A, U)))

    rng = np.random.default_rng(seed)
    estimates = []
    for hv, shape in ((hz, (inst.m, inst.d)), (hs, (inst.m, inst.n))):
        v = rng.standard_normal(shape)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = hv(v)
            lam = float(np.vdot(v, w))
            v = w / np.linalg.norm(w)
        estimates.append(lam)
    return tuple(estimates)


# Test-only helpers.


@dataclass(frozen=True)
class ProxParams:
    """Step gamma, penalty weight nu, exponent q and bisection tolerance of
    one prox, checked as ``prox_R`` checks them."""

    gamma: float
    nu: float
    q_exponent: float
    tol: float = 1e-12

    def __post_init__(self):
        _check_prox_params(self.gamma, self.nu, self.q_exponent, self.tol)


def spectral_constants(W):
    """(lambda_max, lambda_min_plus) of a symmetric PSD matrix."""
    return _extreme_eigenvalues(np.linalg.eigvalsh(np.asarray(W, dtype=float)))


def save_topology(topology, path):
    """Write the edge-list format: first line m, then one 'i j' line per edge."""
    lines = [str(topology.m)]
    lines += [f"{i} {j}" for i, j in topology.edges]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary(path):
    """The key=value lines of a summary.txt, values as int, float or str."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, raw = line.split("=", 1)
            try:
                out[key] = int(raw)
            except ValueError:
                try:
                    out[key] = float(raw)
                except ValueError:
                    out[key] = raw
    return out
