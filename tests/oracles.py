"""Independent reference implementations, and the helpers only tests use.

Everything here is written against dense matrices and textbook update rules,
on purpose: these oracles share no code with the package beyond the raw
problem data, so agreement is meaningful evidence of correctness.  The
exceptions are ``dual_kernel_floor`` and ``dual_radius``, which read the
package's spectral and data constants, and the two bit-for-bit oracles
``duality_gap_reference`` and ``csv_trace_bytes``, which keep an earlier form
of package code so that its replacement can be held to the same bits.
``topology_fault``, ``connected`` and ``erdos_renyi_edges`` keep the
per-edge loops, breadth-first search and per-pair draws that the vectorised
``Topology`` checks and ``topology_erdos_renyi`` replaced.  The
helpers at the end (``ProxParams``, ``dense_matrix``, ``laplacian``,
``spectral_constants``, ``save_topology``, ``read_summary``) serve tests; no
solver needs them.
``prox_lq_scalar`` covers every q >= 1, while the package's ``prox_R`` takes
only the q = 2 and q = inf of its p = 2 and p = 1 instances; it carries its
own bisection cap and parameter checks.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from entrodual.dual import DUAL_BALL_SLACK
from entrodual.network import ZERO_EIG_REL, NeighbourSlots, gossip_operator
from entrodual.problem import data_constants
from entrodual.recovery import GapReport, primal_from_dual
from entrodual.trace import TRACE_COLUMNS

# Iteration cap of prox_lq_scalar's bisection; reaching it raises.
PROX_BISECT_MAX_ITER = 200


def dense_operators(inst, W):
    """Dense lifted matrices: kron(W, I_d), the block-diagonal data map, and b."""
    Wk = np.kron(dense_matrix(W), np.eye(inst.d))
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
        if iters >= PROX_BISECT_MAX_ITER:
            raise RuntimeError(
                f"prox bisection failed to reach tol={params.tol} within "
                f"{PROX_BISECT_MAX_ITER} iterations (|t|={target})"
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
    Wm = dense_matrix(W)
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


def dual_radius(inst, W, x_star):
    """Bound R^2 on ||q*||^2 driven by the solution's log-coordinates.

    R^2 = theta^2 m ||log x* + 1||^2 / min(sigma_min_plus^2, lambda_min_plus^2).
    Valid when the dual solution has no component in the kernel of the
    stacked constraint map, i.e. when the smallest positive eigenvalue of
    W^2 + A^T A is the per-factor floor in the denominator
    (``dual_kernel_floor`` compares the two).
    """
    x = np.asarray(x_star, dtype=float)
    if x.min() <= 0.0:
        raise ValueError("radius bounds need a strictly interior simplex point")
    v = np.log(x) + 1.0
    dc = data_constants(inst)
    denom = min(dc.sigma_min_plus_A**2, W.lambda_min_plus**2)
    return inst.theta**2 * inst.m * float(v @ v) / denom


def block_hessian_norms(inst, W, z, s, iters=300, seed=0):
    """Power-iteration estimates of the largest eigenvalues of the dual's
    z block W D W and s block A D A^T at (z, s): (lambda_z, lambda_s).

    D is block diagonal in the per-node softmax Jacobians
    (diag x_i - x_i x_i^T) / theta, x_i the softmax of the link
    -(Wz + A^T s)_i / theta.  Each estimate is a Rayleigh quotient of a unit
    vector, so it never exceeds the true eigenvalue.
    """
    Wm = dense_matrix(W)
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


def duality_gap_reference(state, inst, W):
    """``recovery.duality_gap`` as it was computed before each quantity was
    taken once: the block mean by ``ndarray.mean``, the norms by
    ``np.linalg.norm``, conj_F's ball test and <s, b>, then the objective's
    own <s, b>, box test and zero penalty.

    The kernel pass is the package's (``primal_from_dual``), because the
    softmax's bits depend on the kernel's layout; everything after it is
    the earlier arithmetic, so the package's certificate must equal this
    GapReport exactly.
    """
    lse = np.empty(inst.m)
    ps = primal_from_dual(state, inst, W, lse)
    xbar = np.maximum(ps.x_blocks.mean(axis=0), 0.0)
    xbar = xbar / xbar.sum()
    residual = inst.stacked_A() @ xbar - inst.stacked_b()
    pos = xbar[xbar > 0.0]
    entropy = float(np.sum(pos * np.log(pos)))
    primal = float(np.linalg.norm(residual, inst.p)) + inst.m * inst.theta * entropy
    cres = float(np.linalg.norm(gossip_operator(W) @ ps.x_blocks))
    s, q = state.s, inst.q_exponent
    if not np.linalg.norm(s, q) <= 1.0 + DUAL_BALL_SLACK:
        return GapReport(primal, math.inf, math.inf, cres)
    h = float(s @ inst.stacked_b()) + float(lse.sum())
    if math.isinf(q):
        if np.abs(s).max(initial=0.0) > 1.0 + DUAL_BALL_SLACK:
            raise ValueError("q = inf mode requires ||s||_inf <= 1")
    else:
        h = h + 0.0 * float(np.sum(np.abs(s) ** q))
    return GapReport(primal, h, primal + h, cres)


def csv_trace_bytes(trace):
    """The bytes ``trace.save_trace`` wrote when it wrote through
    ``csv.writer``: the header, then ints as they are and floats by repr."""
    ints = {"iter", "n_comm", "n_comp"}
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for row in trace.rows():
        writer.writerow([v if c in ints else repr(v) for c, v in zip(TRACE_COLUMNS, row)])
    return buf.getvalue().encode()


# Test-only helpers.


@dataclass(frozen=True)
class ProxParams:
    """Step gamma, penalty weight nu, exponent q >= 1 and bisection
    tolerance of one scalar prox."""

    gamma: float
    nu: float
    q_exponent: float
    tol: float = 1e-12

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.nu < 0.0:
            raise ValueError("nu must be nonnegative")
        if not self.q_exponent >= 1.0:  # NaN fails too
            raise ValueError("q must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


def dense_matrix(gossip):
    """The dense, read-only W of a GossipMatrix: on the dense form its
    ``operator`` itself, on the slot form rebuilt from the slots."""
    op = gossip.operator
    if not isinstance(op, NeighbourSlots):
        return op
    m = op.index.shape[1]
    W = np.zeros((m, m))
    # added, not assigned: a padded slot points at the diagonal with weight 0
    np.add.at(W, (np.arange(m), op.index), op.weights)
    W.setflags(write=False)
    return W


def laplacian(top):
    """Dense unit-weight Laplacian of ``top``, built here rather than by the
    package: the reference its Laplacian, spectrum and products are held to."""
    ends = top.edges
    W = np.zeros((top.m, top.m))
    W[ends[:, 0], ends[:, 1]] = W[ends[:, 1], ends[:, 0]] = -1.0
    W[np.diag_indices(top.m)] = -W.sum(axis=1)
    return W


def spectral_constants(W):
    """(lambda_max, lambda_min_plus) of a symmetric PSD matrix; eigenvalues
    at most ``ZERO_EIG_REL * lambda_max`` count as zero."""
    evals = np.linalg.eigvalsh(np.asarray(W, dtype=float))
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise ValueError("matrix has no positive eigenvalue")
    return lam_max, float(evals[evals > ZERO_EIG_REL * lam_max][0])


def connected(m, edges):
    """Whether the graph is connected: breadth-first search from node 0."""
    nbrs = [[] for _ in range(m)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = [False] * m
    seen[0] = True
    queue = [0]
    while queue:
        i = queue.pop()
        for j in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return all(seen)


def topology_fault(m, edges):
    """The message a Topology on ``m`` nodes raises for ``edges`` (a list of
    (i, j) tuples), or None if it accepts them: the edges are checked one by
    one in the given order, then connectivity by ``connected``."""
    if m < 1:
        return "node count must be at least 1"
    seen = set()
    for edge in edges:
        i, j = edge
        if i == j:
            return f"self-loop at node {i}"
        if not (0 <= i < m and 0 <= j < m):
            return f"edge {edge} out of range for m={m}"
        if j < i:
            return f"edge {edge} not normalized as (i, j) with i < j"
        if edge in seen:
            return f"duplicate edge {edge}"
        seen.add(edge)
    if not connected(m, edges):
        return ("graph is disconnected: the gossip-matrix kernel would be larger "
                "than the consensus line")
    return None


def erdos_renyi_edges(m, p, seed):
    """The edges of G(m, p): one ``rng.random()`` per pair i < j, row by row."""
    rng = np.random.default_rng(seed)
    return [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < p]


def save_topology(topology, path):
    """Write the edge-list format: first line m, then one 'i j' line per edge."""
    lines = [str(topology.m)]
    lines += [f"{i} {j}" for i, j in topology.edges.tolist()]
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
