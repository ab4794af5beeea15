"""Problem data: the instance, its block products and its data constants.

Each of the m nodes holds a local block (A_i, b_i); the shared decision
variable lives on the probability simplex and is regularized by entropy:

    min_{x in simplex}  (1/m) ||A x - b||_p  +  theta <x, log x>

with A the row-stack of the blocks and p one of P_VALUES: the loss is the
1-norm, whose dual is the box mode, or the 2-norm, whose dual is the
penalised mode.  The distributed form replicates x per node, couples the
copies through a gossip matrix, and drops the 1/m factor; its value at a
set of blocks is ``recovery.primal_side``.
"""

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .network import gossip_operator

# Singular values below this fraction of sigma_max count as zero.
ZERO_SV_REL = 1e-9
# Noise level (relative to scale) used when planting b = A x + noise.
NOISE_REL = 1e-2
# Blocks with at least this many entries (n * d) are applied by batched BLAS,
# smaller ones by einsum; the two tie near 100-128 entries for m = 64-1024.
BLAS_BLOCK_MIN = 128
# The loss exponents an instance takes; every other p is rejected.
P_VALUES = (1.0, 2.0)


def entropy(x):
    """<x, log x> with the continuous extension 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    pos = x[x > 0.0]
    return float(np.add.reduce(pos * np.log(pos)))


def vector_norm(x, p):
    """||x||_p of a 1-D float array for p in {1, 2, inf} (the losses and
    their duals), by the reduction that ``np.linalg.norm(x, p)`` makes for
    that p (so to the same bit), without the dispatch that costs that call
    more than short vectors' reduction."""
    if p == 2.0:
        return math.sqrt(x.dot(x))
    a = np.abs(x)
    if math.isinf(p):
        return float(np.maximum.reduce(a, initial=0.0))
    if p == 1.0:
        return float(np.add.reduce(a))
    raise ValueError(f"vector_norm takes p in {{1, 2, inf}}, got {p!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable bundle of per-node data blocks.

    A has shape (m, n, d) with A[i] the block of node i; b has shape (m, n).
    """

    m: int
    n: int
    d: int
    p: float
    theta: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if min(self.m, self.n, self.d) < 1:
            raise ValueError("dimensions must be positive")
        if self.p not in P_VALUES:  # NaN and inf fail too
            raise ValueError(f"p must be 1 or 2, got {self.p!r}")
        if not 0.0 < self.theta < math.inf:  # NaN fails too
            raise ValueError("theta must be positive and finite")
        A = np.ascontiguousarray(np.asarray(self.A, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.b, dtype=float))
        if A.shape != (self.m, self.n, self.d):
            raise ValueError(f"A has shape {A.shape}, expected {(self.m, self.n, self.d)}")
        if b.shape != (self.m, self.n):
            raise ValueError(f"b has shape {b.shape}, expected {(self.m, self.n)}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("data blocks must be finite")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def q_exponent(self):
        """Holder conjugate of p: math.inf at p = 1 (the box mode), 2 at p = 2."""
        return math.inf if self.p == 1.0 else 2.0

    @cached_property
    def block_singular_values(self):
        """Singular values of every block A_i, row i descending; read-only.

        A is read-only, so one batched SVD per instance serves every caller.
        """
        svals = np.linalg.svd(self.A, compute_uv=False)
        svals.setflags(write=False)
        return svals

    @cached_property
    def block_products(self):
        """The ``BlockProducts`` that apply this instance's blocks: batched
        BLAS when n * d >= BLAS_BLOCK_MIN, else einsum; chosen once."""
        blas = self.n * self.d >= BLAS_BLOCK_MIN
        return (blas_products if blas else einsum_products)(self.A)

    def stacked_A(self):
        """Row-stacked (m*n, d) view of the blocks."""
        return self.A.reshape(self.m * self.n, self.d)

    def stacked_b(self):
        return self.b.reshape(-1)


class BlockProducts(NamedTuple):
    """The two products with the data blocks, the one place both are taken.

    ``apply(X, out=None)`` maps X (m, d) to the rows A_i x_i, an (m, n)
    array; ``adjoint(S, out=None)`` maps S (m, n) to the rows A_i^T s_i, an
    (m, d) array.  Either writes into ``out`` when it is given.
    """

    apply: Callable
    adjoint: Callable


def einsum_products(A):
    """``BlockProducts`` of the (m, n, d) blocks A by np.einsum.

    Each product is np.einsum with A and the subscripts bound, so it costs no
    Python call beyond einsum's own.  Below BLAS_BLOCK_MIN entries per block
    einsum is the faster form: on 512 x 2 x 8 blocks matmul takes 2-2.5x as
    long (scripts/crossover.py, one thread).
    """
    return BlockProducts(partial(np.einsum, "ind,id->in", A),
                         partial(np.einsum, "ind,in->id", A))


def blas_products(A):
    """``BlockProducts`` of the (m, n, d) blocks A by batched np.matmul.

    A x is the stack of matrix-vector products A_i @ x_i, A^T s the stack of
    vector-matrix products s_i @ A_i; both read A in its C order.  From
    BLAS_BLOCK_MIN entries per block on, BLAS is the faster form: on
    64 x 20 x 50 blocks einsum takes 1.8-2x as long.
    """
    m, n, d = A.shape

    def apply(X, out=None):
        out = np.empty((m, n)) if out is None else out
        np.matmul(A, X[:, :, None], out=out[:, :, None])
        return out

    def adjoint(S, out=None):
        out = np.empty((m, d)) if out is None else out
        np.matmul(S[:, None, :], A, out=out[:, None, :])
        return out

    return BlockProducts(apply, adjoint)


@dataclass(frozen=True)
class PrimalState:
    """Per-node simplex points x_blocks (m, d), checked on construction."""

    x_blocks: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_blocks, dtype=float)
        if x.ndim != 2:
            raise ValueError("x_blocks must be a (m, d) array")
        # ufunc reductions: the ndarray methods add a Python call each
        lowest = np.minimum.reduce(x, axis=None)
        if lowest < -1e-12:
            raise ValueError(f"block entry {lowest:.3e} below zero")
        # a matvec with ones; x.sum(axis=1) reduces one short row at a time
        sums = x.dot(np.ones(x.shape[1]))
        sums -= 1.0
        if np.maximum.reduce(np.abs(sums, out=sums)) > 1e-12:
            raise ValueError("each block must sum to 1")
        object.__setattr__(self, "x_blocks", x)


@dataclass(frozen=True)
class DataConstants:
    """Extreme singular values over the data blocks."""

    sigma_max_A: float
    sigma_min_plus_A: float


def sigma_max(inst):
    """max_i sigma_max(A_i), from the shared block singular values; 0 when
    every block is zero."""
    return float(inst.block_singular_values[:, 0].max())


def check_data(inst):
    """Raise unless some data block is nonzero, which sigma_max > 0 needs."""
    if sigma_max(inst) <= 0.0:
        raise ValueError("all data blocks are zero")


def data_constants(inst):
    """max_i sigma_max(A_i) and min_i sigma_min_plus(A_i).

    Singular values below ``ZERO_SV_REL * sigma_max`` are treated as zero;
    an all-zero block makes the constants meaningless and raises.
    """
    check_data(inst)
    svals = inst.block_singular_values
    s_max = sigma_max(inst)
    threshold = ZERO_SV_REL * s_max
    # rows descend, so a block's smallest positive value sits at its count - 1
    counts = np.count_nonzero(svals > threshold, axis=1)
    if counts.min() == 0:
        i = int(np.argmin(counts))
        raise ValueError(f"block A_{i} has no singular value above {threshold:.3e}")
    minima = svals[np.arange(inst.m), counts - 1]
    return DataConstants(s_max, float(minima.min()))


def consensus_residual(W, x_blocks):
    """||(W (x) I) x||_2, zero exactly on consensual stacks: one W product."""
    r = (gossip_operator(W) @ np.asarray(x_blocks, float)).ravel(order="K")
    return math.sqrt(r.dot(r))


def generate_instance(seed, m, n, d, p, theta, scale=1.0):
    """Random instance with a planted interior point.

    Entries of A_i are i.i.d. normal scaled by ``scale``; b_i = A_i x0 + noise
    with x0 a random simplex point and noise at NOISE_REL of the data scale,
    so a near-feasible consensual solution exists.  Same seed, same bits.
    """
    if seed is not None and seed < 0:  # numpy's own message names no setting
        raise ValueError(f"instance seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((m, n, d))
    x0 = rng.dirichlet(np.ones(d))
    noise = NOISE_REL * scale * rng.standard_normal((m, n))
    b = np.einsum("ind,d->in", A, x0) + noise
    return ProblemInstance(m, n, d, float(p), float(theta), A, b)


def instance_checksum(inst):
    """SHA-256 over the header and raw block bytes; pins generator output."""
    digest = hashlib.sha256()
    digest.update(f"{inst.m} {inst.n} {inst.d} {inst.p!r} {inst.theta!r}".encode())
    digest.update(inst.A.tobytes())
    digest.update(inst.b.tobytes())
    return digest.hexdigest()


def save_instance(inst, path):
    """Text format: header 'm n d p theta', then per block n rows of d+1
    comma-separated reals (the A_i row followed by the b_i entry)."""
    lines = [f"{inst.m} {inst.n} {inst.d} {inst.p!r} {inst.theta!r}"]
    for i in range(inst.m):
        for r in range(inst.n):
            row = [repr(float(v)) for v in inst.A[i, r]] + [repr(float(inst.b[i, r]))]
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path):
    with open(path) as fh:
        raw = [line.strip() for line in fh]
    lines = [(k + 1, line) for k, line in enumerate(raw) if line]
    if not lines:
        raise ValueError(f"{path}: empty instance file")
    header = lines[0][1].split()
    if len(header) != 5:
        raise ValueError(f"{path}:{lines[0][0]}: header must be 'm n d p theta'")
    try:
        m, n, d = int(header[0]), int(header[1]), int(header[2])
        p, theta = float(header[3]), float(header[4])
    except ValueError:
        raise ValueError(f"{path}:{lines[0][0]}: malformed header {lines[0][1]!r}") from None
    body = lines[1:]
    if len(body) != m * n:
        raise ValueError(f"{path}: expected {m * n} data rows, found {len(body)}")
    A = np.empty((m, n, d))
    b = np.empty((m, n))
    for k, (lineno, line) in enumerate(body):
        fields = line.split(",")
        if len(fields) != d + 1:
            raise ValueError(f"{path}:{lineno}: expected {d + 1} values, got {len(fields)}")
        try:
            values = [float(v) for v in fields]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed number in {line!r}") from None
        A[k // n, k % n] = values[:d]
        b[k // n, k % n] = values[d]
    try:
        return ProblemInstance(m, n, d, p, theta, A, b)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
