"""Communication graphs and their gossip matrices.

A ``Topology`` is one read-only (e, 2) edge array, checked in vectorised
NumPy passes; ``_connected`` proves it connected.  A gossip matrix is
always the unnormalized Laplacian of a checked ``Topology``: the degree on
the diagonal and -1 per edge.  So it is symmetric and positive semidefinite,
its rows sum to zero, and its kernel is exactly the consensus line span(1)
(Brouwer & Haemers, Spectra of Graphs, 2012); nothing checks these again.

How W is applied.  Every product with W goes through ``gossip_operator``,
which returns the operator a GossipMatrix fixed at construction: the dense
(m, m) array, multiplied by BLAS, or its neighbour slots.  The slot form
lists, for each row i, the node itself and then one neighbour column per
t < k (k the largest node degree), with W's entries as weights, so that

    W X = sum_t weights[t] * X[index[t]],   t = 0..k,

which costs O(m k d) against the dense O(m^2 d); rows with fewer than k
neighbours pad with their own index and weight 0.  The slots are read from
the topology's edges, never from the dense W.  They are used when
(k + 1) * SLOT_CROSSOVER <= m (``takes_slots``).

A slot product takes one of two forms.  Where a slot's column is i + o for
long stretches of rows, as on rings and paths labelled in order, it is
read in place: ``slot_runs`` splits each slot into maximal runs of constant
offset o and weight w, in one vectorised O(m k) pass, and each run adds
w * X[a + o : b + o] to rows a..b-1 of the output.  A ring has 7 runs, a
path 8.  The runs are kept when runs * SLOT_CROSSOVER <= (k + 1) m, that
is, when they average at least SLOT_CROSSOVER rows.  Otherwise, on
relabelled or irregular graphs, the product gathers the k + 1 rows each
node needs into one (k + 1, m, d) temporary, which the slices never form,
and contracts it with the weights in one einsum.  Both forms add each
row's terms to 0 in slot order, so they give the same bits but for the
sign of a nan.

The spectrum.  lambda_max and lambda_min_plus are taken in closed form
(``closed_form_spectrum``) when the edge count and the degrees fix the graph:
complete graphs, stars, paths and rings, under any labelling of the nodes.
There the slot form is built in O(m k) time without ever forming the dense W,
and the dense form skips only the eigensolve.  Every other graph is measured
in the one O(m^3) ``eigvalsh`` of ``_measured_spectrum``, which checks only
that lambda_min_plus is within the eigensolver's resolution.

SLOT_CROSSOVER = 64 comes from ``scripts/crossover.py`` (one thread, a
2-core x86 machine with 4 MiB of L2 per core).  On rings (k = 2) the slots
tie with dense at m = 192, d = 8 and win from there on (1.4x at 256, 9x at
512, 19x at 1024); at d = 50 they win from m = 128-160 (2.3x at 160).  At
m = 64 they lose 2-3x, so ring64 stays dense.  The dense product's cost per
entry rises once W leaves the cache, so at m = 1024 the slots win on
Erdos-Renyi graphs with k = 21-35 (1.4-3x) that the rule keeps dense, and
at m = 512, k = 22 they win at d = 8 (1.6x) and tie at d = 50.  A rule
linear in m and blind to d cannot follow all of these; in the table, 64
sends no graph to the slots where they lose.  The two products round differently,
at the ulp level.

The run rule comes from the same table.  A run costs about one NumPy call.
On in-order rings and paths from m = 128 the slices take 0.4-1.0 of the
gather's time at d = 8 and d = 50 (about half on ring512 at d = 8); a
relabelled ring splits into about m runs, and its slices take 10-40x the
gather's time.  The SLOT_CROSSOVER ratios above were measured on the gather.
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

# A measured lambda_min_plus at most this fraction of lambda_max is beyond
# the eigensolver's resolution.
ZERO_EIG_REL = 1e-9
# W is applied from its neighbour slots when m >= SLOT_CROSSOVER * (k + 1).
SLOT_CROSSOVER = 64


def _edge_array(edges):
    ends = np.array(edges).reshape(-1, 2)
    if ends.size and ends.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be machine integers, got dtype {ends.dtype}")
    return ends.astype(np.intp, copy=False)


def _edge_fault(m, edges):
    """The message for the first edge, in order, that ``Topology`` rejects."""
    u, v = edges.T
    # keys of out-of-range edges may collide, but never ahead of a faulty edge
    repeat = np.ones(len(edges), dtype=bool)
    repeat[np.unique(u * m + v, return_index=True)[1]] = False
    bad = (u == v) | (edges < 0).any(axis=1) | (edges >= m).any(axis=1) | (v < u) | repeat
    i, j = edges[np.argmax(bad)].tolist()
    if i == j:
        return f"self-loop at node {i}"
    if not (0 <= i < m and 0 <= j < m):
        return f"edge {(i, j)} out of range for m={m}"
    if j < i:
        return f"edge {(i, j)} not normalized as (i, j) with i < j"
    return f"duplicate edge {(i, j)}"


def _connected(m, edges):
    """Min-label hooking with pointer jumping (Shiloach & Vishkin 1982): each
    round hooks every root onto its smallest smaller neighbouring root, then
    points every node at its root.  Labels only fall and node 0 keeps 0, so
    the graph is connected when all are 0 and not when a round hooks nothing."""
    u, v = edges.T
    label = np.arange(m)
    while np.count_nonzero(label):
        lu, lv = label[u], label[v]
        if not np.count_nonzero(lu != lv):
            return False
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        # a chain of hooked roots is shorter than m, so this flattens it
        for _ in range(int(m).bit_length()):
            label = label[label]
    return True


class DisconnectedGraph(ValueError):
    """Raised for edges that leave some node unreachable from node 0."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Connected undirected graph on nodes 0..m-1: ``edges`` is a read-only
    (e, 2) ``intp`` array of distinct pairs i < j in the order given,
    ``degrees`` counts each node's edges and ``max_degree`` is the largest
    count (0 on one node).  Equality is identity."""

    m: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False, repr=False)
    max_degree: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("node count must be at least 1")
        edges = _edge_array(self.edges)
        u, v = edges.T
        if np.count_nonzero((u < 0) | (u >= v) | (v >= self.m)):
            raise ValueError(_edge_fault(self.m, edges))
        # in range and normalized, distinct edges have distinct keys
        keys = np.sort(u * self.m + v)
        if np.count_nonzero(keys[1:] == keys[:-1]):
            raise ValueError(_edge_fault(self.m, edges))
        if not _connected(self.m, edges):
            raise DisconnectedGraph("graph is disconnected: the gossip-matrix kernel would be "
                                    "larger than the consensus line")
        degrees = np.bincount(edges.ravel(), minlength=self.m)
        for name, array in (("edges", edges), ("degrees", degrees)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "max_degree", int(degrees.max(initial=0)))

    @classmethod
    def from_edges(cls, m, edges):
        """Normalize arbitrary (i, j) pairs into a sorted, deduplicated Topology."""
        ends = np.sort(_edge_array(edges))
        if np.count_nonzero((ends < 0) | (ends >= m)):
            # keys i * m + j would alias out-of-range pairs onto valid ones
            return cls(m, np.unique(ends, axis=0))
        # in range, keys i * m + j sort and repeat exactly as the rows do
        keys = np.unique(ends[:, 0] * m + ends[:, 1])
        return cls(m, np.stack((keys // m, keys % m), axis=1))


def topology_path(m):
    return Topology(m, np.array((np.arange(m - 1), np.arange(1, m))).T)


def topology_ring(m):
    # the 2-node ring degenerates to a single edge
    if m <= 2:
        return topology_path(m)
    # sorted: (0, 1), (0, m - 1), (1, 2), (2, 3), ..., (m - 2, m - 1)
    seconds = np.arange(m)
    seconds[:2] = 1, m - 1
    return Topology(m, np.array((np.maximum(np.arange(-1, m - 1), 0), seconds)).T)


def topology_complete(m):
    return Topology(m, np.array(np.triu_indices(m, 1)).T)


def topology_star(m):
    return Topology(m, np.array((np.zeros_like(np.arange(1, m)), np.arange(1, m))).T)


def topology_erdos_renyi(m, p, seed):
    """G(m, p): one uniform draw per pair i < j, row by row; raises if disconnected."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    if seed < 0:
        raise ValueError(f"erdos-renyi seed must be nonnegative, got {seed}")
    pairs = np.array(np.triu_indices(m, 1)).T
    edges = pairs[np.random.default_rng(seed).random(len(pairs)) < p]
    try:
        return Topology(m, edges)
    except DisconnectedGraph:
        raise DisconnectedGraph(f"erdos-renyi draw (m={m}, p={p}, seed={seed}) is "
                                "disconnected; raise p or pick another seed") from None


GENERATORS = {"path": topology_path, "ring": topology_ring,
              "complete": topology_complete, "star": topology_star}


def make_topology(spec, m):
    """Build a topology from a generator spec string, e.g. "ring" or "erdos-renyi 0.4 7"."""
    parts = str(spec).split()
    if not parts:
        raise ValueError("empty topology spec")
    name, args = parts[0], parts[1:]
    if name in GENERATORS and not args:
        return GENERATORS[name](m)
    if name == "erdos-renyi" and len(args) == 2:
        try:
            p, seed = float(args[0]), int(args[1])
        except ValueError:
            raise ValueError(f"bad arguments in topology spec {spec!r}; "
                             "erdos-renyi takes: p seed") from None
        return topology_erdos_renyi(m, p, seed)
    generators = ", ".join([*GENERATORS, "erdos-renyi"])
    raise ValueError(f"unknown topology spec {spec!r}; generators: {generators} "
                     "(erdos-renyi takes: p seed)")


def load_topology(path):
    with open(path) as fh:
        lines = [(k + 1, line.strip()) for k, line in enumerate(fh) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty topology file")
    try:
        m = int(lines[0][1])
    except ValueError:
        raise ValueError(f"{path}:{lines[0][0]}: node count must be an integer") from None
    edges = []
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: edge endpoints must be integers") from None
    try:
        return Topology.from_edges(m, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def slot_runs(index, weights, most=None):
    """The runs of the slot tables ``index`` and ``weights``, or None when
    there are more than ``most`` of them.

    A run is a maximal stretch of rows a..b-1 of one slot over which the
    column offset index[t, i] - i and the weight stay at some o and w, so
    that its terms are w * X[a + o : b + o].  Runs are returned slot by slot,
    each as (slice(a, b), slice(a + o, b + o), w).  The split is one
    vectorised pass over the tables; the slices are built only when kept.
    """
    m = index.shape[1]
    offset = index - np.arange(m)
    heads = np.ones(index.shape, dtype=bool)
    heads[:, 1:] = (offset[:, 1:] != offset[:, :-1]) | (weights[:, 1:] != weights[:, :-1])
    slot, start = np.nonzero(heads)
    if most is not None and slot.size > most:
        return None
    # a run stops where the next starts, or at row m where the next opens a slot
    stop = np.append(start[1:], m)
    stop[stop <= start] = m
    return tuple((slice(a, b), slice(a + o, b + o), w) for a, b, o, w in
                 zip(start.tolist(), stop.tolist(), offset[slot, start].tolist(),
                     weights[slot, start].tolist()))


@dataclass(frozen=True, eq=False)
class NeighbourSlots:
    """W in neighbour-slot form: W X = sum_t weights[t] * X[index[t]].

    Column i of the read-only (k + 1, m) tables ``index`` and ``weights``
    lists row i of the Laplacian: the node itself with its degree, then its
    neighbours in ascending column order with weight -1, padded with i
    itself and weight 0.

    A product takes one of two forms, fixed by ``of``.  Where the slots
    split into few ``slot_runs`` (runs * SLOT_CROSSOVER <= (k + 1) m),
    ``runs`` holds them and each adds w * X[a + o : b + o] to out[a:b] in
    place.  Otherwise ``runs`` is None: one ``np.take`` gathers each row of
    X and its k slot rows into a (k + 1, m, d) temporary, which the rule
    (k + 1) * SLOT_CROSSOVER <= m keeps below d / SLOT_CROSSOVER times the
    m^2 floats of a dense W, and one ``np.einsum`` contracts it with the
    weights.  Both forms add the k + 1 terms of a row to 0 in slot order,
    padded slots included, so they round exactly as the term-by-term sum
    and as each other (only the sign of a nan may differ).  Only the einsum keeps quiet about inf * 0 and
    overflow; the slices warn, as the dense product does.
    """

    index: np.ndarray
    weights: np.ndarray
    runs: tuple | None = field(default=None, repr=False)

    @classmethod
    def of(cls, topology):
        """The slots of the Laplacian of ``topology``, read from its edges."""
        m, degrees = topology.m, topology.degrees
        # each edge both ways, sorted by row and then column
        rows, cols = np.concatenate((topology.edges, topology.edges[:, ::-1])).T
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        # slot 0 is the node itself; its neighbours fill slots 1..k in order
        slot = 1 + np.arange(rows.size) - (np.cumsum(degrees) - degrees)[rows]
        index = np.tile(np.arange(m), (1 + topology.max_degree, 1))
        weights = np.zeros(index.shape)
        weights[0] = degrees
        index[slot, rows] = cols
        weights[slot, rows] = -1.0
        index.setflags(write=False)
        weights.setflags(write=False)
        return cls(index, weights, slot_runs(index, weights, index.size // SLOT_CROSSOVER))

    def __matmul__(self, X):
        X = np.asarray(X, dtype=float)
        m = self.index.shape[1]
        if X.ndim not in (1, 2) or X.shape[0] != m:
            raise ValueError(f"operand of shape {X.shape} does not match W of shape {(m, m)}; "
                             "expected (m,) or (m, d)")
        X2 = X.reshape(m, -1)
        if self.runs is None:
            terms = np.take(X2, self.index, axis=0)
            return np.einsum("tmd,tm->md", terms, self.weights).reshape(X.shape)
        out = np.zeros(X2.shape)
        for rows, source, w in self.runs:
            part = out[rows]
            if w == -1.0:
                # IEEE a - x is a + (-1 * x) exactly, in one pass
                np.subtract(part, X2[source], out=part)
            else:
                np.add(part, w * X2[source], out=part)
        return out.reshape(X.shape)


def laplacian_matrix(topology):
    """The dense, read-only Laplacian of ``topology``: the one place W becomes a matrix."""
    u, v = topology.edges.T
    W = np.zeros((topology.m, topology.m))
    W[u, v] = W[v, u] = -1.0
    np.fill_diagonal(W, topology.degrees)
    W.setflags(write=False)
    return W


def takes_slots(topology):
    """The operator rule: neighbour slots when (k + 1) * SLOT_CROSSOVER <= m,
    with k the largest node degree of ``topology``, else the dense matrix."""
    return (topology.max_degree + 1) * SLOT_CROSSOVER <= topology.m


def _four_sin_sq(j, n):
    # 4 sin^2(pi j / n) = 2 - 2 cos(2 pi j / n), without the cancellation at small j
    return 4.0 * math.sin(math.pi * j / n) ** 2


def closed_form_spectrum(topology):
    """(lambda_max, lambda_min_plus) of the Laplacian of ``topology`` when its
    edge count e and largest degree k fix the graph, else None.

    A connected graph on m >= 2 nodes is complete when e = m(m - 1)/2, a star
    when e = m - 1 and k = m - 1, a path when e = m - 1 and k <= 2, and a ring
    when e = m and k = 2 (the degrees sum to 2m, so every one is 2).  Their
    Laplacian eigenvalues (Brouwer & Haemers, Spectra of Graphs, 2012)
    are 0 and m; 0, 1 and m; 4 sin^2(pi j / (2m)); and 4 sin^2(pi j / m),
    for j = 0..m-1.  m = 1 gets None: ``_measured_spectrum`` rejects it.
    """
    m, e = topology.m, len(topology.edges)
    if m < 2:
        return None
    k = topology.max_degree
    if 2 * e == m * (m - 1):
        return float(m), float(m)
    if e == m - 1 and k == m - 1:
        return float(m), 1.0
    if e == m - 1 and k <= 2:
        return _four_sin_sq(m - 1, 2 * m), _four_sin_sq(1, 2 * m)
    if e == m and k == 2:
        return _four_sin_sq(m // 2, m), _four_sin_sq(1, m)
    return None


@dataclass(frozen=True, eq=False)
class GossipMatrix:
    """The Laplacian W of a ``Topology`` with its extreme spectrum: in closed
    form where ``closed_form_spectrum`` knows the graph, else measured in one
    ``eigvalsh`` (``_measured_spectrum``).  The topology is connected, so W
    is PSD with kernel span(1) by construction and is not checked again.

    chi = lambda_max / lambda_min_plus is the spectral condition number
    governing how fast consensus information spreads.

    ``operator`` applies W: ``NeighbourSlots.of`` the topology where
    ``takes_slots`` (see the module docstring), else the dense
    ``laplacian_matrix``; both are read-only.  The topology is an argument,
    not a field (anything else raises TypeError), so on the slot form the
    object keeps O(m k) state.  Equality is identity, so a GossipMatrix can be
    a dict key.
    """

    topology: InitVar[Topology]
    lambda_max: float = field(init=False)
    lambda_min_plus: float = field(init=False)
    operator: "np.ndarray | NeighbourSlots" = field(init=False, repr=False)

    def __post_init__(self, topology):
        if not isinstance(topology, Topology):
            raise TypeError(f"a GossipMatrix takes a Topology, got {type(topology).__name__}")
        spectrum = closed_form_spectrum(topology)
        slots = takes_slots(topology)
        W = None if slots and spectrum else laplacian_matrix(topology)
        lam_max, lam_min_plus = spectrum or _measured_spectrum(W)
        object.__setattr__(self, "lambda_max", lam_max)
        object.__setattr__(self, "lambda_min_plus", lam_min_plus)
        object.__setattr__(self, "operator", NeighbourSlots.of(topology) if slots else W)

    @property
    def chi(self):
        return self.lambda_max / self.lambda_min_plus


def gossip_operator(W):
    """What applies the GossipMatrix W (its ``operator``).

    The one place products with W are taken from: ``gossip_operator(W) @ X``
    for X of shape (m,) or (m, d).
    """
    if not isinstance(W, GossipMatrix):
        raise TypeError(f"W must be a GossipMatrix, got {type(W).__name__}")
    return W.operator


def _measured_spectrum(W):
    """(lambda_max, lambda_min_plus) of the Laplacian W of a connected graph,
    from one ``eigvalsh``.  Its ascending eigenvalues are 0, once, then
    lambda_min_plus up to lambda_max, so nothing else is checked."""
    m = W.shape[0]
    if m < 2:
        # one node has no neighbour: W = [0] has no positive eigenvalue
        raise ValueError(f"a gossip matrix needs at least 2 nodes, got m = {m}")
    evals = np.linalg.eigvalsh(W)
    lam_max, lam_min_plus = float(evals[-1]), float(evals[1])
    if lam_min_plus <= ZERO_EIG_REL * lam_max:
        raise ValueError(f"chi is beyond the eigensolver's resolution: lambda_min_plus "
                         f"{lam_min_plus:.3e} is at most {ZERO_EIG_REL:g} * lambda_max "
                         f"{lam_max:.3e}")
    return lam_max, lam_min_plus


def build_laplacian(topology):
    """Gossip matrix from the unnormalized graph Laplacian of ``topology``."""
    return GossipMatrix(topology)
