"""Shared hypothesis strategies for property tests."""

import math

import numpy as np
from hypothesis import strategies as st

from entrodual import Topology, generate_instance, make_topology
from entrodual.problem import P_VALUES


@st.composite
def connected_topologies(draw, max_m=7):
    """Random connected graph: a spanning tree plus a few extra edges."""
    m = draw(st.integers(min_value=2, max_value=max_m))
    edges = set()
    for i in range(1, m):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((parent, i))
    n_extra = draw(st.integers(min_value=0, max_value=m))
    for _ in range(n_extra):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        j = draw(st.integers(min_value=0, max_value=m - 1))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return Topology(m, tuple(sorted(edges)))


@st.composite
def relabelled_generator_topologies(draw, max_m=40):
    """A ring, path, star or complete graph with its nodes relabelled at random."""
    spec = draw(st.sampled_from(["ring", "path", "star", "complete"]))
    m = draw(st.integers(min_value=2, max_value=max_m))
    label = np.array(draw(st.permutations(range(m))))
    return Topology.from_edges(m, label[make_topology(spec, m).edges])


@st.composite
def edge_lists(draw, max_m=8):
    """(m, edges): any list of (i, j) tuples on m nodes.

    Either endpoints stay in range or they run from -1 to m; the pairs come
    as drawn or normalized to i < j, without self-loops or repeats, and in
    the drawn order either way.  Repeats, reversed and out-of-range pairs,
    disconnected graphs and isolated nodes all occur.
    """
    m = draw(st.integers(min_value=1, max_value=max_m))
    lo, hi = draw(st.sampled_from([(0, m - 1), (0, m - 1), (-1, m)]))
    ends = st.integers(min_value=lo, max_value=hi)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * m))
    if draw(st.booleans()):
        edges = list(dict.fromkeys((min(e), max(e)) for e in edges if e[0] != e[1]))
    return m, edges


@st.composite
def small_instances(draw):
    """Small random problem instances covering both norms."""
    m = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=2, max_value=5))
    p = draw(st.sampled_from([1.0, 2.0]))
    theta = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return generate_instance(seed, m, n, d, p, theta)


@st.composite
def simplex_points(draw, d):
    """Strictly positive simplex point with controlled conditioning."""
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=d,
            max_size=d,
        )
    )
    v = np.asarray(raw, dtype=float)
    return v / v.sum()


def invalid_loss_exponents():
    """Loss exponents every instance rejects: any float but 1 and 2, with
    NaN, both infinities and the near misses 0.5, 1.5 and 3 named so that
    they are drawn often."""
    named = st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.5, 3.0])
    return st.one_of(named, st.floats().filter(lambda p: p not in P_VALUES))


def invalid_accuracies():
    """target_eps values every mode rejects: NaN, infinity, zero (either
    sign), negative."""
    return st.one_of(st.sampled_from([float("nan"), float("inf")]),
                     st.floats(max_value=0.0, allow_nan=False))
