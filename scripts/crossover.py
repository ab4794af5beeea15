#!/usr/bin/env python3
"""Time the two ways each product is taken, on one thread.

Prints the two tables that the package's form choices come from:

- gossip: W X by the dense (m, m) matrix against W's neighbour slots, the
  slots taken both by a gather and by shifted slices, on rings and paths
  labelled in order, a relabelled ring and Erdos-Renyi graphs, with the form
  ``network.SLOT_CROSSOVER`` picks for each graph and the slot form the run
  rule of ``network.NeighbourSlots.of`` picks;
- data blocks: A x and A^T s by np.einsum against batched np.matmul, over
  block shapes m x n x d, with the form ``problem.BLAS_BLOCK_MIN`` picks.

Each entry is the best of several repeats, in microseconds per product.

    python scripts/crossover.py            # the full tables, about a minute
    python scripts/crossover.py --quick    # fewer rows and repeats
"""

import argparse
import dataclasses
import os
import sys
import timeit

# one BLAS thread, set before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from entrodual import network, problem  # noqa: E402

RINGS = (64, 128, 160, 192, 256, 384, 512, 1024)
PATHS = (192, 300, 512)
RELABELLED_RINGS = (512, 1024)
ER_GRAPHS = ((256, 0.02), (256, 0.04), (512, 0.01), (512, 0.02), (512, 0.04),
             (1024, 0.01), (1024, 0.02), (1024, 0.04))
WIDTHS = (8, 50)
BLOCK_SHAPES = ((2, 8), (4, 16), (8, 12), (8, 16), (5, 30), (10, 20), (20, 50))
BLOCK_NODES = (64, 512, 1024)


def best_us(fn, repeats, budget_s=0.02):
    """Fastest of ``repeats`` timings of ``fn``, each about ``budget_s`` long."""
    timer = timeit.Timer(fn)
    once = min(timer.repeat(3, 1))
    number = max(1, int(budget_s / max(once, 1e-7)))
    return 1e6 * min(timer.repeat(repeats, number)) / number


def relabelled_ring(m):
    """The ring on m nodes under a fixed random labelling."""
    label = np.random.default_rng(0).permutation(m)
    return network.Topology.from_edges(m, label[network.topology_ring(m).edges])


def gossip_table(quick, repeats):
    graphs = [("ring", m, network.topology_ring)
              for m in (RINGS[::2] if quick else RINGS)]
    graphs += [("path", m, network.topology_path) for m in (PATHS[1:] if quick else PATHS)]
    graphs += [("relabelled ring", m, relabelled_ring)
               for m in (RELABELLED_RINGS[:1] if quick else RELABELLED_RINGS)]
    graphs += [(f"erdos-renyi {p} 1", m, lambda m, p=p: network.topology_erdos_renyi(m, p, 1))
               for m, p in (ER_GRAPHS[3:6] if quick else ER_GRAPHS)]
    rng = np.random.default_rng(0)
    print("gossip W X, us per product (SLOT_CROSSOVER = "
          f"{network.SLOT_CROSSOVER}: slots when (k + 1) * SLOT_CROSSOVER <= m, and slices "
          "when runs * SLOT_CROSSOVER <= (k + 1) * m)")
    print(f"{'graph':>20} {'m':>5} {'k':>3} {'runs':>5} {'d':>3} {'dense':>8} {'gather':>8} "
          f"{'slices':>8} {'dense/slots':>11} {'rule':>6} {'form':>7}")
    for name, m, make in graphs:
        try:
            topology = make(m)
        except ValueError:
            continue  # a disconnected draw
        W = network.laplacian_matrix(topology)
        slots = network.NeighbourSlots.of(topology)
        gather = dataclasses.replace(slots, runs=None)
        sliced = dataclasses.replace(slots, runs=network.slot_runs(slots.index, slots.weights))
        rule = "slots" if network.takes_slots(topology) else "dense"
        form = "gather" if slots.runs is None else "slices"
        for d in WIDTHS:
            X = rng.standard_normal((m, d))
            dense = best_us(lambda: W @ X, repeats)
            times = {"gather": best_us(lambda: gather @ X, repeats),
                     "slices": best_us(lambda: sliced @ X, repeats)}
            print(f"{name:>20} {m:5d} {topology.max_degree:3d} {len(sliced.runs):5d} {d:3d} "
                  f"{dense:8.1f} {times['gather']:8.1f} {times['slices']:8.1f} "
                  f"{dense / times[form]:11.2f} {rule:>6} {form:>7}")


def data_table(quick, repeats):
    rng = np.random.default_rng(0)
    print(f"data blocks, us per product (BLAS_BLOCK_MIN = {problem.BLAS_BLOCK_MIN}: "
          "matmul when n * d >= BLAS_BLOCK_MIN)")
    print(f"{'m':>5} {'n':>3} {'d':>3} {'n*d':>5} {'Ax einsum':>10} {'Ax blas':>8} "
          f"{'ATs einsum':>11} {'ATs blas':>9} {'rule':>7}")
    shapes = BLOCK_SHAPES[::2] if quick else BLOCK_SHAPES
    for m in BLOCK_NODES:
        for n, d in shapes:
            A = rng.standard_normal((m, n, d))
            X = rng.dirichlet(np.ones(d), size=m)
            S = rng.uniform(-1.0, 1.0, (m, n))
            ein, blas = problem.einsum_products(A), problem.blas_products(A)
            ax_out, ats_out = np.empty((m, n)), np.empty((m, d))
            times = [best_us(lambda f=f, V=V, o=o: f(V, out=o), repeats)
                     for f, V, o in ((ein.apply, X, ax_out), (blas.apply, X, ax_out),
                                     (ein.adjoint, S, ats_out), (blas.adjoint, S, ats_out))]
            rule = "blas" if n * d >= problem.BLAS_BLOCK_MIN else "einsum"
            print(f"{m:5d} {n:3d} {d:3d} {n * d:5d} {times[0]:10.1f} {times[1]:8.1f} "
                  f"{times[2]:11.1f} {times[3]:9.1f} {rule:>7}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="fewer rows and repeats")
    args = parser.parse_args()
    repeats = 3 if args.quick else 7
    print(f"numpy {np.__version__}, {os.cpu_count()} cpus, one BLAS thread")
    gossip_table(args.quick, repeats)
    print()
    data_table(args.quick, repeats)


if __name__ == "__main__":
    main()
