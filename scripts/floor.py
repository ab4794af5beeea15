#!/usr/bin/env python3
"""Time each solver iteration next to the products it cannot avoid, on one thread.

For each rung of the benchmark ladder (``perfbench/workloads.json``: the
instance, its topology and theta, at p = 1) it prints two tables:

- products: the isolated time of the row kernel (the softmax xhat of a link,
  with its log-sum-exp, as the gradient takes it), of A xhat, of A^T s and of
  one gossip product W X, each the best of several repeats;
- solvers: the untraced STM and ACRCD time per iteration, from the solver
  loop's own clock (the trace's ``wall_ms``, rows only at the ends), next to
  the floor, the sum of the products one iteration makes.  An STM iteration
  makes one kernel pass, A xhat, A^T s and two W products.  An ACRCD
  iteration makes one kernel pass and then, on a z step, two W products, on
  an s step A xhat and two A^T s; its floor weights the two by the run's own
  split of z and s steps.

"above" is the iteration's time less its floor: the buffer work and the
Python around the products.  All times are microseconds.

    python scripts/floor.py            # about five seconds
    python scripts/floor.py --quick    # fewer iterations and repeats
"""

import argparse
import json
import os
import sys

# one BLAS thread (set before NumPy loads), and crossover's timer
from crossover import best_us

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from entrodual import acrcd, dual, network, problem, stm  # noqa: E402

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.json")


def rungs():
    """(name, instance, W) for each benchmark workload, at p = 1."""
    with open(WORKLOADS) as f:
        workloads = json.load(f)["workloads"]
    for name, w in workloads.items():
        inst = problem.generate_instance(w["instance_seed"], w["m"], w["n"], w["d"], 1.0,
                                         w["theta"])
        W = network.build_laplacian(network.make_topology(w["topology"], w["m"]))
        yield name, inst, W


def per_iter_us(run, inst, W, cfg, repeats):
    """Best over ``repeats`` runs of the loop's time per iteration, and the
    last run's point and trace."""
    best = np.inf
    for _ in range(repeats):
        point, trace = run(inst, W, cfg)
        best = min(best, 1e3 * (trace.wall_ms[-1] - trace.wall_ms[0]) / trace.iter[-1])
    return best, point, trace


def product_us(inst, W, link, s, budget_s, repeats):
    """Isolated times of the row kernel, A xhat, A^T s and W X at one point."""
    lse = np.empty(inst.m)
    X = dual._rows_softmax(link, inst.theta, lse)
    S = s.reshape(inst.m, inst.n)
    op, products = network.gossip_operator(W), inst.block_products
    out = np.empty((inst.m, inst.d))
    fns = (lambda: dual._rows_softmax(link, inst.theta, lse), lambda: products.apply(X),
           lambda: products.adjoint(S, out=out), lambda: op @ X)
    return [best_us(fn, repeats, budget_s) for fn in fns]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="fewer iterations and repeats")
    args = parser.parse_args()
    iters, repeats, budget_s = (30, 1, 0.002) if args.quick else (2000, 3, 0.02)
    print(f"numpy {np.__version__}, {os.cpu_count()} cpus, one BLAS thread, "
          f"{iters} iterations per run")
    products, solvers = [], []
    for name, inst, W in rungs():
        # untraced: rows only at the ends, with the loop's clock on
        loop = dict(max_iter=iters, trace_every=iters, timing=True)
        t_stm, q, _ = per_iter_us(stm.run_stm, inst, W, stm.STMConfig(**loop), repeats)
        t_acrcd, _, trace = per_iter_us(acrcd.run_acrcd, inst, W,
                                        acrcd.ACRCDConfig(rng_seed=1, **loop), repeats)
        kernel, ax, ats, wx = product_us(inst, W, q.link, q.s, budget_s, repeats)
        z_share = trace.n_comm[-1] / trace.iter[-1]
        floors = {"stm": kernel + ax + ats + 2 * wx,
                  "acrcd": kernel + z_share * 2 * wx + (1 - z_share) * (ax + 2 * ats)}
        products.append(f"{name:>8} {inst.m:4d} {inst.n:3d} {inst.d:3d} "
                        f"{kernel:7.1f} {ax:7.1f} {ats:7.1f} {wx:7.1f}")
        for solver, t in (("stm", t_stm), ("acrcd", t_acrcd)):
            floor = floors[solver]
            solvers.append(f"{name:>8} {solver:>6} {t:8.1f} {floor:8.1f} {t - floor:8.1f} "
                           f"{floor / t:6.2f}")
    print(f"products, us each\n{'rung':>8} {'m':>4} {'n':>3} {'d':>3} "
          f"{'kernel':>7} {'A x':>7} {'A^T s':>7} {'W X':>7}")
    print("\n".join(products))
    print()
    print(f"solvers, us per iteration\n{'rung':>8} {'solver':>6} {'iter':>8} {'floor':>8} "
          f"{'above':>8} {'share':>6}")
    print("\n".join(solvers))


if __name__ == "__main__":
    main()
