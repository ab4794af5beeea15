import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from reference_values import (
    TOY_M,
    TOY_N,
    TOY_D,
    TOY_SEED,
    TOY_P1_THETA,
    TOY_P2_THETA,
)

import entrodual as ed


@pytest.fixture(scope="session")
def ring4():
    return ed.build_laplacian(ed.topology_ring(4))


@pytest.fixture(scope="session")
def toy_p2():
    return ed.generate_instance(TOY_SEED, TOY_M, TOY_N, TOY_D, 2.0, TOY_P2_THETA)


@pytest.fixture(scope="session")
def toy_p1():
    return ed.generate_instance(TOY_SEED, TOY_M, TOY_N, TOY_D, 1.0, TOY_P1_THETA)


@pytest.fixture(scope="session")
def stm_p1_trace(toy_p1, ring4):
    """One densely traced run on the p=1 toy, shared across tests."""
    state, trace = ed.run_stm(
        toy_p1, ring4, ed.STMConfig(max_iter=2000, trace_every=1)
    )
    return state, trace


@pytest.fixture
def data_log(monkeypatch):
    """Every product with the data blocks, logged as "apply" (A x) or
    "adjoint" (A^T s), counted at ``ProblemInstance.block_products``, the one
    place both are taken, so the einsum and the BLAS form are both seen."""
    log = []
    real = ed.ProblemInstance.block_products

    def counted(inst):
        products = real.__get__(inst, ed.ProblemInstance)
        return products._replace(
            apply=lambda X, out=None: log.append("apply") or products.apply(X, out=out),
            adjoint=lambda S, out=None: log.append("adjoint") or products.adjoint(S, out=out))

    monkeypatch.setattr(ed.ProblemInstance, "block_products", property(counted))
    return log
