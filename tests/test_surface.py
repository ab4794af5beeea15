"""The package's public surface: names deleted or moved to ``tests/oracles.py``
because no solver, command or script uses them stay out of ``src/``."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import entrodual as ed
from entrodual import baseline, dual, harness, network, problem, prox, recovery

GONE = [
    (recovery, "ergodic_average"),
    (problem, "distributed_objective"),
    (problem, "block_singular_values"),
    (network, "LiftedMatrix"),
    (network, "lift"),
    (network, "spectral_constants"),
    (network, "save_topology"),
    (prox, "ProxParams"),
    (dual, "conj_G"),
    (dual, "_as_blocks"),
    (dual, "_sigma_max_blocks"),
    (harness, "read_summary"),
    (problem, "apply_blocks"),
    (dual, "dual_radius"),
    (dual, "block_radii"),
    (dual, "_log_shift_sq"),
    (baseline, "_parse_step_rule"),
    (prox, "_bisect_magnitudes"),
    (prox, "BISECT_TOL"),
    (prox, "BISECT_MAX_ITER"),
    (dual, "_dual_ball_radius_sq"),
    (harness, "HARNESS_P_VALUES"),
    (network, "_dense_matrix"),
    (network, "gossip_from_matrix"),
    (network, "_apply_form"),
    (network, "_off_diagonal"),
    (network, "_check_symmetric"),
    (network, "SYMMETRY_TOL_REL"),
    (network, "_validate_spectrum"),
    (network, "_extreme_eigenvalues"),
    (network, "SPECTRAL_SLACK_REL"),
    (dual, "_link_of"),
    (baseline, "project_simplex_rows"),
    (baseline, "ENTROPY_FLOOR"),
    (baseline, "STEP_SCALE"),
    (baseline, "PENALTY"),
    (problem, "check_simplex"),
    (problem, "primal_objective"),
    (problem, "SIMPLEX_TOL"),
]


@pytest.mark.parametrize("module, name", GONE, ids=[f"{m.__name__}.{n}" for m, n in GONE])
def test_name_is_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(ed, name)


def test_dual_constants_hold_no_radius_fields():
    fields = {f.name for f in dataclasses.fields(ed.DualConstants)}
    assert fields == {"L_H", "L_z", "L_s", "eta"}


def test_stm_state_holds_what_its_step_reads():
    # no step counter, no stored alpha (the step recomputes it from A_k), and
    # every iterate carries its link, so the step always takes a link callable
    fields = {f.name for f in dataclasses.fields(ed.STMState)}
    assert fields == {"A_k", "q_buf", "u_buf", "layout"}
    link = inspect.signature(ed.stm_step).parameters["link"]
    assert link.default is inspect.Parameter.empty


def test_acrcd_state_holds_what_its_step_reads():
    # no step counter beside the two it sums, and no aliases of the blocks
    fields = {f.name for f in dataclasses.fields(ed.ACRCDState)}
    assert fields == {"zP_bar", "zP_under", "sQ_bar", "sQ_under", "n_comm", "n_comp"}


@pytest.mark.parametrize("owner, name", [
    (ed.DualState, "norm_sq"),
    (ed.DualState, "copy"),
    (ed.DualState, "is_finite"),
    (ed.GossipMatrix, "m"),
    (network.NeighbourSlots, "shape"),
    (ed.STMConfig, "prox_tol"),
    (ed.ExperimentConfig, "q"),
    (ed.STMConfig, "q_exponent"),
    (ed.ExperimentConfig, "step_rule"),
    (ed.ExperimentConfig, "penalty"),
    (ed.GossipMatrix, "topology"),
    (ed.STMConfig, "nu"),
    (ed.ExperimentConfig, "nu"),
    (ed.GossipMatrix, "W"),
    (network.NeighbourSlots, "from_entries"),
    (ed.ExperimentConfig, "L"),
    (ed.STMConfig, "mu"),
    (ed.ExperimentConfig, "mu"),
    (ed.ACRCDState, "k"),
    (ed.DualState, "zeros"),
    *((ed.ACRCDState, f"{block}_{pair}") for pair in ("bar", "under")
      for block in ("z", "P", "s", "Q")),
])
def test_method_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_comparator_takes_no_seed():
    # it starts from the uniform point, so its trace depends on the instance only
    assert "seed" not in inspect.signature(ed.subgradient_baseline).parameters


def test_dual_state_needs_its_link():
    # a point from (z, s) alone is made by DualState.of, which forms the link
    with pytest.raises(TypeError):
        ed.DualState(np.zeros(20), np.zeros(12))


# imports that exist only so that perfbench's spans can wrap the name there
SPAN_ONLY_IMPORTS = {("dual", "data_constants"), ("harness", "primal_from_dual")}


def test_every_import_is_read():
    src = Path(ed.__file__).parent
    unread = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.add((path.stem, name))
    assert unread == SPAN_ONLY_IMPORTS


def test_w_is_taken_only_as_a_gossip_matrix(toy_p1):
    X = np.full((4, 3), 1.0 / 3.0)
    for call in (lambda: network.gossip_operator(np.eye(3)),
                 lambda: problem.consensus_residual(np.eye(4), X),
                 lambda: dual.lipschitz_constants(toy_p1, np.eye(4))):
        with pytest.raises(TypeError, match="GossipMatrix"):
            call()
    # a GossipMatrix is built from a Topology only
    for W in (np.eye(3), [[1.0, -1.0], [-1.0, 1.0]]):
        with pytest.raises(TypeError, match="Topology"):
            ed.GossipMatrix(W)


def test_each_input_rule_has_one_owner():
    """Each input rule's message is raised from one line of ``src/``: the
    object that every path passes through checks it, and nothing else."""
    src = Path(ed.__file__).parent
    lines = [line for path in sorted(src.glob("*.py")) for line in path.read_text().splitlines()]
    owners = {
        "max_iter must be positive": 1,  # trace.observe
        "trace_every must be positive": 1,  # trace.observe
        "p must be 1 or 2": 1,  # ProblemInstance
        "acrcd needs rng_seed": 1,  # ACRCDConfig
        "rng_seed (solver_seed in a config) must be nonnegative": 1,  # ACRCDConfig
        "instance seed must be nonnegative": 1,  # problem.generate_instance
        "erdos-renyi seed must be nonnegative": 1,  # network.topology_erdos_renyi
        "acrcd handles p = 1 only": 1,  # acrcd.check_p
        "all data blocks are zero": 1,  # problem.check_data
        "L_z, L_s and eta are set together or not at all": 1,  # ACRCDConfig
        "L must be positive": 1,  # STMConfig
        "a gossip matrix needs at least 2 nodes": 1,  # network._measured_spectrum
        "dimensions m, n, d must be positive": 1,  # ExperimentConfig.validate
        "bad arguments in topology spec": 1,  # network.make_topology
        # default_regularizer_weight checks it for run_stm; the harness keeps
        # a second copy, because acrcd and the subgradient comparator never
        # read target_eps and only the harness's first_certified does
        "target accuracy must be positive and finite": 2,
    }
    for message, count in owners.items():
        assert sum(message in line for line in lines) == count, message
