"""Dual decomposition solvers for entropy-regularized p-norm fitting over networks."""

from .acrcd import (
    ACRCDConfig,
    ACRCDState,
    BlockOracle,
    acrcd_init,
    acrcd_step,
    run_acrcd,
)
from .baseline import subgradient_baseline
from .dual import (
    DualConstants,
    DualState,
    conj_F,
    default_regularizer_weight,
    dual_gradient,
    dual_objective,
    lipschitz_constants,
)
from .errors import ConfigError, NumericFailure
from .harness import ExperimentConfig, compare_solvers, load_config, run_experiment
from .network import (
    GossipMatrix,
    Topology,
    build_laplacian,
    load_topology,
    make_topology,
    topology_complete,
    topology_erdos_renyi,
    topology_path,
    topology_ring,
    topology_star,
)
from .problem import (
    DataConstants,
    PrimalState,
    ProblemInstance,
    consensus_residual,
    data_constants,
    entropy,
    generate_instance,
    instance_checksum,
    load_instance,
    save_instance,
)
from .prox import project_box, prox_R
from .recovery import (
    GapReport,
    consensus_candidate,
    duality_gap,
    primal_from_dual,
)
from .stm import STMConfig, STMState, run_stm, stm_init, stm_step
from .trace import RateReport, SolverTrace, fit_rate, load_trace, save_trace

__version__ = "0.1.0"
