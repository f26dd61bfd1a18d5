"""GEE estimation with stochastic regressors.

Estimating-function evaluation and root-solving for longitudinal or
clustered data whose regressors are generated from history, plus seeded
martingale-structured simulation and finite-sample diagnostics of the
optimality and strong-consistency conditions.
"""

from .correlation import (
    WorkingCorrelationSpec,
    working_corr,
)
from .diagnostics import (
    ConditionReport,
    DiagnosticsParams,
    a1_gap,
    a1_gap_study,
    ball_lattice,
    condition_trajectories,
    consistency_study,
    optimality_study,
    slln_decay_study,
    slln_monitor,
)
from .estimating import (
    CorrelationTruth,
    EstimatingFunction,
    Perturbation,
    a2_halving_pass,
    a2_schedule,
    corr_trajectory,
    det_ratio,
    eval_g,
    eval_g_perturbed,
    information_sums,
    integrability_summary,
    jacobian,
    needs_truth,
    resolve_estimator,
    score_increments,
)
from .exceptions import (
    ConfigError,
    DatasetParseError,
    InvalidInputError,
    InvalidVarianceError,
    MisspecificationWarning,
    NotPositiveDefiniteError,
    SingularDenominatorError,
    SingularDesignError,
    SingularJacobianError,
    StochGeeError,
    SymmetryViolationError,
)
from .linalg import (
    EigenExtremes,
    numerical_radius,
    spd_solve,
    spectral_norm,
    sym_eigen_extremes,
    sym_eigenvalues,
    sym_eigh,
)
from .model import (
    Cluster,
    Dataset,
    LinkFunction,
    dataset_from_arrays,
    get_link,
    load_dataset,
    write_dataset,
)
from .simulation import (
    GENERATOR_ID,
    RegressorProcess,
    ReplicationResult,
    ScenarioConfig,
    SizeSchedule,
    TruthSpec,
    effective_truth,
    replication_seed,
    run_replications,
    simulate_replications,
    simulate_scenario,
    splitmix64,
    substream,
)
from .solver import GeeFit, SolverConfig, default_init, linear_closed_form, solve_gee

__version__ = "0.1.0"
