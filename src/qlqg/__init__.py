"""Optimal filtering and LQG feedback control for linear quantum systems.

The package has two layers.  The phase-space layer propagates Gaussian
beliefs: Riccati and Lyapunov flows for covariances, a Kalman-type
update for the posterior mean, optimal feedback gains and a closed-loop
Monte Carlo simulator.  The density-matrix layer integrates the
conditional master equation on small finite-dimensional systems and is
used to cross-check the Gaussian layer against first principles.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyEnsemble,
    GridMismatch,
    InvalidParameter,
    NoConvergence,
    NonFinite,
    NonRealCoefficient,
    NotAProjectorFamily,
    NotUnitary,
    NumericalError,
    PositivityLoss,
    QlqgError,
    UncertaintyViolation,
    ValidationError,
)
from .phase_space import (
    GaussianBelief,
    LinearCoefficients,
    PhaseSpaceModel,
    UncertaintyReport,
    build_coefficients,
    check_uncertainty,
    free_particle_model,
    model_from_json,
)
from .riccati import (
    CostSpec,
    MatrixPath,
    ScalarPath,
    TimeGrid,
    integrate_alpha,
    integrate_control_riccati,
    integrate_filter_riccati,
    lyapunov_unconditional,
    stationary_filter_covariance,
    total_minimal_cost,
)
from .kalman import MeasurementIncrement, filter_step
from .control import (
    ControlGainPath,
    ControlProblem,
    FilterProblem,
    control_gain_path,
    control_path_via_duality,
    duality_map,
    hjb_residual,
)
from .closed_loop import (
    ClosedLoopEnsemble,
    SimConfig,
    TrajectoryRecord,
    monte_carlo_expected_cost,
    simulate_closed_loop,
)
from .sme import (
    DensityMatrix,
    FiniteModel,
    SmeEnsemble,
    SmeTrajectory,
    discrete_conditioning,
    evolve_master,
    finite_model_from_json,
    lindblad_heisenberg,
    lindblad_schrodinger,
    master_step,
    simulate_sme_ensemble,
    simulate_sme_trajectory,
    sme_step,
    trace_distance,
    weak_measurement_unitary,
)
from . import free_particle

__version__ = "0.1.0"
