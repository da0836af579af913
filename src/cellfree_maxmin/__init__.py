"""Max-min fairness power control for multigroup multicast cell-free
massive MIMO downlink: instance generation, closed-form rates, a smoothed
accelerated projected gradient solver, a bisection baseline, and seeded
experiment runners."""

from .netgen import (
    Dimensions,
    NetworkInstance,
    PhysicalConfig,
    generate_geometry,
    generate_instance,
    instance_from_json,
    instance_to_json,
    large_scale_fading,
    noise_power,
)
from .rates import (
    MonteCarloRateReport,
    RateModel,
    RateVector,
    build_rate_model,
    epa_power,
    epa_rates,
    is_feasible,
    min_rate,
    rate_oracle_monte_carlo,
    rates_vector,
    user_rate,
)
from .solver_apg import (
    ApgConfig,
    LineSearchError,
    SolveReport,
    apg_solve,
    apg_solve_continuation,
    project_feasible,
    smooth_gradient,
    smooth_objective,
)
from .solver_bisection import (
    BisectionConfig,
    BisectionReport,
    bisection_solve,
    build_soc_system,
    feasibility_oracle,
    rate_upper_bound,
    soc_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ApgConfig",
    "BisectionConfig",
    "BisectionReport",
    "Dimensions",
    "LineSearchError",
    "MonteCarloRateReport",
    "NetworkInstance",
    "PhysicalConfig",
    "RateModel",
    "RateVector",
    "SolveReport",
    "apg_solve",
    "apg_solve_continuation",
    "bisection_solve",
    "build_rate_model",
    "build_soc_system",
    "epa_power",
    "epa_rates",
    "feasibility_oracle",
    "generate_geometry",
    "generate_instance",
    "instance_from_json",
    "instance_to_json",
    "is_feasible",
    "large_scale_fading",
    "min_rate",
    "noise_power",
    "project_feasible",
    "rate_oracle_monte_carlo",
    "rate_upper_bound",
    "rates_vector",
    "smooth_gradient",
    "smooth_objective",
    "soc_residual",
    "user_rate",
]
