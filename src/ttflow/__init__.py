"""Tensor-train Fokker-Planck solver and probability-flow transport toolkit.

The package verifies numerically that the time-t encoder of an
Ornstein-Uhlenbeck diffusion (the probability-flow ODE map) transports a
density to N(0, I) along the optimal-transport coupling: solve the
Fokker-Planck equation in tensor-train format on a Chebyshev grid, push
samples through the flow ODE, and compare the index pairing's cost with the
exact assignment cost.
"""

from .chebyshev import ChebGrid
from .cross import CrossResult, cross_approximate, maxvol
from .densities import (CertifiedDensity, MixtureSpec, QuarticComponent,
                        diag_gaussian_tt, gen_quartic_mixture, gen_tt_random,
                        mixture_callable, normalize_and_certify)
from .errors import (CertificateError, ConfigError, DegenerateCostError,
                     DomainBoundsError, InvalidShapeError,
                     NumericalDomainError, SamplingError, TTFlowError)
from .fpe import (DensityTrajectory, density_moments, fpe_solve,
                  rel_l2_distance)
from .flow import (FlowResult, PointCloud, flow_integrate, paths_to_csv,
                   sample_tt, straightness_diagnostic)
from .gaussian import (AnalyticGaussianFlow, GaussianSpec, eigen_shift,
                       eigen_stretch, encoder_map, finite_time_map,
                       gaussian_ot_cost, moments_at)
from .harness import (PRESETS, ExperimentConfig, aggregate_table,
                      config_from_dict, dump_trajectories, gaussian_check,
                      run_one, run_suite)
from .transport import TransportReport, compare, ot_assignment, paired_cost
from .tt import (TTTensor, load_tt, save_tt, tt_add, tt_eval, tt_extrema,
                 tt_from_dense, tt_hadamard, tt_integrate, tt_mode_apply,
                 tt_round, tt_scale, tt_weighted_inner)

__version__ = "0.1.0"

__all__ = [
    "AnalyticGaussianFlow", "CertificateError", "CertifiedDensity", "ChebGrid",
    "ConfigError", "CrossResult", "DegenerateCostError", "DensityTrajectory",
    "DomainBoundsError", "ExperimentConfig", "FlowResult",
    "GaussianSpec", "InvalidShapeError", "MixtureSpec", "NumericalDomainError",
    "PRESETS", "PointCloud", "QuarticComponent", "SamplingError", "TTFlowError",
    "TTTensor", "TransportReport", "aggregate_table", "compare",
    "config_from_dict", "cross_approximate", "density_moments",
    "diag_gaussian_tt", "dump_trajectories", "eigen_shift", "eigen_stretch",
    "encoder_map", "finite_time_map", "flow_integrate", "fpe_solve",
    "gaussian_check", "gaussian_ot_cost", "gen_quartic_mixture",
    "gen_tt_random", "load_tt", "maxvol", "mixture_callable", "moments_at",
    "normalize_and_certify", "ot_assignment", "paired_cost", "paths_to_csv",
    "rel_l2_distance", "run_one", "run_suite", "sample_tt", "save_tt",
    "straightness_diagnostic", "tt_add", "tt_eval", "tt_extrema",
    "tt_from_dense", "tt_hadamard", "tt_integrate", "tt_mode_apply",
    "tt_round", "tt_scale", "tt_weighted_inner",
]
