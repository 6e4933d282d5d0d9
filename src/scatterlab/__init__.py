"""
scatterlab: pseudo-spectral simulation and long-time verification toolkit for
the coupled cubic Schrodinger system on the line.
"""

from .spectral import (
    PHYSICAL,
    SPECTRAL,
    AnalysisParams,
    ComplexField,
    EdgeMassWarning,
    Grid1D,
    GridMismatchError,
    SideMismatchError,
    derivative,
    fourier_forward,
    fourier_inverse,
    norm_H0n,
    norm_Hn0,
    norm_L1,
    norm_L2,
    norm_Linf,
    norm_XT_components,
)
from .propagator import (
    FrequencyRangeError,
    LeadingSplit,
    free_evolve,
    kernel_evolve,
    leading_split,
    phase_difference_bound_holds,
    spectrum_at,
)
from .solver import (
    BandEdgeError,
    BoundaryWrapError,
    DomainSizingError,
    PairState,
    Trajectory,
    check_domain_for_horizon,
    evolve,
    geometric_schedule,
    initial_pair,
    strang_step,
)
from .ratefit import RateFit, fit_rate
from .remainder import (
    RESONANT_COEFF,
    TrilinearInput,
    h10_growth_fit,
    odd_power_split_holds,
    profile_spectra,
    remainder_decay_fit,
    remainder_oracle,
    remainder_physical,
    remainder_split,
    resonant_term,
)
from .scattering import (
    PhaseAccumulator,
    ScatteringEstimate,
    analyze_trajectory,
    corrected_spectra,
    estimate_limit,
    interpolation_pairs,
    phase_offset,
    reduced_ode_residual,
)
from .config import ConfigError, ExperimentConfig, build_experiment, parse_config
from .trajio import load_trajectory, save_trajectory, write_snapshot_csv

__all__ = [name for name in dir() if not name.startswith("_")]
