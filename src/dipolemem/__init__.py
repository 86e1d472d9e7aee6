"""dipolemem: simulation and pulse design for a quantum memory with a
time-controllable light-matter coupling."""

__version__ = "0.1.0"

from .errors import (ConfigError, DipolememError, ParameterError,
                     ResolutionError, SingularTransformError, StabilityError)
from .schedules import (DipolePhysical, EffectiveField, FieldEnvelope,
                        GaussianSegment, PiecewiseLinearSegment, Schedule,
                        SquareSegment, TabulatedSegment, TimeGrid,
                        coupling_from_dipole, effective_fields,
                        effective_time)
from .cavity import (CavityParams, SimResult, continuity_residual,
                     read_analytic, simulate_adiabatic, simulate_full,
                     square_pulse_efficiency)
from .control import (cooperativity_from_depth, optimal_write_input,
                      synthesize_couplings, total_efficiency,
                      variational_optimize, write_efficiency_of)
from .freespace import (FreeSpaceFields, FreeSpaceTransform, MediumParams,
                        analytic_evolution, entire_bessel_kernel,
                        numeric_evolution, reduced_continuity_residual,
                        storage_retrieval_sweep, thin_medium_cavity_coupling)
from .scenarios import (RunRecord, Scenario, builtin_verify,
                        design_couplings, load_scenario, run_scenario,
                        run_sweep, scenario_from_dict, scenario_hash,
                        write_artifacts)

__all__ = [
    "__version__",
    # errors
    "DipolememError", "ParameterError", "ConfigError", "StabilityError",
    "ResolutionError", "SingularTransformError",
    # schedules
    "TimeGrid", "FieldEnvelope", "EffectiveField", "Schedule",
    "SquareSegment", "GaussianSegment", "PiecewiseLinearSegment",
    "TabulatedSegment", "DipolePhysical", "coupling_from_dipole",
    "effective_time", "effective_fields",
    # cavity
    "CavityParams", "SimResult", "simulate_full", "simulate_adiabatic",
    "read_analytic", "square_pulse_efficiency", "continuity_residual",
    # control
    "optimal_write_input", "write_efficiency_of", "variational_optimize",
    "synthesize_couplings", "total_efficiency", "cooperativity_from_depth",
    # freespace
    "MediumParams", "FreeSpaceFields", "FreeSpaceTransform",
    "entire_bessel_kernel", "analytic_evolution", "numeric_evolution",
    "reduced_continuity_residual", "storage_retrieval_sweep",
    "thin_medium_cavity_coupling",
    # scenarios
    "Scenario", "RunRecord", "scenario_from_dict", "load_scenario",
    "scenario_hash", "run_scenario", "design_couplings", "run_sweep",
    "write_artifacts", "builtin_verify",
]
