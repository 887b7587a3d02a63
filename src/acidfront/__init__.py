"""Finite-volume simulation of acid-mediated tumour invasion fronts in 1-D,
with space-dependent acid diffusivity, wave-speed estimation, and
homogenization analysis."""

from .analysis import (
    GapReport,
    HomogenizationVerdict,
    InvasionRegime,
    PositivityRecorder,
    WaveSpeedRecorder,
    WaveSpeedSeries,
    classify_invasion,
    detect_gap,
    effective_diffusivity,
    harmonic_mean_piecewise,
    harmonic_mean_quadrature,
    homogenization_compare,
    leveque_yee_step,
    tail_speed,
)
from .core import (
    AsymptoticStates,
    DimensionalParameters,
    ModelParameters,
    asymptotic_states,
    fkpp_minimal_speed,
    nondimensionalize,
    reaction_u,
    reaction_v,
    reaction_w,
)
from .errors import (
    ConfigurationError,
    FrontProximityWarning,
    InstabilityError,
    ParameterWarning,
    ResolutionWarning,
    StabilityWarning,
)
from .mesh import (
    Constant,
    DiffusionProfile,
    Mesh,
    PeriodicPiecewiseConstant,
    SingleJump,
    Sinusoidal,
    build_uniform_mesh,
    mesh_from_interfaces,
    project_cell_averages,
)
from .scenarios import (
    TABLE3_ROWS,
    RunResult,
    RunSummary,
    ScenarioConfig,
    convergence_study,
    effective_twin,
    initial_state,
    observed_order,
    parse_config,
    preset,
    preset_names,
    render_config,
    run_config,
    run_configs,
    run_homogenization_suite,
    run_scenario,
    speed_table,
)
from .scheme import (
    SchemeOptions,
    SimulationState,
    TridiagonalSystem,
    assemble_implicit_v,
    assemble_implicit_w,
    diffusion_operator,
    interface_diffusivity_arithmetic,
    interface_diffusivity_harmonic,
    reaction_step_limit,
    run,
    semidiscrete_rhs,
    solve_tridiagonal,
    step_imex,
)

__version__ = "0.1.0"
