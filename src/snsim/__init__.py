"""Simulator and analysis toolkit for self-gravitating wavepackets.

The package evolves a 1D wave under an external trap plus a mean-field
self-attraction, factorizes it into a linear pilot wave and a peaked
soliton, and quantifies how well the soliton's drift follows the
guidance decomposition v_drift = v_dbb + v_int together with the
norm/amplitude reciprocity.  A radial solver provides the 3D
self-gravitating ground state (Choquard problem) and its published
spectrum checks.
"""

from .choquard import (
    GroundStateResult,
    RadialGrid,
    energy_functional,
    radial_newton_potential,
    solve_ground_state,
    spectrum_value,
)
from .errors import (
    BoundaryLeakError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    ExtractionError,
    NonFiniteFieldError,
    SimulationError,
)
from .fields import (
    Grid1D,
    PhaseAmplitude,
    WaveField,
    gaussian_packet,
    moments,
    phase_amplitude,
    spectral_gradient,
    squared_norm,
)
from .guidance import (
    SolitonState,
    VelocityDecomposition,
    decompose_run,
    extract_soliton,
    guidance_law_report,
    reciprocity_report,
    v_dbb,
    v_drift_series,
    v_int,
    write_guidance_csv,
)
from .oracles import (
    ClassicalState,
    GaussianMoments,
    classical_trajectory,
    coherent_state,
    gaussian_moment_flow,
)
from .potentials import (
    ConvolutionKernel,
    HarmonicModelParams,
    PhysParams,
    convolution_self_potential,
    harmonic_external,
    scaling_check,
    self_harmonic,
    self_stiffness,
    sphere_quadratic_kernel,
)
from .propagate import (
    EvolutionSpec,
    TrajectoryLog,
    evolve_kernel,
    evolve_linear,
    evolve_self_harmonic,
    imaginary_time_relax,
    read_snapshot,
    write_snapshots,
)
from .scenarios import (
    CheckResult,
    RunReport,
    ScenarioConfig,
    parse_config,
    render_config,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"
