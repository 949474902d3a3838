"""Declarative scenario configs, run orchestration and file emission.

Configs are flat ``key = value`` text with ``#`` comments.  Every
scenario bakes in physically consistent defaults so the headline runs
are one-liners (``run figure1``).  Each is one row of ``_SCENARIO_TABLE``,
which names the keys it reads and the checks it makes; any other key set
away from its default is refused, never ignored.  Runs are
deterministic: repeated runs produce byte-identical CSV/TSV output.

The figure1 scenario realizes the oscillating-soliton configuration:
stiffness ratio k_self/k_ext = 1000, the soliton starting at the
stationary width of the combined stiffness, and the pilot a thousand
times wider in variance.  Those constraints tie the pilot's breathing
cycle to the soliton width (the pilot waist equals the soliton width a
quarter external-trap period in), so the analysis window defaults to two
periods of the soliton's own trap, well clear of the waist degeneracy.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .choquard import (
    RadialGrid,
    solve_ground_state,
    spectrum_value,
    write_result_records,
)
from .errors import BoundaryLeakError, ConfigError, SimulationError, require_normal
from .fields import Grid1D, WaveField, gaussian_packet, moments, normalized
from .guidance import (
    decompose_samples,
    frame_sample,
    guidance_law_report,
    norm_rate_report,
    reciprocity_report,
    write_guidance_csv,
)
from .oracles import (
    ClassicalState,
    GaussianMoments,
    MomentSeries,
    classical_trajectory,
    gaussian_moment_flow,
)
from .potentials import (
    ConvolutionKernel,
    HarmonicModelParams,
    PhysParams,
    harmonic_external,
    self_stiffness,
    sphere_quadratic_kernel,
    validate_self_stiffness,
)
from .propagate import (
    BOUNDARY_LEAK_THRESHOLD,
    EvolutionSpec,
    SnapshotWriter,
    StrangRun,
    _check_dt_accuracy,
    evolve_kernel,
    imaginary_time_relax,
    remove_snapshots,
    run_lockstep,
)
from .textio import write_table

logger = logging.getLogger(__name__)

# the scenarios' check tolerances
P1_TOL = 0.02
P2_TOL = 0.02
CLASSICAL_TOL = 0.01
NORM_RATE_TOL = 0.05
ORACLE_TOL = 1e-3
EHRENFEST_TOL = 1e-5
NORM_DRIFT_TOL = 1e-10
E0_MATCH_TOL = 0.10
SCALING_RATIO_TOL = 0.01
BOOST_DEFORMATION_TOL = 1e-4
BOOST_VELOCITY_TOL = 1e-6
FREE_EHRENFEST_TOL = 5e-6
GROUND_WIDTH_TOL = 1e-4
GROUND_EIGENVALUE_TOL = 1e-6
ENERGY_MONOTONE_TOL = 0.0  # the relaxation's energy may not rise at all
# grid nodes required on the width a of the narrowest initial packet
MIN_NODES_PER_WIDTH = 2.0
MAX_STEPS = 10_000_000  # a plan's step cap; the default plans take at most 2,000


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one run.

    ``None`` fields are derived by the scenario builder; everything is
    overridable from the config file.
    """

    scenario: str = "figure1"
    n_points: Optional[int] = None
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    mass: float = 1.0
    G: float = 1.0
    norm_sq: float = 1.0
    k_ext: Optional[float] = None
    k_self: Optional[float] = None
    stiffness_ratio: Optional[float] = None
    sphere_mass: Optional[float] = None
    sphere_radius: Optional[float] = None
    dt: Optional[float] = None
    t_end: Optional[float] = None
    output_stride: Optional[int] = None
    init_center: Optional[float] = None
    init_width: Optional[float] = None
    init_velocity: float = 0.0
    pilot_center: float = 0.0
    pilot_chirp: float = -0.05
    pilot_width: Optional[float] = None
    variance_ratio: float = 1e-3
    radial_points: int = 4096
    r_max: float = 50.0
    relax_tol: float = 1e-10
    snapshots: bool = False


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
_INT_KEYS = {"n_points", "output_stride", "radial_points"}
_BOOL_KEYS = {"snapshots"}
_STR_KEYS = {"scenario"}
_TRUE_WORDS = {"on", "true", "yes", "1"}
_FALSE_WORDS = {"off", "false", "no", "0"}


def _parse_lines(text: str) -> tuple[dict, List[str]]:
    """The keys a flat key=value config sets, and its line-level problems."""
    errors: List[str] = []
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_TYPES:
            errors.append(f"line {lineno}: unknown key '{key}'")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key '{key}'")
            continue
        if key in _STR_KEYS:
            values[key] = val
        elif key in _BOOL_KEYS:
            if val.lower() in _TRUE_WORDS | _FALSE_WORDS:
                values[key] = val.lower() in _TRUE_WORDS
            else:
                errors.append(f"line {lineno}: {key} must be on/off")
        else:
            number, kind = ((int, "an integer") if key in _INT_KEYS
                            else (float, "numeric"))
            try:
                parsed = number(val)
            except ValueError:
                errors.append(f"line {lineno}: {key} must be {kind}")
            else:
                if math.isfinite(parsed):
                    values[key] = parsed
                else:
                    errors.append(f"line {lineno}: {key} must be finite")
    return values, errors


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a flat key=value config, reporting all errors."""
    values, errors = _parse_lines(text)
    # report line-level and rule-level problems together so a config can
    # be fixed in one pass
    cfg = ScenarioConfig(**values)
    errors += validate_config(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(cfg: ScenarioConfig) -> List[str]:
    """All rule violations of a config, empty when valid: the key and
    owner rules at once, then, once they pass, the scenario's plan."""
    errors = _config_problems(cfg)
    if not errors:
        try:
            _SCENARIO_TABLE[cfg.scenario].plan(cfg)
        except ConfigError as exc:
            errors = exc.errors
    return errors


def _config_problems(cfg: ScenarioConfig) -> List[str]:
    """The rules no type owns, and those of the types built from the keys
    alone; a scenario's own rules and its grid and steps are its plan's."""
    errors: List[str] = []

    def owner(build, *args):
        try:
            return build(*args)
        except ConfigError as exc:
            errors.extend(exc.errors)
            return None

    phys = owner(_resolve_phys, cfg)
    model = owner(HarmonicModelParams,
                  cfg.k_ext if cfg.k_ext is not None else 0.0,
                  cfg.k_self if cfg.k_self is not None else 0.0,
                  cfg.sphere_mass, cfg.sphere_radius)
    owner(RadialGrid, cfg.radial_points, cfg.r_max)
    if cfg.k_self is not None and phys is not None and model is not None:
        owner(validate_self_stiffness, model, phys)

    if cfg.scenario not in SCENARIOS:
        errors.append(f"scenario must be one of {', '.join(SCENARIOS)}")
    else:
        keys = _SCENARIO_TABLE[cfg.scenario].keys
        errors += [f"{cfg.scenario} takes no {f.name}: {f.name} = "
                   f"{_render_value(f.name, v)} would be ignored"
                   for f in dataclasses.fields(ScenarioConfig)[1:]  # not scenario
                   if f.name not in keys and (v := getattr(cfg, f.name)) != f.default]
    for name in ("stiffness_ratio", "dt", "t_end", "init_width",
                 "pilot_width", "relax_tol"):
        value = getattr(cfg, name)
        if value is not None and value <= 0:
            errors.append(f"{name} must be > 0")
    if not (0.0 < cfg.variance_ratio < 1.0):
        errors.append("variance_ratio must lie in (0, 1)")
    return errors


def _render_value(key: str, value) -> str:
    """``value`` as a config line for ``key`` writes it."""
    if key in _BOOL_KEYS:
        return "on" if value else "off"
    return repr(value) if isinstance(value, float) else str(value)


def render_config(cfg: ScenarioConfig) -> str:
    """Config text that parses back to an equivalent config."""
    return "".join(f"{f.name} = {_render_value(f.name, v)}\n"
                   for f in dataclasses.fields(ScenarioConfig)
                   if (v := getattr(cfg, f.name)) is not None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    note: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        out = (f"{tag} {self.name}: value={self.value:.6g} "
               f"threshold={self.threshold:.6g}")
        if self.note:
            out += f" ({self.note})"
        return out


@dataclass
class RunReport:
    scenario: str
    checks: List[CheckResult]
    metrics: dict
    wall_time: float
    outputs: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class RunPlan(NamedTuple):
    """What a scenario runs, built from its config with every rule checked;
    the parts a scenario does not use are None."""

    cfg: ScenarioConfig  # with the keys the scenario derives filled in
    phys: PhysParams
    model: Optional[HarmonicModelParams] = None
    grid: object = None  # Grid1D, or RadialGrid for choquard
    spec: Optional[EvolutionSpec] = None
    kernel: Optional[ConvolutionKernel] = None


def _resolve_phys(cfg: ScenarioConfig) -> PhysParams:
    return PhysParams(mass=cfg.mass, G=cfg.G, norm_sq=cfg.norm_sq)


def _resolve_model(cfg: ScenarioConfig, default_k_ext, default_ratio=None,
                   default_k_self=None, template=False) -> HarmonicModelParams:
    """The trap model: k_self from k_self, else stiffness_ratio * k_ext,
    else the sphere pair, else the default.  A model key that would be
    ignored is refused: stiffness_ratio beside k_self, one sphere key
    without the other, and G where no sphere pair is checked against
    k_self.  The sphere pair beside k_self is checked, so it is allowed.
    A sweep ``template`` is resolved as it stands: its members are held
    to the rule, and a member may set the key the template lacks."""
    ignored = []
    if cfg.k_self is not None and cfg.stiffness_ratio is not None:
        ignored.append(("stiffness_ratio", "beside k_self"))
    for key, other in (("sphere_mass", "sphere_radius"),
                       ("sphere_radius", "sphere_mass")):
        if getattr(cfg, key) is not None and getattr(cfg, other) is None:
            ignored.append((key, f"without {other}"))
    if None in (cfg.sphere_mass, cfg.sphere_radius) and cfg.G != ScenarioConfig.G:
        ignored.append(("G", "without sphere_mass and sphere_radius"))
    if ignored and not template:
        raise ConfigError([f"{cfg.scenario} takes no {key} {why}: {key} = "
                           f"{_render_value(key, getattr(cfg, key))} would be ignored"
                           for key, why in ignored])
    k_ext = cfg.k_ext if cfg.k_ext is not None else default_k_ext
    if cfg.k_self is not None:
        k_self = cfg.k_self
    elif cfg.stiffness_ratio is not None:
        k_self = cfg.stiffness_ratio * k_ext
    elif cfg.sphere_mass is not None and cfg.sphere_radius is not None:
        k_self = self_stiffness(cfg.G, cfg.sphere_mass, cfg.sphere_radius,
                                cfg.norm_sq)
    elif default_ratio is not None:
        k_self = default_ratio * k_ext
    else:  # callers passing no default_k_self set k_self or both sphere keys
        k_self = default_k_self
    model = HarmonicModelParams(k_ext=k_ext, k_self=k_self,
                                sphere_mass=cfg.sphere_mass,
                                sphere_radius=cfg.sphere_radius)
    validate_self_stiffness(model, _resolve_phys(cfg))
    return model


def soliton_width_param(model: HarmonicModelParams, phys: PhysParams) -> float:
    """Stationary Gaussian width (hbar^2 / ((k_ext + k_self) m))^(1/4) in the
    traps; infinite when the product underflows to 0."""
    stiffness_mass = (model.k_ext + model.k_self) * phys.mass
    return (phys.hbar**2 / stiffness_mass) ** 0.25 if stiffness_mass else math.inf


def _grid(cfg: ScenarioConfig, half: float, width: float) -> Grid1D:
    """4096 nodes on [-half, half); each config key overrides its own default.
    Refused with fewer than MIN_NODES_PER_WIDTH nodes on ``width``, the width
    a of the narrowest packet the run starts from (ground-state: relaxes to;
    ehrenfest: breathes to), and where the density sums of ``norm_sq`` on
    it are not normal floats."""
    grid = Grid1D(cfg.n_points if cfg.n_points is not None else 4096,
                  cfg.x_min if cfg.x_min is not None else -half,
                  cfg.x_max if cfg.x_max is not None else half)
    if grid.dx * MIN_NODES_PER_WIDTH > width:
        raise ConfigError(
            f"n_points = {grid.n_points} on [{grid.x_min:g}, {grid.x_max:g}) gives "
            f"dx = {grid.dx:.4g}, which does not resolve the packet width "
            f"a = {width:.4g}: dx must be at most a/{MIN_NODES_PER_WIDTH:g}")
    # the largest sums a run forms: sum rho = norm_sq/dx for the norm, up to
    # norm_sq max(x^2)/dx for <x^2>, and in the relaxation's kinetic energy
    # sum |fft psi|^2 = n sum rho, weighted by k^2: its mean is 1/(2 a^2) at
    # the width a, and twice that leaves room for the trial steps
    require_normal(cfg.scenario, dx=grid.dx)
    sum_rho = cfg.norm_sq / grid.dx
    require_normal(
        cfg.scenario, sum_rho=sum_rho,
        sum_rho_x_sq=sum_rho * max(_square(grid.x_min), _square(grid.x_max)),
        sum_fft_sq=grid.n_points * sum_rho * max(1.0, 1.0 / _square(width)))
    return grid


def _steps(cfg: ScenarioConfig, t_end: float, dt: float, frames: Optional[int],
           needed: int, check: str) -> EvolutionSpec:
    """The fewest equal steps no longer than ``dt`` to ``t_end``, at most MAX_STEPS.

    ``t_end`` and ``dt`` are defaults the config overrides.  The output
    stride is the config's; failing that, about ``frames`` outputs;
    failing that, every step.  A stride that leaves ``check`` fewer than
    ``needed`` output times is refused.  The spec keeps no frames.
    """
    t_end = cfg.t_end if cfg.t_end is not None else t_end
    dt = cfg.dt if cfg.dt is not None else dt
    ratio = t_end / dt
    if not ratio - 1e-9 <= MAX_STEPS:  # an infinite ratio included
        raise ConfigError(f"t_end/dt = {t_end:g}/{dt:g} plans {ratio:.6g} steps, "
                          f"above the cap of {MAX_STEPS}")
    n_steps = max(1, math.ceil(ratio - 1e-9))
    if cfg.output_stride is not None:
        stride = cfg.output_stride
    else:
        stride = max(1, n_steps // frames) if frames else 1
    spec = EvolutionSpec(dt=t_end / n_steps, t_end=t_end, output_stride=stride,
                         store_fields=False)
    n_out = n_steps // stride + 1
    if n_out < needed:
        raise ConfigError(f"output_stride = {stride} leaves {n_out} output "
                          f"times in {n_steps} steps; {check} needs {needed}")
    return spec


def _norm_drift(*logs) -> float:
    """Largest relative change of the squared norm over the runs' outputs."""
    return max(float(np.max(np.abs(n - n[0]) / n[0]))
               for n in (np.asarray(log.norm_sq) for log in logs))


def _mean_motion_floor(mass: float, h: float, x_max: float) -> float:
    """Roundoff floor of the residual m <x>'' + k <x> over outputs ``h``
    apart on nodes |x| <= ``x_max``: each logged mean is off by up to
    eps x_max, and the 5-point stencil weighs its points by 64/12 over h^2."""
    return mass * (64.0 / 12.0) * sys.float_info.epsilon * x_max / h / h


def _require_scales(remedy: str, *checks) -> None:
    """Refuse the checks whose roundoff floor exceeds their tolerance of
    the scale they divide by: each is (check, what it divides by, that
    scale, the floor, the tolerance)."""
    errors = [f"{check} divides its residual by {label} = {scale:.3g}; its "
              f"roundoff floor {floor:.3g} would exceed the tolerance {tol:g} "
              f"of that: {remedy}"
              for check, label, scale, floor, tol in checks if floor > tol * scale]
    if errors:
        raise ConfigError(errors)


def _orbit_peak(start: float, rate: float, omega: float, t_end: float) -> float:
    """The peak of |start cos(wt) + (rate/w) sin(wt)| over [0, t_end]: the
    amplitude once the window reaches a turning point, else its larger end."""
    lead = rate / omega
    if math.atan2(lead, start) % math.pi <= omega * t_end:
        return math.hypot(start, lead)
    phase = omega * t_end
    return max(abs(start), abs(start * math.cos(phase) + lead * math.sin(phase)))


def _mean_motion_residual(mean: np.ndarray, h: float, k: float,
                          mass: float) -> float:
    """Relative residual of the mean-motion law m <x>'' + k <x> = 0."""
    resid = mass * _second_derivative_5pt(mean, h) + k * mean[2:-2]
    return float(np.max(np.abs(resid)) / np.max(np.abs(k * mean)))


def _grid_velocity(grid: Grid1D, phys: PhysParams, v: float) -> float:
    """``v`` snapped to a grid wavenumber, so a boost phase stays periodic."""
    dk = 2.0 * math.pi / grid.length
    return round(v * phys.mass / (phys.hbar * dk)) * dk * phys.hbar / phys.mass


def _boost_velocity(cfg: ScenarioConfig, grid: Grid1D, phys: PhysParams) -> float:
    """The boost's grid velocity: ``init_velocity``, or 5 when it is 0."""
    velocity = _grid_velocity(
        grid, phys, cfg.init_velocity if cfg.init_velocity != 0.0 else 5.0)
    if velocity == 0.0:
        step = 2.0 * math.pi * phys.hbar / (phys.mass * grid.length)
        raise ConfigError(f"the boost velocity rounds to 0 on this grid's "
                          f"velocity step {step:.4g}; set |init_velocity| > "
                          f"{step / 2:.4g}")
    return velocity


def _second_derivative_5pt(series: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order interior second derivative; loses two points per end."""
    s = np.asarray(series, dtype=float)
    return (
        -s[:-4] + 16.0 * s[1:-3] - 30.0 * s[2:-2] + 16.0 * s[3:-1] - s[4:]
    ) / (12.0 * h * h)


@dataclass
class Figure1Result:
    cfg: ScenarioConfig
    phys: PhysParams
    model: HarmonicModelParams
    grid: Grid1D
    spec: EvolutionSpec
    times: np.ndarray
    pilot_log: object
    full_log: object
    pilot_final: WaveField
    full_final: WaveField
    rows: list
    metrics: dict
    moment_flow: MomentSeries  # both oracles at the output times
    classical: np.ndarray
    snapshots: List[Path] = field(default_factory=list)  # pilot's, then full's


def _figure1_physics(cfg: ScenarioConfig, template=False):
    phys = _resolve_phys(cfg)
    model = _resolve_model(cfg, default_k_ext=1.0, default_ratio=1000.0,
                           template=template)
    if model.k_ext <= 0:
        raise ConfigError("figure1 needs k_ext > 0")
    omega_fast = math.sqrt((model.k_ext + model.k_self) / phys.mass)
    require_normal("figure1", k_ext=model.k_ext, omega_fast=omega_fast)
    return phys, model, omega_fast


def _square(x: float) -> float:
    """x**2, or inf where the float power overflows (it raises)."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _plan_figure1(cfg: ScenarioConfig) -> RunPlan:
    if (cfg.pilot_width is not None
            and cfg.variance_ratio != ScenarioConfig.variance_ratio):
        raise ConfigError(
            f"variance_ratio = {cfg.variance_ratio!r} sets pilot_width only "
            f"while it is unset, and pilot_width = {cfg.pilot_width!r} is set "
            f"(a sweep pins it from its template): set one of the two, or "
            f"sweep pilot_width instead")
    cfg = resolve_sweep_window(cfg)  # sets t_end and pilot_width
    phys, model, omega_fast = _figure1_physics(cfg)
    cfg = dataclasses.replace(
        cfg, init_center=cfg.init_center if cfg.init_center is not None else 1.0,
        init_width=(cfg.init_width if cfg.init_width is not None
                    else soliton_width_param(model, phys)))
    half = (9.0 * math.sqrt(0.5 * _square(cfg.pilot_width))
            + 4.0 * (abs(cfg.init_center) + 1.0))
    require_normal("figure1", t_end=cfg.t_end, pilot_width=cfg.pilot_width,
                   init_width=cfg.init_width, grid_half_width=half)
    grid = _grid(cfg, math.ceil(half), min(cfg.init_width, cfg.pilot_width))
    # 200 steps per fast period keeps the width dynamics (the stiffest
    # observable) within the 1e-3 oracle-equivalence budget
    spec = _steps(cfg, cfg.t_end, 2.0 * math.pi / (200.0 * omega_fast), None,
                  5, "the mean-motion check")
    _check_dt_accuracy(spec, omega_fast)
    # the motion checks divide by scales of the mean orbit, which is closed
    # form from the initial moments: the full wave's density is a product of
    # Gaussians, so its mean x0 lies between the centres at the pilot's
    # weight r, and the pilot's chirp gives it the velocity v0
    omega = math.sqrt(model.k_ext / phys.mass)
    require_normal("figure1", omega=omega)
    r = 1.0 / (1.0 + _square(cfg.pilot_width / cfg.init_width))
    x0 = cfg.init_center + r * (cfg.pilot_center - cfg.init_center)
    v0 = 2.0 * cfg.pilot_chirp * (x0 - cfg.pilot_center) * phys.hbar / phys.mass
    x_peak = _orbit_peak(x0, v0, omega, spec.t_end)
    # each logged mean and barycentre is off by up to eps x_max; v_drift's
    # end stencil weighs three barycentres by (3 + 4 + 1)/2 over h, and the
    # classical orbit carries that velocity error for up to t_end; the
    # oracle starts from a mean off by eps x_max and a spectral momentum off
    # by eps (hbar/m) pi/dx
    eps, h = sys.float_info.epsilon, spec.dt * spec.output_stride
    x_max = max(abs(grid.x_min), abs(grid.x_max))
    v_floor = 4.0 * eps * x_max / h
    _require_scales(
        "start the packet further from the trap centre",
        ("guidance-law-residual", "max|v_drift|",
         _orbit_peak(v0, -model.k_ext / phys.mass * x0, omega, spec.t_end),
         v_floor, P1_TOL),
        ("classical-trajectory", "max|x0|", x_peak,
         2.0 * eps * x_max + v_floor * spec.t_end, CLASSICAL_TOL),
        ("ehrenfest-residual", "max|k_ext <x>|", model.k_ext * x_peak,
         _mean_motion_floor(phys.mass, h, x_max), EHRENFEST_TOL),
        ("oracle-mean", "max|<x>|", x_peak,
         eps * (2.0 * x_max + phys.hbar / phys.mass * math.pi / grid.dx
                * spec.t_end), ORACLE_TOL))
    return RunPlan(cfg, phys, model, grid, spec)


class _SnapshotStage:
    """figure1's snapshot files, written one output pair at a time.

    The files go to a hidden directory, made in the nearest existing
    directory on the way to ``run_dir``, and move to ``run_dir/pilot``
    and ``run_dir/full`` only in :meth:`commit`, where they replace the
    snapshots an earlier run left.  Leaving the ``with`` block removes
    the hidden directory, so a run that fails part way leaves
    ``run_dir`` as it was.  With ``run_dir`` None nothing is written.
    """

    def __init__(self, run_dir):
        self._stage = None
        self.writers = []
        if run_dir is not None:
            self.run_dir = Path(run_dir)
            base = next(p for p in (self.run_dir, *self.run_dir.parents)
                        if p.is_dir())
            self._stage = Path(tempfile.mkdtemp(prefix=".snapshots-", dir=base))
            self.writers = [SnapshotWriter(self._stage / wave)
                            for wave in ("pilot", "full")]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._stage is not None:
            shutil.rmtree(self._stage, ignore_errors=True)

    def write(self, t: float, *pair: WaveField) -> None:
        for writer, fld in zip(self.writers, pair):
            writer.write(t, fld)

    def commit(self) -> List[Path]:
        paths = []
        for writer in self.writers:
            dest = self.run_dir / writer.out.name
            dest.mkdir(parents=True, exist_ok=True)
            remove_snapshots(dest)
            paths += [path.replace(dest / path.name) for path in writer.paths]
            writer.log_summary(dest)
        return paths


def build_figure1(cfg: ScenarioConfig, out_dir=None) -> Figure1Result:
    """Run the oscillating-soliton configuration and analyze it.

    The pilot and the full run advance in lock step, and each output
    pair is analysed as it is made.  Given its run directory
    ``out_dir``, the runs keep no frames: with snapshots on, each pair
    is written as it is made, and the files replace an earlier run's
    once the whole run has succeeded.  Without one, both logs keep
    every frame.
    """
    cfg, phys, model, grid, spec, _ = _plan_figure1(cfg)
    spec = dataclasses.replace(spec, store_fields=out_dir is None)
    pilot0 = gaussian_packet(grid, cfg.pilot_center, cfg.pilot_width, chirp=cfg.pilot_chirp,
                             norm_sq=1.0, hbar=phys.hbar, mass=phys.mass)
    soliton0 = gaussian_packet(grid, cfg.init_center, cfg.init_width, norm_sq=1.0,
                               hbar=phys.hbar, mass=phys.mass)
    full0 = normalized(WaveField(grid, pilot0.values * soliton0.values),
                       phys.norm_sq, f"the pilot at {cfg.pilot_center:g} times "
                       f"the soliton at {cfg.init_center:g}")

    pilot = StrangRun.linear(pilot0, harmonic_external(grid, model.k_ext), spec, phys)
    full = StrangRun.self_harmonic(full0, model, spec, phys)
    samples = []
    with _SnapshotStage(out_dir if cfg.snapshots else None) as snapshots:
        def observe(t, pilot_values, full_values):
            pair = WaveField(grid, pilot_values), WaveField(grid, full_values)
            samples.append(frame_sample(t, *pair, phys))
            snapshots.write(t, *pair)

        run_lockstep((pilot, full), observe)
        rows = decompose_samples(samples)
        pilot_log, full_log = pilot.log, full.log
        times = np.asarray(full_log.times)

        p1_max, _ = guidance_law_report(rows)
        p2_max, _ = reciprocity_report(rows)
        nr_max, _ = norm_rate_report(rows)

        # both oracles are exact, so they are evaluated at the output times
        m0 = moments(full0, hbar=phys.hbar)
        init = GaussianMoments(m0.mean, m0.momentum, m0.variance,
                               2.0 * m0.covariance / phys.mass)
        stride_dt = times[1] - times[0]
        flow = gaussian_moment_flow(init, model, phys, stride_dt, times[-1])
        mean_g = np.asarray(full_log.mean_x)
        var_g = np.asarray(full_log.mean_x2) - mean_g**2
        oracle_mean_dev = float(np.max(np.abs(mean_g - flow.mean))
                                / np.max(np.abs(flow.mean)))
        oracle_var_dev = float(np.max(np.abs(var_g - flow.variance))
                               / np.max(np.abs(flow.variance)))

        # classical reference for the soliton barycentre
        x0s = np.array([r.x0 for r in rows])
        _, xs_cl, _ = classical_trajectory(
            ClassicalState(x0s[0], rows[0].v_drift), model.k_ext, stride_dt,
            times[-1], mass=phys.mass,
        )
        amplitude = float(np.max(np.abs(x0s)))
        classical_dev = float(np.max(np.abs(x0s - xs_cl)) / amplitude)

        metrics = {
            "residual_p1_rel": p1_max,
            "p2_max_dev": p2_max,
            "classical_dev": classical_dev,
            # mean-motion law of the full wave
            "ehrenfest_rel": _mean_motion_residual(mean_g, stride_dt, model.k_ext,
                                                   phys.mass),
            "norm_rate_max": nr_max,
            "oracle_mean_dev": oracle_mean_dev,
            "oracle_var_dev": oracle_var_dev,
            "norm_drift": _norm_drift(pilot_log, full_log),
            "max_v_drift": float(np.max(np.abs([r.v_drift for r in rows]))),
            "soliton_width0": rows[0].width,
        }
        return Figure1Result(cfg, phys, model, grid, spec, times, pilot_log,
                             full_log, pilot.final, full.final, rows, metrics,
                             flow, xs_cl, snapshots.commit())


@dataclass
class BoostResult:
    cfg: ScenarioConfig
    phys: PhysParams
    model: HarmonicModelParams
    grid: Grid1D
    log: object
    final: WaveField
    velocity: float
    metrics: dict


def _plan_boost(cfg: ScenarioConfig) -> RunPlan:
    phys = _resolve_phys(cfg)
    model = _resolve_model(cfg, default_k_ext=0.0, default_k_self=1000.0)
    if model.k_self <= 0.0:
        raise ConfigError("boost scenario needs k_self > 0")
    omega = math.sqrt(model.k_self / phys.mass)
    period = 2.0 * math.pi / omega
    # the default t_end and dt are the period and a 2000th of it
    require_normal("boost", omega=omega, period=period)
    spec = _steps(cfg, period, period / 2000.0, 50, 2, "the boost velocity")
    _check_dt_accuracy(spec, omega)
    grid = _grid(cfg, 16.0, soliton_width_param(model, phys))
    _boost_velocity(cfg, grid, phys)  # refuses one that snaps to 0
    return RunPlan(cfg, phys, model, grid, spec)


def build_boost(cfg: ScenarioConfig) -> BoostResult:
    """Boosted self-trapped ground state translating without external trap."""
    _, phys, model, grid, spec, _ = _plan_boost(cfg)
    a = soliton_width_param(model, phys)
    center = cfg.init_center if cfg.init_center is not None else -0.5

    velocity = _boost_velocity(cfg, grid, phys)
    psi0 = gaussian_packet(grid, center, a, velocity=velocity,
                           norm_sq=phys.norm_sq, hbar=phys.hbar, mass=phys.mass)
    # the reference translates on the open line: the packet must start clear
    # of the periodic edges, where the leak check polices it
    rho0 = np.abs(psi0.values) ** 2
    edge = max(rho0[0], rho0[-1]) / rho0.max()
    if edge > BOUNDARY_LEAK_THRESHOLD:
        raise BoundaryLeakError(0.0, edge, BOUNDARY_LEAK_THRESHOLD)
    # the exact solution is the rigidly translating ground-state envelope
    amp0 = math.sqrt(phys.norm_sq / (a * math.sqrt(math.pi)))
    deformation = 0.0

    def observe(t, values):
        nonlocal deformation
        u = grid.nodes - (center + velocity * t)
        ref = amp0 * np.exp(-(u * u) / (2.0 * a * a))
        deformation = max(
            deformation,
            float(np.max(np.abs(np.abs(values) - ref)) / ref.max()),
        )

    run = StrangRun.self_harmonic(psi0, model, spec, phys)
    run_lockstep((run,), observe)
    log, final = run.log, run.final

    times, mean_x, _, _ = log.as_arrays()
    slope = (mean_x[-1] - mean_x[0]) / (times[-1] - times[0])
    velocity_dev = abs(slope - velocity) / abs(velocity)
    metrics = {
        "deformation": deformation,
        "velocity_dev": velocity_dev,
        "norm_drift": _norm_drift(log),
        "velocity": velocity,
    }
    return BoostResult(cfg, phys, model, grid, log, final, velocity, metrics)


@dataclass
class GroundStateResult1D:
    cfg: ScenarioConfig
    phys: PhysParams
    model: HarmonicModelParams
    field: WaveField
    eigenvalue: float
    energy: float
    iters: int
    history: list
    metrics: dict


def _plan_ground_state(cfg: ScenarioConfig) -> RunPlan:
    phys = _resolve_phys(cfg)
    model = _resolve_model(cfg, default_k_ext=0.0, default_k_self=10.0)
    if model.k_ext + model.k_self <= 0.0:
        raise ConfigError("ground-state scenario needs a confining potential")
    a_pred = soliton_width_param(model, phys)
    return RunPlan(cfg, phys, model, _grid(cfg, max(16.0, 12.0 * a_pred), a_pred))


def build_ground_state(cfg: ScenarioConfig) -> GroundStateResult1D:
    """Imaginary-time relaxation of the 1D trapped self-attracting packet."""
    _, phys, model, grid, _, _ = _plan_ground_state(cfg)
    k_total = model.k_ext + model.k_self
    a_pred = soliton_width_param(model, phys)
    seed = gaussian_packet(grid, 0.0, 2.0 * a_pred, norm_sq=phys.norm_sq,
                           hbar=phys.hbar, mass=phys.mass)
    result = imaginary_time_relax(seed, model, phys.norm_sq, tol=cfg.relax_tol,
                                  phys=phys)
    m = moments(result.field, hbar=phys.hbar)
    a_meas = math.sqrt(2.0 * m.variance)
    width_dev = abs(a_meas / a_pred - 1.0)
    e_pred = 0.5 * phys.hbar * math.sqrt(k_total / phys.mass)
    eigenvalue_dev = abs(result.eigenvalue - e_pred) / e_pred
    increases = max(
        (b - a) for a, b in zip(result.history, result.history[1:])
    ) if len(result.history) > 1 else 0.0
    metrics = {
        "width_dev": width_dev,
        "eigenvalue_dev": eigenvalue_dev,
        "energy_increase": max(0.0, increases),
        "eigenvalue": result.eigenvalue,
        "energy": result.energy,
        "iters": float(result.iters),
    }
    return GroundStateResult1D(cfg, phys, model, result.field,
                               result.eigenvalue, result.energy, result.iters,
                               result.history, metrics)


@dataclass
class ChoquardScenarioResult:
    cfg: ScenarioConfig
    phys: PhysParams
    results: list
    metrics: dict
    matched: str


def _plan_choquard(cfg: ScenarioConfig) -> RunPlan:
    phys = _resolve_phys(cfg)
    grid = RadialGrid(cfg.radial_points, cfg.r_max)
    # the solver's kinetic coefficient is hbar^2 / (2 M dr^2)
    require_normal("choquard", mass_dr_sq=phys.mass * grid.dr * grid.dr)
    # the checks divide by the energy scales: the doubled run's is the largest
    doubled = 2.0 * phys.norm_sq
    require_normal("choquard",
                   energy_scale=_choquard_unit(phys) * doubled * doubled * doubled)
    return RunPlan(cfg, phys, None, grid)


def _choquard_unit(phys: PhysParams) -> float:
    """G^2 M^5 / hbar^2, in products so an overflow reads inf: the levels at
    squared norm N^2 are it times N^4 (eigenvalue) or N^6 (functional) times
    the unit-norm family's."""
    m = phys.mass
    return phys.G * phys.G * m * m * m * m * m / (phys.hbar * phys.hbar)


def build_choquard(cfg: ScenarioConfig) -> ChoquardScenarioResult:
    """Radial ground states at N^2 and 2 N^2 plus the published-fit checks."""
    _, phys, _, grid, _, _ = _plan_choquard(cfg)
    base = solve_ground_state(phys, cfg.norm_sq, tol=cfg.relax_tol, grid=grid)
    doubled = solve_ground_state(phys, 2.0 * cfg.norm_sq, tol=cfg.relax_tol,
                                 grid=grid)
    e_expected = spectrum_value(0)
    # the published constants describe the unit-norm family at hbar = G =
    # M = 1; the scaling law maps any units and norm back to it
    n_sq = cfg.norm_sq
    eig_scale = _choquard_unit(phys) * n_sq * n_sq
    dev_eig = abs(abs(base.eigenvalue) / eig_scale / e_expected - 1.0)
    dev_func = abs(abs(base.functional_energy) / (eig_scale * n_sq) / e_expected - 1.0)
    if dev_eig <= dev_func:
        matched, e0_dev = "eigenvalue", dev_eig
    else:
        matched, e0_dev = "functional", dev_func
    logger.info("dimensionless ground level matched by the %s energy "
                "(dev %.3g)", matched, e0_dev)
    ratio = doubled.functional_energy / base.functional_energy
    scaling_dev = abs(ratio / 8.0 - 1.0)
    metrics = {
        "e0_dev": e0_dev,
        "scaling_dev": scaling_dev,
        "eigenvalue": base.eigenvalue,
        "functional_energy": base.functional_energy,
        "extent": base.extent,
        "energy_ratio": ratio,
        "iters": float(base.iters),
    }
    return ChoquardScenarioResult(cfg, phys, [base, doubled], metrics, matched)


@dataclass
class EhrenfestResult:
    cfg: ScenarioConfig
    phys: PhysParams
    metrics: dict


# where ehrenfest's trapped packet starts, at rest
_TRAPPED_CENTER = 1.5


def _plan_ehrenfest(cfg: ScenarioConfig) -> RunPlan:
    phys = _resolve_phys(cfg)
    cfg = dataclasses.replace(
        cfg, sphere_mass=cfg.sphere_mass if cfg.sphere_mass is not None else 1.0,
        sphere_radius=cfg.sphere_radius if cfg.sphere_radius is not None else 5.0,
        init_width=cfg.init_width if cfg.init_width is not None else 1.0)
    model = _resolve_model(cfg, default_k_ext=1.0)
    if model.k_ext <= 0.0:
        raise ConfigError("ehrenfest needs k_ext > 0 for its trapped run")
    # the trapped run's mean-motion residual divides by k_ext <x>
    require_normal("ehrenfest", k_ext=model.k_ext, omega_sq=model.k_ext / phys.mass)
    # the trapped packet starts at rest at width a0 and breathes to a_s^2/a0
    a_s = soliton_width_param(model, phys)
    grid = _grid(cfg, 32.0, min(cfg.init_width, a_s * a_s / cfg.init_width))
    spec = _steps(cfg, 2.0, 2e-3, 200, 5, "the mean-motion check")
    _check_dt_accuracy(spec, math.sqrt((model.k_ext + model.k_self) / phys.mass))
    # the trapped packet starts at rest, so its mean x0 cos(omega t) peaks
    # at x0: a residual scale under the roundoff floor fails a correct run
    _require_scales("raise k_ext or the output interval", (
        "trapped-ehrenfest", "max|k_ext <x>|", model.k_ext * _TRAPPED_CENTER,
        _mean_motion_floor(phys.mass, spec.dt * spec.output_stride,
                           max(abs(grid.x_min), abs(grid.x_max))),
        EHRENFEST_TOL))
    return RunPlan(cfg, phys, model, grid, spec,
                   sphere_quadratic_kernel(phys, model))


def build_ehrenfest(cfg: ScenarioConfig) -> EhrenfestResult:
    """Mean-motion checks for a kernel self-interaction.

    Free flight: the self-force averages to zero, so the packet mean
    moves on a straight line.  In a trap the mean obeys the classical
    oscillator equation exactly.

    The two runs are independent, never convolve (their sphere kernel
    is stepped in closed form) and spend most of their time
    in numpy FFTs, which release the GIL, so two pool threads run them
    at once while the caller waits (a default build, medians of three
    sessions on 2 cores: 0.37 s, against 0.39-0.46 s with the runs in turn).
    The logs equal those of serial runs, a free-run error wins over a
    trapped one, and the pool has ended when this returns or raises.
    """
    cfg, phys, model, grid, spec, kernel = _plan_ehrenfest(cfg)

    def run(center, velocity, v_ext):
        psi0 = gaussian_packet(grid, center, cfg.init_width, velocity=velocity,
                               norm_sq=phys.norm_sq, hbar=phys.hbar,
                               mass=phys.mass)
        log, _ = evolve_kernel(psi0, kernel, v_ext, spec, phys)
        return log

    with ThreadPoolExecutor(max_workers=2) as pool:
        free = pool.submit(run, -2.0, _grid_velocity(grid, phys, 1.0),
                           np.zeros(grid.n_points))
        trap = pool.submit(run, _TRAPPED_CENTER, 0.0,
                           harmonic_external(grid, model.k_ext))
        log_free, log_trap = free.result(), trap.result()
    h = log_free.times[1] - log_free.times[0]
    metrics = {
        "free_acc_max": float(np.max(np.abs(
            _second_derivative_5pt(log_free.mean_x, h)))),
        "trapped_rel": _mean_motion_residual(np.asarray(log_trap.mean_x), h,
                                             model.k_ext, phys.mass),
        "norm_drift": _norm_drift(log_free, log_trap),
    }
    return EhrenfestResult(cfg, phys, metrics)


def _write_figure1(result: Figure1Result, out: Path) -> List[Path]:
    flow = result.moment_flow
    paths = [out / "guidance.csv", out / "oracle_moments.csv",
             out / "classical.csv"]
    write_guidance_csv(result.rows, paths[0])
    # the oracle tables share the guidance table's t column and format
    write_table(paths[1], "t,mean,momentum,variance,variance_rate",
                (result.times, flow.mean, flow.momentum, flow.variance,
                 flow.variance_rate))
    write_table(paths[2], "t,x_classical", (result.times, result.classical))
    if not result.cfg.snapshots:
        # a rerun with snapshots off leaves no stale frames
        for wave in ("pilot", "full"):
            remove_snapshots(out / wave)
    return paths + result.snapshots


def _write_choquard(result: ChoquardScenarioResult, out: Path) -> List[Path]:
    tsv = out / "choquard_results.tsv"
    write_result_records(tsv, result.results)
    return [tsv]


class _Scenario(NamedTuple):
    """A scenario's plan, builder (named: looked up when it runs, so that a
    test double or a tracing wrapper takes effect), writer (None: the report
    alone), whether the builder takes the run directory, the config keys it
    reads and its checks, each (name, metric, tolerance[, note template])."""

    plan: Callable[[ScenarioConfig], RunPlan]
    builder: str
    writer: Optional[Callable]
    takes_dir: bool
    keys: set
    checks: tuple


_PHYS, _GRID = {"mass", "G", "norm_sq"}, {"n_points", "x_min", "x_max"}
_MODEL = {"k_ext", "k_self", "stiffness_ratio", "sphere_mass", "sphere_radius"}
_STEPS = {"dt", "t_end", "output_stride"}
_NORM = ("norm-conservation", "norm_drift", NORM_DRIFT_TOL)
_SCENARIO_TABLE = {
    "figure1": _Scenario(
        _plan_figure1, "build_figure1", _write_figure1, True,
        _PHYS | _GRID | _MODEL | _STEPS | {
            "init_center", "init_width", "pilot_center", "pilot_chirp",
            "pilot_width", "variance_ratio", "snapshots"},
        (("guidance-law-residual", "residual_p1_rel", P1_TOL),
         ("reciprocity-deviation", "p2_max_dev", P2_TOL),
         ("classical-trajectory", "classical_dev", CLASSICAL_TOL),
         ("ehrenfest-residual", "ehrenfest_rel", EHRENFEST_TOL),
         ("norm-rate-residual", "norm_rate_max", NORM_RATE_TOL),
         ("oracle-mean", "oracle_mean_dev", ORACLE_TOL),
         ("oracle-variance", "oracle_var_dev", ORACLE_TOL), _NORM)),
    "ground-state": _Scenario(
        _plan_ground_state, "build_ground_state", None, False,
        _PHYS | _GRID | _MODEL | {"relax_tol"},
        (("ground-width", "width_dev", GROUND_WIDTH_TOL),
         ("ground-eigenvalue", "eigenvalue_dev", GROUND_EIGENVALUE_TOL),
         ("energy-monotone", "energy_increase", ENERGY_MONOTONE_TOL))),
    "choquard": _Scenario(
        _plan_choquard, "build_choquard", _write_choquard, False,
        _PHYS | {"radial_points", "r_max", "relax_tol"},
        (("choquard-e0", "e0_dev", E0_MATCH_TOL, "matched by {matched} energy"),
         ("choquard-n3-scaling", "scaling_dev", SCALING_RATIO_TOL))),
    # the sphere keys set its interaction, so it takes no k_self
    "ehrenfest": _Scenario(
        _plan_ehrenfest, "build_ehrenfest", None, False,
        _PHYS | _GRID | _STEPS | {"k_ext", "sphere_mass", "sphere_radius",
                                  "init_width"},
        (("free-mean-acceleration", "free_acc_max", FREE_EHRENFEST_TOL),
         ("trapped-ehrenfest", "trapped_rel", EHRENFEST_TOL), _NORM)),
    "boost": _Scenario(
        _plan_boost, "build_boost", None, False,
        _PHYS | _GRID | _STEPS | {"k_self", "sphere_mass", "sphere_radius",
                                  "init_center", "init_velocity"},
        (("boost-deformation", "deformation", BOOST_DEFORMATION_TOL),
         ("boost-velocity", "velocity_dev", BOOST_VELOCITY_TOL), _NORM)),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def checks(result) -> List[CheckResult]:
    """A built scenario's checks, as its row states them, in its order; a
    note template is filled from the result's fields."""
    out = []
    for name, metric, tol, *note in _SCENARIO_TABLE[result.cfg.scenario].checks:
        value = float(result.metrics[metric])
        out.append(CheckResult(name, value <= tol, value, tol,
                               note[0].format_map(vars(result)) if note else ""))
    return out


def _out_dir_problems(out_dir) -> List[str]:
    """Why ``out_dir`` cannot become a directory, empty when it can.

    The path must be a directory or not exist, and the nearest path on
    the way up that exists must be a directory, so that a run refuses it
    before building anything.
    """
    path = Path(out_dir)
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if existing.is_dir():
        return []
    return [f"output directory {out_dir}: {existing} is not a directory"]


def run_scenario(cfg: ScenarioConfig, out_dir) -> RunReport:
    """Execute one scenario, write its artifacts, and report pass/fail."""
    errors = validate_config(cfg) + _out_dir_problems(out_dir)
    if errors:
        raise ConfigError(errors)
    start = time.perf_counter()
    row = _SCENARIO_TABLE[cfg.scenario]
    build = globals()[row.builder]
    # a builder that fails leaves the run directory as it was
    result = build(cfg, out_dir) if row.takes_dir else build(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [str(path) for path in row.writer(result, out)] if row.writer else []
    wall = time.perf_counter() - start
    report = RunReport(cfg.scenario, checks(result), result.metrics, wall,
                       outputs)
    report_path = out / "report.txt"
    with open(report_path, "w") as fh:
        fh.write(f"scenario: {cfg.scenario}\n")
        for c in report.checks:
            fh.write(c.line() + "\n")
        for k, v in report.metrics.items():
            fh.write(f"metric {k} = {v:.17g}\n")
        fh.write(f"wall_time_s = {wall:.3f}\n")
    report.outputs.append(str(report_path))
    logger.info("scenario %s finished in %.2fs: %s", cfg.scenario, wall,
                "PASS" if report.passed else "FAIL")
    return report


NUMERIC_SWEEP_KEYS = {
    f.name for f in dataclasses.fields(ScenarioConfig)
    if f.name not in _STR_KEYS and f.name not in _BOOL_KEYS
}


def resolve_sweep_window(cfg: ScenarioConfig) -> ScenarioConfig:
    """Pin the template's derived window and pilot so members are comparable.

    Stiffness sweeps then vary only the model: each member's soliton
    sits at its own stationary width inside the same pilot, so the
    soliton/pilot scale separation (and with it the guidance-law
    residual) genuinely tracks the stiffness ratio.  A ``variance_ratio``
    spent on the pinned pilot returns to its default, since figure1
    refuses one set beside ``pilot_width``.
    """
    if cfg.scenario != "figure1" or None not in (cfg.t_end, cfg.pilot_width):
        return cfg
    phys, model, omega_fast = _figure1_physics(cfg, template=True)
    a_phi = (cfg.init_width if cfg.init_width is not None
             else soliton_width_param(model, phys))
    derived = {"t_end": 2.0 * (2.0 * math.pi / omega_fast),
               "pilot_width": math.sqrt(_square(a_phi) / cfg.variance_ratio)}
    changes = {k: v for k, v in derived.items() if getattr(cfg, k) is None}
    if "pilot_width" in changes:
        changes["variance_ratio"] = ScenarioConfig.variance_ratio
    return dataclasses.replace(cfg, **changes)


def sweep(cfg: ScenarioConfig, param: str, values: Sequence[float],
          out_dir, jobs: int = 1) -> tuple[list, bool]:
    """Run one scenario per value concurrently and aggregate a TSV.

    A template that breaks a key or owner rule, a member config that
    breaks any rule, and values that are not finite, not integral for an
    integer key, or that would share a run directory are rejected before
    any member runs.  A failure while a member runs is recorded in its
    row; the sweep itself never aborts.  Rows come back sorted by value
    regardless of completion order.  Before the TSV is written, the
    directories of earlier members of this parameter that the new values
    do not produce are removed.
    """
    if param not in NUMERIC_SWEEP_KEYS:
        raise ConfigError(f"'{param}' is not a numeric config key")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    # the members, not the template, run: only they are held to the plan
    errors = _config_problems(cfg)
    template_ok = not errors
    if template_ok:
        cfg = resolve_sweep_window(cfg)
    members, run_dirs = {}, {}
    for value in values:
        if not math.isfinite(value):
            errors.append(f"sweep value {value!r} is not finite")
        elif param in _INT_KEYS and value != int(value):
            errors.append(f"{param} takes integers, got {value!r}")
        elif template_ok:
            members[value] = dataclasses.replace(
                cfg, **{param: int(value) if param in _INT_KEYS else float(value)})
            errors += [f"{param}={value:g}: {msg}"
                       for msg in validate_config(members[value])]
        name = f"{param}_{value:g}"
        if name in run_dirs:
            errors.append(f"sweep values {run_dirs[name]!r} and {value!r} "
                          f"share the run directory {name}/")
        run_dirs.setdefault(name, value)
    errors += _out_dir_problems(out_dir) or [
        msg for name in run_dirs
        for msg in _out_dir_problems(Path(out_dir) / name)]
    if errors:
        raise ConfigError(errors)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def one(value):
        try:
            report = run_scenario(members[value], out / f"{param}_{value:g}")
            return value, report, None
        except SimulationError as exc:
            logger.warning("sweep member %s=%g failed: %s", param, value, exc)
            return value, None, str(exc)

    jobs = max(1, min(jobs, len(values)))
    if jobs == 1:
        raw = [one(v) for v in values]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(one, values))
    raw.sort(key=lambda item: item[0])

    metric_keys = next((list(r.metrics) for _, r, _ in raw if r is not None), [])
    for stale in out.glob(f"{param}_*"):
        try:
            value = float(stale.name[len(param) + 1:])
        except ValueError:
            continue
        if (stale.name not in run_dirs and stale.is_dir()
                and stale.name == f"{param}_{value:g}"):
            shutil.rmtree(stale)
    tsv_path = out / "sweep.tsv"
    with open(tsv_path, "w") as fh:
        fh.write("\t".join([param, "passed"] + metric_keys + ["error"]) + "\n")
        for value, report, err in raw:
            metrics = report.metrics if report is not None else {}
            cells = [f"{value:.17g}", "yes" if report and report.passed else "no"]
            cells += [f"{metrics.get(k, math.nan):.17g}" for k in metric_keys]
            fh.write("\t".join(cells + [err or ""]) + "\n")
    all_passed = all(r is not None and r.passed for _, r, _ in raw)
    return raw, all_passed
