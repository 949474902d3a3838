"""Time evolution by Strang split-step and imaginary-time relaxation.

Real-time steps apply exp(-i V dt / 2hbar), a full spectral kinetic step
exp(-i hbar k^2 dt / 2m), then exp(-i V dt / 2hbar).  One loop serves the
three potential families: a static potential, the mean-field self-trap
and the convolution kernel.  The potential step is diagonal in position
and never changes |psi|, so a density-built potential evaluated right
after the kinetic step closes step n and opens step n + 1: one
evaluation per step, at the midpoint density, which keeps the scheme
second order and time reversible.  Between outputs the two half-steps
are fused into one exp(-i V dt / hbar); at an output the same value
feeds the logged energy.  Imaginary-time relaxation of the trap model
builds the same family and monitors the same energy.

A propagation run owns its working array exclusively; the returned log
is append-only during the run and should be treated as immutable after.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from .errors import (
    BoundaryLeakError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    NonFiniteFieldError,
)
from .fields import Grid1D, WaveField, squared_norm
from .potentials import (
    ConvolutionKernel,
    HarmonicModelParams,
    PhysParams,
    _self_trap,
    convolution_self_potential,
    harmonic_external,
    sphere_validity_ratio,
)
from .textio import write_table

logger = logging.getLogger(__name__)

# |psi|^2 at the domain edge above this fraction of the peak aborts a run
BOUNDARY_LEAK_THRESHOLD = 1e-12
# accuracy bound: resolve the fastest oscillation with at least this many steps
MIN_STEPS_PER_PERIOD = 10.0
# first imaginary-time step of imaginary_time_relax; halved as needed
RELAX_DTAU0 = 0.1


@dataclass(frozen=True)
class EvolutionSpec:
    """Time stepping plan for one propagation run."""

    dt: float
    t_end: float
    output_stride: int = 1
    store_fields: bool = True

    def __post_init__(self):
        errors = []
        if self.dt == 0.0:
            errors.append("dt must be nonzero")
        if self.t_end <= 0.0:
            errors.append("t_end must be positive")
        if self.output_stride < 1:
            errors.append("output_stride must be >= 1")
        if not errors and self.dt != 0.0:
            ratio = self.t_end / abs(self.dt)
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                errors.append(
                    f"t_end={self.t_end!r} is not an integer number of steps "
                    f"of dt={self.dt!r}"
                )
        if errors:
            raise ConfigError(errors)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / abs(self.dt)))


class TrajectoryLog:
    """Per-output-time record of moments, norm, energy and snapshots."""

    def __init__(self, store_fields: bool):
        self.times: List[float] = []
        self.mean_x: List[float] = []
        self.mean_x2: List[float] = []
        self.norm_sq: List[float] = []
        self.energy: List[float] = []
        self.fields: Optional[List[WaveField]] = [] if store_fields else None

    def append(self, t, mean_x, mean_x2, norm_sq, energy, fld=None):
        self.times.append(t)
        self.mean_x.append(mean_x)
        self.mean_x2.append(mean_x2)
        self.norm_sq.append(norm_sq)
        self.energy.append(energy)
        if self.fields is not None:
            self.fields.append(fld)

    def as_arrays(self):
        return (
            np.asarray(self.times),
            np.asarray(self.mean_x),
            np.asarray(self.mean_x2),
            np.asarray(self.norm_sq),
            np.asarray(self.energy),
        )


def _kinetic_energy(vals: np.ndarray, grid: Grid1D, phys: PhysParams) -> float:
    ft = np.fft.fft(vals)
    k = grid.wavenumbers
    dens = ft.real * ft.real + ft.imag * ft.imag
    return float(
        (phys.hbar**2 / (2.0 * phys.mass))
        * np.sum(k * k * dens)
        * grid.dx
        / grid.n_points
    )


def _density(vals: np.ndarray) -> np.ndarray:
    return vals.real * vals.real + vals.imag * vals.imag


@dataclass(frozen=True)
class _Family:
    """The potential a Strang run steps under: V = v_ext + V_self[psi].

    ``self_potential`` maps field values to V_self and is None for a
    static potential.  The interaction energy is
    ``energy_weight * int V_self |psi|^2 dx``: 1 for the mean-field trap
    (homogeneous of degree one in the density), 1/2 for a pair kernel
    (degree two).
    """

    v_ext: np.ndarray
    self_potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    energy_weight: float = 1.0


def _self_trap_family(grid: Grid1D, model: HarmonicModelParams) -> _Family:
    """The trap k_ext x^2/2 plus the mean-field self-trap; static at k_self = 0."""
    x = grid.nodes

    def self_potential(vals):
        return _self_trap(x, _density(vals), model.k_self)

    return _Family(harmonic_external(grid, model.k_ext),
                   self_potential if model.k_self != 0.0 else None)


def _energy(vals: np.ndarray, rho: np.ndarray, family: _Family, v_self,
            grid: Grid1D, phys: PhysParams) -> float:
    """<T> + <v_ext> + energy_weight <V_self> of ``vals``, of density ``rho``."""
    energy = _kinetic_energy(vals, grid, phys) + float(np.sum(family.v_ext * rho) * grid.dx)
    if v_self is not None:
        energy += family.energy_weight * float(np.sum(v_self * rho) * grid.dx)
    return energy


class _Recorder:
    """Per-output bookkeeping of a Strang run."""

    def __init__(self, psi0: WaveField, spec: EvolutionSpec, phys: PhysParams,
                 family: _Family):
        self.grid = psi0.grid
        self.spec = spec
        self.phys = phys
        self.family = family
        self.log = TrajectoryLog(spec.store_fields)
        # states that touch the boundary from the start (plane waves) are
        # legitimately periodic; only compact states are policed
        rho = _density(psi0.values)
        self.boundary_active = not (max(rho[0], rho[-1])
                                    > BOUNDARY_LEAK_THRESHOLD * rho.max())
        if not self.boundary_active:
            logger.info("initial state touches the boundary; leak check disabled")
        # |psi| at an edge above this screens a step between outputs for a
        # leak; set from the peak density last measured
        self.edge_screen = math.inf

    def check_boundary(self, t: float, rho: np.ndarray):
        """Raise BoundaryLeakError if the density ``rho`` at t leaks at an edge."""
        peak = rho.max()
        if self.boundary_active and peak > 0:
            edge = max(rho[0], rho[-1])
            if edge > BOUNDARY_LEAK_THRESHOLD * peak:
                raise BoundaryLeakError(t, edge / peak, BOUNDARY_LEAK_THRESHOLD)
            self.edge_screen = math.sqrt(BOUNDARY_LEAK_THRESHOLD * peak)

    def record(self, t: float, vals: np.ndarray, v_self):
        rho = _density(vals)
        dx = self.grid.dx
        x = self.grid.nodes
        n2 = float(rho.sum() * dx)
        if not math.isfinite(n2):
            raise NonFiniteFieldError(t)
        self.check_boundary(t, rho)
        if n2 > 0:
            mean = float((rho * x).sum() * dx / n2)
            mean2 = float((rho * x * x).sum() * dx / n2)
        else:
            mean = mean2 = 0.0
        energy = _energy(vals, rho, self.family, v_self, self.grid, self.phys)
        fld = WaveField(self.grid, vals.copy()) if self.spec.store_fields else None
        self.log.append(t, mean, mean2, n2, energy, fld)


def _check_dt_accuracy(spec: EvolutionSpec, omega_fast: float):
    dt_max = 2.0 * np.pi / (MIN_STEPS_PER_PERIOD * omega_fast)
    if abs(spec.dt) > dt_max * (1.0 + 1e-12):
        raise ConfigError(
            f"dt={abs(spec.dt):g} exceeds the accuracy bound "
            f"dt_max={dt_max:g} for the stiffest frequency {omega_fast:g}"
        )


def _evolve(
    psi0: WaveField,
    family: _Family,
    spec: EvolutionSpec,
    phys: PhysParams,
) -> tuple[TrajectoryLog, WaveField]:
    """Strang evolution with one potential evaluation per step."""
    grid = psi0.grid
    if family.v_ext.shape != (grid.n_points,):
        raise ConfigError("v_ext shape does not match the grid")
    if squared_norm(psi0) <= 0.0:
        raise DegenerateInputError("cannot evolve a zero-norm field")
    dt = spec.dt
    k = grid.wavenumbers
    kin_phase = np.exp(-1j * phys.hbar * k * k * dt / (2.0 * phys.mass))
    half_factor = -1j * dt / (2.0 * phys.hbar)
    static = family.self_potential is None
    if static:
        # a fixed potential needs its two phase factors only once
        half_ext = np.exp(half_factor * family.v_ext)
        static_phase = {1: half_ext, 2: half_ext * half_ext}

    def evaluate(vals, step):
        if static:
            return None
        try:
            return family.self_potential(vals)
        except ConfigError:
            # a self potential may refuse non-finite values (the kernel
            # family's WaveField does); report that as a blow-up at t
            if np.isfinite(vals).all():
                raise
            raise NonFiniteFieldError(step * dt) from None

    def phase(v_self, halves):
        if static:
            return static_phase[halves]
        return np.exp(halves * half_factor * (family.v_ext + v_self))

    rec = _Recorder(psi0, spec, phys, family)
    vals = psi0.values.copy()
    v_self = evaluate(vals, 0)
    rec.record(0.0, vals, v_self)
    vals *= phase(v_self, 1)
    n_steps, stride = spec.n_steps, spec.output_stride
    for step in range(1, n_steps + 1):
        ft = np.fft.fft(vals)
        ft *= kin_phase
        vals = np.fft.ifft(ft)
        # two edge values screen every step; a trip is confirmed in full
        edge = rec.edge_screen
        if abs(vals[0]) > edge or abs(vals[-1]) > edge:
            rec.check_boundary(step * dt, _density(vals))
        # |psi| is the same on both sides of the potential step, so this
        # value closes this step and opens the next
        v_self = evaluate(vals, step)
        if step % stride and step < n_steps:
            vals *= phase(v_self, 2)
            continue
        half_phase = phase(v_self, 1)
        vals *= half_phase
        if step % stride == 0:
            rec.record(step * dt, vals, v_self)
        if step < n_steps:
            vals *= half_phase
    if n_steps % stride and not np.isfinite(vals).all():
        raise NonFiniteFieldError(n_steps * dt)
    return rec.log, WaveField(grid, vals)


def evolve_linear(
    psi0: WaveField,
    v_ext: np.ndarray,
    spec: EvolutionSpec,
    phys: PhysParams = PhysParams(),
) -> tuple[TrajectoryLog, WaveField]:
    """Unitary Strang evolution under a static external potential."""
    return _evolve(psi0, _Family(np.asarray(v_ext, dtype=float)), spec, phys)


def evolve_self_harmonic(
    psi0: WaveField,
    model: HarmonicModelParams,
    spec: EvolutionSpec,
    phys: PhysParams = PhysParams(),
) -> tuple[TrajectoryLog, WaveField]:
    """Evolve under the trap plus the mean-field self-trap.

    The potential is k_ext x^2/2 + k_self (x - <x>)^2/2 with <x> updated
    self-consistently.  The conserved energy logged per output time is
    <T> + <V_ext> + (k_self/2) N^2 Var, whose density derivative is
    exactly the self potential.
    """
    ratio = sphere_validity_ratio(psi0, model)
    if ratio is not None and ratio > 0.2:
        logger.warning(
            "packet rms width is %.3g of the sphere radius; the quadratic "
            "sphere expansion is inaccurate", ratio
        )
    omega_fast = math.sqrt((model.k_ext + model.k_self) / phys.mass)
    if omega_fast > 0:
        _check_dt_accuracy(spec, omega_fast)
    return _evolve(psi0, _self_trap_family(psi0.grid, model), spec, phys)


def evolve_kernel(
    psi0: WaveField,
    kernel: ConvolutionKernel,
    v_ext: np.ndarray,
    spec: EvolutionSpec,
    phys: PhysParams = PhysParams(),
) -> tuple[TrajectoryLog, WaveField]:
    """Evolve under V_ext plus the convolution self-potential."""
    grid = psi0.grid

    def self_potential(vals):
        return convolution_self_potential(WaveField(grid, vals), kernel)

    family = _Family(np.asarray(v_ext, dtype=float), self_potential, 0.5)
    return _evolve(psi0, family, spec, phys)


@dataclass
class RelaxResult:
    field: WaveField
    eigenvalue: float
    energy: float
    iters: int
    history: List[float] = field(default_factory=list)


def imaginary_time_relax(
    psi0: WaveField,
    model: HarmonicModelParams,
    target_norm_sq: float,
    tol: float = 1e-10,
    phys: PhysParams = PhysParams(),
    max_iters: int = 200_000,
) -> RelaxResult:
    """Gradient-flow relaxation to the ground state of the trap model.

    Each step applies the split imaginary-time factor
    exp(-V dtau/2) exp(-T dtau) exp(-V dtau/2) with the potential of
    :func:`evolve_self_harmonic` rebuilt from the current field, then
    renormalizes to ``target_norm_sq``.  A step that raises the energy
    evolve_self_harmonic logs beyond roundoff is rejected and dtau
    halved; a roundoff-sized rise keeps the current state and counts as
    a step of zero change.  So the recorded energy history is
    non-increasing.  Convergence is a relative energy change below
    ``tol`` on three consecutive steps.

    Returns the relaxed field, the eigenvalue <psi|H[psi]|psi>/<psi|psi>
    with the potential frozen at convergence, and the energy; for
    k_self > 0 the two differ.
    """
    if target_norm_sq <= 0.0:
        raise ConfigError("target_norm_sq must be positive")
    grid = psi0.grid
    dx = grid.dx
    k = grid.wavenumbers
    n0 = squared_norm(psi0)
    if n0 <= 0.0:
        raise DegenerateInputError("seed state must have positive norm")
    vals = psi0.values * np.sqrt(target_norm_sq / n0)
    family = _self_trap_family(grid, model)

    def evaluate(v):
        """The potential built from ``v``, and the energy of ``v``."""
        v_self = family.self_potential(v) if family.self_potential else None
        pot = family.v_ext if v_self is None else family.v_ext + v_self
        return pot, _energy(v, _density(v), family, v_self, grid, phys)

    dtau = RELAX_DTAU0
    pot, energy = evaluate(vals)
    history = [energy]
    consecutive = 0
    iters = 0
    level_energy = None
    converged = False
    while iters < max_iters:
        iters += 1
        kin_decay = np.exp(-phys.hbar * k * k * dtau / (2.0 * phys.mass))
        half_decay = np.exp(-pot * dtau / (2.0 * phys.hbar))
        trial = vals * half_decay
        trial = np.fft.ifft(np.fft.fft(trial) * kin_decay)
        trial *= half_decay
        n2 = float(_density(trial).sum() * dx)
        if n2 <= 0.0:
            raise ConvergenceError("relaxation collapsed to zero norm", history)
        trial *= np.sqrt(target_norm_sq / n2)
        pot_trial, e_new = evaluate(trial)
        if e_new > energy + 1e-14 * max(1.0, abs(energy)):
            dtau *= 0.5
            if dtau < 1e-14:
                raise ConvergenceError(
                    "imaginary-time step underflowed before convergence",
                    history,
                )
            continue
        if e_new > energy:
            # a roundoff-sized rise: the level has stopped moving at this
            # dtau, so count the step towards convergence but keep the
            # lower state and leave the history non-increasing
            rel = 0.0
        else:
            rel = abs(e_new - energy) / max(abs(e_new), 1e-30)
            vals = trial
            pot = pot_trial
            energy = e_new
            history.append(energy)
        if rel < tol:
            consecutive += 1
            if consecutive >= 3:
                # converged at this step size; the split flow's fixed
                # point carries an O(dtau^2) bias, so anneal dtau until
                # halving it stops moving the energy
                if level_energy is not None and (
                    abs(level_energy - energy) <= tol * max(abs(energy), 1e-30)
                ):
                    converged = True
                    break
                level_energy = energy
                dtau *= 0.5
                consecutive = 0
                if dtau < 1e-6:
                    converged = True
                    break
        else:
            consecutive = 0
    if not converged and iters >= max_iters:
        raise ConvergenceError(
            f"no convergence after {max_iters} imaginary-time steps", history
        )
    rho = _density(vals)
    eigenvalue = ((_kinetic_energy(vals, grid, phys) + float(np.sum(pot * rho) * dx))
                  / float(rho.sum() * dx))
    return RelaxResult(WaveField(grid, vals), eigenvalue, energy, iters, history)


def remove_snapshots(out_dir) -> None:
    """Delete every ``snap_*.dat`` in ``out_dir`` and nothing else."""
    for stale in Path(out_dir).glob("snap_*.dat"):
        stale.unlink()


def write_snapshots(log: TrajectoryLog, out_dir) -> List[Path]:
    """Dump stored snapshots as text files snap_<index>.dat.

    Each file starts with a ``# t=<value>`` header followed by one
    ``x re im`` line per node, all at 17 significant digits, with LF
    line endings.  Any ``snap_*.dat`` already in ``out_dir`` is removed
    first, so a rerun with fewer frames leaves no stale files.
    """
    if log.fields is None:
        raise ConfigError("run was made with store_fields=False")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    remove_snapshots(out)
    row = "%s %.17g %.17g\n"
    paths = []
    grid = x_cells = None
    for i, (t, fld) in enumerate(zip(log.times, log.fields)):
        # the frames of a run share one grid: format its nodes once
        if fld.grid != grid:
            grid = fld.grid
            x_cells = ["%.17g" % xi for xi in grid.nodes.tolist()]
        path = out / f"snap_{i:05d}.dat"
        write_table(path, f"# t={t:.17g}", row,
                    (x_cells, fld.values.real, fld.values.imag))
        paths.append(path)
    return paths


def read_snapshot(path) -> tuple[float, np.ndarray, np.ndarray]:
    """Parse a snapshot file back into (t, x, complex values)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# t="):
            raise ConfigError(f"{path} is not a snapshot file")
        t = float(header[4:])
        data = np.loadtxt(fh, ndmin=2)
    # assigned, not re + 1j*im: that product turns an imaginary -0.0 into 0.0
    vals = data[:, 1].astype(complex)
    vals.imag = data[:, 2]
    return t, data[:, 0], vals
