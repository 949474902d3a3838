"""Time evolution by Strang split-step and imaginary-time relaxation.

Real-time steps apply exp(-i V dt / 2hbar), a full spectral kinetic step
exp(-i hbar k^2 dt / 2m), then exp(-i V dt / 2hbar).  One loop serves the
three potential families: a static potential, the mean-field self-trap
and the convolution kernel.  The potential step is diagonal in position
and never changes |psi|, so a density-built potential evaluated right
after the kinetic step closes step n and opens step n + 1: one
evaluation per step, at the midpoint density, which keeps the scheme
second order and time reversible.  Between outputs the two half-steps
are fused into one exp(-i V dt / hbar).  The mean-field trap's V, and
the sphere kernel's (F(u) = c0 + c2 u^2), is quadratic in x: a fixed
phase times a plane wave from two tables of about sqrt(n) exponentials
and a constant, so a step takes two or three moments of the density and
never builds V_self; other kernels convolve once a step.  An output logs
the moments and the norm, and keeps the frame if asked.  Imaginary time
relaxes the trap model by the exact split of its oscillator propagator.

The loop is a stream: a :class:`StrangRun` yields each output frame as
it is logged.  :func:`run_lockstep` advances several runs together and
hands each set of frames to an observer, which can analyse or write a
frame without anything keeping it; ``evolve_linear``,
``evolve_self_harmonic`` and ``evolve_kernel`` drain one run and return
its log, which keeps every frame when the spec's ``store_fields`` is
set.  :class:`SnapshotWriter` writes frames one at a time, and
:func:`write_snapshots` writes a log's kept frames with it.

A propagation run owns its working array exclusively; the returned log
is append-only during the run and should be treated as immutable after.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence

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
    _SphereQuadratic,
    _mean_position,
    _self_trap,
    convolution_self_potential,
    harmonic_external,
    sphere_validity_ratio,
)
from .textio import format_cells, write_table

logger = logging.getLogger(__name__)

# |psi|^2 at the domain edge above this fraction of the peak aborts a run
BOUNDARY_LEAK_THRESHOLD = 1e-12
# accuracy bound: resolve the fastest oscillation with at least this many steps
MIN_STEPS_PER_PERIOD = 10.0
# first imaginary-time step of imaginary_time_relax, as omega * dtau;
# halved as needed
RELAX_OMEGA_TAU = 2.0


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
        if not errors:
            ratio = self.t_end / abs(self.dt)
            if not math.isfinite(ratio):
                errors.append(f"t_end/dt = {self.t_end!r}/{self.dt!r} is not finite")
            elif abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
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
    """Per-output-time record of moments, norm and snapshots."""

    def __init__(self, store_fields: bool):
        self.times: List[float] = []
        self.mean_x: List[float] = []
        self.mean_x2: List[float] = []
        self.norm_sq: List[float] = []
        self.fields: Optional[List[WaveField]] = [] if store_fields else None

    def append(self, t, mean_x, mean_x2, norm_sq, energy=None, fld=None):
        """Log one output time.  ``energy`` is taken and dropped: a run logs
        no energy, and callers that still pass one in the fifth place (the
        benchmark's snapshot kernel) keep working."""
        self.times.append(t)
        self.mean_x.append(mean_x)
        self.mean_x2.append(mean_x2)
        self.norm_sq.append(norm_sq)
        if self.fields is not None:
            self.fields.append(fld)

    def as_arrays(self):
        return (
            np.asarray(self.times),
            np.asarray(self.mean_x),
            np.asarray(self.mean_x2),
            np.asarray(self.norm_sq),
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

    A nonzero ``k_self`` marks a V_self stepped in closed form:
    k_self (x - <x>)^2 / 2, plus k_self Var / 2 + ``offset`` if set (the
    sphere kernel's global phase).  Otherwise ``self_potential`` maps field
    values to V_self (a convolution kernel), or is None for a static
    potential.
    """

    v_ext: np.ndarray
    self_potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    k_self: float = 0.0
    offset: Optional[float] = None


def _kernel_family(psi0: WaveField, kernel: ConvolutionKernel, v_ext) -> _Family:
    """V_ext plus the convolution self-potential of ``kernel``.

    For F(u) = c0 + c2 u^2 it is exactly offset + k_self ((x - X)^2 + Var) / 2,
    offset = coupling dx c0 N, k_self = 2 coupling dx c2 N, N = sum rho at
    t = 0 (the step is unitary): a closed form that never convolves.
    """
    v_ext = np.asarray(v_ext, dtype=float)
    if isinstance(kernel.fn, _SphereQuadratic):
        c0, c2 = kernel.fn.coefficients()
        pair_n = kernel.coupling * psi0.grid.dx * np.vdot(psi0.values, psi0.values).real
        if k_self := 2.0 * c2 * pair_n:  # else it underflowed: convolve
            return _Family(v_ext, k_self=k_self, offset=c0 * pair_n)

    def self_potential(vals):
        return convolution_self_potential(WaveField(psi0.grid, vals), kernel)

    return _Family(v_ext, self_potential)


def _trap_phase(grid: Grid1D, v_ext: np.ndarray, k_self: float, f: complex):
    """phase(X, halves, c) = exp(halves f (v_ext + k_self (x - X)^2 / 2 + c)).

    V = [v_ext + k_self x^2/2] - k_self X x + k_self X^2/2: a fixed phase
    times a plane wave and a constant.  At x_j = x_min + (r b + c) dx, b ~
    sqrt(n), the wave is a table over r times one over c with the constant.
    """
    x = grid.nodes
    half = np.exp(f * (v_ext + 0.5 * k_self * x * x))
    n = grid.n_points
    n_rows = 1 << n.bit_length() // 2  # 2^ceil(k/2) rows of b for n = 2^k
    fixed = {1: half.reshape(n_rows, -1), 2: (half * half).reshape(n_rows, -1)}
    # j = r b at the rows, then j = c at the columns
    j = np.concatenate([np.arange(0, n, n // n_rows), np.arange(n // n_rows)])

    def phase(mean, halves, offset=0.0):
        g = halves * f * k_self * mean
        wave = np.exp(-g * grid.dx * j)
        cols = wave[n_rows:] * np.exp(g * (0.5 * mean - grid.x_min) + halves * f * offset)
        return (fixed[halves] * wave[:n_rows, None] * cols).reshape(-1)

    return phase


class _Recorder:
    """Per-output bookkeeping of a Strang run."""

    def __init__(self, psi0: WaveField, spec: EvolutionSpec):
        self.grid = psi0.grid
        self.spec = spec
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

    def record(self, t: float, vals: np.ndarray):
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
        fld = WaveField(self.grid, vals) if self.spec.store_fields else None
        self.log.append(t, mean, mean2, n2, fld=fld)


def _check_dt_accuracy(spec: EvolutionSpec, omega_fast: float):
    dt_max = 2.0 * np.pi / (MIN_STEPS_PER_PERIOD * omega_fast)
    if abs(spec.dt) > dt_max * (1.0 + 1e-12):
        raise ConfigError(
            f"dt={abs(spec.dt):g} exceeds the accuracy bound "
            f"dt_max={dt_max:g} for the stiffest frequency {omega_fast:g}"
        )


class StrangRun:
    """One Strang run as a stream of output frames.

    Iterating steps the run and yields ``(t, values)`` right after each
    output time is logged in ``log``.  ``values`` is the run's working
    array: it stays valid only until the next frame is pulled, so a
    consumer that keeps a frame copies it.  Once the stream is exhausted,
    ``final`` holds the field at t_end.  A run can be iterated once.
    """

    def __init__(self, psi0: WaveField, family: _Family, spec: EvolutionSpec,
                 phys: PhysParams):
        if family.v_ext.shape != (psi0.grid.n_points,):
            raise ConfigError("v_ext shape does not match the grid")
        if squared_norm(psi0) <= 0.0:
            raise DegenerateInputError("cannot evolve a zero-norm field")
        self._rec = _Recorder(psi0, spec)
        self.log = self._rec.log
        self.final: Optional[WaveField] = None
        self._frames = self._step(psi0, family, spec, phys)

    @classmethod
    def linear(cls, psi0: WaveField, v_ext: np.ndarray, spec: EvolutionSpec,
               phys: PhysParams = PhysParams()) -> "StrangRun":
        """Unitary evolution under a static external potential."""
        return cls(psi0, _Family(np.asarray(v_ext, dtype=float)), spec, phys)

    @classmethod
    def self_harmonic(cls, psi0: WaveField, model: HarmonicModelParams,
                      spec: EvolutionSpec,
                      phys: PhysParams = PhysParams()) -> "StrangRun":
        """Evolution under the trap plus the mean-field self-trap.

        The potential is k_ext x^2/2 + k_self (x - <x>)^2/2 with <x> updated
        self-consistently.  It conserves <T> + <V_ext> + <V_self>, the
        energy :func:`imaginary_time_relax` lowers; the run does not log it.
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
        # static at k_self = 0
        return cls(psi0, _Family(harmonic_external(psi0.grid, model.k_ext),
                                 k_self=model.k_self), spec, phys)

    @classmethod
    def kernel(cls, psi0: WaveField, kernel: ConvolutionKernel,
               v_ext: np.ndarray, spec: EvolutionSpec,
               phys: PhysParams = PhysParams()) -> "StrangRun":
        """Evolution under V_ext plus the convolution self-potential."""
        return cls(psi0, _kernel_family(psi0, kernel, v_ext), spec, phys)

    def __iter__(self) -> Iterator[tuple[float, np.ndarray]]:
        return self._frames

    def drain(self) -> tuple[TrajectoryLog, WaveField]:
        """Step to the end; the log and the final field."""
        for _ in self._frames:
            pass
        return self.log, self.final

    def _step(self, psi0, family, spec, phys):
        """Strang evolution with one potential evaluation per step."""
        grid = psi0.grid
        dt = spec.dt
        k = grid.wavenumbers
        kin_phase = np.exp(-1j * phys.hbar * k * k * dt / (2.0 * phys.mass))
        half_factor = -1j * dt / (2.0 * phys.hbar)
        static = family.self_potential is None and not family.k_self
        closed_form = family.k_self != 0.0
        if static:
            # a fixed potential needs its two phase factors only once
            half_ext = np.exp(half_factor * family.v_ext)
            static_phase = {1: half_ext, 2: half_ext * half_ext}
        elif closed_form:
            trap_phase = _trap_phase(grid, family.v_ext, family.k_self, half_factor)

        def evaluate(vals, step):
            if static:
                return None
            if closed_form:  # the closed-form phase takes <x> and the constant
                xv = grid.nodes * vals
                total = np.vdot(vals, vals).real
                mean = _mean_position(total, np.vdot(vals, xv).real)
                if family.offset is None:
                    return mean, 0.0
                variance = np.vdot(xv, xv).real / total - mean * mean
                return mean, family.offset + 0.5 * family.k_self * variance
            try:
                return family.self_potential(vals)
            except ConfigError:
                # a self potential may refuse non-finite values (the kernel
                # family's WaveField does); report that as a blow-up at t
                if np.isfinite(vals).all():
                    raise
                raise NonFiniteFieldError(step * dt) from None

        def phase(state, halves):
            if static:
                return static_phase[halves]
            if closed_form:
                return trap_phase(state[0], halves, state[1])
            return np.exp(halves * half_factor * (family.v_ext + state))

        rec = self._rec
        vals = psi0.values.copy()
        state = evaluate(vals, 0)
        rec.record(0.0, vals)
        yield 0.0, vals
        vals *= phase(state, 1)
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
            state = evaluate(vals, step)
            if step % stride and step < n_steps:
                vals *= phase(state, 2)
                continue
            half_phase = phase(state, 1)
            vals *= half_phase
            if step % stride == 0:
                rec.record(step * dt, vals)
                yield step * dt, vals
            if step < n_steps:
                vals *= half_phase
        if n_steps % stride and not np.isfinite(vals).all():
            raise NonFiniteFieldError(n_steps * dt)
        self.final = WaveField(grid, vals)


def run_lockstep(runs: Sequence[StrangRun],
                 observe: Callable[..., None]) -> None:
    """Advance ``runs`` together, one output frame at a time.

    At each output time t, ``observe(t, values_0, values_1, ...)`` sees
    the values of every run, valid only during the call; then each run
    steps on to its next output.  The runs must share their output
    times.  So a caller holds one frame per run however long the runs
    are, and every run has its final field when this returns.
    """
    # strict: once the first run ends, the others are pulled to their end
    for frames in zip(*runs, strict=True):
        observe(frames[0][0], *(values for _, values in frames))


def evolve_linear(
    psi0: WaveField,
    v_ext: np.ndarray,
    spec: EvolutionSpec,
    phys: PhysParams = PhysParams(),
) -> tuple[TrajectoryLog, WaveField]:
    """Unitary Strang evolution under a static external potential."""
    return StrangRun.linear(psi0, v_ext, spec, phys).drain()


def evolve_self_harmonic(
    psi0: WaveField,
    model: HarmonicModelParams,
    spec: EvolutionSpec,
    phys: PhysParams = PhysParams(),
) -> tuple[TrajectoryLog, WaveField]:
    """Evolve under the trap plus the mean-field self-trap
    (see :meth:`StrangRun.self_harmonic`)."""
    return StrangRun.self_harmonic(psi0, model, spec, phys).drain()


def evolve_kernel(
    psi0: WaveField,
    kernel: ConvolutionKernel,
    v_ext: np.ndarray,
    spec: EvolutionSpec,
    phys: PhysParams = PhysParams(),
) -> tuple[TrajectoryLog, WaveField]:
    """Evolve under V_ext plus the convolution self-potential."""
    return StrangRun.kernel(psi0, kernel, v_ext, spec, phys).drain()


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
    """Imaginary-time relaxation to the ground state of the trap model.

    With <x> frozen at the current field, V = (K/2)(x - x_c)^2 + c,
    K = k_ext + k_self: an oscillator of omega = sqrt(K/m), whose
    propagator factors exactly (Mehler's kernel) as exp(-dtau H) =
    exp(-tau_V V/2) exp(-tau_T T) exp(-tau_V V/2) with tau_V = (2/omega)
    tanh(omega dtau/2) and tau_T = sinh(omega dtau)/omega.  A step applies
    it with V rebuilt from the field and renormalizes to ``target_norm_sq``,
    removing c, so the ground state, when resolved and inside the domain,
    is its fixed point at every dtau.  A step that raises the energy
    <T> + <V_ext> + <V_self> beyond roundoff is rejected and dtau halved;
    a roundoff-sized rise keeps the current state and counts as a step of
    zero change, so the recorded energy history is non-increasing.
    Convergence is a relative energy change below ``tol`` on three
    consecutive steps.

    Returns the relaxed field, the eigenvalue <psi|H[psi]|psi>/<psi|psi>
    with the potential frozen at convergence, and the energy; for
    k_self > 0 the two differ.
    """
    if target_norm_sq <= 0.0:
        raise ConfigError("target_norm_sq must be positive")
    omega = math.sqrt((model.k_ext + model.k_self) / phys.mass)
    if not 0.0 < omega < math.inf:  # K = 0 would find the box's constant mode
        raise ConfigError(f"relaxation needs a confining potential: omega = {omega:g}")
    grid = psi0.grid
    dx = grid.dx
    k = grid.wavenumbers
    n0 = squared_norm(psi0)
    if n0 <= 0.0:
        raise DegenerateInputError("seed state must have positive norm")
    vals = psi0.values * np.sqrt(target_norm_sq / n0)
    x = grid.nodes
    v_ext = harmonic_external(grid, model.k_ext)

    def evaluate(v):
        """The potential built from ``v``, and the energy <T> + <v_ext> +
        <V_self> of ``v``: the energy of the mean-field trap, whose V_self
        is homogeneous of degree one in rho."""
        rho = _density(v)
        energy = _kinetic_energy(v, grid, phys) + float(np.sum(v_ext * rho) * dx)
        if model.k_self == 0.0:
            return v_ext, energy
        v_self = _self_trap(x, rho, model.k_self)
        return v_ext + v_self, energy + float(np.sum(v_self * rho) * dx)

    dtau = RELAX_OMEGA_TAU / omega
    pot, energy = evaluate(vals)
    history = [energy]
    consecutive = 0
    decay_dtau = None
    for iters in range(1, max_iters + 1):
        if dtau != decay_dtau:  # dtau changes only when it is halved
            decay_dtau = dtau
            tau_v = 2.0 * math.tanh(0.5 * omega * dtau) / omega
            tau_t = math.sinh(omega * dtau) / omega
            kin_decay = np.exp(-phys.hbar * k * k * tau_t / (2.0 * phys.mass))
        half_decay = np.exp(-pot * tau_v / (2.0 * phys.hbar))
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
        consecutive = consecutive + 1 if rel < tol else 0
        if consecutive >= 3:
            break
    else:
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


class SnapshotWriter:
    """Writes a run's frames, in order, as files snap_<index>.dat.

    Each file starts with a ``# t=<value>`` header followed by one
    ``x re im`` line per node, all at 17 significant digits, with LF
    line endings.  The writer makes ``out_dir`` and first removes any
    ``snap_*.dat`` already in it, so a rerun with fewer frames leaves no
    stale files.
    """

    def __init__(self, out_dir):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        remove_snapshots(self.out)
        self.paths: List[Path] = []
        self._grid = self._x_cells = None
        self._bytes = self._fallbacks = 0
        self._seconds = 0.0

    def write(self, t: float, fld: WaveField) -> None:
        """Write ``fld``, the frame at time ``t``, as the next file."""
        start = time.perf_counter()
        # the frames of a run share one grid: format its nodes once
        if fld.grid != self._grid:
            self._grid = fld.grid
            self._x_cells, n = format_cells(fld.grid.nodes)
            self._fallbacks += n
        path = self.out / f"snap_{len(self.paths):05d}.dat"
        n_bytes, n = write_table(path, f"# t={t:.17g}",
                                 (self._x_cells, fld.values.real, fld.values.imag),
                                 " ")
        self._bytes += n_bytes
        self._fallbacks += n
        self.paths.append(path)
        self._seconds += time.perf_counter() - start

    def log_summary(self, where) -> None:
        logger.info("wrote %d snapshots to %s: %d bytes in %.3fs, %d values "
                    "formatted one by one", len(self.paths), where, self._bytes,
                    self._seconds, self._fallbacks)


def write_snapshots(log: TrajectoryLog, out_dir) -> List[Path]:
    """Dump a log's stored frames with a :class:`SnapshotWriter`."""
    if log.fields is None:
        raise ConfigError("run was made with store_fields=False")
    writer = SnapshotWriter(out_dir)
    for t, fld in zip(log.times, log.fields):
        writer.write(t, fld)
    writer.log_summary(writer.out)
    return writer.paths


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
