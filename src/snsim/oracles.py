"""Independent reference solutions used to validate the grid solvers.

Under a quadratic trap both references are exactly solvable, so they are
evaluated in closed form.  With S(w, t) = sin(w t)/w (t when w = 0) and
c = cos(w t):

Classical trajectory
--------------------
m x'' = -k x with w = sqrt(k/m):

    x(t) = x0 c + v0 S(w, t),   v(t) = v0 c - (k/m) x0 S(w, t)

Gaussian moment flow
--------------------
The trapped-sphere model keeps Gaussian states Gaussian: the mean feels
only the external trap (the self term exerts zero mean force) and the
fluctuation x - <x> feels the combined stiffness K = k_ext + k_self, both
linearly.  Let w_e = sqrt(k_ext/m), c_e = cos(w_e t), w = sqrt(K/m),
c = cos(w t), s = <x^2> - <x>^2 the variance, C = Re<(x-<x>)(p-<p>)>
(so ds/dt = 2C/m) and, for a pure state, Pi = <(p-<p>)^2>
= (hbar^2/4 + C^2)/s; subscript 0 marks t = 0.  Then

    <x>(t) = x0 c_e + (p0/m) S(w_e, t)
    <p>(t) = p0 c_e - k_ext x0 S(w_e, t)
    s(t)   = s0 c^2 + (2 C0/m) c S(w, t) + (Pi0/m^2) S(w, t)^2

The width breathes around s* = hbar/(2 sqrt(K m)) at frequency 2w.  The
closure is exact, so any disagreement with the grid solver beyond
tolerance indicates a solver bug, not model error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import Grid1D, WaveField
from .potentials import HarmonicModelParams, PhysParams


@dataclass(frozen=True)
class GaussianMoments:
    """Moment state of a pure Gaussian packet."""

    mean: float
    momentum: float
    variance: float
    variance_rate: float = 0.0

    def __post_init__(self):
        if self.variance <= 0.0:
            raise ConfigError("variance must be positive")


@dataclass(frozen=True)
class ClassicalState:
    position: float
    velocity: float

    def __post_init__(self):
        if not (np.isfinite(self.position) and np.isfinite(self.velocity)):
            raise ConfigError("classical state must be finite")


@dataclass(frozen=True)
class MomentSeries:
    times: np.ndarray
    mean: np.ndarray
    momentum: np.ndarray
    variance: np.ndarray
    variance_rate: np.ndarray


def _output_times(dt: float, t_end: float) -> np.ndarray:
    if dt <= 0.0 or t_end <= 0.0:
        raise ConfigError("dt and t_end must be positive")
    return dt * np.arange(int(round(t_end / dt)) + 1)


def _sin_over(omega: float, t: np.ndarray) -> np.ndarray:
    """sin(omega t) / omega, equal to t at omega = 0."""
    return t * np.sinc(omega * t / np.pi)


def gaussian_moment_flow(
    init: GaussianMoments,
    model: HarmonicModelParams,
    phys: PhysParams,
    dt: float,
    t_end: float,
) -> MomentSeries:
    """The exact moment flow at t = 0, dt, ..., t_end."""
    times = _output_times(dt, t_end)
    m = phys.mass
    omega_e = np.sqrt(model.k_ext / m)
    omega = np.sqrt((model.k_ext + model.k_self) / m)
    c_e, s_e = np.cos(omega_e * times), _sin_over(omega_e, times)
    c, s = np.cos(omega * times), _sin_over(omega, times)
    s0 = init.variance
    c0 = 0.5 * m * init.variance_rate
    pi0 = (0.25 * phys.hbar**2 + c0 * c0) / s0
    mean = init.mean * c_e + init.momentum / m * s_e
    momentum = init.momentum * c_e - model.k_ext * init.mean * s_e
    variance = s0 * c * c + 2.0 * c0 / m * c * s + pi0 / (m * m) * s * s
    variance_rate = (2.0 * (pi0 / (m * m) - omega**2 * s0) * c * s
                     + 2.0 * c0 / m * (c * c - omega**2 * s * s))
    return MomentSeries(times, mean, momentum, variance, variance_rate)


def coherent_state(
    grid: Grid1D,
    k_ext: float,
    x0_init: float,
    t: float,
    phys: PhysParams = PhysParams(),
) -> tuple[WaveField, GaussianMoments]:
    """Exact displaced ground state of the linear harmonic trap at time t.

    The packet keeps the ground-state width a = sqrt(hbar/(m*omega))
    (so exp(-(x-x_c)^2/(2 a^2)), which is sqrt(hbar/(2 m omega)) * sqrt(2)
    in rms terms) while its centre follows the classical orbit
    x_c = x0 cos(omega t), p_c = -m omega x0 sin(omega t).  The phase is
    fixed so the t = 0 state is real:

        psi = (m omega / pi hbar)^(1/4)
              * exp(-(m omega / 2 hbar)(x - x_c)^2)
              * exp(i [p_c (x - x_c) + p_c x_c / 2] / hbar - i omega t / 2)
    """
    if k_ext <= 0.0:
        raise ConfigError("coherent_state needs k_ext > 0")
    m = phys.mass
    hbar = phys.hbar
    omega = np.sqrt(k_ext / m)
    x_c = x0_init * np.cos(omega * t)
    p_c = -m * omega * x0_init * np.sin(omega * t)
    x = grid.nodes
    u = x - x_c
    vals = (m * omega / (np.pi * hbar)) ** 0.25 * np.exp(
        -(m * omega / (2.0 * hbar)) * u * u
        + 1j * ((p_c * u + 0.5 * p_c * x_c) / hbar - 0.5 * omega * t)
    )
    momenta = GaussianMoments(
        mean=float(x_c),
        momentum=float(p_c),
        variance=float(hbar / (2.0 * m * omega)),
        variance_rate=0.0,
    )
    return WaveField(grid, vals), momenta


def classical_trajectory(
    init: ClassicalState,
    k: float,
    dt: float,
    t_end: float,
    mass: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (times, x, v) of m x'' = -k x at t = 0, dt, ..., t_end.

    For quadratic traps this is the exact reference for the mean motion
    of any wave solution.
    """
    if k < 0.0:
        raise ConfigError("the trap stiffness must be >= 0")
    times = _output_times(dt, t_end)
    omega = np.sqrt(k / mass)
    c, s = np.cos(omega * times), _sin_over(omega, times)
    xs = init.position * c + init.velocity * s
    vs = init.velocity * c - k / mass * init.position * s
    return times, xs, vs

