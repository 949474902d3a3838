"""Independent reference solutions used to validate the grid solvers.

Gaussian moment flow
--------------------
The trapped-sphere model keeps Gaussian states Gaussian, so its dynamics
closes on four numbers: mean <x>, mean momentum <p>, variance
s = <x^2> - <x>^2 and the variance rate ds/dt = 2C/m where
C = Re<(x-<x>)(p-<p>)>.  With K = k_ext + k_self and a pure state
(s * Pi - C^2 = hbar^2/4, Pi = <(p-<p>)^2>, conserved by the flow):

    d<x>/dt = <p>/m
    d<p>/dt = -k_ext <x>          (the self term exerts zero mean force)
    ds/dt   = 2C/m
    dC/dt   = Pi/m - K s,   Pi = (hbar^2/4 + C^2)/s

The mean feels only the external trap; the width feels the combined
stiffness K and breathes around s* = hbar/(2 sqrt(K m)) at frequency
2 sqrt(K/m).  The closure is exact, so any disagreement with the grid
solver beyond tolerance indicates a solver bug, not model error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigError
from .fields import Grid1D, WaveField
from .potentials import HarmonicModelParams, PhysParams
from .textio import float_row, write_table


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

    def at(self, i: int) -> GaussianMoments:
        return GaussianMoments(
            float(self.mean[i]),
            float(self.momentum[i]),
            float(self.variance[i]),
            float(self.variance_rate[i]),
        )


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def gaussian_moment_flow(
    init: GaussianMoments,
    model: HarmonicModelParams,
    phys: PhysParams,
    dt: float,
    t_end: float,
) -> MomentSeries:
    """Integrate the closed moment system with fixed-step RK4."""
    if dt <= 0.0 or t_end <= 0.0:
        raise ConfigError("dt and t_end must be positive")
    m = phys.mass
    hbar = phys.hbar
    k_total = model.k_ext + model.k_self

    def rhs(y):
        mean, mom, var, var_rate = y
        if var <= 0.0:
            raise ConfigError("moment flow reached non-positive variance")
        c = 0.5 * m * var_rate
        pi2 = (0.25 * hbar * hbar + c * c) / var
        dc = pi2 / m - k_total * var
        return np.array([mom / m, -model.k_ext * mean, var_rate, 2.0 * dc / m])

    n_steps = int(round(t_end / dt))
    y = np.array([init.mean, init.momentum, init.variance, init.variance_rate])
    out = np.empty((n_steps + 1, 4))
    out[0] = y
    for i in range(n_steps):
        y = _rk4_step(rhs, y, dt)
        out[i + 1] = y
    times = dt * np.arange(n_steps + 1)
    return MomentSeries(times, out[:, 0], out[:, 1], out[:, 2], out[:, 3])


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
    force: Union[float, Callable[[float], float]],
    dt: float,
    t_end: float,
    mass: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 integration of m x'' = F(x).

    ``force`` is either a callable F(x) or a stiffness k_ext, which is
    shorthand for the trap force F(x) = -k_ext x.  For quadratic traps
    this is the exact reference for the mean motion of any wave solution.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ConfigError("dt and t_end must be positive")
    if callable(force):
        f = force
    else:
        k = float(force)
        f = lambda x: -k * x

    def rhs(y):
        return np.array([y[1], f(y[0]) / mass])

    n_steps = int(round(t_end / dt))
    y = np.array([init.position, init.velocity], dtype=float)
    xs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    xs[0], vs[0] = y
    for i in range(n_steps):
        y = _rk4_step(rhs, y, dt)
        xs[i + 1], vs[i + 1] = y
    times = dt * np.arange(n_steps + 1)
    return times, xs, vs


def write_series_csv(path, header: str, columns) -> None:
    """Comma CSV with 17 significant digits, same conventions as the
    guidance table, so oracle series plot side by side with it."""
    arrays = [np.asarray(c) for c in columns]
    write_table(path, header, float_row(len(arrays), ","), arrays)


def write_moment_csv(series: MomentSeries, path) -> None:
    write_series_csv(
        path,
        "t,mean,momentum,variance,variance_rate",
        (series.times, series.mean, series.momentum, series.variance,
         series.variance_rate),
    )
