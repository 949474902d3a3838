"""Complex scalar fields on a uniform periodic 1D grid.

All solvers share this representation: complex samples at the nodes
x_i = x_min + i*dx of a periodic grid whose point count is a power of two.
Quadrature is the plain Riemann sum (identical to the trapezoid rule on a
periodic grid) and derivatives are spectral, so both are accurate to
roundoff for fields that decay below roundoff well inside the domain.

Everything here is a pure function of immutable inputs; fields can be
shared freely between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateInputError

# |f| below this fraction of max|f| is unusable in pointwise ratios
MASK_RELATIVE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with 2**k nodes."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.n_points
        errors = []
        if n <= 0 or (n & (n - 1)) != 0:
            errors.append("n_points must be a power of two")
        if not (self.x_max > self.x_min):
            errors.append("x_min must be below x_max")
        elif not np.isfinite(float(self.x_max) - float(self.x_min)):
            errors.append(f"the grid [{self.x_min:g}, {self.x_max:g}) has no "
                          f"finite length")
        if errors:
            raise ConfigError(errors)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @cached_property
    def gradient_wavenumbers(self) -> np.ndarray:
        # the Nyquist mode must not enter odd derivatives: ik times the
        # (real) Nyquist coefficient of real data would break Hermitian
        # symmetry and leak an alternating imaginary component
        k = self.wavenumbers.copy()
        k[self.n_points // 2] = 0.0
        k.setflags(write=False)
        return k


@dataclass(frozen=True)
class WaveField:
    """Complex field samples bound to their grid.

    Values are stored read-only; derive modified fields with
    :meth:`with_values`.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        # always copy: freezing a borrowed buffer would surprise callers
        vals = np.array(self.values, dtype=np.complex128, copy=True, order="C")
        if vals.shape != (self.grid.n_points,):
            raise ConfigError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ConfigError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "WaveField":
        return WaveField(self.grid, values)


@dataclass(frozen=True)
class PhaseAmplitude:
    """Amplitude/phase decomposition f = A exp(i*phi) without unwrapping.

    phase_gradient, phase_laplacian and log_amp_gradient are only
    meaningful where ``valid`` is True (|f| above the mask threshold);
    they are zero-filled elsewhere.
    """

    amplitude: np.ndarray
    phase_gradient: np.ndarray
    phase_laplacian: np.ndarray
    log_amp_gradient: np.ndarray
    valid: np.ndarray


class FieldMoments(NamedTuple):
    mean: float
    momentum: float
    variance: float
    covariance: float  # Re<(x-<x>)(p-<p>)>, sets the variance rate 2C/m


def squared_norm(f: WaveField) -> float:
    """Integral of |f|^2 over the domain."""
    v = f.values
    return float(np.sum(v.real * v.real + v.imag * v.imag) * f.grid.dx)


def spectral_gradient(f: WaveField) -> WaveField:
    """d/dx by Fourier differentiation; exact for band-limited fields."""
    k = f.grid.gradient_wavenumbers
    return f.with_values(np.fft.ifft(1j * k * np.fft.fft(f.values)))


def _spectral_derivatives(f: WaveField):
    k1 = f.grid.gradient_wavenumbers
    k = f.grid.wavenumbers
    ft = np.fft.fft(f.values)
    d1 = np.fft.ifft(1j * k1 * ft)
    d2 = np.fft.ifft(-(k * k) * ft)
    return d1, d2


def phase_amplitude(f: WaveField) -> PhaseAmplitude:
    """Decompose f into |f| and local phase derivatives.

    Writing f = A exp(i*phi), the ratio f'/f equals A'/A + i*phi', and
    d/dx of that ratio equals (A'/A)' + i*phi''.  Both are evaluated
    pointwise, which sidesteps phase unwrapping entirely.  Nodes where
    |f| falls below the mask threshold are flagged invalid, not raised:
    Gaussian tails underflow and ratios there are pure noise.
    """
    amp = np.abs(f.values)
    valid = amp > MASK_RELATIVE_THRESHOLD * amp.max(initial=0.0)
    d1, d2 = _spectral_derivatives(f)
    ratio = np.zeros_like(f.values)
    np.divide(d1, f.values, out=ratio, where=valid)
    ratio2 = np.zeros_like(f.values)
    np.divide(d2, f.values, out=ratio2, where=valid)
    phase_gradient = np.where(valid, ratio.imag, 0.0)
    log_amp_gradient = np.where(valid, ratio.real, 0.0)
    phase_laplacian = np.where(valid, (ratio2 - ratio * ratio).imag, 0.0)
    return PhaseAmplitude(
        amplitude=amp,
        phase_gradient=phase_gradient,
        phase_laplacian=phase_laplacian,
        log_amp_gradient=log_amp_gradient,
        valid=valid,
    )


def mean_position(f: WaveField) -> float:
    """|f|^2-weighted mean position; requires positive norm."""
    v = f.values
    rho = v.real * v.real + v.imag * v.imag
    total = rho.sum()
    if total <= 0.0:
        raise DegenerateInputError("zero-norm field has no mean position")
    return float((rho * f.grid.nodes).sum() / total)


def moments(f: WaveField, hbar: float = 1.0) -> FieldMoments:
    """Mean position, mean momentum, variance and x-p covariance of f."""
    v = f.values
    dx = f.grid.dx
    x = f.grid.nodes
    rho = v.real * v.real + v.imag * v.imag
    n2 = rho.sum() * dx
    if n2 <= 0.0:
        raise DegenerateInputError("zero-norm field has no moments")
    mean = float((rho * x).sum() * dx / n2)
    var = float((rho * (x - mean) ** 2).sum() * dx / n2)
    dpsi = np.fft.ifft(1j * f.grid.gradient_wavenumbers * np.fft.fft(v))
    p_density = -1j * hbar * np.conj(v) * dpsi
    momentum = float(p_density.real.sum() * dx / n2)
    cov_raw = np.conj(v) * (x - mean) * (-1j * hbar * dpsi - momentum * v)
    covariance = float(cov_raw.real.sum() * dx / n2)
    return FieldMoments(mean, momentum, var, covariance)


def gaussian_packet(
    grid: Grid1D,
    center: float,
    width_param: float,
    velocity: float = 0.0,
    chirp: float = 0.0,
    norm_sq: float = 1.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> WaveField:
    """Gaussian exp(-(x-c)^2/(2 a^2)) with optional boost and chirp.

    ``width_param`` is the Gaussian width a, so the |psi|^2 variance is
    a^2/2.  ``velocity`` adds the plane-wave factor exp(i m v (x-c)/hbar)
    and ``chirp`` the quadratic phase exp(i chirp (x-c)^2).  The result
    is normalized to the requested squared norm.
    """
    if width_param <= 0.0:
        raise ConfigError("width_param must be positive")
    if norm_sq <= 0.0:
        raise ConfigError("norm_sq must be positive")
    u = grid.nodes - center
    phase = (mass * velocity / hbar) * u + chirp * u * u
    vals = np.exp(-(u * u) / (2.0 * width_param**2) + 1j * phase)
    return normalized(WaveField(grid, vals), norm_sq,
                      f"a Gaussian packet at centre {center:g} with width "
                      f"{width_param:g}")


def normalized(f: WaveField, norm_sq: float, what: str) -> WaveField:
    """``f`` scaled to the squared norm ``norm_sq``; a density too small to
    scale raises DegenerateInputError, whose message names ``what``."""
    n2 = squared_norm(f)
    if not (n2 > 0.0 and np.isfinite(norm_sq / n2)):
        g = f.grid
        raise DegenerateInputError(
            f"{what} has no density on the {g.n_points}-node grid "
            f"[{g.x_min:g}, {g.x_max:g})")
    return f.with_values(f.values * np.sqrt(norm_sq / n2))
