"""External and nonlinear potential evaluation.

Three potential families appear in the 1D model:

* an external harmonic trap V_ext = k_ext x^2 / 2,
* the mean-field self-trap V_self = k_self (x - <x>)^2 / 2 that a uniform
  sphere of mass M and radius R generates for its own centre-of-mass
  packet once the packet is much narrower than R (position-independent
  offsets of the expansion are dropped),
* a generic distance-kernel self-interaction
  V(x) = -G m^2 * integral |psi(x')|^2 F(|x - x'|) dx'.

The sphere stiffness is k_self = G M^2 N^2 / (2 R^3) with N^2 the squared
norm of the wave.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .fields import Grid1D, WaveField

logger = logging.getLogger(__name__)

# relative agreement required between an explicit k_self and the sphere formula
STIFFNESS_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class PhysParams:
    """Dimensionless physical constants; hbar and the mass default to 1."""

    hbar: float = 1.0
    mass: float = 1.0
    G: float = 1.0
    norm_sq: float = 1.0

    def __post_init__(self):
        errors = [f"{name} must be > 0" for name in ("hbar", "mass", "G", "norm_sq")
                  if getattr(self, name) <= 0.0]
        if errors:
            raise ConfigError(errors)


@dataclass(frozen=True)
class HarmonicModelParams:
    """Stiffnesses of the trapped self-gravitating sphere model.

    k_self may be given directly or derived from the sphere data with
    :func:`self_stiffness`; when both routes are available they must
    agree (see :func:`validate_self_stiffness`).
    """

    k_ext: float
    k_self: float
    sphere_mass: Optional[float] = None
    sphere_radius: Optional[float] = None

    def __post_init__(self):
        errors = [f"{name} must be >= 0" for name in ("k_ext", "k_self")
                  if getattr(self, name) < 0.0]
        errors += [f"{name} must be > 0" for name in ("sphere_mass", "sphere_radius")
                   if getattr(self, name) is not None and getattr(self, name) <= 0.0]
        if errors:
            raise ConfigError(errors)


def self_stiffness(G: float, sphere_mass: float, sphere_radius: float,
                   norm_sq: float) -> float:
    """Sphere-model stiffness k_self = G M^2 N^2 / (2 R^3), refused unless finite."""
    try:
        k_self = G * sphere_mass**2 * norm_sq / (2.0 * sphere_radius**3)
    except (OverflowError, ZeroDivisionError):
        k_self = math.inf
    if not math.isfinite(k_self):
        raise ConfigError("the sphere stiffness G*M^2*N^2/(2R^3) of G, norm_sq, "
                          "sphere_mass and sphere_radius is not a finite number")
    return k_self


def validate_self_stiffness(model: HarmonicModelParams, phys: PhysParams):
    """Check an explicit k_self against the sphere formula when possible."""
    if model.sphere_mass is None or model.sphere_radius is None:
        return
    derived = self_stiffness(phys.G, model.sphere_mass, model.sphere_radius,
                             phys.norm_sq)
    scale = max(abs(derived), abs(model.k_self))
    if abs(derived - model.k_self) > STIFFNESS_CONSISTENCY_RTOL * scale:
        raise ConfigError(
            f"k_self={model.k_self!r} disagrees with the sphere value "
            f"G*M^2*N^2/(2R^3)={derived!r}"
        )


@dataclass(frozen=True)
class ConvolutionKernel:
    """Distance kernel F(u) with the coupling prefactor -G m^2.

    ``fn`` maps an array of non-negative distances to F values; the
    self-potential is coupling * (|psi|^2 convolved with F).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    coupling: float
    name: str = "custom"

    def sample(self, distances: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(np.abs(distances)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"kernel '{self.name}' is not finite on the grid")
        return out


def sphere_quadratic_kernel(phys: PhysParams, model: HarmonicModelParams) -> ConvolutionKernel:
    """Quadratic expansion of the uniform-sphere self interaction.

    Scaled so the convolution route reproduces the mean-field potential
    k_self (x - <x>)^2 / 2 (plus position-independent offsets) with
    k_self = G M^2 N^2 / (2 R^3).
    """
    if model.sphere_mass is None or model.sphere_radius is None:
        raise ConfigError("sphere-quadratic kernel needs sphere_mass and sphere_radius")
    m2 = phys.mass**2
    profile = _SphereQuadratic(model.sphere_mass**2 / m2, model.sphere_radius)
    return ConvolutionKernel(profile, -phys.G * m2, name="sphere-quadratic")


@dataclass(frozen=True)
class _SphereQuadratic:
    """F(u) = scale (3/(5R) - u^2/(4R^3)); equal parameters give equal
    kernels, so they share one cached spectrum per grid."""

    scale: float
    radius: float

    def __call__(self, u):
        radius = self.radius
        return self.scale * (3.0 / (5.0 * radius) - u * u / (4.0 * radius**3))


def harmonic_external(grid: Grid1D, k_ext: float) -> np.ndarray:
    """Trap potential k_ext x^2 / 2 sampled on the grid."""
    if k_ext < 0.0:
        raise ConfigError("k_ext must be >= 0")
    x = grid.nodes
    return 0.5 * k_ext * x * x


def _self_trap(x: np.ndarray, rho: np.ndarray, k_self: float) -> np.ndarray:
    """Mean-field self-trap k_self (x - <x>)^2 / 2, <x> the rho-weighted mean of
    the nodes ``x``, so the rho-weighted mean force vanishes identically."""
    total = rho.sum()
    if total <= 0.0:
        raise DegenerateInputError("zero-norm field has no mean position")
    u = x - (rho * x).sum() / total
    return 0.5 * k_self * u * u


def self_harmonic(f: WaveField, model: HarmonicModelParams) -> np.ndarray:
    """Mean-field self-trap k_self (x - <x>)^2 / 2 of the density |f|^2."""
    v = f.values
    return _self_trap(f.grid.nodes, v.real * v.real + v.imag * v.imag, model.k_self)


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(kernel: ConvolutionKernel, grid: Grid1D) -> np.ndarray:
    """rfft of coupling * dx * F on the wrap-around offsets of a 2n circle.

    Entry j < n holds F(j dx), entry 2n - j holds F(j dx); entry n is
    never reached by an n-point density and stays zero.
    """
    n = grid.n_points
    samples = kernel.sample(grid.dx * np.arange(n))
    ring = np.concatenate([samples, [0.0], samples[:0:-1]])
    spectrum = np.fft.rfft(kernel.coupling * grid.dx * ring)
    spectrum.setflags(write=False)
    return spectrum


def convolution_self_potential(f: WaveField, kernel: ConvolutionKernel) -> np.ndarray:
    """Self potential coupling * (|f|^2 conv F) by linear FFT convolution.

    Zero padding to 2n makes this the open-boundary (non-circular)
    convolution, exact to quadrature for densities supported inside the
    domain.  The kernel spectrum is computed once per (kernel, grid).
    """
    v = f.values
    rho = v.real * v.real + v.imag * v.imag
    n = f.grid.n_points
    # the first n entries of the 2n-point circular convolution are exactly
    # the n sums sum_m rho_m F(|x_i - x_m|)
    spectrum = _kernel_spectrum(kernel, f.grid)
    return np.fft.irfft(np.fft.rfft(rho, 2 * n) * spectrum, 2 * n)[:n]


def scaling_check(f: WaveField, lam: complex, kernel: ConvolutionKernel) -> float:
    """Max-norm residual of V(lam f) - |lam|^2 V(f).

    Zero up to roundoff for any kernel: the potential is quadratic in the
    field amplitude and blind to its phase.
    """
    base = convolution_self_potential(f, kernel)
    scaled = convolution_self_potential(f.with_values(lam * f.values), kernel)
    return float(np.max(np.abs(scaled - abs(lam) ** 2 * base)))


def sphere_validity_ratio(f: WaveField, model: HarmonicModelParams) -> Optional[float]:
    """Packet rms width over sphere radius, or None without sphere data.

    The quadratic sphere expansion assumes this ratio is small; callers
    assert it at t=0 and only warn if it degrades later.
    """
    if model.sphere_radius is None:
        return None
    from .fields import moments

    m = moments(f)
    return float(np.sqrt(m.variance) / model.sphere_radius)
