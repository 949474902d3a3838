"""Radial ground state of the attractive Newtonian self-interaction.

The stationary problem

    -hbar^2/(2M) lap(phi) - G M^2 [ integral |phi(y)|^2 / |x-y| d^3y ] phi
        = E0 phi

is spherically symmetric, so it is solved on u(r) = r * phi(r) with
u(0) = 0 and u(r_max) ~ 0.  The self-potential follows from the shell
theorem with two cumulative sums per sweep,

    Phi(r) = -G M [ (1/r) * int_0^r 4 pi s^2 rho ds + int_r^inf 4 pi s rho ds ],

and relaxation is a backward-Euler imaginary-time flow
(I + dtau H) u_new = u with renormalization after every sweep, which for
large dtau behaves like inverse iteration and converges in a few hundred
sweeps.  Both the eigenvalue E0 = <H[phi]> / <phi|phi> and the energy
functional

    E(phi) = hbar^2/(2M) int |grad phi|^2 d^3x + (1/2) int M Phi |phi|^2 d^3x

are reported; for this nonlinear problem they differ (at the minimizer
the virial relation gives E0 N^2 = 3 E, with N^2 the squared norm).  In
units hbar = G = M = 1 with unit squared norm the bound-state energies
are pure numbers; the published fit
for their magnitudes is e_n = a/(n+b)^c with a, b, c near (0.096, 0.76,
2.00), and E scales with the cube of the squared norm.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ConvergenceError, require_normal
from .potentials import PhysParams

logger = logging.getLogger(__name__)

FOUR_PI = 4.0 * np.pi
# Gaussian width of the relaxation seed and the first backward-Euler step
SEED_WIDTH = 3.0
DTAU0 = 2.0
# constants (a, b, c) of the published bound-state energy fit e_n = a/(n+b)^c
SPECTRUM_FIT = (0.096, 0.76, 2.00)


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered radial grid r_i = (i + 1/2) dr; no node sits at r=0."""

    n_points: int
    r_max: float

    def __post_init__(self):
        # worded as the config keys radial_points and r_max
        errors = []
        if self.n_points < 8:
            errors.append("radial_points must be >= 8")
        if self.r_max <= 0.0:
            errors.append("r_max must be > 0")
        if errors:
            raise ConfigError(errors)
        # the kinetic coefficient divides by dr^2, and the relaxation's seed
        # exp(-r^2 / (2 SEED_WIDTH^2)) underflows on nodes far coarser than it
        require_normal(f"r_max = {self.r_max!r} on radial_points = {self.n_points}",
                       dr=self.dr, dr_sq=self.dr * self.dr)
        if self.dr > SEED_WIDTH:
            raise ConfigError(
                f"r_max / radial_points = {self.dr:.4g} does not resolve the "
                f"relaxation seed's width {SEED_WIDTH:g}: dr must be at most that")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_points) + 0.5) * self.dr


def spectrum_value(n: int) -> float:
    """Dimensionless level magnitude e_n = a/(n+b)^c."""
    if n < 0:
        raise ConfigError("level index must be >= 0")
    a, b, c = SPECTRUM_FIT
    return a / (n + b) ** c


@dataclass(frozen=True)
class GroundStateResult:
    profile: np.ndarray  # phi(r) on the radial grid
    grid: RadialGrid
    eigenvalue: float
    functional_energy: float
    norm_sq: float
    extent: float  # rms radius
    iters: int


def _shell_potential(shell_density: np.ndarray, grid: RadialGrid,
                     G: float, M: float) -> np.ndarray:
    """Newton potential of w(r) = 4 pi r^2 rho(r) via cumulative sums.

    Midpoint quadrature: the own cell contributes half its weight to
    each of the inner and outer cumulants.
    """
    r = grid.nodes
    dr = grid.dr
    w = shell_density
    inner = np.cumsum(w) * dr - 0.5 * w * dr  # int_0^r 4 pi s^2 rho ds
    per_r = w / r
    outer = (np.cumsum(per_r[::-1])[::-1]) * dr - 0.5 * per_r * dr
    return -G * M * (inner / r + outer)


def radial_newton_potential(profile: np.ndarray, grid: RadialGrid,
                            G: float, M: float) -> np.ndarray:
    """Potential Phi(r) sourced by rho = |profile|^2 (shell theorem).

    Outside any compactly supported density this equals the point-mass
    potential -G M N^2 / r; the operator entering the stationary
    equation is M * Phi (attractive, so bound states have E0 < 0).
    """
    profile = np.asarray(profile)
    if profile.shape != (grid.n_points,):
        raise ConfigError("profile shape does not match the radial grid")
    rho = np.abs(profile) ** 2
    return _shell_potential(FOUR_PI * grid.nodes**2 * rho, grid, G, M)


def _kinetic_quadratic_form(u: np.ndarray, grid: RadialGrid,
                            phys: PhysParams) -> float:
    """<u|T|u> * 4 pi dr for T = -(hbar^2/2M) d^2/dr^2 with mirror ghosts."""
    dr = grid.dr
    coeff = phys.hbar**2 / (2.0 * phys.mass)
    # sum of (u_{i+1}-u_i)^2 plus the ghost contributions u(-dr/2) = -u_0
    # and u(wall) = 0 expressed via the mirrored outer ghost
    diffs = np.diff(u)
    total = np.sum(diffs * diffs) + 2.0 * u[0] ** 2 + 2.0 * u[-1] ** 2
    return FOUR_PI * coeff * total / dr


def _functional_energy_u(u: np.ndarray, pot: np.ndarray, grid: RadialGrid,
                         phys: PhysParams) -> float:
    dr = grid.dr
    w = 0.5 * FOUR_PI * float(np.sum(phys.mass * pot * u * u) * dr)
    return _kinetic_quadratic_form(u, grid, phys) + w


def energy_functional(profile: np.ndarray, grid: RadialGrid,
                      phys: PhysParams = PhysParams()) -> float:
    """Energy functional of a radial profile (half-weighted self term)."""
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (grid.n_points,):
        raise ConfigError("profile shape does not match the radial grid")
    u = grid.nodes * profile
    pot = radial_newton_potential(profile, grid, phys.G, phys.mass)
    return _functional_energy_u(u, pot, grid, phys)


def solve_ground_state(
    phys: PhysParams,
    target_norm_sq: float,
    tol: float = 1e-10,
    grid: RadialGrid | None = None,
    max_sweeps: int = 20_000,
) -> GroundStateResult:
    """Relax to the nodeless self-consistent minimizer at fixed norm.

    Raises ConvergenceError when the sweep budget runs out and
    ConfigError when the converged tail still touches r_max.
    """
    # imported here: at module level, scipy.linalg more than doubles a CLI start
    from scipy.linalg import solveh_banded

    if target_norm_sq <= 0.0:
        raise ConfigError("target_norm_sq must be positive")
    if grid is None:
        grid = RadialGrid(4096, 50.0)
    r = grid.nodes
    dr = grid.dr
    M = phys.mass
    kin = phys.hbar**2 / (2.0 * M * dr * dr)

    u = r * np.exp(-(r * r) / (2.0 * SEED_WIDTH**2))
    u *= np.sqrt(target_norm_sq / (FOUR_PI * np.sum(u * u) * dr))

    def potential_of(u_now):
        return _shell_potential(FOUR_PI * u_now * u_now, grid, phys.G, M)

    pot = potential_of(u)
    energy = _functional_energy_u(u, pot, grid, phys)
    history = [energy]
    step = DTAU0
    consecutive = 0
    sweeps = 0
    n = grid.n_points
    diag_kin = np.full(n, 2.0 * kin)
    diag_kin[0] += kin  # mirror ghost u(-dr/2) = -u_0
    diag_kin[-1] += kin  # wall ghost keeps the operator symmetric
    while sweeps < max_sweeps:
        sweeps += 1
        # keep I + dtau*H positive definite: the spectrum is bounded
        # below by the potential minimum, so dtau*|V_min| must stay < 1
        v_min = float((M * pot).min())
        if v_min < 0.0:
            step = min(step, 0.9 / abs(v_min))
        ab = np.empty((2, n))
        ab[0, 0] = 0.0
        ab[0, 1:] = -step * kin
        ab[1] = 1.0 + step * (diag_kin + M * pot)
        try:
            trial = solveh_banded(ab, u)
        except np.linalg.LinAlgError:
            step *= 0.5
            continue
        trial *= np.sqrt(target_norm_sq / (FOUR_PI * np.sum(trial * trial) * dr))
        pot_trial = potential_of(trial)
        e_new = _functional_energy_u(trial, pot_trial, grid, phys)
        if e_new > energy + 1e-14 * max(1.0, abs(energy)):
            step *= 0.5
            if step < 1e-12:
                raise ConvergenceError(
                    "relaxation step underflowed before convergence", history
                )
            continue
        rel = abs(e_new - energy) / max(abs(e_new), 1e-30)
        u, pot, energy = trial, pot_trial, e_new
        history.append(energy)
        if rel < tol:
            consecutive += 1
            if consecutive >= 3:
                break
        else:
            consecutive = 0
    else:
        raise ConvergenceError(
            f"no ground-state convergence after {max_sweeps} sweeps", history
        )

    tail = abs(u[-1]) / np.max(np.abs(u))
    if tail > 1e-10:
        raise ConfigError(
            f"profile tail {tail:.2e} at r_max={grid.r_max:g}; enlarge r_max"
        )
    if u.sum() < 0:
        u = -u
    negative = u < -1e-8 * np.max(np.abs(u))
    if np.any(negative):
        raise ConvergenceError(
            "converged profile changes sign; not a ground state", history
        )

    norm_sq = FOUR_PI * float(np.sum(u * u) * dr)
    w_term = float(np.sum(M * pot * u * u) * dr) * FOUR_PI
    kinetic = _kinetic_quadratic_form(u, grid, phys)
    eigenvalue = (kinetic + w_term) / norm_sq
    functional = kinetic + 0.5 * w_term
    extent = float(np.sqrt(FOUR_PI * np.sum(r * r * u * u) * dr / norm_sq))
    profile = u / r
    logger.info(
        "ground state at N^2=%g: E0=%.8g, E=%.8g, extent=%.4g, %d sweeps",
        target_norm_sq, eigenvalue, functional, extent, sweeps,
    )
    return GroundStateResult(
        profile=profile,
        grid=grid,
        eigenvalue=eigenvalue,
        functional_energy=functional,
        norm_sq=norm_sq,
        extent=extent,
        iters=sweeps,
    )


def write_result_records(path, results) -> None:
    """Write one `N_sq E0 E_functional extent iters` line per result."""
    with open(path, "w") as fh:
        for r in results:
            fh.write(f"{r.norm_sq:.17g}\t{r.eigenvalue:.17g}\t"
                     f"{r.functional_energy:.17g}\t{r.extent:.17g}\t"
                     f"{r.iters}\n")
