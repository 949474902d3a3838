"""Independent correctness checks for the benchmark's operations.

Every check recomputes what it needs with plain numpy (its own
quadrature, its own FFT derivative, its own snapshot reader) or tests a
property the method must have; none compares against stored output of
the program.  A check raises CheckFailure with a one-line reason; the
operation it guards then counts as failed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

GUIDANCE_HEADER = (
    "t,x0,v_drift,v_dbb,v_int,residual_p1,norm_sq_phi,A_L_sq_at_x0,"
    "p2_product,norm_rate_residual,width,valid_fraction"
)

CONVOLUTION_RTOL = 1e-12
ORBIT_BUDGET = 1e-5
NORM_DRIFT_BUDGET = 1e-10
SNAPSHOT_NORM_RTOL = 1e-12
GROUND_WIDTH_RTOL = 1e-4
GROUND_EIGEN_RTOL = 1e-6
ENERGY_RISE_RTOL = 1e-13
VIRIAL_RTOL = 1e-3
SCALING_RTOL = 0.01
LEVEL_RTOL = 0.10
PUBLISHED_LEVEL = 0.096 / 0.76**2
CHECK_LINES = 15


class CheckFailure(Exception):
    """An operation's output failed an independent check."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailure(message)


# -- reference computations ---------------------------------------------

def fft_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """d/dx by FFT, with the Nyquist mode dropped from the odd derivative."""
    n = len(values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(values))


def norm_sq(values: np.ndarray, dx: float) -> float:
    return float(np.sum(values.real**2 + values.imag**2) * dx)


def mean_position(values: np.ndarray, x: np.ndarray) -> float:
    rho = values.real**2 + values.imag**2
    return float((rho * x).sum() / rho.sum())


def mean_and_momentum(values: np.ndarray, x: np.ndarray, dx: float,
                      hbar: float = 1.0) -> tuple[float, float]:
    """<x> and <p> of a sampled wave, by Riemann sums."""
    rho = values.real**2 + values.imag**2
    n2 = float(rho.sum() * dx)
    mean = float((rho * x).sum() * dx / n2)
    dpsi = fft_derivative(values, dx)
    momentum = float((np.conj(values) * (-1j * hbar) * dpsi).real.sum() * dx / n2)
    return mean, momentum


def closed_form_orbit(times, x0: float, p0: float, k_ext: float,
                      mass: float = 1.0) -> np.ndarray:
    """Mean of any wave in a quadratic trap: x0 cos wt + p0/(m w) sin wt."""
    t = np.asarray(times, dtype=float)
    if k_ext == 0.0:
        return x0 + p0 * t / mass
    w = math.sqrt(k_ext / mass)
    return x0 * np.cos(w * t) + p0 / (mass * w) * np.sin(w * t)


def sphere_kernel(u: np.ndarray, sphere_mass: float, radius: float,
                  mass: float = 1.0) -> np.ndarray:
    """Quadratic uniform-sphere kernel F(u) = (M/m)^2 (3/(5R) - u^2/(4R^3))."""
    return (sphere_mass / mass) ** 2 * (3.0 / (5.0 * radius)
                                        - u * u / (4.0 * radius**3))


def direct_convolution(rho: np.ndarray, x: np.ndarray, dx: float,
                       coupling: float, kernel) -> np.ndarray:
    """coupling * sum_m rho_m F(|x_i - x_m|) dx as an O(n^2) double sum."""
    out = np.empty(len(x))
    for i in range(len(x)):
        out[i] = np.sum(rho * kernel(np.abs(x[i] - x)))
    return coupling * out * dx


def read_snapshot(path) -> tuple[float, np.ndarray, np.ndarray]:
    """(t, x, psi) from a `# t=<value>` header and `x re im` lines."""
    text = Path(path).read_text()
    header, _, body = text.partition("\n")
    if not header.startswith("# t="):
        raise CheckFailure(f"{path}: bad snapshot header {header!r}")
    data = np.array(body.split(), dtype=float).reshape(-1, 3)
    return float(header[4:]), data[:, 0], data[:, 1] + 1j * data[:, 2]


# -- checks ---------------------------------------------------------------

def check_convolution(program: np.ndarray, direct: np.ndarray):
    rel = float(np.max(np.abs(program - direct)) / np.max(np.abs(direct)))
    require(rel <= CONVOLUTION_RTOL,
            f"convolution differs from the direct sum by {rel:.3e} relative")


def check_orbit(times, means, x0: float, p0: float, k_ext: float,
                mass: float = 1.0, label: str = "mean"):
    orbit = closed_form_orbit(times, x0, p0, k_ext, mass)
    dev = float(np.max(np.abs(np.asarray(means) - orbit))
                / np.max(np.abs(orbit)))
    require(dev <= ORBIT_BUDGET,
            f"{label} leaves the closed-form orbit by {dev:.3e} of its amplitude")


def check_norm_drift(norms, label: str = "norm"):
    n = np.asarray(norms, dtype=float)
    drift = float(np.max(np.abs(n - n[0])) / n[0])
    require(drift <= NORM_DRIFT_BUDGET, f"{label} drifts by {drift:.3e}")


def check_ground_state_1d(values: np.ndarray, x: np.ndarray, dx: float,
                          eigenvalue: float, k: float, norm: float,
                          mass: float = 1.0, hbar: float = 1.0):
    """Harmonic ground state: width (hbar^2/(k m))^(1/4), eigenvalue hbar w/2."""
    rho = values.real**2 + values.imag**2
    n2 = float(rho.sum() * dx)
    require(abs(n2 / norm - 1.0) <= 1e-10, f"ground state norm {n2!r} != {norm!r}")
    mean = float((rho * x).sum() * dx / n2)
    var = float((rho * (x - mean) ** 2).sum() * dx / n2)
    width = math.sqrt(2.0 * var)
    expected = (hbar**2 / (k * mass)) ** 0.25
    dev = abs(width / expected - 1.0)
    require(dev <= GROUND_WIDTH_RTOL, f"ground-state width off by {dev:.3e}")
    e_expected = 0.5 * hbar * math.sqrt(k / mass)
    dev = abs(eigenvalue / e_expected - 1.0)
    require(dev <= GROUND_EIGEN_RTOL, f"ground-state eigenvalue off by {dev:.3e}")


def check_energy_history(history):
    """Accepted relaxation steps never raise the energy beyond roundoff."""
    e = np.asarray(history, dtype=float)
    rise = float(np.max(np.diff(e) / np.maximum(np.abs(e[1:]), 1.0), initial=0.0))
    require(rise <= ENERGY_RISE_RTOL, f"relaxation energy rose by {rise:.3e}")


def check_choquard(base, doubled, norm: float):
    """Virial, cubic scaling and published level of the radial ground state.

    ``base`` and ``doubled`` are (eigenvalue, functional, profile, r, dr)
    at squared norms ``norm`` and ``2 norm``.
    """
    for (eig, func, profile, r, dr), n2 in ((base, norm), (doubled, 2.0 * norm)):
        measured = 4.0 * math.pi * float(np.sum(r * r * profile * profile) * dr)
        require(abs(measured / n2 - 1.0) <= 1e-10,
                f"choquard profile norm {measured!r} != {n2!r}")
        virial = eig * n2 / func
        require(abs(virial / 3.0 - 1.0) <= VIRIAL_RTOL,
                f"virial ratio eigenvalue*N^2/E = {virial:.6g}, expected 3")
    ratio = doubled[1] / base[1]
    require(abs(ratio / 8.0 - 1.0) <= SCALING_RTOL,
            f"E(2N^2)/E(N^2) = {ratio:.6g}, expected 8")
    level = abs(base[0]) / norm**2
    require(abs(level / PUBLISHED_LEVEL - 1.0) <= LEVEL_RTOL,
            f"ground level {level:.6g} vs published {PUBLISHED_LEVEL:.6g}")


def check_acceptance_output(rc: int, stdout: str):
    passes = sum(1 for line in stdout.splitlines() if line.startswith("PASS "))
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL ")]
    require(rc == 0, f"snsim check exited with {rc}")
    require(not fails and passes == CHECK_LINES,
            f"snsim check printed {passes} PASS lines and {len(fails)} FAIL lines")


def check_guidance_csv(text: str, frames: int):
    lines = text.splitlines()
    require(bool(lines) and lines[0] == GUIDANCE_HEADER,
            "guidance.csv header differs from the documented one")
    rows = lines[1:]
    require(len(rows) == frames,
            f"guidance.csv has {len(rows)} rows for {frames} frames")
    width = GUIDANCE_HEADER.count(",") + 1
    require(all(len(r.split(",")) == width for r in rows),
            "guidance.csv has a row of the wrong width")


def check_snapshot_norms(measured, logged):
    m = np.asarray(measured, dtype=float)
    g = np.asarray(logged, dtype=float)
    require(m.shape == g.shape, f"{m.size} snapshots for {g.size} logged norms")
    rel = float(np.max(np.abs(m - g) / g))
    require(rel <= SNAPSHOT_NORM_RTOL,
            f"snapshots integrate to the logged norm only within {rel:.3e}")
