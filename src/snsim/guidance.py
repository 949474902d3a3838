"""Soliton extraction and the guidance-law velocity decomposition.

Given snapshots of the full nonlinear wave psi_nl and the linear pilot
wave psi_l, the soliton factor is the masked pointwise ratio
phi = psi_nl / psi_l.  Its barycentre x0 drifts with velocity

    v_drift = v_dbb + v_int

where v_dbb = (hbar/m) * grad(arg psi_l) at x0 is the de Broglie-Bohm
velocity of the pilot and v_int = Re<phi|(hbar/i m) d/dx|phi> / <phi|phi>
is the soliton's internal velocity.  The soliton norm and the pilot
amplitude at the barycentre satisfy the reciprocity
<phi|phi>(t) * A_L^2(x0(t), t) = const, and the norm rate obeys

    d<phi|phi>/dt ~ (hbar/m) lap(arg psi_l)(x0) <phi|phi>
                    - 2 (grad A_L / A_L)(x0) * <phi|(hbar/i m) d/dx|phi>.

All analysis runs on output-time snapshots, so it is independent of the
integrator's internal stepping.  It has two steps: :func:`frame_sample`
reduces one output pair (pilot, full wave) to a :class:`FrameSample` of
scalars, and :func:`decompose_samples` differences a run's samples into
v_drift and the norm rate, the only time derivatives.  A caller that
makes the pairs one at a time (figure1 advances its two runs in lock
step) samples each as it is made and keeps no frame;
:func:`decompose_run` does both steps over series of stored frames.

One frame costs two FFTs.  The pilot's amplitude and phase derivatives
are needed at x0 only, so they come from one FFT of psi_l evaluated there
as its trigonometric interpolant (Boyd 2001, Chebyshev and Fourier
Spectral Methods, ch. 2), exact between nodes for a resolved pilot.
v_int comes from one FFT of phi by Parseval's identity, which makes it
real by construction.
"""

from __future__ import annotations

import functools
import logging
from array import array
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, List, NamedTuple, Sequence

import numpy as np

from .errors import ExtractionError
from .fields import MASK_RELATIVE_THRESHOLD, Grid1D, WaveField
from .potentials import PhysParams
from .textio import write_table

logger = logging.getLogger(__name__)

# below this fraction of masked nodes the soliton has left the pilot support
MIN_VALID_FRACTION = 0.01
# avoids 0/0 in relative residuals during quiescent phases
RESIDUAL_FLOOR = 1e-12

CSV_COLUMNS = (
    "t,x0,v_drift,v_dbb,v_int,residual_p1,norm_sq_phi,A_L_sq_at_x0,"
    "p2_product,norm_rate_residual,width,valid_fraction"
)


@dataclass(frozen=True)
class SolitonState:
    """Extracted soliton factor with its low-order shape data."""

    phi: WaveField
    x0: float
    norm_sq: float
    width: float
    valid_fraction: float
    valid: np.ndarray


@dataclass(frozen=True, slots=True)
class VelocityDecomposition:
    """One output-time row of the guidance analysis."""

    t: float
    x0: float
    v_drift: float
    v_dbb: float
    v_int: float
    residual_p1: float
    norm_sq_phi: float
    a_l_sq_at_x0: float
    p2_product: float
    norm_rate_residual: float
    width: float
    valid_fraction: float


def extract_soliton(psi_nl: WaveField, psi_l: WaveField) -> SolitonState:
    """Masked ratio psi_nl / psi_l with barycentre, norm and rms width.

    The mask keeps nodes where |psi_l| exceeds the relative threshold;
    the ratio is zero outside.  Extraction fails when the mask shrinks
    below MIN_VALID_FRACTION of the domain or the barycentre leaves it.
    """
    if psi_nl.grid != psi_l.grid:
        raise ExtractionError("psi_nl and psi_l live on different grids")
    grid = psi_l.grid
    valid = _support(psi_l)
    valid_fraction = float(valid.sum()) / grid.n_points
    if valid_fraction < MIN_VALID_FRACTION:
        raise ExtractionError(
            f"valid fraction {valid_fraction:.4f} below {MIN_VALID_FRACTION}; "
            "the soliton escaped the pilot wave's support"
        )
    ratio = np.zeros_like(psi_nl.values)
    np.divide(psi_nl.values, psi_l.values, out=ratio, where=valid)
    phi = WaveField(grid, ratio)
    rho = ratio.real**2 + ratio.imag**2
    dx = grid.dx
    norm_sq = float(rho.sum() * dx)
    if norm_sq <= 0.0:
        raise ExtractionError("extracted soliton has zero norm")
    x = grid.nodes
    x0 = float((rho * x).sum() * dx / norm_sq)
    var = float((rho * (x - x0) ** 2).sum() * dx / norm_sq)
    width = float(np.sqrt(max(var, 0.0)))
    i = int(np.clip(np.floor((x0 - grid.x_min) / dx), 0, grid.n_points - 2))
    if not (valid[i] and valid[i + 1]):
        raise ExtractionError(f"barycentre x0={x0:.6g} left the valid region")
    return SolitonState(phi, x0, norm_sq, width, valid_fraction, valid)


class PilotPoint(NamedTuple):
    """The pilot psi_l = A exp(i S) at one point: A and the derivatives of
    S and log A the guidance law reads there."""

    amplitude: float
    phase_gradient: float  # S'
    log_amp_gradient: float  # A'/A
    phase_laplacian: float  # S''


@functools.lru_cache(maxsize=8)
def _point_tables(grid: Grid1D):
    """Wavenumber tables of the trigonometric interpolant on ``grid``.

    The fft index j = r b + c (b ~ sqrt(n) columns) has the wavenumber
    (r' b + c) dk, with r' the signed row, so exp(i k d) is the outer
    product of a row table and a column table.  The weights k and k^2
    give the first and second derivatives.
    """
    n = grid.n_points
    n_rows = 1 << n.bit_length() // 2  # 2^ceil(k/2) rows for n = 2^k
    cols = n // n_rows
    dk = 2.0 * np.pi / grid.length
    row_k = dk * cols * np.fft.fftfreq(n_rows, 1.0 / n_rows)
    col_k = dk * np.arange(cols)
    k = grid.wavenumbers
    return row_k, col_k, np.stack([k, k * k])


def _support(psi_l: WaveField) -> np.ndarray:
    """Nodes where |psi_l| exceeds the relative mask threshold."""
    amp_l = np.abs(psi_l.values)
    return amp_l > MASK_RELATIVE_THRESHOLD * amp_l.max(initial=0.0)


def _pilot_at(psi_l: WaveField, x: float, valid: np.ndarray) -> PilotPoint:
    """The pilot's amplitude and phase derivatives at ``x`` from one FFT.

    psi_l and its first two derivatives at x are the trigonometric
    interpolant sum_k c_k (ik)^j exp(ik (x - x_min)) / n, Nyquist mode
    dropped, so the result does not depend on where x falls between
    nodes.  With r = psi'/psi, S' = Im r, A'/A = Re r and
    S'' = Im(psi''/psi - r^2).  Both nodes around x must be ``valid``.
    """
    grid = psi_l.grid
    n = grid.n_points
    d = x - grid.x_min
    i = int(np.floor(d / grid.dx))
    if i < 0 or i + 1 >= n:
        raise ExtractionError(f"x={x:.6g} outside the grid")
    if not (valid[i] and valid[i + 1]):
        raise ExtractionError(f"x={x:.6g} outside the valid mask")
    row_k, col_k, weights = _point_tables(grid)
    coeffs = np.fft.fft(psi_l.values)
    coeffs[n // 2] = 0.0
    coeffs *= (np.exp(1j * d * row_k)[:, None] * np.exp(1j * d * col_k)).reshape(-1)
    value = complex(coeffs.sum())
    (k_re, k_im), (k2_re, k2_im) = weights @ coeffs.view(np.float64).reshape(-1, 2)
    ratio = complex(-k_im, k_re) / value  # psi'/psi, psi' = i sum k c
    curvature = complex(-k2_re, -k2_im) / value - ratio * ratio
    return PilotPoint(abs(value) / n, ratio.imag, ratio.real, curvature.imag)


def v_dbb(psi_l: WaveField, x0: float, phys: PhysParams = PhysParams()) -> float:
    """Pilot guidance velocity (hbar/m) grad(arg psi_l) at the barycentre."""
    return phys.hbar / phys.mass * _pilot_at(psi_l, x0, _support(psi_l)).phase_gradient


def v_int(state: SolitonState, phys: PhysParams = PhysParams()) -> float:
    """Internal velocity Re<phi|(hbar/i m) d/dx|phi> / <phi|phi>.

    By Parseval <phi|d/dx|phi> = i (dx/n) sum_k k |c_k|^2 for the FFT c
    of phi (Nyquist mode dropped), so v_int = (hbar/m) sum k |c|^2 /
    sum |c|^2: one FFT, and real by construction.
    """
    coeffs = np.fft.fft(state.phi.values)
    power = coeffs.real * coeffs.real + coeffs.imag * coeffs.imag
    k = state.phi.grid.gradient_wavenumbers
    return phys.hbar / phys.mass * float(k @ power / power.sum())


def v_drift_series(times: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Second-order finite-difference velocity of the barycentre series.

    Central differences inside, one-sided second-order stencils at the
    endpoints; accuracy is set by the output stride, not the solver dt.
    """
    times = np.asarray(times, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if len(times) < 3:
        raise ExtractionError("v_drift needs at least 3 consecutive samples")
    if np.any(np.diff(times) <= 0):
        raise ExtractionError("times must be strictly increasing")
    h = times[1] - times[0]
    out = np.empty_like(x0)
    out[1:-1] = (x0[2:] - x0[:-2]) / (times[2:] - times[:-2])
    out[0] = (-3.0 * x0[0] + 4.0 * x0[1] - x0[2]) / (2.0 * h)
    h_end = times[-1] - times[-2]
    out[-1] = (3.0 * x0[-1] - 4.0 * x0[-2] + x0[-3]) / (2.0 * h_end)
    return out


def _norm_rate_rhs(pilot: PilotPoint, state: SolitonState, vint: float,
                   phys: PhysParams) -> float:
    # <phi|(hbar/i m) d/dx|phi> = v_int * <phi|phi>
    return (
        phys.hbar / phys.mass * pilot.phase_laplacian * state.norm_sq
        - 2.0 * pilot.log_amp_gradient * vint * state.norm_sq
    )


class FrameSample(NamedTuple):
    """The per-frame scalars of the guidance analysis at one output time."""

    t: float
    x0: float
    norm_sq_phi: float
    v_int: float
    v_dbb: float
    a_l_at_x0: float
    norm_rate_rhs: float
    width: float
    valid_fraction: float


def frame_sample(t: float, psi_l: WaveField, psi_nl: WaveField,
                 phys: PhysParams = PhysParams()) -> FrameSample:
    """Extract the soliton of one output pair and evaluate, at its
    barycentre, everything the rows need but the time derivatives."""
    state = extract_soliton(psi_nl, psi_l)
    pilot = _pilot_at(psi_l, state.x0, state.valid)
    vint = v_int(state, phys)
    return FrameSample(t, state.x0, state.norm_sq, vint,
                       phys.hbar / phys.mass * pilot.phase_gradient,
                       pilot.amplitude, _norm_rate_rhs(pilot, state, vint, phys),
                       state.width, state.valid_fraction)


def decompose_samples(samples: Sequence[FrameSample]) -> List[VelocityDecomposition]:
    """One row per output time from a run's frame samples (or an array of
    them, one row each), in time order: v_drift and the norm rate are
    differenced from the sampled series."""
    (times, x0s, norms, vints, vdbbs, a_l_at_x0, rhs, widths,
     fractions) = np.asarray(samples, dtype=float).reshape(len(samples), 9).T
    a_l_sq = a_l_at_x0**2

    vdrift = v_drift_series(times, x0s)
    residual_p1 = vdrift - (vdbbs + vints)

    p2_raw = norms * a_l_sq
    p2 = p2_raw / p2_raw[0]

    norm_rates = v_drift_series(times, norms)
    denom = np.maximum(np.maximum(np.abs(norm_rates), np.abs(rhs)), RESIDUAL_FLOOR)
    nr_resid = (norm_rates - rhs) / denom

    rows = [
        VelocityDecomposition(
            t=float(times[i]),
            x0=float(x0s[i]),
            v_drift=float(vdrift[i]),
            v_dbb=float(vdbbs[i]),
            v_int=float(vints[i]),
            residual_p1=float(residual_p1[i]),
            norm_sq_phi=float(norms[i]),
            a_l_sq_at_x0=float(a_l_sq[i]),
            p2_product=float(p2[i]),
            norm_rate_residual=float(nr_resid[i]),
            width=float(widths[i]),
            valid_fraction=float(fractions[i]),
        )
        for i in range(len(times))
    ]
    _report_stability(rows)
    return rows


def decompose_run(
    times: Iterable[float],
    pilot_fields: Iterable[WaveField],
    full_fields: Iterable[WaveField],
    phys: PhysParams = PhysParams(),
) -> List[VelocityDecomposition]:
    """Full guidance analysis over one run's snapshot series.

    One pass over any iterables of frames samples each frame as it comes,
    keeping one frame's arrays alive at a time and its samples as packed
    doubles, then differences the samples.  Returns one row per output
    time.
    """
    missing = object()
    samples = array("d")
    for t, psi_l, psi_nl in zip_longest(times, pilot_fields, full_fields,
                                        fillvalue=missing):
        if any(v is missing for v in (t, psi_l, psi_nl)):
            raise ExtractionError("times and snapshot series differ in length")
        samples.extend(frame_sample(t, psi_l, psi_nl, phys))
    return decompose_samples(np.frombuffer(samples).reshape(-1, 9))


def _report_stability(rows: List[VelocityDecomposition]):
    """Operational soliton-stability criterion; reported, never fatal."""
    w0 = rows[0].width
    worst = max(r.width for r in rows)
    if worst > 3.0 * w0:
        logger.warning(
            "soliton width grew to %.3g times its initial value; the "
            "peaked-soliton assumption is degrading", worst / w0
        )


def guidance_law_report(rows: Sequence[VelocityDecomposition]):
    """Max |v_drift - (v_dbb + v_int)| relative to max |v_drift|."""
    resid = np.array([r.residual_p1 for r in rows])
    vmax = max(np.max(np.abs([r.v_drift for r in rows])), RESIDUAL_FLOOR)
    series = np.abs(resid) / vmax
    return float(series.max()), series


def reciprocity_report(rows: Sequence[VelocityDecomposition]):
    """Max deviation of the normalized product <phi|phi> A_L^2(x0) from 1."""
    series = np.abs(np.array([r.p2_product for r in rows]) - 1.0)
    return float(series.max()), series


def norm_rate_report(rows: Sequence[VelocityDecomposition]):
    """Max |relative norm-rate residual| over the run."""
    series = np.abs(np.array([r.norm_rate_residual for r in rows]))
    return float(series.max()), series


def write_guidance_csv(rows: Sequence[VelocityDecomposition], path):
    """Machine-readable decomposition, one row per output time."""
    columns = list(zip(*(
        (r.t, r.x0, r.v_drift, r.v_dbb, r.v_int, r.residual_p1,
         r.norm_sq_phi, r.a_l_sq_at_x0, r.p2_product,
         r.norm_rate_residual, r.width, r.valid_fraction)
        for r in rows
    )))
    write_table(path, CSV_COLUMNS, columns)
