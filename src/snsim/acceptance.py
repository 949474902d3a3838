"""The acceptance battery: every headline claim as a pass/fail check.

Each criterion runs at its stated tolerance on the default scenario
parameters (4096-node grid, stiffness ratio 1000, variance ratio 1e-3).
Criteria 1-7 and 9a are the scenarios' own checks under acceptance
labels, so their tolerances are stated once, with the scenarios.  Heavy
runs are shared through :class:`AcceptanceContext`, so the whole battery
stays well inside the runtime budget.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, Optional

import numpy as np

from .fields import Grid1D, gaussian_packet
from .guidance import decompose_run
from .oracles import coherent_state
from .potentials import (
    HarmonicModelParams,
    PhysParams,
    harmonic_external,
    scaling_check,
    sphere_quadratic_kernel,
)
from .propagate import EvolutionSpec, evolve_linear, evolve_self_harmonic
from .scenarios import (
    CheckResult,
    ScenarioConfig,
    build_boost,
    build_choquard,
    build_figure1,
    resolve_sweep_window,
)

TIME_REVERSAL_TOL = 1e-8
SCALING_LAW_TOL = 1e-10
GAUGE_TOL = 1e-12
DT_ORDER_RANGE = (3.5, 4.5)


class AcceptanceContext:
    """The criteria's shared runs, each made on first use."""

    @functools.cached_property
    def figure1(self):
        return build_figure1(ScenarioConfig(scenario="figure1"))

    @functools.cached_property
    def sweep_residuals(self):
        # the ratio-1000 member is the default run: same plan, same metrics
        template = resolve_sweep_window(ScenarioConfig(scenario="figure1"))
        residuals = [(ratio, build_figure1(dataclasses.replace(
            template, stiffness_ratio=ratio)).metrics["residual_p1_rel"])
            for ratio in (10.0, 100.0)]
        return residuals + [(1000.0, self.figure1.metrics["residual_p1_rel"])]

    @functools.cached_property
    def choquard(self):
        return build_choquard(ScenarioConfig(scenario="choquard"))

    @functools.cached_property
    def boost(self):
        return build_boost(ScenarioConfig(scenario="boost"))


def _worst(label: str, checks, *names: str, note: Optional[str] = None):
    """The worst of the scenario checks called ``names``, relabelled.

    A failing check is worse than any passing one; among equals the
    larger value is worse.  The note is the worst check's unless given.
    """
    worst = max((c for c in checks if c.name in names),
                key=lambda c: (not c.passed, c.value))
    return dataclasses.replace(worst, name=label,
                               note=worst.note if note is None else note)


def _criterion_1(ctx) -> List[CheckResult]:
    return [_worst("1-guidance-law", ctx.figure1.checks(), "guidance-law-residual")]


def _criterion_2(ctx) -> List[CheckResult]:
    return [_worst("2-reciprocity", ctx.figure1.checks(), "reciprocity-deviation")]


def _criterion_3(ctx) -> List[CheckResult]:
    checks = ctx.figure1.checks()
    return [_worst("3a-classical-trajectory", checks, "classical-trajectory"),
            _worst("3b-ehrenfest-exact", checks, "ehrenfest-residual")]


def _criterion_4(ctx) -> List[CheckResult]:
    return [_worst("4-norm-rate-law", ctx.figure1.checks(), "norm-rate-residual")]


def _criterion_5(ctx) -> List[CheckResult]:
    checks = ctx.choquard.checks()
    return [_worst("5a-choquard-e0", checks, "choquard-e0"),
            _worst("5b-choquard-scaling", checks, "choquard-n3-scaling",
                   note=f"ratio {ctx.choquard.metrics['energy_ratio']:.4f}")]


def _criterion_6(ctx) -> List[CheckResult]:
    return [_worst("6-oracle-equivalence", ctx.figure1.checks(),
                   "oracle-mean", "oracle-variance")]


def _criterion_7(ctx) -> List[CheckResult]:
    return [_worst("7-galilean-boost", ctx.boost.checks(), "boost-deformation",
                   note=f"velocity dev {ctx.boost.metrics['velocity_dev']:.2e}")]


def _criterion_8(ctx) -> List[CheckResult]:
    residuals = ctx.sweep_residuals
    vals = [r for _, r in residuals]
    monotone = all(b <= a for a, b in zip(vals, vals[1:]))
    worst_rise = max(
        [b - a for a, b in zip(vals, vals[1:])] + [0.0]
    )
    note = ", ".join(f"{ratio:g}:{r:.2e}" for ratio, r in residuals)
    return [CheckResult("8-sweep-monotonic", monotone, worst_rise, 0.0,
                        note=note)]


def _time_reversal() -> CheckResult:
    grid = Grid1D(2048, -24.0, 24.0)
    phys = PhysParams()
    psi0, _ = coherent_state(grid, 1.0, 1.2, 0.0, phys)
    v_ext = harmonic_external(grid, 1.0)
    spec_f = EvolutionSpec(dt=2e-3, t_end=1.0, output_stride=500,
                           store_fields=False)
    spec_b = EvolutionSpec(dt=-2e-3, t_end=1.0, output_stride=500,
                           store_fields=False)
    _, mid = evolve_linear(psi0, v_ext, spec_f, phys)
    _, back = evolve_linear(mid, v_ext, spec_b, phys)
    err = float(np.max(np.abs(back.values - psi0.values)))
    return CheckResult("9b-time-reversal", err <= TIME_REVERSAL_TOL, err,
                       TIME_REVERSAL_TOL)


def _scaling_law() -> CheckResult:
    from .potentials import convolution_self_potential, self_stiffness

    grid = Grid1D(1024, -16.0, 16.0)
    phys = PhysParams()
    k_self = self_stiffness(phys.G, 1.0, 4.0, phys.norm_sq)
    model = HarmonicModelParams(k_ext=0.0, k_self=k_self,
                                sphere_mass=1.0, sphere_radius=4.0)
    kernel = sphere_quadratic_kernel(phys, model)
    f = gaussian_packet(grid, 0.4, 1.3, velocity=0.0, chirp=0.2)
    base_scale = float(np.max(np.abs(convolution_self_potential(f, kernel))))
    worst = 0.0
    scale = base_scale
    for lam in (1.0, 1j, 3.0, 0.5 - 2.0j):
        scale = max(scale, base_scale * abs(lam) ** 2)
        worst = max(worst, scaling_check(f, lam, kernel))
    rel = worst / max(scale, 1.0)
    return CheckResult("9c-scaling-law", rel <= SCALING_LAW_TOL, rel,
                       SCALING_LAW_TOL)


def _gauge_invariance(ctx) -> CheckResult:
    fig = ctx.figure1
    phys = fig.phys
    theta = 0.7318
    phase = np.exp(1j * theta)
    rotate = lambda flds: (f.with_values(f.values * phase) for f in flds)
    rows_ref = fig.rows
    rows_rot = decompose_run(fig.times, rotate(fig.pilot_log.fields),
                             rotate(fig.full_log.fields), phys)
    worst = 0.0
    for a, b in zip(rows_ref, rows_rot):
        for name in ("x0", "v_drift", "v_dbb", "v_int", "residual_p1",
                     "norm_sq_phi", "a_l_sq_at_x0", "p2_product", "width"):
            worst = max(worst, abs(getattr(a, name) - getattr(b, name)))
    return CheckResult("9d-gauge-invariance", worst <= GAUGE_TOL, worst,
                       GAUGE_TOL)


def _dt_order() -> CheckResult:
    grid = Grid1D(1024, -16.0, 16.0)
    phys = PhysParams()
    model = HarmonicModelParams(k_ext=1.0, k_self=10.0)
    psi0 = gaussian_packet(grid, 1.0, 0.8)

    def final_state(dt):
        spec = EvolutionSpec(dt=dt, t_end=1.0, output_stride=1000,
                             store_fields=False)
        _, out = evolve_self_harmonic(psi0, model, spec, phys)
        return out.values

    ref = final_state(1.25e-4)
    err_coarse = float(np.max(np.abs(final_state(1e-3) - ref)))
    err_fine = float(np.max(np.abs(final_state(5e-4) - ref)))
    ratio = err_coarse / err_fine
    lo, hi = DT_ORDER_RANGE
    ok = lo <= ratio <= hi
    return CheckResult("9e-dt-second-order", ok, ratio, hi,
                       note=f"expected in [{lo}, {hi}]")


def _criterion_9(ctx) -> List[CheckResult]:
    return [
        _worst("9a-norm-conservation", ctx.figure1.checks() + ctx.boost.checks(),
               "norm-conservation"),
        _time_reversal(),
        _scaling_law(),
        _gauge_invariance(ctx),
        _dt_order(),
    ]


CRITERIA: List[Callable] = [
    _criterion_1,
    _criterion_2,
    _criterion_3,
    _criterion_4,
    _criterion_5,
    _criterion_6,
    _criterion_7,
    _criterion_8,
    _criterion_9,
]


def run_acceptance(ctx: Optional[AcceptanceContext] = None,
                   stream=print) -> List[CheckResult]:
    """Run every criterion, print one line each, return all results."""
    ctx = ctx or AcceptanceContext()
    results: List[CheckResult] = []
    for criterion in CRITERIA:
        for check in criterion(ctx):
            results.append(check)
            if stream is not None:
                stream(check.line())
    return results
