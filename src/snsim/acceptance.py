"""The acceptance battery: every headline claim as a pass/fail check.

Each criterion runs at its stated tolerance on the default scenario
parameters (4096-node grid, stiffness ratio 1000, variance ratio 1e-3).
Criteria 1-7 and 9a are the scenarios' own checks under acceptance
labels, so their tolerances are stated once, with the scenarios.  Heavy
runs are shared through :class:`AcceptanceContext`, so the whole battery
stays well inside the runtime budget.

:func:`run_acceptance` splits the runs over two processes.  The runs that
do not use the default figure1 run (9e's three self-trap runs, the
Choquard pair, 9b's time reversal and criterion 8's ratio-10 and
ratio-100 members) go to one worker process, forked before anything is
built, while the calling process builds figure1, boost and 9d's rotated
analysis.  Every run has one implementation, and the lines, their order
and their values are those of a battery run in one process.  The
worker's time and memory are its own: they are in neither the calling
process's ``ru_maxrss`` nor a tracer that wraps its functions.  The
worker is sent only the names of module-level private functions, so
nothing a tracer or a test double rebinds is pickled, and the default
figure1 run is always built in the calling process.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import traceback
from concurrent.futures import Future
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


# the runs that do not use the default figure1 run, longest first: the
# ones run_acceptance hands to its worker process.  Run ``name`` is made
# by the module function ``_<name>``, looked up when it runs, so a
# rebinding (a test double) takes effect in the worker too.
_WORKER_RUNS = ("dt_order", "choquard", "time_reversal", "sweep_members")


def _make(name: str):
    return globals()[f"_{name}"]()


class AcceptanceContext:
    """The criteria's shared runs, each made on first use.

    A run that :func:`run_acceptance` has handed to its worker process is
    taken from the worker; every other run is made in this process.
    """

    def __init__(self):
        self._pending = {}  # run name -> the worker's future

    def _worker_run(self, name: str):
        future = self._pending.pop(name, None)
        return _make(name) if future is None else future.result()

    @functools.cached_property
    def figure1(self):
        return build_figure1(ScenarioConfig(scenario="figure1"))

    @functools.cached_property
    def sweep_members(self):
        return self._worker_run("sweep_members")

    @functools.cached_property
    def choquard(self):
        return self._worker_run("choquard")

    @functools.cached_property
    def boost(self):
        return build_boost(ScenarioConfig(scenario="boost"))

    @functools.cached_property
    def time_reversal(self):
        return self._worker_run("time_reversal")

    @functools.cached_property
    def gauge_invariance(self):
        return _gauge_invariance(self)

    @functools.cached_property
    def dt_order(self):
        return self._worker_run("dt_order")


def _sweep_members():
    """Criterion 8's ratio-10 and ratio-100 guidance residuals."""
    template = resolve_sweep_window(ScenarioConfig(scenario="figure1"))
    return [(ratio, build_figure1(dataclasses.replace(
        template, stiffness_ratio=ratio)).metrics["residual_p1_rel"])
        for ratio in (10.0, 100.0)]


def _choquard():
    return build_choquard(ScenarioConfig(scenario="choquard"))


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
    # the ratio-1000 member is the default run: same plan, same metrics
    residuals = ctx.sweep_members + [
        (1000.0, ctx.figure1.metrics["residual_p1_rel"])]
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
        ctx.time_reversal,
        _scaling_law(),
        ctx.gauge_invariance,
        ctx.dt_order,
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


class _Worker:
    """One forked process that makes the named runs in turn, then exits.

    A thread of this process receives each run as it comes, so the
    worker never waits to be read; ``futures`` hold the runs.
    """

    def __init__(self, names):
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        reader, sender = fork.Pipe(duplex=False)
        self.futures = {name: Future() for name in names}
        self._process = fork.Process(target=_serve, args=(names, reader, sender),
                                     daemon=True)
        self._process.start()
        sender.close()
        self._receiver = threading.Thread(target=self._receive, args=(reader,))
        self._receiver.start()

    def _receive(self, reader):
        try:
            with reader:
                for _ in self.futures:
                    name, value, error = reader.recv()
                    if error is None:
                        self.futures[name].set_result(value)
                    else:
                        self.futures[name].set_exception(error)
        except Exception as exc:  # EOFError: the worker ended early
            for name, future in self.futures.items():
                if not future.done():
                    future.set_exception(RuntimeError(
                        f"the acceptance worker ended before sending {name}: "
                        f"{exc!r}"))

    def close(self):
        """End the worker, dropping the runs it has not sent, and wait."""
        self._process.terminate()
        self._process.join()
        self._receiver.join()


def _serve(names, reader, sender):
    """The worker process: make each run in turn and send it back."""
    reader.close()  # so that a send fails, not blocks, once the caller is gone
    for name in names:
        try:
            message = (name, _make(name), None)
        except Exception as exc:  # raised again where the run is taken
            exc.add_note(f"in the acceptance worker:\n{traceback.format_exc()}")
            message = (name, None, exc)
        try:
            sender.send(message)
        except BrokenPipeError:  # the caller has ended
            return


def run_acceptance(ctx: Optional[AcceptanceContext] = None,
                   stream=print) -> List[CheckResult]:
    """Run every criterion, print one line each, return all results.

    The context's runs named in ``_WORKER_RUNS`` and not yet made go to
    one forked worker process, unless this process runs other threads.
    The worker has ended before this returns or raises; if a run fails,
    the worker's runs not yet sent are dropped.
    """
    ctx = ctx or AcceptanceContext()
    # fork hands the worker this process's loaded modules; a process that
    # runs other threads is unsafe to fork, so it makes every run itself
    todo = [] if threading.active_count() > 1 else [
        name for name in _WORKER_RUNS if name not in vars(ctx)]
    worker = _Worker(todo) if todo else None
    results: List[CheckResult] = []
    try:
        ctx._pending = dict(worker.futures) if worker else {}
        # this process's own runs first: it then waits for the worker
        # only when it has nothing left to build
        for name in ("figure1", "boost", "gauge_invariance"):
            getattr(ctx, name)
        for criterion in CRITERIA:
            for check in criterion(ctx):
                results.append(check)
                if stream is not None:
                    stream(check.line())
    finally:
        ctx._pending = {}
        if worker is not None:
            worker.close()
    return results
