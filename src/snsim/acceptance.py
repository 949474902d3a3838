"""The acceptance battery: every headline claim as a pass/fail check.

:data:`BATTERY` declares the `snsim check` lines, one row each, in print
order.  Each runs at its stated tolerance on the default scenario
parameters (4096-node grid, stiffness ratio 1000, variance ratio 1e-3).
Lines 1-7 and 9a are the scenarios' own checks under acceptance labels,
so their tolerances are stated once, with the scenarios.  Heavy runs
are shared through :class:`AcceptanceContext`, so the whole battery
stays well inside the runtime budget.

:func:`run_acceptance` splits the runs over two processes.  9e's three
self-trap runs, the Choquard pair and line 8's ratio-10 and ratio-100
members go to one worker process, forked before anything is built,
while the calling process builds figure1, boost, 9d's rotated analysis
and 9b's time reversal: the split that ends both sides at about the same
time.  Every run has one implementation, and the lines, their order
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
from typing import Callable, List, Optional, Tuple

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
    checks,
    resolve_sweep_window,
)

TIME_REVERSAL_TOL = 1e-8
SCALING_LAW_TOL = 1e-10
GAUGE_TOL = 1e-12
DT_ORDER_RANGE = (3.5, 4.5)
DT_ORDER_DT = 1e-3  # 9e's coarsest step, then its half and quarter


# the runs run_acceptance hands to its worker process, longest first; none
# uses the default figure1 run
_WORKER_RUNS = ("dt_order", "choquard", "sweep_members")


def _make(name: str):
    """Run ``name``, made by the module function ``_<name>``, looked up when
    it runs: a rebinding (a test double) takes effect in the worker too."""
    return globals()[f"_{name}"]()


def _run(name: str) -> functools.cached_property:
    """The context's run ``name``, made once: taken from the worker if
    :func:`run_acceptance` handed it there, else made here by ``_<name>``."""
    def run(ctx):
        future = ctx._pending.pop(name, None)
        return _make(name) if future is None else future.result()
    return functools.cached_property(run)


class AcceptanceContext:
    """The battery's shared runs, each made on first use."""

    def __init__(self):
        self._pending = {}  # run name -> the worker's future

    figure1 = _run("figure1")
    boost = _run("boost")
    sweep_members = _run("sweep_members")
    choquard = _run("choquard")
    time_reversal = _run("time_reversal")
    dt_order = _run("dt_order")

    # 9d re-analyses this context's figure1 run, so no module function makes it
    @functools.cached_property
    def gauge_invariance(self):
        return _gauge_invariance(self)


def _figure1():
    return build_figure1(ScenarioConfig(scenario="figure1"))


def _boost():
    return build_boost(ScenarioConfig(scenario="boost"))


def _sweep_members():
    """Line 8's ratio-10 and ratio-100 guidance residuals."""
    template = resolve_sweep_window(ScenarioConfig(scenario="figure1"))
    return [(ratio, build_figure1(dataclasses.replace(
        template, stiffness_ratio=ratio)).metrics["residual_p1_rel"])
        for ratio in (10.0, 100.0)]


def _choquard():
    return build_choquard(ScenarioConfig(scenario="choquard"))


def _worst(label: str, runs, *names: str,
           note: Optional[Callable[[AcceptanceContext], str]] = None):
    """The row that reports the worst check called one of ``names`` of the
    context runs ``runs``, relabelled ``label``.

    A failing check is worse than any passing one; among equals the
    larger value is worse, then the earlier one.  The note is the worst
    check's unless ``note(ctx)`` gives it.
    """
    def row(ctx) -> CheckResult:
        worst = max((c for run in runs for c in checks(getattr(ctx, run))
                     if c.name in names), key=lambda c: (not c.passed, c.value))
        return dataclasses.replace(
            worst, name=label, note=worst.note if note is None else note(ctx))
    return row


def _sweep_monotonic(ctx) -> CheckResult:
    # the ratio-1000 member is the default run: same plan, same metrics
    residuals = ctx.sweep_members + [
        (1000.0, ctx.figure1.metrics["residual_p1_rel"])]
    vals = [r for _, r in residuals]
    monotone = all(b <= a for a, b in zip(vals, vals[1:]))
    worst_rise = max(
        [b - a for a, b in zip(vals, vals[1:])] + [0.0]
    )
    note = ", ".join(f"{ratio:g}:{r:.2e}" for ratio, r in residuals)
    return CheckResult("8-sweep-monotonic", monotone, worst_rise, 0.0,
                       note=note)


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

    return _dt_order_check([final_state(DT_ORDER_DT / 2**j) for j in range(3)])


def _dt_order_check(finals) -> CheckResult:
    """9e from the final fields u(dt), u(dt/2), u(dt/4) of one run: the
    self-convergence ratio max|u(dt) - u(dt/2)| / max|u(dt/2) - u(dt/4)|,
    2^p for a scheme of order p, so 4 for Strang splitting."""
    coarse, half, quarter = finals
    ratio = float(np.max(np.abs(coarse - half)) / np.max(np.abs(half - quarter)))
    lo, hi = DT_ORDER_RANGE
    ok = lo <= ratio <= hi
    return CheckResult("9e-dt-second-order", ok, ratio, hi,
                       note=f"expected in [{lo}, {hi}]")


# one row per `snsim check` line, in print order: row(ctx) is the line's check
BATTERY: Tuple[Callable[[AcceptanceContext], CheckResult], ...] = (
    _worst("1-guidance-law", ("figure1",), "guidance-law-residual"),
    _worst("2-reciprocity", ("figure1",), "reciprocity-deviation"),
    _worst("3a-classical-trajectory", ("figure1",), "classical-trajectory"),
    _worst("3b-ehrenfest-exact", ("figure1",), "ehrenfest-residual"),
    _worst("4-norm-rate-law", ("figure1",), "norm-rate-residual"),
    _worst("5a-choquard-e0", ("choquard",), "choquard-e0"),
    _worst("5b-choquard-scaling", ("choquard",), "choquard-n3-scaling",
           note=lambda ctx: f"ratio {ctx.choquard.metrics['energy_ratio']:.4f}"),
    _worst("6-oracle-equivalence", ("figure1",), "oracle-mean", "oracle-variance"),
    _worst("7-galilean-boost", ("boost",), "boost-deformation",
           note=lambda ctx: f"velocity dev {ctx.boost.metrics['velocity_dev']:.2e}"),
    _sweep_monotonic,
    _worst("9a-norm-conservation", ("figure1", "boost"), "norm-conservation"),
    lambda ctx: ctx.time_reversal,
    lambda ctx: _scaling_law(),
    lambda ctx: ctx.gauge_invariance,
    lambda ctx: ctx.dt_order,
)


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
    """Run every :data:`BATTERY` row, print its line, return all results.

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
        for name in ("figure1", "boost", "gauge_invariance", "time_reversal"):
            getattr(ctx, name)
        for row in BATTERY:
            results.append(row(ctx))
            if stream is not None:
                stream(results[-1].line())
    finally:
        ctx._pending = {}
        if worker is not None:
            worker.close()
    return results
