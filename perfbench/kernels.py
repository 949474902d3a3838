"""Fixed-size layer timings, measured from outside the program.

Sizes are the workloads' own: 4096 nodes on the ehrenfest grid for the
field and potential kernels, the default figure1 run (4096 nodes, 400
steps, 401 frames) for the Strang steps, the analysis and the oracles,
4096 radial points for the Choquard sweep.  Each value is the median of
repeated calls; a kernel whose function no longer exists is left out
(reported missing), never reported as zero.
"""

from __future__ import annotations

import shutil
import statistics
import time

import numpy as np

import snsim.choquard as C
import snsim.fields as F
import snsim.guidance as G
import snsim.oracles as O
import snsim.potentials as P
import snsim.propagate as R
import snsim.scenarios as S

N = 4096
BUDGET_S = 0.2


def per_call(fn, min_reps=5, budget=BUDGET_S):
    times = []
    end = time.perf_counter() + budget
    while len(times) < min_reps or (time.perf_counter() < end and len(times) < 2000):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernels(workdir):
    phys = P.PhysParams()
    grid = F.Grid1D(N, -32.0, 32.0)
    f = F.gaussian_packet(grid, 0.5, 1.0, velocity=1.0)
    sphere = P.HarmonicModelParams(k_ext=1.0, k_self=P.self_stiffness(1.0, 1.0, 5.0, 1.0),
                                   sphere_mass=1.0, sphere_radius=5.0)
    kernel = P.sphere_quadratic_kernel(phys, sphere)
    stiff = P.HarmonicModelParams(k_ext=1.0, k_self=1000.0)

    def fft_pair():
        kin = np.exp(-0.5j * grid.wavenumbers**2 * 1e-3)
        v = np.array(f.values)
        return per_call(lambda: np.fft.ifft(np.fft.fft(v) * kin)) * 1e6

    yield "fields.fft_pair_us", fft_pair
    yield "fields.phase_amplitude_us", lambda: per_call(lambda: F.phase_amplitude(f)) * 1e6
    yield ("potentials.harmonic_external_us",
           lambda: per_call(lambda: P.harmonic_external(grid, 1.0)) * 1e6)
    yield ("potentials.self_harmonic_us",
           lambda: per_call(lambda: P.self_harmonic(f, stiff)) * 1e6)
    yield ("potentials.convolution_us",
           lambda: per_call(lambda: P.convolution_self_potential(f, kernel)) * 1e6)

    def step_kernel():
        steps = 50
        spec = R.EvolutionSpec(dt=2e-3, t_end=2e-3 * steps, output_stride=steps,
                               store_fields=False)
        psi = F.gaussian_packet(grid, 1.5, 1.0)
        v_ext = P.harmonic_external(grid, 1.0)
        return per_call(lambda: R.evolve_kernel(psi, kernel, v_ext, spec, phys),
                        min_reps=3) / steps * 1e6

    yield "propagate.step_kernel_us", step_kernel

    fig = S.build_figure1(S.ScenarioConfig(scenario="figure1"))
    steps = 100
    spec = R.EvolutionSpec(dt=fig.spec.dt, t_end=fig.spec.dt * steps,
                           output_stride=steps, store_fields=False)
    v_fig = P.harmonic_external(fig.grid, fig.model.k_ext)
    pilot0 = fig.pilot_log.fields[0]
    full0 = fig.full_log.fields[0]
    yield ("propagate.step_linear_us",
           lambda: per_call(lambda: R.evolve_linear(pilot0, v_fig, spec, fig.phys),
                            min_reps=3) / steps * 1e6)
    yield ("propagate.step_self_harmonic_us",
           lambda: per_call(lambda: R.evolve_self_harmonic(full0, fig.model, spec, fig.phys),
                            min_reps=3) / steps * 1e6)
    yield ("guidance.frame_us",
           lambda: per_call(lambda: G.decompose_run(fig.times, fig.pilot_log.fields,
                                                    fig.full_log.fields, fig.phys),
                            min_reps=3) / len(fig.times) * 1e6)

    stride_dt = fig.times[1] - fig.times[0]
    flow = fig.moment_flow
    init = O.GaussianMoments(flow.mean[0], flow.momentum[0], flow.variance[0],
                             flow.variance_rate[0])
    yield ("oracles.moment_flow_ms",
           lambda: per_call(lambda: O.gaussian_moment_flow(
               init, fig.model, fig.phys, stride_dt / 10.0, fig.spec.t_end)) * 1e3)
    start = O.ClassicalState(fig.rows[0].x0, fig.rows[0].v_drift)
    yield ("oracles.classical_ms",
           lambda: per_call(lambda: O.classical_trajectory(
               start, fig.model.k_ext, stride_dt / 10.0, fig.spec.t_end,
               mass=fig.phys.mass)) * 1e3)

    def snapshot_frame():
        frames = 10
        log = R.TrajectoryLog(store_fields=True)
        for t, fld in zip(fig.times[:frames], fig.full_log.fields[:frames]):
            log.append(t, 0.0, 0.0, 1.0, 0.0, fld)
        out = workdir / "snapshots"
        try:
            return per_call(lambda: R.write_snapshots(log, out), min_reps=3,
                            budget=0.0) / frames * 1e3
        finally:
            shutil.rmtree(out, ignore_errors=True)

    yield "propagate.snapshot_frame_ms", snapshot_frame

    def choquard_sweep():
        grid_r = C.RadialGrid(N, 50.0)
        per_sweep = []
        for _ in range(5):
            t0 = time.perf_counter()
            result = C.solve_ground_state(phys, 1.0, grid=grid_r)
            per_sweep.append((time.perf_counter() - t0) / result.iters)
        return statistics.median(per_sweep) * 1e6

    yield "choquard.sweep_us", choquard_sweep

    def relax_iter():
        original = S.imaginary_time_relax
        per_iter = []

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            per_iter.append((time.perf_counter() - t0) / result.iters)
            return result

        S.imaginary_time_relax = timed
        try:
            for _ in range(5):
                S.build_ground_state(S.ScenarioConfig(scenario="ground-state"))
        finally:
            S.imaginary_time_relax = original
        return statistics.median(per_iter) * 1e6

    yield "propagate.relax_iter_us", relax_iter


def measure(workdir) -> tuple[dict, list]:
    """Returns (metrics, missing): every kernel that ran, and those that could not."""
    out, missing = {}, []
    gen = _kernels(workdir)
    while True:
        try:
            name, fn = next(gen)
        except StopIteration:
            break
        except AttributeError as exc:  # the set-up itself needs a removed name
            missing.append(f"kernel set-up: {exc}")
            break
        try:
            out[name] = fn()
        except AttributeError as exc:
            missing.append(f"{name}: {exc}")
    return out, missing
