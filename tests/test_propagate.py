import numpy as np
import pytest

from snsim.acceptance import _dt_order_check
from snsim.errors import (
    BoundaryLeakError,
    ConfigError,
    ConvergenceError,
    DegenerateInputError,
    NonFiniteFieldError,
    SimulationError,
)
from snsim.fields import Grid1D, WaveField, gaussian_packet, moments
from snsim.oracles import GaussianMoments, coherent_state, gaussian_moment_flow
import snsim.propagate
from snsim.potentials import (
    ConvolutionKernel,
    HarmonicModelParams,
    PhysParams,
    _mean_position,
    _self_trap,
    convolution_self_potential,
    harmonic_external,
    self_harmonic,
    self_stiffness,
    sphere_quadratic_kernel,
)
from snsim.propagate import (
    EvolutionSpec,
    StrangRun,
    evolve_kernel,
    evolve_linear,
    evolve_self_harmonic,
    imaginary_time_relax,
    read_snapshot,
    run_lockstep,
    write_snapshots,
)
from snsim.scenarios import ScenarioConfig, build_ground_state, checks

GRID = Grid1D(2048, -24.0, 24.0)
PHYS = PhysParams()


def align_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotate b onto a's global phase (the phase itself is unphysical)."""
    overlap = np.vdot(b, a)
    return b * (overlap / abs(overlap))


class TestEvolutionSpec:
    def test_integer_step_count(self):
        with pytest.raises(ConfigError):
            EvolutionSpec(dt=0.3, t_end=1.0)

    def test_step_count(self):
        assert EvolutionSpec(dt=0.01, t_end=1.0).n_steps == 100

    @pytest.mark.parametrize("dt, t_end", [(5e-324, 1.0), (-5e-324, 1.0),
                                           (1e-10, 1e308)])
    def test_overflowing_step_count(self, dt, t_end):
        # round(inf) raised OverflowError
        with pytest.raises(ConfigError, match="t_end/dt = "):
            EvolutionSpec(dt=dt, t_end=t_end)


class TestEvolveLinear:
    def test_plane_wave_phase_advance(self):
        k = GRID.wavenumbers[40]
        psi0 = WaveField(GRID, np.exp(1j * k * GRID.nodes))
        spec = EvolutionSpec(dt=1e-3, t_end=0.5, output_stride=500)
        _, final = evolve_linear(psi0, np.zeros(GRID.n_points), spec, PHYS)
        expected = psi0.values * np.exp(-1j * 0.5 * k * k * 0.5)
        assert np.max(np.abs(final.values - expected)) < 1e-10

    def test_coherent_state_oscillation(self):
        omega = 1.0
        period = 2.0 * np.pi / omega
        psi0, _ = coherent_state(GRID, omega**2, 1.0, 0.0, PHYS)
        v_ext = harmonic_external(GRID, omega**2)
        spec = EvolutionSpec(dt=period / 6400, t_end=period, output_stride=64)
        log, _ = evolve_linear(psi0, v_ext, spec, PHYS)
        times = np.asarray(log.times)
        assert np.max(np.abs(np.asarray(log.mean_x) - np.cos(times))) < 1e-6

    def test_coherent_state_field_matches_closed_form(self):
        # validates the propagator and the analytic solution against
        # each other, global phase included
        omega = 1.0
        psi0, _ = coherent_state(GRID, omega**2, 1.0, 0.0, PHYS)
        v_ext = harmonic_external(GRID, omega**2)
        t_end = 1.4
        spec = EvolutionSpec(dt=2e-4, t_end=t_end, output_stride=7000)
        _, final = evolve_linear(psi0, v_ext, spec, PHYS)
        ref, _ = coherent_state(GRID, omega**2, 1.0, t_end, PHYS)
        assert np.max(np.abs(final.values - ref.values)) < 1e-7

    def test_trap_ground_state_stationary(self):
        # the width carries O(dt^2) splitting error, so dt must be small
        # for the 1e-8 constancy bound
        psi0, _ = coherent_state(GRID, 1.0, 0.0, 0.0, PHYS)
        v_ext = harmonic_external(GRID, 1.0)
        spec = EvolutionSpec(dt=2e-4, t_end=2.0, output_stride=1000)
        log, _ = evolve_linear(psi0, v_ext, spec, PHYS)
        mean = np.asarray(log.mean_x)
        var = np.asarray(log.mean_x2) - mean**2
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(var - var[0])) < 1e-8

    def test_norm_conserved_per_step(self):
        psi0, _ = coherent_state(GRID, 1.0, 1.0, 0.0, PHYS)
        v_ext = harmonic_external(GRID, 1.0)
        spec = EvolutionSpec(dt=1e-3, t_end=1.0, output_stride=1)
        log, _ = evolve_linear(psi0, v_ext, spec, PHYS)
        norms = np.asarray(log.norm_sq)
        per_step = np.abs(np.diff(norms)) / norms[:-1]
        assert np.max(per_step) < 1e-12

    def test_time_reversal(self):
        psi0, _ = coherent_state(GRID, 1.0, 1.2, 0.0, PHYS)
        v_ext = harmonic_external(GRID, 1.0)
        fwd = EvolutionSpec(dt=2e-3, t_end=1.0, output_stride=500)
        bwd = EvolutionSpec(dt=-2e-3, t_end=1.0, output_stride=500)
        _, mid = evolve_linear(psi0, v_ext, fwd, PHYS)
        _, back = evolve_linear(mid, v_ext, bwd, PHYS)
        assert np.max(np.abs(back.values - psi0.values)) < 1e-8

    def test_boundary_leak_detected(self):
        # a fast packet reaches the wall well within the run
        k = GRID.wavenumbers[300]
        psi0 = gaussian_packet(GRID, 0.0, 1.0, velocity=k)
        spec = EvolutionSpec(dt=1e-3, t_end=2.0, output_stride=100)
        with pytest.raises(BoundaryLeakError):
            evolve_linear(psi0, np.zeros(GRID.n_points), spec, PHYS)

    def test_plane_wave_bypasses_leak_check(self):
        k = GRID.wavenumbers[10]
        psi0 = WaveField(GRID, np.exp(1j * k * GRID.nodes))
        spec = EvolutionSpec(dt=1e-3, t_end=0.1, output_stride=10)
        evolve_linear(psi0, np.zeros(GRID.n_points), spec, PHYS)  # no raise


class TestEvolveSelfHarmonic:
    def test_reduces_to_linear_without_self_term(self):
        model = HarmonicModelParams(k_ext=1.0, k_self=0.0)
        psi0, _ = coherent_state(GRID, 1.0, 1.0, 0.0, PHYS)
        spec = EvolutionSpec(dt=1e-3, t_end=0.5, output_stride=500)
        _, a = evolve_self_harmonic(psi0, model, spec, PHYS)
        _, b = evolve_linear(psi0, harmonic_external(GRID, 1.0), spec, PHYS)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_boosted_soliton_translates(self):
        # exact solution: the self-trapped ground state under a boost
        k_self = 50.0
        model = HarmonicModelParams(k_ext=0.0, k_self=k_self)
        a = (PHYS.hbar**2 / (k_self * PHYS.mass)) ** 0.25
        dk = 2.0 * np.pi / GRID.length
        v = 64 * dk
        psi0 = gaussian_packet(GRID, -2.0, a, velocity=v)
        period = 2.0 * np.pi / np.sqrt(k_self / PHYS.mass)
        t_end = 3.0 * period
        spec = EvolutionSpec(dt=t_end / 3000, t_end=t_end, output_stride=300)
        log, final = evolve_self_harmonic(psi0, model, spec, PHYS)
        amp0 = np.sqrt(1.0 / (a * np.sqrt(np.pi)))
        for t, fld in zip(log.times, log.fields):
            u = GRID.nodes - (-2.0 + v * t)
            ref = amp0 * np.exp(-(u * u) / (2.0 * a * a))
            assert np.max(np.abs(np.abs(fld.values) - ref)) < 1e-5

    def test_matches_moment_oracle(self):
        model = HarmonicModelParams(k_ext=1.0, k_self=100.0)
        k_total = model.k_ext + model.k_self
        a = (PHYS.hbar**2 / (k_total * PHYS.mass)) ** 0.25
        psi0 = gaussian_packet(GRID, 1.0, 1.1 * a)
        omega_fast = np.sqrt(k_total)
        t_end = 4.0 * np.pi / omega_fast
        n_steps = 600
        spec = EvolutionSpec(dt=t_end / n_steps, t_end=t_end, output_stride=6)
        log, _ = evolve_self_harmonic(psi0, model, spec, PHYS)
        m0 = moments(psi0)
        init = GaussianMoments(m0.mean, m0.momentum, m0.variance,
                               2.0 * m0.covariance / PHYS.mass)
        stride_dt = log.times[1] - log.times[0]
        flow = gaussian_moment_flow(init, model, PHYS, stride_dt, log.times[-1])
        mean_o, var_o = flow.mean, flow.variance
        assert len(flow.times) == len(log.times)
        mean_g = np.asarray(log.mean_x)
        var_g = np.asarray(log.mean_x2) - mean_g**2
        assert np.max(np.abs(mean_g - mean_o)) / np.max(np.abs(mean_o)) < 1e-3
        assert np.max(np.abs(var_g - var_o)) / np.max(np.abs(var_o)) < 1e-3

    def test_generalized_mean_motion(self):
        # quadratic external trap: m <x>'' + k_ext <x> = 0 regardless of
        # the self-interaction strength
        model = HarmonicModelParams(k_ext=1.0, k_self=200.0)
        a = (PHYS.hbar**2 / (201.0 * PHYS.mass)) ** 0.25
        psi0 = gaussian_packet(GRID, 1.0, a)
        t_end = 1.0
        spec = EvolutionSpec(dt=2.5e-4, t_end=t_end, output_stride=4)
        log, _ = evolve_self_harmonic(psi0, model, spec, PHYS)
        mean = np.asarray(log.mean_x)
        h = log.times[1] - log.times[0]
        acc = (-mean[:-4] + 16 * mean[1:-3] - 30 * mean[2:-2]
               + 16 * mean[3:-1] - mean[4:]) / (12.0 * h * h)
        resid = PHYS.mass * acc + model.k_ext * mean[2:-2]
        assert np.max(np.abs(resid)) / np.max(np.abs(mean)) < 1e-5

    def test_zero_norm_rejected(self):
        model = HarmonicModelParams(k_ext=1.0, k_self=1.0)
        psi0 = WaveField(GRID, np.zeros(GRID.n_points))
        spec = EvolutionSpec(dt=1e-3, t_end=0.1)
        with pytest.raises(DegenerateInputError):
            evolve_self_harmonic(psi0, model, spec, PHYS)

    def test_dt_accuracy_bound(self):
        model = HarmonicModelParams(k_ext=1.0, k_self=1000.0)
        psi0 = gaussian_packet(GRID, 0.0, 0.2)
        spec = EvolutionSpec(dt=0.1, t_end=1.0)
        with pytest.raises(ConfigError):
            evolve_self_harmonic(psi0, model, spec, PHYS)

    def test_norm_conserved(self):
        model = HarmonicModelParams(k_ext=1.0, k_self=100.0)
        psi0 = gaussian_packet(GRID, 0.8, 0.35)
        spec = EvolutionSpec(dt=2e-4, t_end=0.5, output_stride=100)
        log, _ = evolve_self_harmonic(psi0, model, spec, PHYS)
        norms = np.asarray(log.norm_sq)
        assert np.max(np.abs(norms - norms[0]) / norms[0]) < 1e-10

    def test_second_order_convergence(self):
        model = HarmonicModelParams(k_ext=1.0, k_self=10.0)
        psi0 = gaussian_packet(GRID, 1.0, 0.8)

        def final(dt):
            spec = EvolutionSpec(dt=dt, t_end=1.0, output_stride=10**6)
            _, out = evolve_self_harmonic(psi0, model, spec, PHYS)
            return out.values

        # 9e's self-convergence ratio of u(dt), u(dt/2), u(dt/4), on 2048 nodes
        result = _dt_order_check([final(1e-3 / 2**j) for j in range(3)])
        assert result.passed and 3.5 <= result.value <= 4.5


class TestEvolveKernel:
    def test_zero_kernel_equals_linear(self):
        kernel = ConvolutionKernel(lambda u: np.zeros_like(u), -1.0)
        psi0, _ = coherent_state(GRID, 1.0, 1.0, 0.0, PHYS)
        v_ext = harmonic_external(GRID, 1.0)
        spec = EvolutionSpec(dt=1e-3, t_end=0.3, output_stride=300)
        _, a = evolve_kernel(psi0, kernel, v_ext, spec, PHYS)
        _, b = evolve_linear(psi0, v_ext, spec, PHYS)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_sphere_kernel_matches_mean_field(self):
        # same model through two code paths; the potentials differ by a
        # time-dependent spatial constant, i.e. a global phase
        phys = PhysParams()
        sphere_mass, sphere_radius = 1.0, 5.0
        k_self = self_stiffness(phys.G, sphere_mass, sphere_radius,
                                phys.norm_sq)
        model = HarmonicModelParams(k_ext=1.0, k_self=k_self,
                                    sphere_mass=sphere_mass,
                                    sphere_radius=sphere_radius)
        kernel = sphere_quadratic_kernel(phys, model)
        psi0 = gaussian_packet(GRID, 1.0, 0.9)
        v_ext = harmonic_external(GRID, model.k_ext)
        spec = EvolutionSpec(dt=1e-3, t_end=0.5, output_stride=500)
        _, a = evolve_kernel(psi0, kernel, v_ext, spec, phys)
        _, b = evolve_self_harmonic(psi0, model, spec, phys)
        aligned = align_phase(b.values, a.values)
        assert np.max(np.abs(aligned - b.values)) < 1e-8

    def test_free_particle_mean_motion(self):
        kernel = ConvolutionKernel(lambda u: np.exp(-0.5 * u * u), -1.0)
        dk = 2.0 * np.pi / GRID.length
        v = 32 * dk
        psi0 = gaussian_packet(GRID, -3.0, 1.0, velocity=v)
        spec = EvolutionSpec(dt=2e-3, t_end=2.0, output_stride=20)
        log, _ = evolve_kernel(psi0, kernel, np.zeros(GRID.n_points), spec, PHYS)
        mean = np.asarray(log.mean_x)
        h = log.times[1] - log.times[0]
        acc = (-mean[:-4] + 16 * mean[1:-3] - 30 * mean[2:-2]
               + 16 * mean[3:-1] - mean[4:]) / (12.0 * h * h)
        assert np.max(np.abs(acc)) < 5e-6


SMALL = Grid1D(512, -16.0, 16.0)
FUSION_MODEL = HarmonicModelParams(k_ext=1.0, k_self=20.0)
FUSION_KERNEL = ConvolutionKernel(lambda u: np.exp(-0.5 * u * u), -3.0)
# G M^2 N^2 / (2 R^3) = 19.6, about FUSION_MODEL's stiffness
SPHERE_KERNEL = sphere_quadratic_kernel(
    PHYS, HarmonicModelParams(k_ext=1.0, k_self=0.0, sphere_mass=70.0,
                              sphere_radius=5.0))


def _fusion_case(family):
    """(evolver, V[psi] for the reference loop)."""
    v_ext = harmonic_external(SMALL, FUSION_MODEL.k_ext)
    if family == "static":
        return ((lambda psi, spec: evolve_linear(psi, v_ext, spec, PHYS)),
                lambda vals: np.zeros(SMALL.n_points))
    if family == "mean-field":
        return ((lambda psi, spec: evolve_self_harmonic(psi, FUSION_MODEL, spec, PHYS)),
                lambda vals: self_harmonic(WaveField(SMALL, vals), FUSION_MODEL))
    kernel = SPHERE_KERNEL if family == "sphere-kernel" else FUSION_KERNEL
    return ((lambda psi, spec: evolve_kernel(psi, kernel, v_ext, spec, PHYS)),
            lambda vals: convolution_self_potential(WaveField(SMALL, vals), kernel))


def _unfused_reference(psi0, v_self, spec):
    """Textbook Strang: two potential evaluations, two half-steps a step.

    Returns the output times and fields, and the final field.
    """
    v_ext = harmonic_external(SMALL, FUSION_MODEL.k_ext)
    k = SMALL.wavenumbers
    kin = np.exp(-1j * PHYS.hbar * k * k * spec.dt / (2.0 * PHYS.mass))
    half = -0.5j * spec.dt / PHYS.hbar
    vals = psi0.values.copy()
    times, fields = [0.0], [vals.copy()]
    for step in range(1, spec.n_steps + 1):
        vals = vals * np.exp(half * (v_ext + v_self(vals)))
        vals = np.fft.ifft(np.fft.fft(vals) * kin)
        vals = vals * np.exp(half * (v_ext + v_self(vals)))
        if step % spec.output_stride == 0:
            times.append(step * spec.dt)
            fields.append(vals.copy())
    return times, fields, vals


def _count_calls(monkeypatch, module, names):
    """Tally by name the calls to each of ``names`` in ``module``."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def count(*args, _name=name, _real=getattr(module, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, count)
    return counts


class TestFusedStepper:
    @pytest.mark.parametrize("family", ["static", "mean-field", "kernel",
                                        "sphere-kernel"])
    @pytest.mark.parametrize("dt, stride", [(2e-3, 1), (2e-3, 7), (-2e-3, 5)])
    def test_matches_unfused_reference(self, family, dt, stride):
        evolve, v_self = _fusion_case(family)
        psi0 = gaussian_packet(SMALL, 0.7, 0.6, velocity=1.5)
        # 40 steps: with stride 7 the run ends between two outputs
        spec = EvolutionSpec(dt=dt, t_end=40 * abs(dt), output_stride=stride)
        log, final = evolve(psi0, spec)
        times, fields, ref_final = _unfused_reference(psi0, v_self, spec)
        assert log.times == pytest.approx(times, abs=1e-15)
        for fld, ref in zip(log.fields, fields):
            assert np.max(np.abs(fld.values - ref)) < 1e-12
        assert np.max(np.abs(final.values - ref_final)) < 1e-12

    @pytest.mark.parametrize("stride", [1, 8])
    def test_one_convolution_per_step(self, stride, monkeypatch):
        calls = []

        def counting(f, kernel):
            calls.append(1)
            return convolution_self_potential(f, kernel)

        monkeypatch.setattr(snsim.propagate, "convolution_self_potential", counting)
        psi0 = gaussian_packet(SMALL, 0.7, 0.6)
        spec = EvolutionSpec(dt=2e-3, t_end=0.08, output_stride=stride)
        evolve_kernel(psi0, FUSION_KERNEL, harmonic_external(SMALL, 1.0), spec, PHYS)
        # one to open the run, then one per step
        assert len(calls) == spec.n_steps + 1

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("family", ["mean-field", "sphere-kernel"])
    def test_closed_form_builds_no_self_potential(self, family, stride, monkeypatch):
        # the step takes V_self from the density's moments, and an output
        # logs moments alone: no V_self array is ever built
        names = ("_self_trap", "convolution_self_potential")
        calls = _count_calls(monkeypatch, snsim.propagate, names)
        evolve, _ = _fusion_case(family)
        psi0 = gaussian_packet(SMALL, 0.7, 0.6)
        # 40 steps: with stride 7 the run ends between two outputs
        spec = EvolutionSpec(dt=2e-3, t_end=0.08, output_stride=stride)
        log, _ = evolve(psi0, spec)
        assert len(log.times) == spec.n_steps // stride + 1
        assert calls == dict.fromkeys(names, 0)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("family", ["static", "mean-field", "sphere-kernel"])
    def test_one_fft_pair_per_step(self, family, stride, monkeypatch):
        # the kinetic step is the only FFT pair; an output adds none
        evolve, _ = _fusion_case(family)
        psi0 = gaussian_packet(SMALL, 0.7, 0.6)
        # 40 steps: with stride 7 the run ends between two outputs
        spec = EvolutionSpec(dt=2e-3, t_end=0.08, output_stride=stride)
        counts = _count_calls(monkeypatch, np.fft, ("fft", "ifft"))
        evolve(psi0, spec)
        assert counts == {"fft": spec.n_steps, "ifft": spec.n_steps}


class TestTrapPhase:
    """The mean-field potential step in closed form."""

    @pytest.mark.parametrize("n", [2, 8, 1024, 4096])
    @pytest.mark.parametrize("dt", [1e-2, -1e-2])
    @pytest.mark.parametrize("halves", [1, 2])
    def test_equals_exponential_of_potential(self, n, dt, halves):
        grid = Grid1D(n, -8.0, 8.0)
        x = grid.nodes
        rng = np.random.default_rng(n)
        # an off-centre density with random weights: <x> is far from 0
        rho = np.exp(-0.5 * (x - 1.7) ** 2) + 0.5 * rng.random(n)
        assert abs((rho * x).sum() / rho.sum()) > 0.3
        model = HarmonicModelParams(k_ext=1.3, k_self=40.0)
        v_ext = harmonic_external(grid, model.k_ext)
        f = -0.5j * dt / PHYS.hbar
        mean = _mean_position(rho.sum(), (rho * x).sum())
        got = snsim.propagate._trap_phase(grid, v_ext, model.k_self, f)(mean, halves)
        want = np.exp(halves * f * (v_ext + _self_trap(x, rho, model.k_self)))
        assert np.max(np.abs(got - want)) < 1e-13


class TestSphereKernel:
    """The sphere kernel's potential step in closed form."""

    @pytest.mark.parametrize("n", [2, 8, 1024, 4096])
    def test_moment_form_equals_convolution(self, n):
        grid = Grid1D(n, -8.0, 8.0)
        x = grid.nodes
        rng = np.random.default_rng(n)
        # an off-centre density with random weights and phases
        amp = np.sqrt(np.exp(-0.5 * (x - 1.7) ** 2) + 0.5 * rng.random(n))
        psi0 = WaveField(grid, amp * np.exp(2j * np.pi * rng.random(n)))
        rho = amp * amp
        mean = (rho * x).sum() / rho.sum()
        assert abs(mean) > 0.3
        family = snsim.propagate._kernel_family(psi0, SPHERE_KERNEL, np.zeros(n))
        variance = (rho * x * x).sum() / rho.sum() - mean * mean
        moment_form = family.offset + 0.5 * family.k_self * ((x - mean) ** 2 + variance)
        want = convolution_self_potential(psi0, SPHERE_KERNEL)
        assert np.max(np.abs(moment_form - want)) < 1e-13 * np.max(np.abs(want))


class TestLockstep:
    """Runs advanced together as streams give their drained results."""

    @pytest.mark.parametrize("stride", [1, 7])
    def test_frames_equal_log_fields(self, stride):
        psi0 = gaussian_packet(SMALL, 0.7, 0.6, velocity=1.5)
        # 40 steps: with stride 7 the runs end between two outputs
        spec = EvolutionSpec(dt=2e-3, t_end=0.08, output_stride=stride)
        v_ext = harmonic_external(SMALL, FUSION_MODEL.k_ext)
        pilot = StrangRun.linear(psi0, v_ext, spec, PHYS)
        full = StrangRun.self_harmonic(psi0, FUSION_MODEL, spec, PHYS)
        seen = []
        run_lockstep((pilot, full),
                     lambda t, p, f: seen.append((t, p.copy(), f.copy())))
        drained = (evolve_linear(psi0, v_ext, spec, PHYS),
                   evolve_self_harmonic(psi0, FUSION_MODEL, spec, PHYS))
        for i, (run, (log, final)) in enumerate(zip((pilot, full), drained), 1):
            assert [t for t, *_ in seen] == run.log.times == log.times
            assert len(run.log.fields) == len(seen)
            for frame, kept, alone in zip(seen, run.log.fields, log.fields):
                assert np.array_equal(frame[i], kept.values)
                assert np.array_equal(frame[i], alone.values)
            for streamed, alone in zip(run.log.as_arrays(), log.as_arrays()):
                assert np.array_equal(streamed, alone)
            assert np.array_equal(run.final.values, final.values)


TRAP = HarmonicModelParams(k_ext=1.0, k_self=0.0)


def _reference_energy(f, model):
    """<T> + <v_ext> + <V_self> of ``f`` under the trap model."""
    grid = f.grid
    k = grid.wavenumbers
    ft = np.fft.fft(f.values)
    kinetic = (PHYS.hbar**2 / (2.0 * PHYS.mass) * np.sum(k * k * np.abs(ft) ** 2)
               * grid.dx / grid.n_points)
    v = harmonic_external(grid, model.k_ext) + self_harmonic(f, model)
    return kinetic + np.sum(v * np.abs(f.values) ** 2) * grid.dx


class TestImaginaryTime:
    def test_harmonic_ground_state(self):
        seed = gaussian_packet(GRID, 0.3, 1.7)
        result = imaginary_time_relax(seed, TRAP, 1.0, tol=1e-12, phys=PHYS)
        assert result.eigenvalue == pytest.approx(0.5, abs=1e-6)
        m = moments(result.field)
        assert np.sqrt(2.0 * m.variance) == pytest.approx(1.0, abs=1e-4)

    def test_self_trapped_ground_state(self):
        k = 10.0
        seed = gaussian_packet(GRID, 0.0, 1.5)
        result = imaginary_time_relax(seed, HarmonicModelParams(0.0, k), 1.0,
                                      tol=1e-12, phys=PHYS)
        a_pred = (PHYS.hbar**2 / (k * PHYS.mass)) ** 0.25
        m = moments(result.field)
        assert np.sqrt(2.0 * m.variance) == pytest.approx(a_pred, rel=1e-4)

    @pytest.mark.parametrize("model", [HarmonicModelParams(0.0, 10.0), TRAP],
                             ids=["self-trap", "static-trap"])
    def test_energy_is_the_logged_energy(self, model):
        # the relaxation's energy is the last one its history logs, and the
        # trap model's energy of the relaxed field
        seed = gaussian_packet(GRID, 0.4, 1.5)
        result = imaginary_time_relax(seed, model, 1.3, tol=1e-10, phys=PHYS)
        assert result.energy == result.history[-1]
        assert result.energy == pytest.approx(_reference_energy(result.field, model),
                                              rel=1e-14, abs=0.0)

    def test_energy_monotone(self):
        seed = gaussian_packet(GRID, 1.0, 2.5)
        result = imaginary_time_relax(seed, TRAP, 1.0, tol=1e-10, phys=PHYS)
        history = np.asarray(result.history)
        assert np.all(np.diff(history) <= 1e-14 * np.abs(history[:-1]) + 1e-30)

    def test_roundoff_rise_keeps_history_non_increasing(self):
        # at this stiffness one relaxation step raises the energy by
        # 2.2e-16; the step is kept out of the history, which would
        # otherwise fail the ground-state report's energy-monotone line
        result = build_ground_state(
            ScenarioConfig(scenario="ground-state", k_self=7.5))
        assert result.iters > len(result.history) - 1
        assert result.metrics["energy_increase"] == 0.0
        assert all(c.passed for c in checks(result))

    @pytest.mark.parametrize("model, phys", [
        (TRAP, PHYS),
        (HarmonicModelParams(0.0, 10.0), PHYS),
        (HarmonicModelParams(1.0, 10.0), PhysParams(mass=2.0)),
    ], ids=["static-trap", "self-trap", "both-mass-2"])
    def test_exact_ground_state_is_a_fixed_point(self, model, phys):
        # the exact factorization leaves the ground state where it is at
        # omega tau = 2, so the run is its three confirming steps; the
        # plain Strang factor raises the energy there, and each rise halves
        # tau until the move is below roundoff
        omega = np.sqrt((model.k_ext + model.k_self) / phys.mass)
        a = np.sqrt(phys.hbar / (phys.mass * omega))
        seed = gaussian_packet(GRID, 0.0, a, norm_sq=1.2, hbar=phys.hbar,
                               mass=phys.mass)
        result = imaginary_time_relax(seed, model, 1.2, phys=phys)
        assert result.iters == 3
        moved = np.max(np.abs(result.field.values - seed.values))
        assert moved <= 1e-12 * np.max(np.abs(seed.values))
        assert result.eigenvalue == pytest.approx(0.5 * phys.hbar * omega,
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k_self", np.linspace(5.0, 20.0, 5))
    @pytest.mark.parametrize("norm_sq", np.linspace(1.0, 1.5, 3))
    def test_converges_in_a_few_steps(self, k_self, norm_sq):
        result = build_ground_state(ScenarioConfig(
            scenario="ground-state", k_self=k_self, norm_sq=norm_sq))
        assert result.iters <= 8
        assert all(c.passed for c in checks(result))

    def test_no_confinement_refused(self):
        # at k_ext = k_self = 0 the flow only finds the periodic box's
        # constant mode, which is no bound state
        seed = gaussian_packet(SMALL, 0.0, 1.0)
        with pytest.raises(ConfigError, match="confining"):
            imaginary_time_relax(seed, HarmonicModelParams(0.0, 0.0), 1.0,
                                 phys=PHYS, max_iters=100)

    def test_non_convergence_raises(self):
        seed = gaussian_packet(GRID, 0.0, 2.0)
        with pytest.raises(ConvergenceError) as err:
            imaginary_time_relax(seed, TRAP, 1.0, tol=1e-30, phys=PHYS,
                                 max_iters=5)
        assert len(err.value.history) > 0


class TestNonFinite:
    """A NaN planted in v_ext must stop the run at a named time."""

    SPEC = EvolutionSpec(dt=1e-2, t_end=0.2, output_stride=5,
                         store_fields=False)

    @staticmethod
    def _v_ext():
        v_ext = harmonic_external(SMALL, 1.0)
        v_ext[100] = np.nan
        return v_ext

    def _raises_at(self, t, run):
        with pytest.raises(NonFiniteFieldError) as err:
            run()
        assert err.value.t == pytest.approx(t)
        # a SimulationError that is not a ConfigError: the CLI exits 1
        assert isinstance(err.value, SimulationError)
        assert not isinstance(err.value, ConfigError)

    @pytest.mark.parametrize("store_fields", [False, True])
    def test_static(self, store_fields):
        spec = EvolutionSpec(dt=1e-2, t_end=0.2, output_stride=5,
                             store_fields=store_fields)
        psi0 = gaussian_packet(SMALL, 0.0, 1.0)
        # the first output after the NaN enters is at one stride
        self._raises_at(0.05, lambda: evolve_linear(psi0, self._v_ext(), spec))

    def test_after_last_output(self):
        # 20 steps at stride 30 record only t = 0; the end of the run
        # still names the blow-up
        spec = EvolutionSpec(dt=1e-2, t_end=0.2, output_stride=30)
        psi0 = gaussian_packet(SMALL, 0.0, 1.0)
        self._raises_at(0.2, lambda: evolve_linear(psi0, self._v_ext(), spec))

    def test_mean_field(self, monkeypatch):
        monkeypatch.setattr(snsim.propagate, "harmonic_external",
                            lambda grid, k: self._v_ext())
        psi0 = gaussian_packet(SMALL, 0.0, 1.0)
        self._raises_at(0.05, lambda: evolve_self_harmonic(
            psi0, FUSION_MODEL, self.SPEC))

    def test_kernel(self):
        # the per-step WaveField of the convolution refuses the NaN one
        # step in, before the first output
        psi0 = gaussian_packet(SMALL, 0.0, 1.0)
        self._raises_at(0.01, lambda: evolve_kernel(
            psi0, FUSION_KERNEL, self._v_ext(), self.SPEC))

    def test_sphere_kernel(self):
        # stepped in closed form, the sphere kernel convolves at outputs
        # alone: the first output after the NaN enters names it
        psi0 = gaussian_packet(SMALL, 0.0, 1.0)
        self._raises_at(0.05, lambda: evolve_kernel(
            psi0, SPHERE_KERNEL, self._v_ext(), self.SPEC))


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        psi0, _ = coherent_state(GRID, 1.0, 1.0, 0.0, PHYS)
        v_ext = harmonic_external(GRID, 1.0)
        spec = EvolutionSpec(dt=1e-2, t_end=0.1, output_stride=5)
        log, _ = evolve_linear(psi0, v_ext, spec, PHYS)
        paths = write_snapshots(log, tmp_path / "run")
        assert len(paths) == len(log.times)
        assert paths[1].name == "snap_00001.dat"
        t, x, vals = read_snapshot(paths[1])
        assert t == pytest.approx(log.times[1])
        assert np.allclose(x, GRID.nodes)
        assert np.max(np.abs(vals - log.fields[1].values)) < 1e-16


class TestSchemeAndWarnings:
    def test_sphere_validity_warning(self, caplog):
        # packet comparable to the sphere radius: the quadratic
        # expansion is out of its regime and must warn, not fail
        phys = PhysParams()
        k_self = self_stiffness(phys.G, 1.0, 0.5, phys.norm_sq)
        model = HarmonicModelParams(k_ext=1.0, k_self=k_self,
                                    sphere_mass=1.0, sphere_radius=0.5)
        psi0 = gaussian_packet(GRID, 0.0, 1.0)
        spec = EvolutionSpec(dt=1e-3, t_end=0.01, output_stride=10)
        with caplog.at_level("WARNING", logger="snsim.propagate"):
            evolve_self_harmonic(psi0, model, spec, phys)
        assert any("sphere" in rec.message for rec in caplog.records)
