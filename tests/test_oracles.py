import numpy as np
import pytest

from snsim.errors import ConfigError
from snsim.fields import Grid1D, moments, phase_amplitude, squared_norm
from snsim.oracles import (
    ClassicalState,
    GaussianMoments,
    classical_trajectory,
    coherent_state,
    gaussian_moment_flow,
)
from snsim.potentials import HarmonicModelParams

GRID = Grid1D(2048, -24.0, 24.0)


def _rk4(rhs, y0, dt, n_steps):
    """Fixed-step RK4 reference; returns every step's state."""
    out = np.empty((n_steps + 1, len(y0)))
    out[0] = y = np.asarray(y0, dtype=float)
    for i in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        out[i + 1] = y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestClosedFormsAgainstRk4:
    """The closed forms against RK4 at 2000 steps per period."""

    @pytest.mark.parametrize("k_ext, k_self", [(1.0, 40.0), (0.0, 25.0),
                                               (0.0, 0.0)])
    def test_moment_flow(self, phys, k_ext, k_self):
        model = HarmonicModelParams(k_ext=k_ext, k_self=k_self)
        m, hbar = phys.mass, phys.hbar
        k_total = k_ext + k_self
        init = GaussianMoments(mean=0.7, momentum=-0.4, variance=0.3,
                               variance_rate=0.2)
        # two periods of the fastest motion (the breathing), or t = 2 in
        # free flight
        period = np.pi / np.sqrt(k_total / m) if k_total else 1.0
        n_steps = 4000
        dt = 2.0 * period / n_steps

        def rhs(y):
            mean, mom, var, var_rate = y
            c = 0.5 * m * var_rate
            pi2 = (0.25 * hbar * hbar + c * c) / var
            dc = pi2 / m - k_total * var
            return np.array([mom / m, -k_ext * mean, var_rate, 2.0 * dc / m])

        ref = _rk4(rhs, [init.mean, init.momentum, init.variance,
                         init.variance_rate], dt, n_steps)
        flow = gaussian_moment_flow(init, model, phys, dt, n_steps * dt)
        assert len(flow.times) == n_steps + 1
        for i, series in enumerate((flow.mean, flow.momentum, flow.variance,
                                    flow.variance_rate)):
            assert _max_rel(series, ref[:, i]) < 1e-9

    @pytest.mark.parametrize("k", [3.0, 0.0])
    def test_classical_trajectory(self, k):
        mass = 2.0
        period = 2.0 * np.pi / np.sqrt(k / mass) if k else 1.0
        n_steps = 4000
        dt = 2.0 * period / n_steps
        ref = _rk4(lambda y: np.array([y[1], -k * y[0] / mass]), [1.2, -0.3],
                   dt, n_steps)
        times, xs, vs = classical_trajectory(ClassicalState(1.2, -0.3), k, dt,
                                             n_steps * dt, mass=mass)
        assert np.array_equal(times, dt * np.arange(n_steps + 1))
        assert _max_rel(xs, ref[:, 0]) < 1e-9
        assert _max_rel(vs, ref[:, 1]) < 1e-9


class TestMomentFlow:
    def test_free_flight(self, phys):
        model = HarmonicModelParams(k_ext=0.0, k_self=0.0)
        init = GaussianMoments(mean=1.0, momentum=0.5, variance=0.7,
                               variance_rate=0.0)
        flow = gaussian_moment_flow(init, model, phys, 1e-3, 2.0)
        expected = 1.0 + 0.5 * flow.times
        assert np.max(np.abs(flow.mean - expected)) < 1e-12

    def test_coherent_width_constant(self, phys):
        omega = 1.0
        model = HarmonicModelParams(k_ext=omega**2, k_self=0.0)
        init = GaussianMoments(mean=1.0, momentum=0.0,
                               variance=phys.hbar / (2.0 * phys.mass * omega),
                               variance_rate=0.0)
        flow = gaussian_moment_flow(init, model, phys, 1e-3, 2.0 * np.pi)
        assert np.max(np.abs(flow.mean - np.cos(flow.times))) < 1e-9
        assert np.max(np.abs(flow.variance - init.variance)) < 1e-12

    def test_degenerates_to_coherent_state(self, phys):
        # with no self term the flow must match the closed-form packet
        omega = 1.0
        model = HarmonicModelParams(k_ext=omega**2, k_self=0.0)
        init = GaussianMoments(1.3, 0.0, phys.hbar / (2.0 * phys.mass * omega))
        flow = gaussian_moment_flow(init, model, phys, 5e-4, 3.0)
        for i in (500, 2000, 6000):
            t = flow.times[i]
            _, ref = coherent_state(GRID, omega**2, 1.3, t, phys)
            assert flow.mean[i] == pytest.approx(ref.mean, abs=1e-9)
            assert flow.momentum[i] == pytest.approx(ref.momentum, abs=1e-9)
            assert flow.variance[i] == pytest.approx(ref.variance, rel=1e-9)

    def test_uncertainty_product_maintained(self, phys):
        model = HarmonicModelParams(k_ext=1.0, k_self=40.0)
        init = GaussianMoments(0.5, 0.0, 0.3, 0.0)
        flow = gaussian_moment_flow(init, model, phys, 2e-4, 1.5)
        c = 0.5 * phys.mass * flow.variance_rate
        pi2 = (0.25 * phys.hbar**2 + c * c) / flow.variance
        product = np.sqrt(flow.variance * pi2)
        assert np.min(product) >= 0.5 * phys.hbar - 1e-8

    def test_breathing_frequency(self, phys):
        # width oscillates at 2 sqrt(K/m) around the stationary variance
        model = HarmonicModelParams(k_ext=1.0, k_self=24.0)
        k_total = model.k_ext + model.k_self
        s_star = phys.hbar / (2.0 * np.sqrt(k_total * phys.mass))
        init = GaussianMoments(0.0, 0.0, 1.05 * s_star, 0.0)
        period = np.pi / np.sqrt(k_total / phys.mass)
        dt = period / 5000.0
        flow = gaussian_moment_flow(init, model, phys, dt, 3.0 * period)
        one_period = 5000
        drift = np.abs(flow.variance[one_period:] - flow.variance[:-one_period])
        assert np.max(drift) < 1e-7 * s_star

    def test_stationary_width(self, phys):
        model = HarmonicModelParams(k_ext=2.0, k_self=18.0)
        s_star = phys.hbar / (2.0 * np.sqrt(20.0 * phys.mass))
        init = GaussianMoments(0.0, 0.0, s_star, 0.0)
        flow = gaussian_moment_flow(init, model, phys, 1e-4, 1.0)
        assert np.max(np.abs(flow.variance - s_star)) < 1e-12


class TestCoherentState:
    def test_initially_real(self, phys):
        f, mom = coherent_state(GRID, 1.0, 1.5, 0.0, phys)
        assert np.max(np.abs(f.values.imag)) < 1e-14
        assert mom.mean == 1.5 and mom.momentum == 0.0
        assert squared_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_half_period(self, phys):
        omega = 2.0
        f, mom = coherent_state(GRID, omega**2, 1.5, np.pi / omega, phys)
        assert mom.mean == pytest.approx(-1.5, abs=1e-12)
        m = moments(f)
        assert m.mean == pytest.approx(-1.5, abs=1e-10)

    def test_quarter_period_momentum(self, phys):
        omega = 1.0
        x0 = 1.5
        f, mom = coherent_state(GRID, omega**2, x0, 0.5 * np.pi / omega, phys)
        assert mom.mean == pytest.approx(0.0, abs=1e-12)
        assert mom.momentum == pytest.approx(-phys.mass * omega * x0, rel=1e-12)
        pa = phase_amplitude(f)
        i = GRID.n_points // 2
        assert pa.phase_gradient[i] == pytest.approx(
            -x0 * phys.mass * omega / phys.hbar, rel=1e-6
        )

    def test_requires_confinement(self, phys):
        with pytest.raises(ConfigError):
            coherent_state(GRID, 0.0, 1.0, 0.0, phys)


class TestClassicalTrajectory:
    def test_harmonic_closed_form(self):
        times, xs, vs = classical_trajectory(
            ClassicalState(1.0, 0.0), 1.0, 1e-3, 10.0 * np.pi
        )
        assert np.max(np.abs(xs - np.cos(times))) < 1e-9

    def test_free_flight(self):
        times, xs, _ = classical_trajectory(
            ClassicalState(0.5, 2.0), 0.0, 1e-3, 3.0
        )
        assert np.max(np.abs(xs - (0.5 + 2.0 * times))) < 1e-12

    def test_energy_conservation(self):
        k = 3.0
        times, xs, vs = classical_trajectory(
            ClassicalState(1.2, -0.3), k, 1e-3, 20.0
        )
        energy = 0.5 * vs**2 + 0.5 * k * xs**2
        assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-8


class TestValidation:
    def test_variance_positive(self):
        with pytest.raises(ConfigError):
            GaussianMoments(0.0, 0.0, -1.0)

    def test_classical_state_finite(self):
        with pytest.raises(ConfigError):
            ClassicalState(np.inf, 0.0)
