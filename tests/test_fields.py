import numpy as np
import pytest

from snsim.errors import ConfigError
from snsim.fields import (
    Grid1D,
    WaveField,
    gaussian_packet,
    moments,
    phase_amplitude,
    spectral_gradient,
    squared_norm,
)
from snsim.oracles import coherent_state


GRID = Grid1D(4096, -32.0, 32.0)


def unit_gaussian(grid, center=0.0):
    x = grid.nodes
    return WaveField(grid, np.pi**-0.25 * np.exp(-0.5 * (x - center) ** 2))


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            Grid1D(1000, -1.0, 1.0)

    def test_ordering_required(self):
        with pytest.raises(ConfigError):
            Grid1D(128, 2.0, -2.0)

    def test_spacing(self):
        g = Grid1D(256, -8.0, 8.0)
        assert g.dx == pytest.approx(16.0 / 256)
        assert g.nodes[0] == pytest.approx(-8.0)
        assert g.nodes[-1] == pytest.approx(8.0 - g.dx)


class TestWaveField:
    def test_shape_checked(self):
        with pytest.raises(ConfigError):
            WaveField(GRID, np.zeros(7))

    def test_finite_checked(self):
        bad = np.zeros(GRID.n_points, dtype=complex)
        bad[5] = np.nan
        with pytest.raises(ConfigError):
            WaveField(GRID, bad)

    def test_values_read_only(self):
        f = unit_gaussian(GRID)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_owns_buffer(self):
        buf = np.ones(GRID.n_points, dtype=complex)
        WaveField(GRID, buf)
        buf[0] = 2.0  # caller's buffer must stay writable


class TestSquaredNorm:
    def test_unit_gaussian(self):
        assert squared_norm(unit_gaussian(GRID)) == pytest.approx(1.0, abs=1e-10)

    def test_zero_field(self):
        assert squared_norm(WaveField(GRID, np.zeros(GRID.n_points))) == 0.0

    def test_scaled_gaussian(self):
        # closed form: 9 * integral of exp(-x^2)/sqrt(pi) = 9
        f = unit_gaussian(GRID)
        assert squared_norm(f.with_values(3.0 * f.values)) == pytest.approx(
            9.0, abs=1e-8
        )


class TestSpectralGradient:
    def test_constant(self):
        f = WaveField(GRID, np.full(GRID.n_points, 2.3 + 0.0j))
        assert np.max(np.abs(spectral_gradient(f).values)) < 1e-12

    def test_plane_wave_eigenfunction(self):
        k = GRID.wavenumbers[17]
        f = WaveField(GRID, np.exp(1j * k * GRID.nodes))
        expected = 1j * k * f.values
        assert np.max(np.abs(spectral_gradient(f).values - expected)) < 1e-10

    def test_against_finite_difference_oracle(self):
        # independent oracle: 4th-order centered differences
        f = unit_gaussian(GRID)
        v = f.values
        dx = GRID.dx
        fd = (
            -np.roll(v, -2) + 8.0 * np.roll(v, -1)
            - 8.0 * np.roll(v, 1) + np.roll(v, 2)
        ) / (12.0 * dx)
        spectral = spectral_gradient(f).values
        scale = np.max(np.abs(spectral))
        interior = slice(100, GRID.n_points - 100)
        assert np.max(np.abs((spectral - fd)[interior])) / scale < 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        f = WaveField(GRID, rng.normal(size=GRID.n_points)
                      + 1j * rng.normal(size=GRID.n_points))
        g = WaveField(GRID, rng.normal(size=GRID.n_points)
                      + 1j * rng.normal(size=GRID.n_points))
        combo = WaveField(GRID, a * f.values + b * g.values)
        lhs = spectral_gradient(combo).values
        rhs = a * spectral_gradient(f).values + b * spectral_gradient(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


class TestParseval:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        f = WaveField(GRID, rng.normal(size=GRID.n_points)
                      + 1j * rng.normal(size=GRID.n_points))
        ft = np.fft.fft(f.values)
        spectral_norm = float(np.sum(np.abs(ft) ** 2) * GRID.dx / GRID.n_points)
        assert spectral_norm == pytest.approx(squared_norm(f), rel=1e-10)


class TestPhaseAmplitude:
    def test_linear_phase(self):
        # the ratio f'/f amplifies FFT roundoff by 1/|f|, so accuracy is
        # graded: tight in the bulk, looser at the mask edge
        x = GRID.nodes
        f = WaveField(GRID, np.exp(1j * 2.0 * x) * np.exp(-0.5 * x**2))
        pa = phase_amplitude(f)
        bulk = pa.amplitude > 1e-5 * pa.amplitude.max()
        assert np.max(np.abs(pa.phase_gradient[bulk] - 2.0)) < 1e-8
        assert np.max(np.abs(pa.phase_gradient[pa.valid] - 2.0)) < 1e-5

    def test_real_positive_field(self):
        pa = phase_amplitude(unit_gaussian(GRID))
        bulk = pa.amplitude > 1e-3 * pa.amplitude.max()
        assert np.max(np.abs(pa.phase_gradient[bulk])) < 1e-10
        assert np.max(np.abs(pa.phase_gradient[pa.valid])) < 1e-5

    def test_coherent_state_momentum(self, phys):
        # closed-form oracle: phase gradient at the centre equals p(t)/hbar
        omega = 1.0
        t = 0.4
        f, mom = coherent_state(GRID, omega**2, 1.5, t, phys)
        pa = phase_amplitude(f)
        i = int(round((mom.mean - GRID.x_min) / GRID.dx))
        assert pa.valid[i]
        assert pa.phase_gradient[i] == pytest.approx(
            mom.momentum / phys.hbar, abs=1e-6
        )

    def test_global_phase_invariance(self):
        f = unit_gaussian(GRID)
        g = f.with_values(np.exp(1j * 1.234) * f.values)
        pa_f, pa_g = phase_amplitude(f), phase_amplitude(g)
        assert np.array_equal(pa_f.valid, pa_g.valid)
        assert np.max(np.abs(pa_f.amplitude - pa_g.amplitude)) < 1e-12
        bulk = pa_f.amplitude > 1e-5 * pa_f.amplitude.max()
        assert np.max(np.abs(
            pa_f.phase_gradient[bulk] - pa_g.phase_gradient[bulk]
        )) < 1e-9
        assert np.max(np.abs(
            pa_f.phase_gradient[pa_f.valid] - pa_g.phase_gradient[pa_g.valid]
        )) < 1e-5

    def test_mask_flags_tails(self):
        pa = phase_amplitude(unit_gaussian(GRID))
        assert not pa.valid[0] and not pa.valid[-1]
        assert pa.valid.sum() > 0.1 * GRID.n_points


class TestMoments:
    def test_chirped_gaussian(self):
        # for exp(-u^2/(2a^2) + i(m v u + b u^2)): <p> = m v at the centre
        # and the symmetrized x-p covariance is 2 hbar b sigma^2
        a, v, b, c = 0.9, 1.3, 0.4, -2.0
        f = gaussian_packet(GRID, c, a, velocity=v, chirp=b)
        m = moments(f)
        sigma_sq = 0.5 * a * a
        assert m.mean == pytest.approx(c, abs=1e-10)
        assert m.variance == pytest.approx(sigma_sq, rel=1e-10)
        assert m.momentum == pytest.approx(v, rel=1e-9)
        assert m.covariance == pytest.approx(2.0 * b * sigma_sq, rel=1e-9)

    def test_uncertainty_floor(self):
        f = gaussian_packet(GRID, 0.0, 1.0)
        m = moments(f)
        # minimum-uncertainty state: sigma_x * sigma_p = hbar/2
        dpsi = spectral_gradient(f).values
        p2 = float(np.sum(np.abs(dpsi) ** 2) * GRID.dx)
        assert np.sqrt(m.variance * p2) == pytest.approx(0.5, rel=1e-8)
