import numpy as np
import pytest

from snsim.errors import ConfigError, DegenerateInputError
from snsim.fields import Grid1D, WaveField, gaussian_packet
from snsim.potentials import (
    ConvolutionKernel,
    HarmonicModelParams,
    PhysParams,
    _kernel_spectrum,
    convolution_self_potential,
    harmonic_external,
    scaling_check,
    self_harmonic,
    self_stiffness,
    sphere_quadratic_kernel,
    validate_self_stiffness,
)

GRID = Grid1D(2048, -24.0, 24.0)


class TestPhysParams:
    def test_positivity(self):
        with pytest.raises(ConfigError):
            PhysParams(G=-1.0)
        with pytest.raises(ConfigError):
            PhysParams(norm_sq=0.0)


class TestHarmonicExternal:
    def test_zero_stiffness(self):
        assert np.all(harmonic_external(GRID, 0.0) == 0.0)

    def test_formula(self):
        v = harmonic_external(GRID, 2.0)
        assert np.allclose(v, GRID.nodes**2)
        # k_ext = 2 at x = 1 gives exactly 1
        i = int(round((1.0 - GRID.x_min) / GRID.dx))
        assert v[i] == pytest.approx(GRID.nodes[i] ** 2)

    def test_minimum_at_origin(self):
        v = harmonic_external(GRID, 3.0)
        assert abs(GRID.nodes[np.argmin(v)]) <= GRID.dx

    def test_negative_stiffness_rejected(self):
        with pytest.raises(ConfigError):
            harmonic_external(GRID, -1.0)


class TestSelfHarmonic:
    MODEL = HarmonicModelParams(k_ext=0.0, k_self=5.0)

    def test_centered_packet(self):
        f = gaussian_packet(GRID, 0.0, 1.0)
        v = self_harmonic(f, self.MODEL)
        assert np.max(np.abs(v - 2.5 * GRID.nodes**2)) < 1e-10

    def test_translation_covariance(self):
        d = 64 * GRID.dx  # exact node shift
        f = gaussian_packet(GRID, 0.0, 1.0)
        g = gaussian_packet(GRID, d, 1.0)
        v_f = self_harmonic(f, self.MODEL)
        v_g = self_harmonic(g, self.MODEL)
        assert GRID.nodes[np.argmin(v_g)] - GRID.nodes[np.argmin(v_f)] == (
            pytest.approx(d)
        )
        assert np.max(np.abs(v_g - 2.5 * (GRID.nodes - d) ** 2)) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_force_vanishes(self, seed):
        # the |f|^2-weighted gradient of the self potential is zero for
        # any field: this is what makes the mean motion classical
        rng = np.random.default_rng(seed)
        envelope = np.exp(-0.5 * (GRID.nodes / 3.0) ** 2)
        vals = envelope * (rng.normal(size=GRID.n_points)
                           + 1j * rng.normal(size=GRID.n_points))
        f = WaveField(GRID, vals)
        v = self_harmonic(f, self.MODEL)
        rho = np.abs(f.values) ** 2
        grad_v = np.gradient(v, GRID.dx)
        mean_force = float(np.sum(rho * grad_v) * GRID.dx)
        scale = float(np.sum(rho) * GRID.dx) * np.max(np.abs(grad_v))
        assert abs(mean_force) / scale < 1e-10

    def test_zero_norm_rejected(self):
        f = WaveField(GRID, np.zeros(GRID.n_points))
        with pytest.raises(DegenerateInputError):
            self_harmonic(f, self.MODEL)


class TestConvolutionPotential:
    PHYS = PhysParams(G=2.0)

    def test_zero_kernel(self):
        kernel = ConvolutionKernel(lambda u: np.zeros_like(u), -2.0)
        f = gaussian_packet(GRID, 0.5, 1.0)
        assert np.max(np.abs(convolution_self_potential(f, kernel))) == 0.0

    def test_quadratic_kernel_expansion(self):
        # F(u) = u^2 expands exactly: -G m^2 N^2 (x^2 - 2 x <x> + <x^2>)
        kernel = ConvolutionKernel(lambda u: u * u, -self.PHYS.G)
        f = gaussian_packet(GRID, 0.7, 1.2, norm_sq=1.5)
        v = convolution_self_potential(f, kernel)
        x = GRID.nodes
        rho = np.abs(f.values) ** 2
        n2 = rho.sum() * GRID.dx
        mean = (rho * x).sum() * GRID.dx / n2
        mean2 = (rho * x * x).sum() * GRID.dx / n2
        expected = -self.PHYS.G * n2 * (x * x - 2.0 * x * mean + mean2)
        assert np.max(np.abs(v - expected)) < 1e-8 * np.max(np.abs(expected))

    def test_symmetry(self):
        # symmetric density about a node gives a symmetric potential
        kernel = ConvolutionKernel(lambda u: np.exp(-u), -1.0)
        center_index = GRID.n_points // 2 + 32
        center = GRID.nodes[center_index]
        f = gaussian_packet(GRID, center, 1.0)
        v = convolution_self_potential(f, kernel)
        window = 400
        left = v[center_index - window:center_index]
        right = v[center_index + window:center_index:-1]
        assert np.max(np.abs(left - right)) < 1e-10 * np.max(np.abs(v))


class TestConvolutionDirectSum:
    """The FFT route against sum_m rho_m F(|x_i - x_m|) written out."""

    GRID = Grid1D(256, -8.0, 8.0)

    @staticmethod
    def sphere():
        model = HarmonicModelParams(k_ext=0.0, k_self=self_stiffness(1.0, 1.0, 5.0, 1.0),
                                    sphere_mass=1.0, sphere_radius=5.0)
        return sphere_quadratic_kernel(PhysParams(), model)

    @staticmethod
    def gaussian():
        return ConvolutionKernel(lambda u: np.exp(-0.5 * u * u), -1.3)

    @pytest.mark.parametrize("make", ["sphere", "gaussian"])
    def test_matches_direct_sum(self, make):
        kernel = getattr(self, make)()
        grid = self.GRID
        # an asymmetric density, so no symmetry hides an index error
        f = WaveField(grid, gaussian_packet(grid, -1.5, 0.8, velocity=2.0).values
                      + 0.5 * gaussian_packet(grid, 2.0, 1.3).values)
        x = grid.nodes
        rho = np.abs(f.values) ** 2
        direct = np.array([
            kernel.coupling * np.sum(rho * kernel.fn(np.abs(xi - x))) * grid.dx
            for xi in x
        ])
        v = convolution_self_potential(f, kernel)
        assert np.max(np.abs(v - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestScalingCheck:
    KERNEL = ConvolutionKernel(lambda u: np.exp(-0.5 * u * u), -1.0)

    def test_identity(self):
        f = gaussian_packet(GRID, 0.0, 1.0)
        assert scaling_check(f, 1.0, self.KERNEL) == 0.0

    def test_phase_invariance(self):
        f = gaussian_packet(GRID, 0.0, 1.0)
        assert scaling_check(f, 1j, self.KERNEL) < 1e-12

    def test_amplitude_scaling(self):
        f = gaussian_packet(GRID, 0.3, 1.0)
        base = convolution_self_potential(f, self.KERNEL)
        scaled = convolution_self_potential(
            f.with_values(3.0 * f.values), self.KERNEL
        )
        significant = np.abs(base) > 1e-3 * np.max(np.abs(base))
        ratio = scaled[significant] / base[significant]
        assert np.max(np.abs(ratio - 9.0)) < 1e-10

    @pytest.mark.parametrize("lam", [2.0, 1j, 0.3 - 1.7j])
    def test_residual_budget(self, lam):
        f = gaussian_packet(GRID, -0.4, 0.8, velocity=1.0)
        scale = np.max(np.abs(convolution_self_potential(f, self.KERNEL)))
        assert scaling_check(f, lam, self.KERNEL) < 1e-10 * max(
            scale * abs(lam) ** 2, 1.0
        )


class TestSphereKernel:
    def test_matches_self_harmonic_up_to_offset(self):
        phys = PhysParams(G=1.0, norm_sq=1.0)
        sphere_mass, sphere_radius = 2.0, 5.0
        k_self = self_stiffness(phys.G, sphere_mass, sphere_radius,
                                phys.norm_sq)
        model = HarmonicModelParams(k_ext=0.0, k_self=k_self,
                                    sphere_mass=sphere_mass,
                                    sphere_radius=sphere_radius)
        kernel = sphere_quadratic_kernel(phys, model)
        f = gaussian_packet(GRID, 0.6, 1.1)
        v_conv = convolution_self_potential(f, kernel)
        v_mf = self_harmonic(f, model)
        diff = v_conv - v_mf
        offset = diff.mean()
        scale = max(np.max(np.abs(v_conv)), 1.0)
        assert np.max(np.abs(diff - offset)) < 1e-8 * scale

    def test_requires_sphere_data(self):
        phys = PhysParams()
        model = HarmonicModelParams(k_ext=0.0, k_self=1.0)
        with pytest.raises(ConfigError):
            sphere_quadratic_kernel(phys, model)

    def test_equal_parameters_share_one_spectrum(self):
        # each call returned a fresh closure, so every kernel missed the
        # spectrum cache and the cache filled with dead spectra
        phys = PhysParams(G=1.0, mass=1.5, norm_sq=2.0)
        model = HarmonicModelParams(k_ext=0.0, k_self=0.032, sphere_mass=2.0,
                                    sphere_radius=5.0)
        first = sphere_quadratic_kernel(phys, model)
        second = sphere_quadratic_kernel(phys, model)
        assert first == second and hash(first) == hash(second)
        spectrum = _kernel_spectrum(first, GRID)
        misses = _kernel_spectrum.cache_info().misses
        assert _kernel_spectrum(second, GRID) is spectrum
        assert _kernel_spectrum.cache_info().misses == misses

        # the closure the kernel used to be, bit for bit
        msq, m2, radius = 4.0, 2.25, 5.0

        def closure(u):
            return (msq / m2) * (3.0 / (5.0 * radius) - u * u / (4.0 * radius**3))

        reference = ConvolutionKernel(closure, -phys.G * m2, "sphere-quadratic")
        assert np.array_equal(_kernel_spectrum(reference, GRID), spectrum)


class TestStiffnessConsistency:
    def test_formula(self):
        assert self_stiffness(2.0, 3.0, 2.0, 4.0) == pytest.approx(
            2.0 * 9.0 * 4.0 / 16.0
        )

    def test_agreement_passes(self):
        phys = PhysParams(G=1.0, norm_sq=2.0)
        k = self_stiffness(1.0, 1.5, 3.0, 2.0)
        model = HarmonicModelParams(k_ext=0.0, k_self=k, sphere_mass=1.5,
                                    sphere_radius=3.0)
        validate_self_stiffness(model, phys)  # no raise

    def test_disagreement_rejected(self):
        phys = PhysParams(G=1.0, norm_sq=2.0)
        k = self_stiffness(1.0, 1.5, 3.0, 2.0)
        model = HarmonicModelParams(k_ext=0.0, k_self=k * (1.0 + 1e-9),
                                    sphere_mass=1.5, sphere_radius=3.0)
        with pytest.raises(ConfigError):
            validate_self_stiffness(model, phys)

    @pytest.mark.parametrize("mass, radius", [(1e200, 1.0), (1.0, 1e-200),
                                              (1e-200, 1e-200)])
    def test_non_finite_stiffness_refused(self, mass, radius):
        # M**2 overflows, R**3 underflows to zero, or both numerator and
        # denominator do: a ConfigError naming the keys, not a traceback
        with pytest.raises(ConfigError) as err:
            self_stiffness(1.0, mass, radius, 1.0)
        assert "sphere_mass" in str(err.value) and "sphere_radius" in str(err.value)


class TestPhaseQuadraticInvariants:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        kernel = ConvolutionKernel(lambda u: 1.0 / (1.0 + u * u), -1.0)
        envelope = np.exp(-0.5 * (GRID.nodes / 4.0) ** 2)
        vals = envelope * (rng.normal(size=GRID.n_points)
                           + 1j * rng.normal(size=GRID.n_points))
        f = WaveField(GRID, vals)
        scale = np.max(np.abs(convolution_self_potential(f, kernel)))
        assert scaling_check(f, np.exp(1j * 0.83), kernel) < 1e-12 * scale
        assert scaling_check(f, 2.5, kernel) < 1e-10 * scale * 6.25
