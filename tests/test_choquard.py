import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snsim
from snsim.choquard import (
    RadialGrid,
    energy_functional,
    radial_newton_potential,
    solve_ground_state,
    spectrum_value,
    write_result_records,
)
from snsim.errors import ConfigError, ConvergenceError
from snsim.potentials import PhysParams


@pytest.fixture(scope="module")
def ground_n1():
    return solve_ground_state(PhysParams(), 1.0)


@pytest.fixture(scope="module")
def ground_n2():
    return solve_ground_state(PhysParams(), 2.0)


class TestRadialGrid:
    def test_nodes_off_origin(self):
        g = RadialGrid(64, 8.0)
        assert g.nodes[0] == pytest.approx(0.5 * g.dr)
        assert np.all(g.nodes > 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RadialGrid(4, 8.0)
        with pytest.raises(ConfigError):
            RadialGrid(64, -1.0)


class TestNewtonPotential:
    def test_point_like_density(self):
        # everything inside the innermost shells: exterior is -G M N^2 / r
        grid = RadialGrid(4096, 20.0)
        r = grid.nodes
        profile = np.exp(-(r / 0.05) ** 2)
        norm_sq = 4.0 * np.pi * np.sum(r**2 * profile**2) * grid.dr
        phi = radial_newton_potential(profile, grid, G=1.0, M=1.0)
        outside = r > 1.0
        expected = -norm_sq / r[outside]
        assert np.max(np.abs(phi[outside] / expected - 1.0)) < 1e-4

    def test_uniform_ball(self):
        # classical closed form inside a homogeneous ball of radius R0;
        # the ball edge sits on a cell boundary so each cell is fully
        # inside or outside
        grid = RadialGrid(8000, 10.0)
        r = grid.nodes
        r0 = 1600 * grid.dr
        profile = np.where(r <= r0, 1.0, 0.0)
        norm_sq = 4.0 * np.pi * np.sum(r**2 * profile**2) * grid.dr
        phi = radial_newton_potential(profile, grid, G=1.0, M=1.0)
        inside = r < r0 - 2 * grid.dr
        expected = -norm_sq * (3.0 * r0**2 - r[inside] ** 2) / (2.0 * r0**3)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(phi[inside] - expected)) / scale < 1e-5

    def test_zero_density(self):
        grid = RadialGrid(256, 10.0)
        phi = radial_newton_potential(np.zeros(256), grid, G=1.0, M=1.0)
        assert np.all(phi == 0.0)

    def test_shell_theorem_exterior(self):
        # any compactly supported density looks point-like outside
        grid = RadialGrid(4096, 30.0)
        r = grid.nodes
        profile = np.exp(-((r - 1.5) ** 2)) * (r < 6.0)
        norm_sq = 4.0 * np.pi * np.sum(r**2 * profile**2) * grid.dr
        phi = radial_newton_potential(profile, grid, G=2.0, M=1.5)
        outside = r > 8.0
        expected = -2.0 * 1.5 * norm_sq / r[outside]
        assert np.max(np.abs(phi[outside] / expected - 1.0)) < 1e-6


class TestGroundState:
    def test_unit_norm_level(self, ground_n1):
        # dimensionless ground level from the published fit: one of the
        # two energies must land within 10 percent
        expected = spectrum_value(0)
        dev_eig = abs(abs(ground_n1.eigenvalue) / expected - 1.0)
        dev_fun = abs(abs(ground_n1.functional_energy) / expected - 1.0)
        assert min(dev_eig, dev_fun) <= 0.10
        # and it is the eigenvalue that matches
        assert dev_eig < dev_fun

    def test_cubic_norm_scaling(self, ground_n1, ground_n2):
        ratio = ground_n2.functional_energy / ground_n1.functional_energy
        assert ratio == pytest.approx(8.0, rel=0.01)

    def test_domain_independence(self, ground_n1):
        bigger = solve_ground_state(PhysParams(), 1.0,
                                    grid=RadialGrid(8192, 100.0))
        assert abs(bigger.eigenvalue / ground_n1.eigenvalue - 1.0) < 1e-6

    def test_bound_state_invariants(self, ground_n1):
        assert ground_n1.eigenvalue < 0.0
        assert abs(ground_n1.norm_sq - 1.0) <= 1e-10
        assert np.all(ground_n1.profile > -1e-12 * ground_n1.profile.max())
        assert 0.5 <= ground_n1.extent <= 10.0

    def test_virial_relation(self, ground_n1):
        # 1/r interaction at the minimizer: eigenvalue = 3 * functional
        assert ground_n1.eigenvalue == pytest.approx(
            3.0 * ground_n1.functional_energy, rel=1e-3
        )

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError) as err:
            solve_ground_state(PhysParams(), 1.0, max_sweeps=2)
        assert len(err.value.history) >= 1

    def test_small_domain_rejected(self):
        with pytest.raises(ConfigError):
            solve_ground_state(PhysParams(), 1.0, grid=RadialGrid(512, 6.0))


def test_scipy_loaded_only_by_the_solver():
    # scipy.linalg more than doubles the start-up time of a CLI process, yet
    # only solve_ground_state uses it
    code = (
        "import sys\n"
        "import snsim.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "from snsim.choquard import solve_ground_state\n"
        "from snsim.potentials import PhysParams\n"
        "result = solve_ground_state(PhysParams(), 1.0)\n"
        "assert 'scipy' in sys.modules and result.eigenvalue < 0.0\n"
    )
    src = str(Path(snsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestEnergyFunctional:
    def test_zero_profile(self):
        grid = RadialGrid(256, 10.0)
        assert energy_functional(np.zeros(256), grid) == 0.0

    def test_gaussian_kinetic_term(self):
        # with the coupling switched off only the kinetic term remains:
        # 3 hbar^2 N^2 / (8 M sigma^2) for |phi|^2 with per-axis std sigma
        grid = RadialGrid(16384, 24.0)
        r = grid.nodes
        sigma = 1.0
        profile = np.exp(-(r**2) / (4.0 * sigma**2))
        norm_sq = 4.0 * np.pi * np.sum(r**2 * profile**2) * grid.dr
        profile /= np.sqrt(norm_sq)
        phys = PhysParams(G=1e-300)
        value = energy_functional(profile, grid, phys)
        assert value == pytest.approx(3.0 / (8.0 * sigma**2), rel=1e-6)

    def test_local_minimality(self, ground_n1):
        grid = ground_n1.grid
        rng = np.random.default_rng(11)
        base = energy_functional(ground_n1.profile, grid)
        for _ in range(3):
            bump = rng.normal(size=grid.n_points)
            smooth = np.convolve(bump, np.ones(41) / 41.0, mode="same")
            perturbed = ground_n1.profile * (1.0 + 1e-3 * smooth)
            norm = 4.0 * np.pi * np.sum(grid.nodes**2 * perturbed**2) * grid.dr
            perturbed *= np.sqrt(ground_n1.norm_sq / norm)
            assert energy_functional(perturbed, grid) >= base - 1e-12


class TestSpectrum:
    def test_published_constants(self):
        assert spectrum_value(0) == pytest.approx(0.096 / 0.76**2, rel=1e-12)
        assert spectrum_value(0) == pytest.approx(0.16620498614958448)

    def test_monotone_decreasing(self):
        values = [spectrum_value(n) for n in range(40)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4 * values[0] + values[0] / (40 - 1 + 0.76) ** 2

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError):
            spectrum_value(-1)


class TestResultRecord:
    def test_record_format(self, tmp_path, ground_n1):
        path = tmp_path / "choquard_results.tsv"
        path.write_text("an earlier run's records\n")
        write_result_records(path, [ground_n1, ground_n1])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        cells = lines[0].split("\t")
        assert len(cells) == 5
        assert float(cells[0]) == pytest.approx(ground_n1.norm_sq)
        assert float(cells[1]) == pytest.approx(ground_n1.eigenvalue)
        assert int(cells[4]) == ground_n1.iters
