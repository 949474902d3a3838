"""Property tests: config round trip, validated configs run, invariances."""

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from snsim.errors import ConfigError, SimulationError
from snsim.fields import Grid1D, WaveField, gaussian_packet, moments, phase_amplitude
from snsim.potentials import (
    HarmonicModelParams,
    PhysParams,
    convolution_self_potential,
    sphere_quadratic_kernel,
)
from snsim.propagate import _kernel_family
from snsim.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    parse_config,
    render_config,
    run_scenario,
    validate_config,
)

# the same examples on every run, and no example database on disk
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


KEYS = {
    "x_min": _finite(-40.0, -4.0),
    "x_max": _finite(4.0, 40.0),
    "mass": _finite(0.5, 2.0),
    "G": _finite(0.5, 2.0),
    "norm_sq": _finite(0.5, 2.0),
    "k_ext": _finite(0.0, 4.0),
    "k_self": _finite(0.0, 50.0),
    "stiffness_ratio": _finite(1.0, 100.0),
    "sphere_mass": _finite(0.5, 2.0),
    "sphere_radius": _finite(2.0, 8.0),
    "output_stride": st.integers(1, 8),
    # now and then far off the grid, where the packet has no density
    "init_center": st.one_of(_finite(-2.0, 2.0), st.sampled_from([-1e3, 1e3])),
    "init_width": _finite(0.3, 2.0),
    "init_velocity": _finite(-2.0, 2.0),
    "pilot_center": _finite(-1.0, 1.0),
    "pilot_chirp": _finite(-0.1, 0.0),
    "pilot_width": _finite(2.0, 10.0),
    "variance_ratio": _finite(1e-3, 0.5),
    "r_max": _finite(10.0, 60.0),
    "relax_tol": _finite(1e-8, 1e-4),
    "snapshots": st.booleans(),
}


@st.composite
def configs(draw):
    """A scenario with a few keys overridden, on a small grid.

    At most 256 nodes and 128 radial points, and 300 steps where dt and
    t_end are both set, so that one example runs in milliseconds.
    """
    scenario = draw(st.sampled_from(SCENARIOS))
    chosen = set(draw(st.sets(st.sampled_from(sorted(KEYS)), max_size=6)))
    values = {k: draw(KEYS[k]) for k in sorted(chosen)}
    values.update(scenario=scenario,
                  n_points=draw(st.sampled_from([1, 64, 128, 256])),
                  radial_points=draw(st.sampled_from([32, 64, 128])))
    if draw(st.booleans()):
        values["t_end"] = draw(_finite(0.05, 1.0))
        values["dt"] = values["t_end"] / draw(st.integers(20, 300))
    return ScenarioConfig(**values)


@PROPERTY
@given(configs())
def test_render_parse_round_trip(cfg):
    assume(not validate_config(cfg))
    assert parse_config(render_config(cfg)) == cfg


# figure1 with a subnormal k_ext, found with derandomize=False and
# --hypothesis-seed=7: each broke the validation or the run
SUBNORMAL_K_EXT = dict(scenario="figure1", k_ext=5e-324, radial_points=32)


@settings(PROPERTY, max_examples=300)
@given(configs())
@example(ScenarioConfig(**SUBNORMAL_K_EXT, k_self=1.0, n_points=64, x_max=4.0,
                        pilot_width=2.0))
@example(ScenarioConfig(**SUBNORMAL_K_EXT, k_self=0.0, n_points=64, x_max=4.0,
                        pilot_width=2.0))
@example(ScenarioConfig(**SUBNORMAL_K_EXT, k_self=0.0, n_points=1, mass=2.0))
@example(ScenarioConfig(**SUBNORMAL_K_EXT, n_points=1))
def test_valid_config_runs_or_raises_simulation_error(cfg):
    assume(not validate_config(cfg))
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario(cfg, out)
        except ConfigError as exc:
            # validate_config states every rule but this one, which needs
            # the solved profile
            assert cfg.scenario == "choquard" and "enlarge r_max" in str(exc)
        except SimulationError:
            pass


@PROPERTY
@given(st.sampled_from(SCENARIOS), st.fixed_dictionaries({
    k: st.floats(allow_nan=False, allow_infinity=False)
    for k in ("G", "norm_sq", "sphere_mass", "sphere_radius", "k_self")}))
def test_validate_config_never_raises_on_sphere_keys(scenario, values):
    # overflowing and underflowing sphere stiffnesses included
    assert isinstance(validate_config(ScenarioConfig(scenario, **values)), list)


GRID = Grid1D(64, -8.0, 8.0)


@st.composite
def fields(draw):
    """A Gaussian envelope times a random band-limited complex factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = np.zeros(GRID.n_points, dtype=complex)
    modes[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
    modes[0] += 4.0
    envelope = np.exp(-0.5 * (GRID.nodes / draw(_finite(1.0, 3.0))) ** 2)
    return WaveField(GRID, envelope * np.fft.ifft(modes) * GRID.n_points)


def _close(a, b, rel):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) <= rel * scale


@PROPERTY
@given(fields(), _finite(-np.pi, np.pi), _finite(1e-3, 1e3))
def test_phase_amplitude_gauge_and_scaling(f, theta, lam):
    base = phase_amplitude(f)
    # the ratios f'/f amplify the derivative's roundoff by max|f| / |f|,
    # which reaches 1e8 at the mask edge; compare them where |f| is at
    # least 1e-4 of its peak
    solid = base.amplitude > 1e-4 * base.amplitude.max()
    for g, amp_factor in ((f.with_values(np.exp(1j * theta) * f.values), 1.0),
                          (f.with_values(lam * f.values), lam)):
        pa = phase_amplitude(g)
        assert np.array_equal(pa.valid, base.valid)
        assert _close(pa.amplitude / amp_factor, base.amplitude, rel=1e-12)
        for name in ("phase_gradient", "phase_laplacian", "log_amp_gradient"):
            got, want = getattr(pa, name), getattr(base, name)
            assert _close(got[solid], want[solid], rel=1e-9), name


@PROPERTY
@given(fields(), _finite(-np.pi, np.pi), _finite(1e-3, 1e3))
def test_moments_gauge_and_scaling(f, theta, lam):
    base = moments(f)
    for g in (f.with_values(np.exp(1j * theta) * f.values),
              f.with_values(lam * f.values)):
        for got, want in zip(moments(g), base):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


@PROPERTY
@given(st.integers(1, 12), _finite(-3.0, 3.0), _finite(0.3, 2.0),
       _finite(0.5, 50.0))
def test_sphere_moment_form_is_the_convolution(log2_n, center, width, radius):
    # the V_self a sphere-kernel run logs its energy with, from the moments
    n = 2**log2_n
    grid = Grid1D(n, -8.0, 8.0)
    psi = gaussian_packet(grid, center, width, velocity=1.0)
    kernel = sphere_quadratic_kernel(PhysParams(), HarmonicModelParams(
        k_ext=0.0, k_self=0.0, sphere_mass=1.0, sphere_radius=radius))
    family = _kernel_family(psi, kernel, np.zeros(n))
    x = grid.nodes
    rho = np.abs(psi.values) ** 2
    mean = (rho * x).sum() / rho.sum()
    variance = (rho * x * x).sum() / rho.sum() - mean * mean
    moment_form = family.offset + 0.5 * family.k_self * ((x - mean) ** 2 + variance)
    want = convolution_self_potential(psi, kernel)
    assert np.max(np.abs(moment_form - want)) <= 1e-12 * np.max(np.abs(want))
