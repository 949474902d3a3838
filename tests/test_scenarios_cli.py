import dataclasses
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import snsim.scenarios
from snsim.cli import main
from snsim.errors import ConfigError, ExtractionError, SimulationError
from snsim.guidance import decompose_run, frame_sample, write_guidance_csv
from snsim.potentials import _kernel_spectrum
from snsim.propagate import write_snapshots
from snsim.scenarios import (
    ScenarioConfig,
    _resolve_model,
    build_boost,
    build_ehrenfest,
    build_figure1,
    build_ground_state,
    checks,
    parse_config,
    render_config,
    resolve_sweep_window,
    run_scenario,
    sweep,
    validate_config,
)
from snsim.textio import write_table

# a cheap but resolved oscillating-soliton configuration for CLI tests
SMALL_FIG_TEXT = "scenario = figure1\nn_points = 2048\n"

# a norm_sq of 1e308 overflows sum |psi|^2 in these
NORM_OVERFLOW = {
    "ground-state": {"scenario": "ground-state"},
    "boost": {"scenario": "boost", "t_end": 0.02},
    "figure1": {"t_end": 0.02},
}

# each rule a scenario's plan states: a template, and a value of one key
# that breaks the rule, with a fragment of the plan's message
PLAN_RULES = {
    "figure1-outputs": ({"n_points": 1024}, "output_stride", 500,
                        "leaves 1 output times in 400 steps"),
    "figure1-k_ext": ({"n_points": 1024}, "k_ext", 0.0,
                      "figure1 needs k_ext > 0"),
    # a subnormal k_ext: omega_fast underflowed to 0 and t_end = 4 pi / 0
    # raised ZeroDivisionError
    "figure1-subnormal-k_ext-mass-2": ({"k_self": 0.0, "mass": 2.0}, "k_ext",
                                       5e-324, "k_ext = 5e-324, omega_fast = 0.0"),
    # the stationary width overflowed: OverflowError from the grid's ceil
    "figure1-subnormal-k_ext-one-node": ({"k_self": 0.0, "n_points": 1}, "k_ext",
                                         5e-324, "needs normal, finite scales: k_ext"),
    # ran, dividing the mean-motion residual by max|k_ext <x>| ~ 0
    "figure1-subnormal-k_ext-self-trap": (
        {"k_self": 1.0, "n_points": 64, "x_max": 4.0, "pilot_width": 2.0},
        "k_ext", 5e-324, "needs normal, finite scales: k_ext"),
    # ran to t ~ 1e162, where the moment-flow oracle overflowed
    "figure1-subnormal-k_ext-given-pilot": (
        {"k_self": 0.0, "pilot_width": 2.0}, "k_ext", 5e-324,
        "needs normal, finite scales: k_ext"),
    # (k_ext + k_self) * mass underflowed to 0: ZeroDivisionError in the
    # stationary width
    "figure1-width-underflow": ({"k_ext": 1e-300, "k_self": 1e-20}, "mass",
                                1e-305, "init_width = inf"),
    "lone-x_min": ({"n_points": 1024}, "x_min", 50.0,
                   "x_min must be below x_max"),
    "dt-bound": ({"n_points": 1024}, "dt", 0.1, "exceeds the accuracy bound"),
    # 29 steps of 0.69 against dt_max = 0.627 ran, and the trapped packet
    # then failed the boundary-leak check as if the domain were too small
    "ehrenfest-dt-bound": ({"scenario": "ehrenfest", "n_points": 1024,
                            "t_end": 20.0}, "dt", 0.7,
                           "exceeds the accuracy bound"),
    # t_end / dt overflowed to inf: OverflowError from the step count's ceil
    "figure1-dt-underflow": ({"n_points": 1024}, "dt", 5e-324,
                             "t_end/dt = "),
    "boost-dt-underflow": ({"scenario": "boost"}, "dt", 5e-324,
                           "t_end/dt = "),
    "boost-t_end-overflow": ({"scenario": "boost", "dt": 1e-10}, "t_end", 1e308,
                             "t_end/dt = "),
    "ehrenfest-dt-underflow": ({"scenario": "ehrenfest", "n_points": 1024}, "dt",
                               5e-324, "t_end/dt = "),
    # 4e11, 2e11 and 2e12 steps were planned, and the run started
    "figure1-runaway-steps": ({"n_points": 1024}, "dt", 1e-12,
                              "plans 3.97185e+11 steps, above the cap of 10000000"),
    "boost-runaway-steps": ({"scenario": "boost"}, "dt", 1e-12,
                            "plans 1.98692e+11 steps, above the cap"),
    "ehrenfest-runaway-steps": ({"scenario": "ehrenfest", "n_points": 1024}, "dt",
                                1e-12, "plans 2e+12 steps, above the cap"),
    # ran, dividing the trapped run's mean-motion residual by max|k_ext <x>|:
    # a RuntimeWarning and trapped_rel = inf, or 1e299, reported as a FAIL
    "ehrenfest-subnormal-k_ext": ({"scenario": "ehrenfest", "n_points": 1024,
                                   "mass": 1e10, "G": 1e-320}, "k_ext", 5e-324,
                                  "ehrenfest needs normal, finite scales: k_ext"),
    "ehrenfest-subnormal-omega_sq": ({"scenario": "ehrenfest", "n_points": 1024,
                                      "k_ext": 1e-300}, "mass", 1e10,
                                     "ehrenfest needs normal, finite scales: "
                                     "omega_sq = 1e-310"),
    "sphere-stiffness": ({"n_points": 1024, "sphere_radius": 1.0},
                         "sphere_mass", 1e200, "is not a finite number"),
    # a velocity below half the grid's step used to run a packet at rest
    "boost-velocity-snap": ({"scenario": "boost", "n_points": 256, "x_min": -4.0,
                             "x_max": 4.0}, "init_velocity", 0.3,
                            "the boost velocity rounds to 0"),
    # the period underflowed to 0: validate_config raised ZeroDivisionError
    # from the step count's t_end / dt
    "boost-subnormal-mass": ({"scenario": "boost"}, "mass", 5e-324,
                             "boost needs normal, finite scales: omega = inf, "
                             "period = 0.0"),
    # dr underflowed to 0: a ZeroDivisionError traceback from the kinetic
    # coefficient hbar^2 / (2 M dr dr)
    "choquard-r_max-underflow": ({"scenario": "choquard"}, "r_max", 5e-324,
                                 "needs normal, finite scales: dr = 0.0"),
    # the relaxation seed underflowed to 0 on every node: scipy's
    # "array must not contain infs or NaNs" traceback
    "choquard-r_max-coarse": ({"scenario": "choquard"}, "r_max", 1e7,
                              "r_max / radial_points = 2441 does not resolve"),
    # M dr^2 underflowed to 0: the same ZeroDivisionError traceback
    "choquard-subnormal-mass": ({"scenario": "choquard"}, "mass", 5e-324,
                                "choquard needs normal, finite scales: "
                                "mass_dr_sq = 0.0"),
    # ran, and roundoff in the mean-motion residual read 15.9 times the
    # scale max|k_ext <x>| of a correct run: a FAIL with exit 1
    "ehrenfest-weak-trap": ({"scenario": "ehrenfest", "n_points": 1024}, "k_ext",
                            1e-12, "trapped-ehrenfest divides its residual by "
                            "max|k_ext <x>| = 1.5e-12; its roundoff floor"),
    # ran while the trapped packet breathed down to a_s^2/a0 = 0.0158 (1e6)
    # and 0.0035 (2e7), under two nodes, and stopped at t = 0.068 and 0.008
    # with "boundary density fraction ...; enlarge the domain"
    "ehrenfest-breathes-under-the-grid": (
        {"scenario": "ehrenfest"}, "norm_sq", 1e6,
        "dx = 0.01562, which does not resolve the packet width a = 0.01581"),
    "ehrenfest-breathes-under-a-fine-grid": (
        {"scenario": "ehrenfest", "n_points": 16384}, "norm_sq", 2e7,
        "dx = 0.003906, which does not resolve the packet width a = 0.003536"),
    # sum |psi|^2 overflowed: an overflow RuntimeWarning, then "zero-norm
    # field has no mean position", or a packet said to have no density
    **{f"{scenario}-norm-overflow": (
        template, "norm_sq", 1e308,
        f"{scenario} needs normal, finite scales: sum_rho = inf")
       for scenario, template in NORM_OVERFLOW.items()},
    # ran at rest and reported FAIL on four lines (exit 1): each check
    # divided by a motion scale of roundoff size
    "figure1-at-rest": ({"n_points": 1024}, "init_center", 0.0,
                        "guidance-law-residual divides its residual by "
                        "max|v_drift| = 0; its roundoff floor 3.58e-11"),
    # ran and reported FAIL ehrenfest-residual 6.4e-5 (exit 1)
    "figure1-near-rest": ({"n_points": 1024}, "init_center", 1e-6,
                          "ehrenfest-residual divides its residual by max|k_ext "
                          "<x>| = 9.99e-07; its roundoff floor 4.8e-08"),
    # ran, ignoring variance_ratio: a variance_ratio sweep wrote equal rows
    "figure1-variance-ratio-with-pilot-width": (
        {"n_points": 1024, "pilot_width": 5.0}, "variance_ratio", 0.01,
        "variance_ratio = 0.01 sets pilot_width only while it is unset, and "
        "pilot_width = 5.0 is set"),
    # dx underflowed to 0: accepted, then "has no density on the 4096-node
    # grid [0, 4.94066e-324)" (exit 1)
    "ground-state-dx-underflow": ({"scenario": "ground-state", "x_min": 0.0},
                                  "x_max", 5e-324,
                                  "ground-state needs normal, finite scales: dx = 0.0"),
    # overflow RuntimeWarnings, then "no ground-state convergence after 20000
    # sweeps" (exit 1), which named the wrong cause
    "choquard-energy-overflow": ({"scenario": "choquard", "radial_points": 64},
                                 "norm_sq", 1e226,
                                 "choquard needs normal, finite scales: "
                                 "energy_scale = inf"),
    # an OverflowError traceback from the e0 check's norm_sq**3
    "choquard-e0-overflow": ({"scenario": "choquard"}, "norm_sq", 1e120,
                             "choquard needs normal, finite scales: "
                             "energy_scale = inf"),
    # each ran with the key ignored, exit 0: at k_self 250, then at the
    # default k_self 1000 twice
    "figure1-ratio-beside-k_self": (
        {"n_points": 1024, "k_self": 250.0}, "stiffness_ratio", 10.0,
        "figure1 takes no stiffness_ratio beside k_self: stiffness_ratio = 10.0 "
        "would be ignored"),
    "figure1-lone-sphere_mass": (
        {"n_points": 1024}, "sphere_mass", 2.0,
        "figure1 takes no sphere_mass without sphere_radius: sphere_mass = 2.0 "
        "would be ignored"),
    "figure1-G-without-sphere": (
        {"n_points": 1024}, "G", 2.0,
        "figure1 takes no G without sphere_mass and sphere_radius: G = 2.0 "
        "would be ignored"),
    "ground-state-lone-sphere_radius": (
        {"scenario": "ground-state"}, "sphere_radius", 3.0,
        "ground-state takes no sphere_radius without sphere_mass: "
        "sphere_radius = 3.0 would be ignored"),
}


class TestParseConfig:
    def test_minimal_figure1(self):
        cfg = parse_config("scenario = figure1\n")
        assert cfg.scenario == "figure1"
        model = _resolve_model(cfg, default_k_ext=1.0, default_ratio=1000.0)
        assert model.k_self / model.k_ext == pytest.approx(1000.0)

    def test_comments_and_blanks(self):
        cfg = parse_config(
            "# header\nscenario = boost\n\nk_self = 500  # inline\n"
        )
        assert cfg.scenario == "boost"
        assert cfg.k_self == 500.0

    def test_negative_stiffness_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = figure1\nk_ext = -1\n")
        assert any("k_ext must be >= 0" in msg for msg in err.value.errors)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = figure1\nfoo = 1\n")
        assert any("unknown key 'foo'" in msg for msg in err.value.errors)

    def test_removed_stepper_keys_rejected(self):
        # the stepper has one scheme and one self-consistency rule, so
        # neither is a config key
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = figure1\nscheme = strang_split\n"
                         "self_consistency = midpoint_predictor\n")
        assert any("unknown key 'scheme'" in msg for msg in err.value.errors)
        assert any("unknown key 'self_consistency'" in msg
                   for msg in err.value.errors)

    def test_all_errors_reported(self):
        bad = "scenario = nowhere\nk_ext = -2\nn_points = 1000\nbogus = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.errors) >= 3

    def test_sphere_consistency_error(self):
        text = (
            "scenario = ground-state\nG = 1.0\nnorm_sq = 1.0\n"
            "sphere_mass = 1.0\nsphere_radius = 2.0\nk_self = 0.9\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("sphere" in msg for msg in err.value.errors)

    def test_sphere_consistency_passes(self):
        # k_self = G M^2 N^2 / (2 R^3) = 1/16
        text = (
            "scenario = ground-state\nG = 1.0\nnorm_sq = 1.0\n"
            "sphere_mass = 1.0\nsphere_radius = 2.0\nk_self = 0.0625\n"
        )
        cfg = parse_config(text)
        assert cfg.k_self == 0.0625

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config("scenario = figure1\nk_ext = fast\n")
        assert any("numeric" in msg for msg in err.value.errors)

    def test_round_trip(self):
        cfg = parse_config(
            "scenario = figure1\nk_self = 250\ninit_center = 0.5\n"
            "n_points = 1024\nsnapshots = on\n"
        )
        again = parse_config(render_config(cfg))
        assert again == cfg

    def test_round_trip_defaults(self):
        cfg = ScenarioConfig(scenario="choquard")
        assert parse_config(render_config(cfg)) == cfg

    # each rule is stated once, by its owner or by validate_config; the
    # messages a config collects are the same wherever they come from
    @pytest.mark.parametrize("text, expected", [
        ("k_ext = -1", {"k_ext must be >= 0"}),
        ("n_points = 1000", {"n_points must be a power of two"}),
        ("mass = -1\nr_max = -2\nradial_points = 4\nscenario = choquard",
         {"mass must be > 0", "r_max must be > 0", "radial_points must be >= 8"}),
        ("sphere_mass = 1\nsphere_radius = 2\nk_self = 0.9",
         {"k_self=0.9 disagrees with the sphere value G*M^2*N^2/(2R^3)=0.0625"}),
        ("x_min = 3\nx_max = 1", {"x_min must be below x_max"}),
        ("variance_ratio = 2", {"variance_ratio must lie in (0, 1)"}),
        ("scenario = nowhere", {"scenario must be one of figure1, ground-state, "
                                "choquard, ehrenfest, boost"}),
        # k_self sets the model, so stiffness_ratio beside it is refused,
        # consistent with k_ext or not
        ("k_ext = 1\nk_self = 5\nstiffness_ratio = 4",
         {"figure1 takes no stiffness_ratio beside k_self: stiffness_ratio = 4.0 "
          "would be ignored"}),
        # the kernel is the ehrenfest scenario's sphere; no key selects it
        ("kernel = sphere-quadratic", {"line 1: unknown key 'kernel'"}),
        ("G = 0\nnorm_sq = -1\nsphere_mass = -1",
         {"G must be > 0", "norm_sq must be > 0", "sphere_mass must be > 0"}),
    ])
    def test_messages_pinned(self, text, expected):
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\n")
        assert set(err.value.errors) == expected


    @pytest.mark.parametrize("key", ["k_self", "stiffness_ratio"])
    def test_ehrenfest_refuses_stiffness_keys(self, key):
        # ehrenfest simulates the sphere's stiffness; an explicit one was
        # accepted and silently ignored, and is now refused as every key
        # a scenario does not read is
        errors = validate_config(ScenarioConfig(scenario="ehrenfest",
                                                **{key: 3.0}))
        assert errors == [f"ehrenfest takes no {key}: {key} = 3.0 would be ignored"]


# a valid value, away from its default, of each key some scenario does not read
NON_DEFAULT = {
    "n_points": 1024, "x_min": -20.0, "x_max": 20.0, "k_ext": 2.0, "k_self": 3.0,
    "stiffness_ratio": 4.0, "sphere_mass": 2.0, "sphere_radius": 3.0, "dt": 1e-3,
    "t_end": 0.5, "output_stride": 2, "init_center": 0.5, "init_width": 0.5,
    "init_velocity": 1.0, "pilot_center": 0.5, "pilot_chirp": -0.02,
    "pilot_width": 4.0, "variance_ratio": 0.01, "radial_points": 1024,
    "r_max": 30.0, "relax_tol": 1e-8, "snapshots": True,
}
TABLE = snsim.scenarios._SCENARIO_TABLE
UNREAD = [(scenario, f.name) for scenario, row in TABLE.items()
          for f in dataclasses.fields(ScenarioConfig)[1:] if f.name not in row.keys]
README = Path(__file__).resolve().parents[1] / "README.md"


class TestScenarioKeys:
    """Each scenario reads the keys its row lists and refuses every other."""

    def test_accepted_pairs(self):
        assert {s: len(row.keys) for s, row in TABLE.items()} == {
            "figure1": 21, "ground-state": 12, "choquard": 6, "ehrenfest": 13,
            "boost": 14}
        assert len(UNREAD) == 125 - 66

    @pytest.mark.parametrize("scenario, key", UNREAD,
                             ids=[f"{s}-{k}" for s, k in UNREAD])
    def test_unread_key_refused(self, tmp_path, capsys, scenario, key):
        # each ran, ignoring the key, with exit 0: ground-state's dt,
        # choquard's n_points, a boost sweep over init_width of equal rows
        value = NON_DEFAULT[key]
        text = snsim.scenarios._render_value(key, value)
        message = f"{scenario} takes no {key}: {key} = {text} would be ignored"
        assert validate_config(ScenarioConfig(scenario, **{key: value})) == [message]
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = {text}\n")
        out = tmp_path / "out"
        assert main(["run", scenario, "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        if isinstance(value, bool):  # the template sets it
            sweep_args = ["--config", str(cfg_path), "--param", "mass",
                          "--values", "2"]
        else:
            sweep_args = ["--param", key, "--values", f"{value!r}"]
            message = f"{key}={value:g}: {message}"
        assert main(["sweep", "--scenario", scenario, *sweep_args,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scenario", list(TABLE))
    def test_listed_keys_are_read(self, monkeypatch, scenario):
        reads = set()
        names = {f.name for f in dataclasses.fields(ScenarioConfig)}

        class Recording(ScenarioConfig):
            def __getattribute__(self, name):
                if name in names and not paused:
                    reads.add(name)
                return super().__getattribute__(name)

        # dataclasses.replace copies every field: that is no read
        paused, replace = False, dataclasses.replace

        def quiet_replace(obj, **changes):
            nonlocal paused
            paused = True
            try:
                return replace(obj, **changes)
            finally:
                paused = False

        monkeypatch.setattr(dataclasses, "replace", quiet_replace)
        row = TABLE[scenario]
        cfg = Recording(scenario)
        reads.clear()
        row.plan(cfg)
        getattr(snsim.scenarios, row.builder)(cfg)
        assert row.keys <= reads, sorted(row.keys - reads)

    def test_readme_lists_the_keys(self):
        rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", README.read_text(),
                          re.MULTILINE)
        assert {s: set(re.findall(r"`(\w+)`", keys)) for s, keys in rows} == {
            s: row.keys for s, row in TABLE.items()}


class TestRunPlan:
    """Grid, steps and output stride resolved from the config."""

    @pytest.mark.parametrize("template, param, value, fragment",
                             PLAN_RULES.values(), ids=list(PLAN_RULES))
    def test_validate_config_states_plan_rule(self, template, param, value,
                                              fragment):
        # validate_config refuses what the builder refuses, in its words
        cfg = ScenarioConfig(**template, **{param: value})
        builder = getattr(snsim.scenarios,
                          "build_" + cfg.scenario.replace("-", "_"))
        with pytest.raises(ConfigError) as err:
            builder(cfg)
        assert any(fragment in msg for msg in err.value.errors)
        assert validate_config(cfg) == err.value.errors

    def test_step_cap(self):
        # a plan of MAX_STEPS steps is made; one step more is refused
        cap = snsim.scenarios.MAX_STEPS
        cfg = ScenarioConfig(scenario="ehrenfest")
        plan = snsim.scenarios._steps(cfg, 1.0, 1.0 / cap, 200, 5, "the check")
        assert plan.n_steps == cap
        with pytest.raises(ConfigError, match="above the cap of 10000000"):
            snsim.scenarios._steps(cfg, 1.0, 1.0 / (cap + 1), 200, 5, "the check")

    def test_boost_explicit_stride_one(self):
        # 504 steps: an explicit stride of 1 logs every one, where an
        # unset stride gives about 50 outputs
        cfg = ScenarioConfig(scenario="boost", n_points=1024, t_end=0.05)
        explicit = build_boost(dataclasses.replace(cfg, output_stride=1))
        assert len(explicit.log.times) == 505
        assert len(build_boost(cfg).log.times) == 51

    def test_boost_grid_converged(self):
        # the default grid of 4096 nodes and one of 2048 give the same
        # deformation, 7.04135494e-7 against 7.04135486e-7: a smaller
        # default grid must keep this
        fine = build_boost(ScenarioConfig(scenario="boost"))
        coarse = build_boost(ScenarioConfig(scenario="boost", n_points=2048))
        assert all(c.passed for c in checks(fine) + checks(coarse))
        assert coarse.metrics["deformation"] == pytest.approx(
            fine.metrics["deformation"], rel=1e-7, abs=0.0)

    def test_ehrenfest_explicit_stride_one(self, monkeypatch):
        lengths = []
        evolve = snsim.scenarios.evolve_kernel

        def recording(*args):
            log, final = evolve(*args)
            lengths.append(len(log.times))
            return log, final

        monkeypatch.setattr(snsim.scenarios, "evolve_kernel", recording)
        # 400 steps: an unset stride would give about 200 outputs
        build_ehrenfest(ScenarioConfig(scenario="ehrenfest", n_points=1024,
                                       t_end=0.8, output_stride=1))
        assert lengths == [401, 401]

    @pytest.mark.parametrize("build, scenario, x_max", [
        (build_figure1, "figure1", 44.0),
        (build_boost, "boost", 16.0),
        (build_ground_state, "ground-state", 16.0),
    ])
    def test_lone_x_min_reaches_grid(self, build, scenario, x_max):
        # a lone x_min keeps the scenario's default x_max
        cfg = ScenarioConfig(scenario=scenario, n_points=1024, x_min=-20.0)
        if scenario != "ground-state":
            cfg = dataclasses.replace(cfg, t_end=0.05)
        result = build(cfg)
        grid = result.field.grid if scenario == "ground-state" else result.grid
        assert (grid.x_min, grid.x_max) == (-20.0, x_max)

    def test_unbounded_grid_refused_by_the_plan(self):
        # the stationary width of a subnormal stiffness overflows, so the
        # default grid spans [-inf, inf); its run failed on NaN nodes
        cfg = ScenarioConfig(scenario="ground-state",
                             k_self=2.225073858507203e-309)
        assert validate_config(cfg) == [
            "the grid [-inf, inf) has no finite length"]

    def test_ehrenfest_underflowed_frequency_bounds_no_dt(self):
        # (k_ext + k_self) / mass underflows to 0: no accuracy bound to
        # divide by a zero frequency, and the subnormal scales are refused
        # before the mean-motion residual divides by k_ext <x>
        cfg = ScenarioConfig(scenario="ehrenfest", k_ext=5e-324, mass=1e10,
                             G=1e-320)
        assert validate_config(cfg) == [
            "ehrenfest needs normal, finite scales: k_ext = 5e-324, omega_sq = 0.0"]

    def test_refused_run_leaves_no_directory(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="output times"):
            run_scenario(ScenarioConfig(scenario="figure1", n_points=1024,
                                        output_stride=500), out)
        assert not out.exists()


class TestRunScenario:
    def test_figure1_outputs(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        report = run_scenario(cfg, tmp_path)
        assert report.passed
        assert (tmp_path / "guidance.csv").exists()
        assert (tmp_path / "report.txt").exists()
        text = (tmp_path / "report.txt").read_text()
        assert "PASS" in text and "FAIL" not in text
        # exactly one line per declared check
        check_lines = [l for l in text.splitlines() if l.startswith("PASS")]
        assert len(check_lines) == len(report.checks)

    def test_determinism(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "guidance.csv").read_bytes()
        b = (tmp_path / "b" / "guidance.csv").read_bytes()
        assert a == b

    def test_choquard_outputs(self, tmp_path):
        cfg = parse_config("scenario = choquard\n")
        report = run_scenario(cfg, tmp_path)
        assert report.passed
        lines = (tmp_path / "choquard_results.tsv").read_text().splitlines()
        assert len(lines) == 2  # one record per solve (N^2 and 2 N^2)
        e1 = float(lines[0].split("\t")[2])
        e2 = float(lines[1].split("\t")[2])
        assert e2 / e1 == pytest.approx(8.0, rel=0.01)

    @pytest.mark.parametrize("text", ["G = 2\n", "mass = 1.2\n"],
                             ids=["G-2", "mass-1.2"])
    def test_choquard_level_in_any_units(self, tmp_path, text):
        # the levels scale as G^2 M^5 / hbar^2; mapped back by the norm
        # alone, choquard-e0 read 0.306 at G = 2 and 0.188 at mass = 1.2
        report = run_scenario(parse_config("scenario = choquard\n" + text),
                              tmp_path)
        assert report.passed
        assert report.metrics["e0_dev"] == pytest.approx(0.02065, abs=1e-4)

    def test_choquard_rerun_identical(self, tmp_path):
        cfg = parse_config("scenario = choquard\n")
        tsv = tmp_path / "choquard_results.tsv"
        run_scenario(cfg, tmp_path)
        first = tsv.read_bytes()
        run_scenario(cfg, tmp_path)
        assert len(tsv.read_text().splitlines()) == 2
        assert tsv.read_bytes() == first

    @pytest.mark.parametrize("text, dirs", [
        ("scenario = figure1\nn_points = 1024\noutput_stride = 40\n",
         ("pilot", "full")),
    ], ids=["figure1"])
    def test_snapshots_off_rerun_clears_stale_frames(self, tmp_path, text,
                                                     dirs):
        run_scenario(parse_config(text + "snapshots = on\n"), tmp_path)
        for d in dirs:
            assert any((tmp_path / d).glob("snap_*.dat"))
            (tmp_path / d / "notes.txt").write_text("kept")
        run_scenario(parse_config(text + "snapshots = off\n"), tmp_path)
        for d in dirs:
            assert sorted(p.name for p in (tmp_path / d).iterdir()) == [
                "notes.txt"]

    def test_snapshots_off_creates_no_directories(self, tmp_path):
        run_scenario(parse_config(SMALL_FIG_TEXT), tmp_path)
        assert not (tmp_path / "pilot").exists()
        assert not (tmp_path / "full").exists()


def _list_form(result, out):
    """A figure1 run's files, written from a result that kept its frames:
    the rows by decompose_run over the frame lists, the snapshots by the
    list form of write_snapshots."""
    write_snapshots(result.pilot_log, out / "pilot")
    write_snapshots(result.full_log, out / "full")
    write_guidance_csv(decompose_run(result.times, result.pilot_log.fields,
                                     result.full_log.fields, result.phys),
                       out / "guidance.csv")
    flow = result.moment_flow
    write_table(out / "oracle_moments.csv",
                "t,mean,momentum,variance,variance_rate",
                (result.times, flow.mean, flow.momentum, flow.variance,
                 flow.variance_rate))
    write_table(out / "classical.csv", "t,x_classical",
                (result.times, result.classical))


def _tree(root):
    """Every path under ``root``, hidden ones too, with a file's bytes."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _run_files(root):
    tree = _tree(root)
    tree.pop("report.txt")  # it holds the wall time
    return tree


class TestEhrenfestRuns:
    """build_ehrenfest runs its free and trapped kernel runs at once."""

    CFG = ScenarioConfig(scenario="ehrenfest", n_points=1024, t_end=0.2)

    def test_pool_runs_equal_serial_runs(self, monkeypatch):
        calls = []
        evolve = snsim.scenarios.evolve_kernel

        def recording(*args):
            log, final = evolve(*args)
            calls.append((args, log, threading.get_ident()))
            return log, final

        monkeypatch.setattr(snsim.scenarios, "evolve_kernel", recording)
        threads = threading.active_count()
        build_ehrenfest(self.CFG)
        assert threading.active_count() == threads
        # one free and one trapped run, neither on the calling thread
        assert sorted(bool(args[2].any()) for args, _, _ in calls) == [False, True]
        assert threading.get_ident() not in {ident for _, _, ident in calls}
        # times, means and norms equal those of the same two runs made one
        # after the other
        for args, log, _ in calls:
            serial = evolve(*args)[0]
            for pooled, alone in zip(log.as_arrays(), serial.as_arrays()):
                assert np.array_equal(pooled, alone)

    def test_free_error_propagates(self, monkeypatch):
        # the trapped run fails first; the free run's error still wins
        trapped_failed = threading.Event()

        def failing(psi0, kernel, v_ext, spec, phys):
            if v_ext.any():
                trapped_failed.set()
                raise SimulationError("trapped run failed")
            trapped_failed.wait(timeout=10.0)
            raise SimulationError("free run failed")

        monkeypatch.setattr(snsim.scenarios, "evolve_kernel", failing)
        threads = threading.active_count()
        with pytest.raises(SimulationError, match="free run failed"):
            build_ehrenfest(self.CFG)
        assert trapped_failed.is_set()
        assert threading.active_count() == threads

    def test_concurrent_builds_give_serial_metrics(self):
        # four builds at once put eight run threads on the host's cores,
        # switching often; they share the cached kernel spectrum
        cfg = dataclasses.replace(self.CFG, n_points=256, t_end=0.05)
        expected = build_ehrenfest(cfg).metrics
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                builds = [pool.submit(build_ehrenfest, cfg) for _ in range(4)]
                results = [b.result(timeout=60.0) for b in builds]
        finally:
            sys.setswitchinterval(interval)
        assert all(r.metrics == expected for r in results)

    def test_second_build_adds_no_spectrum_miss(self):
        # equal sphere kernels share one cached spectrum
        build_ehrenfest(self.CFG)
        misses = _kernel_spectrum.cache_info().misses
        build_ehrenfest(self.CFG)
        assert _kernel_spectrum.cache_info().misses == misses


# 401 output pairs on 1024 nodes, written as they are made
STREAM_FIG_TEXT = "scenario = figure1\nn_points = 1024\nsnapshots = on\n"


class TestStreaming:
    """figure1 under run_scenario keeps no frames: it analyses and writes
    each output pair as it is made, with the list forms' bytes."""

    def test_run_files_equal_list_form(self, tmp_path):
        cfg = parse_config(STREAM_FIG_TEXT)
        run_scenario(cfg, tmp_path / "run")
        _list_form(build_figure1(cfg), tmp_path / "ref")
        files = _run_files(tmp_path / "run")
        assert len(files) == 2 + 2 * 401 + 3
        assert files == _tree(tmp_path / "ref")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_files_equal_list_form(self, tmp_path, jobs):
        # the wide variance ratio keeps both packets resolved on 256 nodes
        cfg = ScenarioConfig(scenario="figure1", n_points=256,
                             variance_ratio=0.1, snapshots=True)
        sweep(cfg, "stiffness_ratio", [10.0, 30.0], tmp_path / "sw",
              jobs=jobs)
        template = resolve_sweep_window(cfg)
        for ratio in (10.0, 30.0):
            name = f"stiffness_ratio_{ratio:g}"
            _list_form(build_figure1(dataclasses.replace(
                template, stiffness_ratio=ratio)), tmp_path / "ref" / name)
            assert (_run_files(tmp_path / "sw" / name)
                    == _tree(tmp_path / "ref" / name))

    def test_run_holds_no_frame_list(self, tmp_path):
        cfg = parse_config(STREAM_FIG_TEXT)
        one_frame_list = 401 * 1024 * 16  # one run's frames, 6.6 MB
        tracemalloc.start()
        try:
            run_scenario(cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_frame_list

    @pytest.mark.parametrize("earlier", [False, True], ids=["new", "rerun"])
    def test_failure_mid_stream_leaves_out_as_before(self, tmp_path,
                                                     monkeypatch, earlier):
        cfg = parse_config(STREAM_FIG_TEXT)
        out = tmp_path / "out"
        if earlier:
            run_scenario(dataclasses.replace(cfg, output_stride=40), out)
        before = _tree(tmp_path)
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 5:
                raise ExtractionError("injected at frame 5")
            return frame_sample(*args)

        # four output pairs are written before the fifth fails
        monkeypatch.setattr(snsim.scenarios, "frame_sample", failing)
        with pytest.raises(ExtractionError, match="injected"):
            run_scenario(cfg, out)
        assert len(calls) == 5
        assert _tree(tmp_path) == before


class TestSweep:
    def test_single_value_matches_run(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        rows, ok = sweep(cfg, "stiffness_ratio", [1000.0],
                         tmp_path / "sweep", jobs=1)
        assert ok and len(rows) == 1
        direct = run_scenario(
            dataclasses.replace(cfg, stiffness_ratio=1000.0), tmp_path / "one"
        )
        _, report, err = rows[0]
        assert err is None
        for key, value in direct.metrics.items():
            assert report.metrics[key] == pytest.approx(value, rel=1e-12)

    def test_empty_values_rejected(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        with pytest.raises(ConfigError):
            sweep(cfg, "stiffness_ratio", [], tmp_path, jobs=1)

    def test_non_numeric_key_rejected(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        with pytest.raises(ConfigError):
            sweep(cfg, "scenario", [1.0], tmp_path, jobs=1)

    def test_stiffness_monotonicity(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        rows, ok = sweep(cfg, "stiffness_ratio", [10.0, 100.0, 1000.0],
                         tmp_path, jobs=3)
        assert ok
        residuals = [r.metrics["residual_p1_rel"] for _, r, _ in rows]
        assert residuals[0] >= residuals[1] >= residuals[2]
        tsv = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert tsv[0].startswith("stiffness_ratio\tpassed")
        assert len(tsv) == 4

    def test_choquard_norm_sweep(self, tmp_path):
        cfg = parse_config("scenario = choquard\n")
        rows, ok = sweep(cfg, "norm_sq", [1.0, 2.0], tmp_path, jobs=2)
        assert ok
        energies = [r.metrics["functional_energy"] for _, r, _ in rows]
        assert energies[1] / energies[0] == pytest.approx(8.0, rel=0.01)

    def test_partial_failure_recorded(self, tmp_path):
        cfg = parse_config("scenario = choquard\nradial_points = 512\n")
        # the solved profile's tail still reaches r_max = 8, which only the
        # run can tell: the member fails but the sweep completes
        rows, ok = sweep(cfg, "r_max", [8.0, 50.0], tmp_path, jobs=1)
        assert not ok
        assert rows[0][1] is None and "enlarge r_max" in rows[0][2]
        assert rows[1][1] is not None and rows[1][1].passed
        tsv = (tmp_path / "sweep.tsv").read_text().splitlines()
        assert len(tsv) == 3

    def test_template_held_to_key_rules_only(self, tmp_path):
        # the template's own t_end leaves 3 output times, too few for the
        # mean-motion check; no member runs at that t_end
        cfg = ScenarioConfig(scenario="ehrenfest", n_points=256, t_end=0.004)
        assert "output times" in validate_config(cfg)[0]
        rows, _ = sweep(cfg, "t_end", [0.05, 0.1], tmp_path, jobs=1)
        assert all(report is not None for _, report, _ in rows)


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "fig.cfg"
        cfg_path.write_text(SMALL_FIG_TEXT)
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("scenario = figure1\nk_ext = -3\n")
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "fig.cfg"
        cfg_path.write_text(SMALL_FIG_TEXT)
        code = main([
            "sweep", "--param", "stiffness_ratio", "--values", "100,1000",
            "--config", str(cfg_path), "--out", str(tmp_path / "sw"),
            "--jobs", "2",
        ])
        assert code == 0
        assert (tmp_path / "sw" / "sweep.tsv").exists()

    def _sweep_rejected(self, tmp_path, capsys, param, values, *extra):
        out = tmp_path / "sw"
        code = main(["sweep", "--param", param, "--values", values,
                     "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err
        # rejected before any member ran
        assert not out.exists() or not any(out.iterdir())
        return err

    @pytest.mark.parametrize("values", ["10,10.0000001", "10,10"])
    def test_sweep_shared_directory_rejected(self, tmp_path, capsys, values):
        err = self._sweep_rejected(tmp_path, capsys, "stiffness_ratio", values)
        assert "stiffness_ratio_10/" in err

    def test_sweep_non_finite_rejected(self, tmp_path, capsys):
        err = self._sweep_rejected(tmp_path, capsys, "stiffness_ratio", "nan,100")
        assert "not finite" in err

    def test_sweep_fractional_integer_rejected(self, tmp_path, capsys):
        err = self._sweep_rejected(tmp_path, capsys, "n_points", "1024.5")
        assert "integers" in err

    def test_figure1_stride_not_dividing_steps(self, tmp_path, capsys):
        # 400 steps: the last step is not an output time
        cfg_path = tmp_path / "fig.cfg"
        cfg_path.write_text(SMALL_FIG_TEXT + "output_stride = 67\n")
        out = tmp_path / "fig"
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(out)])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        guidance = (out / "guidance.csv").read_text().splitlines()
        assert len(guidance) == 1 + 6  # t = 0, 67 dt, ..., 335 dt
        t_column = [line.split(",")[0] for line in guidance[1:]]
        for name in ("oracle_moments.csv", "classical.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == t_column

    def _run_rejected(self, tmp_path, capsys, scenario, text):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        code = main(["run", scenario, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("scenario, stride", [
        ("figure1", 101), ("figure1", 134), ("figure1", 201),
        ("ehrenfest", 300), ("ehrenfest", 1000), ("boost", 2001),
    ])
    def test_too_few_output_times_rejected(self, tmp_path, capsys, scenario,
                                           stride):
        # figure1 takes 400 steps at 2048 nodes, ehrenfest 1000, boost 2000;
        # a stride past the last step logs only t = 0, which would make a
        # check over two output times pass vacuously
        err = self._run_rejected(tmp_path, capsys, scenario,
                                 f"scenario = {scenario}\nn_points = 2048\n"
                                 f"output_stride = {stride}\n")
        needs = ("the boost velocity needs 2" if scenario == "boost"
                 else "the mean-motion check needs 5")
        assert "output times" in err and needs in err

    def test_custom_too_few_output_times_rejected(self, tmp_path, capsys):
        # a shortened run: 50 steps with stride 100 log only t = 0, which
        # would make the two-point velocity check pass vacuously
        err = self._run_rejected(tmp_path, capsys, "boost",
                                 "scenario = boost\nt_end = 0.05\n"
                                 "dt = 0.001\noutput_stride = 100\n")
        assert ("output_stride = 100 leaves 1 output times in 50 steps; "
                "the boost velocity needs 2") in err

    def test_removed_scenario_refused_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "custom"])
        assert exc.value.code == 2
        assert "invalid choice: 'custom'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["kernel = sphere-quadratic",
                                      "kernel_file = x"])
    def test_removed_keys_exit_two(self, tmp_path, capsys, line):
        err = self._run_rejected(tmp_path, capsys, "ehrenfest",
                                 f"scenario = ehrenfest\n{line}\n")
        assert f"unknown key '{line.split()[0]}'" in err

    def test_config_scenario_line_naming_custom(self, tmp_path, capsys):
        # the scenario line is read where no --scenario overrides it
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("scenario = custom\n")
        err = self._sweep_rejected(tmp_path, capsys, "k_self", "1",
                                   "--config", str(cfg_path))
        assert ("config error: scenario must be one of figure1, ground-state, "
                "choquard, ehrenfest, boost") in err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(b"scenario = figure1\n# caf\xe9\n")
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"config error: cannot read config {cfg_path}: not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, text, packet", [
        ("boost", "init_center = 1000\n", "centre 1000 with width 0.177828"),
        ("ehrenfest", "x_min = 200\nx_max = 300\n", "centre -2 with width 1"),
    ], ids=["boost-off-grid", "ehrenfest-off-grid"])
    def test_packet_without_density_on_the_grid(self, tmp_path, capsys,
                                                scenario, text, packet):
        # the packet's norm was 0, and normalizing it divided by zero
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        code = main(["run", scenario, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert f"error: a Gaussian packet at {packet} has no density on" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, text, message", [
        ("figure1", "n_points = 1\n",
         "n_points = 1 on [-44, 44) gives dx = 88, which does not resolve "
         "the packet width a = 0.1778: dx must be at most a/2"),
        ("boost", "n_points = 1\n",
         "n_points = 1 on [-16, 16) gives dx = 32, which does not resolve "
         "the packet width a = 0.1778: dx must be at most a/2"),
        ("ehrenfest", "n_points = 1\n",
         "n_points = 1 on [-32, 32) gives dx = 64, which does not resolve "
         "the packet width a = 0.998: dx must be at most a/2"),
        ("ground-state", "n_points = 1\n",
         "n_points = 1 on [-16, 16) gives dx = 32, which does not resolve "
         "the packet width a = 0.5623: dx must be at most a/2"),
        # these ran: one node reported boost-deformation inf after numpy
        # overflow warnings, two nodes a boost-velocity deviation of 1
        ("boost", "n_points = 1\nk_self = 1\n",
         "n_points = 1 on [-16, 16) gives dx = 32, which does not resolve "
         "the packet width a = 1: dx must be at most a/2"),
        ("boost", "n_points = 2\nk_self = 1\n",
         "n_points = 2 on [-16, 16) gives dx = 16, which does not resolve "
         "the packet width a = 1: dx must be at most a/2"),
        # the trapped packet breathes from width 1 down to a_s^2 = 0.0158
        # under a self-stiffness of 4000: this ran, and stopped at t = 0.068
        # with "boundary density fraction ...; enlarge the domain"
        ("ehrenfest", "norm_sq = 1e6\n",
         "n_points = 4096 on [-32, 32) gives dx = 0.01562, which does not "
         "resolve the packet width a = 0.01581: dx must be at most a/2"),
    ], ids=["figure1-one-node", "boost-one-node", "ehrenfest-one-node",
            "ground-state-one-node", "boost-soft-one-node",
            "boost-soft-two-nodes", "ehrenfest-breathes-under-the-grid"])
    def test_grid_coarser_than_the_packet(self, tmp_path, capsys, scenario,
                                          text, message):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        code = main(["run", scenario, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"config error: {message}" in err
        assert not (tmp_path / "out").exists()

    def test_finest_accepted_grid(self):
        # two nodes per width is the limit, on either side of it
        cfg = ScenarioConfig(scenario="ehrenfest", x_min=-8.0, x_max=8.0,
                             init_width=0.25)
        assert validate_config(dataclasses.replace(cfg, n_points=128)) == []
        assert validate_config(dataclasses.replace(cfg, n_points=64)) == [
            "n_points = 64 on [-8, 8) gives dx = 0.25, which does not resolve "
            "the packet width a = 0.25: dx must be at most a/2"]

    def test_boost_packet_at_the_edge(self, tmp_path, capsys):
        # a packet wider than its domain wrapped round it unpoliced, and
        # the boost deformation divided by a reference that had left it
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n_points = 64\nx_max = 4\nsphere_mass = 1\n"
                            "sphere_radius = 2\n")
        code = main(["run", "boost", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "at t=0; enlarge the domain" in err
        assert not (tmp_path / "out").exists()

    def test_sweep_member_packet_off_the_grid(self, tmp_path, capsys):
        # the member at 1000 gets an ERROR row; the one at 0 still runs
        cfg_path = tmp_path / "boost.cfg"
        cfg_path.write_text("n_points = 1024\nt_end = 0.05\n")
        out = tmp_path / "sw"
        code = main(["sweep", "--scenario", "boost", "--param", "init_center",
                     "--values", "0,1000", "--config", str(cfg_path),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err
        assert "init_center=0: PASS" in captured.out
        message = ("a Gaussian packet at centre 1000 with width 0.177828 has "
                   "no density on the 1024-node grid [-16, 16)")
        assert f"init_center=1000: ERROR {message}" in captured.out
        rows = (out / "sweep.tsv").read_text().splitlines()
        assert rows[1].split("\t")[:2] == ["0", "yes"]
        assert rows[2].split("\t")[:2] == ["1000", "no"]
        assert rows[2].endswith("\t" + message)

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "figure1", "--config", str(tmp_path / "no.cfg"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no.cfg" in err and "Traceback" not in err

    def test_sweep_invalid_member_rejected(self, tmp_path, capsys):
        # "10,-5": argparse would read a leading "-5" as an option
        err = self._sweep_rejected(tmp_path, capsys, "k_self", "10,-5,nan")
        # every problem at once: the bad member and the bad value
        assert "k_self=-5: k_self must be >= 0" in err and "not finite" in err

    def test_sweep_rerun_removes_stale_members(self, tmp_path, capsys):
        out = tmp_path / "sw"

        def run(values):
            return main(["sweep", "--scenario", "ground-state", "--param",
                         "k_self", "--values", values, "--out", str(out)])

        assert run("10,20") == 0
        # neighbours that are not members of this sweep's parameter
        for name in ("k_self_10.0", "k_self_notes", "k_ext_20"):
            (out / name).mkdir()
        (out / "k_self_30").write_text("a file, not a member directory")
        assert run("10") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "k_ext_20", "k_self_10", "k_self_10.0", "k_self_30",
            "k_self_notes", "sweep.tsv"]

    def test_sweep_ehrenfest_k_self_rejected(self, tmp_path, capsys):
        err = self._sweep_rejected(tmp_path, capsys, "k_self", "3",
                                   "--scenario", "ehrenfest")
        assert "ehrenfest takes no k_self: k_self = 3.0 would be ignored" in err

    def test_ehrenfest_k_self_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "ehr.cfg"
        cfg_path.write_text("scenario = ehrenfest\nk_self = 3\n")
        code = main(["run", "ehrenfest", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "ehrenfest takes no k_self" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sphere", [
        "sphere_mass = 1e200\nsphere_radius = 1\n",
        "sphere_mass = 1\nsphere_radius = 1e-200\n",
    ], ids=["mass-overflow", "radius-underflow"])
    def test_non_finite_sphere_stiffness(self, tmp_path, capsys, sphere):
        err = self._run_rejected(tmp_path, capsys, "ground-state",
                                 sphere + "k_self = 1\n")
        assert "sphere_mass" in err and "sphere_radius" in err

    @pytest.mark.parametrize("scenario, text", [
        ("boost", "dt = 5e-324\n"),
        ("boost", "t_end = 1e308\ndt = 1e-10\n"),
        ("figure1", "dt = 5e-324\n"),
        ("ehrenfest", "dt = 5e-324\n"),
    ])
    def test_step_count_overflow(self, tmp_path, capsys, scenario, text):
        # t_end / dt = inf ended in an OverflowError traceback, exit 1
        err = self._run_rejected(tmp_path, capsys, scenario,
                                 f"scenario = {scenario}\n{text}")
        assert "t_end/dt = " in err

    @pytest.mark.parametrize("scenario", ["figure1", "boost", "ehrenfest"])
    def test_runaway_step_count(self, tmp_path, capsys, scenario):
        # dt = 1e-12 planned 2e11 steps or more, and the run started
        err = self._run_rejected(tmp_path, capsys, scenario,
                                 f"scenario = {scenario}\ndt = 1e-12\n")
        assert "above the cap of 10000000" in err

    @pytest.mark.parametrize("text", [
        "k_ext = 5e-324\nmass = 1e10\nG = 1e-320\n",
        "k_ext = 1e-300\nmass = 1e10\n",
    ], ids=["subnormal-k_ext", "subnormal-omega_sq"])
    def test_ehrenfest_subnormal_trap(self, tmp_path, capsys, recwarn, text):
        # the mean-motion residual divided by max|k_ext <x>|: an overflow
        # RuntimeWarning and trapped_rel = inf (1e299 for the second), a
        # FAIL with exit 1
        err = self._run_rejected(tmp_path, capsys, "ehrenfest",
                                 f"scenario = ehrenfest\n{text}")
        assert "ehrenfest needs normal, finite scales" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("r_max, fragment", [
        ("5e-324", "dr = 0.0, dr_sq = 0.0"),
        ("1e7", "does not resolve the relaxation seed's width 3"),
    ])
    def test_choquard_r_max_refused(self, tmp_path, capsys, r_max, fragment):
        # a ZeroDivisionError traceback, and one from scipy's solve
        err = self._run_rejected(tmp_path, capsys, "choquard",
                                 f"scenario = choquard\nr_max = {r_max}\n")
        assert fragment in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", list(NORM_OVERFLOW))
    def test_norm_overflow_refused(self, tmp_path, capsys, recwarn, scenario):
        # exit 1, after an overflow RuntimeWarning or none, with a message
        # about a zero norm or a packet with no density
        text = render_config(ScenarioConfig(**NORM_OVERFLOW[scenario], norm_sq=1e308))
        err = self._run_rejected(tmp_path, capsys, scenario, text)
        assert f"{scenario} needs normal, finite scales: sum_rho = inf" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "out").exists()

    def test_boost_subnormal_mass(self, tmp_path, capsys):
        # validate_config raised ZeroDivisionError from t_end / dt
        err = self._run_rejected(tmp_path, capsys, "boost",
                                 "scenario = boost\nmass = 5e-324\n")
        assert "boost needs normal, finite scales: omega = inf" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k_ext", ["1e-12", "1e-200"])
    def test_ehrenfest_weak_trap(self, tmp_path, capsys, k_ext):
        # a correct run reported FAIL trapped-ehrenfest: value=15.9 (and
        # 1.4e189), exit 1, its residual scale under the roundoff floor
        err = self._run_rejected(tmp_path, capsys, "ehrenfest",
                                 f"scenario = ehrenfest\nk_ext = {k_ext}\n")
        assert "trapped-ehrenfest divides its residual by max|k_ext <x>|" in err
        assert "roundoff floor 3.79e-10" in err
        assert not (tmp_path / "out").exists()

    def test_ehrenfest_vanishing_t_end(self, tmp_path, capsys):
        # far below one default step: one step, too few outputs, not a
        # division by zero steps
        cfg_path = tmp_path / "ehr.cfg"
        cfg_path.write_text("scenario = ehrenfest\nt_end = 1e-12\n")
        code = main(["run", "ehrenfest", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "output times" in err and "Traceback" not in err

    def test_sweep_member_refused_at_build(self, tmp_path, capsys):
        # stride 500 leaves figure1 too few output times: the plan refuses
        # the member before any member runs
        cfg_path = tmp_path / "fig.cfg"
        cfg_path.write_text(SMALL_FIG_TEXT)
        err = self._sweep_rejected(tmp_path, capsys, "output_stride", "1,500",
                                   "--config", str(cfg_path))
        assert "output_stride=500: output_stride = 500 leaves" in err

    @pytest.mark.parametrize("template, param, value, fragment",
                             PLAN_RULES.values(), ids=list(PLAN_RULES))
    def test_run_refuses_plan_rule(self, tmp_path, capsys, template, param,
                                   value, fragment):
        cfg = ScenarioConfig(**template, **{param: value})
        err = self._run_rejected(tmp_path, capsys, cfg.scenario,
                                 render_config(cfg))
        assert fragment in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("template, param, value, fragment",
                             PLAN_RULES.values(), ids=list(PLAN_RULES))
    def test_sweep_refuses_plan_rule(self, tmp_path, capsys, template, param,
                                     value, fragment):
        cfg_path = tmp_path / "template.cfg"
        cfg_path.write_text(render_config(ScenarioConfig(**template)))
        err = self._sweep_rejected(tmp_path, capsys, param, f"{value!r}",
                                   "--config", str(cfg_path))
        assert fragment in err

    def test_figure1_at_rest_refused(self, tmp_path, capsys):
        # a correct run at rest reported FAIL on these four lines (exit 1)
        err = self._run_rejected(tmp_path, capsys, "figure1",
                                 "init_center = 0\npilot_center = 0\n")
        assert [line.split(" divides")[0] for line in err.splitlines()] == [
            f"config error: {name}" for name in (
                "guidance-law-residual", "classical-trajectory",
                "ehrenfest-residual", "oracle-mean")]
        assert "roundoff floor" in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, fragment", [
        ("init_center = 1e-6\n", "ehrenfest-residual divides its residual by "
         "max|k_ext <x>| = 9.99e-07; its roundoff floor 4.8e-08 would exceed "
         "the tolerance 1e-05 of that"),
        ("pilot_width = 5\nvariance_ratio = 0.01\n",
         "variance_ratio = 0.01 sets pilot_width only while it is unset, and "
         "pilot_width = 5.0 is set"),
    ], ids=["near-rest", "variance-ratio-with-pilot-width"])
    def test_figure1_plan_refuses_through_run(self, tmp_path, capsys, text,
                                              fragment):
        assert fragment in self._run_rejected(tmp_path, capsys, "figure1", text)
        assert not (tmp_path / "out").exists()

    def test_variance_ratio_sweep_refused(self, tmp_path, capsys):
        # the sweep pins pilot_width from its template, so each member wrote
        # the same row
        err = self._sweep_rejected(tmp_path, capsys, "variance_ratio",
                                   "0.001,0.01", "--scenario", "figure1")
        assert err.startswith("config error: variance_ratio=0.01: variance_ratio "
                              "= 0.01 sets pilot_width only while it is unset, "
                              "and pilot_width = 5.622")
        assert err.endswith(" is set (a sweep pins it from its template): set "
                            "one of the two, or sweep pilot_width instead\n")
        assert err.count("\n") == 1

    def test_stiffness_sweep_from_a_variance_ratio(self, tmp_path, capsys):
        # the template's variance_ratio sets the pinned pilot, as the same
        # pilot_width set directly does
        template = ScenarioConfig(n_points=1024, variance_ratio=0.002)
        pinned = resolve_sweep_window(template)
        assert pinned.variance_ratio == ScenarioConfig.variance_ratio
        trees = []
        for name, cfg in (("ratio", template),
                          ("width", ScenarioConfig(n_points=1024,
                                                   pilot_width=pinned.pilot_width))):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(render_config(cfg))
            out = tmp_path / name
            assert main(["sweep", "--param", "stiffness_ratio", "--values", "100",
                         "--config", str(cfg_path), "--out", str(out)]) == 0
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*.csv"))
                          + [out / "sweep.tsv"]})
        assert trees[0] == trees[1] and len(trees[0]) == 4

    def test_run_validates_its_own_scenario(self, tmp_path, capsys):
        # the file names ehrenfest, whose plan refuses k_self; figure1 runs
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("scenario = ehrenfest\nk_self = 3\n"
                            "n_points = 1024\n")
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code in (0, 1)
        assert "config error" not in capsys.readouterr().err

    def test_file_without_scenario_line(self, tmp_path, capsys):
        # init_velocity, which figure1 (the file's default scenario) refuses
        cfg_path = tmp_path / "boost.cfg"
        cfg_path.write_text("n_points = 1024\ninit_velocity = 4.0\nt_end = 0.05\n")
        code = main(["run", "boost", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_run_refuses_subnormal_k_ext(self, tmp_path, capsys):
        # omega_fast underflowed to 0: a ZeroDivisionError traceback
        cfg_path = tmp_path / "fig.cfg"
        cfg_path.write_text("scenario = figure1\nk_ext = 5e-324\nk_self = 0\n"
                            "mass = 2\n")
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "figure1 needs normal, finite scales" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, fragment", [
        # the squares of these widths raised OverflowError
        ("pilot_width = 1e200", "grid_half_width = inf"),
        ("init_width = 1e200", "pilot_width = inf"),
        # the grid's half-width overflowed to inf before its ceil
        ("init_center = 1e308", "grid_half_width = inf"),
    ])
    def test_huge_scale_refused(self, tmp_path, capsys, line, fragment):
        cfg_path = tmp_path / "fig.cfg"
        cfg_path.write_text(f"scenario = figure1\n{line}\n")
        code = main(["run", "figure1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "figure1 needs normal, finite scales: " in err
        assert fragment in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        err = self._sweep_rejected(tmp_path, capsys, "stiffness_ratio", "10,30",
                                   "--config", str(cfg_path))
        assert fragment in err

    def test_check_exit_codes(self, monkeypatch, capsys):
        from snsim.scenarios import CheckResult

        def fake_pass():
            return [CheckResult("x", True, 0.0, 1.0)]

        def fake_fail():
            return [CheckResult("x", False, 2.0, 1.0)]

        import snsim.acceptance as acc

        monkeypatch.setattr(acc, "run_acceptance", fake_pass)
        assert main(["check"]) == 0
        monkeypatch.setattr(acc, "run_acceptance", fake_fail)
        assert main(["check"]) == 1

    @pytest.mark.parametrize("below", ["", "x"], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", [
        ["run", "ground-state"],
        ["sweep", "--param", "k_self", "--values", "5,10", "--scenario",
         "ground-state"],
        ["check"],
    ], ids=["run", "sweep", "check"])
    def test_out_under_a_file_refused_first(self, tmp_path, capsys,
                                            monkeypatch, command, below):
        # refused before any scenario is built or the battery starts
        import snsim.acceptance as acc

        def started(*args, **kwargs):
            raise AssertionError("ran with an unusable --out")

        monkeypatch.setattr(snsim.scenarios, "build_ground_state", started)
        monkeypatch.setattr(acc, "run_acceptance", started)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / below if below else blocker
        code = main(command + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert (f"config error: output directory {out}: {blocker} is not a "
                f"directory") in err
        assert blocker.read_text() == "not a directory\n"

    def test_sweep_member_directory_taken_by_a_file(self, tmp_path, capsys):
        out = tmp_path / "sw"
        out.mkdir()
        (out / "k_self_10").write_text("not a directory\n")
        code = main(["sweep", "--scenario", "ground-state", "--param", "k_self",
                     "--values", "5,10", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"{out / 'k_self_10'} is not a directory" in err
        assert sorted(p.name for p in out.iterdir()) == ["k_self_10"]

    def test_boundary_leak_between_outputs(self, tmp_path, capsys):
        # two outputs, at t = 0 and 1.7: the packet wraps round the domain
        # between them, which the output-time check alone missed
        cfg_path = tmp_path / "boost.cfg"
        cfg_path.write_text("scenario = boost\nn_points = 256\nx_min = -4\n"
                            "x_max = 4\nt_end = 1.7\noutput_stride = 17112\n")
        code = main(["run", "boost", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1 and "FAIL" not in captured.out
        assert re.search(r"error: boundary density fraction \S+ exceeds 1.0e-12 "
                         r"at t=0\.\d+; enlarge the domain", captured.err)

    def test_run_boost(self, tmp_path):
        code = main(["run", "boost", "--out", str(tmp_path / "boost")])
        assert code == 0
        assert (tmp_path / "boost" / "report.txt").exists()


class TestOracleEmission:
    def test_figure1_oracle_csvs(self, tmp_path):
        cfg = parse_config(SMALL_FIG_TEXT)
        run_scenario(cfg, tmp_path)
        moments = (tmp_path / "oracle_moments.csv").read_text().splitlines()
        assert moments[0] == "t,mean,momentum,variance,variance_rate"
        classical = (tmp_path / "classical.csv").read_text().splitlines()
        assert classical[0] == "t,x_classical"
        # oracle tables start at t = 0 like the guidance table
        assert float(moments[1].split(",")[0]) == 0.0
        assert float(classical[1].split(",")[0]) == 0.0
