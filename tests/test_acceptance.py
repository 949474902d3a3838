"""The headline claims as pass/fail checks at their stated tolerances.

One test per criterion; each prints its pass/fail line so a verbose run
reads as the acceptance report.  Heavy runs are shared across criteria
through the session-scoped context.
"""

import re

import pytest

from snsim.acceptance import (
    AcceptanceContext,
    _criterion_1,
    _criterion_2,
    _criterion_3,
    _criterion_4,
    _criterion_5,
    _criterion_6,
    _criterion_7,
    _criterion_8,
    _criterion_9,
    run_acceptance,
)


@pytest.fixture(scope="session")
def ctx():
    return AcceptanceContext()


def _assert_all(checks):
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    assert not failed, "; ".join(c.line() for c in failed)


def test_criterion_1_guidance_law(ctx):
    # velocity decomposition residual within 2% of the peak drift speed
    # over two periods of the soliton's own trap, 4096-node grid
    _assert_all(_criterion_1(ctx))


def test_criterion_2_reciprocity(ctx):
    # norm/amplitude product constant to 2% along the same run
    _assert_all(_criterion_2(ctx))


def test_criterion_3_classical_limit(ctx):
    # barycentre follows the classical oracle to 1% of the oscillation
    # amplitude; the full wave's mean obeys the trap equation to 1e-5
    _assert_all(_criterion_3(ctx))


def test_criterion_4_norm_rate_law(ctx):
    # norm-rate law residual within 5% throughout (the law is itself an
    # approximation)
    _assert_all(_criterion_4(ctx))


def test_criterion_5_choquard(ctx):
    # dimensionless ground level within 10% of the published fit (either
    # energy, logged), and the cubic scaling ratio 8 within 1%
    _assert_all(_criterion_5(ctx))


def test_criterion_6_oracle_equivalence(ctx):
    # grid solver vs closed moment system: mean and variance to 1e-3
    _assert_all(_criterion_6(ctx))


def test_criterion_7_galilean_boost(ctx):
    # boosted self-trapped state translates rigidly: deformation <= 1e-4
    # over one breathing period
    _assert_all(_criterion_7(ctx))


def test_criterion_8_sweep_monotonic(ctx):
    # guidance-law residual non-increasing across stiffness ratios
    # 10, 100, 1000
    _assert_all(_criterion_8(ctx))


def test_sweep_top_member_is_default_run():
    # criterion 8 takes its ratio-1000 residual from the default figure1
    # run, so the two plans must agree in everything but the key itself
    import dataclasses

    from snsim.scenarios import ScenarioConfig, _plan_figure1, resolve_sweep_window

    default = ScenarioConfig(scenario="figure1")
    member = dataclasses.replace(resolve_sweep_window(default),
                                 stiffness_ratio=1000.0)
    a, b = _plan_figure1(default), _plan_figure1(member)
    assert b.cfg.stiffness_ratio == 1000.0
    assert dataclasses.replace(b.cfg, stiffness_ratio=None) == a.cfg
    assert b._replace(cfg=a.cfg) == a


def test_criterion_9_property_suite(ctx):
    # norm conservation 1e-10, linear time reversal 1e-8, interaction
    # scaling law 1e-10, gauge invariance 1e-12, second-order dt ratio
    _assert_all(_criterion_9(ctx))


def test_check_lines_pinned(ctx):
    # label, threshold and note of every `snsim check` line, in order;
    # notes that carry a measured value are pinned by their format
    e2 = r"\d\.\d\de[-+]\d\d"
    expected = [
        ("1-guidance-law", 0.02, ""),
        ("2-reciprocity", 0.02, ""),
        ("3a-classical-trajectory", 0.01, ""),
        ("3b-ehrenfest-exact", 1e-5, ""),
        ("4-norm-rate-law", 0.05, ""),
        ("5a-choquard-e0", 0.1, "matched by eigenvalue energy"),
        ("5b-choquard-scaling", 0.01, r"ratio \d\.\d{4}"),
        ("6-oracle-equivalence", 1e-3, ""),
        ("7-galilean-boost", 1e-4, f"velocity dev {e2}"),
        ("8-sweep-monotonic", 0.0, f"10:{e2}, 100:{e2}, 1000:{e2}"),
        ("9a-norm-conservation", 1e-10, ""),
        ("9b-time-reversal", 1e-8, ""),
        ("9c-scaling-law", 1e-10, ""),
        ("9d-gauge-invariance", 1e-12, ""),
        ("9e-dt-second-order", 4.5, re.escape("expected in [3.5, 4.5]")),
    ]
    results = run_acceptance(ctx, stream=None)
    assert [c.name for c in results] == [e[0] for e in expected]
    for check, (name, threshold, note) in zip(results, expected):
        assert check.threshold == threshold, name
        assert re.fullmatch(note, check.note), (name, check.note)
    # the two criteria that merge checks report the worse one
    fig, boost = ctx.figure1.metrics, ctx.boost.metrics
    assert results[7].value == max(fig["oracle_mean_dev"], fig["oracle_var_dev"])
    assert results[10].value == max(fig["norm_drift"], boost["norm_drift"])


def test_runtime_budget(ctx):
    # the shared figure1 run must stay far inside its two-minute budget;
    # building it again here measures a fresh end-to-end run
    import time

    from snsim.scenarios import ScenarioConfig, build_figure1

    start = time.perf_counter()
    build_figure1(ScenarioConfig(scenario="figure1"))
    assert time.perf_counter() - start < 120.0


def test_choquard_runtime_budget():
    import time

    from snsim.choquard import solve_ground_state
    from snsim.potentials import PhysParams

    start = time.perf_counter()
    solve_ground_state(PhysParams(), 1.0)
    solve_ground_state(PhysParams(), 2.0)
    assert time.perf_counter() - start < 60.0
