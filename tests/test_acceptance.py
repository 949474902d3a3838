"""The headline claims as pass/fail checks at their stated tolerances.

One test per `snsim check` line, parametrized over the battery's rows;
each prints its pass/fail line so a verbose run reads as the acceptance
report.  Heavy runs are shared across lines through the session-scoped
context.
"""

import dataclasses
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import snsim.acceptance as acc
from snsim.acceptance import BATTERY, AcceptanceContext, run_acceptance
from snsim.cli import main
from snsim.errors import SimulationError
from snsim.fields import Grid1D, gaussian_packet
from snsim.scenarios import CheckResult


@pytest.fixture(scope="session")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("row", BATTERY,
                         ids=[f"line{i:02d}" for i in range(1, len(BATTERY) + 1)])
def test_battery_line(ctx, row):
    # each line passes at its stated tolerance (README, "Acceptance criteria")
    check = row(ctx)
    print(check.line())
    assert check.passed, check.line()


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


def test_dt_order_makes_7000_steps(fft_calls):
    # u(dt), u(dt/2) and u(dt/4) to t = 1 at dt = 1e-3: 1000 + 2000 + 4000
    # Strang steps, one fft and one ifft each
    assert acc._dt_order().passed
    assert fft_calls == {"fft": 7000, "ifft": 7000}


def test_dt_order_fails_a_first_order_splitting():
    # 9e's own problem stepped by Lie splitting, a full kinetic step then a
    # full potential step: the self-convergence ratio reads 2, not 4
    grid = Grid1D(1024, -16.0, 16.0)
    x, k = grid.nodes, grid.wavenumbers
    psi0 = gaussian_packet(grid, 1.0, 0.8).values

    def lie_final(dt):
        kinetic = np.exp(-0.5j * k * k * dt)
        psi = psi0
        for _ in range(round(1.0 / dt)):
            psi = np.fft.ifft(kinetic * np.fft.fft(psi))
            rho = psi.real**2 + psi.imag**2
            mean = np.sum(rho * x) / np.sum(rho)
            psi = psi * np.exp(-1j * dt * (0.5 * x * x + 5.0 * (x - mean) ** 2))
        return psi

    check = acc._dt_order_check([lie_final(acc.DT_ORDER_DT / 2**j)
                                 for j in range(3)])
    assert check.value == pytest.approx(2.0, abs=0.1)
    assert not check.passed
    assert check.line().startswith("FAIL 9e-dt-second-order: value=")


def _fields(results):
    return [dataclasses.astuple(c) for c in results]


def _rebind(monkeypatch, name, before):
    """Rebind the worker run ``_<name>`` to call ``before()`` first; the
    worker is forked after this, so it runs the rebound function too."""
    run = getattr(acc, f"_{name}")

    def rebound():
        before()
        return run()

    monkeypatch.setattr(acc, f"_{name}", rebound)


def test_worker_gives_the_in_process_results(ctx, monkeypatch):
    # every check, 5a, 5b, 8, 9b and 9e among them, equal field by field
    in_process = [row(ctx) for row in BATTERY]
    parent = os.getpid()

    def in_worker():
        if os.getpid() == parent:
            raise RuntimeError("a worker run was made in the calling process")

    for name in acc._WORKER_RUNS:
        _rebind(monkeypatch, name, in_worker)
    split = run_acceptance(AcceptanceContext(), stream=None)
    assert _fields(split) == _fields(in_process)
    assert multiprocessing.active_children() == []


def test_worker_error_ends_check_with_exit_one(monkeypatch, capsys):
    def broken():
        raise SimulationError("choquard broke")

    _rebind(monkeypatch, "choquard", broken)
    assert main(["check"]) == 1
    err = capsys.readouterr().err
    assert "error: choquard broke" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_check_out_writes_the_printed_lines(tmp_path, monkeypatch, capsys):
    # acceptance.txt holds the printed check lines, in order, and a second
    # run into the same directory replaces it
    lines = [CheckResult("1-one", True, 1e-3, 0.02),
             CheckResult("2-two", False, 0.5, 0.1, note="a note"),
             CheckResult("3-three", True, 0.0, 0.0)]

    def fake(ctx=None, stream=print):
        for check in checks:
            stream(check.line())
        return checks

    monkeypatch.setattr(acc, "run_acceptance", fake)
    out = tmp_path / "out"
    for checks, code in ((lines, 1), (lines[2:], 0)):
        assert main(["check", "--out", str(out)]) == code
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-1] == [c.line() for c in checks]
        assert (out / "acceptance.txt").read_text().splitlines() == printed[:-1]


def test_failure_cancels_the_worker_runs_not_started(tmp_path, monkeypatch):
    # this process's first build fails while the worker makes its first
    # run: the worker is stopped, so its last run never starts
    def broken(cfg):
        raise SimulationError("figure1 broke")

    started = tmp_path / "started"
    monkeypatch.setattr(acc, "build_figure1", broken)
    _rebind(monkeypatch, acc._WORKER_RUNS[-1], started.touch)
    with pytest.raises(SimulationError, match="figure1 broke"):
        run_acceptance(AcceptanceContext(), stream=None)
    assert not started.exists()
    assert multiprocessing.active_children() == []


def test_worker_ends_soon_after_a_killed_caller(tmp_path):
    # a caller killed mid-battery (a timeout, say) leaves no worker behind:
    # the worker's next send fails and it exits
    code = (
        "import os, sys, time\n"
        "import snsim.acceptance as acc\n"
        "def dt_order():\n"
        "    print(os.getpid(), flush=True)\n"
        "    time.sleep(1.0)\n"
        "    return None\n"
        "acc._dt_order = dt_order\n"
        "acc.build_figure1 = lambda cfg: time.sleep(600)\n"
        "acc.run_acceptance()\n"
    )
    src = str(Path(acc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        worker = int(caller.stdout.readline())
    finally:
        caller.kill()
        caller.wait(timeout=60)
        caller.stdout.close()
    stat = Path(f"/proc/{worker}/stat")

    def running():
        # an orphan that has exited may stay a zombie until it is reaped
        try:
            return stat.read_text().rpartition(")")[2].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 30.0
    while running() and time.monotonic() < deadline:
        time.sleep(0.1)
    if running():
        os.kill(worker, signal.SIGKILL)
        pytest.fail("the worker outlived its caller by 30 s")


def test_threaded_caller_makes_every_run_itself(ctx, monkeypatch):
    # forking a process that runs other threads is unsafe; all runs but
    # 9b's are taken from the session's context to keep this short
    made = AcceptanceContext()
    for name in ("figure1", "boost", "gauge_invariance", "sweep_members",
                 "choquard", "dt_order"):
        setattr(made, name, getattr(ctx, name))
    pids = []
    _rebind(monkeypatch, "time_reversal", lambda: pids.append(os.getpid()))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = run_acceptance(made, stream=None)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert pids == [os.getpid()]
    assert _fields(results) == _fields([row(ctx) for row in BATTERY])


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
