import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from snsim.acceptance import _gauge_invariance
from snsim.errors import ExtractionError
from snsim.fields import Grid1D, WaveField, gaussian_packet
from snsim.guidance import (
    CSV_COLUMNS,
    _norm_rate_rhs,
    _pilot_at,
    decompose_run,
    extract_soliton,
    frame_sample,
    guidance_law_report,
    norm_rate_report,
    reciprocity_report,
    v_dbb,
    v_drift_series,
    v_int,
    write_guidance_csv,
)
from snsim.oracles import coherent_state
from snsim.potentials import PhysParams
from snsim.propagate import EvolutionSpec, evolve_linear, evolve_self_harmonic
from snsim.potentials import harmonic_external
from snsim.scenarios import ScenarioConfig, build_figure1, soliton_width_param

GRID = Grid1D(2048, -24.0, 24.0)
PHYS = PhysParams()


def pilot(center=0.0, width=6.0, **kw):
    return gaussian_packet(GRID, center, width, **kw)


class TestExtractSoliton:
    def test_identity_ratio(self):
        psi_l = pilot(width=3.0)  # mask ends inside the domain
        state = extract_soliton(psi_l, psi_l)
        on_mask = state.phi.values[state.valid]
        assert np.max(np.abs(on_mask - 1.0)) < 1e-12
        # constant weight over a symmetric mask: barycentre at the centre
        assert abs(state.x0) <= GRID.dx
        assert 0.3 < state.valid_fraction < 1.0

    def test_constructed_factor(self):
        psi_l = pilot()
        g = gaussian_packet(GRID, 0.3, 0.25)
        psi_nl = WaveField(GRID, psi_l.values * g.values)
        state = extract_soliton(psi_nl, psi_l)
        assert state.x0 == pytest.approx(0.3, abs=GRID.dx)
        assert state.norm_sq > 0

    def test_initial_soliton_width(self, small_figure1):
        # the extracted factor starts at the stationary width of the
        # combined stiffness
        expected = soliton_width_param(small_figure1.model, small_figure1.phys)
        measured = small_figure1.rows[0].width * np.sqrt(2.0)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_escaped_support_rejected(self):
        narrow_pilot = gaussian_packet(GRID, 0.0, 0.03)
        psi_nl = gaussian_packet(GRID, 0.0, 0.02)
        with pytest.raises(ExtractionError):
            extract_soliton(psi_nl, narrow_pilot)

    def test_grid_mismatch_rejected(self):
        other = Grid1D(1024, -24.0, 24.0)
        with pytest.raises(ExtractionError):
            extract_soliton(gaussian_packet(other, 0.0, 1.0), pilot())


class TestVdbb:
    def test_real_pilot(self):
        assert v_dbb(pilot(), 0.5, PHYS) == pytest.approx(0.0, abs=1e-10)

    def test_plane_wave_phase(self):
        # hbar = m = 1: boost velocity k = wavenumber k; the envelope
        # must vanish at the boundary for the aperiodic phase factor
        k = 2.0
        psi_l = pilot(width=2.5, velocity=k)
        assert v_dbb(psi_l, 0.3, PHYS) == pytest.approx(2.0, abs=1e-8)

    def test_coherent_state_momentum(self):
        t = 0.7
        psi_l, mom = coherent_state(GRID, 1.0, 1.2, t, PHYS)
        value = v_dbb(psi_l, mom.mean, PHYS)
        assert value == pytest.approx(mom.momentum / PHYS.mass, abs=1e-6)

    def test_outside_mask_rejected(self):
        with pytest.raises(ExtractionError):
            v_dbb(pilot(width=0.5), 20.0, PHYS)


class TestVint:
    def test_real_factor(self):
        psi_l = pilot()
        state = extract_soliton(
            WaveField(GRID, psi_l.values * gaussian_packet(GRID, 0.2, 0.3).values),
            psi_l,
        )
        assert v_int(state, PHYS) == pytest.approx(0.0, abs=1e-10)

    def test_plane_wave_factor(self):
        k = 1.5
        psi_l = pilot()
        factor = gaussian_packet(GRID, 0.0, 0.3, velocity=k)
        state = extract_soliton(
            WaveField(GRID, psi_l.values * factor.values), psi_l
        )
        assert v_int(state, PHYS) == pytest.approx(1.5, abs=1e-8)

    def test_rescaling_invariance(self):
        psi_l = pilot()
        factor = gaussian_packet(GRID, 0.1, 0.3, velocity=0.8, chirp=0.5)
        psi_nl = WaveField(GRID, psi_l.values * factor.values)
        base = v_int(extract_soliton(psi_nl, psi_l), PHYS)
        for lam in (3.0, 1j, 0.2 - 1.1j):
            scaled = v_int(
                extract_soliton(psi_nl.with_values(lam * psi_nl.values), psi_l),
                PHYS,
            )
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_consistency_with_drift(self, small_figure1):
        # v_int closes the gap between the drift and the pilot guidance
        rows = small_figure1.rows
        vmax = max(abs(r.v_drift) for r in rows)
        for r in rows:
            assert abs(r.v_drift - r.v_dbb - r.v_int) <= 0.02 * vmax


class TestVdrift:
    def test_stationary(self):
        times = np.linspace(0.0, 1.0, 11)
        x0 = np.full(11, 0.7)
        assert np.max(np.abs(v_drift_series(times, x0))) < 1e-8

    def test_uniform_translation(self):
        times = np.linspace(0.0, 1.0, 11)
        x0 = -0.4 + 2.5 * times
        assert np.max(np.abs(v_drift_series(times, x0) - 2.5)) < 1e-6

    def test_harmonic_sampling(self):
        # second-order differencing of A cos(w t): error O((w dt)^2)
        omega, amp = 3.0, 1.2
        dt = 0.01
        times = dt * np.arange(200)
        x0 = amp * np.cos(omega * times)
        v = v_drift_series(times, x0)
        expected = -amp * omega * np.sin(omega * times)
        budget = amp * omega * (omega * dt) ** 2
        assert np.max(np.abs(v - expected)[1:-1]) < budget

    def test_needs_three_samples(self):
        with pytest.raises(ExtractionError):
            v_drift_series(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestNormRate:
    def test_flat_pilot_both_sides_vanish(self):
        # constant-amplitude, linear-phase pilot and a real factor: the
        # law reads 0 = 0 (a static series measures a zero rate, and the
        # formula side vanishes because the pilot has no amplitude slope
        # or phase curvature)
        k = GRID.wavenumbers[12]
        psi_l = WaveField(GRID, np.exp(1j * k * GRID.nodes))
        factor = gaussian_packet(GRID, 0.0, 0.5)
        psi_nl = WaveField(GRID, psi_l.values * factor.values)
        state = extract_soliton(psi_nl, psi_l)
        rhs = _norm_rate_rhs(_pilot_at(psi_l, state.x0, state.valid), state,
                             v_int(state, PHYS), PHYS)
        assert abs(rhs) < 1e-8
        times = np.array([0.0, 0.1, 0.2])
        rows = decompose_run(times, [psi_l] * 3, [psi_nl] * 3, PHYS)
        measured_zero = all(abs(r.norm_sq_phi - state.norm_sq) < 1e-12
                            for r in rows)
        assert measured_zero
        # the floored relative form stays finite and well defined
        assert all(np.isfinite(r.norm_rate_residual) for r in rows)

    def test_figure_run_within_budget(self, small_figure1):
        worst, _ = norm_rate_report(small_figure1.rows)
        assert worst <= 0.05

    def test_wide_soliton_degrades(self, small_figure1, small_figure1_cfg):
        # widen the factor tenfold: the slow-variation assumption breaks
        # and the residual must grow (directional check); the squeezed
        # factor collapses hard, so it needs a finer grid to stay
        # resolved in momentum
        base, _ = norm_rate_report(small_figure1.rows)
        a_phi = soliton_width_param(small_figure1.model, small_figure1.phys)
        cfg = dataclasses.replace(
            small_figure1_cfg,
            init_width=10.0 * a_phi,
            pilot_width=np.sqrt(a_phi**2 / small_figure1_cfg.variance_ratio),
            n_points=8192,
        )
        wide = build_figure1(cfg)
        degraded, _ = norm_rate_report(wide.rows)
        assert degraded > base


class TestReports:
    def test_static_pair_all_zero(self):
        psi_l = pilot()
        factor = gaussian_packet(GRID, 0.4, 0.3)
        psi_nl = WaveField(GRID, psi_l.values * factor.values)
        times = np.array([0.0, 0.1, 0.2, 0.3])
        rows = decompose_run(times, [psi_l] * 4, [psi_nl] * 4, PHYS)
        assert all(abs(r.v_drift) < 1e-10 for r in rows)
        assert all(abs(r.residual_p1) < 1e-9 for r in rows)
        assert all(abs(r.p2_product - 1.0) < 1e-10 for r in rows)

    def test_figure_run_guidance_law(self, small_figure1):
        p1, series = guidance_law_report(small_figure1.rows)
        assert p1 <= 0.02
        assert len(series) == len(small_figure1.rows)

    def test_figure_run_reciprocity(self, small_figure1):
        p2, _ = reciprocity_report(small_figure1.rows)
        assert p2 <= 0.02

    def test_time_reversed_product_series(self, small_figure1):
        # rerun both waves backwards from the endpoint: the reciprocity
        # product must retrace itself
        fig = small_figure1
        spec = fig.spec
        back = EvolutionSpec(dt=-spec.dt, t_end=spec.t_end,
                             output_stride=spec.output_stride)
        v_ext = harmonic_external(fig.grid, fig.model.k_ext)
        pilot_log, _ = evolve_linear(fig.pilot_final, v_ext, back, fig.phys)
        full_log, _ = evolve_self_harmonic(fig.full_final, fig.model, back,
                                           fig.phys)
        # reversed snapshot order reproduces the forward time axis
        rows_rev = decompose_run(fig.times, pilot_log.fields[::-1],
                                 full_log.fields[::-1], fig.phys)
        fwd = np.array([r.p2_product for r in fig.rows])
        rev = np.array([r.p2_product for r in rows_rev])
        assert np.max(np.abs(rev - fwd)) < 1e-8

    def test_gauge_invariance(self, small_figure1):
        fig = small_figure1
        phase = np.exp(1j * 1.9)
        rot = lambda flds: [f.with_values(phase * f.values) for f in flds]
        rows_rot = decompose_run(fig.times, rot(fig.pilot_log.fields),
                                 rot(fig.full_log.fields), fig.phys)
        for a, b in zip(fig.rows, rows_rot):
            for name in ("x0", "v_drift", "v_dbb", "v_int", "residual_p1",
                         "p2_product", "width"):
                assert abs(getattr(a, name) - getattr(b, name)) < 1e-12

    def test_decomposition_identity(self, small_figure1):
        # residual recomputed from independently extracted pieces
        fig = small_figure1
        for i, row in enumerate(fig.rows):
            state = extract_soliton(fig.full_log.fields[i],
                                    fig.pilot_log.fields[i])
            again = row.v_drift - (
                v_dbb(fig.pilot_log.fields[i], state.x0, fig.phys)
                + v_int(state, fig.phys)
            )
            assert again == pytest.approx(row.residual_p1, abs=1e-12)


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """decompose_run walks the frames once, holding one frame at a time."""

    def test_generators_match_lists(self, small_figure1):
        fig = small_figure1
        rows = decompose_run(iter(fig.times), iter(fig.pilot_log.fields),
                             (f for f in fig.full_log.fields), fig.phys)
        assert len(rows) == len(fig.rows)
        for a, b in zip(rows, fig.rows):
            for field in dataclasses.fields(a):
                assert getattr(a, field.name) == getattr(b, field.name), field.name

    @pytest.mark.parametrize("n_times,n_pilot,n_full", [
        (4, 3, 3),  # frames shorter than times
        (3, 4, 4),  # frames longer than times
        (4, 4, 3),  # pilot and full series differ
        (4, 3, 4),
    ])
    def test_length_mismatch_rejected(self, n_times, n_pilot, n_full):
        psi_l = pilot()
        psi_nl = WaveField(GRID, psi_l.values * gaussian_packet(GRID, 0.4, 0.3).values)
        times = 0.1 * np.arange(n_times)
        with pytest.raises(ExtractionError,
                           match="^times and snapshot series differ in length$"):
            decompose_run(times, (psi_l for _ in range(n_pilot)),
                          [psi_nl] * n_full, PHYS)

    def test_rows_equal_public_per_frame_values(self, small_figure1):
        # exact equality, not approx: a change of summation order in the
        # streamed pass would eat into the gauge check's roundoff margin
        fig = small_figure1
        frames = zip(fig.rows, fig.pilot_log.fields, fig.full_log.fields)
        for row, psi_l, psi_nl in frames:
            state = extract_soliton(psi_nl, psi_l)
            assert row.x0 == state.x0
            assert row.norm_sq_phi == state.norm_sq
            assert row.v_int == v_int(state, fig.phys)
            assert row.v_dbb == v_dbb(psi_l, state.x0, fig.phys)
            assert row.width == state.width
            assert row.valid_fraction == state.valid_fraction

    def test_peak_memory_flat_in_frame_count(self, small_figure1):
        fig = small_figure1
        pilots, fulls = fig.pilot_log.fields, fig.full_log.fields
        assert len(fig.times) == 401
        short = traced_peak(lambda: decompose_run(
            fig.times[:100], pilots[:100], fulls[:100], fig.phys))
        full = traced_peak(lambda: decompose_run(fig.times, pilots, fulls, fig.phys))
        assert full < 2e6
        assert full < 1.5 * short

    def test_gauge_check_builds_no_rotated_frame_list(self, small_figure1):
        fig = small_figure1
        frame_list_bytes = sum(f.values.nbytes for f in fig.full_log.fields)
        ctx = SimpleNamespace(figure1=fig)
        peak = traced_peak(lambda: _gauge_invariance(ctx))
        assert peak < frame_list_bytes


class TestWorkAndGrid:
    """A frame costs two FFTs, and its values do not depend on the grid."""

    def test_frame_sample_makes_two_ffts(self, small_figure1, fft_calls):
        fig = small_figure1
        frame_sample(fig.times[7], fig.pilot_log.fields[7],
                     fig.full_log.fields[7], fig.phys)
        assert fft_calls == {"fft": 2}

    def test_guidance_metrics_agree_at_2048_and_4096_nodes(self, small_figure1):
        # the pilot is evaluated at x0 as its trigonometric interpolant, so
        # halving the grid moves p1, p2, 3a and 4 by at most 3.5e-8;
        # linear interpolation of A_L(x0) moved p2 by 6.0e-2
        coarse = small_figure1.metrics
        fine = build_figure1(ScenarioConfig(scenario="figure1")).metrics
        for name in ("residual_p1_rel", "p2_max_dev", "classical_dev",
                     "norm_rate_max"):
            assert coarse[name] == pytest.approx(fine[name], rel=1e-6, abs=0.0), name


class TestCsv:
    def test_schema_and_values(self, small_figure1, tmp_path):
        path = tmp_path / "guidance.csv"
        write_guidance_csv(small_figure1.rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == len(small_figure1.rows) + 1
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == small_figure1.rows[0].t
        assert first[8] == pytest.approx(1.0)  # p2 normalized at t = 0
