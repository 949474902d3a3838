"""The table writers against the per-value loops they replace.

Each reference below is the writer as it was before the numpy
formatter: one f-string per value.  The files must match it byte for
byte, and each formatted value must match ``'%.17g' % v``.
"""

import csv
import sys
import threading

import numpy as np
import pytest

import snsim.scenarios
from snsim.cli import main
from snsim.fields import Grid1D, WaveField
from snsim.guidance import CSV_COLUMNS, VelocityDecomposition, write_guidance_csv
from snsim.oracles import write_series_csv
from snsim.propagate import TrajectoryLog, read_snapshot, write_snapshots
from snsim.textio import _BLOCK_ROWS, _tables, format_cells

# more than one block, and not a whole number of them
GRID = Grid1D(2048, -7.3, 11.9)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0, 0.1]


def _floats(rng, n):
    """Finite floats from random bit patterns, with the special values."""
    vals = rng.integers(0, 2**64, size=4 * n, dtype=np.uint64).view(np.float64)
    vals = vals[np.isfinite(vals)][: n - len(SPECIAL)]
    return np.concatenate([SPECIAL, vals])


def _log(rng, grids):
    log = TrajectoryLog(store_fields=True)
    for i, grid in enumerate(grids):
        n = grid.n_points
        # re + 1j*im would turn an imaginary -0.0 into 0.0
        values = _floats(rng, n).astype(complex)
        values.imag = rng.permutation(_floats(rng, n))
        log.append(0.1 * i + 1e-17, 0.0, 0.0, 1.0, 0.0, WaveField(grid, values))
    return log


def reference_snapshots(log, out):
    out.mkdir(parents=True, exist_ok=True)
    for i, (t, fld) in enumerate(zip(log.times, log.fields)):
        with open(out / f"snap_{i:05d}.dat", "w") as fh:
            fh.write(f"# t={t:.17g}\n")
            for xi, vi in zip(fld.grid.nodes, fld.values):
                fh.write(f"{xi:.17g} {vi.real:.17g} {vi.imag:.17g}\n")


def reference_table(path, header, columns, sep):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(sep.join(f"{v:.17g}" for v in row) + "\n")


def reference_guidance(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_COLUMNS + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in rows:
            writer.writerow([
                f"{v:.17g}" for v in (
                    r.t, r.x0, r.v_drift, r.v_dbb, r.v_int,
                    r.residual_p1, r.norm_sq_phi, r.a_l_sq_at_x0,
                    r.p2_product, r.norm_rate_residual, r.width,
                    r.valid_fraction,
                )
            ])


def texts(values):
    """The formatter's text of each value, and its count of '%' fallbacks."""
    cells, fallbacks = format_cells(values)
    cells[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode().split("\n")[:-1], fallbacks


def assert_percent(values):
    """Every value formats as '%.17g' does; returns the fallback count."""
    got, fallbacks = texts(values)
    want = ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]
    assert len(got) == len(want)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]
    return fallbacks


def test_grid_spans_a_partial_block():
    assert GRID.n_points > _BLOCK_ROWS
    assert GRID.n_points % _BLOCK_ROWS != 0


class TestSnapshots:
    def test_bytes_match_per_node_loop(self, tmp_path):
        # a frame on a second grid checks that node text follows the grid
        other = Grid1D(128, -1.0, 1.0)
        log = _log(np.random.default_rng(0), [GRID, GRID, other, GRID])
        paths = write_snapshots(log, tmp_path / "new")
        reference_snapshots(log, tmp_path / "ref")
        assert [p.name for p in paths] == [f"snap_{i:05d}.dat" for i in range(4)]
        for p in paths:
            assert p.read_bytes() == (tmp_path / "ref" / p.name).read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_read_snapshot_round_trips_exactly(self, tmp_path):
        log = _log(np.random.default_rng(1), [GRID, GRID])
        paths = write_snapshots(log, tmp_path)
        for p, t, fld in zip(paths, log.times, log.fields):
            t_read, x, vals = read_snapshot(p)
            assert t_read == t
            assert np.array_equal(x.view(np.uint64), GRID.nodes.view(np.uint64))
            # bit-level equality keeps the sign of -0.0 in both parts
            assert np.array_equal(vals.view(np.uint64),
                                  fld.values.view(np.uint64))

    def test_rerun_with_fewer_frames_leaves_no_stale_files(self, tmp_path):
        rng = np.random.default_rng(2)
        (tmp_path / "notes.txt").write_text("kept")
        write_snapshots(_log(rng, [GRID] * 5), tmp_path)
        paths = write_snapshots(_log(rng, [GRID] * 3), tmp_path)
        assert sorted(p.name for p in tmp_path.glob("snap_*.dat")) == [
            p.name for p in paths
        ]
        assert len(paths) == 3
        assert (tmp_path / "notes.txt").read_text() == "kept"


class TestTables:
    def test_series_csv_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * _BLOCK_ROWS + 17
        columns = [_floats(rng, n), rng.permutation(_floats(rng, n)),
                   list(_floats(rng, n))]
        write_series_csv(tmp_path / "new.csv", "t,a,b", columns)
        reference_table(tmp_path / "ref.csv", "t,a,b",
                        [np.asarray(c) for c in columns], ",")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("n_rows", [0, 1, 303, _BLOCK_ROWS + 3])
    def test_guidance_csv_bytes(self, tmp_path, n_rows):
        rng = np.random.default_rng(5)
        cells = _floats(rng, 12 * max(n_rows, 1))
        rows = [VelocityDecomposition(*cells[12 * i: 12 * i + 12])
                for i in range(n_rows)]
        write_guidance_csv(rows, tmp_path / "new.csv")
        reference_guidance(rows, tmp_path / "ref.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


class TestFormatter:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        assert_percent(np.concatenate([SPECIAL, bits.view(np.float64)]))

    def test_exact_ties(self):
        # odd m/4 in [1e15, 2.25e15) ends in .25 or .75: rounding it to
        # 17 significant digits, the tenths, is an exact tie
        rng = np.random.default_rng(8)
        m = rng.integers(4 * 10**15, 2**53, size=20_000) | 1
        ties = m / 4.0
        assert assert_percent(ties) == len(ties)
        for k in range(-25, 26):
            assert_percent(np.concatenate([ties, -ties]) * 10.0**k)

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        up, down = np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)
        assert_percent(np.concatenate([tens, up, down, -tens, -up, -down]))

    def test_subnormals_zeros_and_non_finite(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(1, 2**52, size=100_000, dtype=np.uint64)
        sub = bits.view(np.float64)
        assert_percent(np.concatenate([sub, -sub]))
        # zeros print through numpy; only inf and nan go through '%'
        assert assert_percent([0.0, -0.0]) == 0
        assert assert_percent([np.inf, -np.inf, np.nan]) == 3

    def test_threads_share_a_cold_table(self):
        values = np.random.default_rng(10).integers(
            0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
        results = [None] * 4
        start = threading.Barrier(len(results))

        def work(i):
            start.wait(timeout=60)
            results[i] = format_cells(values)[0].tobytes()

        _tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None and r == results[0] for r in results)
        assert_percent(values)

    def test_no_fallback_on_a_figure1_frame(self, small_figure1):
        for log in (small_figure1.pilot_log, small_figure1.full_log):
            values = log.fields[-1].values
            for part in (values.real, values.imag, log.fields[-1].grid.nodes):
                assert assert_percent(part) == 0


def test_sweep_outputs_match_the_reference_writers(tmp_path, monkeypatch, capsys):
    # a 256-node figure1 sweep; the wide variance ratio keeps both packets
    # resolved on so coarse a grid
    results = []
    build = snsim.scenarios.build_figure1

    def keep(cfg, *run_dir):
        # the member's run streams its files and keeps no frames; the same
        # config built without a directory keeps them for the reference
        results.append((build(cfg, *run_dir), build(cfg)))
        return results[-1][0]

    monkeypatch.setattr(snsim.scenarios, "build_figure1", keep)
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("scenario = figure1\nsnapshots = on\nn_points = 256\n"
                        "variance_ratio = 0.1\n")
    out = tmp_path / "out"
    code = main(["sweep", "--param", "stiffness_ratio", "--values", "10,30",
                 "--config", str(cfg_path), "--out", str(out), "--jobs", "2"])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(r.cfg.stiffness_ratio for r, _ in results) == [10.0, 30.0]
    ref = tmp_path / "ref"
    for r, kept in results:
        member = out / f"stiffness_ratio_{r.cfg.stiffness_ratio:g}"
        mine = ref / member.name
        for wave, log in (("pilot", kept.pilot_log), ("full", kept.full_log)):
            reference_snapshots(log, mine / wave)
            names = sorted(p.name for p in (member / wave).glob("snap_*.dat"))
            assert names == [f"snap_{i:05d}.dat" for i in range(len(log.times))]
            for name in names:
                assert ((member / wave / name).read_bytes()
                        == (mine / wave / name).read_bytes())
        reference_guidance(r.rows, mine / "guidance.csv")
        flow = r.moment_flow
        reference_table(mine / "oracle_moments.csv",
                        "t,mean,momentum,variance,variance_rate",
                        (r.times, flow.mean, flow.momentum, flow.variance,
                         flow.variance_rate), ",")
        reference_table(mine / "classical.csv", "t,x_classical",
                        (r.times, r.classical), ",")
        for name in ("guidance.csv", "oracle_moments.csv", "classical.csv"):
            assert (member / name).read_bytes() == (mine / name).read_bytes()
