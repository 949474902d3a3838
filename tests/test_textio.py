"""The table writers against the per-value loops they replace.

Each reference below is the writer as it was before the numpy
formatter: one f-string per value.  The files must match it byte for
byte, and each formatted value must match ``'%.17g' % v``.
"""

import csv
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import snsim.scenarios
from snsim.cli import main
from snsim.fields import Grid1D, WaveField, gaussian_packet
from snsim.guidance import CSV_COLUMNS, VelocityDecomposition, write_guidance_csv
from snsim.propagate import (
    SnapshotWriter,
    TrajectoryLog,
    read_snapshot,
    write_snapshots,
)
from snsim.textio import _BLOCK_ROWS, _tables, format_cells, write_table

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


def notation(text):
    """Python's notation of a '%.17g' text: "e", or fixed with X < 0 ("0.")
    or with X >= 0 ("d")."""
    return "e" if "e" in text else "0." if abs(float(text)) < 1 else "d"


def trailing_zeros(text):
    """How many of the 17 significant digits behind a '%.17g' text are 0."""
    digits = text.lstrip("-").split("e")[0].replace(".", "").strip("0")
    return 17 - len(digits)


def notation_columns(rng, n):
    """Columns of n values in each notation, and one that mixes them."""
    sign = rng.choice([-1.0, 1.0], size=(4, n))
    tiny_or_huge = 10.0 ** np.concatenate([rng.uniform(-300, -5, n // 2),
                                           rng.uniform(17, 300, n - n // 2)])
    columns = [tiny_or_huge, rng.uniform(1e-4, 1.0, n), 10.0 ** rng.uniform(0, 17, n)]
    columns.append(rng.permutation(np.concatenate(columns))[:n])
    return list(sign * columns)


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
        write_table(tmp_path / "new.csv", "t,a,b", columns)
        reference_table(tmp_path / "ref.csv", "t,a,b",
                        [np.asarray(c) for c in columns], ",")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_notations_over_a_block_edge(self, tmp_path):
        columns = notation_columns(np.random.default_rng(4), _BLOCK_ROWS + 3)
        assert {notation("%.17g" % v) for v in columns[3]} == {"e", "0.", "d"}
        size, _ = write_table(tmp_path / "new.csv", "e,0.,d,mixed", columns)
        reference_table(tmp_path / "ref.csv", "e,0.,d,mixed", columns, ",")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert size == (tmp_path / "ref.csv").stat().st_size

    def test_snapshot_write_memory(self, tmp_path):
        # one 4,096-node frame: the 56-byte cells in blocks of 1,000 rows
        # peaked at 0.84 MB, the 32-byte cells at 0.71 MB
        writer = SnapshotWriter(tmp_path)
        fld = gaussian_packet(Grid1D(4096, -60.0, 60.0), 1.3, 5.6, velocity=0.3)
        writer.write(0.0, fld)  # formats the nodes and builds the tables
        tracemalloc.start()
        try:
            writer.write(0.1, fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8e6

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

    def test_point_inside_the_digits(self):
        # fixed notation with 1 <= X <= 16 is the only place the point moves
        # ...56.8 is the float ...56.75, a tie at 17 digits, so '%' formats it
        values = [123.5, -99.25, 1234567890123456.8, 1234567890123456.5, 1e16 - 2,
                  10.5, -1e15 - 0.5]
        assert texts(values) == (["123.5", "-99.25", "1234567890123456.8",
                                  "1234567890123456.5", "9999999999999998", "10.5",
                                  "-1000000000000000.5"], 1)
        rng = np.random.default_rng(14)
        for x in range(1, 17):
            assert_percent(rng.uniform(-1, 1, 2000) * 10.0 ** (x + 1))

    def test_every_trailing_zero_count(self):
        # exact dyadic and decimal values: D has 0 to 16 trailing zeros in
        # each notation
        rng = np.random.default_rng(15)
        odd = np.concatenate([np.arange(1, 400, 2), rng.integers(1, 2**53, 100) | 1])
        whole = np.concatenate([np.arange(1, 2000),
                                (10.0 ** rng.uniform(4, 15, 300)).astype(np.int64)])
        values = np.concatenate([odd * 2.0**p for p in range(-80, 80)]
                                + [whole * 10.0**e for e in range(23)])
        values = np.concatenate([values, -values])
        assert_percent(values)
        seen = {}
        for text in ("%.17g" % v for v in values.tolist()):
            seen.setdefault(notation(text), set()).add(trailing_zeros(text))
        assert seen == {"e": set(range(17)), "0.": set(range(17)),
                        "d": set(range(17))}

    def test_notation_edges(self):
        # '%g' turns fixed at X = -4 and exponential at X = 17; 1e16 and
        # 1e17 are exact, D = 10^16 sits on a range edge and goes to '%'
        values = [0.0, -0.0, 2.0**-14, 2.0**-13, 1e-4, 2.0**54, 1e16, 1e17, 2.0**57]
        assert texts(values) == (["0", "-0", "6.103515625e-05", "0.0001220703125",
                                  "0.0001", "18014398509481984", "10000000000000000",
                                  "1e+17", "1.4411518807585587e+17"], 2)
        rng = np.random.default_rng(16)
        for edge in (1e-4, 1e17):
            near = edge * np.exp(rng.uniform(-0.5, 0.5, 20_000))
            ties = np.concatenate([near, np.nextafter(near, 0.0)])
            assert_percent(np.concatenate([ties, -ties]))

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
