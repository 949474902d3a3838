"""The table writers against the per-value loops they replace.

Each reference below is the writer as it was before the block-formatted
helper: one f-string per value.  The files must match it byte for byte.
"""

import csv

import numpy as np
import pytest

from snsim.fields import Grid1D, WaveField
from snsim.guidance import CSV_COLUMNS, VelocityDecomposition, write_guidance_csv
from snsim.oracles import write_series_csv
from snsim.propagate import TrajectoryLog, read_snapshot, write_snapshots
from snsim.textio import _BLOCK_ROWS

# more than one block, and not a whole number of them
GRID = Grid1D(512, -7.3, 11.9)
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

    @pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS + 3])
    def test_guidance_csv_bytes(self, tmp_path, n_rows):
        rng = np.random.default_rng(5)
        cells = _floats(rng, 12 * max(n_rows, 1))
        rows = [VelocityDecomposition(*cells[12 * i: 12 * i + 12])
                for i in range(n_rows)]
        write_guidance_csv(rows, tmp_path / "new.csv")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
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
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
