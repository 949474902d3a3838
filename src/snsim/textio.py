"""Plain-text tables of floats, one row per line.

The snapshot files and the guidance and oracle CSVs print their floats
as ``%.17g``, which reads back as the same float64, and end their lines
in LF.  Rows are formatted a block at a time, with one ``%`` operation
on the row template repeated for the block, so the cost per value is the
float-to-text conversion itself and little else.
"""

from __future__ import annotations

import numpy as np

# rows formatted per block: bounds the transient cell tuple and string
_BLOCK_ROWS = 300


def float_row(width: int, sep: str) -> str:
    """Row template of ``width`` floats at 17 significant digits."""
    return sep.join(["%.17g"] * width) + "\n"


def write_table(path, header: str, row: str, columns) -> None:
    """Write ``header``, then ``row % (c0[i], c1[i], ...)`` for each i.

    ``columns`` are sequences of equal length; slices of numpy arrays go
    through ``tolist`` so their elements format as Python floats.  Like
    ``zip``, the rows stop at the shortest column.
    """
    width = len(columns)
    n_rows = min((len(c) for c in columns), default=0)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            cells = [None] * ((stop - start) * width)
            for j, c in enumerate(columns):
                block = c[start:stop]
                cells[j::width] = (block.tolist() if isinstance(block, np.ndarray)
                                   else block)
            fh.write((row * (stop - start)) % tuple(cells))
