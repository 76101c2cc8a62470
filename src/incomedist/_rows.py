"""Rows of a CSV export: comma-joined repr floats, one LF-ended line per row.

Stdlib only, so that the same formatter serves the package and a bare child
interpreter that formats one shard of a large export:

    python -I -S _rows.py NCOL < columns > rows

The child reads NCOL equal-length columns of native float64 from stdin, one
column after another, and writes their rows to stdout as UTF-8.
"""

import sys
from itertools import chain

BLOCK_ROWS = 16384  # rows formatted at a time, which bounds the memory of a shard


def format_rows(columns) -> str:
    """The rows of equal-length columns of floats, each line ended by LF."""
    cells = [map(repr, col) for col in columns]
    rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
    return "\n".join(chain(rows, [""]))


def write_rows(out, columns, lo: int, hi: int) -> None:
    """Write rows lo:hi of float64 arrays or memoryviews to a binary stream, in blocks."""
    for start in range(lo, hi, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, hi)
        out.write(format_rows([col[start:stop].tolist() for col in columns]).encode("utf-8"))


def _main(ncol: int) -> None:
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    n = len(values) // ncol
    write_rows(sys.stdout.buffer, [values[i * n:(i + 1) * n] for i in range(ncol)], 0, n)


if __name__ == "__main__":
    _main(int(sys.argv[1]))
