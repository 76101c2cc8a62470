"""Rows of a CSV export: comma-joined repr floats, one LF-ended line per row.

Stdlib only, so that the same formatter serves the package and a bare child
interpreter that formats one shard of a large export:

    python -I -S _rows.py NCOL < columns > rows

The child reads NCOL equal-length columns of native float64 from stdin, one
column after another, and writes their rows to stdout as UTF-8.
"""

import sys
from itertools import chain


def format_rows(columns) -> str:
    """The rows of equal-length columns of floats, each line ended by LF."""
    cells = [map(repr, col) for col in columns]
    rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
    return "\n".join(chain(rows, [""]))


def _main(ncol: int) -> None:
    from array import array

    values = array("d")
    values.frombytes(sys.stdin.buffer.read())
    n = len(values) // ncol
    text = format_rows([values[i * n:(i + 1) * n].tolist() for i in range(ncol)])
    sys.stdout.buffer.write(text.encode("utf-8"))


if __name__ == "__main__":
    _main(int(sys.argv[1]))
