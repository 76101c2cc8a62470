"""Empirical CCDF construction and survey/rich-list data fusion.

Survey microdata give the body of the income distribution; rich-list wealth
records, differenced between consecutive years, proxy the incomes of the very
top.  The two are joined on a common scale by a single multiplicative factor
chosen so the scaled rich-list minimum coincides with the minimum of the
survey's high-income segment (min-alignment).  Plotting positions follow the
Weibull rule l/(n+1) for the l-th richest of n records, which keeps every
record (no binning) and never produces p = 0 or p = 1.
"""

from __future__ import annotations

import csv
import os
import sys
import warnings
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from incomedist import _rows
from incomedist.model import _count, _positive

__all__ = [
    "ParseError",
    "OverlapWarning",
    "EmptyFileWarning",
    "EmpiricalCCDF",
    "rank_ccdf",
    "forbes_incomes",
    "find_scale_factor",
    "fuse",
    "load_incomes",
    "load_wealth_pairs",
]


class ParseError(ValueError):
    """Malformed input row; carries 1-based line and column positions."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class OverlapWarning(UserWarning):
    """Scaled rich list does not span the survey high segment from above."""


class EmptyFileWarning(UserWarning):
    """An input file contained no data rows."""


def _incomes_array(incomes) -> np.ndarray:
    """Incomes as a 1-d float64 array, from an array or a sequence of numbers."""
    arr = np.asarray(incomes, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a flat sequence of incomes")
    return arr


def _positive_finite(arr: np.ndarray) -> bool:
    # min/max propagate NaN, and NaN compares false
    return arr.size > 0 and arr.min() > 0.0 and arr.max() < np.inf


# numpy's loader opens paths with these suffixes through a decompressor,
# which the line reader does not
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _is_header(line: str, header: str) -> bool:
    """Whether a first line is the comma-separated header, up to case and blanks around cells."""
    return [cell.strip() for cell in line.lower().split(",")] == header.split(",")


def _read_table(path, header: str) -> np.ndarray:
    """A CSV as a 2-d float array with one column per header cell, by numpy's C parser.

    A one-column file splits on blanks and a wider one on commas.  Where
    numpy refuses the file, or a value is not positive and finite,
    `_read_lines` reads it again: it reports the fault, or reads the rare
    input that Python's float accepts and numpy does not (digit-group
    underscores, non-ASCII digits).
    """
    ncol = header.count(",") + 1
    with open(path, encoding="utf-8") as fh:
        skip = int(_is_header(fh.readline(), header))
    # numpy parses in C only from a path given as str; an absolute one is
    # never taken for a URL
    name = os.path.abspath(os.fsdecode(path))
    if not name.endswith(_COMPRESSED):
        with warnings.catch_warnings():
            # an empty file: the line reader warns in the package's terms
            warnings.simplefilter("ignore", UserWarning)
            try:
                table = np.loadtxt(name, dtype=float, delimiter="," if ncol > 1 else None,
                                   comments=None, skiprows=skip, ndmin=2, encoding="utf-8")
            except ValueError:
                table = None
        if table is not None and table.shape[1] == ncol and _positive_finite(table):
            return table
    return _read_lines(path, header)


def _read_lines(path, header: str) -> np.ndarray:
    """Line-by-line reader of `_read_table`: the reference grammar and its error reports.

    Blank lines are skipped and the header is allowed only on line 1.  A row
    has one comma-separated cell per header cell, and every cell is a
    positive finite decimal; a fault raises ParseError at its line and column.
    """
    names = header.split(",")
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or (lineno == 1 and _is_header(text, header)):
                continue
            cells = text.split(",")
            if len(cells) != len(names):
                # the column of the first missing or extra cell
                raise ParseError(f"got {len(cells)} fields, expected {len(names)} ({header})",
                                 lineno, min(len(cells), len(names)) + 1)
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    value = np.nan
                if not 0.0 < value < np.inf:
                    raise ParseError(f"bad {names[col]} {cell!r}", lineno, col + 1)
                values.append(value)
    if not values:
        warnings.warn(f"no data rows in {path}", EmptyFileWarning, stacklevel=4)
    return np.array(values, dtype=float).reshape(-1, len(names))


# An export of at least twice this many rows is cut into one shard of rows
# per CPU, each of at least this many rows.  A child interpreter takes about
# 25 ms to start; on two CPUs the shards win from about 60,000 rows.
_SHARD_ROWS = 50_000
# the formatter that the children run as a script
_ROWS_SCRIPT = _rows.__file__


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_child(reap: ExitStack, cols, lo: int, hi: int):
    """A child interpreter formatting rows lo:hi and the file it writes them to, or (None, None).

    It reads its columns from another temporary file: neither process waits on the other.
    """
    # imported here: `import incomedist` does not load subprocess
    import subprocess
    import tempfile

    try:
        rows = reap.enter_context(tempfile.TemporaryFile())
        with tempfile.TemporaryFile() as columns:
            for col in cols:
                columns.write(col[lo:hi])
            columns.seek(0)
            return reap.enter_context(subprocess.Popen(
                [sys.executable, "-I", "-S", _ROWS_SCRIPT, str(len(cols))],
                stdin=columns, stdout=rows)), rows
    except OSError:
        return None, None


def _blocks(rows):
    """A child's output file from its start, in blocks of 1 MiB."""
    rows.seek(0)  # the child moved the offset that it shares with `rows`
    return iter(lambda: rows.read(1 << 20), b"")


def _write_csv(path, header: str, *columns) -> None:
    """A header line, then one line of comma-joined repr floats per row, LF endings.

    A large table is cut into one shard of rows per CPU: this process formats
    the first while child interpreters format the others with the same
    `_rows.write_rows`.  A shard whose child cannot start, fails or returns
    too few rows is formatted here instead, so the bytes never depend on the
    CPU count or on the children.
    """
    cols = [np.ascontiguousarray(col, dtype=float) for col in columns]
    n = min(col.size for col in cols)
    count = min(_cpu_count(), n // _SHARD_ROWS) if sys.executable else 1
    bounds = [n * i // count for i in range(count + 1)] if count > 1 else [0, n]
    shards = list(zip(bounds[1:-1], bounds[2:]))
    children = []
    # reap waits for every child started, however the block ends
    with open(path, "wb") as fh, ExitStack() as reap:
        try:
            fh.write(f"{header}\n".encode("utf-8"))
            for lo, hi in shards:
                children.append(_start_child(reap, cols, lo, hi))
            _rows.write_rows(fh, cols, bounds[0], bounds[1])
            for (child, rows), (lo, hi) in zip(children, shards):
                if child and not child.wait() and (
                        sum(block.count(b"\n") for block in _blocks(rows)) == hi - lo):
                    fh.writelines(_blocks(rows))
                else:
                    _rows.write_rows(fh, cols, lo, hi)
        except BaseException:
            for child, _ in children:
                if child:
                    child.kill()
            raise


@dataclass(frozen=True)
class EmpiricalCCDF:
    """Rank-ordered empirical CCDF: incomes descending, p = l/(n+1) ascending.

    Equal incomes are allowed (consecutive ranks in stable input order), so
    the income column is non-increasing rather than strictly decreasing.
    """

    incomes: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        inc = np.asarray(self.incomes, dtype=float)
        pp = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "incomes", inc)
        object.__setattr__(self, "p", pp)
        if inc.shape != pp.shape or inc.ndim != 1 or inc.size == 0:
            raise ValueError("incomes and p must be equal-length non-empty 1-d arrays")
        if not _positive_finite(inc):
            raise ValueError("incomes must be positive and finite")
        if np.any(np.diff(inc) > 0.0):
            raise ValueError("incomes must be non-increasing")
        if np.any(pp <= 0.0) or np.any(pp >= 1.0) or np.any(np.diff(pp) <= 0.0):
            raise ValueError("p must be strictly increasing inside (0, 1)")

    @property
    def n(self) -> int:
        return int(self.incomes.size)

    def to_csv(self, path) -> None:
        _write_csv(path, "income,ccdf", self.incomes, self.p)

    @classmethod
    def from_csv(cls, path) -> "EmpiricalCCDF":
        """Read an `income,ccdf` table; a malformed row raises ParseError at its line and column."""
        table = _read_table(path, "income,ccdf")
        if table.shape[0] == 0:
            raise ValueError(f"empty CCDF file: {path}")
        return cls(incomes=table[:, 0].copy(), p=table[:, 1].copy())


def rank_ccdf(incomes) -> EmpiricalCCDF:
    """Weibull plotting positions: the l-th richest of n gets p = l/(n+1).

    Tied incomes are equal values, so they receive consecutive ranks in any
    order.  Output size equals input size.
    """
    arr = _incomes_array(incomes)  # EmpiricalCCDF checks the values
    if arr.size == 0:
        raise ValueError("need at least one record")
    n = arr.size
    ranks = np.arange(1, n + 1, dtype=float)
    return EmpiricalCCDF(incomes=-np.sort(-arr), p=ranks / (n + 1.0))


def forbes_incomes(pairs) -> np.ndarray:
    """Year-over-year wealth gains as effective incomes; losses are dropped.

    `pairs` holds (wealth_prev, wealth_curr) rows, as `load_wealth_pairs`
    returns them: shape (n, 2), every value finite and >= 0 (ValueError).
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError("wealth pairs must be an (n, 2) array of finite values >= 0")
    gains = arr[:, 1] - arr[:, 0]
    return gains[gains > 0.0]


def find_scale_factor(survey_high, rich_list) -> float:
    """Factor s with min(s * rich) = min(survey_high), the min-alignment rule.

    Both lists must be non-empty, with every income positive and finite,
    and so must s be (ValueError).  Warns (OverlapWarning) when the scaled
    rich list fails to reach the top of the survey segment, i.e. the overlap
    is only partial.
    """
    hi = _incomes_array(survey_high)
    rich = _incomes_array(rich_list)
    if not (_positive_finite(hi) and _positive_finite(rich)):
        raise ValueError("both income lists must be non-empty, positive and finite")
    s = _positive("factor", float(hi.min()) / float(rich.min()))  # Python floats: no RuntimeWarning
    if s * rich.max() < hi.max():
        warnings.warn(
            f"scaled rich maximum {s * rich.max():.6g} below survey maximum "
            f"{hi.max():.6g}; overlap is partial",
            OverlapWarning,
            stacklevel=2,
        )
    return s


def _overlap_factor(survey: np.ndarray, rich: np.ndarray, *,
                    cut: float | None, top_k: int) -> float:
    """find_scale_factor on the survey's high-income segment.

    The segment is the survey incomes above `cut` if given, else the top_k.
    """
    seg = survey[survey > cut] if cut is not None else np.sort(survey)[-_count("top_k", top_k):]
    return find_scale_factor(seg, rich)


def fuse(survey, rich_incomes, factor: float | None = None, *,
         cut: float | None = None, top_k: int = 6) -> np.ndarray:
    """Concatenate survey incomes with factor-scaled rich-list incomes.

    A given factor must be positive and finite; None derives it by
    find_scale_factor from the survey's high-income segment (incomes above
    `cut` if given, else the top_k survey points), or 1 for an empty rich list.
    """
    factor = None if factor is None else _positive("factor", factor)
    survey_arr = _incomes_array(survey)
    if survey_arr.size == 0:
        raise ValueError("survey must be non-empty")
    rich_arr = _incomes_array(rich_incomes)
    if factor is None:
        factor = _overlap_factor(survey_arr, rich_arr, cut=cut, top_k=top_k) if rich_arr.size else 1.0
    fused = np.concatenate([survey_arr, factor * rich_arr])
    if not _positive_finite(fused):
        raise ValueError("incomes must be positive and finite")
    return fused


def load_incomes(path) -> np.ndarray:
    """Read a one-column income CSV into a float64 array, one positive decimal per line.

    An optional single header cell "income" is accepted on line 1 and blank
    lines are skipped.  A malformed row raises ParseError at its 1-based line
    and column; a file without rows warns (EmptyFileWarning) and gives an
    empty array.
    """
    return _read_table(path, "income")[:, 0]


def load_wealth_pairs(path) -> np.ndarray:
    """Read a wealth-pair CSV into an (n, 2) float64 array of (wealth_prev, wealth_curr) rows.

    Line 1 must be the header id,wealth_prev,wealth_curr.  Ids may be quoted;
    each is checked as a CSV field and dropped.  Blank rows are skipped, every
    wealth is a finite decimal >= 0, and a bad cell raises ParseError at its
    line and column.  No rows warn (EmptyFileWarning) and give shape (0, 2).
    """
    expected = ["id", "wealth_prev", "wealth_curr"]
    values: list[float] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and [h.strip().lower() for h in header] != expected:
            raise ParseError(f"expected header {','.join(expected)}", 1)
        for row in reader:
            lineno = reader.line_num  # the physical line: a quoted id may hold line breaks
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", lineno)
            for col, cell in enumerate(row[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    value = np.nan
                if not 0.0 <= value < np.inf:
                    raise ParseError(f"bad {expected[col - 1]} {cell!r}", lineno, col)
                values.append(value)
    if not values:
        warnings.warn(f"no wealth rows in {path}", EmptyFileWarning, stacklevel=2)
    return np.array(values, dtype=float).reshape(-1, 2)
