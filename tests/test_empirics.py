import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from incomedist import (
    EmpiricalCCDF,
    EmptyFileWarning,
    Ensemble,
    EstimationError,
    OverlapWarning,
    ParseError,
    SimConfig,
    effective_to_coeffs,
    empirics,
    find_scale_factor,
    fit_rank,
    forbes_incomes,
    fuse,
    load_incomes,
    load_wealth_pairs,
    preset_params,
    rank_ccdf,
)


def test_plotting_positions_three_rows():
    ccdf = rank_ccdf([3.0, 1.0, 2.0])
    assert ccdf.p.tolist() == [1 / 4, 2 / 4, 3 / 4]
    assert ccdf.incomes.tolist() == [3.0, 2.0, 1.0]


def test_plotting_positions_exact_weibull():
    n = 997
    ccdf = rank_ccdf(np.linspace(5.0, 9.0, n))
    expect = np.arange(1, n + 1) / (n + 1.0)
    assert np.array_equal(ccdf.p, expect)


def test_ties_get_distinct_positions():
    ccdf = rank_ccdf([2.0, 2.0, 1.0])
    assert ccdf.incomes.tolist() == [2.0, 2.0, 1.0]
    assert ccdf.p.tolist() == [0.25, 0.5, 0.75]


def test_ccdf_validation():
    with pytest.raises(ValueError):
        EmpiricalCCDF(incomes=np.array([1.0, 2.0]), p=np.array([0.3, 0.6]))  # ascending incomes
    with pytest.raises(ValueError):
        EmpiricalCCDF(incomes=np.array([2.0, 1.0]), p=np.array([0.6, 0.3]))  # p not increasing
    with pytest.raises(ValueError):
        EmpiricalCCDF(incomes=np.array([2.0, -1.0]), p=np.array([0.3, 0.6]))
    with pytest.raises(ValueError, match="equal-length"):
        EmpiricalCCDF(incomes=np.array([2.0, 1.0]), p=np.array([0.3]))
    with pytest.raises(ValueError, match="flat sequence"):
        rank_ccdf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="^need at least one record$"):
        rank_ccdf([])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_one_positive_finite_rule_for_income_arrays(bad):
    incomes = np.array([3.0, 2.0, bad])
    with pytest.raises(ValueError, match="^incomes must be positive and finite$"):
        EmpiricalCCDF(incomes=incomes, p=np.array([0.25, 0.5, 0.75]))
    with pytest.raises(ValueError, match="^incomes must be positive and finite$"):
        rank_ccdf(incomes)
    with pytest.raises(ValueError, match="^incomes must be positive and finite$"):
        fuse(incomes, [], factor=1.0)
    with pytest.raises(EstimationError, match="^values must be positive and finite$"):
        fit_rank(incomes)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ccdf = rank_ccdf(0.01 + rng.exponential(4e4, size=100))
    path = tmp_path / "c.csv"
    ccdf.to_csv(path)
    back = EmpiricalCCDF.from_csv(path)
    assert np.array_equal(back.incomes, ccdf.incomes)
    assert np.array_equal(back.p, ccdf.p)


def test_load_incomes_header_and_errors(tmp_path):
    path = tmp_path / "inc.csv"
    path.write_text("income\n10.5\n\n20.25\n", encoding="utf-8")
    incomes = load_incomes(path)
    assert incomes.tolist() == [10.5, 20.25]

    bad = tmp_path / "bad.csv"
    bad.write_text("10.0\nnope\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_incomes(bad)
    assert err.value.line == 2
    assert str(err.value) == "line 2, column 1: bad income 'nope'"

    bad.write_text("income\n10.0\n1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"got 2 fields, expected 1 \(income\)") as err:
        load_incomes(bad)
    assert (err.value.line, err.value.column) == (3, 2)

    empty = tmp_path / "empty.csv"
    empty.write_text("income\n", encoding="utf-8")
    with pytest.warns(EmptyFileWarning):
        assert load_incomes(empty).tolist() == []


def test_load_wealth_pairs(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(
        "id,wealth_prev,wealth_curr\nA,1.0,3.5\nB,2.0,1.0\n", encoding="utf-8"
    )
    pairs = load_wealth_pairs(path)
    assert pairs.dtype == np.float64 and pairs.shape == (2, 2)
    assert pairs.tolist() == [[1.0, 3.5], [2.0, 1.0]]

    nohdr = tmp_path / "n.csv"
    nohdr.write_text("A,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_wealth_pairs(nohdr)
    assert (err.value.line, err.value.column) == (1, 1)

    badval = tmp_path / "b.csv"
    badval.write_text("id,wealth_prev,wealth_curr\nA,1.0,x\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_wealth_pairs(badval)
    assert err.value.line == 2 and err.value.column == 3

    short = tmp_path / "s.csv"
    short.write_text("id,wealth_prev,wealth_curr\nA,1.0,2.0\nB,1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected 3 fields, got 2") as err:
        load_wealth_pairs(short)
    assert err.value.line == 3


@pytest.mark.parametrize("row, column", [("a,-1,2", 2), ("a,1,-2", 3), ("a,nan,2", 2),
                                         ("a,1,inf", 3), ("a,x,2", 2)])
def test_load_wealth_pairs_reports_the_bad_cell(tmp_path, row, column):
    path = tmp_path / "w.csv"
    # a zero wealth on line 2 is valid
    path.write_text(f"id,wealth_prev,wealth_curr\nb,0,2\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_wealth_pairs(path)
    assert (err.value.line, err.value.column) == (3, column)


def test_load_wealth_pairs_reads_a_quoted_id_holding_a_comma(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text('id,wealth_prev,wealth_curr\n"Smith, J",1.0,3.5\n\nb,0,2\n',
                    encoding="utf-8")
    assert load_wealth_pairs(path).tolist() == [[1.0, 3.5], [0.0, 2.0]]


def test_load_wealth_pairs_numbers_physical_lines(tmp_path):
    # the quoted id on lines 2-3 holds a line break: the bad cell x is on line 4
    path = tmp_path / "w.csv"
    path.write_text('id,wealth_prev,wealth_curr\n"a\nb",1,2\nc,1,x\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_wealth_pairs(path)
    assert (err.value.line, err.value.column) == (4, 3)


@pytest.mark.parametrize("text", ["", "id,wealth_prev,wealth_curr\n",
                                  "id,wealth_prev,wealth_curr\n\n"])
def test_wealth_file_without_rows_gives_no_pairs(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.warns(EmptyFileWarning):
        pairs = load_wealth_pairs(path)
    assert pairs.shape == (0, 2) and pairs.dtype == np.float64
    assert forbes_incomes(pairs).shape == (0,)


def test_forbes_incomes_keeps_positive_gains():
    # (wealth_prev, wealth_curr): up, down, flat
    pairs = np.array([[1.0, 4.0], [5.0, 2.0], [3.0, 3.0]])
    assert forbes_incomes(pairs).tolist() == [3.0]


def test_forbes_incomes_validation():
    assert forbes_incomes([[0.0, 2.0]]).tolist() == [2.0]  # zero wealth is valid
    for bad in ([[-1.0, 2.0]], [[1.0, np.nan]], [[np.inf, 2.0]], [1.0, 2.0],
                [[1.0, 2.0, 3.0]], np.ones((2, 2, 2)), []):
        with pytest.raises(ValueError, match=r"\(n, 2\) array of finite values >= 0"):
            forbes_incomes(bad)


def test_find_scale_factor_min_alignment():
    survey_high = [200.0, 300.0, 400.0]
    rich = [20000.0, 30000.0, 50000.0]
    assert find_scale_factor(survey_high, rich) == pytest.approx(0.01)


@pytest.mark.parametrize("survey_high, rich", [([100.0], [0.0, 5.0]), ([100.0], [np.nan]),
                                               ([-1.0, 100.0], [5.0]), ([100.0], [np.inf]),
                                               ([], [5.0]), ([100.0], []),
                                               ([1e300] * 6, [1e-300]), ([1e-300] * 6, [1e300])])
def test_find_scale_factor_rejects_incomes_not_positive_and_finite(survey_high, rich):
    # the last two derive a factor past the floats: it overflowed with a
    # RuntimeWarning or underflowed to 0 with an OverlapWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive and finite"):
            find_scale_factor(survey_high, rich)


def test_find_scale_factor_partial_overlap_warns():
    with pytest.warns(OverlapWarning):
        find_scale_factor([100.0, 1e9], [1000.0, 2000.0])


def test_fuse_with_explicit_factor_is_concatenation():
    fused = fuse([1.0, 2.0], [30.0, 40.0], factor=1.0)
    assert sorted(fused.tolist()) == [1.0, 2.0, 30.0, 40.0]


def test_fuse_empty_rich_returns_survey():
    fused = fuse([3.0, 1.0], [])
    assert sorted(fused.tolist()) == [1.0, 3.0]
    with pytest.raises(ValueError, match="^survey must be non-empty$"):
        fuse([], [30.0])


@pytest.mark.parametrize("factor", [-1.0, np.nan, 0.0, np.inf, True])
@pytest.mark.parametrize("survey, rich", [([3.0, 1.0], []), ([3.0, 1.0], [30.0]), ([], [])])
def test_fuse_checks_a_given_factor_first(survey, rich, factor):
    # an empty rich list accepted any factor, and an empty survey was reported first
    with pytest.raises(ValueError, match="^factor must be positive and finite"):
        fuse(survey, rich, factor=factor)


def test_fuse_derives_rule_based_factor():
    survey = list(np.linspace(10.0, 500.0, 40))
    rich = [50000.0, 80000.0, 90000.0]
    # top-6 survey minimum / rich minimum
    seg_min = sorted(survey)[-6]
    fused = fuse(survey, rich, top_k=6)
    factor = seg_min / 50000.0
    fused_set = set(fused.tolist())
    assert len(fused) == len(survey) + len(rich)
    for r in rich:
        assert any(abs(v - factor * r) < 1e-9 * factor * r for v in fused_set)


def test_fuse_takes_top_k_by_the_count_rule():
    # 1.5 silently took the top 1
    with pytest.raises(ValueError, match="^top_k must be >= 1"):
        fuse(np.linspace(10.0, 500.0, 40), [50000.0, 80000.0], top_k=1.5)


@given(st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=200))
def test_rank_ccdf_structure_property(values):
    ccdf = rank_ccdf(values)
    assert np.all(np.diff(ccdf.incomes) <= 0.0)
    assert np.all(np.diff(ccdf.p) > 0.0)
    assert 0.0 < ccdf.p[0] and ccdf.p[-1] < 1.0
    assert ccdf.n == len(values)


@given(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=50),
       st.floats(0.01, 100.0))
def test_rank_ccdf_scale_covariance(values, lam):
    base = rank_ccdf(values)
    scaled = rank_ccdf([lam * v for v in values])
    assert np.array_equal(scaled.p, base.p)
    assert np.allclose(scaled.incomes, lam * base.incomes, rtol=1e-12)


# -------------------------------------------- array reader against line reader
#
# load_incomes and EmpiricalCCDF.from_csv read through _read_table, which
# parses with numpy's C parser and runs _read_lines only when it refuses.  On
# any file the two must agree: the same array, or the same ParseError (line,
# column, message), or the same other ValueError.

_ODD_CELLS = ["", "   ", "\t", " 7.5 ", "income", "1_000", "nan", "inf", "-inf",
              "0", "-0.0", "-5.0", "1e-310", "1e300", "1e400", "abc", "1 2",
              "# 5", "5.0 #", "\"5.0\""]
_cells = st.one_of(st.floats().map(repr), st.floats(1e-320, 1e-300).map(repr),
                   st.floats(1e290, 1e308).map(repr), st.sampled_from(_ODD_CELLS))


def _outcome(read, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = read(path)
        except ParseError as exc:
            value = ("ParseError", exc.line, exc.column, str(exc))
        except ValueError as exc:
            value = (type(exc).__name__, str(exc))
    if isinstance(value, np.ndarray):
        value = (value.dtype.str, value.shape, value.tobytes())
    return value, [w.category for w in caught if issubclass(w.category, EmptyFileWarning)]


def _write_rows(path, header, rows, final_newline):
    text = "\n".join(([header] if header else []) + rows)
    path.write_text(text + ("\n" if final_newline else ""), encoding="utf-8")


@given(st.sampled_from([None, "income", "INCOME ", "  "]),
       st.lists(st.one_of(_cells, st.lists(_cells, min_size=2, max_size=3).map(",".join)),
                max_size=8),
       st.booleans())
def test_load_incomes_matches_line_reader(tmp_path_factory, header, rows, final_newline):
    path = tmp_path_factory.getbasetemp() / "incomes_property.csv"
    _write_rows(path, header, rows, final_newline)
    assert (_outcome(lambda p: empirics._read_table(p, "income"), path)
            == _outcome(lambda p: empirics._read_lines(p, "income"), path))


@given(st.sampled_from([None, "income,ccdf", "Income,CCDF", "income, ccdf", "income"]),
       st.lists(st.lists(_cells, min_size=1, max_size=3).map(",".join), max_size=8),
       st.booleans())
def test_from_csv_matches_line_reader(tmp_path_factory, header, rows, final_newline):
    path = tmp_path_factory.getbasetemp() / "ccdf_property.csv"
    _write_rows(path, header, rows, final_newline)
    assert (_outcome(lambda p: empirics._read_table(p, "income,ccdf"), path)
            == _outcome(lambda p: empirics._read_lines(p, "income,ccdf"), path))


@given(st.booleans(),
       st.lists(st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                          .map(repr), st.sampled_from(["", "  ", "\t"])), max_size=20))
def test_clean_income_files_take_the_array_parser(tmp_path_factory, header, rows):
    # repr doubles, subnormals included, with blank and whitespace lines:
    # numpy's parser must accept these itself, not hand them to the line reader
    path = tmp_path_factory.getbasetemp() / "clean_property.csv"
    _write_rows(path, "income" if header else None, rows, True)
    values = [float(r) for r in rows if r.strip()]
    assume(values)  # a file without rows goes to the line reader, which warns
    refuse = AssertionError("clean file sent to the line reader")
    with mock.patch.object(empirics, "_read_lines", side_effect=refuse):
        table = empirics._read_table(path, "income")
    assert table.shape == (len(values), 1)
    assert table.ravel().tolist() == values


@pytest.mark.parametrize("text, expect", [
    ("5.0", [5.0]),
    ("income\n5.0\n", [5.0]),
    ("income\n", []),
    ("", []),
    ("\n  \n", []),
])
def test_load_incomes_single_row_and_header_only(tmp_path, text, expect):
    path = tmp_path / "inc.csv"
    path.write_text(text, encoding="utf-8")
    if expect:
        assert load_incomes(path).tolist() == expect
    else:
        with pytest.warns(EmptyFileWarning):
            assert load_incomes(path).tolist() == []


@pytest.mark.parametrize("text, line", [("1 2\n", 1), ("income\n1,2\n", 2),
                                        ("5.0\nincome\n", 2), ("income\n0.5\n-1\n", 3)])
def test_load_incomes_rejects_single_odd_row(tmp_path, text, line):
    path = tmp_path / "inc.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_incomes(path)
    assert err.value.line == line


def test_from_csv_single_row_and_header_only(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("income,ccdf\n5.0,0.5\n", encoding="utf-8")
    one = EmpiricalCCDF.from_csv(path)
    assert one.incomes.tolist() == [5.0] and one.p.tolist() == [0.5]
    path.write_text("5.0,0.5,0.7\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"got 3 fields, expected 2 \(income,ccdf\)") as err:
        EmpiricalCCDF.from_csv(path)
    assert (err.value.line, err.value.column) == (1, 3)
    path.write_text("income,ccdf\n", encoding="utf-8")
    with pytest.warns(EmptyFileWarning), pytest.raises(ValueError, match="empty CCDF"):
        EmpiricalCCDF.from_csv(path)


@pytest.mark.parametrize("text, line, column", [
    ("income,ccdf\n5.0,0.25\n0,0.5\n", 3, 1),
    ("income,ccdf\n5.0,0.25\n\n4.0,-0.5\n", 4, 2),
    ("5.0,nan\n", 1, 2),
    ("5.0,0.25\n4.0,inf\n", 2, 2),
])
def test_from_csv_reports_non_positive_cell_position(tmp_path, text, line, column):
    # every cell of either file kind is a positive finite decimal, checked at
    # the reader, which knows the line and column
    path = tmp_path / "c.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        EmpiricalCCDF.from_csv(path)
    assert (err.value.line, err.value.column) == (line, column)


# ---------------------------------------------- joined writers against per-row


def _per_row(header, *columns):
    return (header + "\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                    for row in zip(*columns))).encode("utf-8")


def _sharded(shard_rows=3, cpus=3):
    """Patches under which every table of 2 * shard_rows rows or more goes to children."""
    return mock.patch.multiple(empirics, _SHARD_ROWS=shard_rows, _cpu_count=lambda: cpus)


def _assert_no_children():
    # every child started by the writer has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), max_size=30))
def test_write_csv_matches_per_row_output(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    a = np.array([r[0] for r in rows], dtype=float)
    b = np.array([r[1] for r in rows], dtype=float)
    with _sharded():
        empirics._write_csv(path, "income,ccdf", a, b)
        assert path.read_bytes() == _per_row("income,ccdf", a, b)
        empirics._write_csv(path, "income", a)
        assert path.read_bytes() == _per_row("income", a)


@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                min_size=1, max_size=30))
def test_ccdf_to_csv_matches_per_row_output(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "ccdf_written.csv"
    ccdf = rank_ccdf(values)
    with _sharded():
        ccdf.to_csv(path)
    assert path.read_bytes() == _per_row("income,ccdf", ccdf.incomes, ccdf.p)


# ------------------------------------------------------------- sharded writer


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_sharded_write_matches_per_row_output_at_the_edges(tmp_path, rows):
    # shards = min(3, rows // 3): one below 6 rows, two from 6, three from 9
    a = np.random.default_rng(rows).lognormal(10.0, 1.0, rows)
    b = np.arange(1, rows + 1) / (rows + 1.0)
    path = tmp_path / "t.csv"
    with _sharded(), mock.patch("subprocess.Popen", wraps=subprocess.Popen) as popen:
        empirics._write_csv(path, "income,ccdf", a, b)
    assert popen.call_count == (min(3, rows // 3) - 1 if rows >= 6 else 0)
    assert path.read_bytes() == _per_row("income,ccdf", a, b)
    _assert_no_children()


def test_sharded_write_at_the_real_threshold(tmp_path):
    # the smallest table that is sharded at the shipped shard size, on two CPUs
    rows = 2 * empirics._SHARD_ROWS
    ccdf = rank_ccdf(np.random.default_rng(5).pareto(2.0, rows) + 1.0)
    path = tmp_path / "c.csv"
    with mock.patch.object(empirics, "_cpu_count", lambda: 2), \
            mock.patch("subprocess.Popen", wraps=subprocess.Popen) as popen:
        ccdf.to_csv(path)
    assert popen.call_count == 1
    assert path.read_bytes() == _per_row("income,ccdf", ccdf.incomes, ccdf.p)
    _assert_no_children()


def test_sharded_write_of_float32_ensemble(tmp_path):
    # float32 samples print as the float64 reprs of their exact values
    params = preset_params("2008")
    samples = np.geomspace(1e3, 1e9, 10).astype(np.float32)
    config = SimConfig(coeffs=effective_to_coeffs(params), m1=params.m1, m_init=params.m_init,
                       dt=1e-3, n_steps=1, n_paths=samples.size, seed=0)
    path = tmp_path / "s.csv"
    with _sharded():
        Ensemble(samples=samples, config=config, n_reflections=0).to_csv(path)
    assert path.read_bytes() == _per_row("income", samples)
    _assert_no_children()


def _child_script(tmp_path, body):
    script = tmp_path / "child.py"
    script.write_text(body, encoding="utf-8")
    return mock.patch.object(empirics, "_ROWS_SCRIPT", str(script))


@pytest.mark.parametrize("executable", ["", "/nonexistent/python"])
def test_sharded_write_falls_back_when_no_child_starts(tmp_path, monkeypatch, executable):
    monkeypatch.setattr(sys, "executable", executable)
    a = np.geomspace(1.0, 1e6, 12)
    path = tmp_path / "t.csv"
    with _sharded():
        empirics._write_csv(path, "income", a)
    assert path.read_bytes() == _per_row("income", a)
    _assert_no_children()


@pytest.mark.parametrize("body", [
    "raise SystemExit(3)\n",  # fails before reading its columns
    "import sys\nsys.stdin.buffer.read()\nsys.stdout.write('1.0\\n')\nraise SystemExit(1)\n",
    # exits 0 with too few rows
    "import sys\nsys.stdin.buffer.read()\nsys.stdout.write('1.0\\n')\n",
])
def test_sharded_write_falls_back_when_a_child_fails(tmp_path, body):
    # 160 kB of columns per child, more than a pipe holds; they go through
    # a file, so a child that exits without reading them blocks nothing
    a = np.geomspace(1.0, 1e6, 30_000)
    b = np.linspace(0.1, 0.9, 30_000)
    path = tmp_path / "t.csv"
    with _sharded(), _child_script(tmp_path, body):
        empirics._write_csv(path, "income,ccdf", a, b)
    assert path.read_bytes() == _per_row("income,ccdf", a, b)
    _assert_no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_sharded_write_reaps_its_children_when_it_raises(tmp_path, error):
    # the children are started and fed before this process formats its shard
    a = np.geomspace(1.0, 1e6, 12)
    with _sharded(), mock.patch.object(empirics._rows, "format_rows", side_effect=error), \
            mock.patch("subprocess.Popen", wraps=subprocess.Popen) as popen:
        with pytest.raises(error):
            empirics._write_csv(tmp_path / "t.csv", "income", a)
    assert popen.call_count == 2
    _assert_no_children()
