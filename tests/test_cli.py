"""End-to-end command-line checks, driving cli.main in process.

Covers the documented exit codes (0 ok, 1 internal, 2 input, 3 estimation),
byte-level determinism of every file-producing subcommand, and the always-on
factor/ks report lines that scripts are expected to scrape.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import incomedist
from conftest import C_HI_OVERFLOW, DROPPED, FAR, INTEGRAL_OVERFLOW, UNDERFLOW, noiseless_ccdf
from incomedist import (
    ClassStats,
    EmpiricalCCDF,
    EmptyFileWarning,
    FitReport,
    LangevinCoeffs,
    ModelParams,
    SimConfig,
    ccdf_eval,
    ccdf_eval_many,
    class_fractions,
    effective_to_coeffs,
    fit_full,
    fit_rank,
    forbes_incomes,
    fuse,
    load_incomes,
    load_wealth_pairs,
    median_income,
    normalize,
    preset_params,
    run_ensemble,
    sample_incomes,
    stability_bound,
)
from incomedist.cli import main


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def _income_csv(path, values):
    _write(path, "income\n" + "".join(f"{float(v)!r}\n" for v in values))


def _wealth_csv(path, rows):
    lines = ["id,wealth_prev,wealth_curr"]
    lines += [f"w{i},{float(p)!r},{float(c)!r}" for i, (p, c) in enumerate(rows)]
    _write(path, "\n".join(lines) + "\n")


def _params_json(tmp_path, params):
    pfile = tmp_path / "params.json"
    _write(pfile, params.to_json())
    return pfile


def _read_table(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines[1:]]
    return lines[0], np.array([[float(v) for v in row] for row in cells])


# ---------------------------------------------------------------- ccdf


def test_ccdf_three_rows_and_round_trip(tmp_path):
    inp = tmp_path / "inc.csv"
    _income_csv(inp, [20.0, 10.0, 30.0])
    out = tmp_path / "out.csv"
    assert main(["ccdf", str(inp), "--output", str(out), "--quiet"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "income,ccdf"
    # descending incomes, Weibull positions l/(n+1), repr-exact cells
    assert lines[1:] == ["30.0,0.25", "20.0,0.5", "10.0,0.75"]
    back = EmpiricalCCDF.from_csv(out)
    assert np.array_equal(back.incomes, [30.0, 20.0, 10.0])
    assert np.array_equal(back.p, [0.25, 0.5, 0.75])


def test_ccdf_reads_an_income_file_that_starts_with_a_byte_order_mark(tmp_path):
    inp = tmp_path / "inc.csv"
    inp.write_text("income\n20.0\n10.0\n30.0\n", encoding="utf-8-sig")
    out = tmp_path / "out.csv"
    assert main(["ccdf", str(inp), "--output", str(out), "--quiet"]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == ["income,ccdf", "30.0,0.25", "20.0,0.5", "10.0,0.75"]


def test_ccdf_default_output_in_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inp = tmp_path / "inc.csv"
    _income_csv(inp, [1.0, 2.0])
    assert main(["ccdf", str(inp)]) == 0
    assert (tmp_path / "ccdf.csv").exists()
    assert "wrote ccdf.csv (2 points)" in capsys.readouterr().out


def test_quiet_suppresses_summary(tmp_path, capsys):
    inp = tmp_path / "inc.csv"
    _income_csv(inp, [1.0, 2.0])
    assert main(["ccdf", str(inp), "--output", str(tmp_path / "o.csv"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------- fuse


def test_fuse_derived_factor_and_report(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    _income_csv(survey, range(1, 11))
    wealth = tmp_path / "wealth.csv"
    # gains 500..1000 against the top-6 survey incomes 5..10: factor 0.01
    _wealth_csv(wealth, [(0.0, 100.0 * g) for g in (5, 6, 7, 8, 9, 10)])
    out = tmp_path / "fused.csv"
    assert main(["fuse", str(survey), str(wealth), "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == "factor: 0.01\n"
    rows = [float(s) for s in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows[:10] == [float(v) for v in range(1, 11)]
    assert sorted(rows[10:]) == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_fuse_cut_takes_the_survey_incomes_strictly_above_it(tmp_path, capsys):
    survey, wealth, out = tmp_path / "survey.csv", tmp_path / "wealth.csv", tmp_path / "fused.csv"
    incomes = np.linspace(10.0, 500.0, 40)
    _income_csv(survey, incomes)
    _wealth_csv(wealth, [(0.0, 50_000.0), (0.0, 80_000.0)])
    # the segment is the 8 incomes above 400, the lowest 412.05...: factor 412.05... / 50,000
    assert main(["fuse", str(survey), str(wealth), "--cut", "400", "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == "factor: 0.008241025641025641\n"
    fused = fuse(incomes, [50_000.0, 80_000.0], cut=400.0)
    assert fused.tolist() == incomes.tolist() + [412.05128205128204, 659.2820512820513]
    expect = "income\n" + "".join(f"{m!r}\n" for m in fused.tolist())
    assert out.read_text(encoding="utf-8") == expect
    out.unlink()
    for cut in ("500", "600"):  # no survey income lies strictly above the cut
        assert main(["fuse", str(survey), str(wealth), "--cut", cut, "--output", str(out)]) == 2
        assert "both income lists must be non-empty" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="both income lists must be non-empty"):
            fuse(incomes, [50_000.0, 80_000.0], cut=float(cut))


def test_fuse_fixed_factor_passthrough(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    _income_csv(survey, [3.0, 4.0])
    wealth = tmp_path / "wealth.csv"
    _wealth_csv(wealth, [(10.0, 30.0)])
    out = tmp_path / "fused.csv"
    args = ["fuse", str(survey), str(wealth), "--factor", "1", "--output", str(out), "--quiet"]
    assert main(args) == 0
    assert capsys.readouterr().out == "factor: 1.0\n"
    rows = [float(s) for s in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [3.0, 4.0, 20.0]
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first  # byte-deterministic rerun


def test_fuse_reads_a_quoted_id_holding_a_comma(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    _income_csv(survey, [2.5, 3.0])
    wealth = tmp_path / "wealth.csv"
    # gains 2.5 and 3.0 against the survey's 2.5 and 3.0; zero wealth is valid
    _write(wealth, 'id,wealth_prev,wealth_curr\n"Smith, J",1.0,3.5\n"Doe, A",0,3\n"Roe, B",0,0\n')
    out = tmp_path / "fused.csv"
    assert main(["fuse", str(survey), str(wealth), "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == "factor: 1.0\n"
    assert out.read_text(encoding="utf-8") == "income\n2.5\n3.0\n2.5\n3.0\n"


def test_fuse_empty_rich_needs_factor(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    _income_csv(survey, [3.0, 4.0])
    loss, no_rows = tmp_path / "loss.csv", tmp_path / "no_rows.csv"
    _wealth_csv(loss, [(100.0, 40.0)])  # a loss: no effective income
    _wealth_csv(no_rows, [])  # the header alone
    out = tmp_path / "fused.csv"
    for wealth in (loss, no_rows):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fuse", str(survey), str(wealth), "--output", str(out)]) == 2
            assert "empty rich" in capsys.readouterr().err
            for bad in ("-1", "nan"):  # each exited 0 and printed its factor
                assert main(["fuse", str(survey), str(wealth), "--factor", bad, "--output", str(out)]) == 2
                assert "factor must be positive and finite" in capsys.readouterr().err
                assert not out.exists()
            assert main(["fuse", str(survey), str(wealth), "--factor", "1",
                         "--output", str(out), "--quiet"]) == 0
        assert {w.category for w in caught} == ({EmptyFileWarning} if wealth == no_rows else set())
        rows = [float(s) for s in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows == [3.0, 4.0]
        out.unlink()


def test_fuse_of_a_factor_past_the_float_range_exits_2(tmp_path, capsys):
    # the derived factor 1e300 / 1e-300 overflowed with a RuntimeWarning: exit 1 under -W error
    survey, wealth, out = tmp_path / "survey.csv", tmp_path / "wealth.csv", tmp_path / "fused.csv"
    _income_csv(survey, [1e300] * 6)
    _wealth_csv(wealth, [(0.0, 1e-300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["fuse", str(survey), str(wealth), "--output", str(out)]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- fit


def test_fit_exact_exponential_is_estimation_failure(tmp_path, capsys):
    # a pure exponential sample has no power segment: the fit must refuse
    # loudly (exit 3) instead of reporting arbitrary crossovers
    n, T, m_init = 400, 4.0e4, 0.01
    ps = np.arange(1, n + 1) / (n + 1.0)
    inp = tmp_path / "expo.csv"
    _income_csv(inp, (m_init - T * np.log(ps)).tolist())
    assert main(["fit", str(inp), "--output", str(tmp_path / "fit.json")]) == 3
    assert "estimation failed" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("m_init, code, message", [
    ("0", 2, "m_init must be positive and finite"), ("-1", 2, "m_init must be positive and finite"),
    ("nan", 2, "m_init must be positive and finite"), ("inf", 2, "m_init must be positive and finite"),
    ("1e9", 3, "segment fits give no valid model")])
def test_fit_checks_m_init_before_the_fit(tmp_path, capsys, ccdf08_noiseless, m_init, code, message):
    # a bad floor is an input error (each exited 3); one past the segment breaks is an estimation failure
    data, out = tmp_path / "ccdf.csv", tmp_path / "fit.json"
    ccdf08_noiseless.to_csv(data)
    assert main(["fit", str(data), "--m-init", m_init, "--output", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()
    if code == 2:
        with pytest.raises(ValueError, match=f"^{message}"):
            fit_full(ccdf08_noiseless, float(m_init))


def test_fit_deterministic_bytes(tmp_path, ccdf08_noiseless):
    data = tmp_path / "ccdf.csv"
    ccdf08_noiseless.to_csv(data)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", str(data), "--output", str(out1), "--quiet"]) == 0
    assert main(["fit", str(data), "--output", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text(encoding="utf-8"))
    assert set(obj) == {"params", "T_bg", "m0_hat", "alpha_se", "alpha1_se", "m0_rel_unc",
                        "m1_rel_unc", "ssr_per_segment", "degenerate_tail"}
    assert 0.0 < obj["m0_hat"] < obj["params"]["m1"]
    assert obj["degenerate_tail"] is False


def test_fit_accepts_spaced_ccdf_header(tmp_path, ccdf08_noiseless):
    data = tmp_path / "ccdf.csv"
    ccdf08_noiseless.to_csv(data)
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    _write(data, "income, ccdf\n" + "".join(lines[1:]))
    out = tmp_path / "fit.json"
    assert main(["fit", str(data), "--output", str(out), "--quiet"]) == 0
    assert "params" in json.loads(out.read_text(encoding="utf-8"))


def test_fit_reads_a_ccdf_export_without_its_header(tmp_path, ccdf08_noiseless):
    # two cells on the first non-blank line make a CCDF, with or without the header
    data, bare = tmp_path / "ccdf.csv", tmp_path / "bare.csv"
    ccdf08_noiseless.to_csv(data)
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    _write(bare, "\n" + "".join(lines[1:]))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for src, out in zip((data, bare), outs):
        assert main(["fit", str(src), "--output", str(out), "--quiet"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# ---------------------------------------------------------------- eval


def test_eval_default_grid_anchors(tmp_path, params08):
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "model.csv"
    assert main(["eval", str(pfile), "--output", str(out), "--quiet"]) == 0
    header, table = _read_table(out)
    assert header == "income,ccdf"
    assert table.shape == (400, 2)
    grid, pi = table[:, 0], table[:, 1]
    assert grid[0] == params08.m_init
    assert pi[0] == pytest.approx(1.0, abs=1e-12)
    assert grid[-1] == pytest.approx(100.0 * params08.m1, rel=1e-12)
    assert np.all(np.diff(grid) > 0.0)
    assert np.all(np.diff(pi) <= 0.0)
    assert np.all(pi > 0.0)


def test_eval_slope_regimes(tmp_path, params08):
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "model.csv"
    assert main(["eval", str(pfile), "--grid", "0.01:1e9:1500",
                 "--output", str(out), "--quiet"]) == 0
    _, table = _read_table(out)
    lnm, lnp = np.log(table[:, 0]), np.log(table[:, 1])
    slope = (lnp[2:] - lnp[:-2]) / (lnm[2:] - lnm[:-2])
    mid = table[1:-1, 0]
    window = slope[(mid >= params08.m0) & (mid <= params08.m1)]
    # the local log-log slope sweeps through -alpha between the crossovers
    assert np.min(np.abs(window + params08.alpha)) < 0.02 * params08.alpha
    tail = (lnp[-1] - lnp[-2]) / (lnm[-1] - lnm[-2])
    assert tail == pytest.approx(-params08.alpha1, rel=0.02)


def test_eval_grid_ends_at_the_largest_float(tmp_path, params08):
    # the log grid's power overflowed: a RuntimeWarning, and exit 1 under -W error
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "model.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["eval", str(pfile), "--grid", "1:1.7976931348623157e308:400",
                     "--output", str(out), "--quiet"]) == 0
    last = out.read_text(encoding="utf-8").splitlines()[-1]
    assert last.split(",")[0] == "1.7976931348623157e+308"


def test_eval_rejects_bad_grid(tmp_path, params08, capsys):
    pfile = _params_json(tmp_path, params08)
    assert main(["eval", str(pfile), "--grid", "5:1:10"]) == 2
    assert main(["eval", str(pfile), "--grid", "oops"]) == 2
    err = capsys.readouterr().err
    assert "bad grid range" in err and "lo:hi:n" in err


# ---------------------------------------------------------------- simulate


def test_simulate_same_seed_same_bytes(tmp_path, params08, capsys):
    pfile = _params_json(tmp_path, params08)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", str(pfile), "--n-steps", "200", "--n-paths", "300",
            "--seed", "11", "--quiet"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert out.count("ks: ") == 2


def test_simulate_float32_writes_the_single_precision_ensemble(tmp_path, params08):
    pfile = _params_json(tmp_path, params08)
    out, ref = tmp_path / "s.csv", tmp_path / "ref.csv"
    args = ["simulate", str(pfile), "--n-steps", "200", "--n-paths", "300", "--seed", "11",
            "--output", str(out), "--quiet"]
    coeffs = effective_to_coeffs(params08)
    # the config a params input runs: dt defaults to 1% of the stability bound
    config = SimConfig(coeffs=coeffs, m1=params08.m1, m_init=params08.m_init,
                       dt=0.01 * stability_bound(coeffs), n_steps=200, n_paths=300, seed=11)
    assert main(args + ["--float32"]) == 0
    run_ensemble(config, dtype="float32").to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() != ref.read_bytes()


def test_simulate_zero_steps_stays_at_initial(tmp_path, params08):
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "s.csv"
    assert main(["simulate", str(pfile), "--n-steps", "0", "--n-paths", "5",
                 "--initial", "50000", "--output", str(out), "--quiet"]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows == ["income"] + ["50000.0"] * 5


def test_simulate_unstable_dt_exit2(tmp_path, params08, capsys):
    pfile = _params_json(tmp_path, params08)
    assert main(["simulate", str(pfile), "--dt", "10", "--n-paths", "10",
                 "--output", str(tmp_path / "s.csv")]) == 2
    assert "stability bound" in capsys.readouterr().err


def test_simulate_zero_dt_exit2(tmp_path, params08, capsys):
    # an explicit 0 is a bad step, not a request for the default one
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "s.csv"
    assert main(["simulate", str(pfile), "--dt", "0", "--n-steps", "5", "--n-paths", "10",
                 "--output", str(out)]) == 2
    assert "dt must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_nan_initial_exit2_no_output(tmp_path, params08, capsys):
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "s.csv"
    assert main(["simulate", str(pfile), "--initial", "nan", "--n-steps", "5",
                 "--n-paths", "10", "--output", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_coefficient_input(tmp_path, capsys):
    for coeffs, m1, ks in [
        ({"A0": 496202.5316455696, "a": 1.902, "A0_hi": 496202.5316455696, "a_hi": -0.21,
          "B0": 1.96e10, "b": 1.0}, "4e5", "ks: "),
        # A0 = 0: no temperature B0/A0, so the paths start at m_init and no law normalizes
        ({"A0": 0, "a": 1.9, "A0_hi": 0, "a_hi": -0.2, "B0": 1, "b": 1}, "5",
         "ks: undefined (no normalizable equilibrium)\n")]:
        cfile = tmp_path / "coeffs.json"
        _write(cfile, json.dumps(coeffs))
        out = tmp_path / "s.csv"
        base = ["simulate", str(cfile), "--n-steps", "50", "--n-paths", "20",
                "--output", str(out), "--quiet"]
        assert main(base) == 2  # threshold location is not part of the coefficients
        assert "--m1" in capsys.readouterr().err
        assert main(base + ["--m1", m1]) == 0
        assert capsys.readouterr().out.startswith(ks)
        assert len(out.read_text(encoding="utf-8").splitlines()) == 21


# ---------------------------------------------------------------- stats


def test_stats_model_2006(tmp_path, params06):
    pfile = _params_json(tmp_path, params06)
    out = tmp_path / "stats.json"
    assert main(["stats", "--params", str(pfile), "--output", str(out), "--quiet"]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["f_low"] + obj["f_med"] + obj["f_high"] == pytest.approx(100.0, abs=1e-9)
    assert obj["r1"] == pytest.approx(32.66, rel=0.20)
    assert obj["r2"] == pytest.approx(16.48, rel=0.20)
    assert obj["gini"] is None
    assert 0.0 < obj["median"] < params06.m0


def test_stats_gini_only(tmp_path):
    inp = tmp_path / "inc.csv"
    _income_csv(inp, [42.0] * 5)
    out = tmp_path / "stats.json"
    assert main(["stats", "--incomes", str(inp), "--output", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"gini": 0.0, "n": 5}


def test_stats_gini_of_incomes_near_the_largest_float(tmp_path):
    # the sums overflowed: exit 0 with {"gini": NaN, "n": 3}, which is no JSON
    inp = tmp_path / "big.csv"
    _income_csv(inp, [1e308, 1e308, 1e300])
    out = tmp_path / "stats.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stats", "--incomes", str(inp), "--output", str(out), "--quiet"]) == 0

    def no_constant(name):
        raise ValueError(f"{name} is no JSON number")

    obj = json.loads(out.read_text(encoding="utf-8"), parse_constant=no_constant)
    # sorted 1e300, 1e308, 1e308: 100 (2 sum_i i x_(i) / (n sum_i x_i) - (n + 1)/n), near 100/3
    want = 100.0 * (2.0 * (1e-8 + 2.0 + 3.0) / (3.0 * (2.0 + 1e-8)) - 4.0 / 3.0)
    assert obj["n"] == 3 and obj["gini"] == pytest.approx(want, rel=1e-12)


def test_stats_requires_some_input(capsys):
    assert main(["stats"]) == 2
    assert "--params and/or --incomes" in capsys.readouterr().err


# ---------------------------------------------------------------- rank


@pytest.mark.parametrize("alpha_rank", [0.82, 0.93])
def test_rank_exact_power_recovery(tmp_path, alpha_rank):
    ranks = np.arange(1, 201, dtype=float)
    inp = tmp_path / "vals.csv"
    _income_csv(inp, (3.0e4 * ranks ** (-alpha_rank)).tolist())
    out = tmp_path / "rank.json"
    assert main(["rank", str(inp), "--output", str(out), "--quiet"]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert round(obj["alpha_rank"], 4) == alpha_rank
    assert obj["alpha_pareto"] == pytest.approx(1.0 / alpha_rank, rel=1e-9)
    assert obj["stderr"] == pytest.approx(0.0, abs=1e-7)
    assert out.read_text(encoding="utf-8") == fit_rank(load_incomes(inp)).to_json() + "\n"


def test_rank_degenerate_values_exit2(tmp_path, capsys):
    inp = tmp_path / "vals.csv"
    _income_csv(inp, [7.0] * 50)
    assert main(["rank", str(inp), "--output", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------- errors


def test_missing_input_file_exit2(tmp_path, capsys):
    assert main(["ccdf", str(tmp_path / "nope.csv")]) == 2
    assert "error: ccdf:" in capsys.readouterr().err


def test_malformed_income_value_exit2(tmp_path, capsys):
    inp = tmp_path / "inc.csv"
    _write(inp, "income\n1.0\nabc\n")
    assert main(["ccdf", str(inp), "--output", str(tmp_path / "o.csv")]) == 2
    assert "error: ccdf:" in capsys.readouterr().err


# files that hold no usable params, coefficient or sim-config record
_P08 = preset_params("2008")
_CONFIG08 = json.loads(SimConfig(coeffs=effective_to_coeffs(_P08), m1=_P08.m1, m_init=_P08.m_init,
                                 dt=1e-3, n_steps=5, n_paths=10, seed=0).to_json())
_MALFORMED = {
    "not-json": "{not json",
    "partial": json.dumps({"T": 4.0e4}),
    "number": "5",
    "null": "null",
    "true": "true",
    "T-list": json.dumps(dict(json.loads(_P08.to_json()), T=[1])),
    "T-null": json.dumps(dict(json.loads(_P08.to_json()), T=None)),
    "coeff-missing": json.dumps(dict(_CONFIG08, coeffs={k: v for k, v in _CONFIG08["coeffs"].items()
                                                        if k != "b"})),
    "no-dt": json.dumps({k: v for k, v in _CONFIG08.items() if k != "dt"}),
    "coeffs-list": json.dumps(dict(_CONFIG08, coeffs=list(_CONFIG08["coeffs"].values()))),
    "n_paths-list": json.dumps(dict(_CONFIG08, n_paths=[3])),
    "n_paths-inf": json.dumps(dict(_CONFIG08, n_paths=math.inf)),
    # JSON numbers only: no strings, no booleans, no fractions for integer keys
    "T-string": json.dumps(dict(json.loads(_P08.to_json()), T="2e4")),
    "alpha-true": json.dumps(dict(json.loads(_P08.to_json()), alpha=True)),
    "n_steps-true": json.dumps(dict(_CONFIG08, n_steps=True)),
    "seed-fraction": json.dumps(dict(_CONFIG08, seed=2.7)),
    "n_paths-fraction": json.dumps(dict(_CONFIG08, n_paths=1.5)),
    # a JSON integer past the float range
    "T-past-float": json.dumps(dict(json.loads(_P08.to_json()), T=10**400)),
    "m1-past-float": json.dumps(dict(_CONFIG08, m1=10**400)),
}


@pytest.mark.parametrize("argv", [["stats", "--params"], ["eval"],
                                  ["simulate", "--n-steps", "5", "--n-paths", "10"]],
                         ids=["stats", "eval", "simulate"])
@pytest.mark.parametrize("name", list(_MALFORMED))
def test_bad_params_json_exit2(tmp_path, capsys, name, argv):
    # an input error, never an internal error
    bad = tmp_path / f"{name}.json"
    _write(bad, _MALFORMED[name])
    out = tmp_path / "out"
    assert main(argv + [str(bad), "--output", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}:"), err
    if name == "partial" and argv[0] != "simulate":
        assert "missing keys" in err
    assert not out.exists()


def test_simulate_reports_dt_over_tau(tmp_path, params08, capsys):
    # dt against the bulk's relaxation time tau = B0 / A0^2, beside dt; the
    # default dt of a params input is 1% of the stability bound
    coeffs = effective_to_coeffs(params08)
    dt = 0.01 * stability_bound(coeffs)
    out = tmp_path / "s.csv"
    assert main(["simulate", str(_params_json(tmp_path, params08)), "--n-steps", "5", "--n-paths", "10",
                 "--output", str(out)]) == 0
    assert f", dt={dt:.6g}, dt/tau={dt * coeffs.A0 ** 2 / coeffs.B0:.4g}, 5 steps" in capsys.readouterr().out
    assert f"{dt * coeffs.A0 ** 2 / coeffs.B0:.4g}" == "0.03302"  # about tau/30 on 2008
    # A0 = 0: no temperature, so no tau
    cfile = tmp_path / "coeffs.json"
    _write(cfile, json.dumps({"A0": 0, "a": 1.9, "A0_hi": 0, "a_hi": -0.2, "B0": 1, "b": 1}))
    assert main(["simulate", str(cfile), "--m1", "5", "--dt", "1e-3", "--n-steps", "5", "--n-paths", "10",
                 "--output", str(out)]) == 0
    assert "wrote " + str(out) + " (10 paths, dt=0.001, dt/tau=undefined, 5 steps, " in capsys.readouterr().out


def test_simulate_ignores_unknown_json_keys(tmp_path):
    cfile = tmp_path / "config.json"
    _write(cfile, json.dumps(dict(_CONFIG08, coeffs=dict(_CONFIG08["coeffs"], c=1.0),
                                  comment="extra keys are ignored")))
    assert main(["simulate", str(cfile), "--n-steps", "5", "--n-paths", "10",
                 "--output", str(tmp_path / "s.csv"), "--quiet"]) == 0


def test_simulate_sim_config_runs_as_saved(tmp_path):
    # every field of a saved config is used, and a flag replaces only its
    # own; the key `burn_in` of older configs is ignored
    config = SimConfig(coeffs=effective_to_coeffs(_P08), m1=_P08.m1, m_init=_P08.m_init,
                       dt=1e-3, n_steps=50, n_paths=300, seed=1)
    cfile, out, ref = tmp_path / "config.json", tmp_path / "s.csv", tmp_path / "ref.csv"
    _write(cfile, json.dumps(dict(json.loads(config.to_json()), burn_in=10)))
    for flags, changes in [([], {}), (["--dt", "5e-4"], {"dt": 5e-4}),
                           (["--n-steps", "20"], {"n_steps": 20}),
                           (["--n-paths", "100"], {"n_paths": 100}),
                           (["--seed", "2"], {"seed": 2})]:
        assert main(["simulate", str(cfile), *flags, "--output", str(out), "--quiet"]) == 0
        run_ensemble(dataclasses.replace(config, **changes)).to_csv(ref)
        assert out.read_bytes() == ref.read_bytes(), flags
        assert out.read_bytes().count(b"\n") == 1 + changes.get("n_paths", 300)
    # a count saved as the JSON number 100.0 gives the bytes of --n-paths 100
    _write(cfile, json.dumps(dict(json.loads(config.to_json()), n_paths=100.0)))
    assert main(["simulate", str(cfile), "--output", str(out), "--quiet"]) == 0
    run_ensemble(dataclasses.replace(config, n_paths=100)).to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("flags", [["--m1", "5e5"], ["--m-init", "3"],
                                   ["--m1", "5e5", "--m-init", "3"]])
@pytest.mark.parametrize("kind", ["params", "sim-config"])
def test_simulate_law_flags_need_coefficient_input(tmp_path, capsys, kind, flags):
    # a params or sim-config input sets its own m1 and m_init, so a flag that
    # would replace them is an input error, not a flag silently dropped
    config = SimConfig(coeffs=effective_to_coeffs(_P08), m1=_P08.m1, m_init=_P08.m_init,
                       dt=1e-3, n_steps=5, n_paths=10, seed=1)
    cfile, out = tmp_path / "input.json", tmp_path / "s.csv"
    _write(cfile, _P08.to_json() if kind == "params" else config.to_json())
    assert main(["simulate", str(cfile), *flags, "--n-steps", "5", "--n-paths", "10",
                 "--output", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: simulate:")
    assert all(flag in err for flag in flags[::2])
    assert not out.exists()


def test_simulate_coefficient_input_m_init_defaults_to_0_01(tmp_path):
    cfile = tmp_path / "coeffs.json"
    _write(cfile, json.dumps(dataclasses.asdict(effective_to_coeffs(_P08))))
    outs = [tmp_path / "default.csv", tmp_path / "given.csv"]
    for out, extra in zip(outs, ([], ["--m-init", "0.01"])):
        assert main(["simulate", str(cfile), "--m1", "4e5", *extra, "--n-steps", "20",
                     "--n-paths", "50", "--seed", "3", "--output", str(out), "--quiet"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_json_writers_pin_key_order_and_number_format():
    # sorted keys, repr floats, JSON null and false, a tuple as a list, and
    # a fit report's params without the normalization constants
    coeffs = LangevinCoeffs(A0=1.5, a=2.0, A0_hi=0.25, a_hi=-0.5, B0=1e16, b=1.0)
    config = SimConfig(coeffs=coeffs, m1=4e5, m_init=0.01, dt=0.001, n_steps=20, n_paths=3,
                       seed=7)
    assert config.to_json() == (
        '{"coeffs": {"A0": 1.5, "A0_hi": 0.25, "B0": 1e+16, "a": 2.0, '
        '"a_hi": -0.5, "b": 1.0}, "dt": 0.001, "m1": 400000.0, "m_init": 0.01, '
        '"n_paths": 3, "n_steps": 20, "seed": 7}')
    stats = ClassStats(f_low=60.0, f_med=39.9, f_high=0.1, r1=1 / 3, r2=399.0, median=12345.5)
    assert stats.to_json() == (
        '{"f_high": 0.1, "f_low": 60.0, "f_med": 39.9, "gini": null, "median": 12345.5, '
        '"r1": 0.3333333333333333, "r2": 399.0}')
    params = ModelParams(T=1.0, T1=2.0, alpha=1.5, alpha1=0.5, m0=10.0, m1=100.0, m_init=0.01)
    report = FitReport(params=params, T_bg=1.0, alpha_se=0.0625, alpha1_se=1e-05, m0_hat=10.0,
                       m0_rel_unc=0.1, m1_rel_unc=0.2, ssr_per_segment=(1.0, 2.5, 1e-20))
    assert report.to_json() == (
        '{"T_bg": 1.0, "alpha1_se": 1e-05, "alpha_se": 0.0625, "degenerate_tail": false, '
        '"m0_hat": 10.0, "m0_rel_unc": 0.1, "m1_rel_unc": 0.2, "params": {"T": 1.0, "T1": 2.0, '
        '"alpha": 1.5, "alpha1": 0.5, "m0": 10.0, "m1": 100.0, "m_init": 0.01}, '
        '"ssr_per_segment": [1.0, 2.5, 1e-20]}')


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_seed_is_a_simulate_option_only(tmp_path):
    # only simulate draws random numbers; elsewhere --seed is a usage error
    inp = tmp_path / "inc.csv"
    _income_csv(inp, [1.0, 2.0, 3.0])
    with pytest.raises(SystemExit) as exc:
        main(["ccdf", str(inp), "--seed", "1", "--output", str(tmp_path / "o.csv")])
    assert exc.value.code == 2


# ------------------------------------------------- fit.json as parameter input


def test_fit_json_feeds_stats_eval_simulate(tmp_path, ccdf08_noiseless):
    data, fit = tmp_path / "ccdf.csv", tmp_path / "fit.json"
    ccdf08_noiseless.to_csv(data)
    assert main(["fit", str(data), "--output", str(fit), "--quiet"]) == 0
    flat = tmp_path / "flat.json"
    _write(flat, json.dumps(json.loads(fit.read_text(encoding="utf-8"))["params"]))
    for argv, name in ((["stats", "--params"], "stats.json"), (["eval"], "model.csv"),
                       (["simulate", "--n-steps", "20", "--n-paths", "50"], "s.csv")):
        outs = []
        for pfile in (fit, flat):
            outs.append(tmp_path / f"{pfile.stem}-{name}")
            assert main(argv + [str(pfile), "--output", str(outs[-1]), "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_continuity_overflow_is_input_error(tmp_path, params08, capsys):
    # the 2008 shape with a cold upper branch: exp(m0 (1/T1 - 1/T) u1) overflows
    obj = json.loads(params08.to_json())
    obj["T1"] = 100.0
    pfile = tmp_path / "cold.json"
    _write(pfile, json.dumps(obj))
    assert main(["stats", "--params", str(pfile), "--output", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stats:") and "m0/T1 = 1400" in err


def test_fuse_top_k_below_one_exit2(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    _income_csv(survey, range(1, 11))
    wealth = tmp_path / "wealth.csv"
    _wealth_csv(wealth, [(0.0, 500.0)])
    out = tmp_path / "fused.csv"
    assert main(["fuse", str(survey), str(wealth), "--top-k", "0", "--output", str(out)]) == 2
    assert "top_k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_eval_and_fuse_bytes_match_per_row_output(tmp_path, params08):
    pfile = _params_json(tmp_path, params08)
    out = tmp_path / "model.csv"
    assert main(["eval", str(pfile), "--grid", "0.01:1e7:37", "--output", str(out), "--quiet"]) == 0
    grid = np.geomspace(0.01, 1e7, 37)
    grid[0] = 0.01
    pi = ccdf_eval_many(params08, grid)
    expect = "income,ccdf\n" + "".join(f"{m!r},{v!r}\n" for m, v in zip(grid.tolist(), pi.tolist()))
    assert out.read_bytes() == expect.encode("utf-8")

    survey = tmp_path / "survey.csv"
    _income_csv(survey, [0.1 * k for k in range(1, 30)])
    wealth = tmp_path / "wealth.csv"
    _wealth_csv(wealth, [(0.0, 3.0e4 / 7.0), (1.0, 9.0e4 / 7.0)])
    out = tmp_path / "fused.csv"
    assert main(["fuse", str(survey), str(wealth), "--output", str(out), "--quiet"]) == 0
    fused = fuse(load_incomes(survey), forbes_incomes(load_wealth_pairs(wealth)))
    expect = "income\n" + "".join(f"{m!r}\n" for m in fused.tolist())
    assert out.read_bytes() == expect.encode("utf-8")


def test_cli_pipeline_runs_with_scipy_blocked(tmp_path, params08):
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, ccdf -> fit -> stats -> eval -> simulate all exit 0, and write
    # the bytes that the same commands write with scipy importable
    incomes = tmp_path / "incomes.csv"
    _income_csv(incomes, sample_incomes(params08, 20000, seed=1))
    names = ("ccdf.csv", "fit.json", "stats.json", "e.csv", "sim.csv")

    def commands(folder):
        out = {name: str(folder / name) for name in names}
        return [
            ["ccdf", str(incomes), "--output", out["ccdf.csv"]],
            ["fit", out["ccdf.csv"], "--output", out["fit.json"]],
            ["stats", "--params", out["fit.json"], "--incomes", str(incomes), "--output", out["stats.json"]],
            ["eval", out["fit.json"], "--output", out["e.csv"]],
            ["simulate", out["fit.json"], "--n-paths", "200", "--n-steps", "50", "--seed", "1",
             "--output", out["sim.csv"]],
        ]

    blocked, importable = tmp_path / "blocked", tmp_path / "importable"
    blocked.mkdir()
    importable.mkdir()
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # every import of scipy or a submodule raises ImportError\n"
        "from incomedist import cli\n"
        "assert 'subprocess' not in sys.modules, 'import loads subprocess'\n"
        f"for argv in {commands(blocked)!r}:\n"
        "    assert cli.main(argv + ['--quiet']) == 0, argv[0]\n"
    )
    src = os.path.dirname(os.path.dirname(incomedist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for argv in commands(importable):
        assert main(argv + ["--quiet"]) == 0, argv[0]
    for name in names:
        assert os.path.getsize(blocked / name) > 0, name
        assert (blocked / name).read_bytes() == (importable / name).read_bytes(), name


def test_the_package_exports_exactly_its_modules_public_names():
    # each module's __all__ is the one list of its public names: the package
    # binds every one of them to the module's own object, and nothing else
    from incomedist import empirics, estimate, inequality, model, presets, simulate

    modules = (empirics, estimate, inequality, model, presets, simulate)
    public = {name for name, value in vars(incomedist).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {name for module in modules for name in module.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(incomedist, name) is getattr(module, name), f"{module.__name__}.{name}"


# ------------------------------------------- property: documented exit codes


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


@st.composite
def _accepted_params(draw):
    """Parameter sets that ModelParams accepts, over scales from 1e-100 to 1e120."""
    m_init = draw(_decades(-100.0, 100.0))
    m0 = m_init * draw(_decades(1e-6, 10.0))
    m1 = m0 * draw(_decades(0.0, 10.0))
    alpha1 = draw(st.one_of(_decades(-6.0, 2.0), st.floats(-5.0, 0.0)))
    return dict(T=m0 * draw(_decades(-100.0, 100.0)), T1=m0 * draw(_decades(-100.0, 100.0)),
                alpha=draw(_decades(-6.0, 2.0)), alpha1=alpha1, m0=m0, m1=m1, m_init=m_init)


@settings(max_examples=20)
@given(_accepted_params())
# the quantile's decade climb from a top rung below ~5.6e-9 formed
# 1e300 / rung, which overflowed: this exited 1 (OverflowError)
@example(dict(T=1e-17, T1=1e-17, alpha=1.0, alpha1=0.01, m0=1e-17, m1=1e-16, m_init=1e-18))
# m0/T1 underflows to 0 and the median lies 120 decades below the quantile's
# lowest rung: this exited 1 ("did not converge") before bisection in logs
@example(dict(T=3.2931301517640636e16, T1=1.0928183746869016e299, alpha=6.034187428662889e-236,
              alpha1=2.902, m0=1.1232270684185235e-114, m1=6.154960548862512e-103,
              m_init=1.8720451140308724e-115))
def test_stats_and_eval_never_exit_1(tmp_path_factory, obj):
    tmp = tmp_path_factory.getbasetemp()
    pfile = tmp / "accepted.json"
    _write(pfile, json.dumps(obj))
    for argv in (["stats", "--params", str(pfile), "--output", str(tmp / "accepted-stats.json")],
                 ["eval", str(pfile), "--output", str(tmp / "accepted-eval.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--quiet"])
        assert code in (0, 2), err.getvalue()
        assert code == 0 or err.getvalue().startswith(f"error: {argv[0]}:")


def test_stats_of_a_tail_past_the_float_range(tmp_path, normal_pieces):
    # m/m0 passes the float range below the quantile's decade climb to 1e300:
    # sin(w)^(alpha1 - 1) overflowed there, every tail below read inf, and
    # stats exited 2 with numpy's "negative dimensions are not allowed"
    raw = dict(T=1e-17, T1=1e-17, alpha=1.0, alpha1=0.01, m0=1e-17, m1=1e-16, m_init=1e-18)
    pfile, out = tmp_path / "far.json", tmp_path / "far-stats.json"
    _write(pfile, json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stats", "--params", str(pfile), "--output", str(out), "--quiet"]) == 0
    median = json.loads(out.read_text(encoding="utf-8"))["median"]
    assert ccdf_eval(ModelParams(**raw), median) == pytest.approx(0.5, abs=1e-8)


@settings(max_examples=30)
@given(_accepted_params())
@example(DROPPED)  # its median read 2.6e-50, where the CCDF is 0.9746
@example(UNDERFLOW)
@example(C_HI_OVERFLOW)  # its class fractions read NaN
@example(INTEGRAL_OVERFLOW)  # its raw integral warned as it overflowed
@example(FAR)
def test_every_accepted_law_has_a_true_median_or_a_value_error(obj):
    _true_median_or_value_error(obj)


def _true_median_or_value_error(obj) -> bool:
    """Whether the law returned a median; a ValueError is allowed.

    Otherwise its class fractions must be finite, its median m must satisfy
    |ccdf_eval(m) - 0.5| <= 1e-6, and no RuntimeWarning may be raised.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            params = normalize(ModelParams(**obj))
            fractions = class_fractions(params)
            median = median_income(params)
        except ValueError:
            return False
        assert all(math.isfinite(f) for f in fractions)
        assert abs(ccdf_eval(params, median) - 0.5) <= 1e-6
        return True


def _draw_law(rng) -> dict:
    """One law over the ranges of `_accepted_params`; the draws come in a fixed order."""
    m_init = 10.0 ** rng.uniform(-100.0, 100.0)
    m0 = m_init * 10.0 ** rng.uniform(1e-6, 10.0)
    m1 = m0 * 10.0 ** rng.uniform(0.0, 10.0)
    alpha1 = 10.0 ** rng.uniform(-6.0, 2.0) if rng.random() < 0.9 else rng.uniform(-5.0, 0.0)
    T = m0 * 10.0 ** rng.uniform(-100.0, 100.0)
    T1 = m0 * 10.0 ** rng.uniform(-100.0, 100.0)
    alpha = 10.0 ** rng.uniform(-6.0, 2.0)
    return dict(T=T, T1=T1, alpha=alpha, alpha1=alpha1, m0=m0, m1=m1, m_init=m_init)


def test_3000_seeded_laws_have_true_medians_or_value_errors():
    # the same rule over a fixed sweep: at seed 11, 465 of the 3,000 laws
    # return a median, so the floor of 400 keeps the sweep from passing empty
    rng = np.random.default_rng(11)
    medians = 0
    for _ in range(3000):
        obj = _draw_law(rng)
        try:
            medians += _true_median_or_value_error(obj)
        except (AssertionError, RuntimeWarning) as exc:
            raise AssertionError(f"law {obj}") from exc
    assert medians >= 400, f"{medians} of 3,000 laws returned a median"


@pytest.mark.parametrize("raw, message", [(DROPPED, "beyond the float range"),
                                          (UNDERFLOW, "beyond the float range"), (C_HI_OVERFLOW, "c_hi"),
                                          (INTEGRAL_OVERFLOW, "normalization integral")])
def test_stats_of_a_law_past_the_domain_exits_2(tmp_path, capsys, raw, message):
    # DROPPED exited 0 with a false median, UNDERFLOW exited 2 with numpy's
    # "repeats may not contain negative values", C_HI_OVERFLOW exited 0 with NaN,
    # INTEGRAL_OVERFLOW exited 1 on the RuntimeWarning of its raw integral
    pfile = tmp_path / "law.json"
    _write(pfile, json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stats", "--params", str(pfile), "--output", str(tmp_path / "s.json"), "--quiet"]) == 2
    assert message in capsys.readouterr().err
