"""End-to-end command-line checks, driving cli.main in process.

Covers the documented exit codes (0 ok, 1 internal, 2 input, 3 estimation),
byte-level determinism of every file-producing subcommand, and the always-on
factor/ks report lines that scripts are expected to scrape.
"""

import json

import numpy as np
import pytest

from conftest import noiseless_ccdf
from incomedist import (
    EmpiricalCCDF,
    ccdf_eval_many,
    forbes_incomes,
    fuse,
    load_incomes,
    load_wealth_pairs,
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


def test_fuse_empty_rich_needs_factor(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    _income_csv(survey, [3.0, 4.0])
    wealth = tmp_path / "wealth.csv"
    _wealth_csv(wealth, [(100.0, 40.0)])  # a loss: no effective income
    out = tmp_path / "fused.csv"
    assert main(["fuse", str(survey), str(wealth), "--output", str(out)]) == 2
    assert "empty rich" in capsys.readouterr().err
    assert main(["fuse", str(survey), str(wealth), "--factor", "1",
                 "--output", str(out), "--quiet"]) == 0
    rows = [float(s) for s in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [3.0, 4.0]


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


def test_fit_deterministic_bytes(tmp_path, ccdf08_noiseless):
    data = tmp_path / "ccdf.csv"
    ccdf08_noiseless.to_csv(data)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", str(data), "--output", str(out1), "--quiet"]) == 0
    assert main(["fit", str(data), "--output", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    obj = json.loads(out1.read_text(encoding="utf-8"))
    assert set(obj) >= {"params", "T_bg", "alpha_fit", "alpha1_fit",
                        "m0_hat", "m1_hat", "refined_T"}
    assert 0.0 < obj["m0_hat"] < obj["m1_hat"]
    assert obj["degenerate_tail"] is False


def test_fit_accepts_spaced_ccdf_header(tmp_path, ccdf08_noiseless):
    data = tmp_path / "ccdf.csv"
    ccdf08_noiseless.to_csv(data)
    lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
    _write(data, "income, ccdf\n" + "".join(lines[1:]))
    out = tmp_path / "fit.json"
    assert main(["fit", str(data), "--output", str(out), "--quiet"]) == 0
    assert "params" in json.loads(out.read_text(encoding="utf-8"))


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
    cfile = tmp_path / "coeffs.json"
    _write(cfile, json.dumps({"A0": 496202.5316455696, "a": 1.902,
                              "A0_hi": 496202.5316455696, "a_hi": -0.21,
                              "B0": 1.96e10, "b": 1.0}))
    out = tmp_path / "s.csv"
    base = ["simulate", str(cfile), "--n-steps", "50", "--n-paths", "20",
            "--output", str(out), "--quiet"]
    assert main(base) == 2  # threshold location is not part of the coefficients
    assert "--m1" in capsys.readouterr().err
    assert main(base + ["--m1", "4e5"]) == 0
    assert capsys.readouterr().out.startswith("ks: ")
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


def test_bad_params_json_exit2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    _write(broken, "{not json")
    assert main(["eval", str(broken)]) == 2
    partial = tmp_path / "partial.json"
    _write(partial, json.dumps({"T": 4.0e4}))
    assert main(["eval", str(partial)]) == 2
    assert "missing keys" in capsys.readouterr().err


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
