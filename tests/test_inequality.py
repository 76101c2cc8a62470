import json
import math
import warnings

import numpy as np
import pytest

from incomedist import (
    ClassStats,
    DegenerateClassError,
    ModelParams,
    ccdf_eval,
    class_fractions,
    compute_stats,
    gini,
    median_income,
    normalize,
    population_ratios,
    preset_params,
)
from incomedist import model

# Frozen fractions derived from the frozen CCDF anchor values.
FROZEN = {
    "2008": (97.859219916200133, 1.997798444654919, 0.1429816391449484),
    "2006": (96.854841501185136, 2.965195274111552, 0.1799632247033120),
}


@pytest.mark.parametrize("year,fixture", [("2008", "params08"), ("2006", "params06")])
def test_class_fractions_frozen(year, fixture, request):
    params = request.getfixturevalue(fixture)
    f = class_fractions(params)
    for got, want in zip(f, FROZEN[year]):
        assert got == pytest.approx(want, rel=1e-8)
    assert sum(f) == pytest.approx(100.0, abs=1e-8)


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_class_fractions_take_one_pass(year, monkeypatch):
    # the one pass is the law's quantile ladder, which the median shares
    params = preset_params(year)
    calls, nodes = [], model._ccdf_nodes
    monkeypatch.setattr(model, "_ccdf_nodes", lambda *args, **kw: calls.append(args[1]) or nodes(*args, **kw))
    f_low, f_med, f_high = class_fractions(params)
    assert len(calls) == 1 and np.array_equal(calls[0], params._ladder[0])
    del calls[:]
    assert class_fractions(params) == (f_low, f_med, f_high)
    assert population_ratios(params) == (f_low / f_med, f_med / f_high)
    assert calls == []  # read off the kept ladder: no engine pass
    monkeypatch.undo()
    three, _ = model._ccdf_nodes(params, [params.m_init, params.m0, params.m1], params.c_lo, params.c_hi)
    want = (100.0 * (three[0] - three[1]), 100.0 * (three[1] - three[2]), 100.0 * three[2])
    assert (f_low, f_med, f_high) == pytest.approx(want, rel=0.0, abs=1e-12)
    pi_init, pi_0, pi_1 = (ccdf_eval(params, m) for m in (params.m_init, params.m0, params.m1))
    assert f_low + f_med + f_high == pytest.approx(100.0 * pi_init, rel=1e-14)
    assert f_low == pytest.approx(100.0 * (pi_init - pi_0), rel=1e-14)
    assert f_med == pytest.approx(100.0 * (pi_0 - pi_1), rel=1e-14)
    assert f_high == pytest.approx(100.0 * pi_1, rel=1e-14)


def test_ratio_identities_exact(params08):
    f_low, f_med, f_high = class_fractions(params08)
    r1, r2 = population_ratios(params08)
    assert r1 == f_low / f_med
    assert r2 == f_med / f_high


def test_ratios_reference_values(params06, params08):
    r1, r2 = population_ratios(params06)
    assert r1 == pytest.approx(32.66, rel=2e-3)
    assert r2 == pytest.approx(16.48, rel=2e-3)
    r1, r2 = population_ratios(params08)
    assert r1 == pytest.approx(48.98, rel=2e-3)
    assert r2 == pytest.approx(13.97, rel=2e-3)


def test_degenerate_classes_raise():
    p = normalize(ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.8,
                              m0=2e5, m1=2e5, m_init=0.01))
    with pytest.raises(DegenerateClassError):
        population_ratios(p)


def test_gini_equal_incomes_zero():
    assert abs(gini([7.0] * 100)) < 1e-9


def test_gini_zero_and_x_is_fifty():
    assert gini([0.0, 123.4]) == pytest.approx(50.0, abs=1e-12)


def test_gini_exponential_half():
    rng = np.random.default_rng(8)
    xs = rng.exponential(scale=3.0, size=200000)
    assert gini(xs) == pytest.approx(50.0, abs=1.0)


def test_gini_invariances():
    rng = np.random.default_rng(9)
    xs = rng.lognormal(10.0, 1.0, size=1000)
    g = gini(xs)
    assert gini(17.0 * xs) == pytest.approx(g, rel=1e-12)  # scale invariant
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gini(xs * 2.0**1000) == g  # exactly: the sums overflowed to a NaN Gini
    assert gini(xs[::-1]) == pytest.approx(g, rel=1e-12)   # permutation invariant
    assert gini(xs + 1e5) < g                              # translation shrinks inequality


def test_gini_errors():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([0.0, 0.0])
    with pytest.raises(ValueError):
        gini([-1.0, 5.0])
    with pytest.raises(ValueError):
        gini([math.nan, 1.0])


def test_median_round_trip(params08):
    med = median_income(params08)
    assert ccdf_eval(params08, med) == pytest.approx(0.5, abs=1e-6)


def test_median_bg_limit():
    # push both crossovers far above the bulk: the model degenerates to the
    # pure exponential law whose median is m_init + T ln 2.  m0/T = 250 keeps
    # the quadrature well conditioned; residual corrections are O((T/m0)^2)
    T = 4.0e4
    p = normalize(ModelParams(T=T, T1=T, alpha=2.0, alpha1=2.0,
                              m0=1e7, m1=2e7, m_init=0.01))
    assert median_income(p) == pytest.approx(0.01 + T * math.log(2.0), rel=1e-4)


def test_class_stats_assembly(params08):
    stats = compute_stats(params08)
    assert stats.gini is None
    assert stats.median == pytest.approx(median_income(params08), rel=1e-12)
    assert stats.f_low + stats.f_med + stats.f_high == pytest.approx(100.0, abs=1e-6)

    with_g = compute_stats(params08, incomes=[5.0, 5.0, 5.0])
    assert with_g.gini == pytest.approx(0.0, abs=1e-9)

    obj = json.loads(stats.to_json())
    assert set(obj) == {"f_low", "f_med", "f_high", "r1", "r2", "median", "gini"}
    table = stats.table()
    assert "r1" in table and "median" in table


def test_class_stats_validation():
    with pytest.raises(ValueError):
        ClassStats(f_low=90.0, f_med=5.0, f_high=1.0, r1=18.0, r2=5.0, median=1e4)
    with pytest.raises(ValueError):
        ClassStats(f_low=97.0, f_med=2.0, f_high=1.0, r1=48.5, r2=2.0,
                   median=1e4, gini=150.0)
