import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize

from incomedist import (
    LangevinCoeffs,
    ModelParams,
    PRESETS,
    ParetoFit,
    TailDivergenceError,
    bg_ccdf,
    ccdf_eval,
    ccdf_eval_many,
    ccdf_table,
    class_fractions,
    coeffs_to_effective,
    continuity_ratio,
    effective_to_coeffs,
    normalize,
    pareto_ccdf,
    pdf_eval,
    preset_params,
    quantile,
    rank_ccdf,
    sample_incomes,
)
from incomedist import model
from incomedist.model import _ccdf_nodes, _log_ccdf_misfit

from conftest import C_HI_OVERFLOW, DROPPED, FAR, HEAVY_TOP, UNDERFLOW, direct_misfit, noiseless_ccdf, spoil_one

# Frozen two-branch constants for the bundled parameter sets, computed once
# against a 50-digit arbitrary-precision quadrature of the same integrals.
FROZEN_2008 = dict(
    c_lo=2.864600845852303e-05,
    c_hi=2.7614618021610556e-06,
    ratio=0.09639953175882832,
    pi_m0=2.140780083799867e-02,
    pi_m1=1.429816391449484e-03,
)
FROZEN_2006 = dict(
    c_lo=2.8347056094562234e-05,
    c_hi=1.961649762936117e-06,
    ratio=0.0692011811170902,
    pi_m0=3.145158498814864e-02,
    pi_m1=1.799632247033120e-03,
)


def test_bg_ccdf_exact_values():
    assert bg_ccdf(4.0e4, 0.01, 0.01) == 1.0
    assert bg_ccdf(4.0e4, 0.01, 0.01 + 4.0e4) == pytest.approx(0.367879441171442, rel=1e-12)
    assert bg_ccdf(4.0e4, 0.01, 0.01 + 8.0e4) == pytest.approx(0.135335283236613, rel=1e-12)
    assert bg_ccdf(1e4, 0.01, math.inf) == 0.0
    # NaN is no income and no wall: each fails its check rather than giving NaN
    for m_init, m in [(0.01, math.nan), (0.01, [1.0, math.nan]), (math.nan, 5.0),
                      (math.inf, math.inf), (0.0, 5.0), (-1.0, 5.0)]:
        with pytest.raises(ValueError):
            bg_ccdf(1e4, m_init, m)


def test_pareto_ccdf_exact_value():
    fit = ParetoFit(m_sp=1.0e5, alpha=2.902)
    # 2**-2.902
    assert pareto_ccdf(fit, 2.0e5) == pytest.approx(0.133786087303328, rel=1e-12)
    assert pareto_ccdf(fit, 1.0e5) == 1.0
    assert pareto_ccdf(fit, math.inf) == 0.0
    for m in (math.nan, [2.0e5, math.nan], 0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            pareto_ccdf(ParetoFit(1e4, 2.0), m)


@pytest.mark.parametrize("fixture,frozen", [
    ("params08", FROZEN_2008), ("params06", FROZEN_2006),
])
def test_normalization_constants_frozen(fixture, frozen, request):
    params = request.getfixturevalue(fixture)
    assert params.c_lo == pytest.approx(frozen["c_lo"], rel=1e-10)
    assert params.c_hi == pytest.approx(frozen["c_hi"], rel=1e-10)
    assert continuity_ratio(params) == pytest.approx(frozen["ratio"], rel=1e-12)


@pytest.mark.parametrize("fixture,frozen", [
    ("params08", FROZEN_2008), ("params06", FROZEN_2006),
])
def test_ccdf_frozen_anchor_points(fixture, frozen, request):
    params = request.getfixturevalue(fixture)
    assert ccdf_eval(params, params.m_init) == pytest.approx(1.0, abs=1e-12)
    assert ccdf_eval(params, params.m0) == pytest.approx(frozen["pi_m0"], rel=1e-9)
    assert ccdf_eval(params, params.m1) == pytest.approx(frozen["pi_m1"], rel=1e-9)


def test_density_continuous_at_threshold(params08):
    eps = 1e-9 * params08.m1
    below = pdf_eval(params08, params08.m1 - eps)
    above = pdf_eval(params08, params08.m1 + eps)
    assert above == pytest.approx(below, rel=1e-6)
    # the branch constants themselves satisfy the matching identity exactly
    assert params08.c_hi == pytest.approx(params08.c_lo * continuity_ratio(params08), rel=1e-12)


def test_pdf_far_tail_neither_overflows_nor_reads_zero(params08):
    # 1 + (m/m0)^2 overflows beyond ~1e154 m0; the density is formed in logs
    params = _with_alpha1(params08, 0.05)
    x = 1e160 / params.m0  # hypot(1, x) == x here
    expect = params.c_hi * math.exp(-(params.m0 / params.T1) * math.atan(x) - 1.05 * math.log(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = pdf_eval(params, 1e160)
        many = pdf_eval(params, np.array([params.m1, 1e160, 1e300]))
    assert dens == pytest.approx(expect, rel=1e-12)
    assert dens == pytest.approx(1.163e-171, rel=1e-3)
    assert many[1] == dens and 0.0 < many[2] < many[1] < many[0]


def test_underflowed_k_still_integrates_the_upper_branch():
    # m0/T1 = 1e-330 underflows to 0, which cut the upper intervals into no parts
    base = dict(T=1.0, alpha=2.0, alpha1=1.5, m0=1e-30, m1=2e-30, m_init=1e-31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero, small = (normalize(ModelParams(T1=T1, **base)) for T1 in (1e300, 1e200))
        assert zero.m0 / zero.T1 == 0.0
        for m in (zero.m1, 10.0 * zero.m1):
            assert ccdf_eval(zero, m) == pytest.approx(ccdf_eval(small, m), rel=1e-12)


def test_pdf_integrates_to_one(params08):
    # trapezoid over a dense log grid, plus the analytic power tail remainder
    ms = np.geomspace(params08.m_init, 1e12, 200000)
    dens = pdf_eval(params08, ms)
    total = np.trapezoid(dens, ms)
    k = params08.m0 / params08.T1
    tail = (
        params08.c_hi
        * math.exp(-k * math.pi / 2.0)
        * params08.m0 ** params08.alpha1
        / params08.alpha1
        * (1e12) ** -params08.alpha1
    )
    assert total + tail == pytest.approx(1.0, rel=1e-6)


def test_ccdf_eval_many_matches_scalar(params08):
    ms = np.geomspace(params08.m_init * 5, 50 * params08.m1, 25)
    bulk = ccdf_eval_many(params08, ms)
    scalar = np.array([ccdf_eval(params08, m) for m in ms])
    assert np.max(np.abs(bulk / scalar - 1.0)) < 5e-5


def test_ccdf_eval_many_on_the_table_matches_scalar(params08):
    # 2,500 distinct incomes: more than the 2,000-node grid, so interpolated
    ms = np.geomspace(params08.m_init * 5, 50 * params08.m1, 2500)
    bulk = ccdf_eval_many(params08, ms)
    picks = ms[::97]
    scalar = np.array([ccdf_eval(params08, m) for m in picks])
    assert np.max(np.abs(bulk[::97] / scalar - 1.0)) < 5e-5


def _table_and_interp(params, ms, n_grid):
    """ccdf_eval_many's table path spelled out: the ccdf_table grid up to the largest income, log-log."""
    arr = np.asarray(ms, dtype=float)
    grid_m, grid_pi = ccdf_table(params, float(arr.max()) * (1.0 + 1e-12), n_grid)
    return np.exp(np.interp(np.log(arr), np.log(grid_m), np.log(grid_pi)))


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_ccdf_eval_many_is_exact_up_to_n_grid_distinct_incomes(year, monkeypatch):
    params = preset_params(year)
    rng = np.random.default_rng(4)
    picks = np.geomspace(params.m_init, 1e3 * params.m1, 40)
    ms = np.concatenate([picks, picks[5:15], [params.m_init, params.m1, params.m1, params.m0]])
    rng.shuffle(ms)  # unsorted, with duplicates, m_init and m1 among them
    scalar = np.array([ccdf_eval(params, m) for m in ms])
    got = ccdf_eval_many(params, ms)
    np.testing.assert_allclose(got, scalar, rtol=1e-13, atol=0.0)
    square = ms[:48].reshape(6, 8)  # the shape is kept
    got2 = ccdf_eval_many(params, square)
    assert got2.shape == (6, 8)
    np.testing.assert_allclose(got2, scalar[:48].reshape(6, 8), rtol=1e-13, atol=0.0)
    assert ccdf_eval_many(params, np.empty((0, 3))).shape == (0, 3)  # an empty one's too
    # exactly n_grid distinct incomes, each twice, still take the exact pass
    monkeypatch.setattr(model, "_TABLE_GRID", 60)
    grid = np.geomspace(params.m_init, 100 * params.m1, 60)
    got3 = ccdf_eval_many(params, np.concatenate([grid, grid[::-1]]))
    exact = np.array([ccdf_eval(params, m) for m in grid])
    np.testing.assert_allclose(got3, np.concatenate([exact, exact[::-1]]), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_ccdf_eval_many_above_n_grid_keeps_the_table(year, monkeypatch):
    params = preset_params(year)
    grid = np.geomspace(params.m_init, 100 * params.m1, 61)
    ms = np.concatenate([grid, grid[:30]])  # 61 distinct incomes on a 60-node grid
    with monkeypatch.context() as patch:
        patch.setattr(model, "_TABLE_GRID", 60)
        got = ccdf_eval_many(params, ms)
    assert got.tobytes() == _table_and_interp(params, ms, 60).tobytes()
    big = sample_incomes(params, 3000, seed=11)
    assert ccdf_eval_many(params, big).tobytes() == _table_and_interp(params, big, 2000).tobytes()


def test_ccdf_table_monotone(params08):
    grid_m, grid_pi = ccdf_table(params08, 1e9)
    assert grid_m[0] == params08.m_init
    assert grid_pi[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(grid_pi) < 0.0)
    assert params08.m1 in grid_m  # threshold node inserted exactly


def test_quantile_round_trip(params08):
    for q in (1e-17, 0.1, 0.5, 0.9, 0.99, 0.9999):
        m = quantile(params08, q)
        assert ccdf_eval(params08, m) == pytest.approx(1.0 - q, abs=1e-6)
    with pytest.raises(ValueError):
        quantile(params08, 0.0)


def _with_alpha1(params, alpha1):
    return normalize(replace(params, alpha1=alpha1))


def _asymptotic_tail(params, m):
    # far above m0 the tail integral reduces to exp(-k pi/2) w^alpha1 / alpha1
    # with w = arctan(m0/m); the next term is smaller by about k w
    w = math.atan(params.m0 / m)
    k = params.m0 / params.T1
    return params.c_hi * params.m0 * math.exp(-k * math.pi / 2) * w**params.alpha1 / params.alpha1


@pytest.mark.parametrize("alpha1", [0.2, 0.79, 1.4])
@pytest.mark.parametrize("f", [1e9, 1e12, 1e15])
def test_deep_tail_matches_asymptote(params08, alpha1, f):
    params = _with_alpha1(params08, alpha1)
    m = f * params.m0
    assert ccdf_eval(params, m) == pytest.approx(_asymptotic_tail(params, m), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("alpha1", [0.2, 0.79, 1.4])
def test_deep_tail_table_matches_scalar(params08, alpha1):
    params = _with_alpha1(params08, alpha1)
    grid_m, grid_pi = ccdf_table(params, 1e16 * params.m0, n_grid=120)
    deep = grid_m > 1e3 * params.m0
    scalar = np.array([ccdf_eval(params, m) for m in grid_m[deep]])
    np.testing.assert_allclose(grid_pi[deep], scalar, rtol=1e-8)


def test_heavy_tail_quantile_round_trip(params08):
    # with alpha1 = 0.05 this quantile lies near 2e147, far past the 1e65
    # that 200 doublings from ~1e5 would reach
    q = 1.0 - 1e-9
    for alpha1 in (0.2, 0.05):
        params = _with_alpha1(params08, alpha1)
        m = quantile(params, q)
        assert ccdf_eval(params, m) == pytest.approx(1.0 - q, rel=1e-8, abs=0.0)


def test_quantile_beyond_float_range_is_value_error(params08):
    params = _with_alpha1(params08, 0.01)
    with pytest.raises(ValueError, match="beyond the float range"):
        quantile(params, 1.0 - 1e-9)


_DOMAIN_QUERIES = {
    "pdf_eval": pdf_eval,
    "ccdf_eval": ccdf_eval,
    "ccdf_eval_many": lambda params, m: ccdf_eval_many(params, [params.m1, m]),
    "ccdf_table": ccdf_table,
}


@pytest.mark.parametrize("query", list(_DOMAIN_QUERIES))
@pytest.mark.parametrize("where", ["nan", "inf", "-inf", "below m_init", "past the top"])
def test_incomes_outside_the_domain_raise_one_value_error(query, where):
    # NaN gave a RuntimeWarning and numpy's "negative dimensions", and
    # ccdf_eval_many([m1, inf]) crashed; pdf_eval and ccdf_eval read 0 at inf
    params = normalize(ModelParams(**FAR))
    m = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "below m_init": 0.5 * params.m_init,
         "past the top": 2.0 * params.m0 / model._TINY}[where]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"must lie in \[m_init, m0/tiny\] = \[1e-18, 4\.49423e\+290\]"):
            _DOMAIN_QUERIES[query](params, m)


def test_the_domain_top_is_an_income(normal_pieces):
    params = normalize(ModelParams(**FAR))
    top = model._top(params)
    assert math.atan2(params.m0, top) == model._TINY
    assert model._top(preset_params("2008")) == np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = ccdf_eval(params, top)
        assert 0.0 < tail < ccdf_eval(params, 1e-3 * top)
        assert ccdf_eval_many(params, [params.m1, top])[1] == pytest.approx(tail, rel=1e-13)
        # more than n_grid distinct incomes: the table's top may not pass the domain's
        assert ccdf_eval_many(params, np.geomspace(params.m1, top, 2001))[-1] == pytest.approx(tail, rel=1e-13)
        assert ccdf_table(params, top, 50)[1][-1] == pytest.approx(tail, rel=1e-13)
        assert 0.0 < pdf_eval(params, top) < pdf_eval(params, 1e-3 * top)
        # a table that ends at the largest float: its log grid overflowed with a warning
        params08 = preset_params("2008")
        top08 = np.finfo(float).max
        tail08 = ccdf_eval(params08, top08)
        assert ccdf_table(params08, top08, 50)[1][-1] == pytest.approx(tail08, rel=1e-13)
        ms = np.append(np.geomspace(params08.m1, 1e308, 2000), top08)
        assert ccdf_eval_many(params08, ms)[-1] == pytest.approx(tail08, rel=1e-13)


def test_one_pass_keeps_intervals_whose_k_dw_underflows(normal_pieces):
    # k1 = m0/T1 ~ 1.5e-88: on [1e200, 1e240], k1 dw underflowed to 0, the
    # interval got no parts, and the three values below it read 0.92948,
    # 0.69987 and 0.57670; the references are a 40-digit mpmath integral
    params = normalize(ModelParams(**DROPPED))
    ms = [2.6145701603014084e-49, 1e100, 1e200, 1e240]
    want = [0.972829394702726, 0.743219029352801, 0.620049947868574, 0.576700884014868]
    assert ccdf_eval_many(params, ms) == pytest.approx(want, abs=1e-8)
    assert [ccdf_eval(params, m) for m in ms] == pytest.approx(want, abs=1e-8)


# two roots next to the largest float, the domain's top: the Newton start
# lo (hi / lo)**s rounded past hi into inf for the first law, and the
# bisection 0.5 (lo + hi) overflowed for the second
NEXT_TO_THE_TOP = [
    dict(T=2.2418940304742834, T1=18.739437558697627, alpha=0.7711033049012777, alpha1=0.0026345774578947984,
         m0=21.03122759254038, m1=31.39849446897159, m_init=0.022374141502308386),
    dict(T=0.48102331532790826, T1=0.15263264998325718, alpha=2.886554234486937, alpha1=0.01367386428178644,
         m0=4.288935684464623, m1=4.703285271562245, m_init=0.00018714960323546403),
]


@pytest.mark.parametrize("raw, q", [(HEAVY_TOP, 0.755), (HEAVY_TOP, 0.76), (NEXT_TO_THE_TOP[0], 0.9834515835790757),
                                    (NEXT_TO_THE_TOP[1], 0.9999999999999923)])
def test_quantile_reaches_the_domain_top(raw, q):
    # the searches stopped near 1e300: "lies beyond the float range (above 1.9e+300)"
    params = normalize(ModelParams(**raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = quantile(params, q)
    assert 1e300 < m <= model._top(params)
    assert abs(ccdf_eval(params, m) - (1.0 - q)) <= 1e-8 * m * pdf_eval(params, m) + 1e-8 * (1.0 - q)


def test_sampler_of_a_law_near_the_largest_float():
    # 24 decades up from 10 m1 passed the floats: "overflow encountered in accumulate"
    params = normalize(ModelParams(T=1e289, T1=1e289, alpha=2.0, alpha1=1.5, m0=1e289, m1=1e290, m_init=1e288))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_incomes(params, 1000, seed=1)
    assert params.m_init <= draws.min() and draws.max() <= model._top(params)


def test_ladder_of_a_law_near_the_largest_float():
    # the rungs m_init + T 2**(j/4) passed the floats: "overflow encountered
    # in multiply" from the median, and from the class fractions read off them
    params = normalize(ModelParams(T=1e305, T1=1e305, alpha=2.0, alpha1=1.5, m0=1e306, m1=2e306, m_init=1e304))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = quantile(params, 0.5)
        fractions = class_fractions(params)
    assert params._ladder[0][-1] == model._top(params)
    assert abs(ccdf_eval(params, m) - 0.5) <= 1e-8 * m * pdf_eval(params, m) + 1e-8 * 0.5
    assert sum(fractions) == pytest.approx(100.0, abs=1e-8)


def test_sampler_edge_reaches_the_domain_top():
    # the edge stopped at 2e300, and 25,033 of these draws clipped to it
    params = normalize(ModelParams(**HEAVY_TOP))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_incomes(params, 100_000, seed=1)
    assert draws.max() == model._top(params)


@pytest.mark.parametrize("raw", [DROPPED, UNDERFLOW])
def test_quantile_past_the_domain_top_is_value_error(raw, normal_pieces):
    # the medians lie beyond m0 / _TINY; the sampler's table edge stops at
    # the same top
    params = normalize(ModelParams(**raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beyond the float range"):
            quantile(params, 0.5)
        draws = sample_incomes(params, 1000, seed=1)
    assert np.all(draws >= params.m_init) and draws.max() <= model._top(params)
    assert draws.max() == pytest.approx(model._top(params), rel=1e-12)  # draws clipped at the edge
    ccdf_eval_many(params, draws)  # every draw is an income of the domain


def test_c_hi_overflow_is_value_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="c_hi = inf"):
            normalize(ModelParams(**C_HI_OVERFLOW))


def test_m1_past_the_domain_top_is_value_error():
    with pytest.raises(ValueError, match="m1 must lie in"):
        normalize(ModelParams(T=1.0, T1=1.0, alpha=1.5, alpha1=1.5, m0=1e-10, m1=1e300, m_init=1e-11))


def test_log_ccdf_misfit_is_inf_past_the_domain_top():
    base = dict(alpha=1.5, alpha1=0.5, m1=1e-105, m_init=1e-120)
    misfit = _summed(np.array([1e200, 1e-110, 1e-120]), np.log([1e-100, 0.5, 1.0]), 1e-120, 1e-105)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert misfit(ModelParams(T=1e-110, T1=1e-110, m0=1e-110, **base)) == math.inf  # top ~4.5e197
        assert misfit(ModelParams(T=1e-106, T1=1e-106, m0=1e-106, **base)) < math.inf  # top ~4.5e201


def _brent_quantile(params, q):
    """Reference quantile: decades up from m_init + max(T, T1, m0), then Brent on the scalar CCDF."""
    target = 1.0 - q
    hi = params.m_init + max(params.T, params.T1, params.m0)
    lo = params.m_init
    while ccdf_eval(params, hi) > target:
        lo, hi = hi, 10.0 * hi
    return optimize.brentq(lambda m: ccdf_eval(params, m) - target, lo, hi, xtol=1e-300, rtol=1e-14)


@st.composite
def _query_sets(draw):
    """The synthetic-waves parameter ranges, with tails down to alpha1 = 0.05."""
    T = draw(st.floats(1e4, 1e5))
    m0 = T * draw(st.floats(1.5, 6.0))
    return normalize(ModelParams(
        T=T, T1=T * draw(st.floats(0.7, 1.5)), alpha=draw(st.floats(1.2, 4.0)),
        alpha1=draw(st.sampled_from([0.05, 0.1])) if draw(st.booleans()) else draw(st.floats(0.05, 2.0)),
        m0=m0, m1=m0 * draw(st.floats(1.5, 20.0)), m_init=0.01))


# q in (1e-6, 1 - 1e-9): uniform below 1/2, log-uniform in 1 - q above it
_levels = st.one_of(st.floats(1e-6, 0.5), st.floats(-9.0, math.log10(0.5)).map(lambda u: 1.0 - 10.0**u))


@settings(max_examples=30)
@given(_query_sets(), _levels, _levels)
@example(_with_alpha1(preset_params("2008"), 0.05), 0.5, 1.0 - 1e-9)
def test_quantile_solves_the_ccdf_property(params, qa, qb):
    qa, qb = sorted((qa, qb))
    ma, mb = quantile(params, qa), quantile(params, qb)
    assert ma <= mb
    for q, m in ((qa, ma), (qb, mb)):
        slack = 1e-8 * m * pdf_eval(params, m) + 1e-8 * (1.0 - q)
        assert abs(ccdf_eval(params, m) - (1.0 - q)) <= slack
        assert m == pytest.approx(_brent_quantile(params, q), rel=1e-8, abs=0.0)


@settings(max_examples=30)
@given(_query_sets(), _levels)
@example(_with_alpha1(preset_params("2008"), 0.05), 1.0 - 1e-9)
@example(preset_params("2006"), 0.5)
@example(normalize(ModelParams(T=79708.64814984091, T1=55796.05370488863, alpha=3.7114350708330663,
                               alpha1=1.9375, m0=151446.43148469774, m1=908678.5889081864, m_init=0.01)), 1e-6)
def test_quantile_is_within_1e9_of_brent_property(params, q):
    # a Newton step from the exact CCDF never passes the root, so a step
    # whose error bound is 1e-9 (m + step) stops at most 1e-9 below it.  A
    # CCDF near 1 carries rounding of some 1e-16 from its sum over the
    # ladder's intervals, an income error of that over P(m): the last
    # example (m = 0.064, P = 1.8e-5) lies 1.06e-9 relative off Brent, 1.3e-15
    # in the CCDF, so the slack adds 1e-14 / P(m)
    m, ref = quantile(params, q), _brent_quantile(params, q)
    assert abs(m - ref) <= 1e-9 * ref + 1e-14 / pdf_eval(params, m)


def _spy_on_engine(monkeypatch):
    """Record (ms, closed) for every _ccdf_nodes pass, forwarding every argument."""
    calls = []

    def spy(params, ms, *args, **kwargs):
        calls.append((np.asarray(ms, dtype=float).copy(), kwargs.get("closed", True)))
        return _ccdf_nodes(params, ms, *args, **kwargs)

    monkeypatch.setattr(model, "_ccdf_nodes", spy)
    return calls


@pytest.mark.parametrize("year", ["2008", "2006"])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99, 0.9999])  # the last lies above m1
def test_quantile_takes_at_most_five_passes(year, q, monkeypatch):
    params = preset_params(year)
    calls = _spy_on_engine(monkeypatch)
    m = quantile(params, q)
    assert 1 <= len(calls) <= 5
    assert m == pytest.approx(_brent_quantile(params, q), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_quantiles_of_one_law_share_one_ladder_pass(year, monkeypatch):
    params = normalize(ModelParams(**PRESETS[year]))
    calls = _spy_on_engine(monkeypatch)
    first = quantile(params, 0.5)
    ladder = [ms for ms, closed in calls if closed]
    assert len(ladder) == 1 and ladder[0].size > 2
    del calls[:]
    for q in (0.1, 0.9, 0.99, 0.9999):
        quantile(params, q)
    assert calls and all(not closed for _, closed in calls)  # no second ladder
    assert quantile(params, 0.5) == first


@pytest.mark.parametrize("year", ["2008", "2006"])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
def test_quantile_takes_one_interval_pass_after_the_ladder(year, q, monkeypatch):
    # the Hermite start lies within ~1e-5 of the root, so the first Newton
    # step certifies; a log-log start between the same rungs takes 2 to 4
    params = preset_params(year)
    params._ladder
    calls = _spy_on_engine(monkeypatch)
    m = quantile(params, q)
    assert len(calls) == 1 and calls[0][0].size == 2 and not calls[0][1]
    assert m == pytest.approx(_brent_quantile(params, q), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("q", [1e-6, 0.1, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-9])
def test_newton_steps_integrate_no_closing_interval(params08, q, monkeypatch):
    # alpha1 = 0.2: the last two levels lie past the ladder, in the decades pass
    for params in (params08, _with_alpha1(params08, 0.2)):
        params._ladder  # derived before the spy: every pass it sees is the quantile's own
        calls = _spy_on_engine(monkeypatch)
        m = quantile(params, q)
        brackets = [ms for ms, closed in calls if closed]
        steps = [ms for ms, closed in calls if not closed]
        assert steps and len(brackets) <= 1
        for ms in brackets:  # only the decades above the ladder run to infinity
            assert ms.size > 2 and ms[0] > params._ladder[0][-1]
        for ms in steps:  # one interval [m, hi]
            assert ms.size == 2 and params.m_init <= ms[0] <= ms[1] <= model._top(params)
        assert abs(ccdf_eval(params, m) - (1.0 - q)) <= 1e-8 * m * pdf_eval(params, m) + 1e-8 * (1.0 - q)


def test_open_pass_is_the_full_pass_without_its_closing_interval(params08):
    m1 = params08.m1  # 4e5: below, a node, inside, at either end, above
    for ms in ([1e4, 3e4], [1e5, m1, 4e6], [2e5, 9e5, 3e8], [5e4, m1], [m1, 1e9], [5e5, 2e6]):
        closed, _ = _ccdf_nodes(params08, ms, params08.c_lo, params08.c_hi)
        open_, _ = _ccdf_nodes(params08, ms, params08.c_lo, params08.c_hi, closed=False)
        assert open_[-1] == 0.0
        np.testing.assert_allclose(open_ + closed[-1], closed, rtol=1e-13, atol=0.0)


def test_replace_gives_a_law_with_its_own_ladder(params08):
    quantile(params08, 0.5)
    rungs, tails, _ = params08._ladder
    other = replace(params08, T=2e4)
    assert "_ladder" not in vars(other)
    assert quantile(other, 0.5) == pytest.approx(_brent_quantile(other, 0.5), rel=1e-8, abs=0.0)
    o_rungs, o_tails, o_dens = other._ladder
    assert not np.array_equal(o_rungs, rungs) and not np.array_equal(o_tails, tails)
    ladder = np.concatenate(([other.m_init, other.m0, other.m1], other.m_init + other.T * model._QUANTILE_RUNGS))
    assert np.array_equal(o_rungs, np.unique(ladder))
    assert np.array_equal(o_dens, pdf_eval(other, o_rungs))
    assert params08._ladder[0] is rungs  # the original keeps its own


def _reference_sample(params, n, seed):
    """sample_incomes with its table edge found by the scalar decade loop."""
    p_floor = max(1e-12, 1e-3 / n)
    edge, top = 10.0 * params.m1, model._top(params)
    while ccdf_eval(params, edge) > p_floor and edge < top:
        edge = min(edge * 10.0, top)
    grid_m, grid_pi = ccdf_table(params, edge, n_grid=4000)
    targets = np.clip(1.0 - np.random.default_rng(seed).random(n), grid_pi[-1], 1.0)
    # unsorted targets; exp(log(edge)) may round past the edge, as in the sampler
    return np.minimum(np.exp(np.interp(np.log(targets), np.log(grid_pi[::-1]), np.log(grid_m[::-1]))), grid_m[-1])


@pytest.mark.parametrize("year", ["2008", "2006"])
@pytest.mark.parametrize("seed", [6, 9301])
def test_sampler_edge_matches_the_decade_loop(year, seed):
    params = preset_params(year)
    got = sample_incomes(params, 100_000, seed=seed)
    assert np.array_equal(got, _reference_sample(params, 100_000, seed))


@pytest.mark.parametrize("alpha1", [0.01, 0.05, 0.1])
def test_heavy_tail_sampler_edge_matches_the_decade_loop(params08, alpha1):
    # these edges lie past the first pass's 24 decades (at the domain's top for 0.01)
    params = _with_alpha1(params08, alpha1)
    assert np.array_equal(sample_incomes(params, 20_000, seed=8), _reference_sample(params, 20_000, 8))


@pytest.mark.parametrize("n, seed, clipped", [(1, 1, 0), (1, 4, 1), (7, 3, 1), (1000, 2, 242)])
@pytest.mark.parametrize("raw", [PRESETS["2008"], HEAVY_TOP])
def test_sampler_draws_are_the_unsorted_interp_formula(raw, n, seed, clipped):
    # the sampler interpolates its targets in sorted order; HEAVY_TOP holds
    # 24% of its mass past its top, so `clipped` of its draws are targets
    # clipped to the table edge, its top
    params = normalize(ModelParams(**raw))
    got = sample_incomes(params, n, seed=seed)
    assert got.tobytes() == _reference_sample(params, n, seed).tobytes()
    if raw is HEAVY_TOP:
        assert np.count_nonzero(got == model._top(params)) == clipped


@pytest.mark.parametrize("alpha1", [0.01, 0.05])
def test_heavy_tail_samples_follow_model(params08, alpha1):
    # a share of these tails lies beyond 1e16 m0 (for alpha1 = 0.01, beyond
    # the float range, where draws clip to the table edge)
    params = _with_alpha1(params08, alpha1)
    n = 20_000
    samples = sample_incomes(params, n, seed=8)
    assert np.all(np.isfinite(samples))
    p = _asymptotic_tail(params, 1e16 * params.m0)
    hits = int(np.count_nonzero(samples > 1e16 * params.m0))
    assert abs(hits - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))


def test_sampler_deterministic_and_bounded(params08):
    a = sample_incomes(params08, 500, seed=123)
    b = sample_incomes(params08, 500, seed=123)
    c = sample_incomes(params08, 500, seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= params08.m_init)
    assert sample_incomes(params08, 500, seed=np.random.default_rng(123)).tobytes() == a.tobytes()


def test_sampler_takes_its_count_by_the_count_rule(params08):
    # 1.5 raised numpy's TypeError, and 2.0 did too
    with pytest.raises(ValueError, match="^n must be >= 1"):
        sample_incomes(params08, 1.5, seed=1)
    assert sample_incomes(params08, 2.0, seed=1).shape == (2,)


@pytest.mark.parametrize("n_grid", [0, 2.5])
def test_ccdf_table_takes_its_count_by_the_count_rule(params08, n_grid):
    # 0 raised IndexError, and 2.5 numpy's TypeError
    with pytest.raises(ValueError, match="^n_grid must be >= 2"):
        ccdf_table(params08, 1e9, n_grid)


def test_sampler_matches_model_ks(params08):
    samp = sample_incomes(params08, 20000, seed=5)
    xs = np.sort(samp)
    cdf = 1.0 - ccdf_eval_many(params08, xs)
    grid = np.arange(1, xs.size + 1) / xs.size
    ks = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / xs.size)))
    assert ks < 0.015


def test_coeff_round_trip(params08):
    coeffs = effective_to_coeffs(params08)
    back = coeffs_to_effective(coeffs, params08.m1, params08.m_init)
    assert back.T == pytest.approx(params08.T, rel=1e-12)
    assert back.T1 == pytest.approx(params08.T1, rel=1e-12)
    assert back.alpha == pytest.approx(params08.alpha, rel=1e-12)
    assert back.alpha1 == pytest.approx(params08.alpha1, rel=1e-12)
    assert back.m0 == pytest.approx(params08.m0, rel=1e-12)
    assert coeffs.b == 1.0


def test_effective_to_coeffs_rejects_subunit_alpha(params08):
    from dataclasses import replace
    bad = replace(params08, alpha=0.9)
    with pytest.raises(ValueError):
        effective_to_coeffs(bad)


def test_continuity_underflow_names_temperatures(params08):
    # the 2008 shape with a cold lower branch: exp(m0 (1/T1 - 1/T) u1) is 0
    from dataclasses import replace
    cold = replace(params08, T=100.0)
    with pytest.raises(ValueError, match=r"underflows at m0/T1 = .*, m0/T = 1400,"):
        continuity_ratio(cold)
    with pytest.raises(ValueError, match="underflows"):
        normalize(cold)


def test_divergent_tail_rejected():
    p = ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.0,
                    m0=1e5, m1=3e5, m_init=0.01)
    with pytest.raises(TailDivergenceError):
        normalize(p)
    # a law never passed to normalize fails at its first evaluation, and at
    # every one after it: a failed derivation is not kept
    for evaluate in (lambda: pdf_eval(p, 1e4), lambda: ccdf_eval(p, 1e4), lambda: quantile(p, 0.5),
                     lambda: class_fractions(p), lambda: sample_incomes(p, 10, seed=1)):
        with pytest.raises(TailDivergenceError):
            evaluate()


def test_replace_gives_a_law_with_its_own_constants():
    # a copy with a new shape must never carry the constants of the old one
    q = replace(preset_params("2008"), T=2e4)
    assert ccdf_eval(q, q.m_init) == pytest.approx(1.0, abs=1e-12)
    assert sum(class_fractions(q)) == pytest.approx(100.0, abs=1e-10)


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_law_never_normalized_gives_the_same_bits(year):
    raw = PRESETS[year]
    bare, law = ModelParams(**raw), normalize(ModelParams(**raw))
    ms = np.geomspace(raw["m_init"], 1e3 * raw["m1"], 50)
    assert pdf_eval(bare, ms).tobytes() == pdf_eval(law, ms).tobytes()
    assert quantile(bare, 0.9) == quantile(law, 0.9)
    assert class_fractions(bare) == class_fractions(law)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(T=-1.0, T1=4e4, alpha=2.5, alpha1=0.8, m0=1e5, m1=3e5, m_init=0.01)
    with pytest.raises(ValueError):
        # m_init must sit below m0
        ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.8, m0=1e5, m1=3e5, m_init=2e5)
    with pytest.raises(ValueError):
        # threshold below the crossover scale
        ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.8, m0=4e5, m1=3e5, m_init=0.01)
    # a JSON integer past the float range: the record's own rule names it
    text = json.dumps(dict(T=10**400, T1=4e4, alpha=2.5, alpha1=0.8, m0=1e5, m1=3e5, m_init=0.01))
    with pytest.raises(ValueError, match="^T must be positive and finite, got 1000"):
        ModelParams.from_json(text)


def test_params_json_round_trip(params08):
    text = params08.to_json()
    keys = set(json.loads(text))
    assert keys == {"T", "T1", "alpha", "alpha1", "m0", "m1", "m_init"}
    assert tuple(asdict(params08)) == model._PARAM_KEYS  # the shape and nothing else
    back = ModelParams.from_json(text)
    assert back == params08 and "_constants" in vars(back)  # derived at load
    assert back.c_lo == pytest.approx(params08.c_lo, rel=1e-12)


def test_preset_params_names_the_bundled_waves():
    with pytest.raises(KeyError, match=r"no preset for '1999'; have \['2006', '2008'\]"):
        preset_params("1999")


def test_coeffs_json_round_trip():
    c = LangevinCoeffs(A0=496202.5316455696, a=1.902, A0_hi=496202.5316455696,
                       a_hi=-0.21, B0=1.96e10, b=1.0)
    assert LangevinCoeffs.from_json(c.to_json()) == c


@st.composite
def _param_sets(draw):
    T = draw(st.floats(1e3, 1e5))
    alpha = draw(st.floats(1.2, 4.0))
    alpha1 = draw(st.floats(0.3, 2.0))
    m0 = draw(st.floats(1e4, 5e5))
    m1 = m0 * draw(st.floats(1.0, 30.0))
    return ModelParams(T=T, T1=T, alpha=alpha, alpha1=alpha1,
                       m0=m0, m1=m1, m_init=0.01)


@st.composite
def _laws(draw):
    """The seven fields of a law over scales from 1e-30 to 1e30."""
    m_init = 10.0 ** draw(st.floats(-30.0, 30.0))
    m0 = m_init * 10.0 ** draw(st.floats(0.01, 6.0))
    return spoil_one(draw, dict(T=m0 * 10.0 ** draw(st.floats(-3.0, 3.0)),
                                T1=m0 * 10.0 ** draw(st.floats(-3.0, 3.0)),
                                alpha=10.0 ** draw(st.floats(-2.0, 1.0)), alpha1=draw(st.floats(-1.0, 5.0)),
                                m0=m0, m1=m0 * 10.0 ** draw(st.floats(0.0, 6.0)), m_init=m_init))


@settings(max_examples=60)
@given(_laws())
def test_every_law_that_normalizes_round_trips_through_json(raw):
    try:
        law = normalize(ModelParams(**raw))
    except ValueError:
        return
    back = ModelParams.from_json(law.to_json())
    assert back == law and (back.c_lo, back.c_hi) == (law.c_lo, law.c_hi)


@given(_param_sets(), st.floats(0.2, 50.0))
def test_scale_covariance_of_ccdf(raw, lam):
    from dataclasses import replace
    params = normalize(raw)
    scaled = normalize(replace(
        raw, T=raw.T * lam, T1=raw.T1 * lam, m0=raw.m0 * lam,
        m1=raw.m1 * lam, m_init=raw.m_init * lam,
    ))
    for f in (0.5, 2.0, 10.0):
        m = f * raw.m0
        assert ccdf_eval(scaled, lam * m) == pytest.approx(
            ccdf_eval(params, m), rel=1e-8)


@given(_param_sets())
def test_ccdf_monotone_property(raw):
    params = normalize(raw)
    ms = np.geomspace(params.m_init, 100 * params.m1, 60)
    pi = ccdf_eval_many(params, ms)
    assert np.all(np.diff(pi) <= 0.0)
    assert pi[0] == pytest.approx(1.0, abs=1e-9)


def test_single_branch_reduction_threshold_independence():
    base = dict(T=5e4, T1=5e4, alpha=2.2, alpha1=2.2, m0=9e4, m_init=0.01)
    a = normalize(ModelParams(m1=2e5, **base))
    b = normalize(ModelParams(m1=3.3e6, **base))
    ms = np.geomspace(0.02, 5e7, 40)
    pa = ccdf_eval_many(a, ms)
    pb = ccdf_eval_many(b, ms)
    assert np.max(np.abs(pa / pb - 1.0)) < 1e-9


def _quad_ccdf(params, ms):
    """CCDF at the ascending incomes ms by one adaptive scipy quad per interval.

    An oracle independent of the model's fixed-rule engine: below the band
    node m0/tan(0.25) it integrates exp(-k u) cos(u)^(a-1) in u = arctan(m/m0);
    above it, in v = w^a with w = arctan(m0/m), which absorbs the endpoint
    singularity at w = 0.
    """
    def regular(k, a, lo, hi):
        f = lambda u: math.exp(-k * u) * math.cos(u) ** (a - 1.0)
        return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=300)[0] if hi > lo else 0.0

    def endpoint(k, a, w_lo, w_hi):
        def g(v):
            w = v ** (1.0 / a)
            sinc = math.sin(w) / w if w > 0.0 else 1.0
            return math.exp(k * (w - math.pi / 2)) * sinc ** (a - 1.0) / a
        return (integrate.quad(g, w_lo**a, w_hi**a, epsabs=0.0, epsrel=1e-12, limit=300)[0]
                if w_hi > w_lo else 0.0)

    nodes = np.union1d(ms, [params.m1]) if ms[0] < params.m1 else np.asarray(ms, float)
    us, ws = np.arctan(nodes / params.m0), np.arctan2(params.m0, nodes)
    branch = lambda m: ((params.c_hi, params.m0 / params.T1, params.alpha1) if m >= params.m1
                        else (params.c_lo, params.m0 / params.T, params.alpha))
    c, k, a = branch(nodes[-1])
    band = min(ws[-1], 0.25)
    tail = [c * (endpoint(k, a, 0.0, band) + regular(k, a, math.pi / 2 - ws[-1], math.pi / 2 - band))]
    for i in range(nodes.size - 2, -1, -1):
        c, k, a = branch(nodes[i])
        piece = (endpoint(k, a, ws[i + 1], ws[i]) if ws[i] <= 0.25
                 else regular(k, a, us[i], us[i + 1]))
        tail.append(tail[-1] + c * piece)
    tail = np.array(tail[::-1])
    return params.m0 * tail[np.searchsorted(nodes, ms)]


def _wave_sets(seed, n):
    """Random parameter sets in the ranges of the synthetic-waves benchmark."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        T = math.exp(rng.uniform(math.log(1e4), math.log(1e5)))
        m0 = T * rng.uniform(1.5, 6.0)
        out.append(normalize(ModelParams(
            T=T, T1=T * rng.uniform(0.7, 1.5), alpha=rng.uniform(1.2, 4.0),
            alpha1=rng.uniform(0.2, 2.0), m0=m0,
            m1=m0 * math.exp(rng.uniform(math.log(1.5), math.log(20.0))), m_init=0.01)))
    return out


def _probes(params):
    return (params.m0, params.m1, 10.0 * params.m1, 1e6 * params.m0)


def _assert_matches_oracle(params, rel):
    # the oracle at m_init checks the engine's normalization constants
    assert _quad_ccdf(params, [params.m_init])[0] == pytest.approx(1.0, rel=rel, abs=0.0)
    grid_m, grid_pi = ccdf_table(params, 1e6 * params.m0, n_grid=40)
    np.testing.assert_allclose(grid_pi, _quad_ccdf(params, grid_m), rtol=rel, atol=0.0)
    for m in _probes(params):
        assert ccdf_eval(params, m) == pytest.approx(_quad_ccdf(params, [m])[0], rel=rel, abs=0.0)


def test_engine_matches_adaptive_quadrature():
    for params in _wave_sets(606, 30):
        _assert_matches_oracle(params, rel=1e-10)


@pytest.mark.parametrize("alpha1,k", [(0.023, 129.0), (0.0104, 222.0)])
def test_engine_matches_adaptive_quadrature_wide_domain(alpha1, k):
    # heavy tails behind cold branches: a piece wider than 1/k in w would span
    # a factor e^k of the integrand
    _assert_matches_oracle(normalize(ModelParams(
        T=1e3, T1=1e3, alpha=2.5, alpha1=alpha1, m0=k * 1e3, m1=3.0 * k * 1e3, m_init=0.01,
    )), rel=1e-10)


@pytest.mark.parametrize("which", ["presets", "random"])
def test_engine_error_estimate_is_rounding_level(params06, params08, which):
    # the summed |K21 - G10| estimate is in probability units (it includes
    # the factor m0 and the branch constants)
    sets = [params06, params08] if which == "presets" else _wave_sets(707, 50)
    for params in sets:
        ms = np.geomspace(params.m_init, 1e15 * params.m0, 400)
        for nodes in [ms] + [[m] for m in _probes(params)]:
            _, err = _ccdf_nodes(params, nodes, params.c_lo, params.c_hi)
            assert err < 1e-13


@pytest.mark.parametrize("alpha1", [0.01, 0.05, 0.2])
def test_engine_raises_no_floating_point_warnings(params08, alpha1, normal_pieces):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = _with_alpha1(params08, alpha1)
        grid_m, grid_pi = ccdf_table(params, 1e15 * params.m0, n_grid=200)
        assert np.all(grid_pi > 0.0)
        assert ccdf_eval(params, 1e15 * params.m0) > 0.0
        assert quantile(params, 0.5) > params.m_init
        assert np.all(np.isfinite(sample_incomes(params, 2000, seed=3)))


@pytest.mark.parametrize("k", [0.3, 3.0, 1e3, 1e5])
def test_single_exponent_law_matches_closed_form(k):
    # alpha = alpha1 = 1 with T = T1 leaves exp(-k u) du, whose tail mass is
    # closed-form.  The bulk sits within 1/k of w = pi/2, where w itself is
    # only resolved to ~1e-16, so the error grows like k * 1e-16
    m0 = 1e5
    params = normalize(ModelParams(T=m0 / k, T1=m0 / k, alpha=1.0, alpha1=1.0,
                                   m0=m0, m1=2.0 * m0, m_init=0.01))
    u_i, w_i = math.atan(params.m_init / m0), math.atan2(m0, params.m_init)

    def exact(m):
        return (math.exp(-k * (math.atan(m / m0) - u_i))
                * math.expm1(-k * math.atan2(m0, m)) / math.expm1(-k * w_i))

    rel = 1e-15 * max(k, 4.0)
    grid_m, grid_pi = ccdf_table(params, 1e15 * m0, n_grid=300)
    for m, pi in zip(grid_m, grid_pi):
        if exact(m) > 1e-300:
            assert pi == pytest.approx(exact(m), rel=rel, abs=0.0)
    for m in (params.m_init + 0.5 * m0 / k, params.m_init + 10.0 * m0 / k, 3.0 * m0, 1e15 * m0):
        if exact(m) > 1e-300:
            assert ccdf_eval(params, m) == pytest.approx(exact(m), rel=rel, abs=0.0)


@pytest.mark.parametrize("k", [3.5, 1e3, 1e5])
def test_normalization_contract_holds_inside_its_domain(k):
    # the raw tail (c = 1) of the alpha = alpha1 = 1, T1 = T law is
    # (m0/k) exp(-k atan(m/m0)) (-expm1(-k atan(m0/m))), k = m0/T, which
    # float64 gives to ~1e-15.  The 1e-10 contract holds up to k ~ 2.5e5
    # (README, Known limitations); these k gave 1.5e-15, 2e-13 and 2.5e-11
    m0 = 1e5
    T = m0 / k
    params = normalize(ModelParams(T=T, T1=T, alpha=1.0, alpha1=1.0,
                                   m0=m0, m1=2.0 * m0, m_init=0.01))

    def raw(m):
        return (m0 / k) * math.exp(-k * math.atan(m / m0)) * -math.expm1(-k * math.atan2(m0, m))

    assert params.c_lo == pytest.approx(1.0 / raw(params.m_init), rel=1e-10, abs=0.0)
    for f in (0.1, 1.0, 10.0, 30.0):
        m = params.m_init + f * T
        exact = raw(m) / raw(params.m_init)
        assert ccdf_eval(params, m) == pytest.approx(exact, rel=1e-10, abs=0.0)


# ------------------------------------------------ refinement misfit


def _summed(ms, log_p, m_init, m1):
    """params -> v.G.v - 2 h.v + log_p.log_p from _log_ccdf_misfit's pieces, inf where v is None."""
    log_tails, gram, h = _log_ccdf_misfit(ms, log_p, m_init, m1)
    c = float(log_p @ log_p)

    def misfit(params):
        scored = log_tails(params)
        if scored is None:
            return math.inf
        v, _ = scored
        return float(v @ (gram(v) - 2.0 * h)) + c

    return misfit


def _misfit_pair(params, ms, log_p):
    """The quadratic-form misfit and the direct O(n) sum, built for the same data."""
    args = (ms, log_p, params.m_init, params.m1)
    return _summed(*args), direct_misfit(*args)


def _in_box(params, t, f):
    """params with T (and a tied T1) scaled by t and m0 by f, or m0 = m1 for f None."""
    T = params.T * t
    return normalize(replace(params, T=T, T1=T if params.T1 == params.T else params.T1,
                             m0=params.m1 if f is None else params.m0 * f))


@pytest.fixture(scope="module")
def ccdf08_draw(params08):
    return rank_ccdf(sample_incomes(params08, 100_000, seed=4242))


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_log_ccdf_misfit_matches_direct_sum_at_truth(year):
    params = preset_params(year)
    data = noiseless_ccdf(params, 20000)
    fast, ref = _misfit_pair(params, data.incomes, np.log(data.p))
    assert ref(params) < 1e-3  # exact data: the rounding floor is what is tested
    assert fast(params) == pytest.approx(ref(params), rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("t, f", [(1.0, 0.5), (1.2, 0.8), (1.5, 1.0), (1.5, None), (1.1, 0.6)])
@pytest.mark.parametrize("data", ["ccdf08_noiseless", "ccdf08_draw"])
def test_log_ccdf_misfit_matches_direct_sum_across_the_box(request, params08, data, t, f):
    ccdf = request.getfixturevalue(data)
    fast, ref = _misfit_pair(params08, ccdf.incomes, np.log(ccdf.p))
    for params in (params08, _in_box(params08, t, f)):
        assert fast(params) == pytest.approx(ref(params), rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("t, f", [(1.0, 0.5), (1.2, 0.8), (1.5, 1.0), (1.5, None), (1.1, 0.6)])
@pytest.mark.parametrize("year", ["2008", "2006"])
def test_log_ccdf_misfit_needs_no_constants(year, t, f):
    # the refinement scores trial points without their constants: the misfit
    # must neither derive them (an engine pass more) nor depend on them
    params = preset_params(year)
    data = noiseless_ccdf(params, 20000)
    fast = _summed(data.incomes, np.log(data.p), params.m_init, params.m1)
    for normalized in (params, _in_box(params, t, f)):
        bare = replace(normalized)  # a new law: its constants are not derived yet
        assert math.isfinite(fast(bare))
        assert fast(bare) == pytest.approx(fast(normalized), rel=1e-12, abs=0.0)
        assert "_constants" not in vars(bare)


def test_log_ccdf_misfit_with_incomes_on_grid_nodes(params08):
    # m_init is the grid's first node and m1 an inserted one: weight 1 on one node
    rng = np.random.default_rng(7)
    ms = np.concatenate(([params08.m_init, params08.m1], sample_incomes(params08, 2000, seed=7)))
    log_p = np.log(ccdf_eval_many(params08, ms)) + 0.05 * rng.standard_normal(ms.size)
    richest_first = np.argsort(ms, kind="stable")[::-1]
    fast, ref = _misfit_pair(params08, ms[richest_first], log_p[richest_first])
    for params in (params08, _in_box(params08, 1.3, 0.7)):
        assert fast(params) == pytest.approx(ref(params), rel=1e-9, abs=1e-10)
    assert fast(params08) > 1.0  # the noise is seen, not only the rounding floor


@pytest.mark.parametrize("order", ["increasing", "shuffled"])
def test_log_ccdf_misfit_needs_the_incomes_richest_first(params08, order):
    # the nodes' counts of incomes index the sorted incomes: any other order
    # is refused, where the counts would put incomes on the wrong nodes
    ms = np.sort(sample_incomes(params08, 1000, seed=3))[::-1]
    _log_ccdf_misfit(ms, np.zeros(ms.size), params08.m_init, params08.m1)
    ms = ms[::-1] if order == "increasing" else np.random.default_rng(3).permutation(ms)
    with pytest.raises(ValueError, match="non-increasing"):
        _log_ccdf_misfit(ms, np.zeros(ms.size), params08.m_init, params08.m1)


def _difference_jacobian(log_ccdf, params, h=1e-5):
    """dv/d(ln T, ln m0) of v = log_ccdf(params) by central differences of width h.

    T1 moves with T where they are equal.  Where m0 e^h would pass m1 the ln m0
    column is the second-order backward difference (3 v(0) - 4 v(-h) + v(-2h)) / 2h.
    """
    tied = params.T1 == params.T

    def at(d_ln_T, d_ln_m0):
        T = params.T * math.exp(d_ln_T)
        return log_ccdf(replace(params, T=T, T1=T if tied else params.T1, m0=params.m0 * math.exp(d_ln_m0)))

    d_T = (at(h, 0.0) - at(-h, 0.0)) / (2.0 * h)
    if params.m0 * math.exp(h) <= params.m1:
        d_m0 = (at(0.0, h) - at(0.0, -h)) / (2.0 * h)
    else:
        d_m0 = (3.0 * at(0.0, 0.0) - 4.0 * at(0.0, -h) + at(0.0, -2.0 * h)) / (2.0 * h)
    return np.column_stack((d_T, d_m0))


def _jacobian_error(law, ms):
    """max |J - differences| of the misfit pass's J at law, and max |J|."""
    log_tails, _, _ = _log_ccdf_misfit(np.sort(ms)[::-1], np.zeros(ms.size), law.m_init, law.m1)
    v, J = log_tails(law)
    assert J.shape == (v.size, 2) and not J[0].any()  # v[0] = 0 at every law
    reference = _difference_jacobian(lambda params: log_tails(params)[0], law)
    return float(np.max(np.abs(J - reference))), float(np.max(np.abs(J)))


# The differences of width 1e-5 are good to ~1e-9 here: their truncation is
# h^2 / 6 times the third derivative, their rounding ~1e-16 |v| / h.
_JACOBIAN_ATOL = 1e-8


@pytest.mark.parametrize("case", ["tied", "untied", "heavy", "heavy untied", "m0 = m1"])
@pytest.mark.parametrize("year", ["2008", "2006"])
def test_log_ccdf_misfit_jacobian_matches_differences(year, case):
    # the refinement's J = dv/d(ln T, ln m0) comes from the pass that scores v
    params = preset_params(year)
    law = {"tied": params, "untied": replace(params, T1=1.3 * params.T),
           "heavy": replace(params, alpha1=0.6), "heavy untied": replace(params, alpha1=0.6, T1=0.7 * params.T),
           "m0 = m1": replace(params, m0=params.m1)}[case]  # m0 = m1: a backward difference
    err, size = _jacobian_error(law, sample_incomes(params, 10_000, seed=1))
    assert size > 1.0
    assert err <= _JACOBIAN_ATOL


@settings(max_examples=20)
@given(st.sampled_from(["2008", "2006"]), st.booleans(), st.floats(1.0, 1.5), st.floats(0.0, 1.0))
def test_log_ccdf_misfit_jacobian_matches_differences_across_the_box(year, tied, t, f):
    # the fit's box: T in [T_bg, 1.5 T_bg], m0 in (m_init, m1], here from 1.01 m_init
    params = preset_params(year)
    m0 = 1.01 * params.m_init * (params.m1 / (1.01 * params.m_init)) ** f
    law = replace(params, T=t * params.T, T1=t * params.T if tied else params.T, m0=m0)
    err, _ = _jacobian_error(law, sample_incomes(params, 2_000, seed=2))
    assert err <= _JACOBIAN_ATOL


def test_log_ccdf_misfit_is_inf_where_the_tail_underflows(params08):
    light = _with_alpha1(params08, 3.0)  # (1e250 / m1)^-3 is far below the float range
    ms = np.array([1e250, params08.m0, params08.m_init])
    fast, _ = _misfit_pair(light, ms, np.log([1e-300, 0.5, 1.0]))
    _, grid_pi = ccdf_table(light, 1e250 * (1.0 + 1e-12), 800)
    assert grid_pi[-1] == 0.0
    assert fast(light) == math.inf
    assert fast(params08) < math.inf  # the same grid with a heavier tail stays finite
    # T a thousandth of m_init: the normalization integral itself underflows
    cold = replace(params08, T=1e-3 * params08.m_init, T1=1e-3 * params08.m_init)
    with pytest.raises(ValueError, match="normalization integral"):
        normalize(cold)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fast(cold) == math.inf
    with pytest.raises(ValueError, match="m_init"):
        _log_ccdf_misfit(ms * 0.0 + 0.5 * params08.m_init, np.zeros(3), params08.m_init, params08.m1)
