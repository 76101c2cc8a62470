import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, optimize

from incomedist import (
    LangevinCoeffs,
    ModelParams,
    ParetoFit,
    TailDivergenceError,
    bg_ccdf,
    ccdf_eval,
    ccdf_eval_many,
    ccdf_table,
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

from conftest import direct_misfit, noiseless_ccdf

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


def test_pareto_ccdf_exact_value():
    fit = ParetoFit(m_sp=1.0e5, alpha=2.902)
    # 2**-2.902
    assert pareto_ccdf(fit, 2.0e5) == pytest.approx(0.133786087303328, rel=1e-12)
    assert pareto_ccdf(fit, 1.0e5) == 1.0


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
    return normalize(replace(params, alpha1=alpha1, c_lo=None, c_hi=None))


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


@pytest.mark.parametrize("year", ["2008", "2006"])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99, 0.9999])  # the last lies above m1
def test_quantile_takes_at_most_five_passes(year, q, monkeypatch):
    params = preset_params(year)
    calls = []
    monkeypatch.setattr(model, "_ccdf_nodes", lambda *args: calls.append(args[1]) or _ccdf_nodes(*args))
    m = quantile(params, q)
    assert 1 <= len(calls) <= 5
    assert m == pytest.approx(_brent_quantile(params, q), rel=1e-8, abs=0.0)


def _reference_sample(params, n, seed):
    """sample_incomes with its table edge found by the scalar decade loop."""
    p_floor = max(1e-12, 1e-3 / n)
    edge = 10.0 * params.m1
    while ccdf_eval(params, edge) > p_floor and edge < 1e300:
        edge *= 10.0
    grid_m, grid_pi = ccdf_table(params, edge, n_grid=4000)
    targets = np.clip(1.0 - np.random.default_rng(seed).random(n), grid_pi[-1], 1.0)
    return np.exp(np.interp(np.log(targets), np.log(grid_pi[::-1]), np.log(grid_m[::-1])))


@pytest.mark.parametrize("year", ["2008", "2006"])
@pytest.mark.parametrize("seed", [6, 9301])
def test_sampler_edge_matches_the_decade_loop(year, seed):
    params = preset_params(year)
    got = sample_incomes(params, 100_000, seed=seed)
    assert np.array_equal(got, _reference_sample(params, 100_000, seed))


@pytest.mark.parametrize("alpha1", [0.01, 0.05, 0.1])
def test_heavy_tail_sampler_edge_matches_the_decade_loop(params08, alpha1):
    # these edges lie past the first pass's 24 decades (at the 1e300 cap for 0.01)
    params = _with_alpha1(params08, alpha1)
    assert np.array_equal(sample_incomes(params, 20_000, seed=8), _reference_sample(params, 20_000, 8))


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
    bad = replace(params08, alpha=0.9, c_lo=None, c_hi=None)
    with pytest.raises(ValueError):
        effective_to_coeffs(bad)


def test_continuity_underflow_names_temperatures(params08):
    # the 2008 shape with a cold lower branch: exp(m0 (1/T1 - 1/T) u1) is 0
    from dataclasses import replace
    cold = replace(params08, T=100.0, c_lo=None, c_hi=None)
    with pytest.raises(ValueError, match=r"underflows at m0/T1 = .*, m0/T = 1400,"):
        continuity_ratio(cold)
    with pytest.raises(ValueError, match="underflows"):
        normalize(cold)


def test_divergent_tail_rejected():
    p = ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.0,
                    m0=1e5, m1=3e5, m_init=0.01)
    with pytest.raises(TailDivergenceError):
        normalize(p)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(T=-1.0, T1=4e4, alpha=2.5, alpha1=0.8, m0=1e5, m1=3e5, m_init=0.01)
    with pytest.raises(ValueError):
        # m_init must sit below m0
        ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.8, m0=1e5, m1=3e5, m_init=2e5)
    with pytest.raises(ValueError):
        # threshold below the crossover scale
        ModelParams(T=4e4, T1=4e4, alpha=2.5, alpha1=0.8, m0=4e5, m1=3e5, m_init=0.01)


def test_params_json_round_trip(params08):
    text = params08.to_json()
    keys = set(json.loads(text))
    assert keys == {"T", "T1", "alpha", "alpha1", "m0", "m1", "m_init"}
    back = ModelParams.from_json(text)
    assert back.is_normalized
    assert back.c_lo == pytest.approx(params08.c_lo, rel=1e-12)


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
def test_engine_raises_no_floating_point_warnings(params08, alpha1):
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


# ------------------------------------------------ refinement misfit


def _misfit_pair(params, ms, log_p, n_grid=800):
    """The quadratic-form misfit and the direct O(n) sum, built for the same data."""
    args = (ms, log_p, params.m_init, params.m1, n_grid)
    return _log_ccdf_misfit(*args), direct_misfit(*args)


def _in_box(params, t, f):
    """params with T (and a tied T1) scaled by t and m0 by f, or m0 = m1 for f None."""
    T = params.T * t
    return normalize(replace(params, T=T, T1=T if params.T1 == params.T else params.T1,
                             m0=params.m1 if f is None else params.m0 * f,
                             c_lo=None, c_hi=None))


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
    # the refinement scores unnormalized trial points: the misfit must not
    # depend on whether the constants are set
    params = preset_params(year)
    data = noiseless_ccdf(params, 20000)
    fast = _log_ccdf_misfit(data.incomes, np.log(data.p), params.m_init, params.m1, 800)
    for normalized in (params, _in_box(params, t, f)):
        bare = replace(normalized, c_lo=None, c_hi=None)
        assert math.isfinite(fast(bare))
        assert fast(bare) == pytest.approx(fast(normalized), rel=1e-12, abs=0.0)


def test_log_ccdf_misfit_with_incomes_on_grid_nodes(params08):
    # m_init is the grid's first node and m1 an inserted one: weight 1 on one node
    rng = np.random.default_rng(7)
    ms = np.concatenate(([params08.m_init, params08.m1], sample_incomes(params08, 2000, seed=7)))
    log_p = np.log(ccdf_eval_many(params08, ms, 800)) + 0.05 * rng.standard_normal(ms.size)
    fast, ref = _misfit_pair(params08, ms, log_p)
    for params in (params08, _in_box(params08, 1.3, 0.7)):
        assert fast(params) == pytest.approx(ref(params), rel=1e-9, abs=1e-10)
    assert fast(params08) > 1.0  # the noise is seen, not only the rounding floor


def test_log_ccdf_misfit_is_inf_where_the_tail_underflows(params08):
    light = _with_alpha1(params08, 3.0)  # (1e250 / m1)^-3 is far below the float range
    ms = np.array([params08.m_init, params08.m0, 1e250])
    fast, _ = _misfit_pair(light, ms, np.log([1.0, 0.5, 1e-300]))
    _, grid_pi = ccdf_table(light, 1e250 * (1.0 + 1e-12), 800)
    assert grid_pi[-1] == 0.0
    assert fast(light) == math.inf
    assert fast(params08) < math.inf  # the same grid with a heavier tail stays finite
    # T a thousandth of m_init: the normalization integral itself underflows
    cold = replace(params08, T=1e-3 * params08.m_init, T1=1e-3 * params08.m_init, c_lo=None, c_hi=None)
    with pytest.raises(ValueError, match="normalization integral"):
        normalize(cold)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fast(cold) == math.inf
    with pytest.raises(ValueError, match="m_init"):
        _log_ccdf_misfit(ms * 0.0 + 0.5 * params08.m_init, np.zeros(3), params08.m_init, params08.m1, 800)
