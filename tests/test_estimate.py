import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from incomedist import (
    DegenerateTailWarning,
    EmpiricalCCDF,
    EstimationError,
    RankFit,
    detect_crossovers,
    fit_full,
    fit_pareto_exponent,
    fit_rank,
    fit_temperature,
    normalize,
    rank_ccdf,
    refine_temperature,
    sample_incomes,
)
from incomedist import estimate, model
from incomedist.estimate import MIN_SEGMENT, _PrefixOLS, _candidate_indices, _search_segments

from conftest import direct_misfit, noiseless_ccdf


def _exact_exponential(n=2000, T=4.0e4, m_init=0.01):
    ps = np.arange(1, n + 1) / (n + 1.0)
    ms = m_init - T * np.log(ps)
    return EmpiricalCCDF(incomes=np.sort(ms)[::-1], p=ps)


def _exact_power(n=500, alpha=2.902, m_sp=1.0e4):
    ps = np.arange(1, n + 1) / (n + 1.0)
    ms = m_sp * ps ** (-1.0 / alpha)
    return EmpiricalCCDF(incomes=np.sort(ms)[::-1], p=ps)


def test_prefix_ols_matches_polyfit():
    rng = np.random.default_rng(42)
    x = np.sort(rng.normal(size=300))
    y = 2.5 * x - 1.0 + rng.normal(scale=0.2, size=300)
    ols = _PrefixOLS(x, y)
    for (i, j) in [(0, 300), (10, 200), (250, 299), (0, 3)]:
        slope, intercept, ssr = ols.line(i, j)
        ref = np.polyfit(x[i:j], y[i:j], 1)
        assert slope == pytest.approx(ref[0], rel=1e-9)
        assert intercept == pytest.approx(ref[1], rel=1e-9, abs=1e-12)
        resid = y[i:j] - (slope * x[i:j] + intercept)
        assert ssr == pytest.approx(float(resid @ resid), rel=1e-7, abs=1e-12)


def test_fit_temperature_machine_precision():
    ccdf = _exact_exponential(T=34902.0)
    T = fit_temperature(ccdf, 0.01, np.inf)
    assert T == pytest.approx(34902.0, rel=1e-10)


def test_fit_temperature_scale_covariance():
    ccdf = _exact_exponential(T=2.0e4)
    lam = 7.5
    scaled = EmpiricalCCDF(incomes=lam * ccdf.incomes, p=ccdf.p.copy())
    T1 = fit_temperature(ccdf, 0.01, np.inf)
    T2 = fit_temperature(scaled, 0.01 * lam, np.inf)
    assert T2 == pytest.approx(lam * T1, rel=1e-9)


def test_fit_temperature_rejects_degenerate_window():
    # tied incomes give the regression zero x-variance
    ccdf = rank_ccdf([5.0] * 8 + [1.0, 2.0])
    with pytest.raises(EstimationError):
        fit_temperature(ccdf, 4.0, np.inf)
    # and too-few points in the window is caught before the regression
    with pytest.raises(EstimationError):
        fit_temperature(ccdf, 0.5, 3.0)


def test_fit_pareto_machine_precision():
    seg = fit_pareto_exponent(_exact_power(alpha=2.902, m_sp=1.0e4), 0.0)
    assert seg.fit.alpha == pytest.approx(2.902, rel=1e-10)
    assert seg.fit.m_sp == pytest.approx(1.0e4, rel=1e-8)
    assert seg.stderr < 1e-10


def test_fit_pareto_zipf():
    seg = fit_pareto_exponent(_exact_power(alpha=1.0), 0.0)
    assert seg.fit.alpha == pytest.approx(1.0, rel=1e-10)


def test_fit_pareto_window_too_small():
    with pytest.raises(EstimationError):
        fit_pareto_exponent(_exact_power(n=50), 1e30)


def test_fit_rank_exact_examples():
    ranks = np.arange(1, 97, dtype=float)
    rf = fit_rank(3.0e9 * ranks ** -1.22)
    assert rf.alpha_pareto == pytest.approx(1.0 / 1.22, rel=1e-10)
    rf = fit_rank(5.0e9 * ranks ** -1.07)
    assert rf.alpha_pareto == pytest.approx(1.0 / 1.07, rel=1e-10)


def test_fit_rank_errors():
    with pytest.raises(EstimationError):
        fit_rank([1.0, 2.0])
    with pytest.raises(EstimationError):
        fit_rank([5.0] * 10)
    with pytest.raises(ValueError):
        RankFit(alpha_rank=2.0, alpha_pareto=0.7, stderr=0.0)


def test_fit_rank_consistent_with_pareto_fit():
    rng = np.random.default_rng(99)
    alpha = 0.82
    samp = 1e6 * rng.pareto(alpha, size=10000) + 1e6
    rf = fit_rank(samp)
    seg = fit_pareto_exponent(rank_ccdf(samp), 0.0)
    # same regression with axes swapped: alpha_ccdf = r^2 * alpha_rank_inverse
    assert abs(seg.fit.alpha - rf.alpha_pareto) < 0.05 * rf.alpha_pareto


def test_detect_preconditions():
    with pytest.raises(EstimationError):
        detect_crossovers(_exact_power(n=20))
    narrow = rank_ccdf(np.linspace(10.0, 20.0, 100))
    with pytest.raises(EstimationError):
        detect_crossovers(narrow)


def test_detect_degenerate_on_pure_exponential():
    ccdf = _exact_exponential()
    with pytest.warns(DegenerateTailWarning):
        m0, m1 = detect_crossovers(ccdf)
    # third segment pinned at the data edge
    assert m1 >= np.sort(ccdf.incomes)[-_candidate_indices(ccdf.n, 5).min()]
    assert m0 < m1


@pytest.mark.filterwarnings("ignore::incomedist.DegenerateTailWarning")
def test_detect_optimal_over_grid(params08):
    # n=2000 leaves too few tail points for a distinct third segment; the
    # optimality property under test holds either way
    ccdf = noiseless_ccdf(params08, 2000)
    res = _search_segments(ccdf)
    x = ccdf.incomes[::-1]
    lnp = np.log(ccdf.p[::-1])
    lnx = np.log(x)
    lin = _PrefixOLS(x, lnp)
    loglog = _PrefixOLS(lnx, lnp)
    idx = _candidate_indices(ccdf.n, 5)
    best = sum(res["ssr"])
    rng = np.random.default_rng(1)
    for _ in range(300):
        i, j = sorted(rng.choice(idx, size=2, replace=False))
        if j - i < 5:
            continue
        total = float(lin.ssr(0, i) + loglog.ssr(i, j) + loglog.ssr(j, ccdf.n))
        assert total >= best - 1e-12


def test_detect_scale_covariance(params08):
    ccdf = noiseless_ccdf(params08, 3000)
    lam = 3.5
    scaled = EmpiricalCCDF(incomes=lam * ccdf.incomes, p=ccdf.p.copy())
    m0a, m1a = detect_crossovers(ccdf)
    m0b, m1b = detect_crossovers(scaled)
    assert m0b == pytest.approx(lam * m0a, rel=1e-12)
    assert m1b == pytest.approx(lam * m1a, rel=1e-12)


def test_detect_known_bias_regression(params08):
    # The three-straight-line SSR optimum settles below the generative
    # crossovers on this curve family; pin the measured band so silent
    # behavior changes surface here.  The +-10% recovery target itself is
    # exercised (and currently not met) in the acceptance suite.
    ccdf = noiseless_ccdf(params08, 20000)
    m0, m1 = detect_crossovers(ccdf)
    assert 0.55 * params08.m0 < m0 < 0.80 * params08.m0
    assert 0.75 * params08.m1 < m1 < 1.05 * params08.m1


def test_stderr_matches_measured_spread():
    # Pareto draws whose CCDF and rank-plot residuals are random walks in rank
    # order: the reported slope errors must match the spread of the estimates
    alpha, n = 0.82, 10_000
    fits = []
    for seed in range(120):
        values = (1.0 - np.random.default_rng(seed).random(n)) ** (-1.0 / alpha)
        seg = fit_pareto_exponent(rank_ccdf(values), 0.5)
        rf = fit_rank(values)
        fits.append((seg.fit.alpha, seg.stderr, rf.alpha_pareto, rf.stderr))
    a_ccdf, se_ccdf, a_rank, se_rank = np.array(fits).T
    assert se_ccdf.mean() == pytest.approx(np.std(a_ccdf, ddof=1), rel=0.25)
    assert se_rank.mean() == pytest.approx(np.std(a_rank, ddof=1), rel=0.25)


def test_refine_keeps_exact_data_fixed(params08, ccdf08_noiseless):
    # data generated at the true (T, m0): refinement must stay at the T
    # bracket edge and at the true crossover up to the search tolerance
    refined = refine_temperature(ccdf08_noiseless, params08)
    assert refined.T == pytest.approx(params08.T, rel=1e-3)
    assert refined.T >= params08.T
    assert refined.m0 == pytest.approx(params08.m0, rel=1e-3)


def test_refine_matches_the_direct_sum_objective(monkeypatch, params08):
    # criterion 6's draw: the quadratic-form misfit steers Nelder-Mead to the
    # refined (T, m0) the interpolate-every-point sum gives
    ccdf = rank_ccdf(sample_incomes(params08, 100_000, seed=4242))
    fast = fit_full(ccdf, params08.m_init)
    monkeypatch.setattr(estimate, "_log_ccdf_misfit", direct_misfit)
    ref = fit_full(ccdf, params08.m_init)
    assert ref.params.m0 != ref.m0_hat  # the refinement moved
    assert fast.params.T == pytest.approx(ref.params.T, rel=1e-9, abs=0.0)
    assert fast.params.m0 == pytest.approx(ref.params.m0, rel=1e-9, abs=0.0)


def _counted_refine(monkeypatch, ccdf, params):
    """refine_temperature(ccdf, params) with its engine passes and normalize calls counted.

    Also returns how many objective calls kept m0 inside (m_init, m1], where
    the misfit is evaluated: the start, plus every Nelder-Mead trial point.
    """
    from scipy import optimize

    counts = {"passes": 0, "normalize": 0}
    trials = []

    def counted(name, f):
        def wrapped(*args):
            counts[name] += 1
            return f(*args)
        return wrapped

    def recorded(minimize):
        return lambda fun, *args, **kw: minimize(lambda u: trials.append(tuple(u)) or fun(u), *args, **kw)

    monkeypatch.setattr(model, "_ccdf_nodes", counted("passes", model._ccdf_nodes))
    monkeypatch.setattr(estimate, "normalize", counted("normalize", estimate.normalize))
    monkeypatch.setattr(optimize, "minimize", recorded(optimize.minimize))
    refined = refine_temperature(ccdf, params)
    inside = 1 + sum(params.m_init < params.m0 * np.exp(u1) <= params.m1 for _, u1 in trials)
    return refined, counts, inside


def test_refine_makes_one_engine_pass_per_evaluation(monkeypatch, params08):
    # criterion 6's draw, from the fit's own start: the segment values
    ccdf = rank_ccdf(sample_incomes(params08, 100_000, seed=4242))
    report = fit_full(ccdf, params08.m_init)
    start = normalize(replace(report.params, T=report.T_bg, T1=report.T_bg, m0=report.m0_hat,
                              c_lo=None, c_hi=None))
    refined, counts, inside = _counted_refine(monkeypatch, ccdf, start)
    assert refined == report.params  # the refinement moved, to the fit's result
    assert inside > 50
    assert counts["normalize"] == 1  # the returned point only
    assert counts["passes"] == inside + 1  # one per evaluation, and normalize's own


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")  # scipy's inf - inf
def test_refine_that_returns_its_input_never_normalizes(monkeypatch, params08):
    # a tail of (1e250 / m1)^-3 underflows on the grid at every trial point,
    # so no score is finite and the input comes back as it was
    light = normalize(replace(params08, alpha1=3.0, c_lo=None, c_hi=None))
    ccdf = EmpiricalCCDF(incomes=np.array([1e250, params08.m0, 2.0 * params08.m_init]),
                         p=np.array([1e-300, 0.5, 0.9]))
    refined, counts, inside = _counted_refine(monkeypatch, ccdf, light)
    assert refined is light
    assert counts["normalize"] == 0
    assert counts["passes"] == inside > 1


def test_fit_full_report_structure(params08):
    samp = sample_incomes(params08, 30000, seed=77)
    report = fit_full(rank_ccdf(samp), 0.01)
    assert report.m0_hat < report.m1_hat
    assert report.T_bg <= report.refined_T <= 1.5 * report.T_bg * (1 + 1e-12)
    assert report.params.is_normalized
    assert report.params.T == report.refined_T
    assert report.params.T1 == report.params.T
    assert abs(report.alpha_fit / params08.alpha - 1.0) < 0.08
    assert report.alpha_se >= 0.0 and report.alpha1_se >= 0.0
    assert not report.degenerate_tail
    # JSON round trip carries every reported field
    import json
    obj = json.loads(report.to_json())
    assert obj["T_bg"] == report.T_bg
    assert obj["m0_hat"] == report.m0_hat
    assert len(obj["ssr_per_segment"]) == 3
    assert "alpha" in obj["params"]
    text = report.summary()
    assert "alpha" in text and "m0" in text


@pytest.mark.filterwarnings("ignore::incomedist.DegenerateTailWarning")
def test_fit_full_deterministic(params08):
    samp = sample_incomes(params08, 5000, seed=3)
    a = fit_full(rank_ccdf(samp), 0.01)
    b = fit_full(rank_ccdf(samp), 0.01)
    assert a.to_json() == b.to_json()


@pytest.mark.filterwarnings("ignore::incomedist.DegenerateTailWarning")
def test_fit_full_scale_covariance(params08):
    samp = sample_incomes(params08, 5000, seed=13)
    lam = 2.25
    a = fit_full(rank_ccdf(samp), 0.01)
    b = fit_full(rank_ccdf(lam * samp), 0.01 * lam)
    assert b.T_bg == pytest.approx(lam * a.T_bg, rel=1e-9)
    assert b.refined_T == pytest.approx(lam * a.refined_T, rel=1e-3)
    assert b.m0_hat == pytest.approx(lam * a.m0_hat, rel=1e-12)
    assert b.params.m0 == pytest.approx(lam * a.params.m0, rel=1e-3)
    assert b.m1_hat == pytest.approx(lam * a.m1_hat, rel=1e-12)
    assert b.alpha_fit == pytest.approx(a.alpha_fit, rel=1e-9)
    assert b.alpha1_fit == pytest.approx(a.alpha1_fit, rel=1e-9)


@given(st.floats(0.5, 3.0), st.floats(1e2, 1e7))
def test_fit_pareto_recovers_any_exact_law(alpha, m_sp):
    seg = fit_pareto_exponent(_exact_power(n=200, alpha=alpha, m_sp=m_sp), 0.0)
    assert seg.fit.alpha == pytest.approx(alpha, rel=1e-8)


# ------------------------------------------- the search against two-pass OLS


def _ols_slope(x, y):
    dx = x - x.mean()
    return float(dx @ (y - y.mean()) / (dx @ dx))


def _segment_ssr(x, y, bounds):
    """SSR of y on x over every [bounds[a], bounds[b]), a < b, as a matrix (inf elsewhere).

    Each block between adjacent bounds is centred at its own means (two-pass),
    and blocks are joined by the pairwise update of Chan, Golub & LeVeque
    (1983), so no difference of large running sums is ever formed.
    """
    blocks = [(x[lo:hi], y[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    cnt = np.diff(bounds).astype(float)
    mx = np.array([bx.mean() for bx, _ in blocks])
    my = np.array([by.mean() for _, by in blocks])
    sxx = np.array([((bx - bx.mean()) ** 2).sum() for bx, _ in blocks])
    sxy = np.array([(bx - bx.mean()) @ (by - by.mean()) for bx, by in blocks])
    syy = np.array([((by - by.mean()) ** 2).sum() for _, by in blocks])
    k = cnt.size
    out = np.full((k + 1, k + 1), np.inf)
    n, ax, ay, axx, axy, ayy = cnt, mx, my, sxx, sxy, syy
    for t in range(k):
        # entry a now spans blocks a..a+t, that is [bounds[a], bounds[a+t+1])
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = np.where(axx > 0.0, axy * axy / axx, 0.0)
        out[np.arange(k - t), np.arange(t + 1, k + 1)] = np.maximum(ayy - fit, 0.0)
        nb, dx, dy = cnt[t + 1:], mx[t + 1:] - ax[:-1], my[t + 1:] - ay[:-1]
        na = n[:-1]
        n = na + nb
        w = na * nb / n
        ax, ay = ax[:-1] + dx * nb / n, ay[:-1] + dy * nb / n
        axx = axx[:-1] + sxx[t + 1:] + dx * dx * w
        axy = axy[:-1] + sxy[t + 1:] + dx * dy * w
        ayy = ayy[:-1] + syy[t + 1:] + dy * dy * w
    return out


def _two_pass_search(ccdf):
    """The crossover search of `estimate`, scored with two-pass SSRs: (i, j)."""
    x = ccdf.incomes[::-1]
    lnp = np.log(ccdf.p[::-1])
    n = x.size
    idx = _candidate_indices(n, MIN_SEGMENT)
    bounds = np.concatenate([[0], idx, [n]])
    lin = _segment_ssr(x, lnp, bounds)
    loglog = _segment_ssr(np.log(x), lnp, bounds)
    at = np.arange(1, idx.size + 1)  # where the candidates sit in bounds
    total = lin[0, at][:, None] + loglog[at[:, None], at[None, :]] + loglog[at, -1][None, :]
    total[idx[None, :] - idx[:, None] < MIN_SEGMENT] = np.inf
    flat = int(np.argmin(total))
    return int(idx[flat // idx.size]), int(idx[flat % idx.size])


@pytest.fixture(scope="module", params=[0.2, 0.3])
def heavy_tail_ccdf(request, params08):
    # the 2008 shape with a Zipf-like tail: the mean of raw incomes sits
    # near 1e16 (alpha1 = 0.2), far above every exponential-segment income
    params = normalize(replace(params08, alpha1=request.param, c_lo=None, c_hi=None))
    return rank_ccdf(sample_incomes(params, 100_000, seed=3))


def test_heavy_tail_crossovers_match_two_pass_search(heavy_tail_ccdf):
    i, j = _two_pass_search(heavy_tail_ccdf)
    x = heavy_tail_ccdf.incomes[::-1]
    assert detect_crossovers(heavy_tail_ccdf) == (x[i], x[j])


def test_heavy_tail_segment_fits_match_two_pass_ols(heavy_tail_ccdf):
    i, j = _two_pass_search(heavy_tail_ccdf)
    x = heavy_tail_ccdf.incomes[::-1]
    lnx, lnp = np.log(x), np.log(heavy_tail_ccdf.p[::-1])
    report = fit_full(heavy_tail_ccdf, 0.01)
    assert report.T_bg == pytest.approx(-1.0 / _ols_slope(x[:i], lnp[:i]), rel=1e-9)
    assert report.alpha_fit == pytest.approx(-_ols_slope(lnx[i:j], lnp[i:j]), rel=1e-9)
    assert report.alpha1_fit == pytest.approx(-_ols_slope(lnx[j:], lnp[j:]), rel=1e-9)


def test_segment_fit_keeps_ties_where_the_search_put_them(params08):
    # incomes rounded to 100: several equal m0_hat, some of them below the
    # search's break index; the fit must read the segment the search scored
    incomes = np.round(sample_incomes(params08, 100_000, seed=4242) / 100.0) * 100.0
    ccdf = rank_ccdf(incomes[incomes > 0.0])
    i, j = _two_pass_search(ccdf)
    x = ccdf.incomes[::-1]
    report = fit_full(ccdf, 0.01)
    assert (report.m0_hat, report.m1_hat) == (x[i], x[j])
    assert x[i - 1] == report.m0_hat
    lnx, lnp = np.log(x), np.log(ccdf.p[::-1])
    assert report.alpha_fit == pytest.approx(-_ols_slope(lnx[i:j], lnp[i:j]), rel=1e-9)


def test_fit_full_builds_only_the_search_tables(monkeypatch, params08):
    built = []

    class Counted(_PrefixOLS):
        def __init__(self, x, y):
            built.append(x.size)
            super().__init__(x, y)

    def forbidden(*args, **kwargs):
        raise AssertionError("fit_full must read the search's own segment fits")

    monkeypatch.setattr(estimate, "_PrefixOLS", Counted)
    for name in ("fit_temperature", "fit_pareto_exponent", "_window"):
        monkeypatch.setattr(estimate, name, forbidden)
    ccdf = rank_ccdf(sample_incomes(params08, 20_000, seed=5))
    fit_full(ccdf, 0.01)
    assert built == [ccdf.n, ccdf.n]
