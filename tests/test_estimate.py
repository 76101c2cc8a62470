import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incomedist import (
    DegenerateTailWarning,
    EmpiricalCCDF,
    EstimationError,
    RankFit,
    ccdf_eval,
    detect_crossovers,
    fit_full,
    fit_pareto_exponent,
    fit_rank,
    fit_temperature,
    normalize,
    preset_params,
    rank_ccdf,
    refine_temperature,
    sample_incomes,
)
from incomedist import estimate, model
from incomedist.estimate import MIN_SEGMENT, _PrefixOLS, _candidate_indices, _search_segments, _segment_scores

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
    cuts = np.array([0, 3, 10, 200, 250, 299, 300])
    ols = _PrefixOLS(x, y, cuts)
    for (i, j) in [(0, 300), (10, 200), (250, 299), (0, 3)]:
        slope, intercept, ssr = ols.line(*np.searchsorted(cuts, (i, j)))
        ref = np.polyfit(x[i:j], y[i:j], 1)
        assert slope == pytest.approx(ref[0], rel=1e-9)
        assert intercept == pytest.approx(ref[1], rel=1e-9, abs=1e-12)
        resid = y[i:j] - (slope * x[i:j] + intercept)
        assert ssr == pytest.approx(float(resid @ resid), rel=1e-7, abs=1e-12)


def _columns(ols, x, y):
    """The five columns of ols's tables, named as its sums, with x in the table's units."""
    cx, cy = np.ldexp(x - ols.x_shift, -ols.x_exp), y - ols.y_shift
    return [("sx", cx), ("sy", cy), ("sxx", cx * cx), ("sxy", cx * cy), ("syy", cy * cy)]


def _segments(cuts):
    """The index ranges [s, e) between 0 and each positive cut, in order."""
    bounds = np.append(0, cuts[cuts > 0])
    return list(zip(bounds[:-1], bounds[1:]))


def _sums_are_within(ols, x, y, rtol):
    """Whether each of ols's sums lies within rtol * sum |v| over [0, c) of the exact sum, at every cut c.

    The exact sums add the correctly rounded segment sums of math.fsum with
    fsum again: their own error is at most 2^-53 sum |v|.
    """
    positive = ols.cuts > 0
    for name, v in _columns(ols, x, y):
        segments = [math.fsum(v[s:e]) for s, e in _segments(ols.cuts)]
        exact = np.array([math.fsum(segments[: i + 1]) for i in range(len(segments))])
        scale = np.cumsum(np.abs(v))[ols.cuts[positive] - 1]
        if not np.all(np.abs(getattr(ols, name)[positive] - exact) <= rtol * scale):
            return False
    return True


@pytest.mark.parametrize("cuts", [[0, 1000], [0, 5, 17, 400, 995, 1000], [3, 4, 999]])
def test_prefix_ols_sums_at_the_cuts_equal_the_full_tables(cuts):
    # the sums kept at the cuts are running sums of each segment's sum, bit
    # for bit: numpy's reduceat adds a segment's first element to the pairwise
    # sum of the rest, and a cut at 0 sums nothing
    rng = np.random.default_rng(7)
    x = np.sort(rng.lognormal(size=1000))
    y = -x + rng.normal(scale=0.1, size=1000)
    cuts = np.array(cuts)
    ols = _PrefixOLS(x, y, cuts)
    for name, v in _columns(ols, x, y):
        segments = [v[s] + v[s + 1:e].sum() for s, e in _segments(cuts)]
        reference = np.concatenate([np.zeros(int(cuts[0] == 0)), np.cumsum(segments)])
        assert np.array_equal(getattr(ols, name), reference), name
    assert ols.sx.size == cuts.size


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_search_tables_are_accurate_at_every_cut(year):
    # the search's two tables on a preset's 1e5 draws: 9.1e-16 (2008) and
    # 8.6e-16 (2006) of sum |v| off the exact sums at worst; one running sum
    # over all n points was 1.8e-14 and 2.6e-14 off
    ccdf = rank_ccdf(sample_incomes(preset_params(year), 100_000, seed=1000))
    x, lnp = ccdf.incomes[::-1], np.log(ccdf.p[::-1])
    cuts = np.concatenate([[0], _candidate_indices(ccdf.n, MIN_SEGMENT), [ccdf.n]])
    for xs in (x, np.log(x)):
        assert _sums_are_within(_PrefixOLS(xs, lnp, cuts), xs, lnp, 4e-15)


@settings(max_examples=30)
@given(st.integers(30, 3000), st.floats(0.1, 3.0), st.sampled_from([-600, 0, 600]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_prefix_ols_on_monotone_data(n, alpha, scale, log_x, seed):
    # Pareto incomes, heavy-tailed below alpha = 1, at 2^-600, 1 and 2^600,
    # regressed as the search does: the centres are np.median's, bit for bit,
    # and every sum at every cut is within 4e-15 sum |v| of the exact sum
    rng = np.random.default_rng(seed)
    x = np.ldexp(np.sort(rng.pareto(alpha, n)) + 1.0, scale)
    x = np.log(x) if log_x else x
    y = np.log(np.arange(n, 0, -1) / (n + 1.0))
    cuts = np.unique(np.append(rng.integers(0, n, 20), n))
    ols = _PrefixOLS(x, y, cuts)
    assert (ols.x_shift, ols.y_shift) == (np.median(x), np.median(y))
    assert ols.x_exp == np.frexp(max(-x.min(), x.max()))[1]
    assert _sums_are_within(ols, x, y, 4e-15)


@pytest.mark.parametrize("year", ["2008", "2006"])
def test_segment_scores_equal_the_dense_form(year):
    # only the admissible pairs are scored, but the totals are the dense k x k
    # form's bit for bit: every pair through symmetric gathers, masked to inf
    ccdf = rank_ccdf(sample_incomes(preset_params(year), 100_000, seed=1000))
    x, lnp = ccdf.incomes[::-1], np.log(ccdf.p[::-1])
    idx = _candidate_indices(ccdf.n, MIN_SEGMENT)
    k, cuts = idx.size, np.concatenate([[0], idx, [ccdf.n]])
    lin, loglog = _PrefixOLS(x, lnp, cuts), _PrefixOLS(np.log(x), lnp, cuts)
    pos = np.arange(1, k + 1)
    ii, jj = pos[:, None], pos[None, :]
    valid = (idx[None, :] - idx[:, None]) >= MIN_SEGMENT
    ssr2 = np.where(valid, loglog.ssr(np.minimum(ii, jj), np.maximum(ii, jj)), np.inf)
    dense = np.where(valid, lin.ssr(0, ii) + ssr2 + loglog.ssr(jj, k + 1), np.inf)
    assert np.array_equal(_segment_scores(lin, loglog, idx), dense)


def test_fit_full_traced_peak_is_a_few_columns(params08):
    # the search keeps its prefix sums at its ~250 candidate cuts, and the
    # misfit builds its weights in place: the fit's traced peak stays within
    # 8 columns of n doubles (17.4 with full-length prefix tables)
    import tracemalloc

    ccdf = rank_ccdf(sample_incomes(params08, 200_000, seed=3))
    tracemalloc.start()
    try:
        fit_full(ccdf, params08.m_init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * ccdf.n, peak / (8 * ccdf.n)


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
    idx = _candidate_indices(ccdf.n, 5)
    cuts = np.concatenate([[0], idx, [ccdf.n]])
    lin = _PrefixOLS(x, lnp, cuts)
    loglog = _PrefixOLS(lnx, lnp, cuts)
    best = sum(res["ssr_per_segment"])
    rng = np.random.default_rng(1)
    for _ in range(300):
        i, j = sorted(rng.choice(idx, size=2, replace=False))
        if j - i < 5:
            continue
        a, b = np.searchsorted(cuts, (i, j))
        total = float(lin.ssr(0, a) + loglog.ssr(a, b) + loglog.ssr(b, cuts.size - 1))
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
    # criterion 6's draw: the tridiagonal pieces steer Gauss-Newton to the
    # refined (T, m0) that the pieces of an explicit interpolation matrix give
    ccdf = rank_ccdf(sample_incomes(params08, 100_000, seed=4242))
    fast = fit_full(ccdf, params08.m_init)
    monkeypatch.setattr(estimate, "_log_ccdf_misfit", lambda *args: direct_misfit(*args).pieces)
    ref = fit_full(ccdf, params08.m_init)
    assert ref.params.m0 != ref.m0_hat  # the refinement moved
    assert fast.params.T == pytest.approx(ref.params.T, rel=1e-9, abs=0.0)
    assert fast.params.m0 == pytest.approx(ref.params.m0, rel=1e-9, abs=0.0)


def _counted_refine(monkeypatch, ccdf, params):
    """refine_temperature(ccdf, params) with its engine passes and normalize calls counted."""
    counts = {"passes": 0, "normalize": 0}

    def counted(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(model, "_ccdf_nodes", counted("passes", model._ccdf_nodes))
    monkeypatch.setattr(estimate, "normalize", counted("normalize", estimate.normalize))
    return refine_temperature(ccdf, params), counts


def test_refine_makes_at_most_40_engine_passes(monkeypatch, params08):
    # criterion 6's draw, from the fit's own start: the segment values.
    # Nelder-Mead made about 90 passes here, one per evaluation
    ccdf = rank_ccdf(sample_incomes(params08, 100_000, seed=4242))
    report = fit_full(ccdf, params08.m_init)
    start = normalize(replace(report.params, T=report.T_bg, T1=report.T_bg, m0=report.m0_hat))
    refined, counts = _counted_refine(monkeypatch, ccdf, start)
    assert refined == report.params  # the refinement moved, to the fit's result
    assert counts["normalize"] == 1  # the returned point only
    assert counts["passes"] <= 40 + 1  # and normalize's own


def test_refine_makes_one_engine_pass_per_point_it_scores(monkeypatch, params08):
    # criterion 6's draw, from the segment values: the pass that scores a
    # point also gives its J, so the start and each trial point cost one pass
    ccdf = rank_ccdf(sample_incomes(params08, 100_000, seed=4242))
    report = fit_full(ccdf, params08.m_init)
    start = normalize(replace(report.params, T=report.T_bg, T1=report.T_bg, m0=report.m0_hat))
    tails, grams, misfit = [], [], estimate._log_ccdf_misfit

    def recorded(*args):
        log_tails, gram, h = misfit(*args)
        return (lambda params: tails.append((params.T, params.m0)) or log_tails(params),
                lambda x: grams.append(x.ndim) or gram(x), h)

    monkeypatch.setattr(estimate, "_log_ccdf_misfit", recorded)
    refined, counts = _counted_refine(monkeypatch, ccdf, start)
    assert refined == report.params
    # a step takes G J once and G v at its iterate once, and a trial point's
    # score takes G (v_try - v) once
    steps, trials = grams.count(2), grams.count(1) - grams.count(2)
    assert steps >= 2
    assert tails[0] == (start.T, start.m0) and len(set(tails)) == len(tails) == 1 + trials
    assert counts == {"passes": 1 + trials + 1, "normalize": 1}  # and normalize's own


def test_refine_that_returns_its_input_never_normalizes(monkeypatch, params08):
    # a tail of (1e250 / m1)^-3 underflows on the grid at the start, so no
    # score is finite and the input comes back as it was
    light = normalize(replace(params08, alpha1=3.0))
    ccdf = EmpiricalCCDF(incomes=np.array([1e250, params08.m0, 2.0 * params08.m_init]),
                         p=np.array([1e-300, 0.5, 0.9]))
    refined, counts = _counted_refine(monkeypatch, ccdf, light)
    assert refined is light
    assert counts == {"passes": 1, "normalize": 0}


@pytest.mark.parametrize("data", ["draw", "noiseless"])
def test_refine_is_no_worse_than_nelder_mead(params08, ccdf08_noiseless, data):
    # scipy's Nelder-Mead on the same misfit and box, from the same start, as
    # the refinement used before Gauss-Newton: its refined misfit is no lower
    from scipy import optimize

    if data == "draw":  # criterion 6's draw, from the segment values
        ccdf = rank_ccdf(sample_incomes(params08, 100_000, seed=4242))
        report = fit_full(ccdf, params08.m_init)
        start = normalize(replace(report.params, T=report.T_bg, T1=report.T_bg, m0=report.m0_hat))
    else:
        ccdf, start = ccdf08_noiseless, params08
    misfit = direct_misfit(ccdf.incomes, np.log(ccdf.p), start.m_init, start.m1)

    def at(u):
        T = start.T * np.exp(u[0])
        return replace(start, T=T, T1=T, m0=start.m0 * np.exp(u[1]))

    def objective(u):
        return misfit(at(u)) if start.m_init < start.m0 * np.exp(u[1]) <= start.m1 else np.inf

    with np.errstate(invalid="ignore"):  # inf - inf in the simplex where m0 leaves the box
        res = optimize.minimize(objective, x0=(0.0, 0.0), method="Nelder-Mead",
                                bounds=[(0.0, np.log(1.5)), (None, None)],
                                options={"xatol": 1e-4, "initial_simplex": [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]})
    refined = refine_temperature(ccdf, start)
    assert res.fun < misfit(start)  # the reference moved
    assert misfit(refined) <= res.fun


def test_fit_full_report_structure(params08):
    samp = sample_incomes(params08, 30000, seed=77)
    report = fit_full(rank_ccdf(samp), 0.01)
    assert report.m0_hat < report.params.m1
    assert report.T_bg <= report.params.T <= 1.5 * report.T_bg * (1 + 1e-12)
    assert ccdf_eval(report.params, report.params.m_init) == pytest.approx(1.0, abs=1e-12)
    assert report.params.T1 == report.params.T
    assert abs(report.params.alpha / params08.alpha - 1.0) < 0.08
    assert report.alpha_se >= 0.0 and report.alpha1_se >= 0.0
    assert not report.degenerate_tail
    # JSON round trip carries every reported field, and the law only once
    import json
    obj = json.loads(report.to_json())
    assert set(obj) == {"params", "T_bg", "m0_hat", "alpha_se", "alpha1_se", "m0_rel_unc",
                        "m1_rel_unc", "ssr_per_segment", "degenerate_tail"}
    assert obj["T_bg"] == report.T_bg
    assert obj["m0_hat"] == report.m0_hat
    assert len(obj["ssr_per_segment"]) == 3
    assert "alpha" in obj["params"]
    text = report.summary()
    assert "alpha" in text and "m0" in text
    # the record checks its own invariants, on the law it holds
    cold, hot = (replace(report.params, T=f * report.T_bg, T1=f * report.T_bg) for f in (0.5, 2.0))
    off_range = r"^params.T must lie in \[T_bg, 1.5 T_bg\]$"
    for bad, message in ((dict(m0_hat=report.params.m1), "^m0_hat must be below params.m1$"),
                         (dict(m1_rel_unc=-0.1), "^uncertainties must be non-negative$"),
                         (dict(params=cold), off_range), (dict(params=hot), off_range)):
        with pytest.raises(ValueError, match=message):
            replace(report, **bad)


@pytest.mark.filterwarnings("ignore::incomedist.DegenerateTailWarning")
def test_fit_full_deterministic(params08):
    samp = sample_incomes(params08, 5000, seed=3)
    a = fit_full(rank_ccdf(samp), 0.01)
    b = fit_full(rank_ccdf(samp), 0.01)
    assert a.to_json() == b.to_json()


@pytest.mark.filterwarnings("ignore::incomedist.DegenerateTailWarning")
def test_fit_full_scale_covariance(params08):
    # at a power of two the segment values scale exactly, however far from 1
    samp = sample_incomes(params08, 5000, seed=13)
    a = fit_full(rank_ccdf(samp), 0.01)
    for lam in (2.25, 2.0 ** 600, 2.0 ** -600):
        b = fit_full(rank_ccdf(lam * samp), 0.01 * lam)
        if lam != 2.25:
            assert (b.T_bg, b.m0_hat) == (lam * a.T_bg, lam * a.m0_hat)
        assert b.T_bg == pytest.approx(lam * a.T_bg, rel=1e-9)
        assert b.params.T == pytest.approx(lam * a.params.T, rel=1e-3)
        assert b.m0_hat == pytest.approx(lam * a.m0_hat, rel=1e-12)
        assert b.params.m0 == pytest.approx(lam * a.params.m0, rel=1e-3)
        assert b.params.m1 == pytest.approx(lam * a.params.m1, rel=1e-12)
        assert b.params.alpha == pytest.approx(a.params.alpha, rel=1e-9)
        assert b.params.alpha1 == pytest.approx(a.params.alpha1, rel=1e-9)


def test_fit_full_runs_up_to_the_largest_float(params08):
    # no square of a raw income overflows, and the misfit grid's top stays
    # finite when the largest income is the largest float
    samp = sample_incomes(params08, 20_000, seed=3)
    top = np.finfo(float).max
    lam = top / samp.max()
    scaled = samp * lam
    scaled[np.argmax(scaled)] = top
    a = fit_full(rank_ccdf(samp), 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = fit_full(rank_ccdf(scaled), 0.01 * lam)
    assert b.params.T == pytest.approx(lam * a.params.T, rel=1e-3)
    assert b.params.m0 == pytest.approx(lam * a.params.m0, rel=1e-3)
    assert b.params.alpha == pytest.approx(a.params.alpha, rel=1e-9)


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
    params = normalize(replace(params08, alpha1=request.param))
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
    assert report.params.alpha == pytest.approx(-_ols_slope(lnx[i:j], lnp[i:j]), rel=1e-9)
    assert report.params.alpha1 == pytest.approx(-_ols_slope(lnx[j:], lnp[j:]), rel=1e-9)


def test_segment_fit_keeps_ties_where_the_search_put_them(params08):
    # incomes rounded to 100: several equal m0_hat, some of them below the
    # search's break index; the fit must read the segment the search scored
    incomes = np.round(sample_incomes(params08, 100_000, seed=4242) / 100.0) * 100.0
    ccdf = rank_ccdf(incomes[incomes > 0.0])
    i, j = _two_pass_search(ccdf)
    x = ccdf.incomes[::-1]
    report = fit_full(ccdf, 0.01)
    assert (report.m0_hat, report.params.m1) == (x[i], x[j])
    assert x[i - 1] == report.m0_hat
    lnx, lnp = np.log(x), np.log(ccdf.p[::-1])
    assert report.params.alpha == pytest.approx(-_ols_slope(lnx[i:j], lnp[i:j]), rel=1e-9)


def test_fit_full_builds_only_the_search_tables(monkeypatch, params08):
    built = []

    class Counted(_PrefixOLS):
        def __init__(self, x, y, cuts):
            built.append(x.size)
            super().__init__(x, y, cuts)

    def forbidden(*args, **kwargs):
        raise AssertionError("fit_full must read the search's own segment fits")

    monkeypatch.setattr(estimate, "_PrefixOLS", Counted)
    for name in ("fit_temperature", "fit_pareto_exponent", "_window"):
        monkeypatch.setattr(estimate, name, forbidden)
    ccdf = rank_ccdf(sample_incomes(params08, 20_000, seed=5))
    fit_full(ccdf, 0.01)
    assert built == [ccdf.n, ccdf.n]
