"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so `pytest -v -s tests/test_acceptance.py` reads as a one-line-per-
criterion report.  Tolerances here are contractual: when a criterion is not
met the test fails and stays failing; it is never loosened to match the code.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from incomedist import (
    EmpiricalCCDF,
    ModelParams,
    SimConfig,
    bg_ccdf,
    ccdf_eval,
    class_fractions,
    effective_to_coeffs,
    fit_full,
    fit_pareto_exponent,
    fit_rank,
    gini,
    ks_distance,
    normalize,
    pdf_eval,
    population_ratios,
    rank_ccdf,
    run_ensemble,
    sample_incomes,
)
from incomedist.presets import REFERENCE_STATS


def _verdict(label: str, ok: bool, detail: str) -> str:
    line = f"{label}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _tail_mass(params: ModelParams, m_lo: float) -> float:
    """CCDF at m_lo by direct income-space quadrature, independent of the
    substituted-variable integrals used inside the model module."""
    big = 1e6 * max(params.m0, params.m1)
    edges = np.geomspace(m_lo, big, 81)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(lambda x: pdf_eval(params, x), a, b,
                                epsabs=0.0, epsrel=1e-12, limit=200)
        total += val
    # beyond the last node the density is a clean power m^-(1+alpha1)
    return total + pdf_eval(params, big) * big / params.alpha1


def test_criterion_1_class_fractions(params06, params08):
    t0 = time.perf_counter()
    parts, ok = [], True
    for year, params in (("2006", params06), ("2008", params08)):
        ref = REFERENCE_STATS[year]
        f_low, f_med, f_high = class_fractions(params)
        d_low = f_low - ref["f_low"]
        d_med = f_med / ref["f_med"] - 1.0
        d_high = f_high / ref["f_high"] - 1.0
        ok &= abs(d_low) <= 0.5 and abs(d_med) <= 0.20 and abs(d_high) <= 0.20
        parts.append(f"{year} f_low {d_low:+.3f}pp f_med {d_med:+.2%} f_high {d_high:+.2%}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    detail = "; ".join(parts) + f" (tol 0.5pp/20%/20%; {elapsed:.2f}s)"
    _verdict("criterion 1 [class fractions]", ok, detail)
    assert ok, detail


def test_criterion_2_population_ratios(params06, params08):
    t0 = time.perf_counter()
    parts, ok = [], True
    for year, params in (("2006", params06), ("2008", params08)):
        ref = REFERENCE_STATS[year]
        r1, r2 = population_ratios(params)
        f_low, f_med, f_high = class_fractions(params)
        d1 = r1 / ref["r1"] - 1.0
        d2 = r2 / ref["r2"] - 1.0
        id1 = abs(r1 / (f_low / f_med) - 1.0)
        id2 = abs(r2 / (f_med / f_high) - 1.0)
        ok &= abs(d1) <= 0.20 and abs(d2) <= 0.20 and id1 <= 1e-9 and id2 <= 1e-9
        parts.append(f"{year} r1 {d1:+.2%} r2 {d2:+.2%} identities {max(id1, id2):.1e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    detail = "; ".join(parts) + f" (tol 20%, identities 1e-9; {elapsed:.2f}s)"
    _verdict("criterion 2 [population ratios]", ok, detail)
    assert ok, detail


def test_criterion_3_rank_estimator_arithmetic():
    t0 = time.perf_counter()
    parts, ok = [], True
    for slope in (1.22, 1.07):
        ranks = np.arange(1, 301, dtype=float)
        rf = fit_rank(2.7e5 * ranks ** (-slope))
        want = 1.0 / slope
        dev = abs(rf.alpha_pareto - want)
        ok &= dev <= 5e-5 and round(rf.alpha_pareto, 4) == round(want, 4)
        parts.append(f"slope {slope} -> alpha {rf.alpha_pareto:.6f} (want {want:.6f})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    detail = "; ".join(parts) + f" (4 significant digits; {elapsed:.2f}s)"
    _verdict("criterion 3 [rank-estimator arithmetic]", ok, detail)
    assert ok, detail


def test_criterion_4_two_method_consistency():
    t0 = time.perf_counter()
    alpha, n, trials = 0.82, 10_000, 100
    hits = 0
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        values = (1.0 - rng.random(n)) ** (-1.0 / alpha)
        seg = fit_pareto_exponent(rank_ccdf(values), 0.5)
        rf = fit_rank(values)
        se = math.hypot(seg.stderr, rf.stderr)
        hits += abs(seg.fit.alpha - rf.alpha_pareto) <= 2.0 * se
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 30.0
    detail = (f"{hits}/{trials} trials agree within 2 combined SEs "
              f"(need >= 95; {elapsed:.1f}s)")
    _verdict("criterion 4 [two-method consistency]", ok, detail)
    assert ok, detail


def test_criterion_5_simulator_matches_equilibrium(params08):
    t0 = time.perf_counter()
    config = SimConfig(
        coeffs=effective_to_coeffs(params08),
        m1=params08.m1, m_init=params08.m_init,
        dt=2e-4, n_steps=20_000, n_paths=100_000, seed=20080101,
    )
    ens = run_ensemble(config, dtype="float32")
    ks = ks_distance(ens.samples, params08)
    elapsed = time.perf_counter() - t0
    ok = ks < 0.02 and elapsed < 60.0
    detail = (f"KS {ks:.4f} (need < 0.02) over {config.n_paths} paths, "
              f"{ens.n_reflections} reflections, {elapsed:.1f}s")
    _verdict("criterion 5 [simulator vs analytic equilibrium]", ok, detail)
    assert ok, detail


def test_criterion_6_round_trip_estimation(params08):
    t0 = time.perf_counter()
    incomes = sample_incomes(params08, 100_000, seed=4242)
    report = fit_full(rank_ccdf(incomes), params08.m_init)
    est = report.params
    checks = [
        ("T", est.T, params08.T, 0.05),
        ("alpha", est.alpha, params08.alpha, 0.05),
        ("alpha1", est.alpha1, params08.alpha1, 0.10),
        ("m0", est.m0, params08.m0, 0.10),
        ("m1", est.m1, params08.m1, 0.10),
    ]
    parts, ok = [], True
    for name, got, want, tol in checks:
        dev = got / want - 1.0
        hit = abs(dev) <= tol
        ok &= hit
        parts.append(f"{name} {dev:+.1%}/{tol:.0%}{'' if hit else ' EXCEEDED'}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    detail = ", ".join(parts) + f" ({elapsed:.1f}s)"
    _verdict("criterion 6 [round-trip estimation]", ok, detail)
    assert ok, detail


def test_criterion_7_limit_laws():
    t0 = time.perf_counter()
    # exponential regime: the full law collapses onto the one-temperature
    # decay well below the first crossover
    p_bg = normalize(ModelParams(T=1e4, T1=1e4, alpha=2.5, alpha1=1.0,
                                 m0=1e5, m1=2e5, m_init=0.01))
    ms = np.geomspace(p_bg.m_init, 0.05 * p_bg.m0, 200)
    model = np.array([ccdf_eval(p_bg, m) for m in ms])
    dev_bg = float(np.max(np.abs(model / bg_ccdf(p_bg.T, p_bg.m_init, ms) - 1.0)))

    # slope regimes: wide separation makes both power windows clean
    p_sl = normalize(ModelParams(T=1e6, T1=1e6, alpha=2.9, alpha1=0.8,
                                 m0=1e4, m1=1e8, m_init=0.01))
    h = 0.01

    def slope(params, m):
        up = math.log(ccdf_eval(params, m * math.exp(h)))
        dn = math.log(ccdf_eval(params, m * math.exp(-h)))
        return (up - dn) / (2.0 * h)

    mid = np.geomspace(10.0 * p_sl.m0, 1000.0 * p_sl.m0, 40)
    dev_mid = max(abs(slope(p_sl, m) / -p_sl.alpha - 1.0) for m in mid)
    tail = np.geomspace(2.0 * p_sl.m1, 100.0 * p_sl.m1, 25)
    dev_tail = max(abs(slope(p_sl, m) / -p_sl.alpha1 - 1.0) for m in tail)

    # one-branch reduction: with matched exponents and temperatures the
    # threshold drops out of the law entirely
    p_a = normalize(ModelParams(T=5e4, T1=5e4, alpha=2.2, alpha1=2.2,
                                m0=9e4, m1=2e5, m_init=0.01))
    p_b = normalize(ModelParams(T=5e4, T1=5e4, alpha=2.2, alpha1=2.2,
                                m0=9e4, m1=3.3e6, m_init=0.01))
    grid = np.geomspace(p_a.m_init, 1e7, 60)
    dev_red = max(abs(ccdf_eval(p_a, m) / ccdf_eval(p_b, m) - 1.0) for m in grid)
    probe = np.geomspace(p_a.m_init, 1e6, 12)
    dev_quad = max(abs(_tail_mass(p_a, m) / ccdf_eval(p_a, m) - 1.0) for m in probe)

    elapsed = time.perf_counter() - t0
    ok = (dev_bg <= 0.02 and dev_mid <= 0.02 and dev_tail <= 0.02
          and dev_red <= 1e-9 and dev_quad <= 1e-9 and elapsed < 5.0)
    detail = (f"exp-regime dev {dev_bg:.3%}, slope dev mid {dev_mid:.3%} / "
              f"tail {dev_tail:.3%} (tol 2%), one-branch reduction {dev_red:.1e} "
              f"and quadrature cross-check {dev_quad:.1e} (tol 1e-9); {elapsed:.1f}s")
    _verdict("criterion 7 [limit laws]", ok, detail)
    assert ok, detail


def test_criterion_8_invariant_suite(params06, params08, ccdf08_noiseless):
    t0 = time.perf_counter()
    norm_dev = max(abs(_tail_mass(p, p.m_init) - 1.0) for p in (params06, params08))

    cont_dev = 0.0
    for p in (params06, params08):
        u1 = math.atan(p.m1 / p.m0)
        alg = 1.0 + (p.m1 / p.m0) ** 2
        low = p.c_lo * math.exp(-p.m0 / p.T * u1) * alg ** (-(1.0 + p.alpha) / 2.0)
        high = p.c_hi * math.exp(-p.m0 / p.T1 * u1) * alg ** (-(1.0 + p.alpha1) / 2.0)
        cont_dev = max(cont_dev, abs(high / low - 1.0),
                       abs(pdf_eval(p, p.m1) / low - 1.0))

    ccdf3 = rank_ccdf([5.0, 1.0, 3.0])
    positions_exact = (np.array_equal(ccdf3.incomes, [5.0, 3.0, 1.0])
                       and np.array_equal(ccdf3.p, [0.25, 0.5, 0.75]))

    gini_equal = gini([7.0] * 1000)
    rng = np.random.default_rng(19)
    gini_expo = gini(rng.exponential(1.0, 1_000_000))

    lam = 137.0
    base = fit_full(ccdf08_noiseless, params08.m_init)
    scaled_in = EmpiricalCCDF(incomes=ccdf08_noiseless.incomes * lam,
                              p=ccdf08_noiseless.p.copy())
    scaled = fit_full(scaled_in, params08.m_init * lam)
    cov_dev = max(
        abs(scaled.T_bg / (lam * base.T_bg) - 1.0),
        abs(scaled.params.T / (lam * base.params.T) - 1.0),
        abs(scaled.m0_hat / (lam * base.m0_hat) - 1.0),
        abs(scaled.params.m1 / (lam * base.params.m1) - 1.0),
        abs(scaled.params.alpha / base.params.alpha - 1.0),
        abs(scaled.params.alpha1 / base.params.alpha1 - 1.0),
    )

    elapsed = time.perf_counter() - t0
    ok = (norm_dev <= 1e-10 and cont_dev <= 1e-12 and positions_exact
          and abs(gini_equal) <= 1e-12 and abs(gini_expo - 50.0) <= 0.5
          and cov_dev <= 1e-9 and elapsed < 30.0)
    detail = (f"normalization dev {norm_dev:.1e} (tol 1e-10), continuity dev "
              f"{cont_dev:.1e}, positions exact {positions_exact}, gini equal "
              f"{gini_equal:.1e}, gini exponential {gini_expo:.3f} (+-0.5 of 50), "
              f"scale covariance dev {cov_dev:.1e} (tol 1e-9); {elapsed:.1f}s")
    _verdict("criterion 8 [invariant suite]", ok, detail)
    assert ok, detail
