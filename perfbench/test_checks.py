"""Each output check of the benchmark rejects a corrupted output.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import math
import os

import numpy as np
import pytest

import checks
import speed
import tracer
from reference import ReferenceLaw


def _export(sample):
    n = sample.size
    return np.sort(sample)[::-1], np.arange(1, n + 1) / (n + 1.0)


def test_ccdf_export_row_swap_rejected():
    sample = np.random.default_rng(3).exponential(4e4, 1000)
    incomes, p = _export(sample)
    checks.check_ccdf_export(sample, incomes, p)
    swapped = incomes.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    with pytest.raises(checks.CheckError, match="differs from the sorted input"):
        checks.check_ccdf_export(sample, swapped, p)
    with pytest.raises(checks.CheckError, match="p != l/"):
        checks.check_ccdf_export(sample, incomes, p * (1 + 1e-15))


def test_gini_perturbed_rejected():
    sample = np.random.default_rng(4).exponential(1.0, 100_000)
    xs = np.sort(sample)
    n = xs.size
    # the sorted-data identity, computed the way a caller would
    g = 100.0 * (2.0 * float(np.arange(1, n + 1) @ xs) / (n * xs.sum()) - (n + 1.0) / n)
    checks.check_gini(g, sample)
    assert abs(g - 50.0) < 0.5
    with pytest.raises(checks.CheckError):
        checks.check_gini(g * (1 + 1e-6), sample)


def test_shifted_ks_sample_rejected():
    # exponential law, scale 1: F(x) = 1 - exp(-x)
    n = 50_000
    samples = np.random.default_rng(5).exponential(1.0, n)
    grid = np.concatenate([[0.0], np.quantile(samples, np.linspace(0, 1, 500)), [40.0]])
    grid = np.unique(grid)
    cdf = -np.expm1(-grid)
    xs = np.sort(samples)
    F = -np.expm1(-xs)
    ks = float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n)))
    checks.check_ensemble(samples, 0.0, grid, cdf, ks)
    with pytest.raises(checks.CheckError, match="KS to the reference law"):
        checks.check_ensemble(samples + 0.05, 0.0, grid, cdf, ks)
    with pytest.raises(checks.CheckError, match="outside the reference bracket"):
        checks.check_ensemble(samples, 0.0, grid, cdf, ks + 0.01)
    with pytest.raises(checks.CheckError, match="below m_init"):
        checks.check_ensemble(samples, 0.001, grid, cdf, ks)


def test_reference_matches_fifty_digit_constants():
    # the 2008 preset's constants, from a 50-digit quadrature of the model integrals
    ref = ReferenceLaw(T=39.5e3, T1=39.5e3, alpha=2.902, alpha1=0.79, m0=1.40e5, m1=4.00e5, m_init=0.01)
    assert float(ref.c_lo) == pytest.approx(2.864600845852303e-05, rel=1e-14)
    assert float(ref.c_hi) == pytest.approx(2.7614618021610556e-06, rel=1e-14)
    pi0, pi1 = ref.ccdf_many([1.40e5, 4.00e5])
    assert pi0 == pytest.approx(2.140780083799867e-02, rel=1e-14)
    assert pi1 == pytest.approx(1.429816391449484e-03, rel=1e-14)
    assert ref.ccdf(4.00e5) == pi1


def test_reference_heavy_tail_asymptote():
    # far above m1 the tail is c_hi m0^(1+a1) e^{-k pi/2} m^(-a1) / a1 to leading order
    ref = ReferenceLaw(T=39.5e3, T1=39.5e3, alpha=2.902, alpha1=0.2, m0=1.40e5, m1=4.00e5, m_init=0.01)
    m = 1e20
    lead = float(ref.c_hi) * 1.40e5 ** 1.2 * math.exp(-float(ref.k_hi) * math.pi / 2) * m ** -0.2 / 0.2
    assert ref.ccdf(m) == pytest.approx(lead, rel=1e-9)


def test_layer_metrics_cover_benchmark_json():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = tracer.layer_metrics([], since=0.0, rounds=1, quad_calls=0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, "x", 0], ["b", 1.0, 4.0, 0, "x", 0], ["c", 2.0, 3.0, 1, "x", 0],
             ["d", 5.0, 6.0, 0, "x", 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_speed_scales_by_the_probes_around_an_interval():
    clock = speed.Speed("array")
    out, raw, ref = clock.measure(sum, range(1000))
    assert out == 499500
    before, after = clock.probes[-2:]
    assert ref == raw * clock.reference / (0.5 * (before + after))
    # a fresh probe is reused for the next interval, a stale one is retaken
    clock.measure(sum, range(10))
    assert len(clock.probes) == 3
    clock._at -= speed.STALE_S + 1.0
    clock.measure(sum, range(10))
    assert len(clock.probes) == 5
