"""Output checks, each against an independent computation or a property the
method must have, never against a saved copy of earlier output.

Every check raises `CheckError` with a message naming what failed.
"""

from __future__ import annotations

import math

import numpy as np

from reference import ReferenceLaw, relative_error

# model contracts: normalization and tail probabilities
NORM_RTOL = 1e-10
TAIL_RTOL = 1e-8
# quantile() bisects to 1e-8 relative in income
QUANTILE_RTOL = 1e-8
# ccdf_eval_many interpolates log-log on a shared grid; documented bound
MANY_RTOL = 1e-4
# benchmark Gini against the program's: both are exact up to rounding
GINI_RTOL = 1e-9
# DKW failure probability per KS check
KS_DELTA = 1e-6
# Systematic KS allowance of the reflected Euler scheme at dt = 2e-4 on the
# 2008 law: criterion 5 measures 0.0039 in total at 1e5 paths, DKW noise
# included, so the scheme's own bias is below this.
KS_BIAS = 0.005
# program ks_distance against the reference bracket: interpolation error
KS_REPORT_ATOL = 1e-5

# Recovered-parameter windows, relative deviation (lo, hi) from the
# generating preset: the mean deviation over the seeds measured (README)
# plus about six standard deviations, widened to include zero where the
# estimator is biased, so a mended estimator still passes.
FIT_BOUNDS = {
    ("2008", 100_000): dict(T=(-0.07, 0.07), alpha=(-0.15, 0.15), alpha1=(-0.9, 1.2),
                            m0=(-0.2, 0.25), m1=(-0.5, 0.3)),
    ("2006", 100_000): dict(T=(-0.17, 0.05), alpha=(-0.21, 0.05), alpha1=(-0.9, 1.2),
                            m0=(-0.1, 0.35), m1=(-0.5, 0.2)),
    ("2008", 1_000_000): dict(T=(-0.05, 0.05), alpha=(-0.05, 0.05), alpha1=(-0.2, 0.6),
                              m0=(-0.1, 0.1), m1=(-0.35, 0.1)),
}
FIT_KEYS = ("T", "alpha", "alpha1", "m0", "m1")


class CheckError(Exception):
    """A program output failed its check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_ccdf_export(sample: np.ndarray, incomes: np.ndarray, p: np.ndarray) -> None:
    """The export is the input sorted descending, with p = l/(n+1) exactly."""
    n = sample.size
    require(incomes.shape == (n,) and p.shape == (n,), f"ccdf export has {incomes.size} rows, input {n}")
    bad = np.flatnonzero(incomes != np.sort(sample)[::-1])
    require(bad.size == 0, f"ccdf export row {bad[:1] + 1} differs from the sorted input")
    bad = np.flatnonzero(p != np.arange(1, n + 1) / (n + 1.0))
    require(bad.size == 0, f"ccdf export row {bad[:1] + 1} has p != l/(n+1)")


def gini_reference(sample: np.ndarray) -> float:
    """Sample Gini on 0..100: sum_i (2i - n - 1) x_(i) / (n sum x), exact sums."""
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    weights = 2.0 * np.arange(1, n + 1) - n - 1.0
    return 100.0 * math.fsum((weights * xs).tolist()) / (n * math.fsum(xs.tolist()))


def check_gini(reported: float, sample: np.ndarray) -> None:
    want = gini_reference(sample)
    require(relative_error(reported, want) <= GINI_RTOL, f"gini {reported!r} != reference {want!r}")


def check_fit(year: str, n: int, fitted: dict, T_bg: float, truth: dict) -> dict:
    """Refined T inside [T_bg, 1.5 T_bg] and parameters inside FIT_BOUNDS.

    Returns the relative deviations so the caller can print them.
    """
    T = fitted["T"]
    require(T_bg <= T <= 1.5 * T_bg * (1 + 1e-12), f"refined T {T!r} outside [T_bg, 1.5 T_bg], T_bg {T_bg!r}")
    dev = {k: fitted[k] / truth[k] - 1.0 for k in FIT_KEYS}
    for k, (lo, hi) in FIT_BOUNDS[(year, n)].items():
        require(lo <= dev[k] <= hi, f"{year} n={n}: {k} deviation {dev[k]:+.3f} outside [{lo}, {hi}]")
    return dev


def check_class_stats(stats: dict, ref: ReferenceLaw) -> None:
    """Fractions against the reference law; ratios as exact quotients."""
    pi0, pi1 = ref.ccdf_many([float(ref.m0), float(ref.m1)])
    want = dict(f_low=100.0 * (1.0 - pi0), f_med=100.0 * (pi0 - pi1), f_high=100.0 * pi1)
    for k, v in want.items():
        require(abs(stats[k] - v) <= TAIL_RTOL * v + 1e-12, f"{k} {stats[k]!r} != reference {v!r}")
    require(stats["r1"] == stats["f_low"] / stats["f_med"], "r1 is not f_low/f_med")
    require(stats["r2"] == stats["f_med"] / stats["f_high"], "r2 is not f_med/f_high")
    check_quantile(stats["median"], 0.5, ref)


def check_published(stats: dict, published: dict) -> None:
    """Preset class statistics against the survey values, at the acceptance
    tolerances: f_low within 0.5 points, the rest within 20%."""
    require(abs(stats["f_low"] - published["f_low"]) <= 0.5,
            f"f_low {stats['f_low']:.4f} vs published {published['f_low']}")
    for k in ("f_med", "f_high", "r1", "r2"):
        require(abs(stats[k] / published[k] - 1.0) <= 0.2, f"{k} {stats[k]:.4f} vs published {published[k]}")


def check_quantile(m: float, q: float, ref: ReferenceLaw) -> None:
    """P(income > m) = 1 - q, to the bisection width at m plus the tail contract."""
    got = ref.ccdf(m)
    slack = QUANTILE_RTOL * m * ref.pdf(m) + TAIL_RTOL * (1.0 - q)
    require(abs(got - (1.0 - q)) <= slack, f"quantile({q}) = {m!r} has reference tail {got!r}")


def check_normalization(c_lo: float, c_hi: float, ref: ReferenceLaw) -> None:
    for name, got, want in (("c_lo", c_lo, float(ref.c_lo)), ("c_hi", c_hi, float(ref.c_hi))):
        require(relative_error(got, want) <= NORM_RTOL, f"{name} {got!r} != reference {want!r}")


def check_tail(m: float, got: float, want: float) -> None:
    err = relative_error(got, want)
    require(err <= TAIL_RTOL, f"ccdf({m!r}) = {got!r}, reference {want!r}, relative error {err:.2e}")


def check_grid(grid: np.ndarray, values: np.ndarray, probe_idx, ref_values) -> None:
    """Bulk CCDF: in [0, 1], non-increasing, and close to the reference at probes."""
    require(np.all((values >= 0.0) & (values <= 1.0 + 1e-12)), "bulk ccdf outside [0, 1]")
    require(np.all(np.diff(values) <= 0.0), "bulk ccdf increases")
    for i, want in zip(probe_idx, ref_values):
        err = relative_error(float(values[i]), want)
        require(err <= MANY_RTOL, f"bulk ccdf at {grid[i]!r}: relative error {err:.2e}")


def ks_bracket(samples: np.ndarray, grid: np.ndarray, cdf: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds of sup |F_n - F| from the reference CDF on a grid.

    The lower bound is the largest gap at the grid points.  Between two grid
    points F and F_n are both non-decreasing, so the gap there is at most
    max(F_n(g_{j+1}-) - F(g_j), F(g_{j+1}) - F_n(g_j)); beyond the last point
    it is at most 1 - min(F, F_n) there.
    """
    xs = np.sort(samples)
    n = xs.size
    below = np.searchsorted(xs, grid, side="left") / n   # F_n(g-)
    at = np.searchsorted(xs, grid, side="right") / n     # F_n(g)
    lower = float(max(np.max(np.abs(at - cdf)), np.max(np.abs(below - cdf))))
    cells = np.maximum(below[1:] - cdf[:-1], cdf[1:] - at[:-1])
    upper = float(max(np.max(cells), 1.0 - min(cdf[-1], at[-1]), lower))
    return lower, upper


def ks_bound(n: int) -> float:
    """DKW: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2), plus the scheme's bias."""
    return math.sqrt(math.log(2.0 / KS_DELTA) / (2.0 * n)) + KS_BIAS


def check_ensemble(samples: np.ndarray, m_init: float, grid: np.ndarray, cdf: np.ndarray,
                   reported_ks: float) -> float:
    """Finite samples on [m_init, inf), close to the law, and an honest ks_distance."""
    require(bool(np.all(np.isfinite(samples))), "non-finite sample")
    require(bool(np.all(samples >= m_init)), "sample below m_init")
    lower, upper = ks_bracket(samples, grid, cdf)
    bound = ks_bound(samples.size)
    require(upper <= bound, f"KS to the reference law is up to {upper:.4f}, bound {bound:.4f}")
    require(lower - KS_REPORT_ATOL <= reported_ks <= upper + KS_REPORT_ATOL,
            f"ks_distance {reported_ks!r} outside the reference bracket [{lower:.6f}, {upper:.6f}]")
    return upper
