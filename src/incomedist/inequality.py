"""Summary inequality statistics: class fractions, population ratios, Gini, median.

Class membership is defined by the model crossovers: low income on
[m_init, m0), medium on [m0, m1), high on [m1, inf).  Fractions and ratios
come from the analytic model CCDF, never from empirical counts; the Gini
coefficient is the plain pairwise-difference sample statistic (no n/(n-1)
small-sample correction), reported on a 0..100 scale.

No model mean is exposed: for tail exponents alpha1 <= 1 the first and
higher moments diverge, so the median is the only location measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from incomedist.empirics import _incomes_array
from incomedist.model import ModelParams, _Record, quantile

__all__ = [
    "DegenerateClassError",
    "ClassStats",
    "class_fractions",
    "population_ratios",
    "gini",
    "median_income",
    "compute_stats",
]


class DegenerateClassError(ValueError):
    """A class fraction needed as a divisor is zero."""


def class_fractions(params: ModelParams) -> tuple[float, float, float]:
    """Percentages of households in the low/medium/high income classes.

    f_low = 100*(Pi(m_init) - Pi(m0)), f_med = 100*(Pi(m0) - Pi(m1)),
    f_high = 100*Pi(m1), all from the analytic CCDF read off the law's
    quantile ladder, whose one engine pass has the three incomes as rungs
    and is kept on the law (so the median and the quantiles share it), so
    the three telescope to 100*Pi(m_init) = 100 up to quadrature tolerance.
    """
    rungs, tails, _ = params._ladder
    pi_init, pi_0, pi_1 = tails[np.searchsorted(rungs, [params.m_init, params.m0, params.m1])].tolist()
    return (
        100.0 * (pi_init - pi_0),
        100.0 * (pi_0 - pi_1),
        100.0 * pi_1,
    )


def population_ratios(params: ModelParams) -> tuple[float, float]:
    """Relative sizes of adjacent classes: r1 = f_low/f_med, r2 = f_med/f_high.

    Computed from the same fraction values as class_fractions so the
    identities hold exactly in floating point, not just to tolerance.
    """
    f_low, f_med, f_high = class_fractions(params)
    if f_med <= 0.0 or f_high <= 0.0:
        raise DegenerateClassError(
            f"cannot form ratios with f_med={f_med}, f_high={f_high}"
        )
    return f_low / f_med, f_med / f_high


def gini(records) -> float:
    """Sample Gini coefficient on a 0..100 scale.

    G = 100 * sum_ij |x_i - x_j| / (2 n^2 mean), evaluated in O(n log n)
    through the sorted-data identity
    G = 100 * (2 * sum_i i*x_(i) / (n * sum_i x_i) - (n+1)/n).

    Zeros are allowed (a Gini over {0, x} is well defined and equals 50) even
    though survey incomes themselves are strictly positive.
    """
    xs = _incomes_array(records)
    if xs.size == 0:
        raise ValueError("need at least one income")
    if not np.all(np.isfinite(xs)):
        raise ValueError("incomes must be finite")
    if np.any(xs < 0.0):
        raise ValueError("incomes must be non-negative")
    # scale invariant: scaled by an exact power of two, no sum overflows
    xs = np.ldexp(xs, -np.frexp(xs.max())[1])
    total = float(xs.sum())
    if total <= 0.0:
        raise ValueError("mean income is zero; Gini undefined")
    n = xs.size
    xs.sort()
    ranks = np.arange(1, n + 1, dtype=float)
    g = 2.0 * float(ranks @ xs) / (n * total) - (n + 1.0) / n
    return 100.0 * g


def median_income(params: ModelParams) -> float:
    """Median of the model distribution, by quantile inversion."""
    return quantile(params, 0.5)


@dataclass(frozen=True)
class ClassStats(_Record):
    """Bundle of class fractions, ratios, Gini and median for reporting.

    gini is None when no income sample was supplied (fractions, ratios and
    the median are model properties; the Gini is a sample statistic only).
    """

    f_low: float
    f_med: float
    f_high: float
    r1: float
    r2: float
    median: float
    gini: float | None = None

    def __post_init__(self) -> None:
        if abs(self.f_low + self.f_med + self.f_high - 100.0) > 1e-6:
            raise ValueError("class fractions must sum to 100")
        if self.gini is not None and not (0.0 <= self.gini <= 100.0):
            raise ValueError(f"gini out of range: {self.gini}")

    def table(self) -> str:
        rows = [
            ("low-income fraction", f"{self.f_low:.2f} %"),
            ("medium-income fraction", f"{self.f_med:.2f} %"),
            ("high-income fraction", f"{self.f_high:.4f} %"),
            ("r1 (low/medium)", f"{self.r1:.2f}"),
            ("r2 (medium/high)", f"{self.r2:.2f}"),
            ("median income", f"{self.median:.2f}"),
        ]
        if self.gini is not None:
            rows.append(("sample Gini (0-100)", f"{self.gini:.2f}"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def compute_stats(params: ModelParams, incomes=None) -> ClassStats:
    """Assemble ClassStats from model parameters and an optional income sample."""
    f_low, f_med, f_high = class_fractions(params)
    r1, r2 = population_ratios(params)
    g = None if incomes is None else gini(incomes)
    return ClassStats(
        f_low=f_low, f_med=f_med, f_high=f_high,
        r1=r1, r2=r2, median=median_income(params), gini=g,
    )
