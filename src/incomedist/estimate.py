"""Three-step parameter estimation from empirical CCDFs, plus the rank estimator.

Step 1 locates the two crossovers (m0, m1) by a two-change-point grid search:
candidate boundaries are drawn from empirical quantiles and an extra
log-spaced set concentrated in the extreme tail (the high-income class can
hold fewer than 0.5% of records, so a plain quantile grid would never place a
candidate inside it).  For each candidate pair, segment 1 is fit by OLS of
ln p on income (exponential law), segments 2 and 3 by OLS of ln p on ln income
(power laws); the pair minimizing the total SSR wins, ties broken toward
smaller m0, then smaller m1.  Weights are uniform: log-spacing and
per-segment normalizations were tried and measured either inert or unstable
on heavy-tailed rank data.

The SSR optimum is a biased locator for the lower crossover.  The true curve
leaves the exponential regime gradually, so the first boundary settles where
the exponential and power residuals balance, around two thirds of the
generative crossover, with the second boundary about a tenth low.  This is a
property of three-straight-line segmentation itself, not of the search, and
no admissible reweighting moves it: pointwise weights multiply both sides of
the residual comparison equally.  m0_hat is therefore the end of the
strictly-exponential description, not the generative crossover; step 3
re-estimates the crossover.

Step 2 reads the temperature T from segment 1 and the exponents alpha, alpha1
from segments 2 and 3; T1 = T is imposed throughout.  These are the winning
index segments of the search, read from its own prefix tables, so incomes
tied at a break stay in the segment the search scored them in.

Step 3 refines T and m0 jointly by minimizing the log-CCDF misfit of the full
model over all points, with T in [T, 1.5 T] and m0 starting at
m0_hat.  Refining T alone with m0 pinned at the low segment break lets T
absorb the crossover error (on the 2008 wave, T +26% and m0 -39%); refined
together, both land within a few percent.  The search runs in logarithms of
T and m0 relative to their segment values, so it is scale covariant.  alpha,
alpha1 and m1 keep their segment values.  The refinement's table grid is
fixed, so the misfit is a quadratic form in the 800 node log CCDFs, built
once per fit.  The first node's tail mass is the normalization integral, so
trial points need no normalize: an evaluation costs one engine pass over
the nodes and O(grid), not O(points), and only the returned point is
normalized.

Everything is OLS on log plotting positions, not maximum likelihood.  The
residuals of such a fit are partial sums of independent order-statistic
spacings, not independent errors, so the reported slope standard errors sum
the squared residual increments weighted by the running OLS slope weights
(see `_increment_stderr`); the i.i.d. OLS formula would understate them by a
factor of about 10 (alpha1 on the 2008 wave) to 50 (a pure Pareto sample).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from incomedist.empirics import EmpiricalCCDF, _incomes_array
from incomedist.model import (
    ModelParams,
    ParetoFit,
    TailDivergenceError,
    _log_ccdf_misfit,
    normalize,
)

__all__ = [
    "EstimationError",
    "DegenerateTailWarning",
    "ParetoSegmentFit",
    "RankFit",
    "FitReport",
    "detect_crossovers",
    "fit_temperature",
    "fit_pareto_exponent",
    "fit_rank",
    "refine_temperature",
    "fit_full",
]

MIN_SEGMENT = 5


class EstimationError(ValueError):
    """The data cannot support the requested fit."""


class DegenerateTailWarning(UserWarning):
    """The third segment sits at the data edge; no distinct high-income regime."""


@dataclass(frozen=True)
class ParetoSegmentFit:
    """Power-law fit of one CCDF segment with its OLS diagnostics."""

    fit: ParetoFit
    stderr: float
    ssr: float
    n_points: int


@dataclass(frozen=True)
class RankFit:
    """Log-log rank-plot fit: value ~ rank^(-alpha_rank), alpha_pareto = 1/alpha_rank."""

    alpha_rank: float
    alpha_pareto: float
    stderr: float

    def __post_init__(self) -> None:
        if not (self.alpha_rank > 0.0 and self.alpha_pareto > 0.0):
            raise ValueError("rank-fit exponents must be positive")
        if abs(self.alpha_pareto * self.alpha_rank - 1.0) > 1e-9:
            raise ValueError("alpha_pareto must be the reciprocal of alpha_rank")


@dataclass(frozen=True)
class FitReport:
    """Full three-step fit: parameters, per-step diagnostics, uncertainties."""

    params: ModelParams
    T_bg: float
    alpha_fit: float
    alpha_se: float
    alpha1_fit: float
    alpha1_se: float
    m0_hat: float
    m0_rel_unc: float
    m1_hat: float
    m1_rel_unc: float
    ssr_per_segment: tuple[float, float, float]
    refined_T: float
    degenerate_tail: bool = False

    def __post_init__(self) -> None:
        if not (self.m0_hat < self.m1_hat):
            raise ValueError("m0_hat must be below m1_hat")
        if min(self.alpha_se, self.alpha1_se, self.m0_rel_unc, self.m1_rel_unc) < 0.0:
            raise ValueError("uncertainties must be non-negative")
        if not (self.T_bg <= self.refined_T <= 1.5 * self.T_bg * (1 + 1e-12)):
            raise ValueError("refined_T must lie in [T_bg, 1.5 T_bg]")

    def to_json(self) -> str:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["params"] = json.loads(self.params.to_json())  # shape parameters only
        return json.dumps(obj, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"T (segment fit)    {self.T_bg:.6g}",
            f"T (refined)        {self.refined_T:.6g}",
            f"alpha              {self.alpha_fit:.4f} +- {self.alpha_se:.4f}",
            f"alpha1             {self.alpha1_fit:.4f} +- {self.alpha1_se:.4f}",
            f"m0 (segment break) {self.m0_hat:.6g} (+- {100 * self.m0_rel_unc:.1f}%)",
            f"m0 (refined)       {self.params.m0:.6g}",
            f"m1                 {self.m1_hat:.6g} (+- {100 * self.m1_rel_unc:.1f}%)",
            f"SSR per segment    {self.ssr_per_segment[0]:.4g} / "
            f"{self.ssr_per_segment[1]:.4g} / {self.ssr_per_segment[2]:.4g}",
        ]
        if self.degenerate_tail:
            lines.append("WARNING: degenerate third segment at the data edge")
        return "\n".join(lines)


class _PrefixOLS:
    """O(1) OLS over any contiguous index range of a fixed sample.

    Each difference of prefix sums loses digits in proportion to how far the
    table's centre lies from the segment's own values, so the data are
    centred at their medians.  A mean would not do: with alpha1 < 1 the tail
    drags the mean of raw incomes to 1e10 and beyond, where the exponential
    segment's SSR loses every digit (Chan, Golub & LeVeque 1983).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y
        self.x_shift = float(np.median(x))
        self.y_shift = float(np.median(y))
        cx = x - self.x_shift
        cy = y - self.y_shift
        z = np.zeros(1)
        self.sx = np.concatenate([z, np.cumsum(cx)])
        self.sy = np.concatenate([z, np.cumsum(cy)])
        self.sxx = np.concatenate([z, np.cumsum(cx * cx)])
        self.sxy = np.concatenate([z, np.cumsum(cx * cy)])
        self.syy = np.concatenate([z, np.cumsum(cy * cy)])

    def moments(self, i, j):
        """Segment moments (n, var_x, cov, var_y) for [i, j)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            n = j - i
            sx = self.sx[j] - self.sx[i]
            sy = self.sy[j] - self.sy[i]
            var_x = (self.sxx[j] - self.sxx[i]) - sx * sx / n
            cov = (self.sxy[j] - self.sxy[i]) - sx * sy / n
            var_y = (self.syy[j] - self.syy[i]) - sy * sy / n
        return n, var_x, cov, var_y

    def ssr(self, i, j):
        n, var_x, cov, var_y = self.moments(i, j)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = var_y - np.where(var_x > 0.0, cov * cov / var_x, 0.0)
        return np.maximum(out, 0.0)

    def line(self, i: int, j: int) -> tuple[float, float, float]:
        """slope, intercept (original coordinates) and ssr over [i, j), in O(1)."""
        n, var_x, cov, var_y = self.moments(i, j)
        if not (var_x > 0.0):
            raise EstimationError("zero x-variance in regression window")
        slope = float(cov / var_x)
        ssr = max(float(var_y - cov * cov / var_x), 0.0)
        sx = float(self.sx[j] - self.sx[i])
        sy = float(self.sy[j] - self.sy[i])
        intercept = (
            (sy - slope * sx) / n + self.y_shift - slope * self.x_shift
        )
        return slope, intercept, ssr

    def stderr(self, i: int, j: int, slope: float) -> float:
        """Standard error of the slope over [i, j) (see `_increment_stderr`), in O(j - i)."""
        return _increment_stderr(self.x[i:j], self.y[i:j], slope)


def _increment_stderr(x: np.ndarray, y: np.ndarray, slope: float) -> float:
    """Standard error of an OLS slope whose residuals are a random walk in x order.

    In a rank or CCDF regression the residuals are partial sums of independent
    order-statistic spacings (the Renyi representation), not independent
    errors, and the i.i.d. formula understates the slope error by a factor
    of up to about 50.  With slope weights w = (x - mean x) / Sxx (which sum
    to zero), summation by parts gives sum(w r) = -sum(W_j (r_{j+1} - r_j)),
    W the running sum of w, so with independent increments

        se^2 = sum_j W_j^2 (r_{j+1} - r_j)^2.

    The increments are formed as diff(y) - slope * diff(x), so a shift of x
    or y cancels exactly.  On an exact law they, and so the stderr, are
    rounding noise.  At large rank windows the stderr matches the
    QQ-estimator asymptotic alpha * sqrt(2 / k) (Kratz & Resnick 1996).
    """
    dx = x - x.mean()
    weights = np.cumsum(dx[:-1]) / float(dx @ dx)
    steps = np.diff(y) - slope * np.diff(x)
    return math.sqrt(float(np.sum((weights * steps) ** 2)))


def _ascending(ccdf: EmpiricalCCDF) -> tuple[np.ndarray, np.ndarray]:
    # stored richest-first; fits index from poorest to richest
    return ccdf.incomes[::-1].copy(), ccdf.p[::-1].copy()


def _candidate_indices(n: int, min_segment: int) -> np.ndarray:
    lo = min_segment
    hi = n - min_segment
    if hi <= lo:
        raise EstimationError(f"too few points ({n}) for three segments")
    # every 0.5% of the sample
    base = np.arange(lo, hi + 1, max(1, int(round(0.005 * n))))
    # log-spaced survival ranks so the grid can resolve a sub-percent tail class
    tail_counts = np.unique(np.geomspace(min_segment, max(min_segment + 1, 0.02 * n), 48).astype(int))
    tail = n - tail_counts
    idx = np.unique(np.concatenate([base, tail, [lo, hi]]))
    return idx[(idx >= lo) & (idx <= hi)]


def _search_segments(ccdf: EmpiricalCCDF, min_segment: int = MIN_SEGMENT):
    """Grid search over boundary index pairs.

    Returns the optimum, its uncertainty profiles and the three winning lines,
    read from the same two prefix tables that scored them: the slopes and
    SSRs of segments [0, i), [i, j) and [j, n), and the slope standard
    errors of the two power-law segments.
    """
    x, p = _ascending(ccdf)
    n = x.size
    if n < 30:
        raise EstimationError(f"need at least 30 points, got {n}")
    span = x.max() / x.min()
    if span < 1e3:
        raise EstimationError(
            f"need >= 3 decades of income span, got {math.log10(span):.2f}"
        )
    lnp = np.log(p)
    lnx = np.log(x)
    lin = _PrefixOLS(x, lnp)
    loglog = _PrefixOLS(lnx, lnp)

    idx = _candidate_indices(n, min_segment)
    k = idx.size
    ii = idx[:, None].repeat(k, 1)
    jj = idx[None, :].repeat(k, 0)
    valid = (jj - ii) >= min_segment
    ssr1 = lin.ssr(np.zeros_like(idx), idx)[:, None]
    ssr3 = loglog.ssr(idx, np.full_like(idx, n))[None, :]
    ssr2 = np.where(valid, loglog.ssr(np.minimum(ii, jj), np.maximum(ii, jj)), np.inf)
    total = np.where(valid, ssr1 + ssr2 + ssr3, np.inf)

    flat = int(np.argmin(total))  # first minimum: smallest m0, then smallest m1
    i, j = int(idx[flat // k]), int(idx[flat % k])
    best = float(total.flat[flat])
    if not math.isfinite(best):
        raise EstimationError("no admissible segmentation found")

    # profile sets for the +5% SSR uncertainty band
    thresh = 1.05 * best if best > 0.0 else np.inf
    m0_profile = np.min(total, axis=1)
    m1_profile = np.min(total, axis=0)
    m0_set = x[idx[m0_profile <= thresh]]
    m1_set = x[idx[m1_profile <= thresh]]

    degenerate = j >= n - min_segment
    if degenerate:
        warnings.warn(
            "third segment pinned at the data edge; no distinct high-income regime",
            DegenerateTailWarning,
            stacklevel=3,
        )
    (s1, _, r1), (s2, _, r2), (s3, _, r3) = lin.line(0, i), loglog.line(i, j), loglog.line(j, n)
    return {
        "m0": float(x[i]), "m1": float(x[j]),
        "slopes": (s1, s2, s3),
        "ssr": (r1, r2, r3),
        "slope_se": (loglog.stderr(i, j, s2), loglog.stderr(j, n, s3)),
        "m0_rel_unc": float((m0_set.max() - m0_set.min()) / (2.0 * x[i])) if m0_set.size else 0.0,
        "m1_rel_unc": float((m1_set.max() - m1_set.min()) / (2.0 * x[j])) if m1_set.size else 0.0,
        "degenerate": bool(degenerate),
    }


def detect_crossovers(ccdf: EmpiricalCCDF, min_segment: int = MIN_SEGMENT) -> tuple[float, float]:
    """Locate the exponential/power and power/power crossover incomes.

    Pure grid search over empirical candidate boundaries; the degenerate case
    (best third segment glued to the data edge) is reported by warning, with
    m1 returned at the edge candidate.
    """
    res = _search_segments(ccdf, min_segment)
    return res["m0"], res["m1"]


def _window(ccdf: EmpiricalCCDF, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, p = _ascending(ccdf)
    mask = (x >= lo) & (x < hi)
    if np.count_nonzero(mask) < MIN_SEGMENT:
        raise EstimationError(
            f"need >= {MIN_SEGMENT} points in [{lo}, {hi}), got {np.count_nonzero(mask)}"
        )
    return x[mask], p[mask]


def fit_temperature(ccdf: EmpiricalCCDF, m_init: float, m0: float) -> float:
    """Income temperature from the exponential segment: OLS ln p on (m - m_init)."""
    x, p = _window(ccdf, m_init, m0)
    slope, _, _ = _PrefixOLS(x - m_init, np.log(p)).line(0, x.size)
    if slope >= 0.0:
        raise EstimationError("exponential window has non-decaying CCDF")
    return -1.0 / slope


def fit_pareto_exponent(ccdf: EmpiricalCCDF, lo: float, hi: float = math.inf) -> ParetoSegmentFit:
    """Weak Pareto fit over incomes in [lo, hi): OLS ln p on ln m.

    alpha = -slope, m_sp = exp(intercept/alpha); stderr is the slope
    standard error (alpha and the slope differ only in sign), computed from
    the residual increments because CCDF residuals are correlated along the
    rank order (see `_increment_stderr`).  It is rounding noise on an exact
    power law.
    """
    x, p = _window(ccdf, lo, hi)
    ols = _PrefixOLS(np.log(x), np.log(p))
    slope, intercept, ssr = ols.line(0, x.size)
    if slope >= 0.0:
        raise EstimationError("window is not power-law decreasing")
    alpha = -slope
    m_sp = math.exp(intercept / alpha)
    return ParetoSegmentFit(
        fit=ParetoFit(m_sp=m_sp, alpha=alpha),
        stderr=ols.stderr(0, x.size, slope), ssr=ssr, n_points=int(x.size),
    )


def fit_rank(values) -> RankFit:
    """Rank-plot estimator: OLS of ln value on ln rank (richest = rank 1).

    alpha_rank is the slope magnitude; its reciprocal estimates the Pareto
    exponent.  stderr is the standard error of alpha_pareto: the slope error
    from the residual increments along the rank order (see
    `_increment_stderr`), propagated through the reciprocal.
    """
    arr = _incomes_array(values)
    if arr.size < 3:
        raise EstimationError(f"need at least 3 values, got {arr.size}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise EstimationError("values must be positive and finite")
    ordered = np.sort(arr)[::-1]
    ln_rank = np.log(np.arange(1, arr.size + 1, dtype=float))
    ols = _PrefixOLS(ln_rank, np.log(ordered))
    slope, _, _ = ols.line(0, arr.size)
    if slope >= 0.0:
        raise EstimationError("values do not decay with rank; exponent undefined")
    alpha_rank = -slope
    return RankFit(
        alpha_rank=alpha_rank,
        alpha_pareto=1.0 / alpha_rank,
        stderr=ols.stderr(0, arr.size, slope) / (alpha_rank * alpha_rank),
    )


def refine_temperature(ccdf: EmpiricalCCDF, params: ModelParams) -> ModelParams:
    """Global joint refinement of T on [T, 1.5 T] and of the crossover m0.

    Minimizes the summed squared log-CCDF residual of the model over every
    data point, as a tridiagonal quadratic form in the log CCDF on one
    800-node ccdf_table grid (`model._log_ccdf_misfit`, built once per call),
    by Nelder-Mead in (ln T/T_start, ln m0/m0_start), which keeps the search
    covariant under income rescaling; m0 starts at the input value and stays
    inside the model's (m_init, m1].  An evaluation is one engine pass over
    the grid, with the trial point left unnormalized: the misfit divides by
    the tail mass at the first node, m_init.  T1 moves with T whenever the
    input had T1 = T (the imposed equal-temperature convention).  Returns the
    normalized optimum, or the input params unchanged when no improvement is
    found.
    """
    from scipy import optimize  # imported on first use: most commands never fit

    tied = params.T1 == params.T
    misfit = _log_ccdf_misfit(ccdf.incomes, np.log(ccdf.p), params.m_init, params.m1, 800)

    def at(u) -> ModelParams:
        T = params.T * math.exp(u[0])
        return replace(
            params, T=T, T1=(T if tied else params.T1),
            m0=params.m0 * math.exp(u[1]), c_lo=None, c_hi=None,
        )

    def objective(u) -> float:
        if not params.m_init < params.m0 * math.exp(u[1]) <= params.m1:
            return math.inf
        return misfit(at(u))

    base = objective((0.0, 0.0))
    res = optimize.minimize(
        objective, x0=(0.0, 0.0), method="Nelder-Mead",
        bounds=[(0.0, math.log(1.5)), (None, None)],
        options={"xatol": 1e-4, "initial_simplex": [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]},
    )
    if not res.fun < base:
        return params
    return normalize(at(res.x))


def fit_full(ccdf: EmpiricalCCDF, m_init: float) -> FitReport:
    """Run the complete three-step procedure and assemble a FitReport.

    Steps: crossover search, whose winning segments give T/alpha/alpha1
    (T1 = T imposed), model assembly and normalization, then the global
    joint refinement of T and m0.  The segment breaks stay in the report as
    m0_hat and m1_hat.
    """
    res = _search_segments(ccdf)
    m0_hat, m1_hat = res["m0"], res["m1"]
    slope1, slope2, slope3 = res["slopes"]
    if slope1 >= 0.0:
        raise EstimationError("exponential window has non-decaying CCDF")
    if slope2 >= 0.0 or slope3 >= 0.0:
        raise EstimationError("window is not power-law decreasing")
    T_bg, alpha, alpha1 = -1.0 / slope1, -slope2, -slope3
    try:
        params = normalize(ModelParams(
            T=T_bg, T1=T_bg, alpha=alpha, alpha1=alpha1,
            m0=m0_hat, m1=m1_hat, m_init=m_init,
        ))
    except (TailDivergenceError, ValueError) as exc:
        raise EstimationError(f"segment fits give no valid model: {exc}") from exc
    refined = refine_temperature(ccdf, params)
    return FitReport(
        params=refined,
        T_bg=T_bg,
        alpha_fit=alpha, alpha_se=res["slope_se"][0],
        alpha1_fit=alpha1, alpha1_se=res["slope_se"][1],
        m0_hat=m0_hat, m0_rel_unc=res["m0_rel_unc"],
        m1_hat=m1_hat, m1_rel_unc=res["m1_rel_unc"],
        ssr_per_segment=res["ssr"],
        refined_T=refined.T,
        degenerate_tail=res["degenerate"],
    )
