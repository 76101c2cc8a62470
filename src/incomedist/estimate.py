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
tied at a break stay in the segment the search scored them in.  The tables
keep their prefix sums only at the candidate boundaries (and at 0 and n),
each a running sum of the pairwise sums between boundaries, so the search
holds a few columns of n doubles, not the ten full-length sums a table per
index would take.

Step 3 refines T and m0 jointly by minimizing the log-CCDF misfit of the full
model over all points, with T in [T, 1.5 T] and m0 starting at
m0_hat.  Refining T alone with m0 pinned at the low segment break lets T
absorb the crossover error (on the 2008 wave, T +26% and m0 -39%); refined
together, both land within a few percent.  The search runs in logarithms of
T and m0 relative to their segment values, so it is scale covariant.  alpha,
alpha1 and m1 keep their segment values.  The refinement's table grid is
fixed, so the misfit is a quadratic form in the 800 node log CCDFs, built
once per fit, and a Gauss-Newton step solves its 2 x 2 normal equations
(Nocedal & Wright, Numerical Optimization, ch. 10).  The first node's tail
mass is the normalization integral, so trial points need no normalize, and
the pass that scores a point also gives its exact Jacobian: a step costs
one engine pass and O(grid), not O(points).

Everything is OLS on log plotting positions, not maximum likelihood.  The
residuals of such a fit are partial sums of independent order-statistic
spacings, not independent errors, so the reported slope standard errors sum
the squared residual increments weighted by the running OLS slope weights
(see `_increment_stderr`); the i.i.d. OLS formula would understate them by a
factor of about 10 (alpha1 on the 2008 wave) to 50 (a pure Pareto sample).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from incomedist.empirics import EmpiricalCCDF, _incomes_array, _positive_finite
from incomedist.model import (
    ModelParams,
    ParetoFit,
    _log_ccdf_misfit,
    _positive,
    _Record,
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
# The refinement takes no trial step whose predicted decrease is below this
# many times eps |v|.|2r|, the rounding scale of its decrease test.  On 22
# fits of 1e5 draws of both presets, the 116 trial steps that predicted 4.7
# times that scale or more were all accepted, each decreasing the misfit by
# 0.89 to 1.05 of its prediction; the 33 that predicted under 3 times it
# changed the misfit by at most 3.5 times it, either way, and 12 passed.
_RESOLVED = 8.0


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
class RankFit(_Record):
    """Log-log rank-plot fit: value ~ rank^(-alpha_rank), alpha_pareto = 1/alpha_rank."""

    alpha_rank: float
    alpha_pareto: float
    stderr: float

    def __post_init__(self) -> None:
        for name in ("alpha_rank", "alpha_pareto"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if abs(self.alpha_pareto * self.alpha_rank - 1.0) > 1e-9:
            raise ValueError("alpha_pareto must be the reciprocal of alpha_rank")


@dataclass(frozen=True)
class FitReport(_Record):
    """Full three-step fit: the law params, plus the diagnostics the law does not hold.

    params has alpha, alpha1 and m1 from the segment fits, T = T1 and m0 refined.
    """

    params: ModelParams
    T_bg: float
    alpha_se: float
    alpha1_se: float
    m0_hat: float
    m0_rel_unc: float
    m1_rel_unc: float
    ssr_per_segment: tuple[float, float, float]
    degenerate_tail: bool = False

    def __post_init__(self) -> None:
        if not (self.m0_hat < self.params.m1):
            raise ValueError("m0_hat must be below params.m1")
        if min(self.alpha_se, self.alpha1_se, self.m0_rel_unc, self.m1_rel_unc) < 0.0:
            raise ValueError("uncertainties must be non-negative")
        if not (self.T_bg <= self.params.T <= 1.5 * self.T_bg * (1 + 1e-12)):
            raise ValueError("params.T must lie in [T_bg, 1.5 T_bg]")

    def summary(self) -> str:
        p = self.params
        lines = [
            f"T (segment fit)    {self.T_bg:.6g}",
            f"T (refined)        {p.T:.6g}",
            f"alpha              {p.alpha:.4f} +- {self.alpha_se:.4f}",
            f"alpha1             {p.alpha1:.4f} +- {self.alpha1_se:.4f}",
            f"m0 (segment break) {self.m0_hat:.6g} (+- {100 * self.m0_rel_unc:.1f}%)",
            f"m0 (refined)       {p.m0:.6g}",
            f"m1                 {p.m1:.6g} (+- {100 * self.m1_rel_unc:.1f}%)",
            f"SSR per segment    {self.ssr_per_segment[0]:.4g} / "
            f"{self.ssr_per_segment[1]:.4g} / {self.ssr_per_segment[2]:.4g}",
        ]
        if self.degenerate_tail:
            lines.append("WARNING: degenerate third segment at the data edge")
        return "\n".join(lines)


class _PrefixOLS:
    """O(1) OLS over the index range between any two of a fixed sample's cuts.

    The five prefix sums are kept only at the cuts, strictly ascending
    indices, so a table over n points holds O(len(cuts)) numbers, and a
    segment is named by two cut positions a < b: it is [cuts[a], cuts[b]).
    Each sum is a running sum of the pairwise sums between consecutive cuts,
    which err like log(n) roundings where a running sum over all n points
    errs like n of them (Higham 1993).  Each difference of prefix sums loses
    digits in proportion to how far the table's centre lies from the
    segment's own values, so the data are centred at their medians, which
    for the monotone x and y every caller passes are the middle elements.  A
    mean would not do: with alpha1 < 1 the tail drags the mean of raw
    incomes to 1e10 and beyond, where the exponential segment's SSR loses
    every digit (Chan, Golub & LeVeque 1983).  The tables measure x in
    2^x_exp, a power of two near its largest magnitude, so that the squares
    of raw incomes neither overflow nor go subnormal at any scale; the
    scaling is exact, and line() returns the slope in x's own units.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, cuts: np.ndarray):
        self.x, self.y, self.cuts = x, y, cuts
        self.x_shift, self.y_shift = _middle(x), _middle(y)
        self.x_exp = int(np.frexp(max(abs(x[0]), abs(x[-1])))[1])  # x monotone: its ends bound it
        cx = x - self.x_shift
        np.ldexp(cx, -self.x_exp, out=cx)
        cy = y - self.y_shift
        self.sxx = self._at_cuts(cx * cx)
        self.sxy = self._at_cuts(cx * cy)
        self.syy = self._at_cuts(cy * cy)
        self.sx = self._at_cuts(cx)
        self.sy = self._at_cuts(cy)

    def _at_cuts(self, v: np.ndarray) -> np.ndarray:
        """Sums of v over [0, c) at each cut c: a running sum of pairwise sums between the cuts."""
        c = self.cuts
        k = int(c[0] == 0)  # a leading cut at 0 sums nothing
        out = np.zeros(c.size)
        np.cumsum(np.add.reduceat(v[: c[-1]], np.append(0, c[k:-1])), out=out[k:])
        return out

    def moments(self, a, b):
        """Segment moments (n, var_x, cov, var_y) between cut positions a and b."""
        with np.errstate(divide="ignore", invalid="ignore"):
            n = self.cuts[b] - self.cuts[a]
            sx = self.sx[b] - self.sx[a]
            sy = self.sy[b] - self.sy[a]
            var_x = (self.sxx[b] - self.sxx[a]) - sx * sx / n
            cov = (self.sxy[b] - self.sxy[a]) - sx * sy / n
            var_y = (self.syy[b] - self.syy[a]) - sy * sy / n
        return n, var_x, cov, var_y

    def ssr(self, a, b):
        n, var_x, cov, var_y = self.moments(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = var_y - np.where(var_x > 0.0, cov * cov / var_x, 0.0)
        return np.maximum(out, 0.0)

    def line(self, a: int, b: int) -> tuple[float, float, float]:
        """slope, intercept (original coordinates) and ssr between cut positions a and b, in O(1)."""
        n, var_x, cov, var_y = self.moments(a, b)
        if not (var_x > 0.0):
            raise EstimationError("zero x-variance in regression window")
        scaled = float(cov / var_x)  # per 2^x_exp of x
        slope = math.ldexp(scaled, -self.x_exp)
        ssr = max(float(var_y - cov * cov / var_x), 0.0)
        sx = float(self.sx[b] - self.sx[a])
        sy = float(self.sy[b] - self.sy[a])
        intercept = (
            (sy - scaled * sx) / n + self.y_shift - slope * self.x_shift
        )
        return slope, intercept, ssr

    def stderr(self, a: int, b: int, slope: float) -> float:
        """Standard error of the slope between cut positions a and b (see `_increment_stderr`)."""
        i, j = self.cuts[a], self.cuts[b]
        return _increment_stderr(self.x[i:j], self.y[i:j], slope)


def _middle(v: np.ndarray) -> float:
    """The median of a monotone v, as np.median computes it: its middle element, or the mean of the two."""
    h = v.size // 2
    return float(v[h]) if v.size % 2 else float((v[h - 1] + v[h]) / 2.0)


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
    # stored richest-first; fits index from poorest to richest.  Views: numpy's
    # log can round a strided view differently, so copy before taking logs.
    return ccdf.incomes[::-1], ccdf.p[::-1]


def _candidate_indices(n: int, min_segment: int) -> np.ndarray:
    """The candidate breaks, ascending, in [min_segment, n - min_segment] for every n >= 30."""
    lo = min_segment
    hi = n - min_segment
    # every 0.5% of the sample
    base = np.arange(lo, hi + 1, max(1, int(round(0.005 * n))))
    # log-spaced survival ranks so the grid can resolve a sub-percent tail class
    tail_counts = np.unique(np.geomspace(min_segment, max(min_segment + 1, 0.02 * n), 48).astype(int))
    tail = n - tail_counts
    return np.unique(np.concatenate([base, tail, [lo, hi]]))


def _segment_scores(lin: _PrefixOLS, loglog: _PrefixOLS, idx: np.ndarray) -> np.ndarray:
    """The three segments' summed SSR for breaks at each pair of the k candidates idx, shape (k, k).

    Entry (r, c) breaks at idx[r] and idx[c], cut positions r + 1 and c + 1
    of both tables; only the pairs at least MIN_SEGMENT points apart, all
    of them with r < c, are scored, in row-major order, and the rest are inf.
    """
    k = idx.size
    pos = np.arange(1, k + 1)
    ssr1, ssr3 = lin.ssr(0, pos), loglog.ssr(pos, k + 1)
    rows, cols = np.nonzero((idx[None, :] - idx[:, None]) >= MIN_SEGMENT)
    total = np.full((k, k), np.inf)
    total[rows, cols] = ssr1[rows] + loglog.ssr(rows + 1, cols + 1) + ssr3[cols]
    return total


def _search_segments(ccdf: EmpiricalCCDF):
    """Grid search over boundary index pairs.

    Returns the breaks m0_hat and m1, and the three winning lines read from
    the same two prefix tables that scored them: the slopes of segments
    [0, i), [i, j) and [j, n).  The rest is named as FitReport's fields:
    the SSRs, the slope standard errors of the two power-law segments, the
    breaks' uncertainty profiles and the degenerate-tail flag.
    """
    x, p = _ascending(ccdf)
    n = x.size
    if n < 30:
        raise EstimationError(f"need at least 30 points, got {n}")
    decades = math.log10(x[-1]) - math.log10(x[0])  # x ascends; its ratio may overflow
    if decades < 3.0:
        raise EstimationError(f"need >= 3 decades of income span, got {decades:.2f}")
    lnp = np.log(p.copy())
    lnx = np.log(x.copy())
    idx = _candidate_indices(n, MIN_SEGMENT)
    k = idx.size
    cuts = np.concatenate([[0], idx, [n]])  # candidate idx[c] is cut position c + 1
    # the linear segment ends at a candidate at the latest: its table leaves
    # out the incomes above, whose magnitude would set its scale (x_exp)
    lin = _PrefixOLS(x[: idx[-1]], lnp[: idx[-1]], cuts[:-1])
    loglog = _PrefixOLS(lnx, lnp, cuts)
    total = _segment_scores(lin, loglog, idx)
    flat = int(np.argmin(total))  # first minimum: smallest m0, then smallest m1
    a, b = flat // k + 1, flat % k + 1
    i, j = int(cuts[a]), int(cuts[b])
    best = float(total.flat[flat])
    if not math.isfinite(best):
        raise EstimationError("no admissible segmentation found")

    # profile sets for the +5% SSR uncertainty band
    thresh = 1.05 * best if best > 0.0 else np.inf
    m0_profile = np.min(total, axis=1)
    m1_profile = np.min(total, axis=0)
    m0_set = x[idx[m0_profile <= thresh]]
    m1_set = x[idx[m1_profile <= thresh]]

    degenerate = j >= n - MIN_SEGMENT
    if degenerate:
        warnings.warn(
            "third segment pinned at the data edge; no distinct high-income regime",
            DegenerateTailWarning,
            stacklevel=3,
        )
    (s1, _, r1), (s2, _, r2), (s3, _, r3) = lin.line(0, a), loglog.line(a, b), loglog.line(b, k + 1)
    return {
        "m0_hat": float(x[i]), "m1": float(x[j]),
        "slopes": (s1, s2, s3),
        "ssr_per_segment": (r1, r2, r3),
        "alpha_se": loglog.stderr(a, b, s2), "alpha1_se": loglog.stderr(b, k + 1, s3),
        "m0_rel_unc": float((m0_set.max() - m0_set.min()) / (2.0 * x[i])),
        "m1_rel_unc": float((m1_set.max() - m1_set.min()) / (2.0 * x[j])),
        "degenerate_tail": bool(degenerate),
    }


def detect_crossovers(ccdf: EmpiricalCCDF) -> tuple[float, float]:
    """Locate the exponential/power and power/power crossover incomes.

    Pure grid search over empirical candidate boundaries; the degenerate case
    (best third segment glued to the data edge) is reported by warning, with
    m1 returned at the edge candidate.
    """
    res = _search_segments(ccdf)
    return res["m0_hat"], res["m1"]


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
    slope, _, _ = _PrefixOLS(x - m_init, np.log(p), np.array([0, x.size])).line(0, 1)
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
    ols = _PrefixOLS(np.log(x), np.log(p), np.array([0, x.size]))
    slope, intercept, ssr = ols.line(0, 1)
    if slope >= 0.0:
        raise EstimationError("window is not power-law decreasing")
    alpha = -slope
    m_sp = math.exp(intercept / alpha)
    return ParetoSegmentFit(
        fit=ParetoFit(m_sp=m_sp, alpha=alpha),
        stderr=ols.stderr(0, 1, slope), ssr=ssr, n_points=int(x.size),
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
    if not _positive_finite(arr):
        raise EstimationError("values must be positive and finite")
    ordered = np.sort(arr)[::-1]
    ln_rank = np.log(np.arange(1, arr.size + 1, dtype=float))
    ols = _PrefixOLS(ln_rank, np.log(ordered), np.array([0, arr.size]))
    slope, _, _ = ols.line(0, 1)
    if slope >= 0.0:
        raise EstimationError("values do not decay with rank; exponent undefined")
    alpha_rank = -slope
    return RankFit(
        alpha_rank=alpha_rank,
        alpha_pareto=1.0 / alpha_rank,
        stderr=ols.stderr(0, 1, slope) / (alpha_rank * alpha_rank),
    )


def refine_temperature(ccdf: EmpiricalCCDF, params: ModelParams) -> ModelParams:
    """Global joint refinement of T on [T, 1.5 T] and of the crossover m0.

    Minimizes the summed squared log-CCDF residual of the model over every
    data point, f = v.G.v - 2 h.v + c in the log CCDF v on one 800-node
    ccdf_table grid (`model._log_ccdf_misfit`, built once per call), by
    projected Gauss-Newton in u = (ln T/T_start, ln m0/m0_start), which is
    covariant under income rescaling.  Each point is scored by one engine
    pass, which also gives the exact J = dv/du.  A step solves
    (J'GJ) d = J'(h - Gv) in the coordinates no bound holds, clips d to the
    box (m0 in (m_init, m1]) and halves it until f falls.  The search
    stops at a step below 1e-9, or at one whose predicted decrease
    d.J'(h - Gv) is below _RESOLVED eps |v|.|2 (Gv - h)|, where the test
    that f fell is rounding noise and would pass or fail by chance.  No
    trial point's constants are derived: v divides by the tail mass at
    m_init.  params must have T1 = T, as fit_full builds it (ValueError),
    and T1 moves with T.  Returns the normalized optimum, or the input
    unchanged when no finite score improves on it.
    """
    if params.T1 != params.T:
        raise ValueError(f"T1 must equal T, got T1 = {params.T1!r} and T = {params.T!r}")
    log_tails, gram, h = _log_ccdf_misfit(ccdf.incomes, np.log(ccdf.p), params.m_init, params.m1)
    lo = np.array([0.0, math.log(params.m_init / params.m0)])
    hi = np.array([math.log(1.5), math.log(params.m1 / params.m0)])

    def at(u) -> ModelParams | None:  # None where m0 leaves (m_init, m1]
        T, m0 = params.T * math.exp(u[0]), min(params.m0 * math.exp(u[1]), params.m1)
        return replace(params, T=T, T1=T, m0=m0) if params.m_init < m0 else None

    u, scored = np.zeros(2), log_tails(params)
    while scored is not None:
        v, J = scored
        r = gram(v) - h  # half the gradient of f in v
        g = -(J.T @ r)
        free = ~(((u <= lo) & (g < 0.0)) | ((u >= hi) & (g > 0.0)))  # bounds the descent presses on
        step = np.zeros(2)
        step[free] = np.linalg.lstsq((J.T @ gram(J))[np.ix_(free, free)], g[free], rcond=None)[0]
        step = np.clip(u + step, lo, hi) - u
        floor = _RESOLVED * np.finfo(float).eps * (np.abs(v) @ np.abs(2.0 * r))
        while np.max(np.abs(step)) >= 1e-9 and g @ step > floor:
            trial = None if (point := at(u + step)) is None else log_tails(point)
            # f(v_trial) - f(v) as dv.(2 r + G dv): no cancellation of f's large digits
            if trial is not None and (trial[0] - v) @ (2.0 * r + gram(trial[0] - v)) < 0.0:
                u, scored = u + step, trial
                break
            step /= 2.0
        else:  # no step left that the misfit resolves
            break
    return normalize(at(u)) if u.any() else params


def fit_full(ccdf: EmpiricalCCDF, m_init: float) -> FitReport:
    """Run the complete three-step procedure and assemble a FitReport.

    Steps: crossover search, whose winning segments give T/alpha/alpha1
    (T1 = T imposed), model assembly and normalization, then the global
    joint refinement of T and m0.  The segment break m0 stays in the report
    as m0_hat.  m_init must be positive and finite (ValueError).
    """
    m_init = _positive("m_init", m_init)
    res = _search_segments(ccdf)
    (slope1, slope2, slope3), m1 = res.pop("slopes"), res.pop("m1")
    if slope1 >= 0.0:
        raise EstimationError("exponential window has non-decaying CCDF")
    if slope2 >= 0.0 or slope3 >= 0.0:
        raise EstimationError("window is not power-law decreasing")
    T_bg, alpha, alpha1 = -1.0 / slope1, -slope2, -slope3
    try:
        params = normalize(ModelParams(
            T=T_bg, T1=T_bg, alpha=alpha, alpha1=alpha1,
            m0=res["m0_hat"], m1=m1, m_init=m_init,
        ))
    except ValueError as exc:  # TailDivergenceError among them
        raise EstimationError(f"segment fits give no valid model: {exc}") from exc
    return FitReport(params=refine_temperature(ccdf, params), T_bg=T_bg, **res)
