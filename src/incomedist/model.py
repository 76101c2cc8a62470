"""Analytic equilibrium income distributions for a threshold drift-diffusion process.

Income evolves by a Langevin equation (Ito convention)

    dm = -A(m) dt + sqrt(2 B(m)) dW,

with drift A(m) linear in m on each side of a threshold income m1 and a shared
diffusion B(m) = B0 + b m^2.  The zero-flux equilibrium density is
P(m) ~ exp(-int A/B) / B, which for these coefficients takes the same
closed form on both sides of the threshold,

    P(m) = c * exp(-(m0/T') * arctan(m/m0)) / (1 + (m/m0)^2)^((a'+1)/2),

with (T', a', c) = (T, alpha, c_lo) below m1 and (T1, alpha1, c_hi) at and
above it.  T = B0/A0 acts as an income temperature, m0 = sqrt(B0/b) marks the
crossover out of the exponential (Boltzmann-Gibbs) bulk, and alpha, alpha1 are
the power-law exponents of the medium- and high-income regimes (weak Pareto
behaviour; alpha1 = 1 is the Zipf case).  The two branches are glued
continuously at m1, and the overall constant is fixed by normalization over
[m_init, infinity), with a reflecting lower bound at m_init > 0.

All integrals are computed in the tail width w = arctan(m0/m), which maps
[m, infinity) onto (0, arctan(m0/m)] and turns the density into
m0 * c * exp(-(m0/T') (pi/2 - w)) * sin(w)^(a'-1), removing both the infinite
domain and the heavy tail; w is computed directly, so no difference of
nearly equal angles is formed at large incomes.  One evaluator integrates
the intervals between ascending income nodes plus a closing interval to
infinity with the fixed 21-point Gauss-Kronrod rule, every piece in one
array pass: pieces are graded geometrically toward w = 0, which keeps the
sin^(alpha1-1) endpoint singularity for alpha1 < 1 outside each of them, and
the last stretch next to w = 0 is a short series.  Normalization, the
scalar CCDF, the CCDF table and the fit's misfit are all calls to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

__all__ = [
    "TailDivergenceError",
    "LangevinCoeffs",
    "ModelParams",
    "ParetoFit",
    "bg_ccdf",
    "pareto_ccdf",
    "continuity_ratio",
    "normalize",
    "pdf_eval",
    "ccdf_eval",
    "ccdf_table",
    "ccdf_eval_many",
    "quantile",
    "sample_incomes",
    "coeffs_to_effective",
    "effective_to_coeffs",
]

_HALF_PI = math.pi / 2.0
# An interval is integrated over at most _DECAY e-folds of exp(k w) down from
# its low-income end: the rest holds under e^-99 of its mass, and the cut
# bounds the piece count when k = m0/T' is large.
_DECAY = 100.0
# Below w = _NEAR0 / max(k, 1) the tail integral is a three-term series,
# exact to rounding there (the next term is below (k w)^3 / 6 relative).
_NEAR0 = 1e-5
# QUADPACK's QK21 pair (Piessens et al. 1983): the 21 Kronrod nodes on
# [-1, 1], and as two columns the Kronrod weights and the Kronrod weights
# minus those of the embedded 10-point Gauss rule (its nodes are the odd
# entries of _XK).
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208980222111, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338, 0.0)
_GK_X = np.concatenate((np.negative(_XK[:-1]), _XK[::-1]))
_GK_W = np.column_stack((_WK, np.subtract(_WK, _WG)))[[*range(10), *range(10, -1, -1)]]
_QUANTILE_RTOL = 1e-8
# A quantile's bracketing pass: incomes m_init + T * _QUANTILE_RUNGS, from
# 1.5e-5 T to 2e8 T, a factor sqrt(2) apart: one pass over 88 rungs costs
# about as much as over one income, and the closer the rungs, the fewer
# Newton steps from the start interpolated between them.
_QUANTILE_RUNGS = 2.0 ** np.arange(-16.0, 28.0, 0.5)
# The sampler's table edge: decades up from 10 m1 in one pass.
_EDGE_DECADES = 24
# Incomes searched for quantiles and table edges stop here: a tail with
# alpha1 of a few hundredths holds mass beyond the float range.
_EDGE_CAP = 1e300


class TailDivergenceError(ValueError):
    """The high-income exponent makes the tail mass non-integrable."""


@dataclass(frozen=True)
class LangevinCoeffs:
    """Coefficients of the threshold Langevin dynamics.

    Drift is A(m) = A0 + a*m below the threshold and A0_hi + a_hi*m at and
    above it; diffusion B(m) = B0 + b*m^2 is shared by both regimes.  a_hi may
    be negative (it is for heavy tails with alpha1 < 1) but must satisfy
    a_hi > -b so the tail stays integrable.
    """

    A0: float
    a: float
    A0_hi: float
    a_hi: float
    B0: float
    b: float

    def __post_init__(self) -> None:
        for name in ("A0", "A0_hi", "a", "B0", "b"):
            v, strict = getattr(self, name), name in ("B0", "b")
            if not ((v > 0.0 if strict else v >= 0.0) and math.isfinite(v)):
                raise ValueError(f"{name} must be {'>' if strict else '>='} 0, got {v}")
        if not (self.a_hi > -self.b and math.isfinite(self.a_hi)):
            raise ValueError(
                f"a_hi must exceed -b for an integrable tail, got a_hi={self.a_hi}, b={self.b}"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LangevinCoeffs":
        obj = json.loads(text)
        return cls(**{f.name: float(obj[f.name]) for f in fields(cls)})


_PARAM_KEYS = ("T", "T1", "alpha", "alpha1", "m0", "m1", "m_init")


@dataclass(frozen=True)
class ModelParams:
    """Effective parameters of the two-branch equilibrium density.

    T and T1 are the income temperatures of the two regimes, alpha and alpha1
    the power-law exponents, m0 the exponential/power-law crossover, m1 the
    medium/high threshold, and m_init > 0 the reflecting lower income bound.
    c_lo and c_hi are the normalization constants of the two branches; they
    are None until :func:`normalize` computes them, and any change to a shape
    parameter invalidates them (use dataclasses.replace with c_lo=c_hi=None,
    then re-normalize).
    """

    T: float
    T1: float
    alpha: float
    alpha1: float
    m0: float
    m1: float
    m_init: float
    c_lo: float | None = None
    c_hi: float | None = None

    def __post_init__(self) -> None:
        for name in ("T", "T1", "m0", "m1", "m_init"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not math.isfinite(self.alpha1):
            raise ValueError(f"alpha1 must be finite, got {self.alpha1}")
        if not (self.m_init < self.m0 <= self.m1):
            raise ValueError(
                f"require 0 < m_init < m0 <= m1, got m_init={self.m_init}, m0={self.m0}, m1={self.m1}"
            )
        if (self.c_lo is None) != (self.c_hi is None):
            raise ValueError("c_lo and c_hi must be set together")
        if self.c_lo is not None and not (self.c_lo > 0.0 and self.c_hi > 0.0):
            raise ValueError("normalization constants must be positive")

    @property
    def is_normalized(self) -> bool:
        return self.c_lo is not None

    def to_json(self) -> str:
        """Flat JSON with the shape parameters only; constants are recomputed on load."""
        return json.dumps({k: getattr(self, k) for k in _PARAM_KEYS}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        """Normalized params from flat JSON or from a fit report's nested `params`."""
        obj = json.loads(text)
        if isinstance(obj, dict) and isinstance(obj.get("params"), dict):
            obj = obj["params"]  # `incomedist fit` output nests the parameters
        missing = [k for k in _PARAM_KEYS if k not in obj]
        if missing:
            raise ValueError(f"parameter JSON missing keys: {missing}")
        params = cls(**{k: float(obj[k]) for k in _PARAM_KEYS})
        return normalize(params)


@dataclass(frozen=True)
class ParetoFit:
    """Weak Pareto law CCDF(m) = (m / m_sp)^(-alpha)."""

    m_sp: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.m_sp > 0.0 and math.isfinite(self.m_sp)):
            raise ValueError(f"m_sp must be positive, got {self.m_sp}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def bg_ccdf(T: float, m_init: float, m):
    """Boltzmann-Gibbs tail probability exp(-(m - m_init)/T).

    Valid in the low-income regime m << m0; T is the income temperature.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"T must be positive, got {T}")
    arr = np.asarray(m, dtype=float)
    if np.any(arr < m_init):
        raise ValueError("m must be >= m_init")
    out = np.exp(-(arr - m_init) / T)
    return float(out) if arr.ndim == 0 else out


def pareto_ccdf(fit: ParetoFit, m):
    """Weak Pareto tail probability (m / m_sp)^(-alpha)."""
    arr = np.asarray(m, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("m must be positive")
    out = (arr / fit.m_sp) ** (-fit.alpha)
    return float(out) if arr.ndim == 0 else out


def continuity_ratio(params: ModelParams) -> float:
    """Ratio c_hi/c_lo that glues the two branches continuously at m1."""
    x1 = params.m1 / params.m0
    u1 = math.atan(x1)
    try:
        ratio = math.exp(params.m0 * (1.0 / params.T1 - 1.0 / params.T) * u1) * (
            1.0 + x1 * x1
        ) ** ((params.alpha1 - params.alpha) / 2.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"continuity ratio c_hi/c_lo {'overflows' if ratio else 'underflows'} at "
            f"m0/T1 = {params.m0 / params.T1:.6g}, m0/T = {params.m0 / params.T:.6g}, "
            f"m1/m0 = {params.m1 / params.m0:.6g}"
        )
    return ratio


def _split(n):
    """Owner interval and rank of every piece when interval i is cut into n[i] pieces."""
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) - (np.cumsum(n) - n)[owner]


def _kronrod(f, lo, hi):
    """K21 integrals of f over the pieces [lo, hi], and their |K21 - G10| estimates."""
    half = 0.5 * (hi - lo)
    kg = f((lo + half)[:, None] + half[:, None] * _GK_X) @ _GK_W
    return half * kg[:, 0], half * np.abs(kg[:, 1])


def _ccdf_nodes(params: ModelParams, ms, c_lo: float, c_hi: float):
    """Tail mass above each of the ascending incomes ms for branch constants c_lo, c_hi.

    Returns the masses and the summed |K21 - G10| estimate of their error,
    in the same units.  The nodes are ms plus m1 where it lies above ms[0],
    so no interval straddles the branch switch, and the last interval runs
    to infinity.  Every interval runs in the tail width w = arctan(m0/m),
    where the density is m0 c exp(k (w - pi/2)) sin(w)^(alpha'-1), k = m0/T'.
    It is cut uniformly into parts with k dw <= 1, and each part is graded
    geometrically, a factor of at most 2 in w per piece, so every piece
    lies at least its own width away from the sin^(alpha'-1) singularity at
    w = 0.  Each piece gets one K21 rule, all in one array pass; the pieces
    are summed per interval and the intervals from the top.  The last
    interval's remainder below _NEAR0 / max(k, 1) is a series.
    """
    ms = np.asarray(ms, dtype=float)
    nodes = np.sort(np.concatenate((ms, [params.m1]))) if ms[0] < params.m1 else ms
    upper = nodes >= params.m1
    # no k below 1e-300 moves a digit of exp(k (w - pi/2)), and an underflowed
    # k = 0 would cut its intervals into no parts at all
    k = np.maximum(params.m0 / np.where(upper, params.T1, params.T), 1e-300)
    alpha = np.where(upper, params.alpha1, params.alpha)
    w_hi = np.arctan2(params.m0, nodes)
    k1, a1 = params.m0 / params.T1, params.alpha1  # the last interval's branch
    eps = min(_NEAR0 / max(k1, 1.0), float(w_hi[-1]))
    w_lo = np.maximum(np.concatenate((w_hi[1:], [eps])), w_hi - _DECAY / k)
    n = np.ceil((w_hi - w_lo) * k).astype(int)
    part, rank = _split(n)
    step = (w_hi - w_lo)[part] / n[part]
    w_a = w_lo[part] + step * rank
    w_b = w_a + step
    rungs = np.ceil(np.log2(w_b) - np.log2(w_a)).astype(int)
    piece, rank = _split(rungs)
    hi = np.ldexp(w_b[piece], -rank)
    lo = np.where(rank == rungs[piece] - 1, w_a[piece], 0.5 * hi)
    owner = part[piece]
    kw = k[owner, None]
    pw = alpha[owner, None] - 1.0
    # exp(-k pi/2) stays inside the exponent: split off, exp(k w) would
    # overflow once k w exceeds ~709 even where the integrand itself is tiny
    mass, err = _kronrod(lambda w: np.exp(kw * (w - _HALF_PI)) * np.sin(w) ** pw, lo, hi)
    c = np.where(upper, c_hi, c_lo)
    mass = c * np.bincount(owner, mass, nodes.size)
    # exp(k w) sin(w)^(a-1) = w^(a-1) (1 + k w + (k^2/2 - (a-1)/6) w^2 + ...) on [0, eps]
    mass[-1] += c_hi * math.exp(-k1 * _HALF_PI) * eps**a1 * (
        1.0 / a1 + k1 * eps / (a1 + 1.0) + (0.5 * k1 * k1 - (a1 - 1.0) / 6.0) * eps * eps / (a1 + 2.0)
    )
    tail = np.cumsum(mass[::-1])[::-1]
    err = c @ np.bincount(owner, err, nodes.size)
    return params.m0 * tail[np.searchsorted(nodes, ms)], params.m0 * err


def normalize(params: ModelParams) -> ModelParams:
    """Return a copy with c_lo, c_hi set so the density integrates to one.

    Raises TailDivergenceError when alpha1 <= 0: the substituted integrand
    sin(w)^(alpha1 - 1) then fails to be integrable at w = 0, i.e. the raw
    tail carries infinite probability mass.
    """
    if params.alpha1 <= 0.0:
        raise TailDivergenceError(
            f"tail mass diverges for alpha1 <= 0 (got alpha1={params.alpha1})"
        )
    ratio = continuity_ratio(params)
    tail, _ = _ccdf_nodes(params, [params.m_init], 1.0, ratio)
    raw = float(tail[0])
    if not (raw > 0.0 and math.isfinite(raw)):
        raise ValueError(f"normalization integral is not positive and finite: {raw}")
    return replace(params, c_lo=1.0 / raw, c_hi=ratio / raw)


def _require_normalized(params: ModelParams) -> None:
    if not params.is_normalized:
        raise ValueError("params are not normalized; call normalize() first")


def pdf_eval(params: ModelParams, m):
    """Equilibrium probability density at income m (scalar or array).

    The lower branch applies for m < m1 and the upper branch for m >= m1; the
    analytic continuity ratio makes the two branch formulas agree at m1.
    Each branch takes hypot(1, m/m0), so far-tail incomes do not overflow.
    """
    _require_normalized(params)
    arr = np.asarray(m, dtype=float)
    if np.any(arr < params.m_init):
        raise ValueError("m must be >= m_init")
    out = _density(params, arr)
    return float(out) if arr.ndim == 0 else out


def ccdf_eval(params: ModelParams, m: float) -> float:
    """Tail probability P(income > m), by quadrature in the tail width arctan(m0/m)."""
    _require_normalized(params)
    if m < params.m_init:
        raise ValueError(f"m must be >= m_init, got {m}")
    tail, _ = _ccdf_nodes(params, [m], params.c_lo, params.c_hi)
    return float(tail[0])


def ccdf_table(params: ModelParams, m_hi: float, n_grid: int = 2000):
    """CCDF on a log-spaced income grid, by cumulative interval quadrature.

    Returns (ms, Pi) with ms[0] == m_init.  The grid is only a shared set of
    evaluation points, not an approximation scheme: every interval between
    grid points is integrated with the same K21 rule on graded pieces, all in
    one array pass, so each value is as accurate as a scalar ccdf_eval; m1 is
    inserted as a node so no interval straddles the branch switch.
    """
    _require_normalized(params)
    if not m_hi > params.m_init:
        raise ValueError("m_hi must exceed m_init")
    ms = _table_grid(params.m_init, params.m1, m_hi, n_grid)
    tail, _ = _ccdf_nodes(params, ms, params.c_lo, params.c_hi)
    return ms, tail


def _table_grid(m_init: float, m1: float, m_hi: float, n_grid: int) -> np.ndarray:
    """The ccdf_table nodes: n_grid log-spaced from m_init to m_hi, plus m1 where it lies inside."""
    ms = np.geomspace(m_init, m_hi, n_grid)
    ms[0] = m_init
    return np.unique(np.append(ms, m1)) if m_init < m1 < m_hi else ms


def ccdf_eval_many(params: ModelParams, ms, n_grid: int = 2000) -> np.ndarray:
    """Vectorized CCDF via a shared quadrature grid and log-log interpolation.

    Suitable for bulk evaluation (goodness-of-fit objectives, KS statistics);
    interpolation error on the default grid is far below 1e-4 relative.
    """
    arr = np.asarray(ms, dtype=float)
    if arr.size == 0:
        return np.empty(0)
    if np.any(arr < params.m_init):
        raise ValueError("all incomes must be >= m_init")
    grid_m, grid_pi = ccdf_table(params, float(arr.max()) * (1.0 + 1e-12), n_grid)
    with np.errstate(divide="ignore"):  # a fully underflowed tail is an honest 0
        return np.exp(np.interp(np.log(arr), np.log(grid_m), np.log(grid_pi)))


def _log_ccdf_misfit(ms, log_p, m_init: float, m1: float, n_grid: int):
    """params -> sum over the incomes ms of (log-log interpolated log CCDF - log_p)^2.

    For parameter sets with this m_init and m1 the ccdf_table grid is fixed,
    so the interpolated logs are A v, with v the log CCDF at the nodes and A
    fixed, two entries per row, and the sum is v.G.v - 2 h.v + c, G = A'A
    tridiagonal and h = A' log_p, built here once.  The first node is m_init,
    whose tail mass is the normalization integral, so v = log(tails) -
    log(tails[0]) from one _ccdf_nodes pass with c_lo = 1 and c_hi the
    continuity ratio needs no normalize: a call takes params with or without
    constants and is one engine pass and O(grid) arithmetic.  Its rounding floor is ~1e-16 sum(log_p^2); a tail
    that underflows on the grid, or a zero or infinite integral, gives inf.
    """
    arr = np.asarray(ms, dtype=float)
    if np.any(arr < m_init):
        raise ValueError("all incomes must be >= m_init")
    m_hi = float(arr.max()) * (1.0 + 1e-12)  # as in ccdf_eval_many
    nodes = _table_grid(m_init, m1, m_hi, n_grid)
    x, grid = np.log(arr), np.log(nodes)
    n = grid.size
    j = np.minimum(np.searchsorted(grid, x, side="right") - 1, n - 2)
    t = (x - grid[j]) / (grid[j + 1] - grid[j])  # the weight on node j + 1
    s = 1.0 - t
    diag = np.bincount(j, s * s, n) + np.bincount(j + 1, t * t, n)
    off = np.bincount(j, s * t, n - 1)
    h = np.bincount(j, s * log_p, n) + np.bincount(j + 1, t * log_p, n)
    c = float(log_p @ log_p)

    def misfit(params: ModelParams) -> float:
        tails, _ = _ccdf_nodes(params, nodes, 1.0, continuity_ratio(params))
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.log(tails)
            v -= v[0]
        if not np.all(np.isfinite(v)):
            return math.inf
        return float(v @ (diag * v - 2.0 * h) + 2.0 * (off @ (v[:-1] * v[1:])) + c)

    return misfit


def _bracket(params: ModelParams, p: float, rungs):
    """(lo, Pi(lo), hi, Pi(hi)): hi the first of the ascending rungs whose CCDF is <= p.

    One _ccdf_nodes pass over the rungs, cut after the first at or past
    _EDGE_CAP.  Only when the top rung's CCDF is still above p does one more
    pass run, over decades up from it (repeated products, as m *= 10 gives)
    to the first at or past _EDGE_CAP; if that one is still above p, it is
    hi.  lo is the rung below hi, or m_init, whose CCDF is 1.
    """
    lo, pi_lo = params.m_init, 1.0

    def climb(rungs):
        rungs = rungs[: np.searchsorted(rungs, _EDGE_CAP) + 1]
        return rungs, _ccdf_nodes(params, rungs, params.c_lo, params.c_hi)[0]

    rungs, tails = climb(np.asarray(rungs, dtype=float))
    if tails[-1] > p and rungs[-1] < _EDGE_CAP:
        lo, pi_lo = float(rungs[-1]), float(tails[-1])
        n = math.ceil(math.log10(_EDGE_CAP / rungs[-1])) + 1
        rungs, tails = climb(np.cumprod(np.append(rungs[-1], np.full(n, 10.0)))[1:])
    i = min(int(np.count_nonzero(tails > p)), rungs.size - 1)
    if i:
        lo, pi_lo = float(rungs[i - 1]), float(tails[i - 1])
    return lo, pi_lo, float(rungs[i]), float(tails[i])


def _density(params: ModelParams, m):
    """pdf_eval at incomes m >= m_init, unchecked; the quantile's Newton steps call it too."""
    with np.errstate(over="ignore"):  # m/m0 beyond the float range: the density is 0 there
        x = np.divide(m, params.m0)
    # hypot(1, x) in place of sqrt(1 + x^2), which overflows beyond ~1e154 m0
    u, h = np.arctan(x), np.hypot(1.0, x)
    lower = params.c_lo * np.exp(-(params.m0 / params.T) * u) * h ** -(params.alpha + 1.0)
    upper = params.c_hi * np.exp(-(params.m0 / params.T1) * u) * h ** -(params.alpha1 + 1.0)
    return np.where(np.less(m, params.m1), lower, upper)


def quantile(params: ModelParams, q: float) -> float:
    """Income level m with P(income <= m) = q, by safeguarded Newton steps on the CCDF.

    One CCDF pass over the incomes m_init + T 2**(j/2) brackets the root
    (one more, by decades up to ~1e300, only for a tail beyond them), and
    log-log interpolation between the two bracketing rungs gives the start.
    Each step m += (CCDF(m) - (1 - q)) / P(m), with P the closed-form
    density, costs one CCDF pass; a step that leaves the bracket, or an
    underflowed P, bisects it instead.  The CCDF is convex, so every step
    lands below the root and the steps close in from there.  The root is
    found to relative tolerance 1e-8 in income, in about four passes in all.
    A quantile beyond ~1e300 raises ValueError.
    """
    _require_normalized(params)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    target = 1.0 - q
    if target >= 1.0:  # the CCDF is 1 at m_init by normalization
        return params.m_init
    lo, pi_lo, hi, pi_hi = _bracket(params, target, params.m_init + params.T * _QUANTILE_RUNGS)
    if pi_hi > target:
        raise ValueError(f"the {q} quantile lies beyond the float range (above {hi:.3g})")
    # the start: log-log interpolation between the bracketing rungs
    s = (math.log(pi_lo) - math.log(target)) / (math.log(pi_lo) - math.log(pi_hi)) if pi_hi > 0.0 else 0.5
    m = lo * (hi / lo) ** s
    for _ in range(100):
        excess = float(_ccdf_nodes(params, [m], params.c_lo, params.c_hi)[0][0]) - target
        lo, hi = (m, hi) if excess > 0.0 else (lo, m)
        dens = float(_density(params, m))
        step = excess / dens if dens > 0.0 else math.inf
        if lo <= m + step <= hi and abs(step) <= _QUANTILE_RTOL * m:
            return m + step
        m += step
        if not lo < m < hi:
            # in logs while the bracket is wide: a law whose mass lies
            # decades below T has its roots decades under the first rung
            m = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
            if hi - lo <= _QUANTILE_RTOL * hi:
                return m
    raise RuntimeError(f"the {q} quantile did not converge in 100 steps")


def sample_incomes(params: ModelParams, n: int, seed=None, rng=None) -> np.ndarray:
    """Draw n incomes by quantile inversion on a dense CCDF table.

    The table extends until the tail probability drops below ~1e-3/n, so the
    chance of any draw being clipped at the table edge is negligible.  The
    edge stops at ~1e300: a tail with alpha1 of a few hundredths holds mass
    beyond the float range, and those draws clip to the edge.
    """
    _require_normalized(params)
    if n <= 0:
        raise ValueError("n must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    p_floor = max(1e-12, 1e-3 / n)
    decades = np.cumprod(np.append(10.0 * params.m1, np.full(_EDGE_DECADES - 1, 10.0)))
    grid_m, grid_pi = ccdf_table(params, _bracket(params, p_floor, decades)[2], n_grid=4000)
    log_pi = np.log(grid_pi[::-1])
    log_m = np.log(grid_m[::-1])
    targets = 1.0 - rng.random(n)
    targets = np.clip(targets, grid_pi[-1], 1.0)
    return np.exp(np.interp(np.log(targets), log_pi, log_m))


def coeffs_to_effective(coeffs: LangevinCoeffs, m1: float, m_init: float) -> ModelParams:
    """Map Langevin coefficients to effective distribution parameters.

    T = B0/A0, T1 = B0/A0_hi, alpha = 1 + a/b, alpha1 = 1 + a_hi/b,
    m0 = sqrt(B0/b).  The result is unnormalized.
    """
    if coeffs.A0 <= 0.0 or coeffs.A0_hi <= 0.0:
        raise ValueError("A0 and A0_hi must be positive to define temperatures")
    return ModelParams(
        T=coeffs.B0 / coeffs.A0,
        T1=coeffs.B0 / coeffs.A0_hi,
        alpha=1.0 + coeffs.a / coeffs.b,
        alpha1=1.0 + coeffs.a_hi / coeffs.b,
        m0=math.sqrt(coeffs.B0 / coeffs.b),
        m1=m1,
        m_init=m_init,
    )


def effective_to_coeffs(params: ModelParams) -> LangevinCoeffs:
    """Invert coeffs_to_effective in the gauge b = 1.

    The effective parameters determine the coefficients only up to a common
    time scale, fixed here by b = 1.  Requires alpha >= 1 so the low-branch
    drift slope a = alpha - 1 is non-negative.
    """
    if params.alpha < 1.0:
        raise ValueError("alpha < 1 maps to a negative low-branch drift slope")
    B0 = params.m0 * params.m0
    return LangevinCoeffs(
        A0=B0 / params.T,
        a=params.alpha - 1.0,
        A0_hi=B0 / params.T1,
        a_hi=params.alpha1 - 1.0,
        B0=B0,
        b=1.0,
    )
