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

All integrals are computed after the substitution u = arctan(m/m0), which maps
[m, infinity) onto [arctan(m/m0), pi/2) and turns the density into
m0 * c * exp(-(m0/T') u) * cos(u)^(a'-1), removing both the infinite domain
and the heavy tail.  Next to pi/2 they run in the tail width
w = pi/2 - u = arctan(m0/m), computed directly, so no difference of nearly
equal angles is formed at large incomes, and the cos^(alpha1-1) endpoint
singularity for alpha1 < 1 is absorbed by the further change of variables
v = w^alpha1.  One evaluator sums these integrals over the intervals between
ascending income nodes plus a closing tail integral; normalization, the
scalar CCDF and the CCDF table are all calls to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate, optimize

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
# Width of the band next to pi/2 handled with the singularity-absorbing
# substitution; outside it the integrand is smooth enough for plain quadrature.
_SING_BAND = 0.25
# Relative quadrature tolerance.  Normalization is contracted to 1e-10 and
# tail probabilities to 1e-8; the quadrature runs tighter than both.
_RTOL = 1e-12
_QUANTILE_RTOL = 1e-8
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
        if not (self.A0 >= 0.0 and math.isfinite(self.A0)):
            raise ValueError(f"A0 must be >= 0, got {self.A0}")
        if not (self.A0_hi >= 0.0 and math.isfinite(self.A0_hi)):
            raise ValueError(f"A0_hi must be >= 0, got {self.A0_hi}")
        if not (self.a >= 0.0 and math.isfinite(self.a)):
            raise ValueError(f"a must be >= 0, got {self.a}")
        if not (self.B0 > 0.0 and math.isfinite(self.B0)):
            raise ValueError(f"B0 must be > 0, got {self.B0}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"b must be > 0, got {self.b}")
        if not (self.a_hi > -self.b and math.isfinite(self.a_hi)):
            raise ValueError(
                f"a_hi must exceed -b for an integrable tail, got a_hi={self.a_hi}, b={self.b}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {"A0": self.A0, "a": self.a, "A0_hi": self.A0_hi,
             "a_hi": self.a_hi, "B0": self.B0, "b": self.b},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LangevinCoeffs":
        obj = json.loads(text)
        return cls(A0=float(obj["A0"]), a=float(obj["a"]),
                   A0_hi=float(obj["A0_hi"]), a_hi=float(obj["a_hi"]),
                   B0=float(obj["B0"]), b=float(obj["b"]))


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


def _regular_integral(k: float, alpha: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0

    def f(u: float) -> float:
        return math.exp(-k * u) * math.cos(u) ** (alpha - 1.0)

    val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=_RTOL, limit=300)
    return val


def _endpoint_integral(k: float, alpha: float, w_lo: float, w_hi: float) -> float:
    """Integral of exp(-k u) cos(u)^(alpha-1) over [pi/2 - w_hi, pi/2 - w_lo].

    Substituting w = pi/2 - u and then v = w^alpha gives a smooth integrand
    even for 0 < alpha < 1, where cos(u)^(alpha-1) diverges at pi/2, and the
    limits keep full relative precision however close to pi/2 they lie.
    """
    if w_hi <= w_lo:
        return 0.0
    inv = 1.0 / alpha

    def g(v: float) -> float:
        w = v**inv
        sinc = math.sin(w) / w if w > 0.0 else 1.0
        # keep exp(-k pi/2) inside the exponent: the split product overflows
        # once k * width exceeds ~709 even though the integrand itself is tiny
        return inv * math.exp(k * (w - _HALF_PI)) * sinc ** (alpha - 1.0)

    val, _ = integrate.quad(g, w_lo**alpha, w_hi**alpha, epsabs=0.0, epsrel=_RTOL, limit=300)
    return val


def _ccdf_nodes(params: ModelParams, ms, c_lo: float, c_hi: float) -> np.ndarray:
    """Tail mass above each of the ascending incomes ms for branch constants c_lo, c_hi.

    One quadrature per interval between consecutive nodes, summed from the
    top, plus one closing integral from the last node to infinity.  m1 is a
    node whenever it lies inside the range, so no interval straddles the
    branch switch and the closing integral always lies on the upper branch.
    Near pi/2 the integrals run in the width w = pi/2 - u = arctan(m0/m),
    computed directly rather than as a difference of nearly equal angles.
    """
    ms = np.asarray(ms, dtype=float)
    nodes = np.union1d(ms, [params.m1]) if ms[0] < params.m1 else ms
    us = np.arctan(nodes / params.m0)
    ws = np.arctan2(params.m0, nodes)
    k_lo = params.m0 / params.T
    k_hi = params.m0 / params.T1
    band = min(ws[-1], _SING_BAND)
    closing = _endpoint_integral(k_hi, params.alpha1, 0.0, band) + _regular_integral(
        k_hi, params.alpha1, _HALF_PI - ws[-1], _HALF_PI - band
    )
    tail = np.empty(nodes.size)
    tail[-1] = c_hi * closing
    for i in range(nodes.size - 2, -1, -1):
        c, k, alpha = ((c_hi, k_hi, params.alpha1) if nodes[i] >= params.m1
                       else (c_lo, k_lo, params.alpha))
        if ws[i] <= _SING_BAND:
            piece = _endpoint_integral(k, alpha, ws[i + 1], ws[i])
        else:
            piece = _regular_integral(k, alpha, us[i], us[i + 1])
        tail[i] = tail[i + 1] + c * piece
    return params.m0 * tail[np.searchsorted(nodes, ms)]


def normalize(params: ModelParams) -> ModelParams:
    """Return a copy with c_lo, c_hi set so the density integrates to one.

    Raises TailDivergenceError when alpha1 <= 0: the substituted integrand
    cos(u)^(alpha1 - 1) then fails to be integrable at pi/2, i.e. the raw
    tail carries infinite probability mass.
    """
    if params.alpha1 <= 0.0:
        raise TailDivergenceError(
            f"tail mass diverges for alpha1 <= 0 (got alpha1={params.alpha1})"
        )
    ratio = continuity_ratio(params)
    raw = float(_ccdf_nodes(params, [params.m_init], 1.0, ratio)[0])
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
    """
    _require_normalized(params)
    arr = np.asarray(m, dtype=float)
    if np.any(arr < params.m_init):
        raise ValueError("m must be >= m_init")
    x = arr / params.m0
    u = np.arctan(x)
    x2 = 1.0 + x * x
    lower = params.c_lo * np.exp(-(params.m0 / params.T) * u) * x2 ** (
        -(params.alpha + 1.0) / 2.0
    )
    upper = params.c_hi * np.exp(-(params.m0 / params.T1) * u) * x2 ** (
        -(params.alpha1 + 1.0) / 2.0
    )
    out = np.where(arr < params.m1, lower, upper)
    return float(out) if arr.ndim == 0 else out


def ccdf_eval(params: ModelParams, m: float) -> float:
    """Tail probability P(income > m), by quadrature in the arctan variable."""
    _require_normalized(params)
    if m < params.m_init:
        raise ValueError(f"m must be >= m_init, got {m}")
    return float(_ccdf_nodes(params, [m], params.c_lo, params.c_hi)[0])


def ccdf_table(params: ModelParams, m_hi: float, n_grid: int = 2000):
    """CCDF on a log-spaced income grid, by cumulative interval quadrature.

    Returns (ms, Pi) with ms[0] == m_init.  Each grid value is exact up to
    quadrature tolerance (the grid is only a shared set of evaluation points,
    not an approximation scheme); m1 is inserted as a node so no interval
    straddles the branch switch.
    """
    _require_normalized(params)
    if not m_hi > params.m_init:
        raise ValueError("m_hi must exceed m_init")
    ms = np.geomspace(params.m_init, m_hi, n_grid)
    ms[0] = params.m_init
    if params.m_init < params.m1 < m_hi:
        ms = np.unique(np.append(ms, params.m1))
    return ms, _ccdf_nodes(params, ms, params.c_lo, params.c_hi)


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
        log_pi = np.log(grid_pi)
    out = np.interp(np.log(arr), np.log(grid_m), log_pi)
    return np.exp(out)


def _edge(params: ModelParams, p: float, m: float) -> float:
    """The first m * 10**k (k >= 0) where the CCDF is <= p, or the first past _EDGE_CAP."""
    while ccdf_eval(params, m) > p and m < _EDGE_CAP:
        m *= 10.0
    return m


def quantile(params: ModelParams, q: float) -> float:
    """Income level m with P(income <= m) = q, by Brent's method on the CCDF.

    The root is bracketed by decades from m_init + max(T, T1, m0), then
    found to relative tolerance 1e-8 in income.  A quantile beyond ~1e300
    raises ValueError.
    """
    _require_normalized(params)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    target = 1.0 - q
    start = params.m_init + max(params.T, params.T1, params.m0)
    hi = _edge(params, target, start)
    if hi >= _EDGE_CAP and ccdf_eval(params, hi) > target:
        raise ValueError(f"the {q} quantile lies beyond the float range (above {hi:.3g})")
    lo = params.m_init if hi == start else hi / 10.0

    def excess(m: float) -> float:
        # the CCDF is 1 at m_init by normalization; quadrature could round it below
        return (ccdf_eval(params, m) if m > params.m_init else 1.0) - target

    return optimize.brentq(excess, lo, hi, rtol=_QUANTILE_RTOL)


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
    grid_m, grid_pi = ccdf_table(params, _edge(params, p_floor, 10.0 * params.m1), n_grid=4000)
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
