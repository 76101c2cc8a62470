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
nearly equal angles is formed at large incomes.  A law's incomes run from
m_init to m0 / (the smallest normal float), where w is still normal.  One
evaluator integrates the intervals between ascending income nodes plus a
closing interval to infinity with the fixed 21-point Gauss-Kronrod rule,
every piece in one array pass: pieces are graded geometrically toward
w = 0, which keeps the sin^(alpha1-1) endpoint singularity for alpha1 < 1
outside each of them, and the last stretch next to w = 0 is a short
series.  Normalization, the scalar and the bulk CCDF, the CCDF table, the
fit's misfit and the quantile's bracket (which also gives the class
fractions) are all calls to it, and the quantile's Newton steps run it
between two nodes, without the closing one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property

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
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)  # smallest normal, largest
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
# A law's quantile ladder (ModelParams._ladder): incomes m_init + T *
# _QUANTILE_RUNGS, from 1.5e-5 T to 2.3e8 T, a factor 2^(1/4) apart: one pass
# over 176 rungs costs little more than over one income, and between rungs
# this close the Hermite start is within ~1e-5 of the root, close enough
# for one Newton step to certify the quantile.
_QUANTILE_RUNGS = 2.0 ** np.arange(-16.0, 28.0, 0.25)
# ccdf_eval_many's exact pass takes requests of up to this many distinct
# incomes, and a larger one interpolates on a ccdf_table of this many nodes.
_TABLE_GRID = 2000
_MISFIT_GRID = 800  # the nodes of the fit's misfit grid (_log_ccdf_misfit)
# The sampler's table edge: decades up from 10 m1 in one pass.
_EDGE_DECADES = 24
# The sampler sorts its targets in chunks of this many.  On a 2-core Xeon,
# chunks of 2^12 to 2^15 took 29-32 ms for the sorts and interpolations of
# 1e6 draws, against 82 ms in one whole sort and 85 ms unsorted, and
# 4.4-6.0 ms for 1e5 draws, against 7.3 and 9.7 ms.
_SORT_CHUNK = 8192


class TailDivergenceError(ValueError):
    """The high-income exponent makes the tail mass non-integrable."""


class _Record:
    """Base of the package's records, frozen dataclasses written as flat JSON with sorted keys."""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _real(name: str, v, ok=lambda x: True, rule: str = "finite") -> float:
    """v as a float; a ValueError naming `name` unless v is a finite real (never a bool) that passes ok."""
    try:
        if not isinstance(v, bool) and math.isfinite(v) and ok(v):
            return float(v)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be {rule}, got {v!r}")


def _positive(name: str, v) -> float:
    """v as a float; a ValueError naming `name` unless v is a positive finite real."""
    return _real(name, v, lambda x: x > 0.0, "positive and finite")


def _count(name: str, v, floor: int = 1) -> int:
    """v as an int (2.0 is 2); a ValueError naming `name` unless v is integral, >= floor and no bool."""
    try:  # int() raises for NaN, inf and most of what is no number
        if not isinstance(v, bool) and int(v) == v >= floor:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be >= {floor} and an integer, got {v!r}")


@dataclass(frozen=True)
class LangevinCoeffs(_Record):
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
        for name in ("A0", "A0_hi", "a"):
            value = _real(name, getattr(self, name), lambda x: x >= 0.0, ">= 0 and finite")
            object.__setattr__(self, name, value)
        for name in ("B0", "b"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        object.__setattr__(self, "a_hi", _real("a_hi", self.a_hi, lambda x: x > -self.b,
                                               f"finite and exceed -b = {-self.b} for an integrable tail"))

    @classmethod
    def from_json(cls, text: str) -> "LangevinCoeffs":
        return cls(**_numbers(json.loads(text), _COEFF_KEYS, name="coefficient JSON"))


_COEFF_KEYS = tuple(f.name for f in fields(LangevinCoeffs))


def _numbers(obj, keys, name="JSON") -> dict:
    """`keys` of the JSON object `obj`, unconverted (records check values); a ValueError names a bad key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} is not a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{name} missing keys: {missing}")
    for k in keys:  # a bool is an int to Python, and a string converts; neither is a JSON number
        if isinstance(obj[k], bool) or not isinstance(obj[k], (int, float)):
            raise ValueError(f"{name} key {k!r}: {obj[k]!r} is not a number")
    return {k: obj[k] for k in keys}


@dataclass(frozen=True)
class ModelParams(_Record):
    """Effective parameters of the two-branch equilibrium density.

    T and T1 are the income temperatures of the two regimes, alpha and alpha1
    the power-law exponents, m0 the exponential/power-law crossover, m1 the
    medium/high threshold, and m_init > 0 the reflecting lower income bound.
    These seven fix the law.  Its branch constants c_lo and c_hi follow from
    continuity at m1 and normalization over [m_init, infinity); they are
    derived on first use, so dataclasses.replace gives a new law with its own.
    So is the CCDF ladder that brackets its quantiles.
    """

    T: float
    T1: float
    alpha: float
    alpha1: float
    m0: float
    m1: float
    m_init: float

    def __post_init__(self) -> None:
        for name in ("T", "T1", "alpha", "m0", "m1", "m_init"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        object.__setattr__(self, "alpha1", _real("alpha1", self.alpha1))
        if not (self.m_init < self.m0 <= self.m1):
            raise ValueError(
                f"require 0 < m_init < m0 <= m1, got m_init={self.m_init}, m0={self.m0}, m1={self.m1}"
            )

    @cached_property
    def _constants(self) -> tuple[float, float]:
        """(c_lo, c_hi), from the continuity ratio and one engine pass at m_init; see normalize."""
        if self.alpha1 <= 0.0:  # sin(w)^(alpha1 - 1) is not integrable at w = 0
            raise TailDivergenceError(f"tail mass diverges for alpha1 <= 0 (got alpha1={self.alpha1})")
        ratio = continuity_ratio(self)
        _incomes(self, self.m1, "m1")  # a node of the pass below
        with np.errstate(over="ignore"):  # an integral past the floats is inf, rejected below
            tail, _ = _ccdf_nodes(self, [self.m_init], 1.0, ratio)
        raw = float(tail[0])
        c_lo, c_hi = (1.0 / raw, ratio / raw) if raw > 0.0 else (math.inf, math.inf)
        if not (0.0 < c_lo < math.inf and c_hi < math.inf):  # c_hi may underflow to 0
            raise ValueError(f"normalization integral {raw:.6g} puts c_lo = {c_lo:.6g} or c_hi = {c_hi:.6g} "
                             "out of the float range")
        return c_lo, c_hi

    @cached_property
    def _ladder(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rungs, CCDF, density): m_init, m0, m1 and the incomes m_init + T 2**(j/4), in one engine pass.

        The quantile brackets its roots between two rungs, and m0 and m1 are
        rungs, so no bracket straddles the branch switch; class_fractions
        reads its three incomes off the same pass.
        """
        with np.errstate(over="ignore"):  # _climb clips an inf rung to _top
            incomes = np.concatenate(([self.m_init, self.m0, self.m1], self.m_init + self.T * _QUANTILE_RUNGS))
        return _climb(self, np.unique(incomes))

    @property
    def c_lo(self) -> float:
        return self._constants[0]

    @property
    def c_hi(self) -> float:
        return self._constants[1]

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        """Normalized params from flat JSON (to_json writes the shape only) or a fit report's `params`."""
        obj = json.loads(text)
        if isinstance(obj, dict) and isinstance(obj.get("params"), dict):
            obj = obj["params"]  # `incomedist fit` output nests the parameters
        return normalize(cls(**_numbers(obj, _PARAM_KEYS, name="parameter JSON")))


_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class ParetoFit:
    """Weak Pareto law CCDF(m) = (m / m_sp)^(-alpha)."""

    m_sp: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("m_sp", "alpha"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))


def bg_ccdf(T: float, m_init: float, m):
    """Boltzmann-Gibbs tail probability exp(-(m - m_init)/T).

    Valid in the low-income regime m << m0; T is the income temperature.
    """
    _positive("T", T)
    _positive("m_init", m_init)
    arr = np.asarray(m, dtype=float)
    if not np.all(arr >= m_init):
        raise ValueError("m must be >= m_init")
    out = np.exp(-(arr - m_init) / T)
    return float(out) if arr.ndim == 0 else out


def pareto_ccdf(fit: ParetoFit, m):
    """Weak Pareto tail probability (m / m_sp)^(-alpha)."""
    arr = np.asarray(m, dtype=float)
    if not np.all(arr > 0.0):
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
    """K21 integrals of f over the pieces [lo, hi], and their |K21 - G10| estimates.

    f maps the nodes, shape (pieces, 21), to values of that shape, or to a
    stack of integrands of shape (..., pieces, 21); each is integrated.
    """
    half = 0.5 * (hi - lo)
    kg = f((lo + half)[:, None] + half[:, None] * _GK_X) @ _GK_W
    return half * kg[..., 0], half * np.abs(kg[..., 1])


def _ccdf_nodes(params: ModelParams, ms, c_lo: float, c_hi: float, *, closed: bool = True,
                tied: bool | None = None):
    """Tail mass above each of the ascending incomes ms for branch constants c_lo, c_hi.

    Returns the masses and the summed |K21 - G10| estimate of their error,
    in the same units.  The nodes are ms plus m1 where it lies above ms[0],
    so no interval straddles the branch switch, and the last interval runs
    to infinity.  With closed=False there is no interval to infinity: the
    masses are those up to ms[-1], whose own is 0, and m1 is a node only
    where it lies strictly between ms[0] and ms[-1]; every other interval
    is cut into the same pieces.  Every interval runs in the tail width
    w = arctan(m0/m), where the density is m0 c exp(k (w - pi/2))
    sin(w)^(alpha'-1), k = m0/T'.  It is cut uniformly into parts with
    k dw <= 1, and each part is graded geometrically, a factor of at most 2
    in w per piece, so every piece lies at least its own width away from
    the sin^(alpha'-1) singularity at w = 0.  Each piece gets one K21 rule,
    all in one array pass; the pieces are summed per interval and the
    intervals from the top.  The last interval's remainder below
    _NEAR0 / max(k, 1) is a series.  Every node lies in the law's domain
    (_incomes), so no piece lies below _TINY.

    With tied given, a closed pass for c_hi / c_lo = continuity_ratio(params)
    (the fit's misfit) also returns the derivatives of the masses in
    (ln T, ln m0), shape (len(ms), 2), at fixed c_lo and with T1 moving with
    T where tied, all from the same pieces.  d/d ln k' of exp(k' (w - pi/2))
    is k' (w - pi/2) times it, so the pass integrates that column beside the
    mass (the closing series has its own), and the upper branch adds the
    continuity ratio's closed-form derivatives times its mass.  In ln m0 the
    limits move too, dw/d ln m0 = sin w cos w; the branches meet
    continuously at m1, so those terms telescope to the density at each node
    times sin w cos w.
    """
    ms = np.asarray(ms, dtype=float)
    inside = ms[0] < params.m1 and (closed or params.m1 < ms[-1])
    nodes = np.sort(np.concatenate((ms, [params.m1]))) if inside else ms
    upper = nodes >= params.m1
    # no k below 1e-300 moves a digit of exp(k (w - pi/2)), and an underflowed
    # k = 0 would cut its intervals into no parts at all
    k = np.maximum(params.m0 / np.where(upper, params.T1, params.T), 1e-300)
    alpha = np.where(upper, params.alpha1, params.alpha)
    w_hi = np.arctan2(params.m0, nodes)
    k1, a1 = params.m0 / params.T1, params.alpha1  # the last interval's branch
    # an open pass ends at the last node: its interval has width 0
    eps = min(max(_NEAR0 / max(k1, 1.0), _TINY), float(w_hi[-1])) if closed else float(w_hi[-1])
    w_lo = np.maximum(np.concatenate((w_hi[1:], [eps])), w_hi - _DECAY / k)
    # one part at least, also where k dw underflows to 0; a part of width 0 has no pieces
    n = np.maximum(np.ceil((w_hi - w_lo) * k), 1.0).astype(int)
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
    # every piece lies above eps >= _TINY, where sin(w)^(a-1) <= pi/(2 w) is
    # finite; exp(-k pi/2) stays inside the exponent: split off, exp(k w) would
    # overflow once k w exceeds ~709 even where the integrand itself is tiny
    def integrand(w):
        f = np.exp(kw * (w - _HALF_PI)) * np.sin(w) ** pw
        return f if tied is None else np.stack((f, (w - _HALF_PI) * f))

    mass, err = _kronrod(integrand, lo, hi)
    if tied is not None:
        mass, moment, err = mass[0], mass[1], err[0]
    c = np.where(upper, c_hi, c_lo)
    mass = c * np.bincount(owner, mass, nodes.size)
    err = np.bincount(owner, err, nodes.size)
    if closed:  # series on [0, eps]: exp(k w) sin(w)^(a-1) = w^(a-1) (1 + k w + (k^2/2 - (a-1)/6) w^2 ...)
        lead = c_hi * math.exp(-k1 * _HALF_PI) * eps**a1
        series = lead * (
            1.0 / a1 + k1 * eps / (a1 + 1.0) + (0.5 * k1 * k1 - (a1 - 1.0) / 6.0) * eps * eps / (a1 + 2.0))
        mass[-1] += series
    tail = np.cumsum(mass[::-1])[::-1]
    at = np.searchsorted(nodes, ms)
    if tied is None:
        return params.m0 * tail[at], params.m0 * (c @ err)
    moment = c * np.bincount(owner, moment, nodes.size)
    moment[-1] += lead * eps * (1.0 / (a1 + 1.0) + k1 * eps / (a1 + 2.0)) - _HALF_PI * series
    # the continuity ratio's log m0 (1/T1 - 1/T) atan(x1) + (alpha1 - alpha)/2 log(1 + x1^2), x1 = m1/m0
    k_lo, u1 = params.m0 / params.T, math.atan(params.m1 / params.m0)
    w1 = math.atan2(params.m0, params.m1)
    d_ratio = (0.0 if tied else k_lo * u1,
               (k1 - k_lo) * (u1 - math.sin(w1) * math.cos(w1)) - (a1 - params.alpha) * math.cos(w1) ** 2)
    d_k = np.where(upper[:, None], (-float(tied), 1.0), (-1.0, 1.0))  # d ln k' / d (ln T, ln m0)
    d_mass = (k * moment)[:, None] * d_k + np.where(upper, mass, 0.0)[:, None] * d_ratio
    d_tail = np.cumsum(d_mass[::-1], axis=0)[::-1]
    # the factor m0 and the moving limits
    d_tail[:, 1] += tail + c * np.exp(k * (w_hi - _HALF_PI)) * np.sin(w_hi) ** alpha * np.cos(w_hi)
    return params.m0 * tail[at], params.m0 * (c @ err), params.m0 * d_tail[at]


def normalize(params: ModelParams) -> ModelParams:
    """Derive the law's branch constants now and return it.

    A law that cannot be normalized fails here rather than at its first
    evaluation: TailDivergenceError for alpha1 <= 0, where the raw tail
    carries infinite probability mass, and ValueError for an m1 past _top,
    or a continuity ratio, normalization integral or c_hi out of the floats.
    """
    params._constants  # derived once, kept on the law
    return params


def _top(params: ModelParams) -> float:
    """The law's largest income m0 / _TINY, or the largest float: past it arctan(m0/m) is subnormal."""
    return min(float(params.m0) / _TINY, _HUGE)


def _incomes(params: ModelParams, m, name: str = "m") -> np.ndarray:
    """m as a float array, or a ValueError unless it lies in the law's domain [m_init, _top].

    A subnormal tail width carries too few bits for the 1e-8 tail contract.
    """
    arr = np.asarray(m, dtype=float)
    lo, hi = (arr.min(initial=math.inf), arr.max(initial=-math.inf)) if arr.ndim else (float(arr),) * 2
    if not (lo >= params.m_init and hi <= _top(params)):
        raise ValueError(f"{name} must lie in [m_init, m0/tiny] = [{params.m_init:.6g}, {_top(params):.6g}]")
    return arr


def pdf_eval(params: ModelParams, m):
    """Equilibrium probability density at income m (scalar or array).

    The lower branch applies for m < m1 and the upper branch for m >= m1; the
    analytic continuity ratio makes the two branch formulas agree at m1.
    Each branch takes hypot(1, m/m0), so far-tail incomes do not overflow.
    """
    arr = _incomes(params, m)
    out = _density(params, arr)
    return float(out) if arr.ndim == 0 else out


def ccdf_eval(params: ModelParams, m: float) -> float:
    """Tail probability P(income > m), by quadrature in the tail width arctan(m0/m)."""
    tail, _ = _ccdf_nodes(params, _incomes(params, m).reshape(1), params.c_lo, params.c_hi)
    return float(tail[0])


def ccdf_table(params: ModelParams, m_hi: float, n_grid: int = _TABLE_GRID):
    """CCDF on a log-spaced income grid, by cumulative interval quadrature.

    Returns (ms, Pi) on n_grid >= 2 nodes, ms[0] == m_init.  The grid is only
    a shared set of evaluation points, not an approximation scheme: every
    interval between grid points is integrated with the same K21 rule on
    graded pieces, all in one array pass, so each value is as accurate as a
    scalar ccdf_eval; m1 is returned as a node where it lies inside, so
    interpolation on the table has a node at the branch switch.
    """
    _incomes(params, m_hi, "m_hi")
    ms = _table_grid(params.m_init, params.m1, m_hi, _count("n_grid", n_grid, 2))
    tail, _ = _ccdf_nodes(params, ms, params.c_lo, params.c_hi)
    return ms, tail


def _table_grid(m_init: float, m1: float, m_hi: float, n_grid: int) -> np.ndarray:
    """The ccdf_table nodes: n_grid log-spaced from m_init to m_hi, plus m1 where it lies inside."""
    ms = _log_grid(m_init, m_hi, n_grid)
    return np.unique(np.append(ms, m1)) if m_init < m1 < m_hi else ms


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n incomes log-spaced from exactly lo to hi (hi may be the largest float)."""
    with np.errstate(over="ignore"):  # geomspace's power overflows at the largest float before it pins hi
        ms = np.geomspace(lo, hi, n)
    ms[0] = lo  # geomspace endpoint roundoff
    return ms


def ccdf_eval_many(params: ModelParams, ms) -> np.ndarray:
    """CCDF at every income of ms (any shape), which it keeps.

    A request of at most 2000 distinct incomes is exact: one engine pass
    over them, each value as accurate as a scalar ccdf_eval.  A larger one
    (a KS statistic on a large sample) is interpolated log-log on the
    2000-node ccdf_table up to its largest income, at an error that grows
    with log(max(ms) / m_init): 3.3e-5 to 6.8e-5 relative on the presets
    (2,001 grid to 1e6 sampled incomes).  The 2000 log nodes are fixed, so
    a heavy tail is worse: the worst measured is 1.19e-3, on 2e4 draws of
    T = 65530, T1 = 58420, alpha = 2.269, alpha1 = 0.05234, m0 = 1.4e5,
    m1 = 1.945e6, which reach 3.7e63 and put the nodes 0.076 apart in ln m.
    """
    arr = _incomes(params, ms, "ms")
    if arr.size == 0:
        return np.empty(arr.shape)
    nodes = np.unique(arr)
    if nodes.size <= _TABLE_GRID:
        tail, _ = _ccdf_nodes(params, nodes, params.c_lo, params.c_hi)
        return tail[np.searchsorted(nodes, arr)]
    del nodes  # the table path keeps no sorted copy of a large request
    grid_m, grid_pi = ccdf_table(params, min(float(arr.max()) * (1.0 + 1e-12), _top(params)), _TABLE_GRID)
    with np.errstate(divide="ignore"):  # a fully underflowed tail is an honest 0
        return np.exp(np.interp(np.log(arr), np.log(grid_m), np.log(grid_pi)))


def _log_ccdf_misfit(ms, log_p, m_init: float, m1: float):
    """The sum over the incomes ms of (log-log interpolated log CCDF - log_p)^2, as (log_tails, gram, h).

    For parameter sets with this m_init and m1 the _MISFIT_GRID-node
    ccdf_table grid is fixed, so the interpolated logs are A v, with v the
    log CCDF at the nodes and A fixed, two entries per row, and the sum is
    v.G.v - 2 h.v + log_p.log_p, G = A'A tridiagonal and h = A' log_p, built
    here once; gram(x) is G x for x of shape (n,) or (n, k).  The first node
    is m_init, whose tail mass is the normalization integral, so
    log_tails(params), v = log(tails) - log(tails[0]) from one _ccdf_nodes
    pass with c_lo = 1 and c_hi the continuity ratio, never derives the
    law's constants.  The same pass gives the exact J = dv / d(ln T, ln m0),
    shape (n, 2), with T1 moving with T where they are equal, and
    log_tails returns (v, J).  The sum's rounding floor is ~1e-16
    sum(log_p^2).  log_tails returns None (the sum inf) for a tail that
    underflows on the grid, a zero or infinite integral, or a law whose
    domain ends below the grid's top or m1.  ms must be non-increasing, as
    an EmpiricalCCDF keeps its incomes, and at least m_init (ValueError).
    """
    arr = np.asarray(ms, dtype=float)
    if np.any(arr[1:] > arr[:-1]):
        raise ValueError("ms must be non-increasing (richest first)")
    if arr[-1] < m_init:
        raise ValueError("all incomes must be >= m_init")
    m_hi = min(float(arr[0]) * (1.0 + 1e-12), _HUGE)  # as in ccdf_eval_many
    nodes = _table_grid(m_init, m1, m_hi, _MISFIT_GRID)
    # in place: at most four arrays of len(ms) are live at once, log_p among them
    t, grid = np.log(arr), np.log(nodes)
    n = grid.size
    # the node at or below each income, the last but one for those past it:
    # t descends, so j is each node's count of incomes, from the top node down
    counts = np.diff(np.searchsorted(t[::-1], grid[1:-1]), prepend=0, append=t.size)
    j = np.repeat(np.arange(n - 1)[::-1], counts[::-1])
    t -= grid[j]
    t /= np.diff(grid)[j]  # the weight on node j + 1; 1 - t is node j's

    def on_next(w):  # the sums of w on node j + 1: those over j, one node up
        return np.concatenate([[0.0], np.bincount(j, w, n - 1)])

    st = 1.0 - t
    st *= t
    off = np.bincount(j, st, n - 1)
    del st
    diag, h = on_next(t * t), on_next(t * log_p)
    s = np.subtract(1.0, t, out=t)  # t is spent
    diag = np.bincount(j, s * s, n) + diag
    h = np.bincount(j, s * log_p, n) + h

    def log_tails(params: ModelParams):
        if max(m_hi, m1) > _top(params):
            return None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            tails, _, d_tails = _ccdf_nodes(params, nodes, 1.0, continuity_ratio(params),
                                            tied=params.T1 == params.T)
            v = np.log(tails)
            v -= v[0]
            J = d_tails / tails[:, None]
            J -= J[0]
        return (v, J) if np.all(np.isfinite(v)) and np.all(np.isfinite(J)) else None

    def gram(x):
        d, o = (diag, off) if x.ndim == 1 else (diag[:, None], off[:, None])
        out = d * x
        out[1:] += o * x[:-1]
        out[:-1] += o * x[1:]
        return out

    return log_tails, gram, h


def _decades(m: float, n: int) -> np.ndarray:
    """The n decades above m, as repeated products (m *= 10 gives them); those past the floats are inf."""
    with np.errstate(over="ignore"):  # _climb clips an inf rung to _top
        return np.cumprod(np.append(m, np.full(n, 10.0)))[1:]


def _climb(params: ModelParams, rungs):
    """The ascending rungs clipped at _top, cut after the first at _top, and their CCDF and density."""
    rungs = np.minimum(rungs, _top(params))
    rungs = rungs[: np.searchsorted(rungs, _top(params)) + 1]
    return rungs, _ccdf_nodes(params, rungs, params.c_lo, params.c_hi)[0], _density(params, rungs)


def _bracket(params: ModelParams, p: float, rungs, tails, dens):
    """(lo, hi), each (income, CCDF, density): hi the first of the rungs (from _climb) whose CCDF is <= p.

    Only when the top rung's CCDF is still above p does one more pass run,
    over decades up from it to the law's top income (_top); if that one is
    still above p, it is hi.  lo is the rung below hi, or else m_init,
    whose CCDF is 1; its density is left NaN, which _start reads as no slope.
    """
    lo = (params.m_init, 1.0, math.nan)
    if tails[-1] > p and rungs[-1] < _top(params):
        lo = (float(rungs[-1]), float(tails[-1]), float(dens[-1]))
        # a difference of logs: _top / rung overflows below a rung of ~1; the
        # spare decade covers its rounding, and _climb cuts it off
        n = math.ceil(math.log10(_top(params)) - math.log10(rungs[-1])) + 2
        rungs, tails, dens = _climb(params, _decades(rungs[-1], n))
    i = min(int(np.count_nonzero(tails > p)), rungs.size - 1)
    if i:
        lo = (float(rungs[i - 1]), float(tails[i - 1]), float(dens[i - 1]))
    return lo, (float(rungs[i]), float(tails[i]), float(dens[i]))


def _density(params: ModelParams, m):
    """pdf_eval at incomes m >= m_init, unchecked; the quantile's Newton steps call it too."""
    x = np.divide(m, params.m0)  # at most 1 / _TINY inside the law's domain
    # hypot(1, x) in place of sqrt(1 + x^2), which overflows beyond ~1e154 m0
    u, h = np.arctan(x), np.hypot(1.0, x)
    lower = params.c_lo * np.exp(-(params.m0 / params.T) * u) * h ** -(params.alpha + 1.0)
    upper = params.c_hi * np.exp(-(params.m0 / params.T1) * u) * h ** -(params.alpha1 + 1.0)
    return np.where(np.less(m, params.m1), lower, upper)


def _start(target: float, lo, hi) -> float:
    """Newton's start for CCDF = target inside the bracket (lo, hi) of (income, CCDF, density) rows.

    Inverse cubic Hermite interpolation of ln m against ln CCDF, whose end
    slopes are d ln m / d ln CCDF = -CCDF / (m P); where that is not finite
    or leaves the bracket (an underflowed CCDF or density, a wide decade
    bracket), log-log interpolation between the two rows.
    """
    (m_lo, pi_lo, p_lo), (m_hi, pi_hi, p_hi) = lo, hi
    if pi_hi > 0.0 and p_lo > 0.0 and p_hi > 0.0:
        x_lo, x_hi, y_lo = math.log(m_lo), math.log(m_hi), math.log(pi_lo)
        h = math.log(pi_hi) - y_lo
        t = (math.log(target) - y_lo) / h
        x = ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * x_lo - t * (1.0 - t) ** 2 * h * pi_lo / p_lo / m_lo
             + t * t * (3.0 - 2.0 * t) * x_hi - t * t * (t - 1.0) * h * pi_hi / p_hi / m_hi)
        if x_lo <= x <= x_hi:  # also False for NaN
            return min(max(math.exp(x), m_lo), m_hi)
    s = (math.log(pi_lo) - math.log(target)) / (math.log(pi_lo) - math.log(pi_hi)) if pi_hi > 0.0 else 0.5
    return min(m_lo * (m_hi / m_lo) ** s, m_hi)  # at s = 1 rounding may pass m_hi, at _top into inf


def _certified(lam: float, m: float, step: float) -> bool:
    """Whether the root lies within 1e-9 (m + step) above m + step, a Newton step from the exact CCDF at m.

    The CCDF is convex, so the step lands at or below the root r.  With
    |d ln P / d ln m| <= lam, the CCDF at m + step exceeds its target by at
    most lam step^2 / (2 a) P(a) with a = min(m, m + step), and the density
    changes by at most a factor (1 + |step| / a)^lam across the step, so
    r - (m + step) <= lam step^2 / (2 a) (1 + |step| / a)^lam (1 + 1e-9)^lam
    while that is below 1e-9 (m + step).
    """
    a = min(m, m + step)
    growth = lam * (math.log1p(abs(step) / a) + 1e-9)
    return growth < 700.0 and 0.5 * lam * step * step / a * math.exp(growth) <= 1e-9 * (m + step)


def quantile(params: ModelParams, q: float) -> float:
    """Income level m with P(income <= m) = q, by safeguarded Newton steps on the CCDF.

    The law's ladder (m_init, m0, m1 and the incomes m_init + T 2**(j/4)
    with their CCDF and density, one engine pass derived on first use and
    kept on the law) brackets the root (one more pass, by decades up to
    _top, only for a tail beyond it), and inverse cubic Hermite
    interpolation between the two bracketing rungs gives the start
    (_start).  Each step m += (CCDF(m) - (1 - q)) / P(m), with P the
    closed-form density, takes CCDF(m) as CCDF(hi) plus the mass on
    [m, hi], from a short engine pass over that one interval; hi and
    CCDF(hi) follow the bracket down.  The CCDF is convex, so every step
    lands below the root, and a step whose closed-form error bound
    (_certified, from |d ln P / d ln m| <= max(m0/T, m0/T1)/2 +
    max(alpha, alpha1) + 1) is within 1e-9 of the income returns at once:
    from the Hermite start nearly every quantile of a law with moderate
    m0/T does so after one interval pass.  Otherwise the steps go on, a
    step that leaves the bracket, or an underflowed P, bisects it instead,
    and the root is found to relative tolerance 1e-8 in income.  A quantile
    past the law's top income (_top), up to the largest float, raises
    ValueError.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    target = 1.0 - q
    if target >= 1.0:  # the CCDF is 1 at m_init by normalization
        return params.m_init
    bracket = _bracket(params, target, *params._ladder)
    (lo, _, _), (hi, pi_hi, _) = bracket
    if pi_hi > target:
        raise ValueError(f"the {q} quantile lies beyond the float range (above {hi:.3g})")
    m = _start(target, *bracket)
    lam = 0.5 * max(params.m0 / params.T, params.m0 / params.T1) + max(params.alpha, params.alpha1) + 1.0
    for _ in range(100):
        pi_m = pi_hi + float(_ccdf_nodes(params, [m, hi], params.c_lo, params.c_hi, closed=False)[0][0])
        excess = pi_m - target
        if excess > 0.0:
            lo = m
        else:
            hi, pi_hi = m, pi_m
        dens = float(_density(params, m))
        step = excess / dens if dens > 0.0 else math.inf
        if lo <= m + step <= hi and (abs(step) <= _QUANTILE_RTOL * m or _certified(lam, m, step)):
            return m + step
        m += step
        if not lo < m < hi:
            # in logs while the bracket is wide: a law whose mass lies
            # decades below T has its roots decades under the first rung
            m = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * lo + 0.5 * hi
            if hi - lo <= _QUANTILE_RTOL * hi:
                return m
    raise RuntimeError(f"the {q} quantile did not converge in 100 steps")


def sample_incomes(params: ModelParams, n: int, seed=None) -> np.ndarray:
    """Draw n >= 1 incomes by quantile inversion on a dense CCDF table.

    The table extends until the tail probability drops below ~1e-3/n, so the
    chance of any draw being clipped at the table edge is negligible.  The
    edge stops at the law's top income (_top): a tail with alpha1 of a few
    hundredths holds mass beyond it, and those draws clip to the edge.
    seed is anything np.random.default_rng takes.
    """
    n = _count("n", n)
    p_floor = max(1e-12, 1e-3 / n)
    edge = _bracket(params, p_floor, *_climb(params, _decades(params.m1, _EDGE_DECADES)))[1][0]
    grid_m, grid_pi = ccdf_table(params, edge, n_grid=4000)
    log_pi = np.log(grid_pi[::-1])
    log_m = np.log(grid_m[::-1])
    t = np.random.default_rng(seed).random(n)
    np.subtract(1.0, t, out=t)
    np.log(np.clip(t, grid_pi[-1], 1.0, out=t), out=t)
    # np.interp looks for each target's interval next to the last one's, so
    # it runs several times faster on sorted targets; each element's result
    # is the same, so the draws keep their bytes.  Chunks keep every sort
    # small, and the draws replace the targets in place.
    for lo in range(0, n, _SORT_CHUNK):
        chunk = t[lo:lo + _SORT_CHUNK]
        order = np.argsort(chunk)
        chunk[order] = np.interp(chunk[order], log_pi, log_m)
    return np.minimum(np.exp(t, out=t), grid_m[-1], out=t)  # exp(log(edge)) may round past it


def coeffs_to_effective(coeffs: LangevinCoeffs, m1: float, m_init: float) -> ModelParams:
    """Map Langevin coefficients to effective distribution parameters.

    T = B0/A0, T1 = B0/A0_hi, alpha = 1 + a/b, alpha1 = 1 + a_hi/b,
    m0 = sqrt(B0/b).
    """
    _positive("A0", coeffs.A0)  # a temperature B0/A0 needs A0 > 0
    _positive("A0_hi", coeffs.A0_hi)
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
