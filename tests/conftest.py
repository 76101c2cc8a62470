import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from incomedist import EmpiricalCCDF, ccdf_table, model, normalize, preset_params, rank_ccdf

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# Laws at the far end of the validated domain, from fuzzes over the ranges of
# the CLI property (test_cli._accepted_params).  FAR's median lies inside the
# float range; those of DROPPED and UNDERFLOW lie beyond the domain's top,
# m0 / (smallest normal float); C_HI_OVERFLOW and INTEGRAL_OVERFLOW cannot be
# normalized.
FAR = dict(T=1e-17, T1=1e-17, alpha=1.0, alpha1=0.01, m0=1e-17, m1=1e-16, m_init=1e-18)
# k1 = m0/T1 ~ 1.5e-88: far out, k dw underflowed to 0 and a pass dropped the interval
DROPPED = dict(T=1.377448655841592e-58, T1=1.1899384894629924e26, alpha=0.03815610677132633,
               alpha1=0.0007869014546714017, m0=1.8283682529941219e-62, m1=6.764808071696754e-57,
               m_init=6.29464347371198e-66)
# the tail width arctan(m0/m) underflowed to 0 in the quantile's decades climb
UNDERFLOW = dict(T=0.001418465287965617, T1=1.2997503623843377e-29, alpha=8.880226126181575e-05,
                 alpha1=2.276207664415113e-06, m0=3.720180174306223e-28, m1=1.1966134710608746e-26,
                 m_init=4.9016890491871317e-29)
# c_hi = continuity ratio / normalization integral overflows to inf
C_HI_OVERFLOW = dict(T=35907.32257157631, T1=0.04852822822820377, alpha=7.482657657659162e-06,
                     alpha1=90.50983225139966, m0=3.2549532645571036e-72, m1=1.7073356268773555e-69,
                     m_init=4.973229696596593e-76)
# alpha1 = 0.002: a Zipf-like tail with 0.9% of its mass between 1e300 and the
# domain's top, m0 / tiny ~ 9e307; its 0.755 and 0.76 quantiles lie there
HEAVY_TOP = dict(T=1.0, T1=1.0, alpha=1.0, alpha1=0.002, m0=2.0, m1=2.0, m_init=1.0)
# the closing series' 1/alpha1 ~ 4.5e307 times m0 overflows the raw integral to inf
INTEGRAL_OVERFLOW = dict(T=1e9, T1=1e9, alpha=0.01, alpha1=2.2250738585072014e-308, m0=1e6, m1=1e6,
                         m_init=1.0)


@pytest.fixture
def normal_pieces(monkeypatch):
    """Spy on the engine's K21 rule: every piece of the test lies at or above the smallest normal float."""
    lows, kronrod = [], model._kronrod

    def spy(f, lo, hi):
        lows.append(float(lo.min(initial=math.inf)))
        return kronrod(f, lo, hi)

    monkeypatch.setattr(model, "_kronrod", spy)
    yield lows
    assert lows and min(lows) >= model._TINY


@pytest.fixture(scope="session")
def params06():
    return preset_params("2006")


@pytest.fixture(scope="session")
def params08():
    return preset_params("2008")


def noiseless_ccdf(params, n: int) -> EmpiricalCCDF:
    """Plotting-position incomes from exact quantile inversion (no sampling noise)."""
    ps = np.arange(1, n + 1) / (n + 1.0)
    grid_m, grid_pi = ccdf_table(params, 1e12, n_grid=6000)
    ms = np.exp(np.interp(np.log(ps), np.log(grid_pi[::-1]), np.log(grid_m[::-1])))
    return EmpiricalCCDF(incomes=np.sort(ms)[::-1], p=ps)


@pytest.fixture(scope="session")
def ccdf08_noiseless(params08):
    return noiseless_ccdf(params08, 20000)


def direct_misfit(ms, log_p, m_init, m1):
    """Reference for model._log_ccdf_misfit: interpolate at every income and sum the squares.

    Like the misfit, it takes params with or without constants, and
    normalizes them itself.  Its `pieces` attribute holds the misfit's
    (log_tails, gram, h), built from ccdf_table on the misfit's
    model._MISFIT_GRID nodes and an explicit sparse interpolation matrix A
    from the table's log nodes to log ms: gram(x) = A'(A x) and h = A' log_p.
    log_tails returns (v, J) with J = dv/d(ln T, ln m0) from the engine's
    own pass (model._log_ccdf_misfit): the reference checks the quadratic
    form, and test_model checks J against differences of v.
    """
    from scipy import sparse

    n_grid = model._MISFIT_GRID
    log_ms, m_hi = np.log(ms), float(np.max(ms)) * (1.0 + 1e-12)
    grid = np.log(model._table_grid(m_init, m1, m_hi, n_grid))

    def log_ccdf(params):
        grid_m, grid_pi = ccdf_table(normalize(params), m_hi, n_grid)
        assert np.array_equal(np.log(grid_m), grid)
        with np.errstate(divide="ignore"):
            return np.log(grid_pi)

    def misfit(params):
        with np.errstate(invalid="ignore"):
            resid = np.interp(log_ms, grid, log_ccdf(params)) - log_p
        return float(resid @ resid)

    engine_log_tails, _, _ = model._log_ccdf_misfit(ms, log_p, m_init, m1)

    def log_tails(params):
        v, scored = log_ccdf(params), engine_log_tails(params)
        return (v, scored[1]) if np.all(np.isfinite(v)) and scored is not None else None

    j = np.clip(np.searchsorted(grid, log_ms, side="right") - 1, 0, grid.size - 2)
    w = (log_ms - grid[j]) / (grid[j + 1] - grid[j])
    rows = np.arange(log_ms.size)
    A = sparse.csr_matrix((np.concatenate([1.0 - w, w]), (np.tile(rows, 2), np.concatenate([j, j + 1]))),
                          shape=(log_ms.size, grid.size))
    misfit.pieces = (log_tails, lambda x: A.T @ (A @ x), A.T @ log_p)
    return misfit


def spoil_one(draw, fields: dict) -> dict:
    """fields, or half the time a copy with one of them set to 0, -1, inf, NaN, True or its np.float32."""
    bad = draw(st.one_of(st.none(), st.sampled_from(list(fields))))
    if bad is None:
        return fields
    value = draw(st.sampled_from([0.0, -1.0, math.inf, math.nan, True, np.float32(fields[bad])]))
    return dict(fields, **{bad: value})
