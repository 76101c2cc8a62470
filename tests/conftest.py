import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from incomedist import EmpiricalCCDF, ccdf_table, normalize, preset_params, rank_ccdf

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


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


def direct_misfit(ms, log_p, m_init, m1, n_grid):
    """Reference for model._log_ccdf_misfit: interpolate at every income and sum the squares."""
    log_ms, m_hi = np.log(ms), float(np.max(ms)) * (1.0 + 1e-12)

    def misfit(params):
        grid_m, grid_pi = ccdf_table(params, m_hi, n_grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            resid = np.interp(log_ms, np.log(grid_m), np.log(grid_pi)) - log_p
        return float(resid @ resid)

    return misfit
