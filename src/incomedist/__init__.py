"""Threshold drift-diffusion model of income distribution.

Analytic equilibrium densities, Monte Carlo simulation of the underlying
Langevin dynamics, empirical CCDF construction from survey and rich-list
data, crossover/exponent estimation, and inequality statistics.
"""

from incomedist.empirics import (
    EmpiricalCCDF,
    EmptyFileWarning,
    OverlapWarning,
    ParseError,
    find_scale_factor,
    forbes_incomes,
    fuse,
    load_incomes,
    load_wealth_pairs,
    rank_ccdf,
)
from incomedist.estimate import (
    DegenerateTailWarning,
    EstimationError,
    FitReport,
    ParetoSegmentFit,
    RankFit,
    detect_crossovers,
    fit_full,
    fit_pareto_exponent,
    fit_rank,
    fit_temperature,
    refine_temperature,
)
from incomedist.inequality import (
    ClassStats,
    DegenerateClassError,
    class_fractions,
    compute_stats,
    gini,
    median_income,
    population_ratios,
)
from incomedist.model import (
    LangevinCoeffs,
    ModelParams,
    ParetoFit,
    TailDivergenceError,
    bg_ccdf,
    ccdf_eval,
    ccdf_eval_many,
    ccdf_table,
    coeffs_to_effective,
    continuity_ratio,
    effective_to_coeffs,
    normalize,
    pareto_ccdf,
    pdf_eval,
    quantile,
    sample_incomes,
)
from incomedist.presets import EU_2006, EU_2008, PRESETS, REFERENCE_STATS, preset_params
from incomedist.simulate import (
    Ensemble,
    SimConfig,
    StabilityError,
    diffusion,
    drift,
    ks_distance,
    run_ensemble,
    stability_bound,
    step,
)

__version__ = "0.1.0"
