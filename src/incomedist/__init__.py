"""Threshold drift-diffusion model of income distribution.

Analytic equilibrium densities, Monte Carlo simulation of the underlying
Langevin dynamics, empirical CCDF construction from survey and rich-list
data, crossover/exponent estimation, and inequality statistics.  Each
module's __all__ lists its public names; the package re-exports them all.
"""

from incomedist.empirics import *
from incomedist.estimate import *
from incomedist.inequality import *
from incomedist.model import *
from incomedist.presets import *
from incomedist.simulate import *

__version__ = "0.1.0"
