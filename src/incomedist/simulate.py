"""Euler-Maruyama ensemble integration of the threshold Langevin dynamics.

dm = -A(m) dt + sqrt(2 B(m) dt) * xi, coefficients evaluated at the pre-step
point (Ito convention), with the drift switching linearly at the threshold m1
and a reflecting boundary at m_init keeping the support on [m_init, inf).

Paths are advanced in fixed-size blocks, each block drawing from its own
child of the master seed sequence.  The blocks run on a thread pool of
min(n_blocks, available CPUs) workers (numpy's RNG and ufuncs release the
GIL) and update preallocated buffers in place; results are bit-identical
whatever the thread count or schedule.  The per-step noise cost dominates;
a float32 mode halves it when the ~1e-7 relative rounding is irrelevant (it
is, for distribution-level statistics: income scales are ~1e4..1e7 and step
noise is ~1e2..1e3).

The reflected Euler scheme carries an O(sqrt(dt)) boundary-layer bias (the
stationary law sits shifted by ~0.58*sqrt(2*B0*dt) near the wall), which is
what forces small dt for tight KS agreement with the analytic equilibrium;
see the stability bound and the equilibrium tests for the working values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from incomedist.empirics import _write_csv
from incomedist.model import LangevinCoeffs, ModelParams, ccdf_eval_many

__all__ = [
    "StabilityError",
    "SimConfig",
    "Ensemble",
    "drift",
    "diffusion",
    "step",
    "run_ensemble",
    "ks_distance",
]

_BLOCK = 16384


class StabilityError(ValueError):
    """Time step too large for contraction-stable linear drift updates."""


def stability_bound(coeffs: LangevinCoeffs) -> float:
    """Largest stable dt: 1/(2 max(a, |a_hi|, b))."""
    rate = max(coeffs.a, abs(coeffs.a_hi), coeffs.b)
    return math.inf if rate == 0.0 else 1.0 / (2.0 * rate)


@dataclass(frozen=True)
class SimConfig:
    """Complete, serializable description of one ensemble run.

    burn_in is validated and recorded (saved configs carry it) but not used
    by run_ensemble, which returns the state after all n_steps.
    """

    coeffs: LangevinCoeffs
    m1: float
    m_init: float
    dt: float
    n_steps: int
    n_paths: int
    seed: int
    burn_in: int = 0

    def __post_init__(self) -> None:
        if not (self.m_init > 0.0 and math.isfinite(self.m_init)):
            raise ValueError(f"m_init must be positive, got {self.m_init}")
        if not (self.m1 > self.m_init):
            raise ValueError(f"m1 must exceed m_init, got {self.m1}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (0 <= self.burn_in <= self.n_steps):
            raise ValueError(
                f"need n_steps >= burn_in >= 0, got n_steps={self.n_steps}, burn_in={self.burn_in}"
            )
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        bound = stability_bound(self.coeffs)
        if self.dt >= bound:
            raise StabilityError(
                f"dt={self.dt} violates the stability bound 1/(2 max(a, |a_hi|, b)) = {bound}"
            )

    def to_json(self) -> str:
        obj = {
            "coeffs": json.loads(self.coeffs.to_json()),
            "m1": self.m1, "m_init": self.m_init, "dt": self.dt,
            "n_steps": self.n_steps, "n_paths": self.n_paths,
            "seed": self.seed, "burn_in": self.burn_in,
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        obj = json.loads(text)
        coeffs = LangevinCoeffs(**{k: float(v) for k, v in obj["coeffs"].items()})
        return cls(
            coeffs=coeffs, m1=float(obj["m1"]), m_init=float(obj["m_init"]),
            dt=float(obj["dt"]), n_steps=int(obj["n_steps"]),
            n_paths=int(obj["n_paths"]), seed=int(obj["seed"]),
            burn_in=int(obj.get("burn_in", 0)),
        )


@dataclass(frozen=True)
class Ensemble:
    """Final incomes of all paths plus the run description."""

    samples: np.ndarray
    config: SimConfig
    n_reflections: int

    def __post_init__(self) -> None:
        if self.samples.size != self.config.n_paths:
            raise ValueError("samples length must equal n_paths")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(
                "samples must be finite: the update squares each income, which overflows "
                "float32 above about 1.8e19 (run in float64) and float64 above about 1.3e154"
            )
        if np.any(self.samples < self.config.m_init):
            raise ValueError("all samples must be >= m_init")

    def to_csv(self, path) -> None:
        _write_csv(path, "income", self.samples)


def drift(coeffs: LangevinCoeffs, m1: float, m):
    """A(m): A0 + a*m below the threshold, A0_hi + a_hi*m at and above it."""
    arr = np.asarray(m, dtype=float)
    out = np.where(arr < m1, coeffs.A0 + coeffs.a * arr,
                   coeffs.A0_hi + coeffs.a_hi * arr)
    return float(out) if arr.ndim == 0 else out


def diffusion(coeffs: LangevinCoeffs, m1: float, m):
    """B(m) = B0 + b*m^2, shared by both drift regimes (continuous at m1)."""
    arr = np.asarray(m, dtype=float)
    out = coeffs.B0 + coeffs.b * arr * arr
    return float(out) if arr.ndim == 0 else out


def _folded_constants(config: SimConfig, dtype) -> tuple:
    """Step constants in dtype: threshold, wall, per-regime affine drift, variance."""
    c = config.coeffs
    dt = config.dt
    return (dtype(config.m1), dtype(config.m_init), dtype(2.0 * config.m_init),
            dtype(1.0 - c.a * dt), dtype(-c.A0 * dt),
            dtype(1.0 - c.a_hi * dt), dtype(-c.A0_hi * dt),
            dtype(2.0 * dt * c.B0), dtype(2.0 * dt * c.b))


def _euler(m: np.ndarray, xi: np.ndarray, constants: tuple, scale: np.ndarray,
           hi: np.ndarray, refl: np.ndarray) -> None:
    """One reflected Euler-Maruyama update of m in place.

    m' = (m*mul + add) + sqrt(var2*(m*m) + var0)*xi, with (mul, add) of m's
    regime, folded back to 2 m_init - m' below m_init.  xi and scale are
    scratch; hi and refl receive the regime and reflection masks.
    """
    m1, m_init, two_m_init, lo_mul, lo_add, hi_mul, hi_add, var0, var2 = constants
    np.greater_equal(m, m1, out=hi)
    np.multiply(m, m, out=scale)
    scale *= var2
    scale += var0
    np.sqrt(scale, out=scale)
    xi *= scale
    np.copyto(scale, lo_mul)
    np.copyto(scale, hi_mul, where=hi)
    m *= scale
    np.copyto(scale, lo_add)
    np.copyto(scale, hi_add, where=hi)
    m += scale
    m += xi
    np.less(m, m_init, out=refl)
    np.subtract(two_m_init, m, out=m, where=refl)


def step(m, config: SimConfig, noise):
    """One Euler-Maruyama update with reflection at m_init.

    m' = m - A(m) dt + sqrt(2 B(m) dt) * noise; any m' below m_init is
    folded back to 2 m_init - m'.  This is the float64 update of
    run_ensemble, so iterating it on a block's noise stream reproduces that
    block bit for bit.
    """
    out, xi = (a.copy() for a in np.broadcast_arrays(np.asarray(m, dtype=float),
                                                     np.asarray(noise, dtype=float)))
    _euler(out, xi, _folded_constants(config, np.float64), np.empty_like(out),
           np.empty(out.shape, dtype=bool), np.empty(out.shape, dtype=bool))
    return float(out) if out.ndim == 0 else out


def _default_initial(config: SimConfig) -> float:
    # start near the bulk of the equilibrium mass: the low-regime temperature
    c = config.coeffs
    if c.A0 > 0.0:
        return max(c.B0 / c.A0, config.m_init)
    return config.m_init


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_block(config: SimConfig, m0_block: np.ndarray, seed_seq: np.random.SeedSequence,
               dtype, out: np.ndarray) -> int:
    """Advance one block through all n_steps into out; returns its reflection count.

    Runs on a pool thread, so it calls only numpy and private helpers:
    perfbench's tracer wraps the public names with a span stack that is not
    thread-safe.
    """
    constants = _folded_constants(config, dtype)
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    m = m0_block.astype(dtype, copy=True)
    xi, scale = np.empty_like(m), np.empty_like(m)
    hi, refl = np.empty(m.size, dtype=bool), np.empty(m.size, dtype=bool)
    n_refl = 0
    for _ in range(config.n_steps):
        rng.standard_normal(dtype=dtype, out=xi)
        _euler(m, xi, constants, scale, hi, refl)
        n_refl += int(np.count_nonzero(refl))
    out[...] = m
    return n_refl


def run_ensemble(config: SimConfig, initial=None, *, dtype="float64") -> Ensemble:
    """Integrate n_paths trajectories and return their final incomes.

    initial: None (all paths at the low-regime temperature B0/A0), a scalar,
    or an array of n_paths finite starting incomes >= m_init (e.g.
    equilibrium samples for a stationarity check).  Each 16384-path block
    consumes its own child of SeedSequence(config.seed), and the blocks run
    on a thread pool of min(n_blocks, available CPUs) workers; results do
    not depend on the thread count or the schedule.
    dtype: "float64" or "float32"; float32 halves the noise-generation cost,
    but its squared incomes overflow above about 1.8e19 (ValueError).
    """
    # imported here: at module level it would add ~14 ms to every import
    from concurrent.futures import ThreadPoolExecutor

    scalar_type = np.dtype(dtype).type
    if scalar_type not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    if initial is None:
        init = np.full(config.n_paths, _default_initial(config))
    else:
        init = np.asarray(initial, dtype=float)
        if init.ndim == 0:
            init = np.full(config.n_paths, float(init))
        elif init.shape != (config.n_paths,):
            raise ValueError("initial must be a scalar or an array of n_paths values")
        if not np.all(np.isfinite(init) & (init >= config.m_init)):
            raise ValueError("initial incomes must be finite and >= m_init")

    n_blocks = (config.n_paths + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)
    samples = np.empty(config.n_paths)

    def block(i: int) -> int:
        lo, hi = i * _BLOCK, min((i + 1) * _BLOCK, config.n_paths)
        return _run_block(config, init[lo:hi], children[i], scalar_type, samples[lo:hi])

    with ThreadPoolExecutor(max_workers=min(n_blocks, _cpu_count())) as pool:
        total_refl = sum(pool.map(block, range(n_blocks)))
    # float32 rounding can nudge a reflected value a hair under the wall
    np.maximum(samples, config.m_init, out=samples)
    return Ensemble(samples=samples, config=config, n_reflections=total_refl)


def ks_distance(samples, params: ModelParams) -> float:
    """Two-sided Kolmogorov-Smirnov distance between samples and the model law."""
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("need at least one sample")
    n = xs.size
    cdf = 1.0 - ccdf_eval_many(params, xs)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))
