import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incomedist import (
    Ensemble,
    LangevinCoeffs,
    SimConfig,
    StabilityError,
    coeffs_to_effective,
    diffusion,
    drift,
    effective_to_coeffs,
    ks_distance,
    normalize,
    run_ensemble,
    stability_bound,
    step,
)
from incomedist import simulate

from conftest import spoil_one

COEFFS_08 = LangevinCoeffs(A0=496202.5316455696, a=1.902,
                           A0_hi=496202.5316455696, a_hi=-0.21,
                           B0=1.96e10, b=1.0)


def _config(**over):
    base = dict(coeffs=COEFFS_08, m1=4.0e5, m_init=0.01, dt=2e-4,
                n_steps=10, n_paths=8, seed=0)
    base.update(over)
    return SimConfig(**base)


def test_stability_bound_formula():
    assert stability_bound(COEFFS_08) == pytest.approx(1.0 / (2.0 * 1.902))
    flat = LangevinCoeffs(A0=1.0, a=0.0, A0_hi=1.0, a_hi=0.0, B0=1.0, b=1e-12)
    assert stability_bound(flat) == pytest.approx(5e11)


def test_config_validation():
    with pytest.raises(StabilityError):
        _config(dt=1.0)
    with pytest.raises(ValueError):
        _config(n_paths=0)
    with pytest.raises(ValueError):
        _config(n_steps=-1)
    with pytest.raises(ValueError):
        _config(m1=0.005)
    with pytest.raises(ValueError, match="samples length must equal n_paths"):
        Ensemble(samples=np.ones(3), config=_config(n_paths=4), n_reflections=0)
    with pytest.raises(ValueError, match="^all samples must be >= m_init$"):
        Ensemble(samples=np.full(4, 0.005), config=_config(n_paths=4), n_reflections=0)


def test_config_json_round_trip():
    cfg = _config(n_steps=123, seed=9)
    assert SimConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("name, value", [("n_paths", 1.5), ("n_steps", 2.5), ("seed", 2.7),
                                         ("seed", True), ("seed", -1), ("m1", math.inf)])
def test_config_rejects_what_the_json_reader_rejects(name, value):
    # each was accepted, and all but m1 then failed in numpy at run time
    with pytest.raises(ValueError, match=f"^{name} must"):
        _config(**{name: value})


@pytest.mark.parametrize("name, value, floor", [("n_paths", 1.5, 1), ("n_paths", 0, 1), ("n_steps", 2.5, 0),
                                                ("seed", -1, 0), ("seed", 2.7, 0)])
def test_config_json_counts_state_the_record_floor(name, value, floor):
    # the JSON reader leaves the count rule to SimConfig, whose floor is the one stated
    text = json.dumps(dict(json.loads(_config().to_json()), **{name: value}))
    with pytest.raises(ValueError, match=f"^{name} must be >= {floor} and an integer, got {value!r}$"):
        SimConfig.from_json(text)


def test_config_keeps_counts_as_ints():
    cfg = _config(n_paths=2.0, n_steps=np.int64(3), seed=np.int64(2**40))
    assert (cfg.n_paths, cfg.n_steps, cfg.seed) == (2, 3, 2**40)
    assert all(type(v) is int for v in (cfg.n_paths, cfg.n_steps, cfg.seed))
    assert json.loads(cfg.to_json())["n_paths"] == 2


def _built(build):
    """build(), or None where it raises ValueError."""
    try:
        return build()
    except ValueError:
        return None


_COUNTS = st.sampled_from([2, 2.0, 1.5, True, -1, math.inf, math.nan, np.int64(5), 2**70])


@st.composite
def _runs(draw):
    """LangevinCoeffs fields, and SimConfig's m1, m_init and dt as a share of the stability bound."""
    coeffs = spoil_one(draw, dict(A0=draw(st.floats(0.0, 1e6)), a=draw(st.floats(0.0, 10.0)),
                                  A0_hi=draw(st.floats(0.0, 1e6)), a_hi=draw(st.floats(-0.5, 10.0)),
                                  B0=draw(st.floats(1e-3, 1e10)), b=draw(st.floats(0.5, 10.0))))
    m_init = draw(st.floats(1e-3, 1e3))
    return coeffs, spoil_one(draw, dict(m_init=m_init, m1=m_init * draw(st.floats(1.0, 1e6)),
                                        dt_share=draw(st.floats(0.0, 1.0))))


@settings(max_examples=200)
@given(_runs(), st.fixed_dictionaries(dict.fromkeys(("n_steps", "n_paths", "seed"), _COUNTS)))
def test_records_round_trip_and_counts_agree_with_the_json_reader(run, counts):
    # records are only built and written here, never run
    coeffs, reals = run
    c = _built(lambda: LangevinCoeffs(**coeffs))
    if c is not None:
        assert LangevinCoeffs.from_json(c.to_json()) == c
        cfg = _built(lambda: SimConfig(coeffs=c, m1=reals["m1"], m_init=reals["m_init"],
                                       dt=reals["dt_share"] * stability_bound(c), **counts))
        if cfg is not None:
            assert SimConfig.from_json(cfg.to_json()) == cfg
    base = _config()
    for name, value in counts.items():
        text = json.dumps(dict(json.loads(base.to_json()), **{name: value}), default=int)
        if _built(lambda: SimConfig.from_json(text)) is None:
            assert _built(lambda: replace(base, **{name: value})) is None, (name, value)


def test_drift_switches_at_threshold():
    c = LangevinCoeffs(A0=1.0, a=2.0, A0_hi=10.0, a_hi=0.5, B0=1.0, b=0.1)
    assert drift(c, 100.0, 50.0) == pytest.approx(1.0 + 2.0 * 50.0)
    assert drift(c, 100.0, 100.0) == pytest.approx(10.0 + 0.5 * 100.0)
    assert diffusion(c, 100.0, 3.0) == pytest.approx(1.0 + 0.1 * 9.0)


def test_step_zero_noise_zero_drift_is_identity():
    c = LangevinCoeffs(A0=0.0, a=0.0, A0_hi=0.0, a_hi=0.0, B0=1.0, b=1e-9)
    cfg = SimConfig(coeffs=c, m1=10.0, m_init=0.01, dt=0.01,
                    n_steps=1, n_paths=1, seed=0)
    for m in (0.02, 5.0, 50.0):
        assert step(m, cfg, 0.0) == pytest.approx(m, rel=1e-15)


def test_step_decay_pinned_by_reflection():
    c = LangevinCoeffs(A0=2.0, a=0.0, A0_hi=2.0, a_hi=0.0, B0=1.0, b=1e-9)
    cfg = SimConfig(coeffs=c, m1=10.0, m_init=1.0, dt=0.01,
                    n_steps=1, n_paths=1, seed=0)
    m = 1.0
    for _ in range(100):
        m = step(m, cfg, 0.0)
        assert m >= cfg.m_init
    # deterministic decay against the wall oscillates within one step size
    assert m == pytest.approx(cfg.m_init, abs=c.A0 * cfg.dt)


def test_step_variance_matches_diffusion():
    c = LangevinCoeffs(A0=0.0, a=0.0, A0_hi=0.0, a_hi=0.0, B0=3.0, b=0.02)
    cfg = SimConfig(coeffs=c, m1=1e9, m_init=1e-6, dt=1e-3,
                    n_steps=1, n_paths=1, seed=0)
    m = 50.0
    rng = np.random.default_rng(42)
    noise = rng.standard_normal(2_000_000)
    out = step(np.full(noise.size, m), cfg, noise)
    var = float(np.var(out - m))
    expect = 2.0 * (c.B0 + c.b * m * m) * cfg.dt
    assert var == pytest.approx(expect, rel=5e-3)


def test_step_reproduces_run_ensemble():
    # one block: iterating the public step on block 0's noise stream must
    # give the ensemble kernel's float64 result bit for bit, reflections included
    cfg = _config(n_paths=600, n_steps=40, seed=3)
    initial = np.geomspace(0.02, 2e6, cfg.n_paths)
    ens = run_ensemble(cfg, initial=initial)
    assert ens.n_reflections > 0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed).spawn(1)[0]))
    m = initial
    for _ in range(cfg.n_steps):
        m = step(m, cfg, rng.standard_normal(cfg.n_paths))
    assert np.array_equal(m, ens.samples)


def test_run_ensemble_deterministic():
    cfg = _config(n_paths=3000, n_steps=50)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    c = run_ensemble(_config(n_paths=3000, n_steps=50, seed=1))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert a.n_reflections == b.n_reflections


def test_run_ensemble_zero_steps_keeps_initial():
    cfg = _config(n_steps=0, n_paths=17)
    ens = run_ensemble(cfg, initial=123.45)
    assert np.all(ens.samples == 123.45)


def test_run_ensemble_initial_validation():
    cfg = _config(n_paths=4)
    with pytest.raises(ValueError):
        run_ensemble(cfg, initial=np.array([1.0, 2.0, 3.0]))  # wrong length
    with pytest.raises(ValueError):
        run_ensemble(cfg, initial=0.001)  # below the floor
    for bad in (math.nan, math.inf, np.array([1.0, math.nan, 2.0, 3.0])):
        with pytest.raises(ValueError, match="finite"):
            run_ensemble(cfg, initial=bad)
    with pytest.raises(ValueError):
        run_ensemble(cfg, dtype="float16")


def test_run_ensemble_block_splitting_invariant():
    # substreams are seeded per 16384-path block, so a full leading block is
    # bit-identical regardless of how many further paths run behind it
    block = 16384
    cfg_one = _config(n_paths=block, n_steps=20)
    cfg_more = _config(n_paths=block + 2500, n_steps=20)
    one = run_ensemble(cfg_one).samples
    more = run_ensemble(cfg_more).samples
    assert np.array_equal(one, more[:block])
    assert not np.array_equal(more[block:], one[:2500])  # fresh child stream


def _three_block_config():
    # two full 16384-path blocks and a partial one, started near the wall so
    # that paths reflect
    cfg = _config(n_paths=2 * 16384 + 100, n_steps=6, seed=5)
    return cfg, np.geomspace(0.02, 2e6, cfg.n_paths)


def test_run_ensemble_blocks_match_step_on_own_streams():
    # every block, whichever thread runs it, is step iterated on its own
    # child of SeedSequence(seed), bit for bit
    cfg, initial = _three_block_config()
    ens = run_ensemble(cfg, initial=initial)
    assert ens.n_reflections > 0
    expect = np.empty(cfg.n_paths)
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
        lo, hi = i * 16384, min((i + 1) * 16384, cfg.n_paths)
        rng = np.random.Generator(np.random.PCG64(child))
        m = initial[lo:hi]
        for _ in range(cfg.n_steps):
            m = step(m, cfg, rng.standard_normal(hi - lo))
        expect[lo:hi] = m
    assert np.array_equal(ens.samples, expect)


def _reference_step(m, xi, constants):
    # the reflected Euler-Maruyama update written out on its own, not through
    # the kernel: noise from the pre-step m, each path's affine drift, the
    # sum, then the fold below the wall; returns the new m and its reflections
    m1, m_init, two_m_init, lo_mul, lo_add, hi_mul, hi_add, var0, var2 = constants
    noise = np.sqrt((m * m) * var2 + var0) * xi
    moved = np.where(m >= m1, m * hi_mul + hi_add, m * lo_mul + lo_add) + noise
    below = moved < m_init
    return np.where(below, two_m_init - moved, moved), int(np.count_nonzero(below))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_run_ensemble_matches_a_reference_update(dtype):
    cfg, initial = _three_block_config()
    constants = simulate._folded_constants(cfg, dtype)
    expect, n_refl, n_up = np.empty(cfg.n_paths), 0, 0
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
        lo, hi = i * 16384, min((i + 1) * 16384, cfg.n_paths)
        rng = np.random.Generator(np.random.PCG64(child))
        m = initial[lo:hi].astype(dtype)
        for _ in range(cfg.n_steps):
            n_up += int(np.count_nonzero(m >= cfg.m1))
            m, k = _reference_step(m, rng.standard_normal(hi - lo, dtype=dtype), constants)
            assert m.dtype == dtype
            n_refl += k
        expect[lo:hi] = m
    np.maximum(expect, cfg.m_init, out=expect)
    assert n_up > 0 and n_refl > 0  # both branches and the wall are exercised
    ens = run_ensemble(cfg, initial=initial, dtype=dtype.__name__)
    assert ens.n_reflections == n_refl
    assert np.array_equal(ens.samples, expect)


def test_step_keeps_shape_and_matches_a_reference_update():
    cfg, initial = _three_block_config()
    constants = simulate._folded_constants(cfg, np.float64)
    rng = np.random.default_rng(4)
    for m in (initial[0], initial[::997], initial[::997][:30].reshape(5, 6)):
        noise = rng.standard_normal(np.shape(m))
        out = step(m, cfg, noise)
        expect, _ = _reference_step(np.asarray(m), noise, constants)
        assert np.shape(out) == np.shape(m)
        assert np.array_equal(out, expect)
    assert isinstance(step(initial[0], cfg, 0.5), float)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_run_ensemble_thread_count_invariant(monkeypatch, dtype):
    # one worker, two, and one per block (more workers than a 2-core host has cores)
    cfg, initial = _three_block_config()
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulate, "_cpu_count", lambda cpus=cpus: cpus)
        runs.append(run_ensemble(cfg, initial=initial, dtype=dtype))
    assert runs[0].n_reflections > 0
    for other in runs[1:]:
        assert other.n_reflections == runs[0].n_reflections
        assert np.array_equal(other.samples, runs[0].samples)


def test_run_ensemble_shuts_its_pool_down():
    cfg, initial = _three_block_config()
    before = threading.active_count()
    run_ensemble(cfg, initial=initial)
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_float32_overflow_raises():
    # m*m leaves the float32 range above about 1.8e19; float64 copes
    cfg = _config(n_paths=4, n_steps=3)
    with pytest.raises(ValueError, match="float32"):
        run_ensemble(cfg, initial=1e20, dtype="float32")
    assert np.all(np.isfinite(run_ensemble(cfg, initial=1e20).samples))


def test_samples_respect_floor_float32():
    cfg = _config(n_paths=2000, n_steps=200, dt=1e-4)
    ens = run_ensemble(cfg, dtype="float32")
    assert np.all(ens.samples >= cfg.m_init)
    assert ens.samples.dtype == np.float64  # returned in full precision


def test_ensemble_csv(tmp_path):
    ens = run_ensemble(_config(n_paths=5, n_steps=2))
    path = tmp_path / "s.csv"
    ens.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "income"
    assert len(lines) == 6
    assert all(float(v) >= 0.01 for v in lines[1:])
    # the joined writer gives the bytes of a per-row write, float32 samples too
    single = Ensemble(samples=ens.samples.astype(np.float32), config=ens.config, n_reflections=0)
    for e in (ens, single):
        e.to_csv(path)
        expect = "income\n" + "".join(f"{float(m)!r}\n" for m in e.samples)
        assert path.read_bytes() == expect.encode("utf-8")


def test_equilibrium_matches_analytic_model_quick():
    # scaled-down version of the long equivalence run: 2e4 paths, t = 3
    params = normalize(coeffs_to_effective(COEFFS_08, 4.0e5, 0.01))
    cfg = _config(n_paths=20000, n_steps=15000, dt=2e-4)
    ens = run_ensemble(cfg, dtype="float32")
    assert ks_distance(ens.samples, params) < 0.02


def test_ks_distance_sanity(params08):
    from incomedist import sample_incomes
    samp = sample_incomes(params08, 5000, seed=2)
    assert ks_distance(samp, params08) < 0.025
    assert ks_distance(np.full(100, 1e6), params08) > 0.9
    with pytest.raises(ValueError, match="need at least one sample"):
        ks_distance([], params08)
