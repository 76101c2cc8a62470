"""The three closed-loop workloads.

Each workload builds its inputs from the seed, then runs whole rounds of the
same operations until the timed work reaches the run length; each operation
starts when the previous one ends.  Only the calls into the package are
timed, and each time is scaled to the reference speed of `speed`.  The
first round's outputs are checked against the independent references in
`checks`; later rounds must reproduce them bit for bit.  Functions are looked
up on their modules at call time, so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import asdict

import numpy as np

import incomedist as idist
import incomedist.cli
from incomedist.presets import PRESETS, REFERENCE_STATS

import checks
from reference import ReferenceLaw
from speed import Speed


class Run:
    """Operation counts, timings and failures of one workload run.

    `ops` and `rounds` hold times at the reference speed of `speed`;
    `rounds_raw` holds the wall times, which decide when the run ends.
    `peak_rss_mb` is the process's peak resident memory at the end of the
    first round's operations, before its checks.  Later rounds are left out:
    the allocator keeps freed pages, so the peak crept up by about 8 MB a
    round on `survey-cli`, and the number of rounds follows the machine's
    speed.
    """

    def __init__(self, seconds: float, log, speed: Speed):
        self.seconds = seconds
        self.log = log
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.timed = 0.0
        self.rounds: list[float] = []
        self.rounds_raw: list[float] = []
        self.ops: dict[str, list[float]] = {}
        self.rounds_start = 0.0
        self.peak_rss_mb = 0.0
        self.on_rounds = None   # called once when the timed rounds begin

    def op(self, kind: str, fn, *args, **kwargs):
        self.attempted += 1
        out, raw, ref = self.speed.measure(fn, *args, **kwargs)
        self.ops.setdefault(kind, []).append(ref)
        self.rounds[-1] += ref
        self.rounds_raw[-1] += raw
        if len(self.rounds) == 1:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out

    def wrong(self, message: str) -> None:
        self.correct = False
        self.log(f"CHECK FAILED: {message}")

    def loop(self, body) -> None:
        """Run body(first) as whole rounds until the timed work reaches the run length."""
        if self.on_rounds is not None:
            self.on_rounds()
        self.rounds_start = time.perf_counter()
        while not self.rounds or self.timed < self.seconds:
            self.rounds.append(0.0)
            self.rounds_raw.append(0.0)
            body(len(self.rounds) == 1)
            self.timed += self.rounds_raw[-1]

    def same(self, first, again, what: str) -> None:
        if not _equal(first, again):
            self.wrong(f"{what} differs between rounds")


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


# ---------------------------------------------------------------- survey-cli

SURVEY_ROWS = 1_000_000


def _write_incomes(path: str, sample: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("income\n")
        for start in range(0, sample.size, 100_000):
            fh.write("\n".join(map(repr, sample[start:start + 100_000].tolist())) + "\n")


def _digest(path: str) -> str:
    # a digest, not the bytes: held across rounds, 1e6 rows of output would
    # add tens of MB to the peak memory of every round after the first
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def survey_cli(run: Run, seed: int, work: str) -> dict:
    """ccdf -> fit -> stats through `incomedist.cli.main` on a 1e6-row CSV."""
    truth = PRESETS["2008"]
    params = idist.preset_params("2008")
    sample = idist.sample_incomes(params, SURVEY_ROWS, seed=seed)
    paths = {k: os.path.join(work, f) for k, f in (
        ("incomes", "incomes.csv"), ("ccdf", "ccdf.csv"), ("fit", "fit.json"),
        ("params", "params.json"), ("stats", "stats.json"))}
    _write_incomes(paths["incomes"], sample)
    outputs = []

    def command(kind, argv):
        code = run.op(kind, incomedist.cli.main, argv + ["--quiet"])
        if code != 0:
            run.failed += 1
            run.wrong(f"incomedist {argv[0]} exited {code}")
        return code

    def body(first):
        command("ccdf", ["ccdf", paths["incomes"], "--output", paths["ccdf"]])
        command("fit", ["fit", paths["ccdf"], "--output", paths["fit"]])
        # untimed glue: `stats --params` refuses the nested fit.json layout
        with open(paths["fit"], encoding="utf-8") as fh:
            fit = json.load(fh)
        with open(paths["params"], "w", encoding="utf-8") as fh:
            json.dump(fit["params"], fh)
        command("stats", ["stats", "--params", paths["params"], "--incomes", paths["incomes"],
                          "--output", paths["stats"]])
        got = [_digest(paths[k]) for k in ("ccdf", "fit", "stats")]
        if not first:
            run.same(outputs, got, "survey-cli output files")
            return
        outputs.extend(got)
        try:
            table = np.loadtxt(paths["ccdf"], delimiter=",", skiprows=1)
            checks.check_ccdf_export(sample, table[:, 0], table[:, 1])
            del table
            dev = checks.check_fit("2008", SURVEY_ROWS, fit["params"], fit["T_bg"], truth)
            run.log("fit deviation 2008 n=1e6: " + " ".join(f"{k} {v:+.3f}" for k, v in dev.items()))
            with open(paths["stats"], encoding="utf-8") as fh:
                stats = json.load(fh)
            checks.check_gini(stats["gini"], sample)
            checks.check_class_stats(stats, ReferenceLaw(**fit["params"]))
        except checks.CheckError as exc:
            run.wrong(str(exc))

    run.loop(body)
    ccdf_s, fit_s, stats_s = (statistics.median(run.ops[k]) for k in ("ccdf", "fit", "stats"))
    return {"pipeline_s": (statistics.median(run.rounds), "s"), "ccdf_s": (ccdf_s, "s"),
            "fit_s": (fit_s, "s"), "stats_s": (stats_s, "s")}


# ----------------------------------------------------------- synthetic-waves

QUERY_SETS = 100
QUANTILES = (0.1, 0.9, 0.99)
GRID_POINTS = 400
GRID_PROBES = (0, 80, 160, 240, 320, 399)
REFIT_N = 100_000
REFIT_SEEDS = 3
# The deep-tail probes: the 2008 shape with a heavy, the published and a
# light tail exponent, at incomes 1e9..1e15 m0.  ccdf_eval forms the endpoint
# width as pi/2 - atan(m/m0), which cancels there, so every probe misses the
# 1e-8 tail contract on every run.  They count as failed operations.
DEEP_ALPHA1 = (0.2, 0.79, 1.4)
DEEP_FACTORS = (1e9, 1e12, 1e15)


def draw_sets(seed: int, count: int) -> list[dict]:
    """Random parameter sets across the validated domain, m0/T1 below 9."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        T = math.exp(rng.uniform(math.log(1e4), math.log(1e5)))
        m0 = T * rng.uniform(1.5, 6.0)
        sets.append(dict(
            T=T, T1=T * rng.uniform(0.7, 1.5), alpha=rng.uniform(1.2, 4.0),
            alpha1=rng.uniform(0.2, 2.0), m0=m0,
            m1=m0 * math.exp(rng.uniform(math.log(1.5), math.log(20.0))), m_init=0.01))
    return sets


def tail_points(raw: dict) -> list[float]:
    return [raw["m1"], 10.0 * raw["m1"], 1e3 * raw["m0"], 1e6 * raw["m0"]]


def query_grid(raw: dict) -> np.ndarray:
    grid = np.geomspace(raw["m_init"], 100.0 * raw["m1"], GRID_POINTS)
    grid[0] = raw["m_init"]
    return grid


def query(raw: dict) -> dict:
    """One model query: the analytic figures a user reads off one parameter set."""
    p = idist.normalize(idist.ModelParams(**raw))
    return {
        "c": (p.c_lo, p.c_hi),
        "fractions": idist.class_fractions(p),
        "ratios": idist.population_ratios(p),
        "median": idist.median_income(p),
        "quantiles": [idist.quantile(p, q) for q in QUANTILES],
        "grid": idist.ccdf_eval_many(p, query_grid(raw)),
        "tails": [idist.ccdf_eval(p, m) for m in tail_points(raw)],
    }


def check_query(out: dict, raw: dict, ref: ReferenceLaw) -> None:
    checks.check_normalization(*out["c"], ref)
    f_low, f_med, f_high = out["fractions"]
    r1, r2 = out["ratios"]
    checks.check_class_stats(dict(f_low=f_low, f_med=f_med, f_high=f_high, r1=r1, r2=r2,
                                  median=out["median"]), ref)
    for q, m in zip(QUANTILES, out["quantiles"]):
        checks.check_quantile(m, q, ref)
    grid = query_grid(raw)
    probes = [grid[i] for i in GRID_PROBES]
    checks.check_grid(grid, out["grid"], GRID_PROBES, ref.ccdf_many(probes))
    points = tail_points(raw)
    for m, got, want in zip(points, out["tails"], ref.ccdf_many(points)):
        checks.check_tail(m, got, want)


def refit(year: str, seed: int):
    params = idist.preset_params(year)
    incomes = idist.sample_incomes(params, REFIT_N, seed=seed)
    report = idist.fit_full(idist.rank_ccdf(incomes), params.m_init)
    return incomes, report, idist.compute_stats(report.params, incomes)


def synthetic_waves(run: Run, seed: int, work: str) -> dict:
    """Model queries on random parameter sets, deep-tail probes and preset refits."""
    sets = draw_sets(seed, QUERY_SETS)
    refs = [ReferenceLaw(**raw) for raw in sets]
    deep = []
    for a1 in DEEP_ALPHA1:
        raw = dict(PRESETS["2008"], alpha1=a1)
        ref = ReferenceLaw(**raw)
        p = idist.normalize(idist.ModelParams(**raw))
        for f in DEEP_FACTORS:
            m = f * raw["m0"]
            deep.append((p, m, ref.ccdf(m)))
    refits = [(year, 1000 * seed + j) for year in ("2008", "2006") for j in range(REFIT_SEEDS)]
    first_out: dict = {}

    for year in ("2006", "2008"):
        stats = asdict(idist.compute_stats(idist.preset_params(year)))
        try:
            checks.check_published(stats, REFERENCE_STATS[year])
            checks.check_class_stats(stats, ReferenceLaw(**PRESETS[year]))
        except checks.CheckError as exc:
            run.wrong(f"{year} preset: {exc}")

    def body(first):
        outs = [run.op("query", query, raw) for raw in sets]
        probes = [run.op("probe", idist.ccdf_eval, p, m) for p, m, _ in deep]
        fits = [run.op("refit", refit, year, s) for year, s in refits]
        failed_probes = 0
        for (p, m, want), got in zip(deep, probes):
            try:
                checks.check_tail(m, got, want)
            except checks.CheckError as exc:
                failed_probes += 1
                if first:
                    run.log(f"known fault (counted failed): alpha1={p.alpha1} {exc}")
        run.failed += failed_probes
        summary = {"queries": outs, "probes": probes,
                   "fits": [(r.to_json(), asdict(st)) for _, r, st in fits]}
        if not first:
            run.same(first_out, summary, "synthetic-waves outputs")
            return
        first_out.update(summary)
        try:
            for raw, ref, out in zip(sets, refs, outs):
                check_query(out, raw, ref)
            for (year, s), (incomes, report, stats) in zip(refits, fits):
                fitted = json.loads(report.params.to_json())
                dev = checks.check_fit(year, REFIT_N, fitted, report.T_bg, PRESETS[year])
                run.log(f"fit deviation {year} seed {s}: "
                        + " ".join(f"{k} {v:+.3f}" for k, v in dev.items()))
                checks.check_gini(stats.gini, incomes)
                checks.check_class_stats(asdict(stats), ReferenceLaw(**fitted))
        except checks.CheckError as exc:
            run.wrong(str(exc))

    run.loop(body)
    q = run.ops["query"]
    return {"query_ms": (1e3 * statistics.median(q), "ms"), "query_ms_p90": (1e3 * _p90(q), "ms"),
            "fit_s": (statistics.median(run.ops["refit"]), "s"),
            "round_s": (statistics.median(run.rounds), "s")}


# ----------------------------------------------------------- equilibrium-sim

SIM_PATHS = 4 * 16384 + 4000   # four full blocks and a partial one
SIM_STEPS = 1000
SIM_DT = 2e-4
KS_GRID = 500


def equilibrium_sim(run: Run, seed: int, work: str) -> dict:
    """run_ensemble from equilibrium samples, float32 and float64, then ks_distance."""
    params = idist.preset_params("2008")
    initial = idist.sample_incomes(params, SIM_PATHS, seed=seed)
    config = idist.SimConfig(coeffs=idist.effective_to_coeffs(params), m1=params.m1,
                             m_init=params.m_init, dt=SIM_DT, n_steps=SIM_STEPS,
                             n_paths=SIM_PATHS, seed=seed)
    # reference CDF on order statistics of the start sample, plus a far point
    order = np.sort(initial)
    grid = np.unique(np.concatenate([[params.m_init],
                                     order[np.linspace(0, SIM_PATHS - 1, KS_GRID).astype(int)],
                                     [1e4 * params.m1]]))
    cdf = 1.0 - np.array(ReferenceLaw(**PRESETS["2008"]).ccdf_many(grid))
    first_out: list = []

    def simulate(dtype):
        ens = idist.run_ensemble(config, initial=initial, dtype=dtype)
        return ens.samples, idist.ks_distance(ens.samples, params)

    def body(first):
        outs = [run.op(dtype, simulate, dtype) for dtype in ("float32", "float64")]
        if not first:
            run.same(first_out, outs, "ensemble samples")
            return
        first_out.extend(outs)
        for dtype, (samples, ks) in zip(("float32", "float64"), outs):
            try:
                upper = checks.check_ensemble(samples, params.m_init, grid, cdf, ks)
                run.log(f"{dtype}: ks_distance {ks:.5f}, reference bracket upper {upper:.5f}, "
                        f"bound {checks.ks_bound(SIM_PATHS):.5f}")
            except checks.CheckError as exc:
                run.wrong(f"{dtype}: {exc}")

    run.loop(body)
    work_per_round = 2 * SIM_PATHS * SIM_STEPS
    return {"path_steps_per_s": (work_per_round / statistics.median(run.rounds), "1/s"),
            "float32_s": (statistics.median(run.ops["float32"]), "s"),
            "float64_s": (statistics.median(run.ops["float64"]), "s")}


# workload and the `speed` probe that resembles its work
WORKLOADS = {
    "survey-cli": (survey_cli, "interpreter"),
    "synthetic-waves": (synthetic_waves, "interpreter"),
    "equilibrium-sim": (equilibrium_sim, "array"),
}
