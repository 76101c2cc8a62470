"""In-memory span recorder for the traced benchmark run.

`Tracer.install` wraps the public functions named in `TARGETS` at every
module name through which a caller reaches them (the package namespace, the
defining module and each module that imported the function by name), so a
call records one span whatever route it took.  A span is
[name, start, end, parent, via, rows]: `via` is the module whose namespace
the caller went through (it tells `ccdf_eval_many` called by `estimate` from
the same function called by `simulate`), `rows` the number of records a
loader or writer handled.  Calls to `scipy.integrate.quad` are counted, not
spanned.  Spans stay in memory until `dump` writes them once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import scipy.integrate

MODULES = ("cli", "empirics", "estimate", "model", "simulate", "inequality", "presets")

# (module, function) pairs; methods of EmpiricalCCDF are handled in install()
TARGETS = (
    ("cli", "main"), ("cli", "cmd_ccdf"), ("cli", "cmd_fit"), ("cli", "cmd_stats"),
    ("empirics", "load_incomes"), ("empirics", "rank_ccdf"),
    ("estimate", "fit_full"), ("estimate", "refine_temperature"),
    ("model", "normalize"), ("model", "ccdf_eval"), ("model", "ccdf_table"),
    ("model", "ccdf_eval_many"), ("model", "quantile"), ("model", "sample_incomes"),
    ("simulate", "run_ensemble"), ("simulate", "ks_distance"),
    ("inequality", "class_fractions"), ("inequality", "median_income"),
    ("inequality", "gini"), ("inequality", "compute_stats"),
    ("presets", "preset_params"),
)

# records handled by a call, from its arguments and result
_ROWS = {
    "empirics.load_incomes": lambda args, out: len(out),
    "empirics.from_csv": lambda args, out: out.n,
    "empirics.to_csv": lambda args, out: args[0].n,
    "simulate.run_ensemble": lambda args, out: args[0].n_paths * args[0].n_steps,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.quad_calls = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, via: str, fn):
        spans, stack = self.spans, self._stack
        rows = _ROWS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, via, 0]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if rows is not None:
                span[5] = rows(args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("incomedist")
        mods = {m: importlib.import_module(f"incomedist.{m}") for m in MODULES}
        namespaces = [("incomedist", pkg)] + list(mods.items())
        for mod, attr in TARGETS:
            original = getattr(mods[mod], attr)
            for via, ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, self._wrap(f"{mod}.{attr}", via, original))
        cls = mods["empirics"].EmpiricalCCDF
        self._set(cls, "to_csv", self._wrap("empirics.to_csv", "empirics", cls.to_csv))
        from_csv = cls.__dict__["from_csv"].__func__
        self._set(cls, "from_csv",
                  classmethod(self._wrap("empirics.from_csv", "empirics", from_csv)))

        quad = scipy.integrate.quad

        @functools.wraps(quad)
        def counted(*args, **kwargs):
            self.quad_calls += 1
            return quad(*args, **kwargs)

        self._set(scipy.integrate, "quad", counted)

    def reset_quad_calls(self) -> None:
        self.quad_calls = 0

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "via", "rows"],
                       "quad_calls": self.quad_calls, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, since: float, rounds: int, quad_calls: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of the timed rounds.

    Times are means per call, counts are per round, and a layer the workload
    never calls reads 0.  `presets.preset_params_ms` also takes the set-up
    calls, since set-up is where that layer runs.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own_total = defaultdict(float)
    rows = defaultdict(int)
    via = defaultdict(int)
    for s, t_own in zip(spans, own):
        name = s[0]
        if s[1] < since and name != "presets.preset_params":
            continue
        calls[name] += 1
        total[name] += s[2] - s[1]
        own_total[name] += t_own
        rows[name] += s[5]
        via[(name, s[4])] += 1

    def mean(name, scale=1.0):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    def rate(name):
        return rows[name] / total[name] if total[name] else 0.0

    evals = via[("model.ccdf_eval_many", "estimate")]
    cli_own = sum(own_total[n] for n in ("cli.main", "cli.cmd_ccdf", "cli.cmd_fit", "cli.cmd_stats"))
    return {
        "cli.ccdf_s": (mean("cli.cmd_ccdf"), "s"),
        "cli.fit_s": (mean("cli.cmd_fit"), "s"),
        "cli.stats_s": (mean("cli.cmd_stats"), "s"),
        "cli.self_s": (cli_own / calls["cli.main"] if calls["cli.main"] else 0.0, "s"),
        "empirics.load_incomes_rows_per_s": (rate("empirics.load_incomes"), "1/s"),
        "empirics.from_csv_rows_per_s": (rate("empirics.from_csv"), "1/s"),
        "empirics.to_csv_rows_per_s": (rate("empirics.to_csv"), "1/s"),
        "empirics.rank_ccdf_s": (mean("empirics.rank_ccdf"), "s"),
        "estimate.fit_full_s": (mean("estimate.fit_full"), "s"),
        "estimate.segment_s": (own_total["estimate.fit_full"] / calls["estimate.fit_full"]
                               if calls["estimate.fit_full"] else 0.0, "s"),
        "estimate.refine_s": (mean("estimate.refine_temperature"), "s"),
        "estimate.refine_evals": (evals / calls["estimate.refine_temperature"]
                                  if calls["estimate.refine_temperature"] else 0.0, "count"),
        "estimate.eval_ms": (1e3 * total["estimate.refine_temperature"] / evals if evals else 0.0, "ms"),
        "model.ccdf_table_calls": (calls["model.ccdf_table"] / rounds, "count"),
        "model.ccdf_table_ms": (mean("model.ccdf_table", 1e3), "ms"),
        "model.ccdf_eval_many_ms": (mean("model.ccdf_eval_many", 1e3), "ms"),
        "model.sample_incomes_ms": (mean("model.sample_incomes", 1e3), "ms"),
        "model.normalize_calls": (calls["model.normalize"] / rounds, "count"),
        "model.normalize_ms": (mean("model.normalize", 1e3), "ms"),
        "model.ccdf_eval_calls": (calls["model.ccdf_eval"] / rounds, "count"),
        "model.ccdf_eval_us": (mean("model.ccdf_eval", 1e6), "us"),
        "model.quantile_ms": (mean("model.quantile", 1e3), "ms"),
        "model.quad_calls": (quad_calls / rounds, "count"),
        "simulate.run_ensemble_s": (mean("simulate.run_ensemble"), "s"),
        "simulate.ns_per_path_step": (1e9 * total["simulate.run_ensemble"] / rows["simulate.run_ensemble"]
                                      if rows["simulate.run_ensemble"] else 0.0, "ns"),
        "simulate.ks_distance_ms": (mean("simulate.ks_distance", 1e3), "ms"),
        "inequality.class_fractions_ms": (mean("inequality.class_fractions", 1e3), "ms"),
        "inequality.median_income_ms": (mean("inequality.median_income", 1e3), "ms"),
        "inequality.gini_s": (mean("inequality.gini"), "s"),
        "inequality.compute_stats_ms": (mean("inequality.compute_stats", 1e3), "ms"),
        "presets.preset_params_ms": (mean("presets.preset_params", 1e3), "ms"),
    }
