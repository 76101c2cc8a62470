#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr N \\
        --run synthetic-waves:2901-2910 --run survey-cli:2901-2905 \\
        --claim synthetic-waves:round_s

For each seed of each --run, runs `python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0` once in each checkout (its working
directory), the parent first on even pairs and the change first on odd ones,
and reads the JSON object on the last line of each run.  A run that exits
non-zero or whose last line is no such object is kept as failed, with its
exit code and the tail of its stderr, and the comparison goes on.  It writes
BENCH_<pr>.json (or --out) in the change checkout: for each workload and
end-to-end metric of the change's BENCHMARK.json, both sides' runs, median
and quartiles (statistics.quantiles, exclusive method), the change in
percent and the number of pairs in which the change did better (a failed
run counts in no side's statistics, and its pair as no win), and a verdict
at the metric's bound (see `verdict`); and each side's share of failed
operations, and whether the change's rose.  A --claim is checked as the
benchmark states a gain: better in at least nine of ten pairs, and the
medians further apart than the parent's quartile spread.
The file is written after each workload, so an interrupted comparison
keeps the workloads it finished.  Uses the standard library only, and calls
nothing of the package but perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


STDERR_TAIL = 2000  # the characters of a failed run's stderr kept in the report


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one benchmark run in checkout, or {"error": ...} for a failed run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout, proc.stderr)


def parse_run(code: int, stdout: str, stderr: str) -> dict:
    """A run's result from its exit code and output: its last line's JSON object, which has metrics."""
    if code == 0:
        lines = stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            out = None
        if isinstance(out, dict) and isinstance(out.get("metrics"), dict):
            return out
    return {"error": {"exit_code": code, "stderr_tail": stderr[-STDERR_TAIL:]}}


def summary(runs: list) -> dict:
    """Median and quartiles of the runs; None for each statistic the runs are too few for."""
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) >= 2 else (None, None, None)
    return {"median": round(statistics.median(runs), 4) if runs else None,
            "q1": None if q1 is None else round(q1, 4), "q3": None if q3 is None else round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def verdict(before: list, after: list, metric: dict) -> str | None:
    """The change's runs against the parent's in metric, judged at its bound, a fraction of the parent's median.

    "worse": the change's median is worse than the parent's by more than
    the bound.  "unresolved": otherwise, the parent's quartile spread is
    wider than the bound and not every change run beats every parent run,
    or too few runs finished for a spread.  "better": the change's median
    is better by more than the parent's quartile spread (no claim: a gain
    also needs claim_holds' pair wins).  "within": the rest.  None for a
    metric with no bound.
    """
    if "bound" not in metric:
        return None
    if len(before) < 2 or not after:
        return "unresolved"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    median = statistics.median(before)
    loss = sign * (statistics.median(after) - median)
    q1, _, q3 = statistics.quantiles(before, n=4)
    allowed = metric["bound"] * abs(median)
    if loss > allowed:
        return "worse"
    if q3 - q1 > allowed and not all(sign * (a - b) < 0.0 for a in after for b in before):
        return "unresolved"
    return "better" if -loss > q3 - q1 else "within"


def compare(results: dict, metrics: list, seeds: list) -> dict:
    """One workload's entry from its paired results {"parent": [...], "change": [...]}, failed runs among them."""
    done = {side: [r for r in rs if "error" not in r] for side, rs in results.items()}
    entry = {
        "seeds": f"{seeds[0]}-{seeds[-1]}", "pairs": len(seeds),
        "all_correct": all("error" not in r and r["correct"] for side in results.values() for r in side),
        "failed_runs": {side: [dict(seed=seed, **r["error"]) for seed, r in zip(seeds, rs) if "error" in r]
                        for side, rs in results.items()},
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in done.items()},
        "attempted_ops": {side: sum(r["attempted"] for r in rs) for side, rs in done.items()},
    }
    share = {side: entry["failed_ops"][side] / entry["attempted_ops"][side] if entry["attempted_ops"][side] else None
             for side in done}
    entry["failed_share"] = share
    entry["failed_share_rose"] = (None if None in share.values() else share["change"] > share["parent"])
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)

        def value(r):
            return None if "error" in r else r["metrics"][name]["value"]

        pairs = [(value(a), value(b)) for a, b in zip(results["change"], results["parent"])]
        before = [r["metrics"][name]["value"] for r in done["parent"]]
        after = [r["metrics"][name]["value"] for r in done["change"]]
        entry[name] = {
            "before": summary(before), "after": summary(after),
            "change_pct": (round(100.0 * (statistics.median(after) / statistics.median(before) - 1.0), 1)
                           if before and after else None),
            f"after_{metric['better']}_in_pairs": sum(a is not None and b is not None and sign * (a - b) < 0.0
                                                      for a, b in pairs),
            "verdict": verdict(before, after, metric),
        }
    return entry


def claim_holds(entry: dict, metric: dict) -> dict:
    """Whether entry shows a gain in metric: better in >= 9 of 10 pairs, medians apart by more than the IQR."""
    m = entry[metric["name"]]
    wins = m[f"after_{metric['better']}_in_pairs"]
    if m["before"]["q1"] is None or m["after"]["median"] is None:  # too few runs finished
        return {"pairs_better": wins, "pairs": entry["pairs"], "median_gain": None,
                "parent_quartile_spread": None, "holds": False}
    gain = m["before"]["median"] - m["after"]["median"]
    if metric["better"] != "lower":
        gain = -gain
    spread = m["before"]["q3"] - m["before"]["q1"]
    return {"pairs_better": wins, "pairs": entry["pairs"], "median_gain": round(gain, 4),
            "parent_quartile_spread": round(spread, 4),
            "holds": wins >= 0.9 * entry["pairs"] and gain > spread}


def write(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEEDS",
                    help="a workload and its seeds, as 2901-2910; at least two seeds; repeatable")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the end-to-end metric a gain is claimed in")
    ap.add_argument("--out", help="output file (default: BENCH_<pr>.json in the change checkout)")
    ap.add_argument("--note", default="", help="a line on the machine, kept in the output")
    args = ap.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    out_path = args.out or os.path.join(args.change, f"BENCH_{args.pr}.json")
    runs = []
    for spec in args.run:
        workload, _, seeds = spec.partition(":")
        runs.append((workload, seed_range(seeds)))
        if len(runs[-1][1]) < 2:
            ap.error(f"--run {spec}: need at least two seeds for quartiles")
    report = {
        "machine": f"{platform.machine()}, nproc {os.cpu_count()}, {platform.system()}, "
                   f"Python {platform.python_version()}" + (f"; {args.note}" if args.note else ""),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 "
                   "in each checkout, alternating which side runs first (scripts/bench_pairs.py)",
        "end_to_end": {},
    }
    for workload, seeds in runs:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(getattr(args, side), workload, seed, args.seconds)
                results[side].append(run)
                if "error" in run:
                    print(f"{workload} seed {seed} {side}: FAILED, exit code {run['error']['exit_code']}\n"
                          + run["error"]["stderr_tail"], flush=True)
                else:
                    print(f"{workload} seed {seed} {side}: "
                          + ", ".join(f"{k} {v['value']:.4g}" for k, v in run["metrics"].items()), flush=True)
        entry = report["end_to_end"][workload] = compare(results, metrics, seeds)
        for metric in metrics:
            m = entry[metric["name"]]
            print(f"{workload} {metric['name']}: {m['verdict']} ({m['change_pct']}%, bound "
                  f"{metric.get('bound')}; parent quartiles {m['before']['q1']}-{m['before']['q3']})", flush=True)
        print(f"{workload} failed share: {entry['failed_share']}, rose: {entry['failed_share_rose']}", flush=True)
        write(out_path, report)
    if args.claim:
        workload, _, name = args.claim.partition(":")
        metric = next(m for m in metrics if m["name"] == name)
        report["claim"] = dict(workload=workload, metric=name,
                               **claim_holds(report["end_to_end"][workload], metric))
        print(f"claim {args.claim}: {report['claim']}")
        write(out_path, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
