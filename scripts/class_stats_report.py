#!/usr/bin/env python3
"""Tabulate model class statistics against the published survey values.

For each wave the script prints the three class fractions, the two population
ratios and the model median, next to the reference numbers the parameter sets
were calibrated to reproduce.
"""

import argparse

from incomedist import compute_stats, preset_params
from incomedist.presets import REFERENCE_STATS


def report(year: str) -> None:
    params = preset_params(year)
    ref = REFERENCE_STATS[year]
    stats = compute_stats(params)
    rows = [
        ("low-income fraction (%)", stats.f_low, ref["f_low"]),
        ("medium-income fraction (%)", stats.f_med, ref["f_med"]),
        ("high-income fraction (%)", stats.f_high, ref["f_high"]),
        ("r1 low/medium", stats.r1, ref["r1"]),
        ("r2 medium/high", stats.r2, ref["r2"]),
    ]
    print(f"wave {year}  (T={params.T:.4g}, alpha={params.alpha}, "
          f"alpha1={params.alpha1}, m0={params.m0:.3g}, m1={params.m1:.3g})")
    print(f"  {'quantity':<28} {'model':>10} {'reference':>10} {'deviation':>10}")
    for name, got, want in rows:
        print(f"  {name:<28} {got:>10.4f} {want:>10.4f} {got / want - 1.0:>+10.2%}")
    print(f"  {'median income':<28} {stats.median:>10.2f}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--year", action="append", choices=["2006", "2008"],
                    help="wave to report (repeatable; default: both)")
    args = ap.parse_args()
    for year in args.year or ["2006", "2008"]:
        report(year)


if __name__ == "__main__":
    main()
