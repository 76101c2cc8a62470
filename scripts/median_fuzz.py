#!/usr/bin/env python3
"""Fuzz the model's median over the scales the CLI validators accept.

Draws random laws over the ranges of the CLI property test (incomes from
1e-100 to 1e120, exponents from 1e-6 to 100 with alpha1 in [-5, 0] one time
in ten, temperatures 100 decades either side of m0) and, for each,
normalizes it and asks for its class
fractions and its median.  A law may raise ValueError (a documented error);
otherwise its fractions must be finite and its median m must satisfy
|ccdf_eval(m) - 0.5| <= 1e-6, and it must raise no RuntimeWarning.  Prints
the counts and every failing or warning law as JSON; exits 1 if any law
failed or warned.

    PYTHONPATH=src python scripts/median_fuzz.py [--laws 3000] [--seed 11]
"""

import argparse
import json
import math
import sys
import warnings

import numpy as np

from incomedist import ModelParams, ccdf_eval, class_fractions, median_income, normalize


def draw_law(rng) -> dict:
    """One law; the draws come in a fixed order, so a seed names the same laws."""
    m_init = 10.0 ** rng.uniform(-100.0, 100.0)
    m0 = m_init * 10.0 ** rng.uniform(1e-6, 10.0)
    m1 = m0 * 10.0 ** rng.uniform(0.0, 10.0)
    alpha1 = 10.0 ** rng.uniform(-6.0, 2.0) if rng.random() < 0.9 else rng.uniform(-5.0, 0.0)
    T = m0 * 10.0 ** rng.uniform(-100.0, 100.0)
    T1 = m0 * 10.0 ** rng.uniform(-100.0, 100.0)
    alpha = 10.0 ** rng.uniform(-6.0, 2.0)
    return dict(T=T, T1=T1, alpha=alpha, alpha1=alpha1, m0=m0, m1=m1, m_init=m_init)


def check(raw: dict) -> tuple[bool, str | None]:
    """(whether a median was returned, what went wrong or None); a ValueError is no fault."""
    try:
        params = normalize(ModelParams(**raw))
        fractions = class_fractions(params)
        median = median_income(params)
    except ValueError:
        return False, None
    if not all(math.isfinite(f) for f in fractions):
        return True, f"class fractions {fractions}"
    off = ccdf_eval(params, median) - 0.5
    return True, None if abs(off) <= 1e-6 else f"median {median!r}: ccdf off by {off:.3g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--laws", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    medians = failed = warned = 0
    for _ in range(args.laws):
        raw = draw_law(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            returned, fault = check(raw)
        medians += returned
        failed += bool(fault)
        warned += bool(caught)
        if fault or caught:
            print(json.dumps({"law": raw, "fault": fault, "warnings": [str(w.message) for w in caught]}))
    print(f"{args.laws} laws, {medians} medians returned, {failed} failed, {warned} warned")
    return 1 if failed or warned else 0


if __name__ == "__main__":
    sys.exit(main())
