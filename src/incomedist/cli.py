"""Command-line front end: plumbing from CSV/JSON files to the library calls.

Subcommands: ccdf, fuse, fit, eval, simulate, stats, rank.  Every subcommand
is deterministic given its inputs (and simulate's --seed); outputs are UTF-8
with LF line endings and repr-formatted floats, so identical runs produce
identical bytes.

Exit codes: 0 success, 1 internal error, 2 input/parse error, 3 estimation
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from incomedist.empirics import (
    EmpiricalCCDF,
    _overlap_factor,
    _write_csv,
    forbes_incomes,
    fuse,
    load_incomes,
    load_wealth_pairs,
    rank_ccdf,
)
from incomedist.estimate import (
    DegenerateTailWarning,
    EstimationError,
    fit_full,
    fit_rank,
)
from incomedist.inequality import compute_stats, gini
from incomedist.model import (
    _COEFF_KEYS,
    _PARAM_KEYS,
    _log_grid,
    LangevinCoeffs,
    ModelParams,
    ccdf_eval_many,
    coeffs_to_effective,
    effective_to_coeffs,
    normalize,
)
from incomedist.simulate import SimConfig, ks_distance, run_ensemble, stability_bound

__all__ = ["main"]


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _out_path(args) -> str:
    return args.output if args.output else args.default_output


def _write_line(path: str, line: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line + "\n")


def _load_params(path: str) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        return ModelParams.from_json(fh.read())


def _load_any_ccdf(path: str) -> EmpiricalCCDF:
    """A CCDF export (two cells a row, header optional) or a one-column income list."""
    with open(path, encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), "")
    if first.count(",") == 1:
        return EmpiricalCCDF.from_csv(path)
    return rank_ccdf(load_incomes(path))


def cmd_ccdf(args) -> int:
    ccdf = rank_ccdf(load_incomes(args.incomes))
    out = _out_path(args)
    ccdf.to_csv(out)
    _say(args, f"wrote {out} ({ccdf.n} points)")
    return 0


def cmd_fuse(args) -> int:
    survey = load_incomes(args.survey)
    rich = forbes_incomes(load_wealth_pairs(args.wealth))
    factor = args.factor
    if factor is None:
        if not rich.size:
            raise ValueError("empty rich list and no --factor given")
        factor = _overlap_factor(survey, rich, cut=args.cut, top_k=args.top_k)
    fused = fuse(survey, rich, factor=factor)
    out = _out_path(args)
    _write_csv(out, "income", fused)
    print(f"factor: {factor!r}")
    _say(args, f"wrote {out} ({len(fused)} incomes; {len(rich)} from the rich list)")
    return 0


def cmd_fit(args) -> int:
    ccdf = _load_any_ccdf(args.data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateTailWarning)
        report = fit_full(ccdf, args.m_init)
    out = _out_path(args)
    _write_line(out, report.to_json())
    _say(args, report.summary())
    _say(args, f"wrote {out}")
    return 0


def cmd_eval(args) -> int:
    params = _load_params(args.params)
    if args.grid:
        try:
            lo_s, hi_s, n_s = args.grid.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ValueError(f"--grid must be lo:hi:n, got {args.grid!r}") from None
    else:
        lo, hi, n = params.m_init, 100.0 * params.m1, 400
    if not (0.0 < lo < hi and n >= 2):
        raise ValueError(f"bad grid range {lo}:{hi}:{n}")
    grid = _log_grid(lo, hi, n)
    pi = ccdf_eval_many(params, grid)
    out = _out_path(args)
    _write_csv(out, "income,ccdf", grid, pi)
    _say(args, f"wrote {out} ({n} points, {lo:.6g} to {hi:.6g})")
    return 0


def cmd_simulate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    obj = json.loads(text)
    keys = obj if isinstance(obj, dict) else {}
    params = None
    law_flags = [flag for flag, v in (("--m1", args.m1), ("--m-init", args.m_init)) if v is not None]
    if "params" in keys or set(_PARAM_KEYS).issubset(keys):
        params = ModelParams.from_json(text)
        run = {"coeffs": effective_to_coeffs(params), "m1": params.m1, "m_init": params.m_init}
    elif set(_COEFF_KEYS).issubset(keys):
        coeffs = LangevinCoeffs.from_json(text)
        if args.m1 is None:
            raise ValueError("coefficient input needs --m1")
        run = {"coeffs": coeffs, "m1": args.m1,
               "m_init": 0.01 if args.m_init is None else args.m_init}
        law_flags = []
    elif "coeffs" in keys:
        run = vars(SimConfig.from_json(text))  # the saved run, validated
    else:
        raise ValueError(f"{args.config}: neither model parameters, coefficients, "
                         "nor a simulation config")
    if law_flags:
        raise ValueError(f"{' and '.join(law_flags)}: coefficient input only "
                         "(this input sets its own m1 and m_init)")
    # a flag given replaces its field; the defaults fill what neither gives
    flags = {k: v for k in ("dt", "n_steps", "n_paths", "seed")
             if (v := getattr(args, k)) is not None}
    config = SimConfig(**{"dt": 0.01 * stability_bound(run["coeffs"]), "n_steps": 20_000,
                          "n_paths": 10_000, "seed": 0, **run, **flags})
    ens = run_ensemble(config, initial=args.initial,
                       dtype="float32" if args.float32 else "float64")
    out = _out_path(args)
    ens.to_csv(out)
    if params is None:
        try:
            params = normalize(coeffs_to_effective(config.coeffs, config.m1, config.m_init))
        except ValueError:  # TailDivergenceError among them
            params = None
    if params is None:
        print("ks: undefined (no normalizable equilibrium)")
    else:
        print(f"ks: {ks_distance(ens.samples, params)!r}")
    c = config.coeffs  # dt against the bulk's relaxation time tau = B0 / A0^2
    dt_tau = f"{config.dt * c.A0 / c.B0 * c.A0:.4g}" if c.A0 > 0.0 else "undefined"
    _say(args, f"wrote {out} ({config.n_paths} paths, dt={config.dt:.6g}, dt/tau={dt_tau}, "
               f"{config.n_steps} steps, {ens.n_reflections} reflections)")
    return 0


def cmd_stats(args) -> int:
    if args.params is None and args.incomes is None:
        raise ValueError("need --params and/or --incomes")
    incomes = load_incomes(args.incomes) if args.incomes else None
    out = _out_path(args)
    if args.params is None:
        g = gini(incomes)
        _write_line(out, json.dumps({"gini": g, "n": len(incomes)}, sort_keys=True))
        _say(args, f"gini {g:.4f} over {len(incomes)} incomes")
    else:
        params = _load_params(args.params)
        stats = compute_stats(params, incomes)
        _write_line(out, stats.to_json())
        _say(args, stats.table())
    _say(args, f"wrote {out}")
    return 0


def cmd_rank(args) -> int:
    values = load_incomes(args.values)
    try:
        rf = fit_rank(values)
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_path(args)
    _write_line(out, rf.to_json())
    _say(args, f"alpha_rank {rf.alpha_rank:.4f}  alpha_pareto {rf.alpha_pareto:.4f} "
               f"+- {rf.stderr:.4f}")
    _say(args, f"wrote {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="output file (default: per-subcommand name in cwd)")
    common.add_argument("--quiet", action="store_true", help="suppress summary chatter")

    p = argparse.ArgumentParser(
        prog="incomedist",
        description="Threshold drift-diffusion model of income distribution: "
                    "empirical CCDFs, three-step fits, equilibrium checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ccdf", parents=[common],
                        help="income CSV -> rank CCDF with l/(n+1) plotting positions")
    sp.add_argument("incomes", help="one-column income CSV")
    sp.set_defaults(func=cmd_ccdf, default_output="ccdf.csv")

    sp = sub.add_parser("fuse", parents=[common],
                        help="fuse survey incomes with a scaled rich list")
    sp.add_argument("survey", help="one-column income CSV")
    sp.add_argument("wealth", help="CSV with header id,wealth_prev,wealth_curr")
    sp.add_argument("--factor", type=float, help="fixed scale factor (skip the alignment rule)")
    sp.add_argument("--cut", type=float, help="survey incomes above this form the overlap segment")
    sp.add_argument("--top-k", type=int, default=6, help="overlap segment size when --cut absent")
    sp.set_defaults(func=cmd_fuse, default_output="fused.csv")

    sp = sub.add_parser("fit", parents=[common],
                        help="three-step fit of the two-crossover model")
    sp.add_argument("data", help="CCDF export or one-column income CSV")
    sp.add_argument("--m-init", type=float, default=0.01, dest="m_init",
                    help="accounting floor income (default 0.01)")
    sp.set_defaults(func=cmd_fit, default_output="fit.json")

    sp = sub.add_parser("eval", parents=[common],
                        help="evaluate the model CCDF on a log-spaced grid")
    sp.add_argument("params", help="model parameter JSON")
    sp.add_argument("--grid", help="lo:hi:n (default m_init:100*m1:400)")
    sp.set_defaults(func=cmd_eval, default_output="model_ccdf.csv")

    sp = sub.add_parser("simulate", parents=[common],
                        help="Euler-Maruyama ensemble of the threshold Langevin dynamics")
    sp.add_argument("config", help="parameter JSON, coefficient JSON, or a sim config JSON "
                                   "(run as saved; a run flag given replaces its field)")
    sp.add_argument("--dt", type=float, help="time step (default: 1%% of the stability bound)")
    sp.add_argument("--n-steps", type=int, dest="n_steps", help="steps (default 20000)")
    sp.add_argument("--n-paths", type=int, dest="n_paths", help="paths (default 10000)")
    sp.add_argument("--m1", type=float,
                    help="threshold income (coefficient input only, where it is required)")
    sp.add_argument("--m-init", type=float, dest="m_init",
                    help="reflecting floor (coefficient input only; default 0.01)")
    sp.add_argument("--initial", type=float,
                    help="common initial income (default: the temperature B0/A0, "
                         "or m_init where that is lower or A0 = 0)")
    sp.add_argument("--float32", action="store_true", help="single-precision paths (faster)")
    sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sp.set_defaults(func=cmd_simulate, default_output="samples.csv")

    sp = sub.add_parser("stats", parents=[common],
                        help="class fractions/ratios/median from params; Gini from incomes")
    sp.add_argument("--params", help="model parameter JSON")
    sp.add_argument("--incomes", help="one-column income CSV (sample Gini)")
    sp.set_defaults(func=cmd_stats, default_output="stats.json")

    sp = sub.add_parser("rank", parents=[common],
                        help="rank-plot exponent from raw values")
    sp.add_argument("values", help="one-column value CSV")
    sp.set_defaults(func=cmd_rank, default_output="rank_fit.json")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EstimationError, DegenerateTailWarning) as exc:
        print(f"error: estimation failed: {exc}", file=sys.stderr)
        return 3
    # input errors: ParseError, JSONDecodeError, StabilityError and
    # TailDivergenceError are ValueErrors too
    except (OSError, ValueError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the documented internal-error code
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
