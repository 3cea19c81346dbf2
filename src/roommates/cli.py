"""Command-line interface.

Experiment subcommands (scaling, census, ex-scaling) read an optional JSON
config file; explicit flags override file values.  They write a data CSV
plus a JSON sidecar.  Estimator subcommands print a single JSON record to
stdout.  Exit codes: 0 success, 2 config or instance error, 3 resource cap
or a dead worker process, 4 I/O; a library fault is a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures.process import BrokenProcessPool

from .combinatorics import double_factorial, single_cycle_count
from .estimators import EX_MIN_SAMPLES, estimate_conditional_two_point, estimate_expected_X
from .experiments import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    gpi_weighted_frequency,
    reference_with_cycles,
    run_experiment,
)
from .exponent import tstar_closed_form, tstar_grid_search
from .instances import (InstanceParseError, InvalidInstanceError, RngStream, TieError,
                        check_agent_count, parse_instance)
from .matchings import Matching, symmetric_difference
from .solvers import ResourceCapError, enumerate_stable, irving_solve


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    """Integers separated by commas or spaces, as ``flag`` takes them."""
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def _experiment_config(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        "n_grid": _parse_ints(args.n_grid, "--n-grid") if args.n_grid else None,
        "replicates": args.replicates,
        "samples": args.samples,
        "master_seed": args.seed,
        "workers": args.workers,
        "output": args.output,
        "proposal_rate": args.proposal_rate,
        "nu_cap": args.nu_cap,
        "chunk_size": args.chunk_size,
        "enum_cap": args.enum_cap,
    }
    values: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
        unknown = set(values) - set(overrides)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if "n_grid" not in values:
        raise ConfigError("n_grid is required (flag --n-grid or config file)")
    if isinstance(values["n_grid"], list):
        values["n_grid"] = tuple(values["n_grid"])
    values.setdefault("output", f"{kind}.csv")
    try:
        return ExperimentConfig(kind=kind, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--n-grid", help="comma-separated even agent counts")
    sub.add_argument("--replicates", type=int)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--output")
    sub.add_argument("--proposal-rate", type=float)
    sub.add_argument("--nu-cap", type=int)
    sub.add_argument("--chunk-size", type=int)
    sub.add_argument("--enum-cap", type=int)


def _estimate_record(args, est, t0: float) -> str:
    return json.dumps(
        {
            "estimate": est.mean,
            "stderr": est.stderr,
            "ess": est.ess,
            "samples": est.samples,
            "seed": args.seed,
            "wall_time": time.perf_counter() - t0,
        }
    )


def _cmd_experiment(args) -> int:
    run_experiment(_experiment_config(args.command, args))
    return 0


def _cmd_solve(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        profile = parse_instance(fh.read())
    result = irving_solve(profile)
    if result.found:
        print("stable matching exists")
        print(result.matching.to_text())
    else:
        print("no stable matching")
    return 0


def _cmd_census_instance(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        profile = parse_instance(fh.read())
    census = enumerate_stable(profile, limit=args.limit)
    print(f"X = {census.X}")
    for m in census.stable_list:
        print(m.to_text())
    return 0


def _cmd_counts(args) -> int:
    n = args.n
    check_agent_count(n)
    df = double_factorial(n - 1)
    total = df.exact if df.exact is not None else math.exp(df.log_value)
    print(f"n = {n}: perfect matchings (n-1)!! = {total}")
    enumerable = n <= 12
    census: dict[int, int] = {}
    if enumerable:
        from .matchings import iter_perfect_matchings

        ref = Matching.consecutive(n)
        for m in iter_perfect_matchings(n):
            dec = symmetric_difference(ref, m)
            if dec.mu == 1:
                nu = dec.total_length // 2
                census[nu] = census.get(nu, 0) + 1
    header = f"{'nu':>4} {'single-cycle count':>20}"
    if enumerable:
        header += f" {'enumerated':>12} {'match':>6}"
    print(header)
    for nu in range(2, n // 2 + 1):
        cv = single_cycle_count(n, nu)
        cnt = cv.exact if cv.exact is not None else math.exp(cv.log_value)
        line = f"{nu:>4} {cnt:>20}"
        if enumerable:
            got = census.get(nu, 0)
            line += f" {got:>12} {'ok' if got == cv.exact else 'FAIL':>6}"
        print(line)
    return 0


def _cmd_tstar(args) -> int:
    if args.grid is not None and not 0 < args.grid < math.inf:
        raise ConfigError(f"--grid must be positive and finite, got {args.grid}")
    sol = tstar_closed_form()
    record = {
        "s": sol.s,
        "alpha": sol.alpha,
        "gamma": sol.gamma,
        "t_star": sol.t_star,
        "objective_terms": list(sol.objective_terms),
    }
    if args.grid is not None:
        g = tstar_grid_search(args.grid)
        record["grid"] = {
            "s": g.s,
            "alpha": g.alpha,
            "gamma": g.gamma,
            "t_star": g.t_star,
            "resolution": args.grid,
        }
    print(json.dumps(record))
    return 0


def _cmd_estimate(args) -> int:
    floor = EX_MIN_SAMPLES if args.target == "ex" else 1
    if args.samples < floor:
        raise ConfigError(f"--samples must be >= {floor}, got {args.samples}")
    if args.proposal_rate is not None and not 0 < args.proposal_rate < math.inf:
        raise ConfigError(f"--proposal-rate must be positive and finite, got {args.proposal_rate}")
    t0 = time.perf_counter()
    rng = RngStream(args.seed)
    if args.target == "ex":
        est = estimate_expected_X(
            args.n, args.samples, rng, proposal_rate=args.proposal_rate
        )
    elif args.target == "two-point":
        if args.cycles:
            lengths = list(_parse_ints(args.cycles, "--cycles"))
        elif args.cycle:
            lengths = [args.cycle]
        else:
            raise ConfigError("two-point needs --cycle LEN or --cycles L1,L2,...")
        m, m1 = reference_with_cycles(args.n, lengths)
        est = estimate_conditional_two_point(
            m, m1, args.samples, rng, proposal_rate=args.proposal_rate
        )
    else:  # gpi
        est = gpi_weighted_frequency(
            args.n, args.samples, rng, proposal_rate=args.proposal_rate
        )
    print(_estimate_record(args, est, t0))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roommates",
        description="Stable roommates with random preferences: experiments and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run the {kind} experiment")
        _add_experiment_flags(sp)

    sp = sub.add_parser("solve", help="decide one instance file")
    sp.add_argument("instance")

    sp = sub.add_parser("census-instance", help="count all stable matchings of one instance file")
    sp.add_argument("instance")
    sp.add_argument("--limit", type=int, help="raise the enumeration agent cap")

    sp = sub.add_parser("counts", help="print counting tables")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("tstar", help="print the exponent optimization record")
    sp.add_argument("--grid", type=float, help="also run the grid search at this resolution")

    sp = sub.add_parser("estimate", help="run one estimator")
    est_sub = sp.add_subparsers(dest="target", required=True)
    for target in ("ex", "two-point", "gpi"):
        tp = est_sub.add_parser(target)
        tp.add_argument("--n", type=int, required=True)
        tp.add_argument("--samples", type=int, required=True)
        tp.add_argument("--seed", type=int, default=0)
        tp.add_argument("--proposal-rate", type=float)
        if target == "two-point":
            tp.add_argument("--cycle", type=int, help="single cycle length (even, >= 4)")
            tp.add_argument("--cycles", help="comma-separated cycle lengths")
    return parser


_COMMANDS = {
    **dict.fromkeys(KINDS, _cmd_experiment),
    "solve": _cmd_solve,
    "census-instance": _cmd_census_instance,
    "counts": _cmd_counts,
    "tstar": _cmd_tstar,
    "estimate": _cmd_estimate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidInstanceError, InstanceParseError, TieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool:
        print("error: a worker process died, most often killed for lack of memory; "
              "rerun with fewer --workers or a smaller --chunk-size", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
