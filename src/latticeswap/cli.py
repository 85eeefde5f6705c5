"""Command line interface.

Subcommands:

- ``gen``    write a random instance as JSON
- ``plan``   plan an instance with a chosen algorithm
- ``eval``   validate a plan against an instance and price it
- ``bench``  run a sweep and write a results CSV
- ``stats``  Monte Carlo cycle-structure statistics as CSV
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (
    ALGORITHMS,
    BenchCase,
    board_dims,
    plan_instance,
    report_savings,
    run_stats,
    run_sweep,
    sweep_cases,
    write_results_csv,
    write_savings_csv,
    write_stats_csv,
)
from .errors import InvalidConfig, InvalidInput, LatticeSwapError
from .lattice import random_arrangement
from .plan import CostParams, Instance, Plan, evaluate_cost, simulate
from .search import SearchLimits


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise InvalidConfig(f"need at least one buffer, got k={args.k}")
    dims = board_dims(args.dim, args.m)
    arr = random_arrangement(
        dims[0] * (dims[1] if len(dims) > 1 else 1), args.seed, dims
    )
    instance = Instance(arr, k=args.k, seed=args.seed)
    _write_or_print(instance.to_json(), args.out)
    return 0


def _load(path: str, parse):
    """``parse`` of a JSON input file; an unreadable file is a package error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except KeyError as exc:
        raise InvalidInput(f"{path}: missing field {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def cmd_plan(args: argparse.Namespace) -> int:
    instance = _load(args.instance, Instance.from_json)
    plan = plan_instance(
        instance, args.algo, cp=args.cp, ct=args.ct, timeout_s=args.timeout,
        budget=args.budget, seed=args.seed,
    )
    cost = evaluate_cost(plan, instance.arrangement.lattice, CostParams(args.cp, args.ct))
    report = json.dumps({**cost.to_dict(), "fallback": plan.fallback})
    if args.out:
        _write_or_print(plan.to_json(indent=2), args.out)
        print(report)
    else:
        print(plan.to_json(indent=2))
        print(report, file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """Validate a plan; only a valid plan is priced, since an invalid one
    may name cells that are not on the board."""
    instance = _load(args.instance, Instance.from_json)
    plan = _load(args.plan, Plan.from_json)
    result = simulate(plan, instance.arrangement, instance.k)
    if result.valid:
        report = evaluate_cost(plan, instance.arrangement.lattice, CostParams(args.cp, args.ct))
        payload = {"valid": True, **report.to_dict()}
    else:
        payload = {"valid": False, "reason": result.reason, "failed_index": result.failed_index}
    print(json.dumps(payload))
    return 0 if result.valid else 1


def _flag_text(value):
    """A config value as the text of its flag; ``None`` stays unset."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    return None if value is None else str(value)


def _bench_config(text: str) -> dict:
    """Bench options from JSON, as flag text that the options' own types
    parse: ``"m": [50, 100]``, ``"m": 50`` and ``"m": "50,100"`` all
    work, and so do lists for ``algo``."""
    config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError("a bench config is a JSON object of options")
    return {key: _flag_text(value) for key, value in config.items()}


def cmd_bench(args: argparse.Namespace) -> int:
    if args.m is None or args.algo is None or args.out is None:
        raise SystemExit("bench needs --m, --algo, and --out (flags or config file)")
    if args.savings_out and not args.baseline_algo:
        raise SystemExit("--savings-out needs --baseline-algo")
    cases = sweep_cases(
        dims=args.dim,
        ms=args.m,
        ks=args.k,
        algos=args.algo.split(","),
        trials=args.trials,
        cp=args.cp,
        ct=args.ct,
        timeout_s=args.timeout,
        budget=args.budget,
    )
    rows = run_sweep(cases, args.seed, workers=args.workers)
    write_results_csv(rows, args.out)
    done = sum(1 for r in rows if not r["timeout"] and not r["error"])
    errors = sum(1 for r in rows if r["error"])
    print(f"{len(rows)} runs ({done} finished, {errors} errors) -> {args.out}")
    if args.savings_out:
        table = report_savings(rows, args.baseline_algo, args.baseline_k)
        write_savings_csv(table, args.savings_out)
        print(f"{len(table)} aggregate rows -> {args.savings_out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    records = run_stats(args.m, args.samples, args.seed)
    write_stats_csv(records, args.out)
    print(f"{len(records)} rows -> {args.out}")
    return 0


def build_parser(bench_config: dict | None = None) -> argparse.ArgumentParser:
    """The command line parser; ``bench_config`` replaces bench defaults."""
    parser = argparse.ArgumentParser(
        prog="latticeswap",
        description="Pick-n-swap rearrangement planning on 1D and 2D lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--m", type=int, required=True, help="number of cells (2D rounds up to a square)")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p.add_argument("--k", type=int, default=1, help="buffer count stored with the instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plan", help="plan an instance")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--cp", type=float, default=BenchCase.cp, help="cost per operation")
    p.add_argument("--ct", type=float, default=BenchCase.ct, help="cost per unit distance")
    p.add_argument("--budget", type=int, default=BenchCase.budget, help="rollouts per action (mcts)")
    p.add_argument("--seed", type=int, default=0, help="rollout seed (mcts)")
    p.add_argument("--timeout", type=float, default=SearchLimits.timeout_s, help="search budget in seconds")
    p.add_argument("-o", "--out", default=None, help="plan JSON path (default: stdout)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("eval", help="validate and price a plan")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-p", "--plan", required=True)
    p.add_argument("--cp", type=float, default=BenchCase.cp)
    p.add_argument("--ct", type=float, default=BenchCase.ct)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--config", default=None, help="JSON file of bench options")
    p.add_argument("--dim", type=_int_list, default=[1], help="comma list of 1,2")
    p.add_argument("--m", type=_int_list, default=None, help="comma list of sizes")
    p.add_argument("--k", type=_int_list, default=[1], help="comma list of buffer counts")
    p.add_argument("--algo", default=None, help="comma list of algorithms")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cp", type=float, default=BenchCase.cp)
    p.add_argument("--ct", type=float, default=BenchCase.ct)
    p.add_argument("--timeout", type=float, default=BenchCase.timeout_s, help="per-run budget in seconds")
    p.add_argument("--budget", type=int, default=BenchCase.budget, help="rollouts per action (mcts)")
    p.add_argument("--workers", type=int, default=1, help="processes")
    p.add_argument("--baseline-algo", default=None, help="reference algorithm for the savings table")
    p.add_argument("--baseline-k", type=int, default=1, help="reference buffer count")
    p.add_argument("--savings-out", default=None, help="aggregated travel-ratio CSV path")
    p.add_argument("-o", "--out", default=None, help="results CSV path")
    p.set_defaults(func=cmd_bench)
    if bench_config:
        unknown = set(bench_config) - set(vars(p.parse_args([]))) - {"config", "func"}
        if unknown:
            p.error(f"unknown config keys: {', '.join(sorted(unknown))}")
        p.set_defaults(**bench_config)

    p = sub.add_parser("stats", help="cycle-structure statistics")
    p.add_argument("--m", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="stats CSV path")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The config file's values become defaults, so flags still win.
            args = build_parser(_load(args.config, _bench_config)).parse_args(argv)
        return args.func(args)
    except LatticeSwapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
