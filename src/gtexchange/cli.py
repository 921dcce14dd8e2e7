"""Command-line interface.

Subcommands: ``gen`` (emit an instance file), ``run`` (one algorithm on an
instance file), ``optimal`` (exact oracle, seeded with the best of the five
heuristics), ``batch`` (benchmark run), ``pmnk`` (coverage probability),
``bound`` (randomized lower-bound recursion), ``table`` (multi-config
comparison).  All node and segment ids printed or read here are 1-based;
seeds are always explicit (``batch`` falls back to the ``GTX_SEED``
environment variable, then 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .algorithms import ALGORITHM_IDS, ALGORITHM_LABELS, TieRule, run_algorithm
from .analysis import pmnk_exact, randomized_lower_bound
from .core import upper_bound
from .harness import (
    BatchConfig,
    compare_table,
    default_master_seed,
    gen_instance,
    instance_to_dict,
    load_instance,
    report_text,
    run_batch,
    save_instance,
    save_schedule,
    reference_bound_configs,
)
from .oracle import SearchLimits, solve_optimal


# longest denominator, in decimal digits, that ``gtx pmnk`` prints as a fraction
FRACTION_MAX_DIGITS = 40


def _fmt_link(link) -> str:
    return f"({link.i + 1},{link.j + 1})"


def _add_mnk(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=int, required=True, help="node count")
    parser.add_argument("-n", type=int, required=True, help="universe size")
    parser.add_argument("-k", type=int, required=True, help="initial set size")


def _cmd_gen(args) -> int:
    instance = gen_instance(args.m, args.n, args.k, args.seed, strict=not args.relax)
    if args.out:
        save_instance(instance, args.out)
        print(f"wrote instance (m={args.m}, n={args.n}, k={args.k}) to {args.out}")
    else:
        print(json.dumps(instance_to_dict(instance)))
    return 0


def _cmd_run(args) -> int:
    instance = load_instance(args.instance, strict=not args.relax)
    tie = TieRule(mode=args.tie, seed=args.tie_seed)
    result = run_algorithm(args.alg, instance, seed=args.seed, tie=tie)
    print(f"algorithm: {ALGORITHM_LABELS[args.alg]} ({args.alg})")
    print(f"alpha: {result.alpha}")
    print(f"steps: {len(result.schedule)}")
    if result.rounds is not None:
        print(f"rounds: {result.rounds}")
    print(f"post_sweep_steps: {result.post_sweep_steps}")
    print(f"upper_bound: {upper_bound(instance)}")
    print("schedule:", " ".join(map(_fmt_link, result.schedule.link_list())))
    if args.out:
        save_schedule(result.schedule, args.out)
        print(f"wrote schedule to {args.out}")
    return 0


def _cmd_optimal(args) -> int:
    instance = load_instance(args.instance, strict=not args.relax)
    limits = SearchLimits(max_states=args.max_states, max_seconds=args.max_seconds)
    runs = [run_algorithm(alg, instance) for alg in ALGORITHM_IDS]
    best = max(runs, key=lambda run: run.alpha)
    result = solve_optimal(instance, limits, incumbent=best)
    print(f"alpha: {result.alpha}")
    print(f"exact: {str(result.exact).lower()}")
    print(f"visited_states: {result.visited}")
    print(f"upper_bound: {upper_bound(instance)}")
    print("witness:", " ".join(map(_fmt_link, result.witness.link_list())))
    if args.out:
        save_schedule(result.witness, args.out)
        print(f"wrote witness schedule to {args.out}")
    return 0


def _cmd_pmnk(args) -> int:
    prob = pmnk_exact(args.m, args.n, args.k)
    fraction = (
        f"{prob.numerator}/{prob.denominator} = "
        if prob.denominator < 10**FRACTION_MAX_DIGITS
        else ""
    )
    print(f"p({args.m},{args.n},{args.k}) = {fraction}{prob.value:.10g} (exact)")
    return 0


def _cmd_bound(args) -> int:
    bound, trace = randomized_lower_bound(args.m, args.n, args.k)
    print(f"lower bound on mean aggregate cardinality: {bound:.1f}")
    print("phase  expected_size  factor")
    for p, size in enumerate(trace.expected_sizes, start=1):
        factor = (
            f"{trace.phase_factors[p - 1]:.4f}"
            if p - 1 < len(trace.phase_factors)
            else "0 (stop)"
        )
        print(f"{p:>5}  {size:>13.3f}  {factor}")
    return 0


def _cmd_batch(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        config = BatchConfig.from_dict(data)
        seed = args.seed if args.seed is not None else data.get("seed")
        config = replace(
            config,
            seed=default_master_seed(seed),
            out_csv=args.csv or config.out_csv,
            out_json=args.json_out or config.out_json,
        )
    else:
        for name in ("m", "n", "k"):
            if getattr(args, name) is None:
                raise SystemExit(f"batch needs -{name} (or --config)")
        config = BatchConfig(
            m=args.m,
            n=args.n,
            k=args.k,
            runs=args.runs,
            seed=default_master_seed(args.seed),
            algorithms=tuple(args.algs.split(",")) if args.algs else ALGORITHM_IDS,
            oracle=args.oracle,
            tie_mode=args.tie,
            strict=not args.relax,
            limits=SearchLimits(
                max_states=args.max_states, max_seconds=args.max_seconds
            ),
            out_csv=args.csv,
            out_json=args.json_out,
        )
    report = run_batch(config)
    print(report_text(report))
    if config.out_csv:
        print(f"wrote per-run rows to {config.out_csv}")
    if config.out_json:
        print(f"wrote summary to {config.out_json}")
    return 0


def _cmd_table(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("a table config must be a JSON list of batch configs")
        configs = [BatchConfig.from_dict(d) for d in data]
    elif args.preset == "bounds":
        configs = reference_bound_configs(
            runs=args.runs, seed=default_master_seed(args.seed)
        )
    else:
        raise SystemExit("table needs --config or --preset bounds")
    print(compare_table([run_batch(config) for config in configs]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtx",
        description="Give-and-take segment exchange: heuristics, exact oracle, "
        "coverage probability, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    _add_mnk(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--relax", action="store_true", help="allow empty/full initial sets")
    p.add_argument("--out", help="output path (default: print to stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one algorithm on an instance file")
    p.add_argument("--alg", choices=ALGORITHM_IDS, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized algorithm")
    p.add_argument("--tie", choices=("lowest", "random"), default="lowest")
    p.add_argument("--tie-seed", type=int, default=None)
    p.add_argument("--relax", action="store_true")
    p.add_argument("--out", help="write the emitted schedule here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("optimal", help="exact optimum (oracle) for an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-states", type=int, default=10_000_000)
    p.add_argument("--max-seconds", type=float, default=60.0)
    p.add_argument("--relax", action="store_true")
    p.add_argument("--out", help="write the witness schedule here")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("pmnk", help="coverage probability of m random k-subsets")
    _add_mnk(p)
    p.set_defaults(func=_cmd_pmnk)

    p = sub.add_parser("bound", help="randomized-scheduler lower bound recursion")
    _add_mnk(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("batch", help="benchmark algorithms over random instances")
    p.add_argument("-m", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algs", help="comma-separated ids, default all five")
    p.add_argument("--oracle", choices=("exact", "skip"), default="exact")
    p.add_argument("--tie", choices=("lowest", "random"), default="lowest")
    p.add_argument("--relax", action="store_true")
    p.add_argument("--max-states", type=int, default=10_000_000)
    p.add_argument("--max-seconds", type=float, default=60.0)
    p.add_argument("--csv", help="write per-run rows here")
    p.add_argument("--json", dest="json_out", help="write the summary here")
    p.add_argument("--config", help="JSON file mirroring the batch config fields")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("table", help="summary blocks for several configs")
    p.add_argument("--config", help="JSON list of batch config objects")
    p.add_argument("--preset", choices=("bounds",))
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
