"""Command-line interface.

Subcommands: ``gen`` (emit an instance file), ``run`` (one algorithm on an
instance file), ``optimal`` (exact oracle, seeded with the best of the five
heuristics), ``batch`` (benchmark run), ``pmnk`` (coverage probability),
``bound`` (the paper's recursion for the randomized scheduler's mean),
``table`` (one summary block per config of a preset or a JSON list).  All
node and segment ids printed or read here are 1-based.  Every seed
defaults to 0; ``run`` takes one, which seeds rand's phases or, under
``--tie random``, the other heuristics' ties.

``batch`` builds its config one way: the ``--config`` file's JSON object, or
an empty one, with every flag given laid over it under the field's name,
then validated once by :meth:`~gtexchange.harness.BatchConfig.from_dict`;
so the config's own defaults are the only ones.

The parser is built once per process, on the first :func:`main` call, so
in-process callers pay for it once and a shell ``gtx`` call is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from .algorithms import ALGORITHM_IDS, ALGORITHM_LABELS, TIE_MODES, run_algorithm
from .analysis import pmnk_exact, randomized_lower_bound
from .core import upper_bound
from .harness import (
    ORACLE_MODES,
    TABLE_PRESETS,
    BatchConfig,
    gen_instance,
    instance_to_dict,
    load_instance,
    preset_configs,
    read_json,
    report_text,
    run_batch,
    save_instance,
    save_schedule,
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
    instance = gen_instance(args.m, args.n, args.k, args.seed)
    if args.out:
        save_instance(instance, args.out)
        print(f"wrote instance (m={args.m}, n={args.n}, k={args.k}) to {args.out}")
    else:
        print(json.dumps(instance_to_dict(instance)))
    return 0


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    result = run_algorithm(args.alg, instance, seed=args.seed, tie_mode=args.tie)
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
    instance = load_instance(args.instance)
    limits = SearchLimits(max_states=args.max_states, max_seconds=args.max_seconds)
    runs = [run_algorithm(alg, instance) for alg in ALGORITHM_IDS]
    best = max(runs, key=lambda run: run.alpha)
    result = solve_optimal(instance, limits, incumbent=best)
    print(f"alpha: {result.alpha}")
    print(f"exact: {str(result.exact).lower()}")
    print(f"visited_states: {result.visited}")
    print(f"memo_entries: {result.memo}")
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
    print(f"p({args.m},{args.n},{args.k}) = {fraction}{float(prob):.10g} (exact)")
    return 0


def _cmd_bound(args) -> int:
    value, trace = randomized_lower_bound(args.m, args.n, args.k)
    print(f"paper's recursion for rand's mean aggregate cardinality: {value:.1f}")
    # below k = n no node starts with the universe, so an odd group ends a segment short
    cap = args.m * args.n - (args.m % 2 if args.k < args.n else 0)
    if value > cap:
        print(
            f"not a lower bound here: no instance of this size ends above {cap}, "
            f"and the mean is no larger"
        )
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
    # the batch parser sets only the flags given, each under its field's name
    flags = dict(vars(args))
    del flags["command"], flags["func"]
    data = read_json(flags.pop("config")) if "config" in flags else {}
    limits = {k: flags.pop(k) for k in ("max_states", "max_seconds") if k in flags}
    if isinstance(data, dict):  # from_dict refuses anything else
        if limits and isinstance(data.get("limits", {}), dict):
            flags["limits"] = {**data.get("limits", {}), **limits}
        data = {**data, **flags}
    config = BatchConfig.from_dict(data)
    report = run_batch(config)
    print(report_text(report))
    if config.out_csv:
        print(f"wrote per-run rows to {config.out_csv}")
    if config.out_json:
        print(f"wrote summary to {config.out_json}")
    return 0


def _cmd_table(args) -> int:
    options = {k: v for k, v in vars(args).items() if k in ("runs", "seed")}
    if args.config:
        if options:
            raise ValueError(
                "table --runs and --seed go with --preset only: "
                "each config in a table file sets its own"
            )
        data = read_json(args.config)
        if not isinstance(data, list):
            raise ValueError("a table config must be a JSON list of batch configs")
        if not data:
            raise ValueError("a table config must list at least one batch config")
        configs = [BatchConfig.from_dict(d) for d in data]
    else:
        configs = preset_configs(args.preset, **options)
    if args.csv_dir:
        name = "batch_m{0.m}_n{0.n}_k{0.k}.csv"
        configs = [
            replace(c, out_csv=os.path.join(args.csv_dir, name.format(c))) for c in configs
        ]
    # each config refuses its own CSV and JSON on one file; refuse two configs' here
    paths = [os.path.abspath(p) for c in configs for p in (c.out_csv, c.out_json) if p]
    repeated = sorted({p for p in paths if paths.count(p) > 1})
    if repeated:
        raise ValueError(f"more than one output goes to {repeated}")
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
    print("\n\n".join(report_text(run_batch(config)) for config in configs))
    return 0


@functools.cache  # parsing leaves the tree unchanged, so every call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtx",
        description="Give-and-take segment exchange: heuristics, exact oracle, "
        "coverage probability, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    budget = SearchLimits()  # the default search budget of optimal

    p = sub.add_parser("gen", help="generate a random instance file")
    _add_mnk(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output path (default: print to stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one algorithm on an instance file")
    p.add_argument("--alg", choices=ALGORITHM_IDS, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--seed", type=int, default=0, help="rand's phases, or the ties under --tie random"
    )
    p.add_argument("--tie", choices=TIE_MODES, default="lowest")
    p.add_argument("--out", help="write the emitted schedule here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("optimal", help="exact optimum (oracle) for an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-states", type=int, default=budget.max_states)
    p.add_argument("--max-seconds", type=float, default=budget.max_seconds)
    p.add_argument("--out", help="write the witness schedule here")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("pmnk", help="coverage probability of m random k-subsets")
    _add_mnk(p)
    p.set_defaults(func=_cmd_pmnk)

    p = sub.add_parser(
        "bound", help="the paper's recursion for the randomized scheduler's mean"
    )
    _add_mnk(p)
    p.set_defaults(func=_cmd_bound)

    # no defaults: a flag not given leaves its field to the file or BatchConfig
    p = sub.add_parser(
        "batch",
        help="benchmark algorithms over random instances",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("-m", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--algs",
        dest="algorithms",
        type=lambda ids: ids.split(","),
        help="comma-separated ids, default all five",
    )
    p.add_argument("--oracle", choices=ORACLE_MODES)
    p.add_argument("--tie", dest="tie_mode", choices=TIE_MODES)
    p.add_argument("--max-states", type=int)
    p.add_argument("--max-seconds", type=float)
    p.add_argument("--csv", dest="out_csv", help="write per-run rows here")
    p.add_argument("--json", dest="out_json", help="write the summary here")
    p.add_argument(
        "--config",
        help="JSON object of batch config fields; a flag given replaces its field",
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("table", help="summary blocks for several configs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON list of batch config objects")
    source.add_argument(
        "--preset",
        choices=TABLE_PRESETS,
        help="bounds: rand against the paper's recursion; small, large: the five "
        "heuristics against the exact optimum",
    )
    # preset only, and set only when given
    p.add_argument("--runs", type=int, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master seed")
    p.add_argument("--csv-dir", help="write each config's per-run rows here")
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
