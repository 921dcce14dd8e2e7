#!/usr/bin/env python3
"""Benchmark all five schedulers against each other and against the exact oracle.

Presets:
  small  -- (4,5,2) and (15,20,5), both with the exact oracle, so both report
            success rates and shortfalls.  At (15,20,5) each search gets 5
            seconds; a run it cannot certify in that time is reported as an
            overrun and left out of those figures.
  large  -- adds (40,50,5) without the oracle: means, confidence intervals,
            and the parity upper bound.

Usage: python scripts/benchmark_heuristics.py [--preset small] [--runs 100]
       [--seed 0] [--csv-dir out/]
"""

import argparse
import os

from gtexchange import BatchConfig, SearchLimits, compare_table, run_batch

# per-search budget at (15,20,5): certifies all but about 1 in 100 instances
MID_LIMITS = SearchLimits(max_seconds=5)


def configs_for(preset: str, runs: int, seed: int, csv_dir: str | None):
    rows = [(4, 5, 2, "exact", SearchLimits()), (15, 20, 5, "exact", MID_LIMITS)]
    if preset == "large":
        rows.append((40, 50, 5, "skip", SearchLimits()))
    configs = []
    for m, n, k, oracle, limits in rows:
        out_csv = None
        if csv_dir:
            out_csv = os.path.join(csv_dir, f"batch_m{m}_n{n}_k{k}.csv")
        configs.append(
            BatchConfig(
                m=m,
                n=n,
                k=k,
                runs=runs,
                seed=seed,
                oracle=oracle,
                limits=limits,
                out_csv=out_csv,
            )
        )
    return configs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=("small", "large"), default="small")
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv-dir", help="also write per-run rows here")
    args = parser.parse_args()
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
    configs = configs_for(args.preset, args.runs, args.seed, args.csv_dir)
    print(compare_table([run_batch(config) for config in configs]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
