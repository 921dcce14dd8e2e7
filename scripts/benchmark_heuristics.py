#!/usr/bin/env python3
"""Benchmark all five schedulers against each other (and the oracle when feasible).

Presets:
  small  -- (4,5,2) with the exact oracle (success rates and shortfalls) and
            (15,20,5) without it.
  large  -- adds (40,50,5); both large configs report means, confidence
            intervals, and the parity upper bound, but no success rates,
            since the exact optimum is out of reach at that size.

Usage: python scripts/benchmark_heuristics.py [--preset small] [--runs 100]
       [--seed 0] [--csv-dir out/]
"""

import argparse
import os

from gtexchange import BatchConfig, report_text, run_batch


def configs_for(preset: str, runs: int, seed: int, csv_dir: str | None):
    rows = [(4, 5, 2, "exact"), (15, 20, 5, "skip")]
    if preset == "large":
        rows.append((40, 50, 5, "skip"))
    configs = []
    for m, n, k, oracle in rows:
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
    blocks = []
    for config in configs_for(args.preset, args.runs, args.seed, args.csv_dir):
        report = run_batch(config)
        blocks.append(report_text(report))
    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
