#!/usr/bin/env python3
"""Reproduce the randomized-scheduler reference table.

For each of the five (m, n, k) rows, prints the analytic lower bound on the
mean aggregate cardinality next to the simulated mean over random runs, and
the exact coverage probability p(m,n,k).

Usage: python scripts/reproduce_bound_table.py [--runs 100] [--seed 0]
"""

import argparse

from gtexchange import compare_table, reference_bound_configs, run_batch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    configs = reference_bound_configs(runs=args.runs, seed=args.seed)
    print(compare_table([run_batch(config) for config in configs]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
