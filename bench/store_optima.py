"""Rewrites optima.json: exact optima for the first batch of oracle-mid.

    PYTHONPATH=src python3 bench/store_optima.py

Solves every instance of oracle-mid batch 0 for run seeds ``0 .. SEEDS-1``
with a budget far above the benchmark's, and stores each certified optimum
under its instance seed.  Instances the oracle cannot certify within
``MAX_SECONDS`` are left out.  The oracle-mid gate then requires every
optimum certified during a run to equal the stored one, wherever one is
stored, so a later oracle that certifies more instances is checked on them
too.
"""

from __future__ import annotations

import dataclasses
import json

import gtexchange
from workloads import HERE, WORKLOADS

SEEDS = 40
MAX_SECONDS = 5.0


def main() -> None:
    workload = WORKLOADS["oracle-mid"]
    limits = gtexchange.SearchLimits(max_states=10**9, max_seconds=MAX_SECONDS)
    optima: dict[str, int] = {}
    missed = 0
    for seed in range(SEEDS):
        for config in workload.inputs(seed, 0, HERE):
            config = dataclasses.replace(config, algorithms=("rand",), limits=limits)
            for row in gtexchange.run_batch(config).rows:
                if row["exact_flag"]:
                    optima[str(row["seed"])] = row["optimal"]
                else:
                    missed += 1
    data = {
        "workload": "oracle-mid",
        "seeds": SEEDS,
        "batches": 1,
        "max_seconds": MAX_SECONDS,
        "not_certified": missed,
        "optima": optima,
    }
    (HERE / "optima.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(optima)} optima; {missed} instances not certified in {MAX_SECONDS} s")


if __name__ == "__main__":
    main()
