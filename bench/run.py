"""gtexchange benchmark: runs workloads in fresh interpreters and prints their metrics.

    python3 bench/run.py                                   # all workloads, end-to-end metrics
    python3 bench/run.py --trace 1                         # all workloads, per-layer metrics
    python3 bench/run.py --workload oracle-mid --seed 3 --seconds 22 --trace 0

Each workload runs in its own interpreter (bench/worker.py), one at a time,
with no extra threads.  Untraced, a run reports the end-to-end metrics: it
measures the closed loop once and then starts eleven more interpreters that
only import gtexchange and make one warm-up call, whose median is
``setup_s``.  Every reported time is scaled to a reference host speed by
a fixed loop timed next to it (speed.py).  Traced, it reports the
per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("bounds-table", "heuristics-mid", "oracle-mid", "cli-small")
SETUP_PROBES = 11
MIN_BEYOND = 10  # samples that must lie above a reported percentile
BLOCKS = 10  # instances_per_s is the median throughput of this many consecutive blocks of batches
RUN_LIMIT_S = 170.0  # one workload's measured or traced run, set-up probes included


class BenchError(RuntimeError):
    """A worker could not produce a result."""


def percentile(samples: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``q``-th percentile, or None when fewer than ``min_beyond`` samples lie above it."""
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def block_throughput(durations: list[float], per_batch: float) -> float:
    """Median, over consecutive blocks of batch calls, of instances per second of batch time.

    A burst of host noise slows the blocks it falls in, not the median block.
    With fewer than ``BLOCKS`` batches, every batch is a block of its own.
    """
    count = len(durations)
    blocks = min(BLOCKS, count)
    rates = []
    for block in range(blocks):
        part = durations[block * count // blocks:(block + 1) * count // blocks]
        rates.append(per_batch * len(part) / sum(part))
    return statistics.median(rates)


def worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} worker did not finish in time") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """Untraced run plus set-up probes: (worker result, end-to-end metrics, report lines).

    Every time is scaled to the reference host speed of speed.py by the
    reference loop timed around it; the lines print the raw times too.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    result = worker(workload, seed, seconds, "measure", deadline)
    setups, spans = [], []
    with speed.HostClock() as clock:
        for _ in range(SETUP_PROBES):
            started, start = time.monotonic(), time.perf_counter()
            setups.append(worker(workload, seed, seconds, "setup", deadline)["ready"] - started)
            spans.append((start, time.perf_counter()))
        time.sleep(speed.WINDOW_S)  # the readings just after the last probe
    setup_scaled = [t * clock.scale_between(*span) for t, span in zip(setups, spans)]
    raw = result["durations"]
    durations = [t * factor for t, factor in zip(raw, result["scales"])]
    per_batch = result["attempted"] / len(durations)  # every workload sends the same count per batch
    metrics = {
        "instances_per_s": (block_throughput(durations, per_batch), "1/s"),
        "batch_s.p50": (statistics.median(durations), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    p95 = percentile(durations, 95)
    host = statistics.median(result["scales"])
    lines = [
        f"  instances_per_s  {metrics['instances_per_s'][0]:.6g} 1/s (median of "
        f"{min(BLOCKS, len(durations))} blocks; raw: {result['attempted']} instances in {sum(raw):.3f} s "
        f"of batch calls)",
        f"  batch_s.p50      {metrics['batch_s.p50'][0]:.6g} s (n={len(durations)}; raw {statistics.median(raw):.6g} s)",
        f"  batch_s.p95      {p95:.6g} s (n={len(durations)}; raw {percentile(raw, 95):.6g} s)" if p95 is not None else
        f"  batch_s.p95      not reported: n={len(durations)} leaves fewer than {MIN_BEYOND} samples above it",
        f"  failed_ratio     {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']}/{result['attempted']} instances)",
        f"  overrun_ratio    {result['overruns'] / result['attempted']:.6g} "
        f"({result['overruns']}/{result['attempted']} instances whose oracle overran its budget)",
        f"  setup_s          {metrics['setup_s'][0]:.6g} s (median of {SETUP_PROBES} fresh interpreters; "
        f"raw {statistics.median(setups):.6g} s)",
        f"  peak_rss_mb      {metrics['peak_rss_mb'][0]:.6g} MB",
        f"  host speed       {host:.4g} of the reference (times above are scaled to it; see speed.py)",
    ]
    return result, metrics, lines


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """Traced run: (worker result, per-layer metrics, report lines)."""
    result = worker(workload, seed, seconds, "trace", time.monotonic() + RUN_LIMIT_S)
    metrics = {name: tuple(value) for name, value in result["metrics"].items()}
    lines = [f"  {name:<34} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  not in this program, read as 0 calls: {name}" for name in result["missing"]]
    return result, metrics, lines


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    result, metrics, lines = (trace if traced else measure)(workload, seed, seconds)
    print(f"{workload}  seed={seed}  seconds={seconds:g}  {'traced' if traced else 'untraced'}")
    for line in lines:
        print(line)
    print(f"  rows sha256 (first batch, information only): {result['digest']}")
    if result["stored_optima_checked"]:
        print(f"  certified optima matching stored ones: {result['stored_optima_checked']}")
    for failure in result["gate_failures"]:
        print(f"  GATE FAILED: {failure}")
    return {
        "correct": result["gate_failure_count"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0, help="batch-call time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gtexchange" / "__init__.py").is_file():
        print(f"error: no gtexchange package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
