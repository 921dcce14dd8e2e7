"""Experiment generation, batch benchmarking, file formats, and reports.

Batches are fully reproducible: a master seed plus the run index and a
purpose tag are hashed into independent sub-seeds for instance generation,
the randomized scheduler, and random tie-breaking, so repeating a batch
with the same master seed produces byte-identical CSV output.  Runs within
a batch are independent and aggregation is order-independent.

File formats (all 1-based on disk, 0-based in memory):

* instance file: ``{"m": 4, "n": 5, "sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}``
  where each list is strictly increasing;
* schedule file: ``{"steps": [[1, 3], [1, 2], [2, 4]]}`` of node pairs;
* batch config file: a JSON object mirroring :class:`BatchConfig` fields.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from math import sqrt

from .algorithms import ALGORITHM_IDS, ALGORITHM_LABELS, TieRule, run_algorithm
from .analysis import check_pmnk_size, pmnk_exact, randomized_lower_bound
from .core import Instance, Link, Schedule, SegmentSet, upper_bound
from .oracle import SearchLimits, solve_optimal

SEED_ENV_VAR = "GTX_SEED"

CSV_COLUMNS = (
    "run",
    "seed",
    "algorithm",
    "alpha",
    "optimal",
    "exact_flag",
    "steps",
    "post_sweep_steps",
)


def derive_seed(master: int, *parts) -> int:
    """Deterministic, platform-stable sub-seed for (master, parts)."""
    text = "/".join(str(p) for p in (master, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def gen_instance(m: int, n: int, k: int, seed: int, strict: bool = True) -> Instance:
    """Instance with m independent uniform k-subsets of an n-universe."""
    if not 1 <= k <= n:
        raise ValueError(f"initial set size k={k} must satisfy 1 <= k <= n={n}")
    rng = random.Random(seed)
    population = range(n)
    sets = tuple(
        SegmentSet.from_iterable(rng.sample(population, k)) for _ in range(m)
    )
    return Instance(m=m, n=n, initial_sets=sets, strict=strict)


# ---------------------------------------------------------------------------
# file formats


def _is_int(value) -> bool:
    """True for JSON integers; ``true``/``false`` load as bools, which are not ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def instance_to_dict(instance: Instance) -> dict:
    return {
        "m": instance.m,
        "n": instance.n,
        "sets": [[e + 1 for e in s] for s in instance.initial_sets],
    }


def instance_from_dict(data: dict, strict: bool = True) -> Instance:
    try:
        m = data["m"]
        n = data["n"]
        raw_sets = data["sets"]
    except (KeyError, TypeError):
        raise ValueError("instance file needs fields m, n, and sets") from None
    if not _is_int(m) or not _is_int(n):
        raise ValueError("instance fields m and n must be integers")
    if not isinstance(raw_sets, list) or len(raw_sets) != m:
        raise ValueError(f"instance file must list exactly m={m} segment sets")
    sets = []
    for i, raw in enumerate(raw_sets):
        if not isinstance(raw, list) or not all(_is_int(e) for e in raw):
            raise ValueError(f"set {i + 1} must be a list of integers")
        if any(not 1 <= e <= n for e in raw):
            raise ValueError(f"set {i + 1} has segment ids outside 1..{n}")
        if any(raw[t] >= raw[t + 1] for t in range(len(raw) - 1)):
            raise ValueError(
                f"set {i + 1} must be strictly increasing (duplicates are an error)"
            )
        sets.append(SegmentSet.from_iterable(e - 1 for e in raw))
    return Instance(m=m, n=n, initial_sets=tuple(sets), strict=strict)


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh)
        fh.write("\n")


def load_instance(path: str, strict: bool = True) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh), strict=strict)


def schedule_to_dict(schedule: Schedule | list[Link]) -> dict:
    link_seq = schedule.link_list() if isinstance(schedule, Schedule) else schedule
    return {"steps": [[link.i + 1, link.j + 1] for link in link_seq]}


def schedule_from_dict(data: dict) -> list[Link]:
    try:
        raw_steps = data["steps"]
    except (KeyError, TypeError):
        raise ValueError("schedule file needs a steps field") from None
    link_seq = []
    for idx, raw in enumerate(raw_steps):
        if (
            not isinstance(raw, list)
            or len(raw) != 2
            or not all(_is_int(e) and e >= 1 for e in raw)
        ):
            raise ValueError(f"step {idx + 1} must be a pair of 1-based node ids")
        link_seq.append(Link(raw[0] - 1, raw[1] - 1))
    return link_seq


def save_schedule(schedule: Schedule | list[Link], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh)
        fh.write("\n")


def load_schedule(path: str) -> list[Link]:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# batches


@dataclass(frozen=True)
class BatchConfig:
    """One benchmark batch: problem size, run count, seeds, and outputs."""

    m: int
    n: int
    k: int
    runs: int = 100
    seed: int = 0
    algorithms: tuple[str, ...] = ALGORITHM_IDS
    oracle: str = "exact"
    tie_mode: str = "lowest"
    strict: bool = True
    limits: SearchLimits = field(default_factory=SearchLimits)
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"need at least one run, got {self.runs}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"initial set size k={self.k} must satisfy 1 <= k <= n")
        # the batch reports the exact coverage: refuse its size up front
        check_pmnk_size(self.m, self.n, self.k)
        if self.oracle not in ("exact", "skip"):
            raise ValueError(f"oracle mode must be exact or skip, got {self.oracle!r}")
        TieRule(mode=self.tie_mode)  # refuses an unknown tie mode
        unknown = [a for a in self.algorithms if a not in ALGORITHM_IDS]
        if unknown:
            raise ValueError(f"unknown algorithm ids: {unknown}")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithm ids listed more than once: {repeated}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    @classmethod
    def from_dict(cls, data: dict) -> "BatchConfig":
        """Config from a parsed JSON object, checking each field's JSON type
        (``true`` is no integer, a string is no list of ids)."""
        if not isinstance(data, dict):
            raise ValueError("a batch config must be a JSON object")
        kwargs = dict(data)
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown batch config fields: {sorted(unknown)}")
        for name, value in kwargs.items():
            if name in ("m", "n", "k", "runs", "seed"):
                ok = _is_int(value)
            elif name in ("oracle", "tie_mode"):
                ok = isinstance(value, str)
            elif name in ("out_csv", "out_json"):
                ok = value is None or isinstance(value, str)
            elif name == "strict":
                ok = isinstance(value, bool)
            elif name == "algorithms":
                ok = isinstance(value, list) and all(isinstance(a, str) for a in value)
            else:  # limits
                ok = isinstance(value, dict)
            if not ok:
                raise ValueError(
                    f"batch config field {name} has the wrong type: {value!r}"
                )
        if "algorithms" in kwargs:
            kwargs["algorithms"] = tuple(kwargs["algorithms"])
        if "limits" in kwargs:
            kwargs["limits"] = _limits_from_dict(kwargs["limits"])
        return cls(**kwargs)


def _limits_from_dict(data: dict) -> SearchLimits:
    unknown = set(data) - set(SearchLimits.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown search limit fields: {sorted(unknown)}")
    for name, value in data.items():
        if not (_is_int(value) or (name == "max_seconds" and isinstance(value, float))):
            raise ValueError(f"search limit {name} has the wrong type: {value!r}")
    return SearchLimits(**data)


@dataclass(frozen=True)
class AlgorithmStats:
    """Aggregated batch statistics for one algorithm."""

    algorithm: str
    mean_alpha: float
    ci95: float
    exact_runs: int
    successes: int | None
    success_rate: float | None
    mean_shortfall_pct: float | None


@dataclass(frozen=True)
class BatchReport:
    """Everything a batch produced: per-run rows plus aggregated statistics."""

    config: BatchConfig
    rows: tuple[dict, ...]
    stats: dict[str, AlgorithmStats]
    pmnk_value: float
    rand_lower_bound: float
    mean_upper_bound: float
    exact_oracle_runs: int
    oracle_exceeded_runs: int
    # per algorithm, wall seconds and steps summed over the runs, and with
    # the exact oracle an "oracle" entry: its wall seconds, the instances it
    # searched, the states it visited, its memo entries and the gap from
    # each instance's upper bound to the alpha it reported, each summed over
    # the instances; JSON only, so the CSV stays byte-deterministic
    metrics: dict[str, dict]

    def to_json_dict(self) -> dict:
        return {
            "m": self.config.m,
            "n": self.config.n,
            "k": self.config.k,
            "runs": self.config.runs,
            "seed": self.config.seed,
            "oracle": self.config.oracle,
            "pmnk": {"value": self.pmnk_value},
            "rand_lower_bound": self.rand_lower_bound,
            "mean_upper_bound": self.mean_upper_bound,
            "exact_oracle_runs": self.exact_oracle_runs,
            "oracle_exceeded_runs": self.oracle_exceeded_runs,
            "algorithms": {
                alg: {
                    "mean_alpha": s.mean_alpha,
                    "ci95": s.ci95,
                    "exact_runs": s.exact_runs,
                    "successes": s.successes,
                    "success_rate": s.success_rate,
                    "mean_shortfall_pct": s.mean_shortfall_pct,
                }
                for alg, s in self.stats.items()
            },
            "metrics": self.metrics,
        }


def summarize_rows(rows: list[dict]) -> dict[str, AlgorithmStats]:
    """Aggregate per-run rows into per-algorithm statistics.

    Success and shortfall are computed only over runs whose optimum was
    certified exact; a run whose oracle hit its budget contributes to
    neither, and is never silently treated as a success.
    """
    by_alg: dict[str, list[dict]] = {}
    for row in rows:
        by_alg.setdefault(row["algorithm"], []).append(row)
    stats = {}
    for alg, alg_rows in by_alg.items():
        alphas = [row["alpha"] for row in alg_rows]
        mean = statistics.fmean(alphas)
        ci95 = (
            1.96 * statistics.stdev(alphas) / sqrt(len(alphas))
            if len(alphas) > 1
            else 0.0
        )
        exact_rows = [row for row in alg_rows if row["exact_flag"] is True]
        if exact_rows:
            successes = sum(1 for row in exact_rows if row["alpha"] == row["optimal"])
            success_rate = successes / len(exact_rows)
            shortfall = statistics.fmean(
                100.0 * (row["optimal"] - row["alpha"]) / row["optimal"]
                for row in exact_rows
            )
        else:
            successes = None
            success_rate = None
            shortfall = None
        stats[alg] = AlgorithmStats(
            algorithm=alg,
            mean_alpha=mean,
            ci95=ci95,
            exact_runs=len(exact_rows),
            successes=successes,
            success_rate=success_rate,
            mean_shortfall_pct=shortfall,
        )
    return stats


def run_batch(config: BatchConfig) -> BatchReport:
    """Generate ``runs`` random instances and benchmark every configured algorithm.

    The exact oracle starts from the best of the instance's heuristic runs.
    """
    rows: list[dict] = []
    exact_runs = 0
    exceeded = 0
    ub_total = 0
    metrics = {alg: {"wall_s": 0.0, "steps": 0} for alg in config.algorithms}
    if config.oracle == "exact":
        metrics["oracle"] = {
            "wall_s": 0.0,
            "searched": 0,
            "visited": 0,
            "memo": 0,
            "gap": 0,
        }
    for t in range(config.runs):
        inst_seed = derive_seed(config.seed, t, "instance")
        instance = gen_instance(
            config.m, config.n, config.k, inst_seed, strict=config.strict
        )
        ub = upper_bound(instance)
        ub_total += ub
        runs = []
        for alg in config.algorithms:
            random_ties = config.tie_mode == "random"
            tie_seed = derive_seed(config.seed, t, "tie", alg) if random_ties else None
            # only rand reads its seed
            seed = derive_seed(config.seed, t, "alg", alg) if alg == "rand" else 0
            tie = TieRule(mode=config.tie_mode, seed=tie_seed)
            start = time.perf_counter()
            runs.append(run_algorithm(alg, instance, seed=seed, tie=tie))
            metrics[alg]["wall_s"] += time.perf_counter() - start
            metrics[alg]["steps"] += len(runs[-1].schedule)
        optimal = None
        exact: bool | None = None
        if config.oracle == "exact":
            best = max(runs, key=lambda run: run.alpha, default=None)
            start = time.perf_counter()
            result = solve_optimal(instance, config.limits, incumbent=best)
            metrics["oracle"]["wall_s"] += time.perf_counter() - start
            # the search visits at least the root unless the incumbent meets the bound
            metrics["oracle"]["searched"] += result.visited > 0
            metrics["oracle"]["visited"] += result.visited
            metrics["oracle"]["memo"] += result.memo
            metrics["oracle"]["gap"] += ub - result.alpha
            exact = result.exact
            if exact:
                optimal = result.alpha
                exact_runs += 1
            else:
                exceeded += 1
        for alg, run in zip(config.algorithms, runs):
            rows.append(
                {
                    "run": t,
                    "seed": inst_seed,
                    "algorithm": alg,
                    "alpha": run.alpha,
                    "optimal": optimal,
                    "exact_flag": exact,
                    "steps": len(run.schedule),
                    "post_sweep_steps": run.post_sweep_steps,
                }
            )
    bound, _ = randomized_lower_bound(config.m, config.n, config.k)
    report = BatchReport(
        config=config,
        rows=tuple(rows),
        stats=summarize_rows(rows),
        pmnk_value=pmnk_exact(config.m, config.n, config.k).value,
        rand_lower_bound=bound,
        mean_upper_bound=ub_total / config.runs,
        exact_oracle_runs=exact_runs,
        oracle_exceeded_runs=exceeded,
        metrics=metrics,
    )
    if config.out_csv:
        with open(config.out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
    if config.out_json:
        with open(config.out_json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    return report


def rows_to_csv(rows: list[dict]) -> str:
    """Render per-run rows with the fixed column set, byte-stable."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["run"],
                row["seed"],
                row["algorithm"],
                row["alpha"],
                "" if row["optimal"] is None else row["optimal"],
                "" if row["exact_flag"] is None else str(row["exact_flag"]).lower(),
                row["steps"],
                row["post_sweep_steps"],
            ]
        )
    return buffer.getvalue()


def rows_from_csv(text: str) -> list[dict]:
    """Parse rows back from CSV; inverse of :func:`rows_to_csv`."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for record in reader:
        rows.append(
            {
                "run": int(record["run"]),
                "seed": int(record["seed"]),
                "algorithm": record["algorithm"],
                "alpha": int(record["alpha"]),
                "optimal": int(record["optimal"]) if record["optimal"] else None,
                "exact_flag": {"true": True, "false": False, "": None}[
                    record["exact_flag"]
                ],
                "steps": int(record["steps"]),
                "post_sweep_steps": int(record["post_sweep_steps"]),
            }
        )
    return rows


def report_text(report: BatchReport) -> str:
    """Human-readable summary block for one batch."""
    cfg = report.config
    lines = [
        f"(m={cfg.m}, n={cfg.n}, k={cfg.k})  runs={cfg.runs}  seed={cfg.seed}  "
        f"oracle={cfg.oracle}",
        f"  coverage p(m,n,k) = {report.pmnk_value:.6g} (exact)",
        f"  parity upper bound, mean over runs = {report.mean_upper_bound:.1f}",
    ]
    if report.config.oracle == "exact":
        lines.append(
            f"  exact optima on {report.exact_oracle_runs}/{cfg.runs} runs"
            + (
                f" ({report.oracle_exceeded_runs} exceeded the search budget)"
                if report.oracle_exceeded_runs
                else ""
            )
        )
    header = f"  {'algorithm':<20} {'mean alpha':>12} {'ci95':>8} {'success':>8} {'shortfall%':>11}"
    lines.append(header)
    for alg in cfg.algorithms:
        s = report.stats[alg]
        success = f"{s.success_rate:.2f}" if s.success_rate is not None else "-"
        shortfall = (
            f"{s.mean_shortfall_pct:.3f}" if s.mean_shortfall_pct is not None else "-"
        )
        lines.append(
            f"  {ALGORITHM_LABELS[alg]:<20} {s.mean_alpha:>12.1f} "
            f"{s.ci95:>8.1f} {success:>8} {shortfall:>11}"
        )
        if alg == "rand":
            lines.append(
                f"  {'  analytic lower bound':<20} {report.rand_lower_bound:>12.1f}"
            )
    return "\n".join(lines)


def compare_table(reports: list[BatchReport]) -> str:
    """One formatted summary block per report, separated by blank lines."""
    return "\n\n".join(report_text(report) for report in reports)


def reference_bound_configs(runs: int = 100, seed: int = 0) -> list[BatchConfig]:
    """The five randomized-scheduler reference rows used in the bound table."""
    rows = [(60, 100, 3), (60, 100, 5), (60, 100, 7), (80, 200, 15), (100, 300, 15)]
    return [
        BatchConfig(
            m=m,
            n=n,
            k=k,
            runs=runs,
            seed=derive_seed(seed, "table", m, n, k),
            algorithms=("rand",),
            oracle="skip",
        )
        for m, n, k in rows
    ]


def default_master_seed(explicit: int | None) -> int:
    """Explicit seed wins; otherwise the environment default; otherwise 0."""
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0
