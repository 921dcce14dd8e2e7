"""Experiment generation, batch benchmarking, file formats, and reports.

Batches are fully reproducible: a master seed plus the run index and a
purpose tag are hashed into independent sub-seeds: one per instance, and
one per run of rand or, under random ties, of a tie-breaking heuristic; so
repeating a batch with the same master seed gives byte-identical CSV.
Runs within a batch are independent: :func:`run_batch` may split them
with one forked worker process, and it merges their results in run order.
:func:`_stop_worker` is the one way that worker is let go, and it never
signals a reaped one; a worker that dies mid-batch is a ChildProcessError,
and the next batch forks a fresh one.

File formats (all 1-based on disk, 0-based in memory):

* instance file: ``{"m": 4, "n": 5, "sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}``
  where each list is strictly increasing and may be empty;
* schedule file: ``{"steps": [[1, 3], [1, 2], [2, 4]]}`` of node pairs;
* batch config file: a JSON object of :class:`BatchConfig` fields, at
  least ``m``, ``n`` and ``k``; ``limits`` is an object of its own;
* batch CSV: one row per run and algorithm in the columns of
  :data:`CSV_COLUMNS`, the one list that both writes and reads it;
* batch JSON: :attr:`BatchReport.summary` as it is, the one record of a
  batch's results, which the text report reads too.
"""

from __future__ import annotations

import atexit
import csv
import hashlib
import io
import json
import os
import random
import statistics
import threading
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from math import ceil, log, sqrt
from typing import Callable

from .algorithms import ALGORITHM_IDS, ALGORITHM_LABELS, TIE_MODES, run_algorithm
from .analysis import check_mnk, check_pmnk_size, pmnk_exact, randomized_lower_bound
from .core import Instance, Link, Schedule, SegmentSet, check_size, is_int, upper_bound
from .oracle import SearchLimits, solve_optimal

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

# a batch certifies each instance's optimum with the exact oracle, or skips it
ORACLE_MODES = ("exact", "skip")


def derive_seed(master: int, *parts) -> int:
    """Deterministic, platform-stable sub-seed for (master, parts)."""
    text = "/".join(str(p) for p in (master, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _sample_mask(bits: Callable[[int], int], n: int, k: int) -> int:
    """Mask of ``k`` distinct segments of ``range(n)``, drawn from ``bits``.

    These are the draws ``random.Random.sample(range(n), k)`` makes through
    ``getrandbits``.  Up to ``setsize`` segments, where ``sample`` keeps a
    list of the population, each pick is drawn below the size of a shrinking
    pool and the pool's last segment moves into the vacancy; past it,
    ``sample`` keeps a set of picks and draws each below ``n``, again while
    it is already taken.  A draw below a bound takes the bound's
    ``bit_length`` bits, again while the result reaches the bound.  So with
    ``bits = rng.getrandbits`` the mask and the state ``rng`` is left in
    match ``rng.sample(range(n), k)``.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    mask = 0
    if n <= setsize:
        pool = list(range(n))
        for size in range(n, n - k, -1):
            width = size.bit_length()
            j = bits(width)
            while j >= size:
                j = bits(width)
            mask |= 1 << pool[j]
            pool[j] = pool[size - 1]
    else:
        width = n.bit_length()
        for _ in range(k):
            j = bits(width)
            while j >= n or mask >> j & 1:
                j = bits(width)
            mask |= 1 << j
    return mask


def gen_instance(m: int, n: int, k: int, seed: int) -> Instance:
    """Instance with m independent uniform k-subsets of an n-universe, the
    sets of ``m`` calls of ``random.Random(seed).sample(range(n), k)``."""
    check_size(m, n)
    check_mnk(m, n, k)
    bits = random.Random(seed).getrandbits
    sets = tuple(SegmentSet(_sample_mask(bits, n, k)) for _ in range(m))
    return Instance(m=m, n=n, initial_sets=sets)


# ---------------------------------------------------------------------------
# file formats


def instance_to_dict(instance: Instance) -> dict:
    return {
        "m": instance.m,
        "n": instance.n,
        "sets": [[e + 1 for e in s] for s in instance.initial_sets],
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        m = data["m"]
        n = data["n"]
        raw_sets = data["sets"]
    except (KeyError, TypeError):
        raise ValueError("instance file needs fields m, n, and sets") from None
    check_size(m, n)
    if not isinstance(raw_sets, list) or len(raw_sets) != m:
        raise ValueError(f"instance file must list exactly m={m} segment sets")
    sets = []
    for i, raw in enumerate(raw_sets):
        if not isinstance(raw, list) or not all(is_int(e) for e in raw):
            raise ValueError(f"set {i + 1} must be a list of integers")
        if any(not 1 <= e <= n for e in raw):
            raise ValueError(f"set {i + 1} has segment ids outside 1..{n}")
        if any(raw[t] >= raw[t + 1] for t in range(len(raw) - 1)):
            raise ValueError(
                f"set {i + 1} must be strictly increasing (duplicates are an error)"
            )
        sets.append(SegmentSet.from_iterable(e - 1 for e in raw))
    return Instance(m=m, n=n, initial_sets=tuple(sets))


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh)
        fh.write("\n")


def read_json(path: str):
    """The JSON value in the file at ``path``.  Nesting too deep for the
    parser is a ValueError, like any other malformed file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_instance(path: str) -> Instance:
    return instance_from_dict(read_json(path))


def schedule_to_dict(schedule: Schedule | list[Link]) -> dict:
    link_seq = schedule.link_list() if isinstance(schedule, Schedule) else schedule
    return {"steps": [[link.i + 1, link.j + 1] for link in link_seq]}


def schedule_from_dict(data: dict) -> list[Link]:
    try:
        raw_steps = data["steps"]
    except (KeyError, TypeError):
        raise ValueError("schedule file needs a steps field") from None
    if not isinstance(raw_steps, list):
        raise ValueError("schedule file's steps must be a list of node-id pairs")
    link_seq = []
    for idx, raw in enumerate(raw_steps):
        if (
            not isinstance(raw, list)
            or len(raw) != 2
            or not all(is_int(e) and e >= 1 for e in raw)
        ):
            raise ValueError(f"step {idx + 1} must be a pair of 1-based node ids")
        link_seq.append(Link(raw[0] - 1, raw[1] - 1))
    return link_seq


def save_schedule(schedule: Schedule | list[Link], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh)
        fh.write("\n")


def load_schedule(path: str) -> list[Link]:
    return schedule_from_dict(read_json(path))


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
    limits: SearchLimits = field(default_factory=SearchLimits)
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self) -> None:
        # types first, so that the checks below meet no bool, string or float
        for name, value in vars(self).items():
            if name in ("m", "n", "k", "runs", "seed"):
                ok = is_int(value)
            elif name in ("oracle", "tie_mode"):
                ok = isinstance(value, str)
            elif name in ("out_csv", "out_json"):
                ok = value is None or isinstance(value, str)
            elif name == "algorithms":
                ok = isinstance(value, (list, tuple)) and all(
                    isinstance(a, str) for a in value
                )
            else:  # limits
                ok = isinstance(value, SearchLimits)
            if not ok:
                raise ValueError(
                    f"batch config field {name} has the wrong type: {value!r}"
                )
        if self.runs < 1:
            raise ValueError(f"need at least one run, got {self.runs}")
        check_size(self.m, self.n)
        if (
            self.out_csv
            and self.out_json
            and os.path.abspath(self.out_csv) == os.path.abspath(self.out_json)
        ):
            raise ValueError(f"the CSV and the JSON both go to {self.out_csv}")
        # the batch reports the exact coverage: refuse its size up front
        check_pmnk_size(self.m, self.n, self.k)
        if self.oracle not in ORACLE_MODES:
            raise ValueError(f"unknown oracle mode {self.oracle!r}, not in {ORACLE_MODES}")
        if self.tie_mode not in TIE_MODES:
            raise ValueError(f"unknown tie mode {self.tie_mode!r}, not in {TIE_MODES}")
        unknown = [a for a in self.algorithms if a not in ALGORITHM_IDS]
        if unknown:
            raise ValueError(f"unknown algorithm ids: {unknown}")
        if not self.algorithms:
            raise ValueError("a batch needs at least one algorithm id")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithm ids listed more than once: {repeated}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    @classmethod
    def from_dict(cls, data: dict) -> "BatchConfig":
        """Config from a parsed JSON object.  The object's shape is checked
        here and each field's type by the constructor, as for any caller."""
        kwargs = _json_fields(cls, data, "batch config")
        if "limits" in kwargs:
            kwargs["limits"] = SearchLimits(
                **_json_fields(SearchLimits, kwargs["limits"], "search limits")
            )
        return cls(**kwargs)


def _json_fields(cls, data, what: str) -> dict:
    """``data`` as keyword arguments of the dataclass ``cls``: a JSON object
    that names every field without a default and no other name."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} fields: {unknown}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{what} lacks the fields {missing}")
    return dict(data)


@dataclass(frozen=True)
class BatchReport:
    """Everything a batch produced: its config, the per-run rows and
    ``summary``, the batch JSON (what ``--json`` writes), which
    :func:`run_batch` builds once and :func:`report_text` reads by key."""

    config: BatchConfig
    rows: tuple[dict, ...]
    summary: dict

    @property
    def pmnk_value(self) -> float:
        return self.summary["pmnk"]["value"]


def summarize_rows(rows: list[dict]) -> dict[str, dict]:
    """Aggregate per-run rows into per-algorithm statistics: ``mean_alpha``,
    ``ci95``, ``exact_runs``, ``successes``, ``success_rate`` and
    ``mean_shortfall_pct``, in the order the batch JSON writes them.

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
        successes = success_rate = shortfall = None
        if exact_rows:
            successes = sum(1 for row in exact_rows if row["alpha"] == row["optimal"])
            success_rate = successes / len(exact_rows)
            shortfall = statistics.fmean(
                100.0 * (row["optimal"] - row["alpha"]) / row["optimal"]
                for row in exact_rows
            )
        stats[alg] = {
            "mean_alpha": mean,
            "ci95": ci95,
            "exact_runs": len(exact_rows),
            "successes": successes,
            "success_rate": success_rate,
            "mean_shortfall_pct": shortfall,
        }
    return stats


def _run_one(config: BatchConfig, t: int) -> tuple[list[dict], int, dict]:
    """Run ``t`` of a batch: its rows, its instance's upper bound, and its
    metrics, shaped as the batch JSON's ``"metrics"`` for this run alone.

    The exact oracle starts from the best of the instance's heuristic runs.
    """
    inst_seed = derive_seed(config.seed, t, "instance")
    instance = gen_instance(config.m, config.n, config.k, inst_seed)
    ub = upper_bound(instance)
    metrics = {}
    runs = []
    for alg in config.algorithms:
        # rand draws its phases from its seed, the rest their random ties
        if alg == "rand":
            seed = derive_seed(config.seed, t, "alg", "rand")
        elif config.tie_mode == "random":
            seed = derive_seed(config.seed, t, "tie", alg)
        else:
            seed = 0
        start = time.perf_counter()
        runs.append(run_algorithm(alg, instance, seed=seed, tie_mode=config.tie_mode))
        metrics[alg] = {
            "wall_s": time.perf_counter() - start,
            "steps": len(runs[-1].schedule),
        }
    optimal = None
    exact: bool | None = None
    if config.oracle == "exact":
        best = max(runs, key=lambda run: run.alpha)
        start = time.perf_counter()
        result = solve_optimal(instance, config.limits, incumbent=best)
        metrics["oracle"] = {
            "wall_s": time.perf_counter() - start,
            # the search visits at least the root unless the incumbent meets the bound
            "searched": int(result.visited > 0),
            "visited": result.visited,
            "memo": result.memo,
            "gap": ub - result.alpha,
        }
        exact = result.exact
        if exact:
            optimal = result.alpha
    rows = [
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
        for alg, run in zip(config.algorithms, runs)
    ]
    return rows, ub, metrics


# ---------------------------------------------------------------------------
# the batch worker: one forked process per interpreter, kept between batches


# (pid, request pipe, reply pipe) of this interpreter's worker, once forked
_worker: tuple | None = None


def _serve(requests, replies) -> None:
    """The worker's loop: read ``(config, run indices)`` requests and send
    back each one's list of :func:`_run_one` results, or the exception that
    stopped it, until the request pipe reaches end of file.

    It writes nothing to stdout or stderr.  It ignores SIGINT: on an
    interrupt the caller kills it if a batch is under way, and keeps it
    otherwise.
    """
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    while True:
        try:
            config, indices = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = pickle.dumps([_run_one(config, t) for t in indices])
        except BaseException as exc:
            try:
                reply = pickle.dumps(exc)
                pickle.loads(reply)
            except BaseException:
                reply = pickle.dumps(RuntimeError(repr(exc)))
        replies.write(reply)
        replies.flush()


def _exited(pid: int) -> bool:
    """True unless ``pid`` is this process's running child, the one state in
    which its pid cannot be another process's; an exited child is reaped."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def _start_worker(runs: int) -> tuple | None:
    """This interpreter's worker for a batch of ``runs`` runs, forked now
    unless it is running; one that has exited is let go and replaced.  None
    where a second process cannot help (one run, no ``fork``, fewer than two
    CPUs), where a fork is unsafe (threads running) or where it fails."""
    global _worker
    if runs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    affinity = getattr(os, "sched_getaffinity", None)
    if (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return None
    if _worker is not None and _exited(_worker[0]):
        _stop_worker()
    if _worker is None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            return None
        if pid == 0:
            # the worker leaves through os._exit only, so it never flushes
            # the output buffers it inherited
            try:
                os.close(request_w)
                os.close(reply_r)
                _serve(os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        _worker = (pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb"))
    return _worker


def _stop_worker(kill: bool = False) -> None:
    """Let the worker go, the one way it is let go: close its pipes, which
    ends its loop, and reap it.  With ``kill``, kill it first, so that a
    reply it still owes is never read, unless it has :func:`_exited`: a
    reaped worker's pid may be another process's by now."""
    global _worker
    if _worker is not None:
        pid, requests, replies = _worker
        _worker = None
        if kill and not _exited(pid):
            import signal

            os.kill(pid, signal.SIGKILL)
        replies.close()
        try:
            requests.close()
        except BrokenPipeError:  # a request it never read
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already, or not this process's child
            pass


atexit.register(_stop_worker)
# a forked child drops its copy of the pipes; the worker is not its child
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_stop_worker)


def _run_all(config: BatchConfig) -> tuple[list, int]:
    """:func:`_run_one` of every run of ``config`` in run order, and the
    number of processes that ran them.  With two, the worker takes the odd
    runs while this process computes the even ones."""
    worker = _start_worker(config.runs)
    if worker is None:
        return [_run_one(config, t) for t in range(config.runs)], 1
    import pickle

    _, requests, replies = worker
    try:
        pickle.dump((config, range(1, config.runs, 2)), requests)
        requests.flush()
        mine = [_run_one(config, t) for t in range(0, config.runs, 2)]
        try:
            theirs = pickle.load(replies)
        except (EOFError, pickle.UnpicklingError):  # no reply, or one cut short
            raise ChildProcessError("the batch worker exited without a reply") from None
    except BaseException:
        _stop_worker(kill=True)
        raise
    if isinstance(theirs, BaseException):
        raise theirs
    results = [None] * config.runs
    results[::2] = mine
    results[1::2] = theirs
    return results, 2


def run_batch(config: BatchConfig) -> BatchReport:
    """Generate ``runs`` random instances and benchmark every configured algorithm.

    Each run is :func:`_run_one`; a batch of two or more runs is split
    between this process and one forked worker where :func:`_start_worker`
    gives one, and the results are merged in run order, so every output is
    the same on either path.
    """
    results, processes = _run_all(config)
    rows: list[dict] = []
    ub_total = 0
    # per algorithm, wall seconds and steps summed over the runs, and with
    # the exact oracle an "oracle" entry: its wall seconds, the instances it
    # searched, the states it visited, its memo entries and the gap from
    # each instance's upper bound to the alpha it reported, each summed over
    # the instances; JSON only, so the CSV stays byte-deterministic
    metrics: dict[str, dict] = {}
    for run_rows, ub, run_metrics in results:
        rows += run_rows
        ub_total += ub
        for name, counters in run_metrics.items():
            total = metrics.setdefault(name, dict.fromkeys(counters, 0))
            for key, value in counters.items():
                total[key] += value
    flags = [run_rows[0]["exact_flag"] for run_rows, _, _ in results]
    exact_runs, exceeded = flags.count(True), flags.count(False)
    # the config but its output paths and its algorithm ids, the keys of "algorithms"
    skip = ("algorithms", "out_csv", "out_json")
    summary = {name: value for name, value in asdict(config).items() if name not in skip}
    stats = summarize_rows(rows)
    recursion = randomized_lower_bound(config.m, config.n, config.k)[0]
    mean_ub = ub_total / config.runs
    summary |= {
        "pmnk": {"value": float(pmnk_exact(config.m, config.n, config.k))},
        "rand_recursion": recursion,
        "mean_upper_bound": mean_ub,
        # the recursion is no lower bound where it exceeds either mean
        "recursion_above_mean_upper_bound": recursion > mean_ub,
        "recursion_above_rand_mean": (
            recursion > stats["rand"]["mean_alpha"] if "rand" in stats else None
        ),
        "exact_oracle_runs": exact_runs,
        "oracle_exceeded_runs": exceeded,
        "algorithms": stats,
        "metrics": metrics,
        "processes": processes,
    }
    if config.out_csv:
        with open(config.out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
    if config.out_json:
        with open(config.out_json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return BatchReport(config=config, rows=tuple(rows), summary=summary)


def _csv_cell(value):
    """A row's value as its CSV cell: empty for None, true/false for a bool."""
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else value


def rows_to_csv(rows: list[dict]) -> str:
    """Render per-run rows with the fixed column set, byte-stable."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])
    return buffer.getvalue()


# how rows_from_csv reads a cell of each column; every column not named is an int
_CSV_READERS = {
    "algorithm": str,
    "optimal": lambda text: int(text) if text else None,
    "exact_flag": {"true": True, "false": False, "": None}.__getitem__,
}


def rows_from_csv(text: str) -> list[dict]:
    """Parse rows back from CSV; inverse of :func:`rows_to_csv`.  A header
    other than :data:`CSV_COLUMNS`, or a row without one readable cell per
    column, raises ValueError naming its line."""
    records = csv.reader(io.StringIO(text))
    if next(records, None) != list(CSV_COLUMNS):
        raise ValueError(f"CSV line 1 is not the header {','.join(CSV_COLUMNS)}")
    try:
        return [
            {c: _CSV_READERS.get(c, int)(v) for c, v in zip(CSV_COLUMNS, row, strict=True)}
            for row in records
        ]
    except (KeyError, ValueError):  # the reader stopped at the line that failed
        raise ValueError(f"CSV line {records.line_num} does not fit the columns") from None


def report_text(report: BatchReport) -> str:
    """Human-readable summary block for one batch."""
    cfg, s = report.config, report.summary
    lines = [
        f"(m={cfg.m}, n={cfg.n}, k={cfg.k})  runs={cfg.runs}  seed={cfg.seed}  "
        f"oracle={cfg.oracle}",
        f"  coverage p(m,n,k) = {report.pmnk_value:.6g} (exact)",
        f"  parity upper bound, mean over runs = {s['mean_upper_bound']:.1f}",
    ]
    if cfg.oracle == "exact":
        exceeded = s["oracle_exceeded_runs"]
        lines.append(
            f"  exact optima on {s['exact_oracle_runs']}/{cfg.runs} runs"
            + (f" ({exceeded} exceeded the search budget)" if exceeded else "")
        )
    header = f"  {'algorithm':<20} {'mean alpha':>12} {'ci95':>8} {'success':>8} {'shortfall%':>11}"
    lines.append(header)
    for alg in cfg.algorithms:
        stats = s["algorithms"][alg]
        rate, pct = stats["success_rate"], stats["mean_shortfall_pct"]
        success = "-" if rate is None else f"{rate:.2f}"
        shortfall = "-" if pct is None else f"{pct:.3f}"
        lines.append(
            f"  {ALGORITHM_LABELS[alg]:<20} {stats['mean_alpha']:>12.1f} "
            f"{stats['ci95']:>8.1f} {success:>8} {shortfall:>11}"
        )
        if alg == "rand":
            lines.append(f"    paper's recursion  {s['rand_recursion']:>12.1f}")
    return "\n".join(lines)


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


# The heuristics against the exact oracle, as (m, n, k); every row takes
# the master seed as is and the default search limits, under which all 100
# runs of each row certify at seed 0.
HEURISTIC_PRESETS = {
    "small": ((4, 5, 2), (15, 20, 5)),
    "large": ((4, 5, 2), (15, 20, 5), (40, 50, 5)),
}
TABLE_PRESETS = ("bounds", *HEURISTIC_PRESETS)


def preset_configs(preset: str, runs: int = 100, seed: int = 0) -> list[BatchConfig]:
    """The batch configs of a named table preset (:data:`TABLE_PRESETS`)."""
    if preset == "bounds":
        return reference_bound_configs(runs=runs, seed=seed)
    return [
        BatchConfig(m=m, n=n, k=k, runs=runs, seed=seed)
        for m, n, k in HEURISTIC_PRESETS[preset]
    ]
