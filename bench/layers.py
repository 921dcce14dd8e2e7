"""Which gtexchange names the traced run wraps, and the per-layer metrics built from them.

Layers are the package's modules.  Each target is a name one module binds
from the layer below it (or a module-level helper its callers look up at
call time), so a span covers exactly one crossing into that layer:

* ``cli``        -- ``cli.main`` itself; ``report_text`` as the CLI calls it;
* ``harness``    -- ``run_batch`` (from the benchmark and from the CLI) and
  the helpers it calls: ``gen_instance``, ``summarize_rows``, ``rows_to_csv``;
* ``oracle``     -- ``solve_optimal`` as the harness calls it, and the greedy
  presolve (``run_greedy_links`` as the oracle binds it);
* ``algorithms`` -- ``run_algorithm`` as the harness calls it, one span name
  per algorithm id;
* ``analysis``   -- the coverage probability and the lower-bound recursion
  as the harness binds them;
* ``core``       -- ``links``, ``gt_satisfied`` and ``activate_traced`` as the
  algorithms and the oracle bind them.

``harness.self_s`` and ``cli.self_s`` are the self times of the
``run_batch`` and ``cli.main`` spans: work in those functions that no
wrapped callee accounts for.
"""

from __future__ import annotations

from tracing import Tracer

ALGORITHMS = ("rand", "glink", "poly", "ginc", "rare")


def _add(counts: dict, key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0) + amount


def _algorithm_name(args: tuple, kwargs: dict) -> str:
    return f"algorithms.{args[0] if args else kwargs['algorithm']}"


def _algorithm_done(counts, args, kwargs, run) -> None:
    alg = _algorithm_name(args, kwargs)
    _add(counts, f"{alg}.steps", len(run.schedule))
    if alg == "algorithms.rand":
        _add(counts, "algorithms.rand.phases", run.rounds)
    elif alg == "algorithms.poly":
        _add(counts, "algorithms.poly.post_sweep_steps", run.post_sweep_steps)


def _solve_done(counts, args, kwargs, result) -> None:
    _add(counts, "oracle.visited", result.visited)
    _add(counts, "oracle.certified", int(result.exact))
    _add(counts, "oracle.presolve_hits", int(result.exact and result.visited == 0))


def _montecarlo_done(counts, args, kwargs, result) -> None:
    _add(counts, "analysis.pmnk_mc.trials", kwargs["trials"] if "trials" in kwargs else args[3])


TARGETS = (
    ("gtexchange.cli", "main", "cli", None),
    ("gtexchange.cli", "report_text", "cli.report_text", None),
    ("gtexchange.cli", "run_batch", "harness.run_batch", None),
    ("gtexchange.harness", "run_batch", "harness.run_batch", None),
    ("gtexchange.harness", "gen_instance", "harness.gen_instance", None),
    ("gtexchange.harness", "summarize_rows", "harness.summarize", None),
    ("gtexchange.harness", "rows_to_csv", "harness.rows_to_csv", None),
    ("gtexchange.harness", "solve_optimal", "oracle.solve", _solve_done),
    ("gtexchange.harness", "run_algorithm", _algorithm_name, _algorithm_done),
    ("gtexchange.harness", "pmnk_exact", "analysis.pmnk_exact", None),
    ("gtexchange.harness", "pmnk_montecarlo", "analysis.pmnk_mc", _montecarlo_done),
    ("gtexchange.harness", "randomized_lower_bound", "analysis.bound", None),
    ("gtexchange.oracle", "run_greedy_links", "oracle.presolve", None),
    ("gtexchange.oracle", "links", "core.links", None),
    ("gtexchange.oracle", "activate_traced", "core.activate", None),
    ("gtexchange.algorithms", "links", "core.links", None),
    ("gtexchange.algorithms", "gt_satisfied", "core.gt_satisfied", None),
    ("gtexchange.algorithms", "activate_traced", "core.activate", None),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float, batches: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; absent spans read as zero."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    out: dict[str, tuple[float, str]] = {}
    for name in ("core.links", "core.activate", "core.gt_satisfied"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for alg in ALGORITHMS:
        name = f"algorithms.{alg}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        out[f"{name}.steps"] = (counts.get(f"{name}.steps", 0), "count")
    out["algorithms.rand.phases"] = (counts.get("algorithms.rand.phases", 0), "count")
    out["algorithms.rand.pair_hit_ratio"] = (
        _ratio(
            tracer.calls_within("algorithms.rand", "core.activate"),
            tracer.calls_within("algorithms.rand", "core.gt_satisfied"),
        ),
        "ratio",
    )
    out["algorithms.poly.post_sweep_steps"] = (
        counts.get("algorithms.poly.post_sweep_steps", 0),
        "count",
    )

    solves = calls("oracle.solve")
    certified = counts.get("oracle.certified", 0)
    visited = counts.get("oracle.visited", 0)
    out["oracle.solve.calls"] = (solves, "count")
    out["oracle.solve.self_s"] = (self_s("oracle.solve"), "s")
    out["oracle.presolve.self_s"] = (self_s("oracle.presolve"), "s")
    out["oracle.presolve_hit_ratio"] = (_ratio(counts.get("oracle.presolve_hits", 0), solves), "ratio")
    out["oracle.visited"] = (visited, "count")
    out["oracle.states_per_s"] = (_ratio(visited, self_s("oracle.solve")), "1/s")
    out["oracle.exceeded"] = (solves - certified, "count")
    out["oracle.certified_ratio"] = (_ratio(certified, solves), "ratio")

    out["analysis.pmnk_mc.calls"] = (calls("analysis.pmnk_mc"), "count")
    out["analysis.pmnk_mc.trials"] = (counts.get("analysis.pmnk_mc.trials", 0), "count")
    out["analysis.pmnk_mc.self_s"] = (self_s("analysis.pmnk_mc"), "s")
    out["analysis.pmnk_exact.calls"] = (calls("analysis.pmnk_exact"), "count")
    out["analysis.pmnk_exact.self_s"] = (self_s("analysis.pmnk_exact"), "s")
    out["analysis.bound.self_s"] = (self_s("analysis.bound"), "s")

    out["harness.run_batch.calls"] = (calls("harness.run_batch"), "count")
    out["harness.self_s"] = (self_s("harness.run_batch"), "s")
    for name in (
        "harness.gen_instance",
        "harness.summarize",
        "harness.rows_to_csv",
        "cli",
        "cli.report_text",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.batches"] = (batches, "count")
    return out
