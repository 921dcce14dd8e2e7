import json
import math

import pytest

from gtexchange import (
    BatchConfig,
    Link,
    aggregate_cardinality,
    apply_schedule,
    compare_table,
    derive_seed,
    gen_instance,
    pmnk_exact,
    run_algorithm,
    run_batch,
    solve_optimal,
    upper_bound,
)
from gtexchange.harness import (
    default_master_seed,
    instance_from_dict,
    load_instance,
    load_schedule,
    report_text,
    rows_from_csv,
    rows_to_csv,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    summarize_rows,
    reference_bound_configs,
)
from conftest import build_instance


# ------------------------------------------------------------- gen_instance


def test_gen_instance_is_deterministic():
    a = gen_instance(5, 8, 3, seed=123)
    b = gen_instance(5, 8, 3, seed=123)
    assert a == b
    assert a.equal_cardinality == 3


def test_gen_instance_argument_checks():
    with pytest.raises(ValueError):
        gen_instance(3, 4, 5, seed=0)
    with pytest.raises(ValueError):
        gen_instance(3, 4, 4, seed=0)  # full sets break strict validation
    relaxed = gen_instance(3, 4, 4, seed=0, strict=False)
    assert all(len(s) == 4 for s in relaxed.initial_sets)


def test_gen_instance_marginal_inclusion_frequency():
    trials = 10_000
    m, n, k = 3, 5, 2
    hits = 0
    for t in range(trials):
        inst = gen_instance(m, n, k, seed=derive_seed(77, t))
        hits += sum(1 for s in inst.initial_sets if 0 in s)
    p = k / n
    sigma = math.sqrt(p * (1 - p) / (trials * m))
    assert abs(hits / (trials * m) - p) <= 4 * sigma


def test_gen_instance_union_coverage_matches_pmnk():
    trials = 20_000
    expected = pmnk_exact(2, 2, 1).value
    covered = 0
    for t in range(trials):
        inst = gen_instance(2, 2, 1, seed=derive_seed(5, t))
        if len(inst.realized_universe) == 2:
            covered += 1
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(covered / trials - expected) <= 4 * sigma


def test_derived_seeds_are_distinct_within_a_batch():
    seeds = {derive_seed(9, t, "instance") for t in range(500)}
    assert len(seeds) == 500


# ------------------------------------------------------------- file formats


def test_instance_file_round_trip(tmp_path):
    inst = build_instance(5, [0, 1], [1, 2], [2, 3], [3, 4])
    path = tmp_path / "instance.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst
    # on disk everything is 1-based
    raw = json.loads(path.read_text())
    assert raw == {"m": 4, "n": 5, "sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}


def test_instance_from_dict_accepts_the_documented_shape():
    inst = instance_from_dict(
        {"m": 4, "n": 5, "sets": [[1, 2], [2, 3], [3, 4], [4, 5]]}
    )
    assert inst.initial_sets[0].to_list() == [0, 1]
    assert inst.initial_sets[3].to_list() == [3, 4]


@pytest.mark.parametrize(
    "data",
    [
        {"m": 2, "n": 3},
        {"m": 2, "n": 3, "sets": [[1]]},
        {"m": 2, "n": 3, "sets": [[1], [2, 2]]},  # duplicate entry
        {"m": 2, "n": 3, "sets": [[1], [3, 2]]},  # not increasing
        {"m": 2, "n": 3, "sets": [[1], [0]]},  # ids are 1-based
        {"m": 2, "n": 3, "sets": [[1], [4]]},  # beyond the universe
        {"m": 2, "n": 3, "sets": [[1], ["2"]]},
        {"m": "2", "n": 3, "sets": [[1], [2]]},
        {"m": 2, "n": True, "sets": [[1], [1]]},  # JSON true is no integer
        {"m": 2, "n": 3, "sets": [[True], [2]]},
    ],
)
def test_instance_from_dict_rejects_malformed_input(data):
    for strict in (True, False):
        with pytest.raises(ValueError):
            instance_from_dict(data, strict=strict)


def test_instance_file_honours_the_universe_cap(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 2, "n": 5000, "sets": [[1], [2]]}))
    with pytest.raises(ValueError):
        load_instance(str(path))


def test_schedule_file_round_trip(tmp_path):
    inst = build_instance(5, [0, 1], [1, 2], [2, 3], [3, 4])
    link_seq = [Link(0, 2), Link(1, 3), Link(0, 1)]
    path = tmp_path / "schedule.json"
    save_schedule(link_seq, str(path))
    assert json.loads(path.read_text()) == {"steps": [[1, 3], [2, 4], [1, 2]]}
    loaded = load_schedule(str(path))
    assert loaded == link_seq
    final, _ = apply_schedule(inst, loaded)
    assert aggregate_cardinality(final) > 0


def test_schedule_from_dict_rejects_malformed_input():
    with pytest.raises(ValueError):
        schedule_from_dict({})
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": [[1]]})
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": [[0, 1]]})  # node ids are 1-based
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": [[True, 2]]})  # JSON true is no node id


def test_schedule_dict_accepts_enriched_schedules():
    inst = build_instance(2, [0], [1])
    _, trace = apply_schedule(inst, [Link(0, 1)])
    assert schedule_to_dict(trace) == {"steps": [[1, 2]]}


# ----------------------------------------------------------------- batches


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(m=3, n=4, k=5)
    with pytest.raises(ValueError):
        BatchConfig(m=3, n=4, k=2, runs=0)
    with pytest.raises(ValueError):
        BatchConfig(m=3, n=4, k=2, oracle="sometimes")
    with pytest.raises(ValueError):
        BatchConfig(m=3, n=4, k=2, algorithms=("rand", "quantum"))
    with pytest.raises(ValueError, match="more than once"):
        BatchConfig(m=3, n=4, k=2, algorithms=("rand", "glink", "rand"))
    with pytest.raises(ValueError, match="bogus"):
        BatchConfig(m=3, n=4, k=2, tie_mode="bogus")


def test_degenerate_batch_everyone_identical():
    config = BatchConfig(m=3, n=2, k=2, runs=10, seed=4, strict=False)
    report = run_batch(config)
    for stats in report.stats.values():
        assert stats.mean_alpha == 6.0
        assert stats.success_rate == 1.0
        assert stats.mean_shortfall_pct == 0.0
    assert report.pmnk_value == 1.0
    assert report.exact_oracle_runs == 10


def test_batch_greedy_links_is_exact_on_small_instances():
    config = BatchConfig(m=4, n=5, k=2, runs=60, seed=12)
    report = run_batch(config)
    gl = report.stats["glink"]
    assert gl.exact_runs == 60
    assert gl.success_rate == 1.0
    assert gl.mean_shortfall_pct == 0.0
    for stats in report.stats.values():
        assert stats.success_rate is None or 0.0 <= stats.success_rate <= 1.0
        if stats.success_rate == 1.0:
            assert stats.mean_shortfall_pct == 0.0


def test_batch_rows_respect_the_optimum_chain():
    config = BatchConfig(m=4, n=5, k=2, runs=25, seed=44)
    report = run_batch(config)
    for row in report.rows:
        if row["exact_flag"] is True:
            instance = gen_instance(4, 5, 2, row["seed"])
            assert row["alpha"] <= row["optimal"] <= upper_bound(instance)


def test_batch_rows_round_trip_through_csv():
    config = BatchConfig(m=4, n=5, k=2, runs=20, seed=3)
    report = run_batch(config)
    text = rows_to_csv(list(report.rows))
    assert rows_from_csv(text) == list(report.rows)
    assert summarize_rows(rows_from_csv(text)) == report.stats


def test_batch_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        run_batch(
            BatchConfig(m=4, n=5, k=2, runs=15, seed=99, out_csv=str(out))
        )
    assert out_a.read_bytes() == out_b.read_bytes()


def test_batch_skip_oracle_leaves_success_columns_empty():
    config = BatchConfig(m=5, n=6, k=2, runs=5, seed=1, oracle="skip")
    report = run_batch(config)
    assert all(row["optimal"] is None for row in report.rows)
    assert all(s.success_rate is None for s in report.stats.values())
    assert list(report.metrics) == list(config.algorithms)  # no oracle counters
    text = rows_to_csv(list(report.rows))
    assert rows_from_csv(text) == list(report.rows)


def _direct_oracle_counts(config):
    """The batch JSON's oracle counters (instances searched, states visited,
    memo entries, gap from the upper bound to the reported alpha) of direct
    ``solve_optimal`` calls on a batch's instances, each from the run's best
    heuristic."""
    counts = {"searched": 0, "visited": 0, "memo": 0, "gap": 0}
    for t in range(config.runs):
        instance = gen_instance(
            config.m, config.n, config.k, derive_seed(config.seed, t, "instance")
        )
        best = max(
            (
                run_algorithm(alg, instance, seed=derive_seed(config.seed, t, "alg", alg))
                for alg in config.algorithms
            ),
            key=lambda run: run.alpha,
        )
        result = solve_optimal(instance, config.limits, incumbent=best)
        counts["searched"] += result.visited > 0
        counts["visited"] += result.visited
        counts["memo"] += result.memo
        counts["gap"] += upper_bound(instance) - result.alpha
    return counts


def test_batch_json_summary(tmp_path):
    out = tmp_path / "summary.json"
    config = BatchConfig(m=3, n=4, k=2, runs=5, seed=2, out_json=str(out))
    report = run_batch(config)
    data = json.loads(out.read_text())
    assert data["m"] == 3 and data["runs"] == 5
    assert data["pmnk"] == {"value": pmnk_exact(3, 4, 2).value}
    assert data["algorithms"]["glink"]["mean_alpha"] == report.stats["glink"].mean_alpha
    # per-algorithm wall time and steps, summed over the runs, then the
    # oracle's counters, in the JSON only
    assert list(data["metrics"]) == [*config.algorithms, "oracle"]
    for alg in config.algorithms:
        metrics = data["metrics"][alg]
        assert set(metrics) == {"wall_s", "steps"}
        assert isinstance(metrics["wall_s"], float) and metrics["wall_s"] >= 0
        assert metrics["steps"] == sum(
            row["steps"] for row in report.rows if row["algorithm"] == alg
        )
    oracle = data["metrics"]["oracle"]
    wall_s = oracle.pop("wall_s")
    assert isinstance(wall_s, float) and wall_s >= 0
    assert oracle == _direct_oracle_counts(config)
    # a batch where the heuristics miss the bound on two instances
    searching = BatchConfig(m=5, n=6, k=2, runs=5, seed=0)
    counts = run_batch(searching).metrics["oracle"]
    assert counts.pop("wall_s") >= 0
    assert counts == _direct_oracle_counts(searching)
    assert counts["searched"] == 2
    assert counts["memo"] > 0 and counts["gap"] > 0
    csv_text = rows_to_csv(list(report.rows))
    text = report_text(report)
    for key in ("wall_s", "searched", "visited", "memo", "gap"):
        assert key not in csv_text
        assert key not in text


def test_random_tie_batches_are_reproducible():
    config = BatchConfig(m=4, n=5, k=2, runs=10, seed=8, tie_mode="random")
    assert run_batch(config).rows == run_batch(config).rows


# ------------------------------------------------------------------ reports


def test_compare_table_empty():
    assert compare_table([]) == ""


def test_compare_table_reference_rows_trimmed():
    configs = reference_bound_configs(runs=15, seed=31)
    reports = [run_batch(config) for config in configs]
    text = compare_table(reports)
    blocks = text.split("\n\n")
    assert len(blocks) == 5
    for report, block in zip(reports, blocks):
        assert f"m={report.config.m}" in block
        assert "analytic lower bound" in block
        assert f"coverage p(m,n,k) = {report.pmnk_value:.6g} (exact)" in block
        assert report.stats["rand"].mean_alpha >= report.rand_lower_bound


@pytest.mark.parametrize(
    "mnk",
    [(60, 100, 3), (60, 100, 5), (60, 100, 7), (80, 200, 15), (100, 300, 15),
     (40, 50, 5), (15, 20, 5)],
)
def test_batch_coverage_is_exact_at_formerly_sampled_sizes(mnk):
    m, n, k = mnk
    config = BatchConfig(
        m=m, n=n, k=k, runs=1, seed=5, algorithms=("rand",), oracle="skip"
    )
    assert run_batch(config).pmnk_value == pmnk_exact(m, n, k).value


def test_report_text_mentions_oracle_budget(tmp_path):
    config = BatchConfig(m=3, n=4, k=2, runs=3, seed=6)
    text = report_text(run_batch(config))
    assert "exact optima on 3/3 runs" in text


# ------------------------------------------------------------- seed default


def test_default_master_seed(monkeypatch):
    monkeypatch.delenv("GTX_SEED", raising=False)
    assert default_master_seed(None) == 0
    assert default_master_seed(17) == 17
    monkeypatch.setenv("GTX_SEED", "41")
    assert default_master_seed(None) == 41
    assert default_master_seed(17) == 17
