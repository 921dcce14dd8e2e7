import hashlib
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gtexchange import (
    BatchConfig,
    Link,
    SearchLimits,
    apply_schedule,
    derive_seed,
    gen_instance,
    pmnk_exact,
    run_algorithm,
    run_batch,
    solve_optimal,
    upper_bound,
)
from gtexchange import cli, harness
from gtexchange.harness import (
    instance_from_dict,
    preset_configs,
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
from gtexchange.core import MAX_NODES
from conftest import build_instance
from test_cli import PRESET_DIGESTS
from test_kernel import CSV_DIGESTS

ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------- gen_instance


def test_gen_instance_is_deterministic():
    a = gen_instance(5, 8, 3, seed=123)
    b = gen_instance(5, 8, 3, seed=123)
    assert a == b
    assert {len(s) for s in a.initial_sets} == {3}


def test_gen_instance_argument_checks():
    with pytest.raises(ValueError):
        gen_instance(3, 4, 5, seed=0)
    with pytest.raises(ValueError):
        gen_instance(3, 4, 0, seed=0)
    full = gen_instance(3, 4, 4, seed=0)  # every node holds the whole universe
    assert all(len(s) == 4 for s in full.initial_sets)


@pytest.mark.parametrize(
    "mnk", [(2, True, True), (True, 5, 2), (2, 5, 2.0), (2.0, 5, 2), (2, 5.0, 2)]
)
def test_gen_instance_sizes_must_be_exact_ints(mnk, monkeypatch):
    # refused before any set is sampled
    def no_draws(*args):
        raise AssertionError("a set was sampled")

    monkeypatch.setattr("gtexchange.harness._sample_mask", no_draws)
    with pytest.raises(ValueError, match="must be (an integer|integers)"):
        gen_instance(*mnk, seed=0)


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
    expected = float(pmnk_exact(2, 2, 1))
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
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_instance_file_honours_the_universe_cap(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 2, "n": 5000, "sets": [[1], [2]]}))
    with pytest.raises(ValueError):
        load_instance(str(path))


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_instance(2, 10**9, 2, seed=0),
        lambda: gen_instance(1, 5, 2, seed=0),
        lambda: gen_instance(MAX_NODES + 1, 5, 2, seed=0),
        lambda: instance_from_dict({"m": 2, "n": 10**8, "sets": [[10**8], [1]]}),
    ],
    ids=["gen-past-the-cap", "gen-one-node", "gen-past-the-node-cap", "file-past-the-cap"],
)
def test_sizes_are_refused_before_any_set_is_built(build, monkeypatch):
    # one set over 10**9 segments is a 125 MB mask; gen_instance samples
    # each set's mask, and a file's sets are built from their ids; a group
    # past the node cap would sample every set first
    def no_set(*args):
        raise AssertionError("a set was built")

    monkeypatch.setattr("gtexchange.harness._sample_mask", no_set)
    monkeypatch.setattr("gtexchange.harness.SegmentSet.from_iterable", no_set)
    with pytest.raises(ValueError, match="cap|two nodes"):
        build()


def test_schedule_file_round_trip(tmp_path):
    inst = build_instance(5, [0, 1], [1, 2], [2, 3], [3, 4])
    link_seq = [Link(0, 2), Link(1, 3), Link(0, 1)]
    path = tmp_path / "schedule.json"
    save_schedule(link_seq, str(path))
    assert json.loads(path.read_text()) == {"steps": [[1, 3], [2, 4], [1, 2]]}
    loaded = load_schedule(str(path))
    assert loaded == link_seq
    final, _ = apply_schedule(inst, loaded)
    assert sum(map(len, final)) > 0


def test_schedule_from_dict_rejects_malformed_input():
    with pytest.raises(ValueError):
        schedule_from_dict({})
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": [[1]]})
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": [[0, 1]]})  # node ids are 1-based
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": [[True, 2]]})  # JSON true is no node id
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": 5})
    with pytest.raises(ValueError):
        schedule_from_dict({"steps": None})


def test_schedule_dict_accepts_enriched_schedules():
    inst = build_instance(2, [0], [1])
    _, trace = apply_schedule(inst, [Link(0, 1)])
    assert schedule_to_dict(trace) == {"steps": [[1, 2]]}


# ----------------------------------------------------------------- batches


def test_batch_config_refuses_a_single_node():
    # the coverage check takes m = 1, but one node has nobody to exchange
    # with; the config refuses it, so no batch of a table has run yet
    with pytest.raises(ValueError, match="m=1"):
        BatchConfig(m=1, n=4, k=2)
    assert BatchConfig(m=2, n=4, k=2).m == 2


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
    with pytest.raises(ValueError, match="at least one algorithm"):
        BatchConfig(m=3, n=4, k=2, algorithms=())
    with pytest.raises(ValueError, match="bogus"):
        BatchConfig(m=3, n=4, k=2, tie_mode="bogus")
    # types are checked first: no bool for a count, no string size
    with pytest.raises(ValueError, match="runs"):
        BatchConfig(m=4, n=5, k=2, runs=True)
    with pytest.raises(ValueError, match="field m"):
        BatchConfig(m="4", n=5, k=2)
    with pytest.raises(ValueError, match="limits"):
        BatchConfig(m=4, n=5, k=2, limits={"max_states": 5})
    with pytest.raises(ValueError, match="algorithms"):
        BatchConfig(m=4, n=5, k=2, algorithms="rand")


def test_batch_config_refuses_csv_and_json_on_one_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match="out.txt"):
        BatchConfig(m=3, n=4, k=2, out_csv=str(path), out_json=str(path))
    monkeypatch.chdir(tmp_path)  # two spellings of one file
    with pytest.raises(ValueError, match="both go to"):
        BatchConfig(m=3, n=4, k=2, out_csv="out.txt", out_json=str(path))
    assert not path.exists()
    config = BatchConfig(m=3, n=4, k=2, runs=2, out_csv="rows.csv", out_json="s.json")
    run_batch(config)
    assert rows_from_csv((tmp_path / "rows.csv").read_text())
    assert json.loads((tmp_path / "s.json").read_text())["runs"] == 2


def test_batch_config_from_dict_names_the_missing_fields():
    with pytest.raises(ValueError, match=r"\['k'\]"):
        BatchConfig.from_dict({"m": 3, "n": 4})
    with pytest.raises(ValueError, match=r"\['m', 'n', 'k'\]"):
        BatchConfig.from_dict({})
    config = BatchConfig.from_dict(
        {"m": 3, "n": 4, "k": 2, "algorithms": ["rand"], "limits": {"max_states": 9}}
    )
    assert config.algorithms == ("rand",)
    assert config.limits == SearchLimits(max_states=9)


def test_degenerate_batch_everyone_identical():
    config = BatchConfig(m=3, n=2, k=2, runs=10, seed=4)
    report = run_batch(config)
    for stats in report.summary["algorithms"].values():
        assert stats["mean_alpha"] == 6.0
        assert stats["success_rate"] == 1.0
        assert stats["mean_shortfall_pct"] == 0.0
    assert report.pmnk_value == 1.0
    assert report.summary["exact_oracle_runs"] == 10


def test_batch_greedy_links_is_exact_on_small_instances():
    config = BatchConfig(m=4, n=5, k=2, runs=60, seed=12)
    report = run_batch(config)
    gl = report.summary["algorithms"]["glink"]
    assert gl["exact_runs"] == 60
    assert gl["success_rate"] == 1.0
    assert gl["mean_shortfall_pct"] == 0.0
    for stats in report.summary["algorithms"].values():
        assert stats["success_rate"] is None or 0.0 <= stats["success_rate"] <= 1.0
        if stats["success_rate"] == 1.0:
            assert stats["mean_shortfall_pct"] == 0.0


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
    assert summarize_rows(rows_from_csv(text)) == report.summary["algorithms"]


def test_batch_reports_oracle_overruns_apart_from_exact_runs():
    # a one-state budget certifies the runs whose incumbent meets the bound
    # and overruns the rest
    config = BatchConfig(m=6, n=5, k=2, runs=10, seed=0, limits=SearchLimits(max_states=1))
    report = run_batch(config)
    summary = report.summary
    assert (summary["exact_oracle_runs"], summary["oracle_exceeded_runs"]) == (6, 4)
    assert summary["exact_oracle_runs"] + summary["oracle_exceeded_runs"] == config.runs
    overrun = [row for row in report.rows if row["exact_flag"] is not True]
    assert len(overrun) == 4 * len(config.algorithms)
    assert all(row["exact_flag"] is False and row["optimal"] is None for row in overrun)
    assert rows_from_csv(rows_to_csv(list(report.rows))) == list(report.rows)
    exact = [row for row in report.rows if row["exact_flag"] is True]
    for alg, stats in summary["algorithms"].items():
        mine = [row for row in exact if row["algorithm"] == alg]
        assert stats["exact_runs"] == len(mine) == 6
        assert stats["successes"] == sum(row["alpha"] == row["optimal"] for row in mine)
    assert "exact optima on 6/10 runs (4 exceeded the search budget)" in report_text(report)


def test_rows_from_csv_refuses_malformed_cells():
    header = "run,seed,algorithm,alpha,optimal,exact_flag,steps,post_sweep_steps\n"
    good = ["0", "7", "rand", "9", "", "", "3", "0"]
    assert rows_from_csv(header + ",".join(good) + "\n")[0]["exact_flag"] is None
    for column, cell in [(0, ""), (3, ""), (6, ""), (4, "x"), (5, "yes"), (5, "True")]:
        bad = list(good)
        bad[column] = cell
        with pytest.raises(ValueError, match="CSV line 2 "):
            rows_from_csv(header + ",".join(bad) + "\n")
    good_row = ",".join(good) + "\n"
    for cells in (good[:-1], good + ["0"], []):  # short, long and blank rows
        with pytest.raises(ValueError, match="CSV line 3 "):
            rows_from_csv(header + good_row + ",".join(cells) + "\n")
    foreign = header.replace("algorithm", "alg")
    for text in (foreign + good_row, header[:-1] + ",extra\n" + good_row, ""):
        with pytest.raises(ValueError, match="CSV line 1 "):
            rows_from_csv(text)


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
    assert all(s["success_rate"] is None for s in report.summary["algorithms"].values())
    assert list(report.summary["metrics"]) == list(config.algorithms)  # no oracle counters
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
    assert data["pmnk"] == {"value": float(pmnk_exact(3, 4, 2))}
    assert data == report.summary  # the report holds the JSON it wrote
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
    counts = run_batch(searching).summary["metrics"]["oracle"]
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


def test_compare_table_reference_rows_trimmed():
    configs = reference_bound_configs(runs=15, seed=31)
    reports = [run_batch(config) for config in configs]
    assert len(reports) == 5
    for report in reports:
        block = report_text(report)
        assert "\n\n" not in block
        assert f"m={report.config.m}" in block
        assert "paper's recursion" in block
        assert f"coverage p(m,n,k) = {report.pmnk_value:.6g} (exact)" in block
        summary = report.summary
        assert summary["algorithms"]["rand"]["mean_alpha"] >= summary["rand_recursion"]
        assert summary["recursion_above_mean_upper_bound"] is False
        assert summary["recursion_above_rand_mean"] is False


def test_batch_json_flags_a_recursion_that_is_no_lower_bound(tmp_path):
    # at (3,2,1) the recursion gives 5.0625, and no instance ends above 5
    json_path, csv_path = tmp_path / "summary.json", tmp_path / "rows.csv"
    config = BatchConfig(
        m=3, n=2, k=1, runs=20, out_json=str(json_path), out_csv=str(csv_path)
    )
    report = run_batch(config)
    summary = json.loads(json_path.read_text())
    assert summary["rand_recursion"] == 5.0625
    assert summary["recursion_above_mean_upper_bound"] is True
    assert summary["recursion_above_rand_mean"] is True
    # the flags live in the JSON only
    for text in (csv_path.read_text(), report_text(report)):
        assert "recursion_above" not in text
    glink_only = run_batch(BatchConfig(m=3, n=2, k=1, runs=2, algorithms=("glink",)))
    assert glink_only.summary["recursion_above_rand_mean"] is None


def test_readme_library_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends in a comment giving what it prints
    expected = [
        line.rsplit("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert expected and capsys.readouterr().out.split("\n")[:-1] == expected


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
    assert run_batch(config).pmnk_value == float(pmnk_exact(m, n, k))


def test_report_text_mentions_oracle_budget(tmp_path):
    config = BatchConfig(m=3, n=4, k=2, runs=3, seed=6)
    text = report_text(run_batch(config))
    assert "exact optima on 3/3 runs" in text


# ------------------------------------------------------------ batch worker


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def fresh_worker(monkeypatch):
    """A batch worker forked inside the test, on a host of two CPUs at least.

    The worker runs the code as imported when it is forked, so it is stopped
    before the test, which lets the test's patches reach it, and after,
    which keeps them from any later batch."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    harness._stop_worker()
    yield
    harness._stop_worker()


def _no_zombie():
    """True when this process has no child that exited and was not reaped."""
    try:
        return os.waitpid(-1, os.WNOHANG) == (0, 0)
    except ChildProcessError:  # no child at all
        return True


def _failing_at(monkeypatch, run, seed, exc_type=ValueError):
    """Make run ``run`` of batches with master seed ``seed`` raise ``exc_type``
    in whichever process builds its instance, naming that process."""
    doomed = derive_seed(seed, run, "instance")
    real = harness.gen_instance

    def gen_instance(m, n, k, seed):
        if seed == doomed:
            raise exc_type(f"run {run} failed in process {os.getpid()}")
        return real(m, n, k, seed)

    monkeypatch.setattr("gtexchange.harness.gen_instance", gen_instance)


@pytest.mark.parametrize("key", sorted(CSV_DIGESTS))
def test_serial_batches_keep_the_csv_digests(key, monkeypatch):
    monkeypatch.delattr(os, "fork")
    tie, m, n, k, runs = key
    config = BatchConfig(m=m, n=n, k=k, runs=runs, seed=20261018, oracle="skip", tie_mode=tie)
    report = run_batch(config)
    assert report.summary["processes"] == 1
    assert _sha256(rows_to_csv(list(report.rows))) == CSV_DIGESTS[key]


@pytest.mark.parametrize("preset, runs", sorted(PRESET_DIGESTS))
def test_serial_batches_keep_the_preset_digests(preset, runs, monkeypatch):
    monkeypatch.delattr(os, "fork")
    stdout_digest, csv_digests = PRESET_DIGESTS[preset, runs]
    reports = [run_batch(config) for config in preset_configs(preset, runs=int(runs))]
    assert {report.summary["processes"] for report in reports} == {1}
    # what gtx table prints and what its --csv-dir writes
    assert _sha256("\n\n".join(map(report_text, reports)) + "\n") == stdout_digest
    assert {
        "batch_m{0.m}_n{0.n}_k{0.k}.csv".format(report.config): _sha256(rows_to_csv(list(report.rows)))
        for report in reports
    } == csv_digests


def test_worker_batches_match_serial_ones(fresh_worker, monkeypatch):
    config = BatchConfig(m=15, n=20, k=5, runs=7, seed=5, tie_mode="random")
    report = run_batch(config)
    assert report.summary["processes"] == 2
    monkeypatch.delattr(os, "fork")
    serial = run_batch(config)
    assert serial.summary["processes"] == 1
    assert rows_to_csv(list(report.rows)) == rows_to_csv(list(serial.rows))
    for summary in (report.summary, serial.summary):
        for counters in summary["metrics"].values():
            counters.pop("wall_s")
        summary.pop("processes")
    assert report.summary == serial.summary


def test_a_run_that_raises_in_the_worker_surfaces_in_the_caller(fresh_worker, monkeypatch):
    _failing_at(monkeypatch, run=3, seed=8)  # an odd run, the worker's
    with pytest.raises(ValueError, match=r"^run 3 failed in process \d+$") as info:
        run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=8))
    assert str(info.value) == f"run 3 failed in process {harness._worker[0]}"
    assert _no_zombie()
    worker = harness._worker[0]
    assert run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=9)).summary["processes"] == 2
    assert harness._worker[0] == worker  # the same worker served the next batch


def test_an_exception_the_worker_cannot_send_comes_back_as_its_repr(fresh_worker, monkeypatch):
    class Local(Exception):  # not picklable: pickle finds no class by its name
        pass

    _failing_at(monkeypatch, run=1, seed=8, exc_type=Local)
    with pytest.raises(RuntimeError, match=r"^Local\('run 1 failed in process \d+'\)$"):
        run_batch(BatchConfig(m=4, n=5, k=2, runs=2, seed=8))
    assert run_batch(BatchConfig(m=4, n=5, k=2, runs=2, seed=9)).summary["processes"] == 2


@pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
def test_the_caller_kills_its_worker_on_any_exception(fresh_worker, monkeypatch, exc_type):
    run_batch(BatchConfig(m=4, n=5, k=2, runs=2, seed=9))
    worker = harness._worker[0]
    _failing_at(monkeypatch, run=2, seed=8, exc_type=exc_type)  # an even run, the caller's
    with pytest.raises(exc_type, match=f"^run 2 failed in process {os.getpid()}$"):
        run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=8))
    assert harness._worker is None
    assert _no_zombie()
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)
    # the next batch forks a fresh worker, which reads no stale request
    report = run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=9))
    assert report.summary["processes"] == 2
    assert harness._worker[0] != worker


@pytest.mark.parametrize("reaped", [False, True])
def test_a_worker_killed_between_batches_is_replaced(fresh_worker, reaped):
    """A worker that died between batches, left for the batch to reap or
    reaped by a wait elsewhere in the program, gives way to a fresh one."""
    if not reaped and not hasattr(os, "waitid"):
        pytest.skip("no wait that leaves the worker unreaped")
    config = BatchConfig(m=4, n=5, k=2, runs=4, seed=9)
    first = run_batch(config)
    worker = harness._worker[0]
    os.kill(worker, signal.SIGKILL)
    if reaped:
        os.waitpid(worker, 0)
    else:  # wait until it has exited, and leave it unreaped
        os.waitid(os.P_PID, worker, os.WEXITED | os.WNOWAIT)
    report = run_batch(config)
    assert report.summary["processes"] == 2
    assert rows_to_csv(list(report.rows)) == rows_to_csv(list(first.rows))
    assert harness._worker[0] != worker
    assert _no_zombie()


def _blocked_worker(monkeypatch, seed, in_run_0):
    """Make the worker forked for the next batch sleep in each run, and call
    ``in_run_0(worker pid)`` in the caller's run 0 of batches with master
    seed ``seed``.  Returns the unpatched gen_instance."""
    caller = os.getpid()
    first = derive_seed(seed, 0, "instance")
    real = harness.gen_instance

    def gen_instance(m, n, k, seed):
        if os.getpid() != caller:
            time.sleep(10)  # the caller kills it first
        elif seed == first:
            in_run_0(harness._worker[0])
        return real(m, n, k, seed)

    monkeypatch.setattr("gtexchange.harness.gen_instance", gen_instance)
    return real


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="no wait that leaves the worker unreaped")
def test_a_worker_killed_mid_batch_is_a_clean_error(fresh_worker, monkeypatch, capsys):
    def kill(worker):  # as the OOM killer would, leaving it for the batch to reap
        os.kill(worker, signal.SIGKILL)
        os.waitid(os.P_PID, worker, os.WEXITED | os.WNOWAIT)

    real = _blocked_worker(monkeypatch, seed=9, in_run_0=kill)
    argv = ["batch", "-m", "4", "-n", "5", "-k", "2", "--runs", "4", "--seed", "9"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: the batch worker exited without a reply\n"
    assert harness._worker is None
    assert _no_zombie()
    monkeypatch.setattr("gtexchange.harness.gen_instance", real)
    assert run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=9)).summary["processes"] == 2


def test_a_reaped_worker_is_not_signalled(fresh_worker, monkeypatch):
    """The caller's own error survives a worker that another wait reaped
    mid-batch, whose pid may be another process's by then."""

    def reap_and_fail(worker):
        os.kill(worker, signal.SIGKILL)
        os.waitpid(worker, 0)
        raise ValueError("run 0 failed after its worker was reaped")

    _blocked_worker(monkeypatch, seed=8, in_run_0=reap_and_fail)
    with pytest.raises(ValueError, match="^run 0 failed after its worker was reaped$"):
        run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=8))
    assert harness._worker is None
    assert _no_zombie()


def test_a_forked_child_lets_the_callers_worker_go(fresh_worker):
    config = BatchConfig(m=4, n=5, k=2, runs=4, seed=9)
    report = run_batch(config)
    assert report.summary["processes"] == 2
    rows = rows_to_csv(list(report.rows))
    # a child that outlives the stop: had it kept the worker's request pipe,
    # the worker would read no end of file and the stop would wait for it
    release_r, release_w = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(release_w)
            select.select([release_r], [], [], 10)
        finally:
            os._exit(0)
    os.close(release_r)
    start = time.monotonic()
    harness._stop_worker()
    elapsed = time.monotonic() - start
    os.write(release_w, b"x")
    os.close(release_w)
    os.waitpid(child, 0)
    assert elapsed < 5
    # a child forked while a worker runs has none, and forks its own
    assert run_batch(config).summary["processes"] == 2
    child = os.fork()
    if child == 0:
        status = 1
        try:
            if harness._worker is None:
                forked = run_batch(config)
                harness._stop_worker()
                same = rows_to_csv(list(forked.rows)) == rows
                status = 0 if forked.summary["processes"] == 2 and same else 2
        finally:
            os._exit(status)
    assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0


def test_one_cpu_keeps_a_batch_serial(fresh_worker, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=9)).summary["processes"] == 1
    assert harness._worker is None


def test_the_worker_ends_with_its_interpreter():
    # the line printed before the fork sits in the stdout buffer the worker
    # inherits, with stdout buffered; the host is made to show two CPUs
    code = (
        "import os\n"
        "from gtexchange import BatchConfig, harness, run_batch\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print('before the batch')\n"
        "report = run_batch(BatchConfig(m=4, n=5, k=2, runs=4, seed=1))\n"
        "print('worker', harness._worker[0], report.summary['processes'])\n"
    )
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    before, line = proc.stdout.splitlines()
    assert before == "before the batch"
    word, pid, processes = line.split()
    assert (word, processes) == ("worker", "2")
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)
