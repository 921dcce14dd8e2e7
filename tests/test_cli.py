import json
import time

import pytest

from gtexchange import (
    ALGORITHM_IDS,
    Instance,
    SegmentSet,
    aggregate_cardinality,
    apply_schedule,
    pmnk_exact,
    run_algorithm,
)
from gtexchange.cli import main
from gtexchange.harness import (
    derive_seed,
    gen_instance,
    load_instance,
    load_schedule,
    save_instance,
)
from conftest import build_instance

# greedy-links reaches 18 here; the optimum is 20, which rand and rare reach
SUBOPTIMAL_GREEDY = ([0, 1], [0, 2], [0, 1, 3], [2, 3, 4])
# every heuristic stops at 23 or below here; the optimum and the bound are 24
HEURISTICS_SHORT = ([1, 2], [0, 3], [1, 3], [0, 4], [0, 3])


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_instance(tmp_path, n, *sets):
    path = tmp_path / "instance.json"
    save_instance(build_instance(n, *sets), str(path))
    return str(path)


def test_gen_writes_a_loadable_deterministic_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, _ = invoke(
        capsys, "gen", "-m", "4", "-n", "6", "-k", "2", "--seed", "5", "--out", str(path)
    )
    assert code == 0 and str(path) in out
    inst = load_instance(str(path))
    assert inst.m == 4 and inst.n == 6 and inst.equal_cardinality == 2
    first = path.read_bytes()
    invoke(capsys, "gen", "-m", "4", "-n", "6", "-k", "2", "--seed", "5", "--out", str(path))
    assert path.read_bytes() == first


def test_gen_prints_json_without_out(capsys):
    code, out, _ = invoke(capsys, "gen", "-m", "2", "-n", "3", "-k", "1", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2 and len(data["sets"]) == 2


@pytest.mark.parametrize("alg", ["rand", "glink", "poly", "ginc", "rare"])
def test_run_each_algorithm(tmp_path, capsys, alg):
    inst_path = write_instance(tmp_path, 5, [0, 1], [1, 2], [2, 3], [3, 4])
    sched_path = tmp_path / "schedule.json"
    code, out, _ = invoke(
        capsys,
        "run",
        "--alg",
        alg,
        "--instance",
        inst_path,
        "--seed",
        "3",
        "--out",
        str(sched_path),
    )
    assert code == 0
    assert "alpha:" in out
    alpha = int(out.split("alpha:")[1].split()[0])
    links = load_schedule(str(sched_path))
    final, _ = apply_schedule(load_instance(inst_path), links)
    assert aggregate_cardinality(final) == alpha


def test_optimal_reports_exact_value_and_witness(tmp_path, capsys):
    inst_path = write_instance(tmp_path, 5, *SUBOPTIMAL_GREEDY)
    witness_path = tmp_path / "witness.json"
    code, out, _ = invoke(
        capsys, "optimal", "--instance", inst_path, "--out", str(witness_path)
    )
    assert code == 0
    assert "alpha: 20" in out
    assert "exact: true" in out
    final, _ = apply_schedule(
        load_instance(inst_path), load_schedule(str(witness_path))
    )
    assert aggregate_cardinality(final) == 20


def test_optimal_flags_budget_overrun(tmp_path, capsys):
    inst_path = write_instance(tmp_path, 5, *HEURISTICS_SHORT)
    code, out, _ = invoke(
        capsys, "optimal", "--instance", inst_path, "--max-states", "1"
    )
    assert code == 0
    assert "exact: false" in out
    assert "alpha: 23" in out  # the best heuristic's value


def test_optimal_overrun_reports_no_less_than_any_heuristic(tmp_path, capsys):
    # the five heuristics reach at most 278 here (greedy-links), the bound is
    # 284, and the search does not finish within 2000 states
    instance = gen_instance(15, 20, 5, derive_seed(0, 19, "instance"))
    inst_path = tmp_path / "instance.json"
    save_instance(instance, str(inst_path))
    witness_path = tmp_path / "witness.json"
    code, out, _ = invoke(
        capsys, "optimal", "--instance", str(inst_path), "--max-states", "2000",
        "--out", str(witness_path),
    )
    assert code == 0
    assert "exact: false" in out
    alpha = int(out.split("alpha:")[1].split()[0])
    for alg in ALGORITHM_IDS:
        assert run_algorithm(alg, instance).alpha <= alpha
    final, _ = apply_schedule(instance, load_schedule(str(witness_path)))
    assert aggregate_cardinality(final) == alpha


def test_pmnk_exact_and_sampled(capsys):
    code, out, _ = invoke(capsys, "pmnk", "-m", "2", "-n", "2", "-k", "1")
    assert code == 0 and "1/2" in out and "(exact)" in out
    # 43 picks from 2 segments: 41 repeated picks, a size that used to be sampled
    code, out, _ = invoke(capsys, "pmnk", "-m", "43", "-n", "2", "-k", "1")
    assert code == 0
    assert out == f"p(43,2,1) = {2**42 - 1}/{2**42} = {1 - 2**-42:.10g} (exact)\n"


def test_pmnk_deep_group_prints_zero(capsys):
    code, out, err = invoke(capsys, "pmnk", "-m", "1200", "-n", "1200", "-k", "1")
    assert code == 0 and err == ""
    assert out == "p(1200,1200,1) = 0 (exact)\n"


def test_pmnk_long_fraction_prints_the_float_only(capsys):
    # the denominator C(300,15)^200 has far more digits than int -> str allows
    code, out, err = invoke(capsys, "pmnk", "-m", "200", "-n", "300", "-k", "15")
    assert code == 0 and err == ""
    assert out == f"p(200,300,15) = {pmnk_exact(200, 300, 15).value:.10g} (exact)\n"


def test_pmnk_beyond_the_universe_cap_is_a_clean_error(capsys):
    code, out, err = invoke(capsys, "pmnk", "-m", "2", "-n", "4097", "-k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "4096" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("pmnk", "-m", "1000", "-n", "4096", "-k", "50"),
        ("batch", "-m", "1000", "-n", "4096", "-k", "50", "--runs", "1"),
        ("batch", "-m", "400000", "-n", "4", "-k", "2", "--oracle", "skip"),
    ],
)
def test_oversized_coverage_sum_is_refused_at_once(tmp_path, capsys, argv):
    # one exact evaluation at (1000,4096,50) takes about 36 s
    csv_path = tmp_path / "rows.csv"
    start = time.perf_counter()
    if argv[0] == "batch":
        argv = (*argv, "--csv", str(csv_path))
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: exact coverage sum") and err.count("\n") == 1
    assert not csv_path.exists()


def test_bound_prints_reference_value(capsys):
    code, out, _ = invoke(capsys, "bound", "-m", "60", "-n", "100", "-k", "3")
    assert code == 0
    assert "3867.4" in out
    assert "phase" in out


def test_batch_with_flags(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "summary.json"
    code, out, _ = invoke(
        capsys,
        "batch",
        "-m", "4", "-n", "5", "-k", "2",
        "--runs", "8",
        "--seed", "21",
        "--csv", str(csv_path),
        "--json", str(json_path),
    )
    assert code == 0
    assert "Greedy-Links" in out
    assert csv_path.read_text().startswith(
        "run,seed,algorithm,alpha,optimal,exact_flag,steps,post_sweep_steps"
    )
    assert json.loads(json_path.read_text())["runs"] == 8


def test_batch_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(
        json.dumps(
            {
                "m": 3,
                "n": 4,
                "k": 2,
                "runs": 4,
                "seed": 9,
                "algorithms": ["rand", "glink"],
                "oracle": "skip",
            }
        )
    )
    code, out, _ = invoke(capsys, "batch", "--config", str(cfg_path))
    assert code == 0
    assert "(m=3, n=4, k=2)" in out
    assert "Randomized" in out and "Greedy-Links" in out
    assert "Polygon" not in out


def test_batch_reads_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GTX_SEED", "314")
    code, out, _ = invoke(
        capsys, "batch", "-m", "3", "-n", "4", "-k", "2", "--runs", "2",
        "--oracle", "skip",
    )
    assert code == 0
    assert "seed=314" in out


def test_table_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "table.json"
    cfg_path.write_text(
        json.dumps(
            [
                {"m": 3, "n": 4, "k": 2, "runs": 3, "seed": 1, "oracle": "skip",
                 "algorithms": ["rand"]},
                {"m": 4, "n": 4, "k": 2, "runs": 3, "seed": 2, "oracle": "skip",
                 "algorithms": ["rand"]},
            ]
        )
    )
    code, out, _ = invoke(capsys, "table", "--config", str(cfg_path))
    assert code == 0
    assert out.count("analytic lower bound") == 2


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = invoke(capsys, "run", "--alg", "rand", "--instance", "missing.json")
    assert code == 2
    assert "error:" in err


def test_out_of_memory_is_a_clean_error(capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError

    monkeypatch.setattr("gtexchange.cli.run_batch", exhausted)
    code, out, err = invoke(capsys, "batch", "-m", "4", "-n", "5", "-k", "2")
    assert (code, out) == (2, "")
    assert err == "error: MemoryError\n"


def test_malformed_instance_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 2, "n": 3, "sets": [[1], [2, 2]]}))
    code, _, err = invoke(capsys, "optimal", "--instance", str(bad))
    assert code == 2
    assert "strictly increasing" in err


def test_unknown_batch_config_field_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "n": 4, "k": 2, "repeat": 5}))
    code, _, err = invoke(capsys, "batch", "--config", str(cfg))
    assert code == 2
    assert "repeat" in err


def test_batch_config_with_coverage_trials_is_rejected(tmp_path, capsys):
    # coverage is always exact, so the old sampling setting is an unknown field
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "n": 4, "k": 2, "pmnk_trials": 500}))
    code, _, err = invoke(capsys, "batch", "--config", str(cfg))
    assert code == 2
    assert "pmnk_trials" in err


@pytest.mark.parametrize(
    "config",
    [
        {"m": 3, "n": 4, "k": 2, "runs": True},
        {"m": 3, "n": 4, "k": 2, "limits": {"max_states": True}},
        {"m": "4", "n": 4, "k": 2},
        {"m": 4.5, "n": 4, "k": 2},
        {"m": 3, "n": 4, "k": 2, "algorithms": {"rand": 1}},
        [{"m": 3, "n": 4, "k": 2}],
    ],
)
def test_batch_config_with_a_wrong_type_is_a_clean_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = invoke(capsys, "batch", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _no_instance_may_run(*args, **kwargs):
    raise AssertionError("an instance was generated")


def test_batch_with_a_repeated_algorithm_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    csv_path = tmp_path / "rows.csv"
    code, out, err = invoke(
        capsys, "batch", "-m", "4", "-n", "5", "-k", "2", "--runs", "3",
        "--algs", "rand,rand", "--csv", str(csv_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "rand" in err
    assert not csv_path.exists()


def test_batch_config_with_an_unknown_tie_mode_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    cfg = tmp_path / "cfg.json"
    csv_path = tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"m": 3, "n": 4, "k": 2, "tie_mode": "bogus"}))
    code, out, err = invoke(capsys, "batch", "--config", str(cfg), "--csv", str(csv_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "bogus" in err
    assert not csv_path.exists()


def test_table_config_that_is_no_list_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "table.json"
    cfg.write_text("5")
    code, _, err = invoke(capsys, "table", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_optimal_on_a_deep_instance_reports_the_overrun(tmp_path, capsys):
    # the search's first descent runs more activations deep than Python's
    # default recursion limit; the budget check stops it at 1200 + 1 states.
    # The last node holds only a segment every other node holds, so it never
    # links and no heuristic meets the parity bound: the search has to run.
    base = gen_instance(120, 200, 2, 12)
    shared = SegmentSet.from_iterable([200])
    sets = tuple(s | shared for s in base.initial_sets) + (shared,)
    path = tmp_path / "deep.json"
    save_instance(Instance(m=121, n=201, initial_sets=sets), str(path))
    code, out, _ = invoke(
        capsys, "optimal", "--instance", str(path), "--max-states", "1200"
    )
    assert code == 0
    assert "exact: false" in out
    assert "visited_states: 1201" in out
