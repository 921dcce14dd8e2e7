import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gtexchange
from gtexchange import (
    ALGORITHM_IDS,
    SearchLimits,
    apply_schedule,
    pmnk_exact,
    run_algorithm,
    run_batch,
    solve_optimal,
)
from gtexchange import cli
from gtexchange.cli import main
from gtexchange.core import MAX_NODES
from gtexchange.harness import (
    derive_seed,
    gen_instance,
    load_instance,
    load_schedule,
    save_instance,
)
from conftest import build_instance, deep_instance

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
    assert inst.m == 4 and inst.n == 6 and {len(s) for s in inst.initial_sets} == {2}
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
    assert sum(map(len, final)) == alpha


def test_run_with_random_ties_is_reproducible(tmp_path, capsys):
    # many equal-gain pairs, so the schedule depends on every tie drawn
    inst_path = tmp_path / "instance.json"
    save_instance(gen_instance(15, 20, 5, 3), str(inst_path))
    argv = ("run", "--alg", "ginc", "--instance", str(inst_path), "--tie", "random")
    first, second = invoke(capsys, *argv), invoke(capsys, *argv)
    assert first[0] == 0 and "schedule:" in first[1]
    assert second == first


def test_run_seed_draws_the_random_ties(tmp_path, capsys):
    """One --seed per run: under --tie random it seeds the greedy
    heuristics' ties, so two seeds give two schedules here."""
    instance = gen_instance(15, 20, 5, 3)
    inst_path = tmp_path / "instance.json"
    save_instance(instance, str(inst_path))
    argv = ("run", "--alg", "ginc", "--instance", str(inst_path), "--tie", "random")
    schedules = set()
    for seed in (0, 1, 7):
        code, out, _ = invoke(capsys, *argv, "--seed", str(seed))
        run = run_algorithm("ginc", instance, seed=seed, tie_mode="random")
        assert code == 0 and f"alpha: {run.alpha}\n" in out
        schedules.add(out.split("schedule:")[1])
    assert len(schedules) > 1


def test_run_has_no_tie_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--alg", "ginc", "--instance", "inst.json", "--tie-seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tie-seed" in capsys.readouterr().err


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
    assert sum(map(len, final)) == 20


def test_optimal_flags_budget_overrun(tmp_path, capsys):
    inst_path = write_instance(tmp_path, 5, *HEURISTICS_SHORT)
    code, out, _ = invoke(
        capsys, "optimal", "--instance", inst_path, "--max-states", "1"
    )
    assert code == 0
    assert "exact: false" in out
    assert "alpha: 23" in out  # the best heuristic's value


def test_optimal_overrun_reports_no_less_than_any_heuristic(tmp_path, capsys):
    # the five heuristics reach at most 282 here (greedy-links), the bound is
    # 284, and the search does not finish within 2000 states
    instance = gen_instance(15, 20, 5, derive_seed(0, 654, "instance"))
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
    assert sum(map(len, final)) == alpha


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
    assert out == f"p(200,300,15) = {float(pmnk_exact(200, 300, 15)):.10g} (exact)\n"


def test_pmnk_beyond_the_universe_cap_is_a_clean_error(capsys):
    code, out, err = invoke(capsys, "pmnk", "-m", "2", "-n", "4097", "-k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "4096" in err and err.count("\n") == 1


def test_pmnk_without_a_segment_is_a_clean_error(capsys):
    code, out, err = invoke(capsys, "pmnk", "-m", "2", "-n", "0", "-k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at least one segment" in err and err.count("\n") == 1


def test_gen_beyond_the_universe_cap_is_refused_at_once(capsys):
    # two sampled sets over 10**9 segments would take about 0.8 s and 480 MB
    argv = ("gen", "-m", "2", "-n", "1000000000", "-k", "2", "--seed", "0")
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "4096-segment cap" in err and err.count("\n") == 1


def test_gen_beyond_the_node_cap_is_refused_at_once(capsys):
    # every set is sampled before the instance is built: 10**6 nodes take
    # about 5 s and 240 MB, growing linearly with the group
    argv = ("gen", "-m", str(MAX_NODES + 1), "-n", "5", "-k", "2", "--seed", "0")
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"{MAX_NODES}-node cap" in err
    assert err.count("\n") == 1


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
    assert out.splitlines()[0].startswith("paper's recursion")
    assert "3867.4" in out
    assert "phase" in out
    assert "not a lower bound" not in out


@pytest.mark.parametrize(
    "mnk, cap", [((15, 20, 15), 299), ((3, 2, 1), 5), ((7, 8, 6), 55), ((9, 10, 8), 89)]
)
def test_bound_says_when_the_recursion_exceeds_every_instance(capsys, mnk, cap):
    m, n, k = map(str, mnk)
    code, out, _ = invoke(capsys, "bound", "-m", m, "-n", n, "-k", k)
    first, second = out.splitlines()[:2]
    assert code == 0
    assert float(first.rsplit(" ", 1)[1]) > cap
    assert second.startswith("not a lower bound here") and f"above {cap}," in second


@pytest.mark.parametrize("exponent", [400, 308])
def test_bound_beyond_float_range_is_a_clean_error(capsys, exponent):
    # the bound is at most m*n, which must be a finite float
    m = str(10**exponent)
    code, out, err = invoke(capsys, "bound", "-m", m, "-n", "5", "-k", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_bound_at_a_huge_finite_size_prints_a_finite_value(capsys):
    code, out, _ = invoke(capsys, "bound", "-m", str(10**300), "-n", "5", "-k", "2")
    assert code == 0
    value = float(out.splitlines()[0].rsplit(" ", 1)[1])
    assert 0 < value < float("inf")


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


def test_every_batch_flag_given_replaces_its_config_file_field(
    tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({
        "m": 3, "n": 4, "k": 2, "runs": 2, "seed": 9, "algorithms": ["rand"],
        "oracle": "skip", "limits": {"max_seconds": 30},
    }))
    summary, rows = tmp_path / "summary.json", tmp_path / "rows.csv"
    seen = []

    def recording_run_batch(config):
        seen.append(config)
        return run_batch(config)

    monkeypatch.setattr("gtexchange.cli.run_batch", recording_run_batch)
    code, out, err = invoke(
        capsys, "batch", "--config", str(cfg), "-m", "5", "--runs", "7",
        "--algs", "glink", "--oracle", "exact", "--tie", "random",
        "--max-states", "50", "--seed", "3", "--json", str(summary),
        "--csv", str(rows),
    )
    assert (code, err) == (0, "")
    assert out.startswith("(m=5, n=4, k=2)  runs=7  seed=3  oracle=exact\n")
    assert "Greedy-Links" in out and "Randomized" not in out
    data = json.loads(summary.read_text())
    assert (data["m"], data["n"], data["k"], data["runs"], data["seed"]) == (5, 4, 2, 7, 3)
    assert (data["oracle"], list(data["algorithms"])) == ("exact", ["glink"])
    assert rows.read_text().count("\n") == 1 + 7
    # the JSON records the tie rule and the merged search budget
    assert data["tie_mode"] == "random"
    assert data["limits"] == {"max_states": 50, "max_seconds": 30}
    [config] = seen
    assert config.tie_mode == "random"
    assert config.limits == SearchLimits(max_states=50, max_seconds=30)


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
    assert out.count("paper's recursion") == 2


# sha256 of stdout and of each per-run CSV, recorded with the former
# heuristics script at the same sizes, runs and seed 0; stdout re-recorded
# when rand's second line became "paper's recursion", the only lines changed.
# "large" re-recorded when the oracle began to run at (40,50,5): that block's
# header, exact-optima line, success and shortfall cells and its CSV's
# optimal and exact_flag columns are the only changes.
PRESET_DIGESTS = {
    ("small", "2"): (
        "f8e712dbadbf7f0da81bbe65f369c3a84f3fb02fe869dfc9a2e6f647881e0403",
        {
            "batch_m4_n5_k2.csv": "a03f4e2f67693203787f995489402c12e806f2ee222e13c73d1d488d18a7f127",
            "batch_m15_n20_k5.csv": "5f8d87b5660c35ad4f7ed70e997bd7da1522c05c54ce9dc38254f9802b19041c",
        },
    ),
    ("large", "1"): (
        "afc6478ead48160aaedb3ec4eb97ad0fea813110cbdb4b1f4e2959086eeb7e61",
        {
            "batch_m4_n5_k2.csv": "5175722d78a61d26a0d68f5ff909660a53567909025369f59194bf61103174d1",
            "batch_m15_n20_k5.csv": "5cb9ad6570b92050ccfc1799d91e74cc63c95d153bf2410677b0919ba4d1537e",
            "batch_m40_n50_k5.csv": "812d8a245c904f372ff40ce29b7d02d84aa65c221b30e9290ba0d42ba58b3eab",
        },
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("preset, runs", sorted(PRESET_DIGESTS))
def test_table_preset_matches_the_recorded_report(tmp_path, capsys, preset, runs):
    out_dir = tmp_path / "out"
    code, out, err = invoke(
        capsys, "table", "--preset", preset, "--runs", runs, "--csv-dir", str(out_dir)
    )
    assert (code, err) == (0, "")
    stdout_digest, csv_digests = PRESET_DIGESTS[preset, runs]
    assert _sha256(out) == stdout_digest
    assert {p.name: _sha256(p.read_text()) for p in out_dir.iterdir()} == csv_digests


def test_batch_refuses_csv_and_json_on_one_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    path = tmp_path / "out.txt"
    code, out, err = invoke(
        capsys, "batch", "-m", "3", "-n", "4", "-k", "2", "--runs", "2",
        "--csv", str(path), "--json", str(path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "out.txt" in err
    assert not path.exists()


def test_table_refuses_two_configs_writing_one_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    cfg = tmp_path / "table.json"
    same = {"m": 3, "n": 4, "k": 2, "runs": 2, "oracle": "skip"}
    cfg.write_text(json.dumps([same, {**same, "seed": 5}]))
    out_dir = tmp_path / "out"
    code, out, err = invoke(
        capsys, "table", "--config", str(cfg), "--csv-dir", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "batch_m3_n4_k2.csv" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("option", ["--runs", "--seed"])
def test_table_refuses_a_preset_option_next_to_a_config_file(
    tmp_path, capsys, monkeypatch, option
):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps([{"m": 3, "n": 4, "k": 2, "runs": 2, "oracle": "skip"}]))
    code, out, err = invoke(capsys, "table", "--config", str(cfg), option, "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert option in err


@pytest.mark.parametrize(
    "argv", [("table",), ("table", "--preset", "small", "--config", "table.json")]
)
def test_table_needs_exactly_one_source(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_table_config_with_no_batch_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "table.json"
    cfg.write_text("[]")
    code, out, err = invoke(capsys, "table", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


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


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--alg", "rand", "--instance"),
        ("optimal", "--instance"),
        ("batch", "--config"),
        ("table", "--config"),
    ],
)
def test_deeply_nested_json_is_a_clean_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    code, out, err = invoke(capsys, *argv, str(deep))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_deeply_nested_schedule_file_is_a_value_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    with pytest.raises(ValueError):
        load_schedule(str(deep))


def test_unknown_batch_config_field_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # "strict" too: every subset is a valid initial set, with no switch for it
    for name, value in (("repeat", 5), ("strict", False)):
        cfg.write_text(json.dumps({"m": 3, "n": 4, "k": 2, name: value}))
        code, _, err = invoke(capsys, "batch", "--config", str(cfg))
        assert code == 2
        assert "unknown" in err and name in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-m", "3", "-n", "4", "-k", "4", "--seed", "0"],
        ["run", "--alg", "rand", "--instance", "inst.json"],
        ["optimal", "--instance", "inst.json"],
        ["batch", "-m", "3", "-n", "4", "-k", "4"],
    ],
)
def test_relax_is_no_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--relax"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --relax" in capsys.readouterr().err


def test_batch_of_full_initial_sets(tmp_path, capsys):
    # k == n: every node starts with the whole universe and nothing links
    summary = tmp_path / "summary.json"
    code, out, err = invoke(
        capsys, "batch", "-m", "3", "-n", "4", "-k", "4", "--runs", "2",
        "--json", str(summary),
    )
    assert (code, err) == (0, "")
    assert "exact optima on 2/2 runs\n" in out
    stats = json.loads(summary.read_text())["algorithms"]
    assert {alg: s["mean_alpha"] for alg, s in stats.items()} == dict.fromkeys(
        ALGORITHM_IDS, 12.0
    )


def test_optimal_with_an_empty_initial_set(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"m": 3, "n": 3, "sets": [[], [1, 2], [2, 3]]}))
    code, out, err = invoke(capsys, "optimal", "--instance", str(path))
    assert (code, err) == (0, "")
    # the empty node has nothing to give, so only nodes 2 and 3 link
    assert "alpha: 6\n" in out and "exact: true\n" in out
    assert "witness: (2,3)\n" in out


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
        {"m": 3, "n": 4},
        # a time budget past float range; the search's deadline is a float
        {"m": 3, "n": 4, "k": 2, "limits": {"max_seconds": 10**400}},
    ],
)
def test_batch_config_with_a_wrong_type_is_a_clean_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = invoke(capsys, "batch", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_table_config_missing_a_size_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps([{"m": 3, "k": 2}]))
    code, out, err = invoke(capsys, "table", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'n'" in err


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


def test_table_with_a_single_node_config_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    cfg = tmp_path / "table.json"
    csv_path = tmp_path / "t1.csv"
    cfg.write_text(
        json.dumps(
            [
                {"m": 4, "n": 5, "k": 2, "runs": 3, "out_csv": str(csv_path)},
                {"m": 1, "n": 5, "k": 2, "runs": 1},
            ]
        )
    )
    code, out, err = invoke(capsys, "table", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "m=1" in err
    assert not csv_path.exists()


def test_batch_config_with_no_algorithm_is_refused_before_any_run(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("gtexchange.harness.gen_instance", _no_instance_may_run)
    cfg = tmp_path / "cfg.json"
    csv_path = tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"m": 3, "n": 4, "k": 2, "algorithms": []}))
    code, out, err = invoke(capsys, "batch", "--config", str(cfg), "--csv", str(csv_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert not csv_path.exists()


def test_table_config_that_is_no_list_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "table.json"
    cfg.write_text("5")
    code, _, err = invoke(capsys, "table", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def run_module(*argv):
    """``python -m gtexchange`` in a fresh interpreter on this checkout's source."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-m", "gtexchange", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_runs_a_command():
    proc = run_module("pmnk", "-m", "2", "-n", "2", "-k", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "1/2" in proc.stdout


def test_module_entry_point_refuses_a_batch_without_k():
    proc = run_module("batch", "-m", "4", "-n", "5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "'k'" in proc.stderr


@pytest.fixture
def fresh_parser_cache():
    """Drop the cached parser before and after, so the test builds its own."""
    build = cli.build_parser
    build.cache_clear()
    yield
    build.cache_clear()


def test_one_parser_per_process(capsys, monkeypatch, fresh_parser_cache):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    # importing the module builds none (a second copy; both entries are restored)
    monkeypatch.setattr(gtexchange, "cli", cli)
    monkeypatch.delitem(sys.modules, "gtexchange.cli")
    importlib.import_module("gtexchange.cli")
    assert built == []
    assert invoke(capsys, "pmnk", "-m", "2", "-n", "2", "-k", "1")[0] == 0
    assert invoke(capsys, "bound", "-m", "4", "-n", "5", "-k", "2")[0] == 0
    assert invoke(capsys, "batch", "-n", "5", "-k", "2")[0] == 2
    assert invoke(capsys, "table", "--preset", "small", "--runs", "1")[0] == 0
    # the root parser and one per subcommand, all built by the first call
    subcommands = ("gen", "run", "optimal", "pmnk", "bound", "batch", "table")
    assert built == ["gtx"] + [f"gtx {name}" for name in subcommands]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_reused_parser_answers_like_a_fresh_one(
    tmp_path, capsys, monkeypatch, fresh_parser_cache
):
    cfg = tmp_path / "batch.json"
    cfg.write_text(json.dumps({
        "m": 3, "n": 4, "k": 2, "runs": 2, "algorithms": ["rand"], "oracle": "skip",
    }))
    sequence = [
        ["batch", "--config", str(cfg), "--runs", "7"],
        ["batch", "--config", str(cfg)],
        ["batch", "--config", str(cfg), "--tie", "sideways"],
        ["batch", "-n", "5", "-k", "2"],
        ["--help"],
    ]
    reused = [outcome(capsys, argv) for argv in sequence]
    assert cli.build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [outcome(capsys, argv) for argv in sequence] == reused
    # a flag given to one call leaves nothing behind for the next
    assert "  runs=7  " in reused[0][1] and "  runs=2  " in reused[1][1]
    code, out, err = reused[2]
    assert (code, out) == (2, "") and err.startswith("usage: gtx batch")
    assert "argument --tie: invalid choice: 'sideways'" in err
    assert reused[3] == (2, "", "error: batch config lacks the fields ['m']\n")
    code, out, err = reused[4]
    assert (code, err) == (0, "") and out.startswith("usage: gtx")


def test_optimal_on_a_deep_instance_reports_the_overrun(
    tmp_path, capsys, low_recursion_limit
):
    # no heuristic meets the parity bound, so the search has to run; the
    # budget check stops it at 800 + 1 states, and its best leaf, deeper than
    # the recursion limit, beats every heuristic, so it is the witness
    instance = deep_instance()
    path = tmp_path / "deep.json"
    witness_path = tmp_path / "witness.json"
    save_instance(instance, str(path))
    code, out, _ = invoke(
        capsys, "optimal", "--instance", str(path), "--max-states", "800",
        "--out", str(witness_path),
    )
    assert code == 0
    assert "exact: false" in out
    assert "visited_states: 801" in out
    memo = solve_optimal(instance, SearchLimits(max_states=800)).memo
    assert f"memo_entries: {memo}\n" in out
    alpha = int(out.split("alpha:")[1].split()[0])
    for alg in ALGORITHM_IDS:
        assert run_algorithm(alg, instance).alpha < alpha
    witness = load_schedule(str(witness_path))
    assert len(witness) > low_recursion_limit
    final, _ = apply_schedule(instance, witness)
    assert sum(map(len, final)) == alpha


def test_small_preset_certifies_every_run_under_the_default_limits(capsys):
    code, out, err = invoke(capsys, "table", "--preset", "small")
    assert (code, err) == (0, "")
    assert out.count("exact optima on 100/100 runs\n") == 2
