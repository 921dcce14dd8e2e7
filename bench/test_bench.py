"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from gates import Gates, coverage_exact, csv_digest, overrun_instances, rand_lower_bound, rows_digest  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer, interposed  # noqa: E402
from worker import run_loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_p95_needs_ten_samples_beyond_it():
    assert run.percentile([float(i) for i in range(199)], 95) is None
    samples = [float(i) for i in range(200)]
    assert run.percentile(samples, 95) == 189.0
    assert sum(1 for s in samples if s > 189.0) == 10


def test_throughput_is_the_median_block():
    durations = [0.1] * 18 + [5.0, 5.0]  # a burst of host noise in the last block
    assert run.block_throughput(durations, per_batch=10) == pytest.approx(100.0)
    assert run.block_throughput([1.0, 3.0, 2.0], per_batch=6) == pytest.approx(3.0)


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer")()
    totals = tracer.totals()
    assert totals["outer"] == (1, 6.0, 6.0 - 2.0 - 0.5)
    assert totals["inner"] == (2, 2.5, 2.5)
    assert tracer.calls_within("outer", "inner") == 2
    assert tracer.calls_within("inner", "outer") == 0


def test_interposition_restores_names_even_on_error():
    module = types.ModuleType("bench_fake_layer")
    module.step = lambda x: x + 1
    original = module.step
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with interposed(tracer, [(module.__name__, "step", "fake.step", None),
                                     (module.__name__, "gone", "fake.gone", None)]):
                assert module.step is not original
                assert module.step(1) == 2
                raise RuntimeError("boom")
        assert module.step is original
        assert tracer.missing == [f"{module.__name__}.gone"]
        assert tracer.totals()["fake.step"][0] == 1
    finally:
        del sys.modules[module.__name__]


def test_missing_layers_read_as_zero():
    metrics = layer_metrics(Tracer(), overhead_ratio=1.0, batches=0)
    assert metrics["oracle.solve.calls"] == (0, "count")
    assert metrics["algorithms.rand.pair_hit_ratio"] == (0.0, "ratio")


def test_failed_counts_raised_batches_and_overruns_apart(capsys):
    class Fake:
        def instances(self, inputs):
            return 4

        def call(self, inputs):
            if inputs == 1:
                raise RuntimeError("batch failed")
            return inputs

        def check(self, inputs, result, gates):
            return 0, (1 if inputs == 2 else 0), "digest"

    gates = Gates()
    tally = run_loop(Fake(), lambda index: index, gates, batches=3)
    assert (tally.attempted, tally.failed, tally.overruns, tally.raised) == (12, 4, 1, 1)
    assert "batch failed" in capsys.readouterr().err
    assert gates.failures == ["batch 1 raised RuntimeError('batch failed')"]  # overruns do not fail the gates
    assert len(tally.spans) == 3

    rows = [{"run": r, "exact_flag": r != 1 and r != 3} for r in range(4) for _ in range(5)]
    assert overrun_instances(rows) == 2


def test_host_clock_scales_calls_by_the_readings_around_them():
    clock = speed.HostClock()
    clock.times = [1.0, 2.0, 3.0, 4.0]
    clock.scales = [1.0, 0.5, 0.25, 0.5]
    assert clock.scale_between(1.8, 2.9) == pytest.approx((0.5 + 0.25) / 2)
    assert clock.scale_between(0.0, 10.0) == pytest.approx(0.5625)
    assert speed.scale(2 * speed.REFERENCE_S) == pytest.approx(0.5)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    class Busy:
        def instances(self, inputs):
            return 1

        def call(self, inputs):
            busy(0.35)

        def check(self, inputs, result, gates):
            return 0, 0, None

    with speed.HostClock() as clock:
        tally = run_loop(Busy(), lambda index: index, Gates(), batches=1, clock=clock)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(clock.times) >= 2 and clock.spent > 0
    (start, end), = tally.spans
    assert tally.durations[0] == pytest.approx(end - start - clock.spent, abs=1e-3)


def test_gate_references():
    subsets = [sum(1 << e for e in c) for c in combinations(range(5), 2)]
    covering = sum(1 for t in product(subsets, repeat=4) if t[0] | t[1] | t[2] | t[3] == 31)
    assert coverage_exact(4, 5, 2) == float(Fraction(covering, len(subsets) ** 4))
    assert abs(rand_lower_bound(60, 100, 3) - 3867.4) < 0.1
    rows = [{"run": 0, "seed": 7, "algorithm": "rand", "alpha": 9, "optimal": None, "exact_flag": None,
             "steps": 3, "post_sweep_steps": 0}]
    text = "run,seed,algorithm,alpha,optimal,exact_flag,steps,post_sweep_steps\n0,7,rand,9,,,3,0\n"
    assert rows_digest(rows) == csv_digest(text)


def test_gates_reject_wrong_results():
    def row(alpha, optimal):
        return {"run": 0, "seed": 7, "algorithm": "glink", "alpha": alpha, "optimal": optimal, "exact_flag": True}

    gates = Gates({"7": 12})
    gates.rows(4, 5, 2, [row(12, 12)])
    assert gates.failures == [] and gates.stored_checked == 1
    gates.rows(4, 5, 2, [row(13, 12)])  # heuristic beats the certified optimum
    gates.rows(4, 5, 2, [row(10, 11)])  # certified optimum disagrees with the stored one
    gates.rows(4, 5, 2, [row(10, 21)])  # optimum above the parity bound 4 * 5
    gates.coverage(4, 5, 2, coverage_exact(4, 5, 2) + 1e-9, None)
    gates.coverage(15, 20, 5, coverage_exact(15, 20, 5) + 0.2, 200)
    gates.coverage(15, 20, 5, coverage_exact(15, 20, 5) + 0.05, 200)  # within 5 standard errors
    assert len(gates.failures) == 6


def test_cli_exit_codes_and_missing_files_fail_the_gates(tmp_path, monkeypatch):
    workload = WORKLOADS["cli-small"]
    gates = Gates()
    monkeypatch.setattr(workload, "call", lambda inputs: 2)
    tally = run_loop(workload, lambda index: workload.inputs(0, index, tmp_path), gates, batches=1)
    assert tally.failed == workload.runs and "exit code 2" in gates.failures[0]

    gates = Gates()
    monkeypatch.setattr(workload, "call", lambda inputs: 0)  # exits 0 without writing its files
    (tmp_path / "rows.csv").write_text("left over from an earlier call\n")
    tally = run_loop(workload, lambda index: workload.inputs(0, index, tmp_path), gates, batches=1)
    assert tally.failed == workload.runs and "exit code 0 but no" in gates.failures[0]


def test_command_exits_1_when_batches_raise(tmp_path):
    """A program whose run_batch raises beyond the warm-up size makes the command fail."""
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    harness = tmp_path / "src" / "gtexchange" / "harness.py"
    harness.write_text(harness.read_text() + (
        "\n_run_batch = run_batch\n\n\ndef run_batch(config):\n"
        "    if config.m > 4:\n        raise RuntimeError('injected')\n"
        "    return _run_batch(config)\n"
    ))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heuristics-mid", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "GATE FAILED: batch 0 raised RuntimeError('injected')" in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_every_gate(name, tmp_path):
    workload = WORKLOADS[name]
    gates = Gates(workload.stored_optima())
    tally = run_loop(workload, lambda index: workload.tiny(tmp_path), gates, batches=2)
    assert gates.failures == []
    assert tally.attempted >= 2 and tally.raised == 0
    assert tally.digest is not None


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(layer_metrics(Tracer(), 1.0, 0))


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_spec_metrics(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-small", "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
