"""The benchmark's workloads: what each batch call sends to gtexchange and how it is checked.

Every workload is a closed loop of batch calls through one public entry
point (``harness.run_batch``, ``harness.reference_bound_configs`` or
``cli.main``).  Batch ``index`` of a run with seed ``seed`` is generated from
``(workload, seed, index)`` alone, and the program sees only the generated
configs.  README.md in this directory says why each workload exists.

Workload definitions use only batch settings that planned simplifications
keep.  The Monte-Carlo trial count is applied through :func:`with_trials`,
which leaves a config alone once the program no longer has that setting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import gtexchange
from gtexchange import cli, harness

from gates import Gates, csv_digest, overrun_instances, rows_digest

HERE = Path(__file__).resolve().parent

# Visited-state budget per oracle search on oracle-mid.  The wall-clock budget
# is set far above any search's run time so that it never binds and the set of
# overrunning instances depends on the inputs alone.
ORACLE_LIMITS = gtexchange.SearchLimits(max_states=2000, max_seconds=600.0)


def batch_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of batch ``index`` in a run of ``workload`` with ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def with_trials(config: harness.BatchConfig, trials: int) -> harness.BatchConfig:
    """Set the Monte-Carlo trial count while the program still has that setting."""
    if "pmnk_trials" in {f.name for f in dataclasses.fields(config)}:
        return dataclasses.replace(config, pmnk_trials=trials)
    return config


class BatchWorkload:
    """One batch call runs ``harness.run_batch`` on each config in a list."""

    def __init__(self, name, make_configs, trials, *, rand_mean=False, optima_file=None):
        self.name = name
        self._make_configs = make_configs
        self.trials = trials
        self.rand_mean = rand_mean
        self.optima_file = optima_file

    def stored_optima(self) -> dict[str, int]:
        if self.optima_file is None:
            return {}
        return json.loads(self.optima_file.read_text())["optima"]

    def inputs(self, seed: int, index: int, scratch: Path) -> list:
        configs = self._make_configs(batch_seed(self.name, seed, index))
        return [with_trials(config, self.trials) for config in configs]

    def tiny(self, scratch: Path) -> list:
        """The same call on one small instance: warm-up and smoke-test input."""
        config = self._make_configs(0)[0]
        return [with_trials(dataclasses.replace(config, m=4, n=5, k=2, runs=1), self.trials)]

    def instances(self, configs: list) -> int:
        return sum(config.runs for config in configs)

    def call(self, configs: list) -> list:
        return [harness.run_batch(config) for config in configs]

    def check(self, configs: list, reports: list, gates: Gates) -> tuple[int, int, str]:
        """Apply the gates; return (failed instances, instances whose oracle overran, rows digest)."""
        overruns = 0
        rows = []
        for config, report in zip(configs, reports):
            mnk = (config.m, config.n, config.k)
            gates.rows(*mnk, report.rows)
            gates.coverage(*mnk, report.pmnk_value, self.trials)
            if self.rand_mean:
                gates.rand_mean(*mnk, report.rows)
            overruns += overrun_instances(report.rows)
            rows.extend(report.rows)
        return 0, overruns, rows_digest(rows)


class CliWorkload:
    """One batch call is ``gtx batch`` through ``cli.main``, writing CSV and JSON files."""

    name = "cli-small"
    runs = 10

    def stored_optima(self) -> dict[str, int]:
        return {}

    def inputs(self, seed: int, index: int, scratch: Path) -> dict:
        """Arguments of one call; the files a previous call wrote are removed first."""
        csv_path, json_path = scratch / "rows.csv", scratch / "summary.json"
        csv_path.unlink(missing_ok=True)
        json_path.unlink(missing_ok=True)
        argv = ["batch", "-m", "4", "-n", "5", "-k", "2", "--runs", str(self.runs),
                "--seed", str(batch_seed(self.name, seed, index)),
                "--csv", str(csv_path), "--json", str(json_path)]
        return {"argv": argv, "csv": csv_path, "json": json_path}

    def tiny(self, scratch: Path) -> dict:
        return self.inputs(0, 0, scratch)

    def instances(self, inputs: dict) -> int:
        return self.runs

    def call(self, inputs: dict) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(inputs["argv"])
        except SystemExit as exc:  # argparse errors and usage messages
            if exc.code is None:
                return 0
            return exc.code if isinstance(exc.code, int) else 1

    def check(self, inputs: dict, code: int, gates: Gates) -> tuple[int, int, str | None]:
        """A non-zero exit or a missing output file fails the gates and every instance."""
        if code != 0:
            gates.fail(f"gtx {' '.join(inputs['argv'])}: exit code {code}")
            return self.runs, 0, None
        missing = [str(path) for path in (inputs["csv"], inputs["json"]) if not path.is_file()]
        if missing:
            gates.fail(f"gtx {' '.join(inputs['argv'])}: exit code 0 but no {', '.join(missing)}")
            return self.runs, 0, None
        text = inputs["csv"].read_text()
        rows = harness.rows_from_csv(text)
        gates.rows(4, 5, 2, rows)
        summary = json.loads(inputs["json"].read_text())
        gates.coverage(4, 5, 2, summary["pmnk"]["value"], None)
        return 0, overrun_instances(rows), csv_digest(text)


WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchWorkload(
            "bounds-table",
            lambda seed: harness.reference_bound_configs(runs=3, seed=seed),
            trials=400,
            rand_mean=True,
        ),
        BatchWorkload(
            "heuristics-mid",
            lambda seed: [harness.BatchConfig(m=40, n=50, k=5, runs=1, seed=seed, oracle="skip")],
            trials=200,
        ),
        BatchWorkload(
            "oracle-mid",
            lambda seed: [harness.BatchConfig(m=15, n=20, k=5, runs=10, seed=seed, limits=ORACLE_LIMITS)],
            trials=200,
            optima_file=HERE / "optima.json",
        ),
        CliWorkload(),
    )
}
