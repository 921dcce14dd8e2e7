"""Runs one workload in this interpreter and prints one JSON line with what it measured.

run.py starts a fresh interpreter with this script for every measured run,
traced run and set-up probe:

    PYTHONPATH=src python3 bench/worker.py --workload oracle-mid --seed 1 --seconds 22 --mode measure

Modes:

* ``setup``   -- import gtexchange, make one warm-up call, print the
  ``time.monotonic()`` reading at which it was ready;
* ``measure`` -- warm up, run the closed loop for ``--seconds`` of batch
  time with a host clock running (see speed.py), report every batch's
  duration and host-speed scale factor, instance counts and peak RSS;
* ``trace``   -- warm up, run the loop untraced for half of ``--seconds``,
  then the same batches again with spans recorded, and report the
  per-layer metrics and the traced/untraced ratio of batch times, both
  scaled to the reference host speed (the clock's handler, about 1% of
  the time, falls inside whichever span it interrupts).

Every batch is checked by the gates, and a batch that raises or exits
non-zero fails them and every instance it was given; gate failures are
reported, not raised.  An instance whose oracle overran its state budget
is counted as an overrun, not as a failure: the program reported it as it
should.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gtexchange
import speed
from gates import Gates
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Tally:
    """What one closed loop did: batch durations and start/end times, instance counts."""

    durations: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    overruns: int = 0
    raised: int = 0
    digest: str | None = None

    def add(self, seconds: float, attempted: int, failed: int, overruns: int) -> None:
        self.durations.append(seconds)
        self.attempted += attempted
        self.failed += failed
        self.overruns += overruns


def run_loop(workload, inputs_for, gates: Gates, *, seconds: float | None = None, batches: int | None = None,
             clock: speed.HostClock | None = None) -> Tally:
    """Closed loop: batch ``index + 1`` starts when batch ``index`` returns.

    Stops after ``batches`` calls, or once the calls have taken ``seconds``
    in total.  A call that raises fails the gates and every instance it was
    given; the workload's check decides whether a returned result did.
    With a running ``clock``, each batch's time leaves out the clock's
    handler.
    """
    tally = Tally()
    busy = 0.0
    index = 0
    while index != batches and (seconds is None or busy < seconds):
        inputs = inputs_for(index)
        spent = clock.spent if clock else 0.0
        start = time.perf_counter()
        try:
            result, error = workload.call(inputs), None
        except Exception as exc:
            result, error = None, exc
        end = time.perf_counter()
        elapsed = end - start - (clock.spent - spent if clock else 0.0)
        if error is not None:
            if not tally.raised:
                traceback.print_exception(error)
            tally.raised += 1
            gates.fail(f"batch {index} raised {error!r}")
            failed, overruns, digest = workload.instances(inputs), 0, None
        else:
            failed, overruns, digest = workload.check(inputs, result, gates)
        tally.spans.append((start, end))
        tally.add(elapsed, workload.instances(inputs), failed, overruns)
        if index == 0:
            tally.digest = digest
        busy += elapsed
        index += 1
    return tally


def scaled_total(tally: Tally, clock: speed.HostClock) -> float:
    """Total batch time of ``tally``, scaled to the reference host speed."""
    return sum(t * clock.scale_between(*span) for t, span in zip(tally.durations, tally.spans))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    package = Path(gtexchange.__file__).resolve().parent
    if package != ROOT / "src" / "gtexchange":
        print(f"error: imported gtexchange from {package}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        workload.call(workload.tiny(scratch))
        if args.mode == "setup":
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        gates = Gates(workload.stored_optima())

        def inputs_for(index: int):
            return workload.inputs(args.seed, index, scratch)

        if args.mode == "measure":
            with speed.HostClock() as clock:
                tally = run_loop(workload, inputs_for, gates, seconds=args.seconds, clock=clock)
                time.sleep(speed.WINDOW_S)  # the readings just after the last call
            out = {
                "durations": tally.durations,
                "scales": [clock.scale_between(*span) for span in tally.spans],
                "attempted": tally.attempted,
                "failed": tally.failed,
                "overruns": tally.overruns,
                "digest": tally.digest,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            from layers import TARGETS, layer_metrics
            from tracing import Tracer, interposed

            tracer = Tracer()
            with speed.HostClock() as clock:
                plain = run_loop(workload, inputs_for, gates, seconds=args.seconds / 2, clock=clock)
                with interposed(tracer, TARGETS):
                    traced = run_loop(workload, inputs_for, gates, batches=len(plain.durations), clock=clock)
                time.sleep(speed.WINDOW_S)
            overhead = scaled_total(traced, clock) / scaled_total(plain, clock)
            metrics = layer_metrics(tracer, overhead, len(plain.durations))
            out = {
                "attempted": plain.attempted + traced.attempted,
                "failed": plain.failed + traced.failed,
                "overruns": plain.overruns + traced.overruns,
                "digest": plain.digest,
                "missing": tracer.missing,
                "metrics": metrics,
            }
        out["gate_failures"] = gates.failures[:20]
        out["gate_failure_count"] = len(gates.failures)
        out["stored_optima_checked"] = gates.stored_checked
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
