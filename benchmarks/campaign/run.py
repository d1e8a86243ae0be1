"""The ``BENCHMARK.json`` command: one workload, one JSON line.

    python3 benchmarks/campaign/run.py --workload W --seed N --seconds S --trace 0|1

Every invocation first runs the serial probe of the workload's input —
the reference the science is checked against — then campaigns, each a
fresh subprocess, for about ``--seconds``, and reports the median of each
metric.  ``--trace 0`` runs untraced campaigns and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced campaigns and
reports the per-layer metrics.  The last stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.campaign import harness  # noqa: E402
from benchmarks.campaign.metrics import CONTRACT  # noqa: E402
from benchmarks.campaign.workloads import SIZES, WORKLOADS  # noqa: E402

#: Set-ups per invocation at least, so that ``setup_s`` is a median.
SETUP_SAMPLES = 3


def repeat_for(seconds: float, run_one) -> list:
    """Call ``run_one`` until the calls have taken ``seconds``, stopping at
    the count whose total comes closest; at least once."""
    started = time.perf_counter()
    results = []
    while True:
        before = time.perf_counter()
        results.append(run_one())
        now = time.perf_counter()
        if now - started + (now - before) / 2 > seconds:
            return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/campaign/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    setups: list[dict] = []
    with harness.Runner(args.seed, SIZES) as runner:
        probe = runner.probe(workload.input)
        if args.trace:
            # The untraced partner is the base of telemetry.overhead_share.
            pairs = repeat_for(
                args.seconds,
                lambda: (
                    runner.campaign(workload.overhead_base),
                    runner.campaign(workload.name, traced=True),
                ),
            )
            runs = [traced for _, traced in pairs]
        else:
            runs = repeat_for(args.seconds, lambda: runner.campaign(workload.name))
            setups = [
                runner.setup(workload.name)
                for _ in range(SETUP_SAMPLES - len(runs))
            ]

    failed = sum(harness.count_failures(run, probe["digests"]) for run in runs)
    summary = harness.end_to_end(runs + setups)
    values = {name: s["median"] for name, s in summary.items()}
    if args.trace:
        base_wall = statistics.median(untraced["wall_s"] for untraced, _ in pairs)
        harness.write_trace(workload.name, probe, runs[-1])
        values.update(
            harness.layer_report(
                workload.name, harness.layer_medians(probe, runs, base_wall)
            )
        )
    named = CONTRACT["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(run["n_targets"] for run in runs),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in named
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
