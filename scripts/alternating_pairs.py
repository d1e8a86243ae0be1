#!/usr/bin/env python
"""Alternating parent/change pairs of the ``BENCHMARK.json`` command.

    python scripts/alternating_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload W [W ...] [--workload W ...] --pairs N [--seconds S]

For each workload, pair ``k`` (seed ``k``, ``k = 1..N``) runs the
command ``BENCHMARK.json`` declares — ``python3 benchmarks/campaign/run.py
--workload W --seed k --seconds S --trace 0`` — once from each checkout,
back to back, the parent first on odd pairs and the change first on even
ones, so that drift of the box falls on both sides alike.  ``S`` defaults
to ``run_seconds`` of the parent's ``BENCHMARK.json``.  Every run is
printed as it finishes; then, per end-to-end metric: each side's median
and quartiles, the pairs each side won, and a verdict by the rules of
the choosing-metrics guide (sections 6 and 8):

``gain``
    at least ten pairs were run, the change wins at least nine tenths of
    them (ties count for neither side) and the medians differ by more
    than the distance between the parent's own quartiles;
``unresolved``
    the min-max spread of a side is wider than the metric's bound and
    the two sides' runs overlap, so the medians settle nothing;
``worse``
    the change's median is worse than the parent's by more than the bound;
``no worse``
    none of the above.

Metric names, directions and bounds are read from the parent checkout's
``BENCHMARK.json``; nothing is imported from, or written under,
``benchmarks/campaign/`` by this script (the command it runs keeps its
own scratch there).  Exits non-zero when a run fails or reports failed
targets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

#: Fewer pairs than this cannot carry a claim (choosing-metrics, section 8).
MIN_PAIRS_FOR_A_GAIN = 10


def run_once(
    checkout: Path, command: list[str], workload: str, seed: int, seconds: float
) -> dict:
    """One invocation of the benchmark command; its last stdout line."""
    # Each checkout must import its own ``src``, whatever the caller exported.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [
        *command,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:g}",
        "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} printed nothing "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int, int]:
    """``(status, pairs the change won, pairs the parent won)``."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    change_wins = sum(g > 0 for g in gains)
    parent_wins = sum(g < 0 for g in gains)
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    improvement = sign * (change_median - parent_median)
    if (
        len(gains) >= MIN_PAIRS_FOR_A_GAIN
        and change_wins >= 0.9 * len(gains)
        and improvement > q3 - q1
    ):
        return "gain", change_wins, parent_wins
    spread = max(
        (max(side) - min(side)) / abs(statistics.median(side) or 1.0)
        for side in (parent, change)
    )
    overlap = min(parent) <= max(change) and min(change) <= max(parent)
    if spread > bound and overlap:
        return "unresolved", change_wins, parent_wins
    if -improvement / abs(parent_median or 1.0) > bound:
        return "worse", change_wins, parent_wins
    return "no worse", change_wins, parent_wins


def compare_workload(
    checkouts: dict[str, Path],
    contract: dict,
    workload: str,
    pairs: int,
    seconds: float,
) -> bool:
    """Run and report one workload; True when every run was clean."""
    metrics = contract["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    attempted = dict.fromkeys(SIDES, 0)
    failed = dict.fromkeys(SIDES, 0)
    clean = True
    print(f"== {workload}: {pairs} pairs, --seconds {seconds:g}")
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            result = run_once(
                checkouts[side], contract["command"], workload, pair, seconds
            )
            clean &= result["exit"] == 0 and result["failed"] == 0
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
        shown = "  ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g}/"
            f"{values['change'][m['name']][-1]:.4g}"
            for m in metrics
        )
        print(f"pair {pair:2d} ({order[0]} first)  parent/change  {shown}", flush=True)
    print(
        f"failed/attempted: parent {failed['parent']}/{attempted['parent']}, "
        f"change {failed['change']}/{attempted['change']}"
    )
    header = (
        f"{'metric':<18}{'parent q1/median/q3':>28}{'change q1/median/q3':>28}"
        f"{'wins c:p':>10}  verdict"
    )
    print(header)
    for m in metrics:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        status, change_wins, parent_wins = verdict(
            parent, change, m["better"], m["bound"]
        )
        cells = [
            "/".join(f"{q:.4g}" for q in quartiles(side)) for side in (parent, change)
        ]
        print(
            f"{m['name']:<18}{cells[0]:>28}{cells[1]:>28}"
            f"{f'{change_wins}:{parent_wins}':>10}  {status}"
            f" ({m['better']} is better, {m['unit']}, bound {m['bound']:g})"
        )
    return clean


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/alternating_pairs.py",
        description="Alternating parent/change pairs of the BENCHMARK.json command.",
    )
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument(
        "--workload",
        nargs="+",
        action="extend",
        help="repeatable; default: every workload in BENCHMARK.json",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds in BENCHMARK.json"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {
        "parent": args.parent_dir.resolve(),
        "change": args.change_dir.resolve(),
    }
    contract = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in contract["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    clean = True
    for workload in workloads:
        clean &= compare_workload(checkouts, contract, workload, args.pairs, seconds)
    if not clean:
        print("FAIL: a run exited non-zero or reported failed targets", file=sys.stderr)
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
