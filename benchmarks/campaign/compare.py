"""Before/after verdicts for two harness result files.

    python -m benchmarks.campaign.compare A.json B.json

One row per (end-to-end metric, workload): the ratio of B's median to
A's, shown against its base, judged by the metric's direction and its
bound in ``BENCHMARK.json``.  ``unresolved`` means the min-max spread of
a side is wider than the bound and the two sides' runs overlap, so the
medians settle nothing; ``unbounded`` means ``BENCHMARK.json`` gives the
metric no bound, so its ratio is shown and not judged.  What must repeat
exactly — the simulated costs and the layer counts — is compared for
equality instead.  Exits non-zero on any ``worse``, any ``differs`` or
any rise in ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .metrics import END_TO_END, EXACT, Metric

__all__ = ["verdict", "compare", "main"]


def verdict(metric: Metric, base: dict, new: dict) -> tuple[str, float | None]:
    """``(status, ratio)`` of one metric on one workload, B against A."""
    if metric.bound == 0:  # failed_share: absolute, any rise is a regression
        a, b = base["value"], new["value"]
        return ("worse" if b > a else "better" if b < a else "same"), None
    if base["median"] is None or new["median"] is None:
        return "unresolved", None  # nothing was measured on one side
    ratio = new["median"] / base["median"]
    if metric.name in EXACT:
        sides = {base["min"], base["max"], new["min"], new["max"]}
        return ("same" if len(sides) == 1 else "differs"), ratio
    if metric.bound is None:
        return "unbounded", ratio  # shown, not judged: BENCHMARK.json has no bound
    worsening = ratio - 1 if metric.better == "lower" else 1 - ratio
    spread = max((s["max"] - s["min"]) / s["median"] for s in (base, new))
    overlap = base["min"] <= new["max"] and new["min"] <= base["max"]
    if spread > metric.bound and overlap:
        return "unresolved", ratio
    if worsening > metric.bound:
        return "worse", ratio
    if worsening < -metric.bound:
        return "better", ratio
    return "same", ratio


def compare(a: dict, b: dict) -> list[tuple[str, str, str, str]]:
    """Rows of ``(workload, metric, status, detail)`` for workloads in both."""
    rows = []
    for name, base_entry in a["workloads"].items():
        new_entry = b["workloads"].get(name)
        if new_entry is None:
            continue
        for metric in END_TO_END:
            base = base_entry["end_to_end"][metric.name]
            new = new_entry["end_to_end"][metric.name]
            status, ratio = verdict(metric, base, new)
            if metric.bound == 0:
                detail = f"{new['value']:.6g} (base {base['value']:.6g})"
            elif ratio is None:
                detail = "not measured"
            else:
                rule = (
                    "exact"
                    if metric.name in EXACT
                    else "no bound"
                    if metric.bound is None
                    else f"bound {metric.bound:g}"
                )
                detail = (
                    f"x{ratio:.4f} of base {base['median']:.6g} {metric.unit} ({rule})"
                )
            rows.append((name, metric.name, status, detail))
        for count in sorted(EXACT & set(base_entry["layers"])):
            x, y = base_entry["layers"][count], new_entry["layers"][count]
            if x is not None and y is not None and x != y:
                rows.append((name, count, "differs", f"{y!r} (base {x!r})"))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.campaign.compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare(
        json.loads(args.base.read_text()), json.loads(args.new.read_text())
    )
    for workload, metric, status, detail in rows:
        print(f"{workload:<26}{metric:<20}{status:<12}{detail}")
    bad = [row for row in rows if row[2] in ("worse", "differs")]
    print(f"\n{len(rows)} rows, {len(bad)} worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
