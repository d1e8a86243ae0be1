"""The parent side: spawn runs, gate their science, aggregate, report.

    PYTHONPATH=src python -m benchmarks.campaign [--smoke] [--workload W]
        [--seed N] [--repeats N] [--out FILE]

The parent never imports ``repro``: every measurement happens in a child
(``child.py``), one fresh subprocess per run, one run at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from .metrics import END_TO_END, PER_LAYER, ROOT, applies
from .workloads import COMPUTE_WORKERS, SIZES, SMOKE_SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
#: Scratch space stays inside the checkout (the driver forbids writing
#: anywhere else); one mkdtemp per invocation below it, removed on exit.
WORK = HERE / ".work"

#: Unpinned, 2 workers x 2 BLAS threads on 2 cores swung identical runs
#: 10.5 s -> 27.0 s; pinned they repeat within a tenth.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
DEFAULT_SEED = 2022
#: Load from anybody else, in cores, that a run may start under before it
#: is marked degraded: the workers need ``COMPUTE_WORKERS`` cores free.
LOAD_SLACK = 0.5

#: The end-to-end metrics a child measures; ``failed_share`` is the gate's.
RUN_METRICS = [m for m in END_TO_END if m.name != "failed_share"]


class Runner:
    """Spawns children one at a time under one temp dir removed on exit."""

    def __init__(self, seed: int, sizes: dict[str, int]) -> None:
        self.seed = seed
        self.sizes = sizes
        self.base: Path | None = None

    def __enter__(self) -> "Runner":
        WORK.mkdir(exist_ok=True)
        self.base = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.base, ignore_errors=True)

    def _spawn(self, mode: str, kind: str, *extra: str) -> dict:
        work = Path(tempfile.mkdtemp(dir=self.base))
        pythonpath = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, "-m", "benchmarks.campaign.child", mode, *extra,
            "--seed", str(self.seed),
            "--n-targets", str(self.sizes[kind]),
            "--work-dir", str(work),
        ]  # fmt: skip
        if mode != "probe":
            command += ["--t0", repr(time.time())]
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env={**os.environ, **BLAS_PIN, "PYTHONPATH": pythonpath},
                stdout=subprocess.PIPE,
                text=True,
                check=True,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def campaign(self, name: str, traced: bool = False) -> dict:
        extra = ["--workload", name] + (["--traced"] if traced else [])
        return self._spawn("campaign", WORKLOADS[name].input, *extra)

    def setup(self, name: str) -> dict:
        """Set up as ``campaign(name)`` does, then stop: a ``setup_s`` sample."""
        return self._spawn("setup", WORKLOADS[name].input, "--workload", name)

    def probe(self, kind: str) -> dict:
        return self._spawn("probe", kind, "--input", kind)


# -- Correctness gate -------------------------------------------------------------
def count_failures(run: dict, reference: dict[str, str]) -> int:
    """Targets with no relaxed structure or whose science differs from the
    serial probe's, plus one for a failed resume check."""
    digests = run["digests"]
    failed = sum(digests.get(rid) != ref for rid, ref in reference.items())
    if run["resume"] is not None and not run["resume"]["ok"]:
        failed += 1
    return failed


def failed_share(runs: list[dict], reference: dict[str, str]) -> float:
    attempted = sum(run["n_targets"] for run in runs)
    return sum(count_failures(run, reference) for run in runs) / attempted


# -- Aggregation --------------------------------------------------------------------
def summarise(values: list[float | None]) -> dict:
    """Median, min, max and count of the samples that exist."""
    seen = [v for v in values if v is not None]
    if not seen:
        return {"median": None, "min": None, "max": None, "n": 0}
    return {
        "median": statistics.median(seen),
        "min": min(seen),
        "max": max(seen),
        "n": len(seen),
    }


def end_to_end(runs: list[dict]) -> dict[str, dict]:
    """Every measured end-to-end metric over ``runs``; a set-up-only run
    carries ``setup_s`` alone."""
    return {
        m.name: {
            **summarise(
                [run["metrics"][m.name] for run in runs if m.name in run["metrics"]]
            ),
            "unit": m.unit,
        }
        for m in RUN_METRICS
    }


def layer_values(probe: dict, traced: dict, base_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced campaign: the serial probe's,
    the campaign's own, and the ones that need both."""
    layers = {**probe["layers"], **traced["layers"]}
    del layers["tasks_by_stage"]
    wall = traced["wall_s"]
    serial = layers["core.serial_compute_s"]
    busy = sum(v for k, v in layers.items() if k.startswith("dataflow.busy_s."))
    layers["dataflow.task_stretch"] = busy / serial
    layers["dataflow.parallel_efficiency"] = serial / (COMPUTE_WORKERS * wall)
    layers["telemetry.overhead_share"] = (wall - base_wall) / base_wall
    # workers x wall = busy + idle + workers x orchestration if each
    # worker's records tile the executor's time; idle is measured from
    # the gaps between them, so what is left over is not zero by design.
    layers["unattributed_s"] = (
        COMPUTE_WORKERS * (wall - layers["core.orchestration_s"])
        - busy
        - layers["dataflow.idle_s"]
    )
    return layers


def layer_medians(
    probe: dict, traced: list[dict], base_wall: float
) -> dict[str, float]:
    """Per-layer medians over the traced campaigns of one workload."""
    per_run = [layer_values(probe, run, base_wall) for run in traced]
    return {
        name: statistics.median(values[name] for values in per_run)
        for name in per_run[0]
    }


def layer_report(name: str, values: dict[str, float]) -> dict[str, float | None]:
    """``values`` in table order, null where the layer is not on the
    workload's path."""
    w = WORKLOADS[name]
    return {
        m.name: values.get(m.name)
        if applies(m.name, durable=w.durable, backend=w.backend)
        else None
        for m in PER_LAYER
    }


# -- Environment envelope -------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None  # the driver's checkout is not a git repository


def code_digest() -> str:
    """Digest of the benchmark's own code and contract, so that a result
    file can be matched to the tree that produced it before that tree has
    a commit of its own."""
    h = hashlib.sha256()
    sources = sorted(p for p in HERE.glob("*.py") if not p.name.startswith("test_"))
    for path in (ROOT / "BENCHMARK.json", *sources):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def envelope(seed: int, sizes: dict[str, int], repeats: int, smoke: bool) -> dict:
    nproc = os.cpu_count() or 1
    usable = len(os.sched_getaffinity(0))
    loadavg = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "benchmark_digest": code_digest(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "usable_cores": usable,
        "blas_pin": BLAS_PIN,
        "loadavg_1min": loadavg,
        "degraded": usable < COMPUTE_WORKERS
        or loadavg > nproc - COMPUTE_WORKERS + LOAD_SLACK,
        "compute_workers": COMPUTE_WORKERS,
        "seed": seed,
        "sizes": sizes,
        "repeats": repeats,
        "smoke": smoke,
    }


# -- The full harness -------------------------------------------------------------------
def write_trace(name: str, probe: dict, traced: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{name}.json").write_text(
        json.dumps(
            {"workload": name, "probe": probe["spans"], "campaign": traced["spans"]}
        )
    )


def _shown(value: float | None) -> str:
    return "null" if value is None else f"{value:.6g}"


def _print_report(report: dict) -> None:
    units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  ({entry['n_targets']} targets)")
        for metric, s in entry["end_to_end"].items():
            if metric == "failed_share":
                print(f"  {metric:<22}{s['value']:>14.6g} {units[metric]}")
                continue
            print(
                f"  {metric:<22}{_shown(s['median']):>14} {s['unit']:<10}"
                f" [{_shown(s['min'])} .. {_shown(s['max'])}] n={s['n']}"
            )
        for metric, value in entry["layers"].items():
            print(f"    {metric:<34}{_shown(value):>14} {units[metric]}")
        for check, ok in entry["checks"].items():
            print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    for check, ok in report["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")


def exit_code(report: dict) -> int:
    """Non-zero when any target failed the gate or any check failed."""
    entries = report["workloads"].values()
    clean = all(
        e["end_to_end"]["failed_share"]["value"] == 0 and all(e["checks"].values())
        for e in entries
    ) and all(report["checks"].values())
    return 0 if clean else 1


def _sim_costs(entry: dict) -> tuple:
    e2e = entry["end_to_end"]
    return tuple(
        (e2e[m]["min"], e2e[m]["max"]) for m in ("sim_node_hours", "sim_makespan_s")
    )


def build_report(
    env: dict,
    names: list[str],
    untraced: dict[str, list[dict]],
    probes: dict[str, dict],
    traced: dict[str, list[dict]],
    base_walls: dict[str, float],
) -> dict:
    """Gate every run against its input's probe and assemble the result."""
    report: dict = {"envelope": env, "workloads": {}, "checks": {}}
    for name in names:
        w = WORKLOADS[name]
        runs = untraced[name] + traced[name]
        entry: dict = {
            "why": w.why,
            "config": {
                "input": w.input,
                "preset": w.preset,
                "schedule": w.schedule,
                "executor_backend": w.backend,
                "durable": w.durable,
            },
            "n_targets": runs[0]["n_targets"],
            "end_to_end": end_to_end(untraced[name]),
            "checks": {},
        }
        if w.durable:
            # Every key restored, none recomputed, digest reproduced.
            entry["checks"]["cross_schedule_resume"] = all(
                run["resume"]["ok"] for run in runs
            )
        probe = probes[w.input]
        entry["end_to_end"]["failed_share"] = {
            "value": failed_share(runs, probe["digests"]),
            "unit": "ratio",
        }
        base_wall = base_walls[w.overhead_base]
        entry["layers"] = layer_report(
            name, layer_medians(probe, traced[name], base_wall)
        )
        # The probe did the campaign's work: same calls, stage by stage.
        entry["checks"]["probe_calls_equal_campaign_tasks"] = all(
            probe["calls_by_stage"] == run["layers"]["tasks_by_stage"]
            for run in traced[name]
        )
        entry["checks"]["unattributed_within_2pct"] = all(
            abs(layer_values(probe, run, base_wall)["unattributed_s"])
            <= 0.02 * COMPUTE_WORKERS * run["wall_s"]
            for run in traced[name]
        )
        entry["checks"]["no_shm_leaked"] = all(
            run["layers"]["dataflow.shm_leaked"] == 0 for run in runs
        )
        # The simulated costs are a function of the input and the schedule.
        costs = _sim_costs(entry)
        entry["checks"]["sim_costs_repeat_exactly"] = all(lo == hi for lo, hi in costs)
        report["workloads"][name] = entry
    by_input: dict[str, list[str]] = {}
    for name in names:
        by_input.setdefault(WORKLOADS[name].input, []).append(name)
    for kind, sharing in by_input.items():
        if len(sharing) < 2:
            continue
        first, *rest = (untraced[n][0]["digests"] for n in sharing)
        report["checks"][f"{kind}_digests_equal"] = all(d == first for d in rest)
        for a, b in itertools.combinations(sharing, 2):
            if WORKLOADS[a].schedule == WORKLOADS[b].schedule:
                report["checks"][f"sim_costs_equal.{a}.{b}"] = _sim_costs(
                    report["workloads"][a]
                ) == _sim_costs(report["workloads"][b])
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.campaign")
    parser.add_argument("--smoke", action="store_true",
                        help="<=12 targets per workload, 1 repeat, under 60 s")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload instead of all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default results/latest.json for a "
                             "full run, results/scratch.json otherwise)")
    args = parser.parse_args(argv)  # fmt: skip

    names = [args.workload] if args.workload else list(WORKLOADS)
    repeats = 1 if args.smoke else args.repeats
    sizes = SMOKE_SIZES if args.smoke else SIZES
    full = not args.smoke and not args.workload
    env = envelope(args.seed, sizes, repeats, args.smoke)

    untraced: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, list[dict]] = {name: [] for name in names}
    probes: dict[str, dict] = {}
    with Runner(args.seed, sizes) as runner:
        # Interleaved round-robin, so drift hits every workload alike.
        for _ in range(repeats):
            for name in names:
                untraced[name].append(runner.campaign(name))
        bases = {WORKLOADS[name].overhead_base for name in names}
        base_walls = {
            base: statistics.median(
                run["wall_s"]
                for run in untraced.get(base)
                or [runner.campaign(base) for _ in range(repeats)]
            )
            for base in sorted(bases)
        }
        # The traced pass: a serial probe per input (also the reference
        # every run is gated against), then the traced campaigns.
        for kind in sorted({WORKLOADS[name].input for name in names}):
            probes[kind] = runner.probe(kind)
        for _ in range(repeats):
            for name in names:
                traced[name].append(runner.campaign(name, traced=True))
        for name in names:
            write_trace(name, probes[WORKLOADS[name].input], traced[name][-1])

    report = build_report(env, names, untraced, probes, traced, base_walls)
    _print_report(report)
    out = args.out or RESULTS / ("latest.json" if full else "scratch.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    if full:
        row = {
            "envelope": env,
            "end_to_end": {
                name: {
                    metric: s.get("median", s.get("value"))
                    for metric, s in entry["end_to_end"].items()
                }
                for name, entry in report["workloads"].items()
            },
        }
        with open(RESULTS / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(row) + "\n")
    print(f"\nwrote {out}")
    return exit_code(report)
