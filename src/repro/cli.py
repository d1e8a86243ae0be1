"""Command-line interface.

Five subcommands mirror how the paper's pipeline was actually driven:

* ``repro predict``   — features + inference + relaxation for a proteome
  sample as a one-worker campaign (the campaign's science, bias and
  highmem routing included); writes relaxed PDBs and a per-target CSV.
* ``repro campaign``  — the full three-stage simulated deployment with
  node-hour accounting and the proteome confidence summary; with
  ``--telemetry-dir`` it also exports the run's trace/metrics/manifest,
  and with ``--state-dir`` it keeps a durable completion ledger +
  artifact pack so a killed campaign resumes (``--resume``) with zero
  recomputation of finished tasks.
* ``repro relax``     — relax an existing (CA-trace) PDB file.
* ``repro table1``    — a scaled-down regeneration of Table 1.
* ``repro report``    — render a saved telemetry run directory.
* ``repro index build`` — build the memory-mapped on-disk
  k-mer index artifacts a campaign attaches with ``--index-dir``
  (built once, shared read-only by every worker process).

All commands are seeded and deterministic.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runstate import RunState

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Proteome-scale structure prediction workflows "
        "(reproduction of Gao et al., IPDPS Workshops 2022)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="predict + relax a proteome sample")
    p.add_argument("--species", default="D_vulgaris",
                   choices=["P_mercurii", "R_rubrum", "D_vulgaris", "S_divinum"])
    p.add_argument("--scale", type=float, default=0.003,
                   help="fraction of the proteome to generate")
    p.add_argument("--preset", default="genome",
                   choices=["reduced_db", "casp14", "genome", "super"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-targets", type=int, default=None)
    p.add_argument("--out", type=Path, default=Path("repro_output"))

    c = sub.add_parser("campaign", help="simulate the full 3-stage deployment")
    c.add_argument("--species", default="D_vulgaris",
                   choices=["P_mercurii", "R_rubrum", "D_vulgaris", "S_divinum"])
    c.add_argument("--scale", type=float, default=0.004)
    c.add_argument("--preset", default="genome")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--feature-nodes", type=int, default=24)
    c.add_argument("--inference-nodes", type=int, default=16)
    c.add_argument("--relax-nodes", type=int, default=4)
    c.add_argument("--telemetry-dir", type=Path, default=None,
                   help="export manifest.json/trace.json/metrics.json here")
    c.add_argument("--state-dir", type=Path, default=None,
                   help="durable run state (write-ahead completion ledger + "
                        "artifact pack); lets a killed campaign resume")
    c.add_argument("--resume", action="store_true",
                   help="resume the campaign in --state-dir, skipping every "
                        "task already ledgered as complete")
    c.add_argument("--executor", default="threaded",
                   choices=["threaded", "process"],
                   help="backend for the real per-record compute: worker "
                        "threads (default) or worker processes fed over "
                        "pipes (survives a killed "
                        "worker by requeuing its task).  Use 'process' for "
                        "multi-core runs: the compute is GIL-bound, so "
                        "threads beyond the first lose throughput where "
                        "processes gain it")
    c.add_argument("--compute-workers", type=int, default=0,
                   help="workers for the real compute (0 = auto: one per "
                        "usable core, capped at 8)")
    c.add_argument("--schedule", default="barrier",
                   choices=["barrier", "streaming"],
                   help="campaign scheduler: three stage maps with hard "
                        "joins between them (barrier, default) or one "
                        "dependency-driven dataflow where each sequence "
                        "flows feature -> inference -> relax the moment "
                        "its predecessors finish, on the worker that "
                        "holds its inputs; idle workers steal (streaming; "
                        "bit-identical outputs, lower makespan and "
                        "time-to-first-structure)")
    c.add_argument("--index-dir", type=Path, default=None,
                   help="directory of on-disk k-mer index artifacts (see "
                        "`repro index build`); the feature stage attaches "
                        "the memory-mapped index arrays instead of building "
                        "an in-memory index per process — build with the same "
                        "--species/--scale/--seed or the artifacts are "
                        "rebuilt here")
    # Fault-injection hook for the kill/resume smoke test: SIGKILL this
    # process after N inference completions have been durably recorded.
    c.add_argument("--crash-after-inference-tasks", type=int, default=None,
                   help=argparse.SUPPRESS)

    r = sub.add_parser("relax", help="relax a CA-trace PDB file")
    r.add_argument("pdb", type=Path)
    r.add_argument("--method", default="gpu", choices=["gpu", "cpu", "af2"])
    r.add_argument("--out", type=Path, default=None)

    t = sub.add_parser("table1", help="regenerate Table 1 at reduced size")
    t.add_argument("--n", type=int, default=80, help="benchmark set size")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--presets", nargs="+",
                   default=["reduced_db", "genome", "super", "casp14"])

    v = sub.add_parser("report", help="render a saved telemetry run")
    v.add_argument("run_dir", type=Path,
                   help="directory holding manifest.json/trace.json/metrics.json")

    ix = sub.add_parser("index", help="manage on-disk k-mer index artifacts")
    ixsub = ix.add_subparsers(dest="index_command", required=True)
    ib = ixsub.add_parser(
        "build",
        help="build memory-mapped k-mer index artifacts for a suite",
        description="Builds one fingerprint-addressed artifact per library "
        "of the (reduced) suite a campaign with the same "
        "--species/--scale/--seed would search: the k-mer index's own "
        "CSR arrays as .npy files beside a checksummed manifest.  "
        "`repro campaign --index-dir` memory-maps them read-only instead "
        "of rebuilding the index in every process.",
    )
    ib.add_argument("--species", default="D_vulgaris",
                    choices=["P_mercurii", "R_rubrum", "D_vulgaris",
                             "S_divinum"])
    ib.add_argument("--scale", type=float, default=0.004)
    ib.add_argument("--seed", type=int, default=0)
    ib.add_argument("--out", type=Path, required=True,
                    help="artifact root directory (the campaign's "
                         "--index-dir)")
    return parser


def _cmd_predict(args: argparse.Namespace) -> int:
    """A one-worker campaign: the campaign's science, written out per target."""
    from .core import ProteomePipeline
    from .fold import NativeFactory
    from .msa import build_suite
    from .sequences import SequenceUniverse, synthetic_proteome
    from .structure import write_pdb

    args.out.mkdir(parents=True, exist_ok=True)
    universe = SequenceUniverse(args.seed)
    proteome = synthetic_proteome(
        args.species, universe=universe, seed=args.seed, scale=args.scale
    )
    suite = build_suite(
        universe, [args.species], seed=args.seed, scale=args.scale
    ).reduced()
    targets = proteome[: args.max_targets]
    result = ProteomePipeline(preset_name=args.preset, compute_workers=1).run(
        targets, suite, NativeFactory(universe)
    )
    features = result.feature_stage.features
    top_models = result.inference_stage.top_models
    outcomes = result.relax_stage.outcomes
    rows = []
    for record in targets:
        top = top_models.get(record.record_id)
        if top is None:
            print(f"{record.record_id}: all models OOM", file=sys.stderr)
            continue
        outcome = outcomes[record.record_id]
        pdb_path = args.out / f"{record.record_id}.pdb"
        write_pdb(outcome.structure, pdb_path)
        rows.append(
            {
                "record_id": record.record_id,
                "length": record.length,
                "msa_depth": features[record.record_id].msa_depth,
                "model": top.model_name,
                "recycles": top.n_recycles,
                "plddt": f"{top.mean_plddt:.1f}",
                "ptms": f"{top.ptms:.3f}",
                "clashes_removed": outcome.violations_before.n_clashes,
                "pdb": pdb_path.name,
            }
        )
        print(
            f"{record.record_id}  L={record.length:<5d} pLDDT="
            f"{top.mean_plddt:5.1f} pTMS={top.ptms:.3f} -> {pdb_path.name}"
        )
    csv_path = args.out / "summary.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else ["record_id"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"\n{len(rows)} structures -> {args.out}/ (summary: {csv_path})")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and args.state_dir is None:
        print("repro campaign: --resume requires --state-dir", file=sys.stderr)
        return 2
    if args.state_dir is None:
        return _run_campaign(args, None)
    from .runstate import RunState

    try:
        state = RunState(args.state_dir)
    except ValueError as exc:  # another schema, or a corrupt ledger
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2
    with state:
        if state.resumed and not args.resume:
            print(
                f"repro campaign: {args.state_dir} already holds a campaign "
                f"ledger ({len(state.ledger)} records); pass --resume to "
                "continue it, or point --state-dir at a fresh directory",
                file=sys.stderr,
            )
            return 2
        return _run_campaign(args, state)


def _run_campaign(args: argparse.Namespace, state: "RunState | None") -> int:
    """Run and report one campaign; the caller owns (and closes) ``state``."""
    from .core import ProteomePipeline, summarize_proteome
    from .fold import NativeFactory
    from .msa import build_suite
    from .sequences import SequenceUniverse, synthetic_proteome

    universe = SequenceUniverse(args.seed)
    proteome = synthetic_proteome(
        args.species, universe=universe, seed=args.seed, scale=args.scale
    )
    suite = build_suite(
        universe, [args.species], seed=args.seed, scale=args.scale
    ).reduced()
    session = None
    if args.telemetry_dir is not None:
        from .telemetry import TelemetrySession

        session = TelemetrySession(args.telemetry_dir)
        session.annotate(seed=args.seed, species=args.species)
    observer = None
    if args.crash_after_inference_tasks is not None:
        import os
        import signal
        import threading

        budget = args.crash_after_inference_tasks
        crash_lock = threading.Lock()
        seen = [0]

        def observer(stage, record, value):
            if stage != "inference" or not record.ok:
                return
            with crash_lock:
                seen[0] += 1
                if seen[0] >= budget:
                    # Durable state for this record is already on disk —
                    # the observer runs after the ledger fsync — so this
                    # is exactly the paper's node-failure scenario.
                    os.kill(os.getpid(), signal.SIGKILL)

    pipeline = ProteomePipeline(
        preset_name=args.preset,
        feature_nodes=args.feature_nodes,
        inference_nodes=args.inference_nodes,
        relax_nodes=args.relax_nodes,
        executor_backend=args.executor,
        schedule=args.schedule,
        compute_workers=args.compute_workers,
        index_dir=args.index_dir,
        telemetry=session,
        run_state=state,
        task_observer=observer,
    )
    result = pipeline.run(proteome, suite, NativeFactory(universe))
    fs, inf, rx = result.feature_stage, result.inference_stage, result.relax_stage
    print(f"{args.species}: {len(proteome)} targets, preset {args.preset}")
    print(
        f"features : {fs.simulation.walltime_minutes:8.1f} min on "
        f"{fs.n_nodes:4d} Andes nodes  = {fs.node_hours:8.1f} node-h"
    )
    print(
        f"inference: {inf.simulation.walltime_minutes:8.1f} min on "
        f"{inf.n_nodes:4d} Summit nodes = {inf.node_hours:8.1f} node-h"
    )
    print(
        f"relax    : {rx.simulation.walltime_minutes:8.1f} min on "
        f"{rx.n_nodes:4d} Summit nodes = {rx.node_hours:8.1f} node-h"
    )
    if result.schedule == "streaming":
        sim = result.streaming_simulation
        print(
            f"streaming: {sim.walltime_seconds / 60:8.1f} min campaign "
            f"makespan, first structure at "
            f"{result.time_to_first_structure_seconds / 60:.1f} min, "
            f"{result.bubble_seconds / 60:.1f} worker-min of bubbles"
        )
    summary = summarize_proteome(inf.top_models)
    print(
        f"quality  : {summary.frac_targets_plddt_high:.0%} targets pLDDT>70, "
        f"{summary.frac_targets_ptms_high:.0%} pTMS>0.6, "
        f"mean recycles {summary.mean_recycles:.1f}"
    )
    if inf.oom_failures:
        print(f"failures : {len(inf.oom_failures)} OOM tasks")
    if args.index_dir is not None:
        attached = [
            lib.index for lib in suite.libraries if lib.index.path is not None
        ]
        print(
            f"index    : {len(attached)} mmap artifact(s), "
            f"{sum(d.nbytes for d in attached) / 1e6:.1f} MB shared "
            f"read-only from {args.index_dir}"
        )
    if state is not None:
        skipped = (fs.skipped_resume, inf.skipped_resume, rx.skipped_resume)
        if any(skipped):
            print(
                f"resume   : skipped {skipped[0]} feature / {skipped[1]} "
                f"inference / {skipped[2]} relax task(s) already ledgered"
            )
        print(
            f"state    : {len(state.ledger)} ledger record(s) -> "
            f"{args.state_dir} (resume with --resume)"
        )
    if session is not None:
        print(f"telemetry: {args.telemetry_dir}/ "
              f"(view with `repro report {args.telemetry_dir}`)")
    return 0


def _cmd_relax(args: argparse.Namespace) -> int:
    from .relax import relax_structure
    from .structure import read_pdb, write_pdb

    structure = read_pdb(args.pdb)
    outcome = relax_structure(structure, method=args.method)
    out = args.out or args.pdb.with_name(args.pdb.stem + "_relaxed.pdb")
    write_pdb(outcome.structure, out)
    b, a = outcome.violations_before, outcome.violations_after
    print(
        f"{args.pdb.name}: clashes {b.n_clashes}->{a.n_clashes}, "
        f"bumps {b.n_bumps}->{a.n_bumps}, "
        f"{outcome.n_minimizations} minimisation(s) -> {out}"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .core import benchmark_set, benchmark_suite
    from .core.pipeline import ProteomePipeline
    from .core.stats import benchmark_row
    from .fold import NativeFactory
    from .msa import generate_features
    from .sequences import SequenceUniverse

    universe = SequenceUniverse(args.seed)
    bench = benchmark_set(universe, seed=args.seed, n_sequences=args.n)
    suite = benchmark_suite(universe, seed=args.seed, n_sequences=args.n)
    factory = NativeFactory(universe)
    features = {r.record_id: generate_features(r, suite) for r in bench}
    print(f"{'preset':>11} {'pLDDT':>7} {'pTMS':>7} {'count':>6} {'wall(min)':>10}")
    for preset in args.presets:
        nodes = 91 if preset == "casp14" else 32
        pipeline = ProteomePipeline(
            preset_name=preset, inference_nodes=nodes, use_highmem_routing=False
        )
        run = pipeline.run_inference_stage(features, factory)
        row = benchmark_row(preset, run.top_models, run.simulation.walltime_minutes)
        print(
            f"{row.preset:>11} {row.mean_plddt:7.1f} {row.mean_ptms:7.3f} "
            f"{row.count:6d} {row.walltime_minutes:10.1f}"
        )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    import time

    from .msa import build_suite
    from .msa.diskindex import ensure_disk_index
    from .sequences import SequenceUniverse

    universe = SequenceUniverse(args.seed)
    suite = build_suite(
        universe, [args.species], seed=args.seed, scale=args.scale
    ).reduced()
    total_bytes = 0
    for library in suite.libraries:
        t0 = time.perf_counter()
        disk = ensure_disk_index(library, args.out)
        dt = time.perf_counter() - t0
        total_bytes += disk.nbytes
        print(
            f"{library.name:>16}: {disk.n_sequences:6d} sequences, "
            f"{disk.nbytes / 1e6:7.1f} MB in {dt:6.2f}s  "
            f"[{disk.path.name}]"
        )
    print(
        f"\n{len(suite.libraries)} artifacts, {total_bytes / 1e6:.1f} MB "
        f"-> {args.out}\nrun campaigns with: repro campaign "
        f"--species {args.species} --scale {args.scale} --seed {args.seed} "
        f"--index-dir {args.out}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .telemetry import load_run, render_report

    try:
        artifacts = load_run(args.run_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 1
    print(render_report(artifacts))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "predict": _cmd_predict,
        "campaign": _cmd_campaign,
        "relax": _cmd_relax,
        "table1": _cmd_table1,
        "report": _cmd_report,
        "index": _cmd_index,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
