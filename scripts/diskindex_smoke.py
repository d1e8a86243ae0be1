#!/usr/bin/env python
"""End-to-end smoke test for the memory-mapped on-disk k-mer index.

Three layers, mirroring the paper's build-once / search-everywhere
library deployment (§3.2.1):

1. **Artifact build.**  ``repro index build`` must produce one
   fingerprint-addressed artifact directory per library, each with a
   schema-3 manifest and exactly the manifest's array files beside it:
   the rank table's ``bitmap``/``rank``, no dense ``lut.npy`` of
   schema 2 and no ``shard*`` file of schema 1.

2. **Zero-rebuild campaign.**  A ``repro campaign --executor process
   --index-dir`` run against the prebuilt artifacts must finish with
   the ``msa.index.rebuild`` counter **absent or zero** in the exported
   metrics — no worker ever reconstructed a CSR index — while
   ``msa.index.attach`` shows every library was memory-mapped.  A
   control campaign *without* ``--index-dir`` must show rebuilds, so
   the zero isn't vacuous.

3. **Benchmark artifact.**  ``bench_diskindex.py`` under
   ``BENCH_SMOKE=1`` must emit a well-formed ``BENCH_diskindex.json``
   with bit-identical results and the 4-searches-per-replica sweet
   spot.  The benchmark runs from a copy in the smoke's temp dir, so
   it writes there and not into the tracked ``benchmarks/results/``.

Run from the repo root (CI does)::

    PYTHONPATH=src python scripts/diskindex_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SPECIES = ["--species", "D_vulgaris", "--scale", "0.002", "--seed", "7"]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def _campaign_counters(index_dir: Path | None, telemetry_dir: Path) -> dict:
    cmd = [
        sys.executable, "-m", "repro.cli", "campaign",
        *SPECIES,
        "--feature-nodes", "2",
        "--inference-nodes", "1",
        "--relax-nodes", "1",
        "--executor", "process",
        "--compute-workers", "2",
        "--telemetry-dir", str(telemetry_dir),
    ]
    if index_dir is not None:
        cmd += ["--index-dir", str(index_dir)]
    run = subprocess.run(cmd, capture_output=True, text=True)
    check(
        run.returncode == 0,
        f"campaign completed (rc={run.returncode})"
        + (f"\n{run.stderr[-2000:]}" if run.returncode else ""),
    )
    if index_dir is not None:
        check("index    :" in run.stdout, "campaign printed the index summary")
    metrics = json.loads((telemetry_dir / "metrics.json").read_text())
    return metrics["counters"]


def artifact_build(index_dir: Path) -> None:
    build = subprocess.run(
        [sys.executable, "-m", "repro.cli", "index", "build",
         *SPECIES, "--out", str(index_dir)],
        capture_output=True, text=True,
    )
    check(build.returncode == 0, f"index build completed (rc={build.returncode})")
    manifests = sorted(index_dir.glob("*/manifest.json"))
    check(len(manifests) == 4, f"four library artifacts built ({len(manifests)})")
    for m in manifests:
        manifest = json.loads(m.read_text())
        check(
            manifest.get("schema") == "repro.msa.diskindex/3",
            f"{m.parent.name}: manifest schema",
        )
        files = {p.name for p in m.parent.iterdir()}
        expected = {m.name} | {
            spec["file"] for spec in manifest["arrays"].values()
        }
        check(
            files == expected and not any(f.startswith("shard") for f in files),
            f"{m.parent.name}: exactly the manifest's arrays "
            f"({sorted(files)})",
        )
        check(
            "lut.npy" not in files
            and {"bitmap.npy", "rank.npy"} <= files,
            f"{m.parent.name}: rank table saved, no dense lut.npy",
        )


def zero_rebuild_campaign(index_dir: Path, workdir: Path) -> None:
    counters = _campaign_counters(index_dir, workdir / "tel-prebuilt")
    rebuilds = counters.get("msa.index.rebuild", 0)
    check(
        rebuilds == 0,
        f"prebuilt --index-dir campaign performed zero CSR rebuilds "
        f"({rebuilds})",
    )
    check(
        counters.get("msa.index.attach", 0) >= 4,
        f"all four libraries attached by mmap "
        f"({counters.get('msa.index.attach', 0)})",
    )
    control = _campaign_counters(None, workdir / "tel-control")
    check(
        control.get("msa.index.rebuild", 0) > 0,
        f"control campaign without --index-dir rebuilt CSR indexes "
        f"({control.get('msa.index.rebuild', 0)})",
    )


def bench_artifact(workdir: Path) -> None:
    """Run the smoke benchmark from a copy of it and its ``conftest.py``
    in ``workdir``: the copy's ``RESULTS_DIR`` is ``workdir/results``,
    so the tracked ``benchmarks/results`` files are left as they are."""
    bench_dir = workdir / "bench"
    bench_dir.mkdir()
    for name in ("bench_diskindex.py", "conftest.py"):
        shutil.copy(Path("benchmarks") / name, bench_dir / name)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "bench_diskindex.py", "-q",
         f"--basetemp={(workdir / 'pytest').resolve()}"],
        cwd=bench_dir,
        capture_output=True, text=True,
        env={
            **os.environ,
            "BENCH_SMOKE": "1",
            "PYTHONPATH": str(Path("src").resolve()),
        },
    )
    check(run.returncode == 0, f"smoke benchmark passed (rc={run.returncode})")
    payload = json.loads(
        (bench_dir / "results" / "BENCH_diskindex.json").read_text()
    )
    check(payload["smoke"] is True, "benchmark ran in smoke mode")
    check(payload["bit_identical"] is True, "disk results bit-identical")
    check(
        payload["sweet_spot_jobs_per_replica"] == 4,
        "replica sweet spot at 4 searches per copy",
    )
    check(
        len(payload["replica_sweep"]) >= 8,
        "replica sweep rows present",
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="diskindex-smoke-") as tmp:
        workdir = Path(tmp)
        index_dir = workdir / "index"
        print("[1/3] repro index build artifacts")
        artifact_build(index_dir)
        print("[2/3] process-backend campaign with --index-dir: zero rebuilds")
        zero_rebuild_campaign(index_dir, workdir)
        print("[3/3] BENCH_diskindex.json smoke validation")
        bench_artifact(workdir)
    print("diskindex smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
