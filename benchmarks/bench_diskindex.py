"""Disk-index artifact: attach cost, query throughput, replica model.

Writes ``benchmarks/results/BENCH_diskindex.json`` with four sections:

* build/attach — cold artifact build seconds vs. the attach cost every
  subsequent process pays (checksum-verified first open and the
  headers-only warm attach workers use).  The attach must be orders of
  magnitude cheaper than the CSR rebuild it replaces.
* throughput — queries/sec of the memory-mapped index against the
  in-memory CSR index, both batched (``count_hits_many``) and one query
  at a time (``count_hits_codes``, what ``repro.msa.search`` calls),
  results asserted bit-identical.  The acceptance bar at full size is
  the batched CSR baseline recorded by ``BENCH_search.json`` (~20.6k
  q/s): reading the postings through ``mmap`` must not give back the
  batched-query win.
* worker scaling — simulated N-process campaign cost: N CSR rebuilds
  vs. one build + N attaches.
* replica contention — the :mod:`repro.iosim.replication` sweep over
  concurrent searches per on-disk index replica, asserting the
  per-replica throughput peak lands at the paper's 4 searches per copy.

``BENCH_SMOKE=1`` shrinks sizes so CI validates artifact production in
seconds; the throughput bar is then informational (tiny vocabularies
measure call overhead, not gather bandwidth).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.constants import REDUCED_DATASET_BYTES
from repro.iosim import (
    searches_per_replica_sweep,
    sweet_spot_jobs_per_replica,
)
from repro.msa import build_disk_index, open_disk_index
from repro.msa.kmer import KmerIndex
from repro.sequences import mutate_sequence, random_sequence
from conftest import RESULTS_DIR, save_result

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N_LIBRARY = 300 if SMOKE else 5000
N_QUERIES = 16 if SMOKE else 64
#: Full-size acceptance bar: the batched CSR baseline from
#: ``BENCH_search.json`` (csr_batched_queries_per_sec = 20576.9 on the
#: reference box).  The disk-backed index must meet it.
MIN_DISK_QPS = 1.0 if SMOKE else 20_600.0


def _workload():
    rng = np.random.default_rng(7)
    library = [
        random_sequence(int(rng.integers(60, 500)), rng)
        for _ in range(N_LIBRARY)
    ]
    queries = [
        mutate_sequence(
            library[int(rng.integers(0, len(library)))],
            rng,
            float(rng.uniform(0.05, 0.5)),
        )
        for _ in range(N_QUERIES)
    ]
    return library, queries


def _best_of(fn, repeats: int = 3):
    fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_diskindex_throughput_and_replicas(tmp_path):
    library, queries = _workload()

    mem = KmerIndex()
    t0 = time.perf_counter()
    for i, seq in enumerate(library):
        mem.add(i, seq)
    mem.freeze()
    csr_build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    artifact = build_disk_index(
        mem,
        tmp_path / "bench.artifact",
        library_name="bench",
        fingerprint="b" * 64,
    )
    artifact_build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    disk = open_disk_index(artifact, verify=True)
    cold_attach_s = time.perf_counter() - t0
    warm_attach_s, disk = _best_of(lambda: open_disk_index(artifact))

    mem_s, mem_counts = _best_of(lambda: mem.count_hits_many(queries))
    disk_s, disk_counts = _best_of(lambda: disk.count_hits_many(queries))
    mem_qps = len(queries) / mem_s
    disk_qps = len(queries) / disk_s

    code_sets = [mem.query_codes(q) for q in queries]
    mem_one_s, mem_rows = _best_of(
        lambda: [mem.count_hits_codes(c) for c in code_sets]
    )
    disk_one_s, disk_rows = _best_of(
        lambda: [disk.count_hits_codes(c) for c in code_sets]
    )
    mem_one_qps = len(queries) / mem_one_s
    disk_one_qps = len(queries) / disk_one_s

    bit_identical = bool((mem_counts == disk_counts).all()) and all(
        (m == d).all() for m, d in zip(mem_rows, disk_rows)
    )
    assert bit_identical
    assert disk_qps >= MIN_DISK_QPS
    # Warm attach replaces a per-worker CSR rebuild: it must be cheap.
    assert warm_attach_s < max(0.05, csr_build_s / 10)

    # N-worker campaign cost: every process rebuilds, vs. one build
    # plus N map-the-same-pages attaches.
    worker_rows = [
        {
            "workers": n,
            "rebuild_every_worker_s": n * csr_build_s,
            "build_once_attach_each_s": artifact_build_s
            + n * warm_attach_s,
        }
        for n in (1, 2, 4, 8, 16)
    ]

    sweep = searches_per_replica_sweep(REDUCED_DATASET_BYTES)
    sweet = sweet_spot_jobs_per_replica(REDUCED_DATASET_BYTES)
    assert sweet == 4  # the paper's 4-searches-per-replica sweet spot

    payload = {
        "smoke": SMOKE,
        "library_entries": N_LIBRARY,
        "n_queries": N_QUERIES,
        "artifact_bytes": disk.nbytes,
        "csr_build_seconds": csr_build_s,
        "artifact_build_seconds": artifact_build_s,
        "cold_attach_verified_seconds": cold_attach_s,
        "warm_attach_seconds": warm_attach_s,
        "mem_batched_queries_per_sec": mem_qps,
        "disk_batched_queries_per_sec": disk_qps,
        "mem_single_queries_per_sec": mem_one_qps,
        "disk_single_queries_per_sec": disk_one_qps,
        "bit_identical": bit_identical,
        "worker_scaling": worker_rows,
        "replica_sweep": sweep,
        "sweet_spot_jobs_per_replica": sweet,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_diskindex.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    peak = max(sweep, key=lambda r: r["per_replica_throughput"])
    save_result(
        "diskindex",
        "\n".join(
            [
                f"disk-index artifact, {N_LIBRARY}-entry library, "
                f"{N_QUERIES} queries"
                + (" [smoke]" if SMOKE else ""),
                f"CSR rebuild (per worker) : {csr_build_s * 1e3:9.1f} ms",
                f"artifact build (once)    : "
                f"{artifact_build_s * 1e3:9.1f} ms"
                f"  ({disk.nbytes / 1e6:.1f} MB on disk)",
                f"cold attach (verified)   : {cold_attach_s * 1e3:9.1f} ms",
                f"warm attach (per worker) : {warm_attach_s * 1e3:9.1f} ms",
                f"in-memory batched        : {mem_qps:9.0f} q/s",
                f"mmap batched             : {disk_qps:9.0f} q/s",
                f"in-memory one at a time  : {mem_one_qps:9.0f} q/s",
                f"mmap one at a time       : {disk_one_qps:9.0f} q/s"
                f"  (bit-identical: {bit_identical})",
                f"replica sweet spot       : {peak['jobs_per_replica']} "
                f"searches/replica "
                f"(per-replica throughput {peak['per_replica_throughput']:.2f})",
            ]
        ),
    )
