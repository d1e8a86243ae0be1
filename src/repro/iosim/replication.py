"""Library replication planning (mpiFileUtils-style parallel copy).

§3.2.1: the sequence libraries cannot live in node memory or burst
buffers across jobs, so the paper placed 24 identical copies of the
reduced (420 GB) dataset on the parallel filesystem with dcp/mpiFileUtils
and ran 4 search jobs against each copy.  This module sizes such plans:
copy time, storage footprint, and the end-to-end feature-generation
throughput for a given (replicas, concurrent jobs) choice — the numbers
behind the bench that shows why 24x4 was the right call and why the
full 2.1 TB dataset was impractical to replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import (
    JOBS_PER_LIBRARY_REPLICA,
    LIBRARY_REPLICA_COUNT,
)
from .filesystem import FilesystemSpec, contention_factor

__all__ = [
    "ReplicationPlan",
    "dcp_copy_seconds",
    "paper_plan",
    "INDEX_REPLICA_FS",
    "IndexReplicaSet",
    "searches_per_replica_sweep",
    "sweet_spot_jobs_per_replica",
]

#: Sustained per-node copy bandwidth of a dcp run (bytes/s).  Parallel
#: filesystem copies stream well; ~1 GB/s/node is the right order.
_DCP_NODE_BANDWIDTH: float = 1.0e9

#: Aggregate filesystem write bandwidth cap shared by all copy streams.
_FS_WRITE_BANDWIDTH_CAP: float = 24.0e9


def dcp_copy_seconds(dataset_bytes: int, n_nodes: int) -> float:
    """Wall time of one parallel dataset copy with ``n_nodes`` movers."""
    if dataset_bytes < 0 or n_nodes < 1:
        raise ValueError("bad dataset size or node count")
    bandwidth = min(n_nodes * _DCP_NODE_BANDWIDTH, _FS_WRITE_BANDWIDTH_CAP)
    return dataset_bytes / bandwidth


@dataclass(frozen=True)
class ReplicationPlan:
    """A replica layout for the feature-generation campaign."""

    dataset_bytes: int
    n_replicas: int
    jobs_per_replica: int
    copy_nodes: int = 16

    def __post_init__(self) -> None:
        if self.n_replicas < 1 or self.jobs_per_replica < 1:
            raise ValueError("replicas and jobs_per_replica must be >= 1")

    @property
    def n_concurrent_jobs(self) -> int:
        return self.n_replicas * self.jobs_per_replica

    @property
    def storage_bytes(self) -> int:
        return self.dataset_bytes * self.n_replicas

    def replication_seconds(self) -> float:
        """Time to stage all replicas (copies run one after another per
        mover group; aggregate bandwidth caps parallel copies anyway)."""
        return self.n_replicas * dcp_copy_seconds(
            self.dataset_bytes, self.copy_nodes
        )

    def contention(self, fs: FilesystemSpec | None = None) -> float:
        """I/O slowdown each search job sees under this plan."""
        return contention_factor(
            self.n_concurrent_jobs, self.n_replicas, fs=fs
        )


def paper_plan(dataset_bytes: int) -> ReplicationPlan:
    """The paper's 24-replica, 4-jobs-per-copy layout."""
    return ReplicationPlan(
        dataset_bytes=dataset_bytes,
        n_replicas=LIBRARY_REPLICA_COUNT,
        jobs_per_replica=JOBS_PER_LIBRARY_REPLICA,
    )


# -- Index-replica contention (the disk-index artifact on shared disk) -------

#: Filesystem spec for placing *disk-index artifacts* (memory-mapped
#: CSR postings, ``repro.msa.diskindex``) on the parallel filesystem.
#: Random postings gathers degrade *superlinearly* once a copy is
#: oversubscribed — seek-bound readers steal each other's readahead —
#: which the default linear model cannot express; an exponent > 1 makes
#: per-replica throughput *peak* at the full-speed job count instead of
#: plateauing, reproducing the paper's observed 4-searches-per-copy
#: sweet spot as a maximum rather than a saturation point.
INDEX_REPLICA_FS = FilesystemSpec(
    name="alpine-diskindex",
    replica_bandwidth_exponent=1.3,
)


@dataclass(frozen=True)
class IndexReplicaSet:
    """``n_replicas`` copies of the disk-index artifacts on shared disk.

    The in-process campaign shares *one* page-cache copy per node; at
    cluster scale the artifact set is replicated across the parallel
    filesystem exactly like the paper's library copies, and concurrent
    searchers contend per copy.  This models that placement: storage
    footprint, per-searcher contention, and aggregate search throughput
    for a given concurrency.
    """

    dataset_bytes: int
    n_replicas: int
    fs: FilesystemSpec = INDEX_REPLICA_FS

    def __post_init__(self) -> None:
        if self.dataset_bytes < 0 or self.n_replicas < 1:
            raise ValueError("bad dataset size or replica count")

    @property
    def storage_bytes(self) -> int:
        return self.dataset_bytes * self.n_replicas

    def contention(self, n_jobs: int) -> float:
        """Slowdown each of ``n_jobs`` concurrent searchers sees."""
        return contention_factor(n_jobs, self.n_replicas, fs=self.fs)

    def aggregate_throughput(self, n_jobs: int) -> float:
        """Full-speed-search-equivalents completed per unit time."""
        return n_jobs / self.contention(n_jobs)

    def per_replica_throughput(self, jobs_per_replica: int) -> float:
        """Throughput one replica delivers at the given oversubscription."""
        n_jobs = jobs_per_replica * self.n_replicas
        return self.aggregate_throughput(n_jobs) / self.n_replicas


def searches_per_replica_sweep(
    dataset_bytes: int,
    n_replicas: int = LIBRARY_REPLICA_COUNT,
    max_jobs_per_replica: int = 12,
    fs: FilesystemSpec = INDEX_REPLICA_FS,
) -> list[dict]:
    """Throughput vs. concurrent searches per index replica.

    The sweep behind the paper's 24×4 layout, recomputed for the
    disk-index artifacts: fix the replica count, scale total job
    concurrency, and watch per-replica throughput rise linearly while
    copies are undersubscribed, peak at the full-speed job count, and
    fall once seek contention outgrows the extra parallelism.
    """
    replicas = IndexReplicaSet(dataset_bytes, n_replicas, fs=fs)
    rows = []
    for jobs in range(1, max_jobs_per_replica + 1):
        n_jobs = jobs * n_replicas
        rows.append(
            {
                "jobs_per_replica": jobs,
                "n_jobs": n_jobs,
                "contention": replicas.contention(n_jobs),
                "per_replica_throughput": replicas.per_replica_throughput(
                    jobs
                ),
                "aggregate_throughput": replicas.aggregate_throughput(
                    n_jobs
                ),
                "storage_bytes": replicas.storage_bytes,
            }
        )
    return rows


def sweet_spot_jobs_per_replica(
    dataset_bytes: int,
    n_replicas: int = LIBRARY_REPLICA_COUNT,
    max_jobs_per_replica: int = 12,
    fs: FilesystemSpec = INDEX_REPLICA_FS,
) -> int:
    """Concurrency per replica that maximises per-replica throughput.

    Ties break toward fewer jobs (less memory pressure for the same
    throughput).  With :data:`INDEX_REPLICA_FS` this is exactly the
    filesystem's ``jobs_at_full_speed_per_replica`` — the paper's 4.
    """
    rows = searches_per_replica_sweep(
        dataset_bytes, n_replicas, max_jobs_per_replica, fs=fs
    )
    best = max(
        rows,
        key=lambda r: (r["per_replica_throughput"], -r["jobs_per_replica"]),
    )
    return int(best["jobs_per_replica"])
