"""LSF-style batch scheduling with jsrun resource sets.

Summit jobs are LSF batch scripts whose processes are placed by
``jsrun`` resource sets; the paper's inference job uses three jsrun
statements (scheduler / workers / client, §3.3).  This module models
just enough of that machinery to (a) validate that a requested layout
fits the allocation and (b) account node-hours per job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .machine import MachineSpec

__all__ = ["ResourceSet", "JsrunStatement", "BatchJob", "BatchScheduler"]


@dataclass(frozen=True)
class ResourceSet:
    """One jsrun resource set: cores/GPUs bundled per task slot."""

    cores: int
    gpus: int = 0

    def __post_init__(self) -> None:
        if self.cores < 1 or self.gpus < 0:
            raise ValueError("resource set needs >= 1 core and >= 0 gpus")


@dataclass(frozen=True)
class JsrunStatement:
    """``jsrun -n <count> -c <cores> -g <gpus> ...``"""

    name: str
    n_sets: int
    resource_set: ResourceSet

    def __post_init__(self) -> None:
        if self.n_sets < 1:
            raise ValueError("n_sets must be >= 1")

    @property
    def total_cores(self) -> int:
        return self.n_sets * self.resource_set.cores

    @property
    def total_gpus(self) -> int:
        return self.n_sets * self.resource_set.gpus


@dataclass
class BatchJob:
    """One LSF batch job: node allocation + jsrun layout."""

    job_name: str
    n_nodes: int
    statements: list[JsrunStatement] = field(default_factory=list)
    highmem: bool = False

    def add(self, statement: JsrunStatement) -> "BatchJob":
        self.statements.append(statement)
        return self

    def validate(self, machine: MachineSpec) -> None:
        """Check the jsrun layout fits the allocation."""
        if self.n_nodes < 1:
            raise ValueError("job needs at least one node")
        if self.highmem and self.n_nodes > machine.n_highmem_nodes:
            raise ValueError(
                f"{machine.name} has only {machine.n_highmem_nodes} "
                f"high-memory nodes"
            )
        if self.n_nodes > machine.n_nodes:
            raise ValueError(f"{machine.name} has only {machine.n_nodes} nodes")
        total_cores = sum(s.total_cores for s in self.statements)
        total_gpus = sum(s.total_gpus for s in self.statements)
        if total_cores > self.n_nodes * machine.cores_per_node:
            raise ValueError(
                f"layout needs {total_cores} cores, allocation has "
                f"{self.n_nodes * machine.cores_per_node}"
            )
        if total_gpus > self.n_nodes * machine.gpus_per_node:
            raise ValueError(
                f"layout needs {total_gpus} GPUs, allocation has "
                f"{self.n_nodes * machine.gpus_per_node}"
            )


def inference_job(n_nodes: int, machine: MachineSpec, name: str = "af2-inference") -> BatchJob:
    """The paper's three-jsrun inference job layout (§3.3).

    1. Dask scheduler on two cores.
    2. One Dask worker per GPU across all nodes.
    3. One core for the driving client script.
    """
    job = BatchJob(job_name=name, n_nodes=n_nodes)
    job.add(JsrunStatement("scheduler", 1, ResourceSet(cores=2)))
    job.add(
        JsrunStatement(
            "workers",
            n_nodes * machine.gpus_per_node,
            ResourceSet(cores=4, gpus=1),
        )
    )
    job.add(JsrunStatement("client", 1, ResourceSet(cores=1)))
    job.validate(machine)
    return job


@dataclass
class CompletedJob:
    job: BatchJob
    wall_seconds: float
    node_hours: float


class BatchScheduler:
    """Per-machine job ledger with node-hour accounting."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        self.completed: list[CompletedJob] = []

    def run_job(self, job: BatchJob, wall_seconds: float) -> CompletedJob:
        """Validate, 'run' (the caller supplies the wall time), account."""
        job.validate(self.machine)
        record = CompletedJob(
            job=job,
            wall_seconds=wall_seconds,
            node_hours=self.machine.node_hours(job.n_nodes, wall_seconds),
        )
        self.completed.append(record)
        return record

    @property
    def total_node_hours(self) -> float:
        return sum(c.node_hours for c in self.completed)
