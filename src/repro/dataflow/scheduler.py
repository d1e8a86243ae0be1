"""Dataflow scheduler: queue, workers, greedy assignment, dependencies.

The heart of the Dask deployment in §3.3: a scheduler holds a task
queue; workers (one per GPU) pull the next task the moment they finish
the previous one.  No task placement decisions beyond FIFO — the load
balancing comes entirely from the submission *order* (the paper's
descending-length sort) plus the dataflow execution model.

Two hard placement constraints extend plain FIFO:

* ``requires_highmem`` tasks only dispatch to 2 TB workers (§3.3's
  oversized-protein routing), and
* ``pool`` routes tasks to a named worker pool — the ParaFold-shaped
  CPU/GPU split of a heterogeneous machine (feature/relax tasks on a
  CPU pool, inference on a GPU pool).

Within those constraints dispatch is locality-aware and
work-conserving: a task whose dependencies ran on a worker that may
also run *it* waits in that worker's local lane, so a worker walks a
whole dependency chain depth-first with its caches warm; a worker with
nothing local takes the shared FIFO, and one with nothing there steals
from a peer's local lane rather than idle.

Tasks may also declare ``depends_on`` edges.  A task with unmet
dependencies is *held* (never offered to a worker) until every
predecessor completes; the scheduling core
(:mod:`repro.dataflow.core`) drives this with
:meth:`TaskQueue.mark_complete` / :meth:`TaskQueue.mark_failed`.  A
failed predecessor poisons its downstream chain — dependents are
surfaced through :meth:`TaskQueue.reap_poisoned` so they are recorded
as skipped, never silently dropped and never a hang.

This module is clock- and execution-agnostic: it holds no time but the
optional queue-pressure stamps, and runs nothing.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..telemetry.metrics import get_metrics

__all__ = ["TaskSpec", "TaskRecord", "WorkerInfo", "TaskQueue", "eligible"]


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: a key plus an optional payload.

    ``size_hint`` is what the greedy sort orders by (sequence length in
    the paper's workflows).  ``requires_highmem`` marks tasks that only
    fit a 2 TB high-memory node (§3.3); the queue never hands them to a
    standard worker.  ``attempt`` counts executions of this key — retry
    machinery respawns failed tasks with the counter bumped.

    ``depends_on`` names predecessor task keys: the queue holds this
    task until every one of them resolves.  ``dep_mode`` picks the
    readiness rule — ``"all"`` (default) runs only if every dependency
    *succeeded* and is poisoned by the first failure; ``"resolved"``
    runs once every dependency has terminally resolved either way, and
    is poisoned only when *all* of them failed (the relax stage's rule:
    one surviving model prediction is enough to relax).  ``pool`` names
    the worker pool this task must run on (``""`` = any).
    """

    key: str
    payload: Any = None
    size_hint: float = 0.0
    requires_highmem: bool = False
    attempt: int = 1
    depends_on: tuple[str, ...] = ()
    pool: str = ""
    dep_mode: str = "all"


@dataclass(frozen=True)
class WorkerInfo:
    """A registered worker: one GPU slot on some node.

    ``pool`` names the heterogeneous pool the worker belongs to
    (``"cpu"``/``"gpu"`` on the simulated campaign machine); the empty
    string is the universal pool — such workers take tasks from any
    pool, and pool-less tasks run anywhere.
    """

    worker_id: str
    node_id: int
    gpu_id: int
    highmem: bool = False
    pool: str = ""

    @property
    def short_id(self) -> str:
        """Shortened UUID-style label, as in the paper's Fig. 2 rows."""
        return self.worker_id[-6:]


@dataclass(frozen=True)
class TaskRecord:
    """Completion record — one row of the workflow's statistics CSV.

    With retries enabled one task key produces several records, one per
    attempt; ``attempt`` disambiguates them (a recovered OOM shows up as
    a failed attempt 1 followed by an ok attempt 2 on a highmem worker).
    """

    key: str
    worker_id: str
    start: float
    end: float
    ok: bool = True
    error: str = ""
    attempt: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


def eligible(worker: WorkerInfo, pool: str, needs_highmem: bool) -> bool:
    """May ``worker`` run a task of this class?  A highmem task needs a
    high-memory worker; a pooled task needs a worker of its pool or a
    pool-less one."""
    if needs_highmem and not worker.highmem:
        return False
    if pool and worker.pool and pool != worker.pool:
        return False
    return True


#: The three steps of :meth:`TaskQueue.pop`, in service order.
_OWN, _SHARED, _STEAL = 0, 1, 2


class _Blocked:
    """A submitted task waiting on unresolved dependencies."""

    __slots__ = ("spec", "pending", "failed")

    def __init__(
        self, spec: TaskSpec, pending: set[str], failed: set[str]
    ) -> None:
        self.spec = spec
        self.pending = pending
        self.failed = failed


@dataclass
class TaskQueue:
    """FIFO task queue with greedy ordering, placement lanes and deps.

    ``sort_descending()`` implements the paper's §3.3 step 3c: targets
    sorted in descending size so long tasks start early and short tasks
    fill the tail gaps.

    Ready tasks live on deques keyed ``(pool, requires_highmem, owner)``.
    ``owner == ""`` is a *shared* lane, one per eligibility class;
    otherwise the lane is *local* to the worker with that id.  A task
    enters the local lane of the worker that most recently completed
    one of its dependencies (:meth:`mark_complete` names the worker) if
    that worker is eligible for it, else its class's shared lane — so
    maps without ``depends_on``, and chains whose stages need disjoint
    pools, are plain FIFO.  :meth:`pop` looks only at lane heads — own
    local lanes, then shared lanes, then peers' local lanes (a steal) —
    so it costs O(lanes + workers) for a fixed set of eligibility
    classes, never a scan of the ready set; drained local lanes are
    dropped.  A monotone submission counter orders tasks within each of
    those three steps and stitches the lanes back into one global FIFO
    wherever order across lanes matters (:attr:`tasks`, reordering, the
    ``pop(None)`` drain).

    Tasks with unmet ``depends_on`` edges are held in a blocked set and
    promoted into their lane the moment the last dependency resolves
    (:meth:`mark_complete`).  A terminally failed dependency
    (:meth:`mark_failed`) poisons dependents per their ``dep_mode``;
    poisoned tasks — including transitively poisoned descendants — are
    collected for the caller via :meth:`reap_poisoned` so every key
    still produces a record.

    ``finalize`` is an optional hook applied to a task as it enters a
    lane (i.e. once its dependencies are known): the streaming pipeline
    uses it to *raise* ``requires_highmem`` once the feature result
    reveals the MSA depth.  It must be monotone — never clear a flag a
    retry escalation set.

    With ``observe_pressure`` set (the real drivers' queues; not the
    simulated one's), each submit stamps an enqueue time and
    each dispatch samples the ``dataflow.queue.depth`` gauge and the
    ``dataflow.task.wait_seconds`` histogram, making queue pressure
    under the streaming scheduler visible in ``repro report``.
    """

    _lanes: dict[
        tuple[str, bool, str], deque[tuple[int, float, TaskSpec]]
    ] = field(default_factory=dict)
    _seq: int = 0
    # Completed key -> (completion order, worker that ran it).
    _ran_on: dict[str, tuple[int, WorkerInfo]] = field(default_factory=dict)
    _blocked: dict[str, _Blocked] = field(default_factory=dict)
    _waiters: dict[str, list[str]] = field(default_factory=dict)
    _done: set[str] = field(default_factory=set)
    _failed: set[str] = field(default_factory=set)
    _poisoned: list[tuple[TaskSpec, tuple[str, ...]]] = field(
        default_factory=list
    )
    finalize: Callable[[TaskSpec], TaskSpec] | None = field(
        default=None, repr=False, compare=False
    )
    observe_pressure: bool = False
    # Dispatch instruments, re-resolved only when the active registry
    # changes so the hot pop path pays one identity check, not a
    # registry lookup, per dispatch.
    _dispatch_registry: Any = field(default=None, repr=False, compare=False)
    _dispatch_counters: Any = field(default=None, repr=False, compare=False)

    def _instruments(self):
        registry = get_metrics()
        if registry is not self._dispatch_registry:
            self._dispatch_counters = (
                registry.counter("dataflow.dispatch.standard"),
                registry.counter("dataflow.dispatch.highmem"),
                registry.counter("dataflow.dispatch.local"),
                registry.counter("dataflow.dispatch.stolen"),
                registry.gauge("dataflow.queue.depth"),
                registry.histogram("dataflow.task.wait_seconds"),
            )
            self._dispatch_registry = registry
        return self._dispatch_counters

    def _count_dispatch(
        self, task: TaskSpec, enqueued_at: float, step: int
    ) -> TaskSpec:
        standard, highmem, local, stolen, depth, wait = self._instruments()
        (highmem if task.requires_highmem else standard).inc()
        if step == _OWN:
            local.inc()
        elif step == _STEAL:
            stolen.inc()
        if self.observe_pressure:
            depth.set(len(self))
            wait.observe(max(0.0, time.monotonic() - enqueued_at))
        return task

    @property
    def tasks(self) -> list[TaskSpec]:
        """Queued (ready) tasks in global FIFO order (a snapshot).

        Blocked tasks are not included — they are not dispatchable yet.
        """
        return [task for task, _ in self._owned_tasks()]

    def _owned_tasks(self) -> list[tuple[TaskSpec, str]]:
        """Queued ``(task, lane owner)`` pairs in global FIFO order."""
        entries = [
            (seq, task, lane_key[2])
            for lane_key, lane in self._lanes.items()
            for seq, _, task in lane
        ]
        entries.sort(key=lambda e: e[0])
        return [(task, owner) for _, task, owner in entries]

    # -- submission ----------------------------------------------------------
    def _home_of(self, task: TaskSpec) -> str:
        """Id of the worker whose local lane ``task`` belongs in, or ``""``.

        The worker that most recently completed one of the task's
        dependencies, among those eligible to run the task itself.
        """
        home: tuple[int, WorkerInfo] | None = None
        for dep in task.depends_on:
            ran = self._ran_on.get(dep)
            if (
                ran is not None
                and (home is None or ran[0] > home[0])
                and eligible(ran[1], task.pool, task.requires_highmem)
            ):
                home = ran
        return home[1].worker_id if home is not None else ""

    def _enqueue(self, task: TaskSpec, owner: str | None = None) -> None:
        """Append ``task`` to its lane.

        ``owner`` is given only when an already-queued task re-enters
        its lane on a reorder: its dependencies were checked (and
        finalize applied) on first submission.
        """
        if owner is None:
            if self.finalize is not None:
                task = self.finalize(task)
            owner = self._home_of(task)
        lane_key = (task.pool, task.requires_highmem, owner)
        lane = self._lanes.get(lane_key)
        if lane is None:
            lane = self._lanes[lane_key] = deque()
        enqueued_at = time.monotonic() if self.observe_pressure else 0.0
        lane.append((self._seq, enqueued_at, task))
        self._seq += 1

    def submit(self, task: TaskSpec) -> None:
        deps = task.depends_on
        if deps:
            pending = {
                d for d in deps if d not in self._done and d not in self._failed
            }
            failed = {d for d in deps if d in self._failed}
            if pending:
                self._blocked[task.key] = _Blocked(task, pending, failed)
                for dep in pending:
                    self._waiters.setdefault(dep, []).append(task.key)
                return
            if failed and (
                task.dep_mode == "all" or len(failed) == len(deps)
            ):
                self._poison(task, failed)
                return
        self._enqueue(task)

    def submit_many(self, tasks: list[TaskSpec]) -> None:
        for task in tasks:
            self.submit(task)

    # -- dependency resolution -----------------------------------------------
    def satisfy(self, key: str) -> None:
        """Mark ``key`` complete without a task having run (resume path)."""
        self._done.add(key)

    def satisfy_many(self, keys: Iterable[str]) -> None:
        self._done.update(keys)

    def _poison(self, task: TaskSpec, failed_deps: set[str]) -> int:
        self._poisoned.append((task, tuple(sorted(failed_deps))))
        return self._mark(task.key, failed=True)

    def _mark(
        self, key: str, failed: bool, worker: WorkerInfo | None = None
    ) -> int:
        (self._failed if failed else self._done).add(key)
        if worker is not None:
            self._ran_on[key] = (len(self._ran_on), worker)
        promoted = 0
        for waiter_key in self._waiters.pop(key, ()):
            blocked = self._blocked.get(waiter_key)
            if blocked is None:
                continue  # already promoted/poisoned via another dep
            blocked.pending.discard(key)
            if failed:
                blocked.failed.add(key)
            spec = blocked.spec
            if failed and spec.dep_mode == "all":
                del self._blocked[waiter_key]
                promoted += self._poison(spec, blocked.failed)
                continue
            if not blocked.pending:
                del self._blocked[waiter_key]
                if blocked.failed and len(blocked.failed) == len(
                    spec.depends_on
                ):
                    promoted += self._poison(spec, blocked.failed)
                else:
                    self._enqueue(spec)
                    promoted += 1
        return promoted

    def mark_complete(self, key: str, worker: WorkerInfo | None = None) -> int:
        """A task succeeded: promote dependents whose edges all resolved.

        ``worker`` is the worker that ran it — where its outputs (and
        whatever per-worker caches it warmed) live; dependents that
        worker may run are promoted into its local lane.  Returns the
        number of tasks promoted into a lane (callers use a non-zero
        return to wake idle workers).
        """
        return self._mark(key, failed=False, worker=worker)

    def mark_failed(self, key: str) -> int:
        """A task terminally failed: poison/promote dependents.

        ``dep_mode="all"`` dependents are poisoned immediately (and
        their own keys marked failed, cascading down the chain);
        ``dep_mode="resolved"`` dependents are promoted once every edge
        has resolved unless *every* edge failed.  Returns the number of
        tasks promoted.
        """
        return self._mark(key, failed=True)

    def reap_poisoned(self) -> list[tuple[TaskSpec, tuple[str, ...]]]:
        """Drain tasks poisoned by failed dependencies.

        Each entry is ``(spec, failed_dependency_keys)``.  The caller
        records them (``SkippedDependency`` failures) so no key ever
        vanishes from the record stream.
        """
        poisoned, self._poisoned = self._poisoned, []
        return poisoned

    def drain_blocked(self) -> list[tuple[TaskSpec, tuple[str, ...]]]:
        """Remove and return tasks whose dependencies never resolved.

        Each entry is ``(spec, unresolved_dependency_keys)``.  Only
        reachable at end of run when a dependency was never submitted.
        """
        drained = [
            (b.spec, tuple(sorted(b.pending)))
            for b in self._blocked.values()
        ]
        self._blocked.clear()
        self._waiters.clear()
        return drained

    # -- ordering ------------------------------------------------------------
    def _reorder(self, ordered: list[tuple[TaskSpec, str]]) -> None:
        self._lanes.clear()
        self._seq = 0
        for task, owner in ordered:
            self._enqueue(task, owner)

    def sort_descending(self) -> None:
        """Greedy load balancing: largest size hints first.

        Orders the currently *ready* tasks; blocked tasks enqueue in
        dependency-resolution order when promoted.
        """
        self._reorder(
            sorted(
                self._owned_tasks(),
                key=lambda e: (-e[0].size_hint, e[0].key),
            )
        )

    # -- dispatch ------------------------------------------------------------
    def pop(self, worker: WorkerInfo | None = None) -> TaskSpec | None:
        """Next task this worker may run.

        Eligibility is a hard constraint: ``requires_highmem`` tasks
        need a high-memory worker; a task with a ``pool`` needs a worker
        of that pool (or a pool-less worker).  Among eligible lanes the
        worker is served, oldest head first within each step, from

        1. its own local lanes (tasks whose inputs it produced),
        2. the shared lanes (plain FIFO — the only step there is for
           maps without dependencies), then
        3. other workers' local lanes: a steal, which keeps an idle
           worker busy at the tail and keeps a lost worker's lane alive.

        The ``worker=None`` form takes the oldest task overall (the
        end-of-run drain).  Returns ``None`` when no eligible task is
        queued — the queue itself may be non-empty.
        """
        best_key = None
        best_rank = (0, 0)
        for lane_key, lane in self._lanes.items():
            if not lane:
                continue
            pool, needs_highmem, owner = lane_key
            if worker is None:
                step = _SHARED
            elif not eligible(worker, pool, needs_highmem):
                continue
            elif not owner:
                step = _SHARED
            else:
                step = _OWN if owner == worker.worker_id else _STEAL
            rank = (step, lane[0][0])
            if best_key is None or rank < best_rank:
                best_key, best_rank = lane_key, rank
        if best_key is None:
            return None
        lane = self._lanes[best_key]
        _, enqueued_at, task = lane.popleft()
        if not lane and best_key[2]:
            del self._lanes[best_key]
        return self._count_dispatch(task, enqueued_at, best_rank[0])

    def schedulable_for(self, workers: list[WorkerInfo]) -> bool:
        """Is any queued task eligible for any of these workers?

        The core's idle-exit check: with nothing in flight and nothing
        deferred, the run is only over once no queued task could ever
        be taken by *any* live worker — otherwise a chain promoted by a
        peer's completion could strand.  Local lanes count whoever owns
        them: any eligible worker may steal.
        """
        return any(
            lane and any(eligible(w, pool, highmem) for w in workers)
            for (pool, highmem, _), lane in self._lanes.items()
        )

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return any(self._lanes.values())


def make_workers(
    n_nodes: int,
    workers_per_node: int,
    highmem_nodes: int = 0,
    pool: str = "",
) -> list[WorkerInfo]:
    """Spawn worker descriptors: one per GPU per node (§3.3 step 2).

    The last ``highmem_nodes`` nodes are flagged high-memory (the
    paper routed oversized proteins there).  ``pool`` labels every
    created worker with a pool name — the name also feeds the id hash,
    so concatenating a CPU pool and a GPU pool never collides ids.
    Worker ids mimic Dask's UUID-suffixed names.
    """
    import hashlib

    workers = []
    for node in range(n_nodes):
        for gpu in range(workers_per_node):
            seed = (
                f"worker/{pool}/{node}/{gpu}" if pool else f"worker/{node}/{gpu}"
            )
            digest = hashlib.sha256(seed.encode()).hexdigest()
            workers.append(
                WorkerInfo(
                    worker_id=f"tcp-worker-{digest[:12]}",
                    node_id=node,
                    gpu_id=gpu,
                    highmem=node >= n_nodes - highmem_nodes,
                    pool=pool,
                )
            )
    return workers
