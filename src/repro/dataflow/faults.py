"""Fault tolerance for the dataflow engine: retries and injection.

The paper's deployment survived per-task OOM failures at 6000-worker
scale by re-routing oversized proteins to Summit's 2 TB high-memory
nodes (§3.3).  This module supplies the policy objects the scheduling
core applies:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  escalate-to-highmem on OOM-class errors, in the spirit of pilot-job
  fault handling (RADICAL-Pilot) and adaptive multi-stage campaigns
  (IMPRESS);
* :func:`is_oom_error` — the error classifier that decides whether a
  failed attempt should be re-routed to a high-memory worker;
* :class:`FaultInjector` — deterministic, seeded failure injection so
  the retry path is testable and benchable without a real memory wall;
* :func:`straggler_duration_fn` — seeded straggler injection for the
  simulated executor's duration model.

Every injector decision is a pure function of (seed, task key), so runs
are bit-reproducible and the injected set can be enumerated up front.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .scheduler import TaskSpec, WorkerInfo

__all__ = [
    "RetryPolicy",
    "FaultInjector",
    "is_oom_error",
    "straggler_duration_fn",
]

#: Error strings that mark a memory-class failure: raised exception
#: names (``OutOfMemoryError: ...``, ``MemoryError: ...``) and the
#: bare ``OOM`` marker the injectors and logs use.
_OOM_PATTERN = re.compile(
    r"out[-_ ]?of[-_ ]?memory|memoryerror|\boom\b", re.IGNORECASE
)


def is_oom_error(error: str) -> bool:
    """True when an error string denotes an OOM-class failure."""
    return bool(_OOM_PATTERN.search(error))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with backoff and highmem escalation.

    ``max_attempts`` counts *total* attempts (1 = no retries).  The
    ``attempt``-th failure waits ``backoff_seconds * factor**(attempt-1)``
    before its successor is resubmitted — simulated seconds under the
    simulated driver, wall seconds under the real ones.  When
    ``escalate_on_oom`` is set, an OOM-class failure re-routes the next
    attempt to a high-memory worker (the paper's §3.3 recovery path);
    other failures retry in place.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    escalate_on_oom: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0 or self.backoff_factor < 0:
            raise ValueError("backoff parameters must be non-negative")

    def should_retry(self, attempt: int) -> bool:
        """May a task that just failed its ``attempt``-th try run again?"""
        return attempt < self.max_attempts

    def backoff_for(self, attempt: int) -> float:
        """Delay before resubmitting after the ``attempt``-th failure."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)

    def next_task(self, task: TaskSpec, error: str) -> TaskSpec:
        """The respawned attempt, escalated to highmem on OOM errors."""
        escalate = self.escalate_on_oom and is_oom_error(error)
        return replace(
            task,
            attempt=task.attempt + 1,
            requires_highmem=task.requires_highmem or escalate,
        )


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic seeded OOM injection, usable as a ``failure_fn``.

    A task fails iff its (seed, key) hash lands below ``rate`` — the
    same keys fail on every run, so benches can enumerate the injected
    set with :meth:`injected_keys` and assert exact failure counts.
    With ``spare_highmem`` (the default) injected failures model memory
    pressure: the task succeeds when it lands on a high-memory worker,
    which is what makes escalate-on-OOM retries recover it.
    """

    rate: float
    seed: int = 0
    spare_highmem: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def _roll(self, key: str) -> float:
        digest = hashlib.sha256(f"fault/{self.seed}/{key}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def injects(self, key: str) -> bool:
        """Does this injector fail the task with the given key?"""
        return self._roll(key) < self.rate

    def injected_keys(self, tasks: Iterable[TaskSpec]) -> list[str]:
        """The exact keys this injector will fail, in task order."""
        return [t.key for t in tasks if self.injects(t.key)]

    def __call__(self, task: TaskSpec, worker: WorkerInfo) -> str | None:
        if not self.injects(task.key):
            return None
        if self.spare_highmem and worker.highmem:
            return None
        return f"OOM (injected): {task.key} exceeded worker memory"


def straggler_duration_fn(
    duration_fn: Callable[[TaskSpec], float],
    rate: float,
    slowdown: float = 10.0,
    seed: int = 0,
) -> Callable[[TaskSpec], float]:
    """Wrap a duration model with seeded straggler injection.

    A deterministic ``rate`` fraction of tasks run ``slowdown``x longer
    — the slow-worker/IO-stall case the greedy descending sort has to
    absorb.  Purely a duration effect; stragglers still succeed.
    """
    if slowdown < 1.0:
        raise ValueError("slowdown must be >= 1")
    injector = FaultInjector(rate=rate, seed=seed)

    def slowed(task: TaskSpec) -> float:
        base = duration_fn(task)
        return base * slowdown if injector.injects(task.key) else base

    return slowed
