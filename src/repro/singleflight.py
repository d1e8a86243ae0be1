"""Single-flight lazy builds: one builder per key, everyone else waits.

Lazily built, process-shared state (hidden natives, family folds, k-mer
indexes) is expensive and deterministic, so two threads that miss the
same key at once should not both build it — the loser's work is thrown
away and, under the GIL, it slows the winner down while it runs.  Callers
keep their own lock-free hit path (one dict read) and come here only on
a miss:

* the first caller of a key builds it and publishes ``cache[key]``;
* callers of the *same* key block until that build ends, then re-read
  the cache;
* callers of *different* keys build concurrently — the table lock is
  held only to look a key up, never while a build runs;
* a build that raises wakes its waiters and publishes nothing, so the
  next caller (one of the waiters, if any) builds again;
* the in-flight entry is dropped when the build ends: the table holds
  only keys being built right now.

A build may call into another table (a native build asks for its family
fold); waits then form no cycle as long as every caller nests the tables
in the same order (DESIGN §11, "Single-flight lazy state").
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Hashable, MutableMapping, TypeVar

from .telemetry.metrics import get_metrics

__all__ = ["SingleFlight"]

T = TypeVar("T")

#: Every live table, so a forked child can drop state owned by threads
#: that do not exist in it (a held lock, an event nobody will set).
_LIVE: "weakref.WeakSet[SingleFlight]" = weakref.WeakSet()


class SingleFlight:
    """In-flight table for one lazily filled cache.

    ``coalesced`` names the counter bumped once per caller that waited
    on somebody else's build instead of building itself.
    """

    def __init__(self, coalesced: str) -> None:
        self.coalesced = coalesced
        self._reset()
        _LIVE.add(self)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, threading.Event] = {}

    def __reduce__(self):
        # Owners ride to spawned workers as initargs: ship the name,
        # never the lock or another process's in-flight builds.
        return (SingleFlight, (self.coalesced,))

    def get_or_build(
        self,
        cache: MutableMapping[Hashable, T],
        key: Hashable,
        build: Callable[[], T],
    ) -> T:
        """``cache[key]``, built by exactly one of the callers missing it.

        A cached ``None`` counts as a miss.  ``build`` may publish
        companion entries in other caches before it returns; they are
        then visible to everyone who sees ``cache[key]``.
        """
        waited = False
        while True:
            with self._lock:
                # Re-read under the lock: the build the caller missed
                # may have been published and retired since.
                value = cache.get(key)
                if value is not None:
                    return value
                done = self._inflight.get(key)
                leader = done is None
                if leader:
                    done = self._inflight[key] = threading.Event()
            if leader:
                try:
                    value = cache[key] = build()
                    return value
                finally:
                    with self._lock:
                        del self._inflight[key]
                    done.set()
            if not waited:
                waited = True
                get_metrics().counter(self.coalesced).inc()
            done.wait()


def _reset_after_fork() -> None:
    for flight in list(_LIVE):
        flight._reset()


os.register_at_fork(after_in_child=_reset_after_fork)
