"""Content-addressed caching for the feature-generation stage.

AF_Cache-style observation: in high-throughput AlphaFold deployments
the CPU feature stage (MSA search) is recomputed far more often than it
changes — benchmark sessions, restarted campaigns, and shared targets
all re-derive identical features.  A content-addressed cache removes
that recomputation entirely: the key is a hash of

* the encoded query sequence (not the record id — two records with the
  same sequence share features),
* the library suite fingerprint (any library change invalidates), and
* the :class:`~repro.msa.features.FeatureGenConfig` knobs.

The cache is two-level: a process-local dict, plus an optional on-disk
directory of pickled bundles so features survive across sessions (the
benchmark suite points it at a shared directory).  Threads may hit one
cache concurrently; all bookkeeping is lock-protected.  It attaches
through :func:`~repro.msa.features.generate_features`'s ``cache=``.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .atomicio import atomic_write_bytes
from .telemetry.metrics import get_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .msa.databases import LibrarySuite
    from .msa.features import FeatureBundle, FeatureGenConfig
    from .sequences.generator import ProteinRecord

__all__ = ["FeatureCache"]


class FeatureCache:
    """Two-level (memory + optional disk) feature-bundle cache.

    ``directory=None`` keeps the cache purely in memory.  With a
    directory, every stored bundle is also pickled to
    ``<directory>/<key>.pkl`` and lookups fall back to disk on a memory
    miss — which is what lets separate benchmark sessions share one
    feature set.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self._memory: dict[str, "FeatureBundle"] = {}
        self._dir = Path(directory) if directory is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._bind_counters()

    def _bind_counters(self) -> None:
        """Resolve metric handles once against the active registry.

        ``get`` is the hottest cache path; re-resolving three counters
        per lookup (a dict hit under the registry lock, each) is pure
        overhead.  The registry identity is re-checked per lookup so a
        ``use_metrics``/``set_metrics`` swap mid-session still lands
        counts on the newly active registry.
        """
        self._registry = get_metrics()
        self._hits_counter = self._registry.counter("feature.cache.hits")
        self._misses_counter = self._registry.counter("feature.cache.misses")
        self._corrupt_counter = self._registry.counter("feature.cache.corrupt")

    # -- Keys ----------------------------------------------------------------
    def key_for(
        self,
        record: "ProteinRecord",
        suite: "LibrarySuite",
        config: "FeatureGenConfig",
    ) -> str:
        """Content-addressed key: sequence + suite + config.

        The suite fingerprint is memoised on the suite itself (see
        :meth:`LibrarySuite.fingerprint`), so one campaign pays the
        content hash once.  An earlier cache-side memo keyed by
        ``id(suite)`` silently inherited a dead suite's fingerprint
        whenever CPython reused the id — wrong key, wrong features.

        Keys do not depend on where the index lives: the fingerprint
        hashes the library content plus the k-mer width, never the index
        arrays, so a campaign that memory-maps its indexes from
        disk artifacts (``--index-dir``) hits the same cache entries as
        one that builds CSR indexes in-process — both run the same
        :class:`~repro.msa.kmer.KmerIndex` queries over the same arrays.
        """
        suite_fp = suite.fingerprint()
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(record.encoded).tobytes())
        h.update(suite_fp.encode())
        h.update(
            f"{config.min_containment}|{config.max_hits_per_library}"
            f"|{config.verify_top}|{config.template_min_identity}".encode()
        )
        return h.hexdigest()

    # -- Lookup / store ------------------------------------------------------
    def get(
        self, key: str, record: "ProteinRecord | None" = None
    ) -> "FeatureBundle | None":
        """Cached bundle for ``key``, or ``None`` (counted as a miss).

        When ``record`` is given, the returned bundle carries *that*
        record: features are keyed by sequence content, so a hit from a
        different record with the same sequence must not leak the
        original record's identity.
        """
        bundle = None
        corrupt = False
        with self._lock:
            bundle = self._memory.get(key)
        if bundle is None and self._dir is not None:
            path = self._dir / f"{key}.pkl"
            if path.exists():
                try:
                    bundle = pickle.loads(path.read_bytes())
                except (pickle.UnpicklingError, EOFError, OSError, ValueError):
                    # Corrupt entry: a miss, but quarantine it so the
                    # slot self-repairs on the next put instead of
                    # re-failing every lookup until then.
                    bundle = None
                    corrupt = True
                    try:
                        path.unlink(missing_ok=True)
                    except OSError:
                        pass
                else:
                    with self._lock:
                        self._memory[key] = bundle
        # Every lookup lands on the active metrics registry — the one
        # count stage results and exports read.  All counters were
        # created at bind time, so an all-miss (or all-hit) run still
        # exports the other one as an explicit zero.
        if get_metrics() is not self._registry:
            self._bind_counters()
        if bundle is None:
            self._misses_counter.inc()
        else:
            self._hits_counter.inc()
        if corrupt:
            self._corrupt_counter.inc()
        if bundle is not None and record is not None:
            bundle = replace(bundle, record=record)
        return bundle

    def put(self, key: str, bundle: "FeatureBundle") -> None:
        """Store a bundle under its key (memory, and disk if enabled)."""
        with self._lock:
            self._memory[key] = bundle
        if self._dir is not None:
            # Unique-temp + atomic rename: concurrent readers never see
            # partials, and concurrent writers of one key each get their
            # own scratch path (a shared <key>.pkl.tmp let two puts
            # interleave write/replace and publish a torn pickle).
            atomic_write_bytes(self._dir / f"{key}.pkl", pickle.dumps(bundle))

    # -- Introspection -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory level (disk entries, if any, survive)."""
        with self._lock:
            self._memory.clear()
