"""Sharded, memory-mapped on-disk k-mer index artifacts.

The paper's fifth contribution sidesteps metadata-server contention by
replicating the sequence libraries on the parallel filesystem and
capping concurrent searches per copy (§3.2.1).  The in-process analogue
of that bottleneck is the :class:`~repro.msa.kmer.KmerIndex` CSR build:
every process that searches a library pays the full
sort-based construction, so a multiprocess campaign
(PR 6) rebuilds the same index once per worker and library load
dominates small-campaign wall time.

This module makes the frozen CSR layout a *persistent artifact* built
once and shared by every process on the node:

* :func:`build_disk_index` serializes a frozen index into ``.npy``
  shard files partitioned by k-mer code range (postings-balanced
  boundaries), plus a ``manifest.json`` carrying the library
  fingerprint, ``k``, shard boundaries and per-array dtype/shape/sha256.
  The artifact directory is published atomically (unique temp dir +
  rename), mirroring the :mod:`repro.atomicio` discipline.
* :class:`DiskKmerIndex` opens the shards with ``np.memmap`` read-only.
  N worker processes then share one page-cache copy of the postings —
  attach cost is a handful of ``open``/``mmap`` calls, not a rebuild —
  and pickling the index ships only the manifest *path*, never the
  postings (``__getstate__``/``__setstate__``), so the process
  executor's pipe and shared-memory transport stay array-free.
* :func:`ensure_disk_index` is the campaign entry point: open the
  fingerprint-addressed artifact if it exists and verifies, quarantine
  and rebuild it if any shard is corrupt or checksum-mismatched
  (``msa.index.corrupt``, mirroring
  :class:`~repro.runstate.store.ArtifactStore`), build it fresh
  otherwise.

Query results are bit-identical to the in-memory index by
construction: both backends deduplicate query batches with
:func:`~repro.msa.kmer.batched_query_codes`, every code belongs to
exactly one shard, and ``np.bincount`` over the concatenation of the
per-shard hit streams equals the monolithic bincount.

Counters: ``msa.index.rebuild`` (CSR constructions — the disk-index CI
smoke pins this to zero for campaigns attaching a prebuilt artifact),
``msa.index.attach`` (artifact opens), ``msa.index.corrupt``
(quarantined artifacts).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..sequences.alphabet import ALPHABET_SIZE
from ..telemetry.metrics import get_metrics
from .kmer import (
    _LUT_MAX_SPAN,
    KmerIndex,
    KmerQueryAPI,
    _expand_ranges,
    batched_query_codes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .databases import LibrarySuite, SequenceLibrary

__all__ = [
    "DISKINDEX_SCHEMA",
    "DEFAULT_SHARDS",
    "IndexCorruptError",
    "shard_boundaries",
    "build_disk_index",
    "DiskKmerIndex",
    "ensure_disk_index",
    "attach_suite_index",
]

DISKINDEX_SCHEMA = "repro.msa.diskindex/1"

#: Default shard count.  Shards model the paper's partitioned on-disk
#: library files; a handful keeps per-query routing overhead (one
#: boundary searchsorted + one mask per shard) negligible while still
#: exercising the range-partitioned layout.
DEFAULT_SHARDS: int = 4

_MANIFEST = "manifest.json"


class IndexCorruptError(RuntimeError):
    """A disk-index artifact failed structural or checksum validation."""


def shard_boundaries(index: KmerIndex, n_shards: int) -> np.ndarray:
    """Code-range shard boundaries balancing postings across shards.

    Returns ``n_shards + 1`` strictly increasing int64 values with
    ``boundaries[0] == 0`` and ``boundaries[-1] == ALPHABET_SIZE**k``;
    shard ``s`` owns codes in ``[boundaries[s], boundaries[s+1])``.
    Interior cuts sit at the codes where the cumulative posting count
    crosses each ``total/n_shards`` target, so shards carry comparable
    posting mass; when the vocabulary is too concentrated (or empty) to
    supply distinct cuts, the remainder comes from an even split of the
    code span — which is how empty shards legitimately arise.
    """
    index.freeze()
    span = int(ALPHABET_SIZE) ** index.k
    n_shards = max(1, min(int(n_shards), span))
    if n_shards == 1:
        return np.array([0, span], dtype=np.int64)
    codes, offsets = index._codes, index._offsets
    assert codes is not None and offsets is not None
    even = np.round(
        span * np.arange(1, n_shards, dtype=np.float64) / n_shards
    ).astype(np.int64)
    even = np.unique(np.clip(even, 1, span - 1))
    total = int(offsets[-1])
    if codes.size and total:
        targets = total * np.arange(1, n_shards, dtype=np.float64) / n_shards
        at = np.searchsorted(offsets[1:], targets, side="left")
        cuts = codes[np.minimum(at, codes.size - 1)]
        interior = np.unique(np.clip(cuts.astype(np.int64), 1, span - 1))
    else:
        interior = even
    if interior.size < n_shards - 1:
        pool = np.setdiff1d(even, interior)
        interior = np.sort(
            np.concatenate([interior, pool[: n_shards - 1 - interior.size]])
        )
    return np.concatenate(
        [[0], interior[: n_shards - 1], [span]]
    ).astype(np.int64)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_disk_index(
    index: KmerIndex,
    out_dir: str | Path,
    *,
    library_name: str,
    fingerprint: str,
    n_shards: int = DEFAULT_SHARDS,
) -> Path:
    """Serialize a frozen index into a sharded artifact at ``out_dir``.

    The artifact is assembled in a writer-unique sibling temp directory
    and renamed into place, so concurrent builders and a crash mid-build
    leave either a complete artifact or none.  ``out_dir`` must not
    already exist (callers address artifacts by content fingerprint, so
    an existing directory is either reusable or quarantined —
    :func:`ensure_disk_index` decides which).
    """
    out_dir = Path(out_dir)
    if out_dir.exists():
        raise FileExistsError(f"disk-index artifact already at {out_dir}")
    index.freeze()
    codes, offsets, ids = index._codes, index._offsets, index._ids
    assert codes is not None and offsets is not None and ids is not None
    boundaries = shard_boundaries(index, n_shards)
    span = int(boundaries[-1])
    tmp = out_dir.with_name(
        f"{out_dir.name}.build.{os.getpid()}.{threading.get_ident():x}"
    )
    tmp.mkdir(parents=True)
    try:
        arrays: dict[str, np.ndarray] = {
            "counts": np.asarray(index.kmer_counts, dtype=np.float64)
        }
        for s in range(len(boundaries) - 1):
            lo, hi = int(boundaries[s]), int(boundaries[s + 1])
            i0 = int(np.searchsorted(codes, lo, side="left"))
            i1 = int(np.searchsorted(codes, hi, side="left"))
            shard_codes = codes[i0:i1]
            base = int(offsets[i0])
            arrays[f"shard{s:03d}.codes"] = shard_codes
            arrays[f"shard{s:03d}.offsets"] = (
                offsets[i0 : i1 + 1] - base
            ).astype(np.int64)
            arrays[f"shard{s:03d}.ids"] = ids[base : int(offsets[i1])]
            if span <= _LUT_MAX_SPAN:
                # Per-shard dense code->local-position table over
                # [lo, hi): memmapped at open, so every worker shares
                # one page-cache copy of the same direct-gather fast
                # path the in-memory index builds privately.
                lut = np.full(hi - lo, -1, dtype=np.int32)
                lut[shard_codes - lo] = np.arange(
                    shard_codes.size, dtype=np.int32
                )
                arrays[f"shard{s:03d}.lut"] = lut
        manifest: dict = {
            "schema": DISKINDEX_SCHEMA,
            "library": library_name,
            "fingerprint": fingerprint,
            "k": index.k,
            "n_sequences": index.n_sequences,
            "n_shards": len(boundaries) - 1,
            "boundaries": [int(b) for b in boundaries],
            "total_postings": int(offsets[-1]),
            "arrays": {},
        }
        for name, arr in arrays.items():
            file = f"{name}.npy"
            np.save(tmp / file, np.ascontiguousarray(arr))
            manifest["arrays"][name] = {
                "file": file,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "sha256": _sha256_file(tmp / file),
            }
        (tmp / _MANIFEST).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        tmp.rename(out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return out_dir


@dataclass(frozen=True)
class _Shard:
    """One mapped code-range shard: ``[lo, hi)`` of the code space."""

    lo: int
    hi: int
    codes: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray
    lut: np.ndarray | None


class DiskKmerIndex(KmerQueryAPI):
    """Read-only k-mer index over memory-mapped shard files.

    Opened from an artifact directory written by :func:`build_disk_index`.
    Every array is an ``np.memmap`` view of the artifact's ``.npy``
    files, so the postings live in the kernel page cache exactly once no
    matter how many worker processes attach — the process-executor
    analogue of the paper's replicated read-only library copies.

    Queries route codes to shards by boundary range and merge the
    per-shard hit streams through a single ``np.bincount``, which makes
    every result bit-identical to :class:`~repro.msa.kmer.KmerIndex`.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict,
        shards: list[_Shard],
        counts: np.ndarray,
    ) -> None:
        self._path = path
        self._manifest = manifest
        self._shards = shards
        self._counts = counts
        self.k = int(manifest["k"])
        self._n_sequences = int(manifest["n_sequences"])
        self._boundaries = np.asarray(manifest["boundaries"], dtype=np.int64)

    # -- opening -------------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path, verify: bool = False) -> "DiskKmerIndex":
        """Attach to an artifact; ``verify`` re-hashes every shard file.

        Structural validation (schema, boundary shape, per-array
        dtype/shape against the manifest) always runs and costs only the
        ``.npy`` headers; checksum verification reads every byte once
        and is reserved for the first open of a campaign
        (:func:`ensure_disk_index`), not per-worker attach.
        """
        path = Path(path)
        try:
            manifest = json.loads(
                (path / _MANIFEST).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            raise IndexCorruptError(
                f"{path}: unreadable disk-index manifest ({exc})"
            ) from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("schema") != DISKINDEX_SCHEMA
        ):
            raise IndexCorruptError(
                f"{path} is not a {DISKINDEX_SCHEMA} artifact"
            )
        n_shards = int(manifest["n_shards"])
        boundaries = manifest["boundaries"]
        if len(boundaries) != n_shards + 1 or any(
            b >= c for b, c in zip(boundaries, boundaries[1:])
        ):
            raise IndexCorruptError(
                f"{path}: boundaries are not strictly increasing"
            )
        if verify:
            cls._verify_checksums(path, manifest)
        mapped = {
            name: cls._map_array(path, name, spec)
            for name, spec in manifest["arrays"].items()
        }
        shards = []
        for s in range(n_shards):
            shards.append(
                _Shard(
                    lo=int(boundaries[s]),
                    hi=int(boundaries[s + 1]),
                    codes=mapped[f"shard{s:03d}.codes"],
                    offsets=mapped[f"shard{s:03d}.offsets"],
                    ids=mapped[f"shard{s:03d}.ids"],
                    lut=mapped.get(f"shard{s:03d}.lut"),
                )
            )
        index = cls(path, manifest, shards, mapped["counts"])
        get_metrics().counter("msa.index.attach").inc()
        return index

    @staticmethod
    def _map_array(path: Path, name: str, spec: dict) -> np.ndarray:
        file = path / spec["file"]
        try:
            arr = np.load(file, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise IndexCorruptError(
                f"{path}: cannot map {spec['file']} ({exc})"
            ) from exc
        if arr.dtype.str != spec["dtype"] or list(arr.shape) != spec["shape"]:
            raise IndexCorruptError(
                f"{path}: {spec['file']} is {arr.dtype.str}{arr.shape}, "
                f"manifest says {spec['dtype']}{tuple(spec['shape'])}"
            )
        return arr

    @staticmethod
    def _verify_checksums(path: Path, manifest: dict) -> None:
        for name, spec in manifest["arrays"].items():
            file = path / spec["file"]
            try:
                digest = _sha256_file(file)
            except OSError as exc:
                raise IndexCorruptError(
                    f"{path}: missing shard file {spec['file']}"
                ) from exc
            if digest != spec["sha256"]:
                raise IndexCorruptError(
                    f"{path}: checksum mismatch on {spec['file']}"
                )

    # -- pickling ------------------------------------------------------------
    # The pickle ships the manifest path only: a worker re-attaches by
    # mapping the same files (one more page-cache sharer), never by
    # copying postings through a pipe or /dev/shm.
    def __getstate__(self) -> dict:
        return {"path": str(self._path)}

    def __setstate__(self, state: dict) -> None:
        other = DiskKmerIndex.open(Path(state["path"]))
        self.__dict__.update(other.__dict__)

    # -- metadata ------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def fingerprint(self) -> str:
        """Fingerprint of the library this artifact was built from."""
        return str(self._manifest["fingerprint"])

    @property
    def library_name(self) -> str:
        return str(self._manifest["library"])

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries

    @property
    def n_sequences(self) -> int:
        return self._n_sequences

    @property
    def total_postings(self) -> int:
        return int(self._manifest["total_postings"])

    @property
    def nbytes(self) -> int:
        """Artifact size on disk (what N workers share one copy of)."""
        return sum(
            (self._path / spec["file"]).stat().st_size
            for spec in self._manifest["arrays"].values()
        )

    @property
    def kmer_counts(self) -> np.ndarray:
        """Distinct k-mer types per sequence (float64 memmap)."""
        return self._counts

    def kmer_count(self, seq_id: int) -> int:
        return int(self._counts[seq_id])

    # -- queries -------------------------------------------------------------
    def _route(self, codes: np.ndarray) -> np.ndarray:
        """Shard id of every code (codes outside the span clamp to the
        edge shards, where the per-shard lookup reports no match)."""
        if len(self._shards) == 1:
            return np.zeros(codes.size, dtype=np.int64)
        return np.searchsorted(self._boundaries[1:-1], codes, side="right")

    @staticmethod
    def _shard_positions(
        shard: _Shard, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Local vocabulary positions of ``codes`` within one shard.

        Mirrors ``KmerIndex._vocab_positions``: dense LUT gather when
        the shard has one, binary search otherwise; returns
        ``(positions, matched_mask)``.
        """
        if shard.codes.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.zeros(codes.size, dtype=bool),
            )
        if shard.lut is not None:
            rel = codes - shard.lo
            valid = (rel >= 0) & (rel < shard.lut.size)
            if valid.all():
                pos = shard.lut[rel]
            else:
                pos = np.full(codes.size, -1, dtype=np.int32)
                pos[valid] = shard.lut[rel[valid]]
            matched = pos >= 0
            return pos[matched], matched
        pos = np.minimum(
            np.searchsorted(shard.codes, codes), shard.codes.size - 1
        )
        matched = shard.codes[pos] == codes
        return pos[matched], matched

    def _shard_hits(
        self, shard: _Shard, codes: np.ndarray, query_of_code: np.ndarray
    ) -> np.ndarray | None:
        """Flat ``query_id * n_seq + seq_id`` hit stream for one shard."""
        pos, matched = self._shard_positions(shard, codes)
        if pos.size == 0:
            return None
        starts = shard.offsets[pos]
        lengths = shard.offsets[pos + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return None
        hit_ids = shard.ids[_expand_ranges(starts, lengths, total)]
        hit_query = np.repeat(query_of_code[matched], lengths)
        return hit_query * np.int64(self._n_sequences) + hit_ids

    def count_hits_codes(self, codes: np.ndarray) -> np.ndarray:
        """:meth:`count_hits` for a precomputed *distinct* code array."""
        codes = np.asarray(codes, dtype=np.int64)
        n_seq = self._n_sequences
        if codes.size == 0 or n_seq == 0:
            return np.zeros(n_seq, dtype=np.int64)
        counts = self.count_hits_many([codes], precomputed_codes=True)
        return counts.reshape(n_seq)

    def count_hits_many(
        self, queries: list[np.ndarray], precomputed_codes: bool = False
    ) -> np.ndarray:
        """Batched counts, one ``(n_queries, n_sequences)`` matrix.

        Routes the deduplicated code batch to shards by code range and
        bincounts the concatenated per-shard hit streams — the same
        multiset of ``(query, sequence)`` increments the monolithic
        index produces, so the result is bit-identical.
        """
        n_seq = self._n_sequences
        n_q = len(queries)
        if n_q == 0:
            return np.zeros((0, n_seq), dtype=np.int64)
        all_codes, query_of_code = batched_query_codes(
            queries, self.k, precomputed_codes=precomputed_codes
        )
        if all_codes.size == 0 or n_seq == 0:
            return np.zeros((n_q, n_seq), dtype=np.int64)
        shard_of = self._route(all_codes)
        flats = []
        for s, shard in enumerate(self._shards):
            mask = shard_of == s
            if not mask.any():
                continue
            flat = self._shard_hits(
                shard, all_codes[mask], query_of_code[mask]
            )
            if flat is not None:
                flats.append(flat)
        if not flats:
            return np.zeros((n_q, n_seq), dtype=np.int64)
        flat = np.bincount(np.concatenate(flats), minlength=n_q * n_seq)
        return flat.reshape(n_q, n_seq).astype(np.int64, copy=False)


# -- campaign integration ----------------------------------------------------
def _artifact_dir(root: Path, library: "SequenceLibrary") -> Path:
    """Fingerprint-addressed artifact location for one library.

    The directory name carries a fingerprint prefix so artifacts for
    different library contents never collide; the manifest's full
    fingerprint is still the authoritative match check.
    """
    return root / f"{library.name}.{library.fingerprint()[:12]}"


def _quarantine(target: Path) -> Path:
    """Move a bad artifact aside (kept for forensics, like the store)."""
    for i in range(10_000):
        dest = target.with_name(f"{target.name}.corrupt{i}")
        if not dest.exists():
            target.rename(dest)
            return dest
    raise RuntimeError(f"too many quarantined artifacts beside {target}")


def ensure_disk_index(
    library: "SequenceLibrary",
    root: str | Path,
    *,
    n_shards: int = DEFAULT_SHARDS,
    verify: bool = True,
) -> DiskKmerIndex:
    """Open (or build) the disk-index artifact for one library.

    The happy path — a prebuilt artifact whose fingerprint matches —
    never constructs an in-memory index, which is what keeps
    ``msa.index.rebuild`` at zero for campaigns run with a prebuilt
    ``--index-dir``.  A corrupt, checksum-mismatched or
    wrong-fingerprint artifact is quarantined beside its directory
    (``msa.index.corrupt``) and rebuilt from the library.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    target = _artifact_dir(root, library)
    if target.exists():
        try:
            disk = DiskKmerIndex.open(target, verify=verify)
            if disk.fingerprint != library.fingerprint():
                raise IndexCorruptError(
                    f"{target}: artifact fingerprint {disk.fingerprint[:12]} "
                    f"does not match library {library.fingerprint()[:12]}"
                )
            return disk
        except IndexCorruptError:
            _quarantine(target)
            get_metrics().counter("msa.index.corrupt").inc()
    # Rebuild needs real CSR arrays.  ``library.index`` is usually the
    # lazily built in-memory index, but after a quarantine it may be a
    # stale DiskKmerIndex attached earlier — construct fresh then.
    mem = library.index
    if not isinstance(mem, KmerIndex):
        mem = library._build_index()
    build_disk_index(
        mem,
        target,
        library_name=library.name,
        fingerprint=library.fingerprint(),
        n_shards=n_shards,
    )
    return DiskKmerIndex.open(target)


def attach_suite_index(
    suite: "LibrarySuite",
    root: str | Path,
    *,
    n_shards: int = DEFAULT_SHARDS,
    verify: bool = True,
) -> list[DiskKmerIndex]:
    """Attach every library in a suite to its disk-index artifact.

    After this, ``library.index`` is the memory-mapped
    :class:`DiskKmerIndex` for all four libraries: forked workers
    inherit the mappings copy-on-write and spawned/pickled workers
    re-attach by path, so no process ever rebuilds or receives the
    postings.
    """
    attached = []
    for lib in suite.libraries:
        disk = ensure_disk_index(lib, root, n_shards=n_shards, verify=verify)
        lib.attach_index(disk)
        attached.append(disk)
    return attached
