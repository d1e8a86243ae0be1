"""Memory-mapped on-disk k-mer index artifacts.

The paper's fifth contribution sidesteps metadata-server contention by
replicating the sequence libraries on the parallel filesystem and
capping concurrent searches per copy (§3.2.1).  The in-process analogue
of that bottleneck is the :class:`~repro.msa.kmer.KmerIndex` CSR build:
every process that searches a library pays the full sort-based
construction, so a multiprocess campaign rebuilds the same index once
per worker and library load dominates small-campaign wall time.

This module makes the frozen CSR arrays a *persistent artifact* built
once and shared by every process on the node:

* :func:`build_disk_index` saves a frozen index's CSR arrays —
  ``codes``, ``offsets``, ``ids``, ``counts`` and, when the code span
  fits ``_LUT_MAX_SPAN``, the rank table's ``bitmap`` and ``rank`` —
  as ``.npy`` files beside a
  ``manifest.json`` carrying the library fingerprint, ``k`` and
  per-array dtype/shape/sha256.  The artifact directory is published
  atomically (unique temp dir + rename), mirroring the
  :mod:`repro.atomicio` discipline.
* :func:`open_disk_index` maps those files read-only and returns a
  :class:`~repro.msa.kmer.KmerIndex` over them.  N worker processes then
  share one page-cache copy of the postings — attach cost is a handful
  of ``open``/``mmap`` calls, not a rebuild — and pickling the index
  ships only the artifact *path*, so the process executor's pipe
  payloads stay array-free.
* :func:`ensure_disk_index` is the campaign entry point: open the
  fingerprint-addressed artifact if it exists and verifies, quarantine
  and rebuild it if it is corrupt, checksum-mismatched or of another
  schema (``msa.index.corrupt``, mirroring
  :class:`~repro.cache.FeatureCache`'s quarantine), build it fresh
  otherwise.

Query results are bit-identical to the in-memory index because both
run the same :class:`~repro.msa.kmer.KmerIndex` code over the same
arrays.

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
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..telemetry.metrics import get_metrics
from .kmer import KmerIndex, _rank_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .databases import LibrarySuite, SequenceLibrary

__all__ = [
    "DISKINDEX_SCHEMA",
    "IndexCorruptError",
    "build_disk_index",
    "open_disk_index",
    "ensure_disk_index",
    "attach_suite_index",
]

DISKINDEX_SCHEMA = "repro.msa.diskindex/3"

_MANIFEST = "manifest.json"
#: Saved arrays, named as :meth:`KmerIndex.from_arrays` takes them: the
#: CSR arrays always, the rank table's two arrays both or neither.
_CSR_ARRAYS = ("codes", "offsets", "ids", "counts")
_ARRAYS = (*_CSR_ARRAYS, "bitmap", "rank")


class IndexCorruptError(RuntimeError):
    """A disk-index artifact failed structural or checksum validation."""


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
) -> Path:
    """Save a frozen index's CSR arrays as an artifact at ``out_dir``.

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
    arrays = {
        "codes": index._codes,
        "offsets": index._offsets,
        "ids": index._ids,
        "counts": index.kmer_counts,
    }
    bitmap, rank = _rank_table(index._codes, index.k)
    if bitmap is not None:
        # The rank table is saved too, so attached workers map it like
        # the postings instead of deriving it per process.
        arrays.update(bitmap=bitmap, rank=rank)
    tmp = out_dir.with_name(
        f"{out_dir.name}.build.{os.getpid()}.{threading.get_ident():x}"
    )
    tmp.mkdir(parents=True)
    try:
        manifest: dict = {
            "schema": DISKINDEX_SCHEMA,
            "library": library_name,
            "fingerprint": fingerprint,
            "k": index.k,
            "n_sequences": index.n_sequences,
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


def open_disk_index(path: str | Path, verify: bool = False) -> KmerIndex:
    """A :class:`KmerIndex` over an artifact's memory-mapped arrays.

    Structural validation (schema, per-array dtype/shape against the
    manifest, ``offsets``/``counts`` shapes against ``codes`` and
    ``n_sequences``) always runs and costs only the ``.npy`` headers;
    ``verify`` also re-hashes every file, which reads every byte once
    and is reserved for the first open of a campaign
    (:func:`ensure_disk_index`), not per-worker attach.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / _MANIFEST).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise IndexCorruptError(
            f"{path}: unreadable disk-index manifest ({exc})"
        ) from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("schema") != DISKINDEX_SCHEMA
    ):
        raise IndexCorruptError(f"{path} is not a {DISKINDEX_SCHEMA} artifact")
    specs = manifest.get("arrays") or {}
    if set(specs) not in (set(_CSR_ARRAYS), set(_ARRAYS)):
        raise IndexCorruptError(f"{path}: manifest arrays {sorted(specs)}")
    if verify:
        for spec in specs.values():
            try:
                digest = _sha256_file(path / spec["file"])
            except OSError as exc:
                raise IndexCorruptError(
                    f"{path}: missing array file {spec['file']}"
                ) from exc
            if digest != spec["sha256"]:
                raise IndexCorruptError(
                    f"{path}: checksum mismatch on {spec['file']}"
                )
    mapped = {name: _map_array(path, spec) for name, spec in specs.items()}
    if (
        mapped["offsets"].shape != (mapped["codes"].size + 1,)
        or mapped["counts"].shape != (int(manifest["n_sequences"]),)
    ):
        raise IndexCorruptError(f"{path}: array shapes are inconsistent")
    index = KmerIndex.from_arrays(int(manifest["k"]), **mapped)
    index.path = path
    index.fingerprint = str(manifest["fingerprint"])
    get_metrics().counter("msa.index.attach").inc()
    return index


def _map_array(path: Path, spec: dict) -> np.ndarray:
    try:
        arr = np.load(path / spec["file"], mmap_mode="r")
    except (OSError, ValueError) as exc:
        raise IndexCorruptError(
            f"{path}: cannot map {spec['file']} ({exc})"
        ) from exc
    if arr.dtype.str != spec["dtype"] or list(arr.shape) != spec["shape"]:
        raise IndexCorruptError(
            f"{path}: {spec['file']} is {arr.dtype.str}{arr.shape}, "
            f"manifest says {spec['dtype']}{tuple(spec['shape'])}"
        )
    # A plain ndarray view of the same mapped pages: ``np.memmap``
    # indexing runs Python-level hooks on every gather, which the
    # single-query path would pay several times per query.
    return arr.view(np.ndarray)


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
    verify: bool = True,
) -> KmerIndex:
    """Open (or build) the disk-index artifact for one library.

    The happy path — a prebuilt artifact whose fingerprint matches —
    never constructs an in-memory index, which is what keeps
    ``msa.index.rebuild`` at zero for campaigns run with a prebuilt
    ``--index-dir``.  A corrupt, checksum-mismatched, old-schema or
    wrong-fingerprint artifact is quarantined beside its directory
    (``msa.index.corrupt``) and rebuilt from the library.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    target = _artifact_dir(root, library)
    if target.exists():
        try:
            disk = open_disk_index(target, verify=verify)
            if disk.fingerprint != library.fingerprint():
                raise IndexCorruptError(
                    f"{target}: artifact fingerprint {disk.fingerprint[:12]} "
                    f"does not match library {library.fingerprint()[:12]}"
                )
            return disk
        except IndexCorruptError:
            _quarantine(target)
            get_metrics().counter("msa.index.corrupt").inc()
    # Rebuild from the library's in-memory index.  After a quarantine
    # ``library.index`` may be a mapping attached earlier — possibly of
    # the very files just moved aside — so build a fresh one then.
    mem = library.index
    if mem.path is not None:
        mem = library._build_index()
    build_disk_index(
        mem,
        target,
        library_name=library.name,
        fingerprint=library.fingerprint(),
    )
    return open_disk_index(target)


def attach_suite_index(
    suite: "LibrarySuite",
    root: str | Path,
    *,
    verify: bool = True,
) -> list[KmerIndex]:
    """Attach every library in a suite to its disk-index artifact.

    After this, ``library.index`` is the memory-mapped
    :class:`~repro.msa.kmer.KmerIndex` for all four libraries: forked
    workers inherit the mappings copy-on-write and spawned/pickled
    workers re-attach by path, so no process ever rebuilds or receives
    the postings.
    """
    attached = []
    for lib in suite.libraries:
        disk = ensure_disk_index(lib, root, verify=verify)
        lib.attach_index(disk)
        attached.append(disk)
    return attached
