"""Shared-memory payload transport for the process executor.

The paper's Dask deployment moves feature pickles between scheduler and
workers over the node fabric; at one-node scale the equivalent tax is
pickling every large numpy array through a multiprocessing pipe twice
(parent -> worker payloads, worker -> parent results).  This module
removes that copy from the pipe: a payload is split into

* a *skeleton* — the original object tree with every large ndarray
  replaced by a tiny :class:`ShmRef` placeholder — which still travels
  as a (now small) pickle, and
* one ``multiprocessing.shared_memory`` segment per message holding the
  raw bytes of all extracted arrays back to back.

The receiver attaches the segment, copies each array back out, grafts
it into the skeleton, then closes *and unlinks* the segment.  Receiver
unlinks is the ownership rule everywhere: a segment is consumed exactly
once, by the process the message was addressed to, and the parent
unlinks orphaned payload segments itself when a worker dies mid-task
(see ``repro.dataflow.process``).  Register/unregister pairs land on
the one resource-tracker process the worker pool shares with its
parent, so no "leaked shared_memory" warnings survive a clean run.

Arrays smaller than ``min_bytes`` ride the skeleton pickle — a segment
per 80-byte coordinate stub would cost more in syscalls than it saves
in copying.  Object trees are walked structurally (dict / list / tuple
/ namedtuple / dataclass); anything else is left to the pickle whole.

Arrays that are already *file-backed* (``np.memmap``, e.g. the
memory-mapped disk-index arrays of :mod:`repro.msa.diskindex`) never
touch shared memory at all: copying a read-only mapping through
``/dev/shm`` would duplicate bytes every process can already share via
the page cache.  They travel as :class:`MmapRef` placeholders — path +
effective file offset + shape/dtype — and the receiver re-maps the same
file read-only.  The effective offset is computed from the mapping's
base address because a *view* of a memmap inherits the root's
``.offset``/``.filename`` attributes verbatim (they do not account for
the view's displacement into the mapping).
"""

from __future__ import annotations

import dataclasses
import mmap as _mmap
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

__all__ = [
    "DEFAULT_MIN_SHM_BYTES",
    "ShmRef",
    "MmapRef",
    "EncodedPayload",
    "encode_payload",
    "decode_payload",
    "unlink_segment",
]

#: Arrays at or above this many bytes move to the shared segment;
#: smaller ones stay inline in the skeleton pickle.  4 KiB ~ one page:
#: below that the pipe copy is cheaper than an shm attach.
DEFAULT_MIN_SHM_BYTES: int = 4096


@dataclass(frozen=True)
class ShmRef:
    """Placeholder for an ndarray extracted into the shared segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class MmapRef:
    """Placeholder for a file-backed (memory-mapped) ndarray.

    ``offset`` is the *effective* byte offset of the array's first
    element within ``path`` — root offset plus the view's displacement
    into the mapping — so the receiver can re-map exactly the referenced
    region with ``np.memmap(path, dtype, mode="r", offset, shape)``.
    """

    path: str
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class EncodedPayload:
    """A skeleton plus the name of the segment its arrays live in.

    ``segment=None`` means nothing crossed the size threshold and —
    unless ``has_file_refs`` marks :class:`MmapRef` placeholders to
    resolve — the skeleton is the payload verbatim.  ``nbytes`` is the
    segment size — the transport accounting benchmarks report.
    """

    skeleton: Any
    segment: str | None = None
    nbytes: int = 0
    has_file_refs: bool = False


def _mmap_ref(arr: np.ndarray) -> MmapRef | None:
    """File-backed reference for a (view of a) read-only ``np.memmap``.

    Returns ``None`` when the array cannot be described as a contiguous
    file region (non-memmap, object dtype, strided view, anonymous
    mapping) — those fall through to the regular transport.  The
    effective file offset is recovered from the mapping's base address:
    a memmap view's ``.offset`` attribute is the *root's* offset, so the
    view's displacement must be measured against where the ``mmap``
    buffer actually starts (which is the root offset rounded down to the
    allocation granularity).
    """
    if not isinstance(arr, np.memmap) or arr.dtype.hasobject:
        return None
    filename = getattr(arr, "filename", None)
    if filename is None or not arr.flags["C_CONTIGUOUS"]:
        return None
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    if not isinstance(base, _mmap.mmap):
        return None
    mapping_addr = np.frombuffer(base, dtype=np.uint8).ctypes.data
    aligned = arr.offset - arr.offset % _mmap.ALLOCATIONGRANULARITY
    file_offset = aligned + (arr.ctypes.data - mapping_addr)
    return MmapRef(
        path=str(filename),
        offset=int(file_offset),
        shape=tuple(arr.shape),
        dtype=arr.dtype.str,
    )


def _walk_encode(
    obj: Any,
    arrays: list[np.ndarray],
    refs: list[ShmRef],
    file_refs: list[MmapRef],
    min_bytes: int,
) -> Any:
    """Copy of ``obj`` with large arrays appended to ``arrays``.

    ``refs`` grows in lockstep with ``arrays``; offsets are filled in
    once total size is known.  File-backed arrays become
    :class:`MmapRef` placeholders (collected on ``file_refs``) at any
    size — re-mapping shares the page cache, so there is never a reason
    to copy one.  Unrecognised containers are returned unchanged (their
    arrays ride the pickle).
    """
    if isinstance(obj, np.ndarray):
        mref = _mmap_ref(obj)
        if mref is not None:
            file_refs.append(mref)
            return mref
        if obj.nbytes < min_bytes or obj.dtype.hasobject:
            return obj
        arr = np.ascontiguousarray(obj)
        arrays.append(arr)
        # Negative offsets are per-array placeholders (unique even for
        # equal arrays, so the final-offset mapping never collides);
        # they are rewritten to real segment offsets before sending.
        placeholder = ShmRef(
            offset=-len(arrays), shape=tuple(arr.shape), dtype=arr.dtype.str
        )
        refs.append(placeholder)
        return placeholder
    if isinstance(obj, dict):
        return {
            k: _walk_encode(v, arrays, refs, file_refs, min_bytes)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        items = [
            _walk_encode(v, arrays, refs, file_refs, min_bytes) for v in obj
        ]
        if isinstance(obj, list):
            return items
        if hasattr(obj, "_fields"):  # namedtuple
            return type(obj)(*items)
        return tuple(items)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        try:
            for f in dataclasses.fields(obj):
                old = getattr(obj, f.name)
                new = _walk_encode(old, arrays, refs, file_refs, min_bytes)
                if new is not old:
                    changes[f.name] = new
            if not changes:
                return obj
            return dataclasses.replace(obj, **changes)
        except (TypeError, ValueError):
            # Non-replaceable dataclass (init=False fields, custom
            # __init__): leave it whole; its arrays ride the pickle.
            return obj
    return obj


def _walk_decode(
    obj: Any, arrays: dict[ShmRef, np.ndarray], resolve_files: bool = True
) -> Any:
    if resolve_files and isinstance(obj, MmapRef):
        # Re-map the referenced file region read-only: the receiver
        # becomes one more sharer of the same page-cache copy.
        return np.memmap(
            obj.path,
            dtype=np.dtype(obj.dtype),
            mode="r",
            offset=obj.offset,
            shape=obj.shape,
        )
    if isinstance(obj, ShmRef):
        return arrays[obj]
    if isinstance(obj, dict):
        return {
            k: _walk_decode(v, arrays, resolve_files)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        items = [_walk_decode(v, arrays, resolve_files) for v in obj]
        if isinstance(obj, list):
            return items
        if hasattr(obj, "_fields"):
            return type(obj)(*items)
        return tuple(items)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        changes = {}
        for f in dataclasses.fields(obj):
            old = getattr(obj, f.name)
            new = _walk_decode(old, arrays, resolve_files)
            if new is not old:
                changes[f.name] = new
        if not changes:
            return obj
        return dataclasses.replace(obj, **changes)
    return obj


def encode_payload(
    obj: Any, min_bytes: int = DEFAULT_MIN_SHM_BYTES
) -> EncodedPayload:
    """Extract large arrays from ``obj`` into one shared segment.

    File-backed (memory-mapped) arrays are never copied anywhere — they
    become :class:`MmapRef` placeholders pointing at the file region
    they already occupy.  The sender's segment mapping is closed before
    returning — the segment lives on under its name until the receiver
    (or the parent's orphan cleanup) unlinks it.
    """
    arrays: list[np.ndarray] = []
    refs: list[ShmRef] = []
    file_refs: list[MmapRef] = []
    skeleton = _walk_encode(obj, arrays, refs, file_refs, min_bytes)
    if not arrays:
        if file_refs:
            return EncodedPayload(skeleton=skeleton, has_file_refs=True)
        return EncodedPayload(skeleton=obj)
    total = sum(a.nbytes for a in arrays)
    seg = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        offset = 0
        final_refs: dict[ShmRef, ShmRef] = {}
        for arr, ref in zip(arrays, refs):
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=offset
            )
            view[...] = arr
            final_refs[ref] = dataclasses.replace(ref, offset=offset)
            offset += arr.nbytes
            del view
        skeleton = _walk_decode(skeleton, final_refs, resolve_files=False)
        name = seg.name
    finally:
        seg.close()
    return EncodedPayload(
        skeleton=skeleton,
        segment=name,
        nbytes=total,
        has_file_refs=bool(file_refs),
    )


def decode_payload(payload: EncodedPayload) -> Any:
    """Rebuild the original object; consumes (unlinks) the segment."""
    if not isinstance(payload, EncodedPayload):
        return payload
    if payload.segment is None:
        if payload.has_file_refs:
            return _walk_decode(payload.skeleton, {})
        return payload.skeleton
    seg = shared_memory.SharedMemory(name=payload.segment)
    try:
        refs: list[ShmRef] = []
        _collect_refs(payload.skeleton, refs)
        arrays = {
            ref: np.ndarray(
                ref.shape,
                dtype=np.dtype(ref.dtype),
                buffer=seg.buf,
                offset=ref.offset,
            ).copy()
            for ref in refs
        }
        return _walk_decode(payload.skeleton, arrays)
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # already reclaimed by orphan cleanup
            pass


def _collect_refs(obj: Any, out: list[ShmRef]) -> None:
    if isinstance(obj, ShmRef):
        out.append(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            _collect_refs(v, out)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _collect_refs(v, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _collect_refs(getattr(obj, f.name), out)


def unlink_segment(name: str | None) -> None:
    """Reclaim a segment whose receiver died before consuming it."""
    if name is None:
        return
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
