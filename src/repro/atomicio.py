"""Atomic file publication for the on-disk feature cache.

The feature cache publishes pickled payloads, one file per key, that
concurrent readers may open at any moment and that a crash may
interrupt at any byte.  (Run state appends to one pack instead and
needs no rename; see :mod:`repro.runstate.store`.)
The discipline that makes this safe is always the same:

1. write the full payload to a *writer-unique* temp file in the target
   directory (same filesystem, so the rename below is atomic);
2. ``os.replace`` it onto the final name.

Step 1's uniqueness matters as much as step 2's atomicity: if every
writer of one key shared a single ``<key>.tmp`` path, two simultaneous
writers would interleave their ``write``/``replace`` pairs and could
publish a torn file through the "atomic" rename.  Naming the temp file
by pid and thread id gives each concurrent writer its own scratch path;
last rename wins with complete bytes.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Publish ``data`` at ``path``; readers never observe a partial file."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident():x}.tmp"
    )
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    finally:
        # Only reachable with the temp file still present when the write
        # or rename itself failed; never leave scratch files behind.
        tmp.unlink(missing_ok=True)
