"""Recycle control: distogram convergence and adaptive recycle caps.

Implements the ColabFold-style early stopping the paper adopted
(§3.2.2): after each recycle, compare the model's residue-contact
distogram with the previous recycle's; stop when the mean change drops
below the preset's tolerance.  The recycle cap is 20 but tapers toward 6
as sequence length grows past 500 AA.

The signature is the hot path of the recycling loop — it runs once per
recycle per (model, target) pair — so :func:`distogram_signature`
computes the pairwise distances with the Gram-matrix identity
``d_ij^2 = |x_i|^2 + |x_j|^2 - 2 x_i.x_j`` (one BLAS GEMM plus O(L^2)
elementwise work) instead of materialising the (L, L, 3) broadcast
temporary, and writes into a caller-supplied buffer when one is given.
:class:`RecycleController` keeps two ping-pong buffers so a whole
recycling loop allocates its distograms exactly twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import (
    MAX_RECYCLES,
    MIN_RECYCLES_LONG_SEQUENCE,
    RECYCLE_TAPER_START_LENGTH,
)
from ..telemetry.metrics import get_metrics
from ..telemetry.tracer import get_tracer

__all__ = [
    "distogram_signature",
    "distogram_change",
    "adaptive_recycle_cap",
    "RecycleController",
]

#: Longest sequences get their distogram subsampled to this many rows so
#: the convergence check stays O(400^2) regardless of chain length.
_MAX_DISTOGRAM_DIM: int = 400


def _subsample(ca: np.ndarray) -> np.ndarray:
    arr = np.asarray(ca, dtype=np.float64)
    n = arr.shape[0]
    if n > _MAX_DISTOGRAM_DIM:
        stride = int(np.ceil(n / _MAX_DISTOGRAM_DIM))
        arr = arr[::stride]
    return arr


def distogram_signature(
    ca: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise-distance signature used for the convergence check.

    The real implementation compares predicted distance *distributions*;
    the mean absolute change of the pairwise distance matrix is the same
    convergence signal at Calpha resolution.  Chains longer than 400
    residues are subsampled with a uniform stride.

    Distances come from ``|x_i|^2 + |x_j|^2 - 2 x_i.x_j``: one GEMM and
    O(L^2) elementwise passes, no (L, L, 3) temporary.  ``out`` may
    supply a reusable (m, m) float64 buffer; a fresh array is allocated
    when it is absent or the wrong shape.
    """
    arr = _subsample(ca)
    m = arr.shape[0]
    if (
        out is None
        or out.shape != (m, m)
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        out = np.empty((m, m))
    arr = np.ascontiguousarray(arr)
    np.dot(arr, arr.T, out=out)
    sq = np.einsum("ij,ij->i", arr, arr)
    out *= -2.0
    out += sq[:, None]
    out += sq[None, :]
    # Cancellation can leave tiny negatives where distances vanish; the
    # diagonal is zero by definition.
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def distogram_change(previous: np.ndarray, current: np.ndarray) -> float:
    """Mean absolute distance change between consecutive recycles."""
    if previous.shape != current.shape:
        raise ValueError("distogram shapes differ between recycles")
    return float(np.abs(current - previous).mean())


def adaptive_recycle_cap(
    length: int,
    max_recycles: int = MAX_RECYCLES,
    min_recycles: int = MIN_RECYCLES_LONG_SEQUENCE,
    taper_start: int = RECYCLE_TAPER_START_LENGTH,
    taper_end: int = 2500,
) -> int:
    """Recycle cap, reduced progressively for long sequences (§3.2.2)."""
    if length <= taper_start:
        return max_recycles
    frac = min(1.0, (length - taper_start) / (taper_end - taper_start))
    return int(round(max_recycles - frac * (max_recycles - min_recycles)))


@dataclass
class RecycleController:
    """Stateful convergence monitor for one prediction.

    ``tolerance=None`` reproduces the official presets: run exactly
    ``cap`` recycles with no early stop.  Two distogram buffers ping-pong
    between "current" and "previous", so the loop stops allocating after
    its second update.
    """

    tolerance: float | None
    cap: int
    n_recycles: int = 0
    last_change: float = float("inf")
    _previous: np.ndarray | None = None
    _spare: np.ndarray | None = None

    def update(self, ca: np.ndarray) -> bool:
        """Record one finished recycle; True if recycling should stop."""
        self.n_recycles += 1
        sig = distogram_signature(ca, out=self._spare)
        if self._previous is not None:
            self.last_change = distogram_change(self._previous, sig)
        # Yesterday's signature becomes the next update's scratch buffer.
        self._spare = self._previous
        self._previous = sig
        if self.n_recycles >= self.cap:
            self._record_stop("cap")
            return True
        if self.tolerance is None:
            return False
        if self.n_recycles >= 2 and self.last_change < self.tolerance:
            self._record_stop("early")
            return True
        return False

    def _record_stop(self, reason: str) -> None:
        """Telemetry for one finished recycling loop (once per model)."""
        metrics = get_metrics()
        metrics.counter(
            "fold.recycle.early_stops"
            if reason == "early"
            else "fold.recycle.cap_stops"
        ).inc()
        metrics.counter("fold.recycle.total").inc(self.n_recycles)
        metrics.histogram(
            "fold.recycle.count", buckets=tuple(float(i) for i in range(1, 21))
        ).observe(self.n_recycles)
        get_tracer().event(
            "fold.recycle.stop",
            category="fold",
            attrs={
                "reason": reason,
                "recycles": self.n_recycles,
                # inf (no second recycle ran) is not valid JSON
                "last_change": (
                    self.last_change
                    if np.isfinite(self.last_change)
                    else None
                ),
            },
        )
