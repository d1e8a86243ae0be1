"""Procedural native-structure generation.

Every synthetic protein has a hidden "native" structure, generated
deterministically from its family's fold seed.  Members of one family
share a fold topology and diverge structurally in proportion to their
sequence divergence — which is what makes the paper's structural
annotation experiment (§4.6) mechanically real: a predicted structure of
a hypothetical protein aligns well against library structures of its
(possibly unrecognisably diverged) family.

The surrogate predictor (:mod:`repro.fold.model`) refines a decoy toward
this hidden native; the reproduction's "ground truth" TM-scores in
Fig. 3 are computed against it.
"""

from __future__ import annotations

import numpy as np

from ..sequences.generator import (
    ProteinRecord,
    SequenceUniverse,
    rng_for,
    stable_hash,
)
from ..singleflight import SingleFlight
from ..structure.protein import Structure
from .geometry import (
    build_ca_chain,
    compact_chain,
    extend_ca_chain,
    resolve_overlaps,
    ss_segments,
    torsions_for_segments,
)

__all__ = ["smooth_chain_noise", "NativeFactory"]


def smooth_chain_noise(
    n: int,
    rng: np.random.Generator,
    sigma: float,
    window: int = 11,
) -> np.ndarray:
    """Spatially correlated (N, 3) displacement noise along a chain.

    White per-residue noise is smoothed with a moving average along the
    sequence, so displacements are locally coherent — segments move
    together, as real model error does (whole loops and domains shift,
    individual atoms do not teleport).  The output is rescaled so its
    per-residue RMS displacement equals ``sigma``.
    """
    if n <= 0:
        return np.zeros((0, 3))
    raw = rng.normal(0.0, 1.0, size=(n, 3))
    if window > 1 and n > 1:
        w = min(window, n)
        kernel = np.ones(w) / w
        padded = np.vstack(
            [raw[0] * np.ones((w // 2, 3)), raw, raw[-1] * np.ones((w // 2, 3))]
        )
        smooth = np.empty_like(raw)
        for axis in range(3):
            smooth[:, axis] = np.convolve(padded[:, axis], kernel, mode="valid")[:n]
        raw = smooth
    rms = np.sqrt((raw**2).sum(axis=1).mean())
    if rms < 1e-12:
        return np.zeros((n, 3))
    return raw * (sigma / rms)


class NativeFactory:
    """Deterministic factory (and cache) for hidden native structures.

    One factory serves every thread of a process: a native or family
    fold is built by the first thread that misses it, and threads that
    miss the same key meanwhile wait for that build instead of racing
    it (:class:`~repro.singleflight.SingleFlight`).  A ``native`` build
    calls ``family_fold`` and never the reverse, so the two tables nest
    in one order only.

    Parameters
    ----------
    universe:
        The sequence universe that owns the families.
    compaction_steps:
        Gradient steps used when folding a topology from scratch;
        member-level perturbations use a quarter of this to re-settle.
    """

    def __init__(
        self, universe: SequenceUniverse, compaction_steps: int | None = None
    ) -> None:
        self.universe = universe
        self.compaction_steps = compaction_steps
        self._fold_cache: dict[tuple[int, int], np.ndarray] = {}
        self._ss_cache: dict[tuple[int, int], np.ndarray] = {}
        self._native_cache: dict[str, Structure] = {}
        self._label_for_record: dict[str, np.ndarray] = {}
        self._fold_flights = SingleFlight("fold.family_fold.coalesced")
        self._native_flights = SingleFlight("fold.native.coalesced")

    # -- Fold topologies -----------------------------------------------------
    def family_fold(self, fold_seed: int, length: int) -> np.ndarray:
        """The canonical Calpha fold of a family at a given chain length.

        Deterministic in ``(fold_seed, length)``; nearby lengths share
        the same secondary-structure prefix, so small indel differences
        between family members perturb rather than replace the fold.
        """
        key = (fold_seed, length)
        cached = self._fold_cache.get(key)
        if cached is not None:
            return cached

        def build() -> np.ndarray:
            rng = rng_for(fold_seed, "fold")
            helix_bias = float(rng.uniform(0.15, 0.85))  # fold class (alpha/beta mix)
            segments = ss_segments(length, rng, helix_bias=helix_bias)
            angles, torsions, labels = torsions_for_segments(segments, rng)
            chain = build_ca_chain(angles, torsions)
            folded = compact_chain(chain, rng, n_steps=self.compaction_steps)
            # Labels go in *before* the fold is published: ss_labels()
            # takes a cached fold as proof that its labels exist.
            self._ss_cache[key] = labels
            return folded

        return self._fold_flights.get_or_build(self._fold_cache, key, build)

    def ss_labels(self, fold_seed: int, length: int) -> np.ndarray:
        """Per-residue secondary structure labels (0=H, 1=E, 2=C)."""
        key = (fold_seed, length)
        if key not in self._ss_cache:
            self.family_fold(fold_seed, length)
        return self._ss_cache[key]

    def member_fold(
        self, fold_seed: int, natural_length: int, target_length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Family fold adapted to a member's length; returns (ca, labels).

        The canonical fold is built once at the family's *natural*
        (ancestor) length; members are derived from it by truncation or
        by appending an extension — never by re-folding from scratch at
        the member length.  Re-folding would be chaotic: the collapse is
        strongly nonlinear, so two members differing by a single indel
        could land in different topologies, destroying the family-fold
        coherence the structural-annotation experiment (§4.6) relies on.
        """
        base = self.family_fold(fold_seed, natural_length)
        labels = self.ss_labels(fold_seed, natural_length)
        if target_length == natural_length:
            return base, labels
        if target_length < natural_length:
            return base[:target_length], labels[:target_length]
        # Extension: continue the chain with coil geometry from the last
        # residues, then push any created overlaps out.  The core fold
        # is preserved; the extension dangles, as real disordered or
        # repeat extensions do.
        rng = rng_for(fold_seed, "extension", target_length)
        extra = target_length - natural_length
        segments = ss_segments(extra, rng, helix_bias=0.4)
        angles, torsions, ext_labels = torsions_for_segments(segments, rng)
        coords = np.vstack([base, np.zeros((extra, 3))])
        extend_ca_chain(coords, natural_length, angles, torsions)
        coords = resolve_overlaps(coords)
        return coords, np.concatenate([labels, ext_labels])

    # -- Natives ----------------------------------------------------------------
    def native(self, record: ProteinRecord) -> Structure:
        """The hidden native structure of a protein record."""
        cached = self._native_cache.get(record.record_id)
        if cached is not None:
            return cached
        return self._native_flights.get_or_build(
            self._native_cache, record.record_id, lambda: self._build_native(record)
        )

    def _build_native(self, record: ProteinRecord) -> Structure:
        length = record.length
        if record.family_id is None:
            # Orphan: a fold of its own, keyed by the record itself.
            fold_seed = stable_hash("orphan-fold", record.record_id)
            ca = self.family_fold(fold_seed, length)
            labels = self.ss_labels(fold_seed, length)
        else:
            fam = self.universe.family(record.family_id)
            base, labels = self.member_fold(fam.fold_seed, fam.length, length)
            # Structural divergence tracks sequence divergence: perturb
            # with smooth noise then briefly re-settle the geometry.
            rng = rng_for(fam.fold_seed, "member", record.record_id)
            sigma = 2.5 * record.divergence
            ca = base + smooth_chain_noise(length, rng, sigma=sigma)
            if sigma > 0.05:
                ca = compact_chain(ca, rng, n_steps=40)
        # Stash SS labels for the error model without widening Structure.
        # Labels go in *before* the structure is published: a second
        # thread that sees the cached native must find its labels too.
        self._label_for_record[record.record_id] = labels
        return Structure(
            record_id=record.record_id,
            encoded=record.encoded,
            ca=ca,
            model_name="native",
        )

    def native_ss_labels(self, record: ProteinRecord) -> np.ndarray:
        """SS labels aligned with :meth:`native` output for the record."""
        self.native(record)
        return self._label_for_record[record.record_id]

    def clear_cache(self) -> None:
        self._fold_cache.clear()
        self._ss_cache.clear()
        self._native_cache.clear()
        self._label_for_record.clear()
