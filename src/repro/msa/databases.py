"""Synthetic sequence libraries (UniRef/BFD/MGnify/PDB-seqres stand-ins).

The paper searches four library groups totalling 2.1 TB (full) or 420 GB
(reduced, with near-identical BFD sequences removed).  The reproduction
builds small in-memory libraries from the shared
:class:`~repro.sequences.generator.SequenceUniverse`, while *modelling*
the real byte sizes for the I/O and cost layers: the scientific content
(who finds how many homologs) is real, the storage arithmetic is scaled.

The key empirical claim to reproduce (§4.1) is that the reduced dataset
yields virtually identical prediction quality: deduplication removes
near-identical copies, which add no information to an MSA, so effective
MSA depth — and therefore difficulty and model quality — is preserved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..constants import FULL_DATASET_BYTES, REDUCED_DATASET_BYTES
from ..sequences.generator import (
    SequenceUniverse,
    mutate_sequence,
    rng_for,
    stable_hash,
)
from ..sequences.proteome import SPECIES, species_family_base
from ..singleflight import SingleFlight
from .kmer import DEFAULT_K, KmerIndex

__all__ = [
    "LibraryEntry",
    "SequenceLibrary",
    "LibrarySuite",
    "build_library",
    "build_suite",
]


@dataclass(frozen=True)
class LibraryEntry:
    """One library sequence with provenance metadata.

    ``cluster_id`` groups near-identical copies (metagenomic libraries
    like the BFD are duplicate-heavy); redundancy-aware depth accounting
    and the reduced-dataset deduplication both operate on clusters.
    """

    entry_id: str
    encoded: np.ndarray = field(repr=False)
    family_id: int | None
    divergence: float
    annotated: bool
    cluster_id: str = ""

    @property
    def length(self) -> int:
        return int(self.encoded.size)


class SequenceLibrary:
    """A searchable sequence collection plus a storage/I-O model.

    ``modeled_bytes`` is the byte size the library *represents* (e.g.
    the real BFD's share of 2.1 TB), used by :mod:`repro.iosim` and the
    cost model; the in-memory entry count is the scaled scientific
    content actually searched.
    """

    def __init__(
        self,
        name: str,
        entries: list[LibraryEntry],
        modeled_bytes: int,
        files_per_search: int = 64,
    ) -> None:
        self.name = name
        self.entries = list(entries)
        self.modeled_bytes = int(modeled_bytes)
        #: Number of distinct file reads one search issues against this
        #: library (HHblits-style many-small-reads; drives metadata load).
        self.files_per_search = int(files_per_search)
        self._index: KmerIndex | None = None
        self._index_flights = SingleFlight("msa.index.coalesced")
        self._fingerprint: str | None = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def index(self) -> KmerIndex:
        """The k-mer index over all entries.

        Lazily builds an in-memory :class:`KmerIndex` unless a prebuilt
        (e.g. memory-mapped on-disk) index was installed with
        :meth:`attach_index` first.  Threads that ask while the first
        build is running wait for it instead of building their own.
        """
        index = self._index
        if index is None:
            # The instance dict is the one-slot cache: publishing
            # ``vars(self)["_index"]`` is assigning ``self._index``.
            index = self._index_flights.get_or_build(
                vars(self), "_index", self._build_index
            )
        return index

    def _build_index(self) -> KmerIndex:
        """A fresh in-memory index over every entry: what :attr:`index`
        builds lazily and :func:`~repro.msa.diskindex.ensure_disk_index`
        serialises."""
        index = KmerIndex()
        for i, entry in enumerate(self.entries):
            index.add(i, entry.encoded)
        index.freeze()
        return index

    def attach_index(self, index: KmerIndex) -> None:
        """Install a prebuilt index (typically one memory-mapped from a
        disk artifact, :func:`~repro.msa.diskindex.open_disk_index`)
        instead of building one in memory.

        The index must cover exactly this library: sequence counts must
        agree, and an index that knows the fingerprint of the library it
        was built from (disk artifacts do) must match this library's.
        """
        if index.n_sequences != len(self.entries):
            raise ValueError(
                f"index covers {index.n_sequences} sequences, library "
                f"{self.name!r} has {len(self.entries)}"
            )
        index_fp = index.fingerprint
        if index_fp is not None and index_fp != self.fingerprint():
            raise ValueError(
                f"index fingerprint {index_fp[:12]} does not match "
                f"library {self.name!r} ({self.fingerprint()[:12]})"
            )
        self._index = index

    def fingerprint(self) -> str:
        """Content hash of everything a search outcome depends on.

        Covers the search content (entry sequences and the metadata
        that flows into hits: ids, clusters, families, annotation) and
        the I/O model parameters (``modeled_bytes``,
        ``files_per_search``).  Feature caching keys on this: any change
        to the library yields a different fingerprint and therefore a
        cache miss.  Libraries are treated as immutable once built; the
        hash is computed once and memoised.

        Hashes the *default* k rather than touching :attr:`index` — the
        fingerprint addresses the on-disk index artifact, so computing
        it must not itself force an in-memory index build (the exact
        cost the disk index exists to avoid).  The hash string is
        byte-identical to what ``self.index.k`` produced, so existing
        cache keys are unchanged.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(
                f"{self.name}|{self.modeled_bytes}|{self.files_per_search}"
                f"|k={DEFAULT_K}".encode()
            )
            for entry in self.entries:
                h.update(
                    f"{entry.entry_id}|{entry.cluster_id}|{entry.family_id}"
                    f"|{entry.annotated}".encode()
                )
                h.update(np.ascontiguousarray(entry.encoded).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def deduplicated(self) -> "SequenceLibrary":
        """Reduced variant: keep one representative per duplicate cluster.

        Mirrors the BFD reduction (§3.2.1): near-identical copies of the
        same sequence are removed, one representative per cluster stays.
        Cluster (and so family) coverage — the MSA *signal* — is fully
        preserved; only redundant mass goes, which is why the reduced
        dataset predicts as well as the full one.
        """
        kept: list[LibraryEntry] = []
        seen: set[str] = set()
        for entry in self.entries:
            if entry.cluster_id in seen:
                continue
            seen.add(entry.cluster_id)
            kept.append(entry)
        scale = len(kept) / max(1, len(self.entries))
        return SequenceLibrary(
            name=f"{self.name}_reduced",
            entries=kept,
            modeled_bytes=int(self.modeled_bytes * scale),
            files_per_search=self.files_per_search,
        )


def build_library(
    universe: SequenceUniverse,
    name: str,
    family_ids: list[int],
    seed: int,
    members_per_multiplicity: float = 1.0,
    max_members_per_family: int = 64,
    noise_entries: int = 0,
    modeled_bytes: int = 0,
    files_per_search: int = 64,
    annotated_only: bool = False,
    duplicate_rate: float = 0.0,
    branch_fraction: float = 0.8,
) -> SequenceLibrary:
    """Populate a library with members of the given families.

    Each family contributes ``multiplicity * members_per_multiplicity``
    distinct canonical (branch 0) members (capped), at divergences
    spread across (0.02, 0.55) — deep families produce deep MSAs.  An
    additional ``branch_fraction`` share of members comes from the
    remote subfamily branches 1-2 (unannotated metagenomic relatives),
    which is what gives twilight-zone proteome members enough MSA
    support to be predictable (§4.6).  ``duplicate_rate`` adds a
    Poisson number of near-identical copies per member (metagenomic
    redundancy, the dedup target).  ``noise_entries`` unrelated
    sequences model the library's background mass.
    """
    rng = rng_for(seed, "library", name)
    entries: list[LibraryEntry] = []

    def add_member(fam, fid, m, branch, divergence):
        encoded = universe.member(
            fam,
            divergence,
            member_seed=10_000 + m + stable_hash(name, modulus=997),
            branch=branch,
        )
        cluster_id = f"{name}_{fid}_b{branch}_{m:03d}"
        entries.append(
            LibraryEntry(
                entry_id=cluster_id,
                encoded=encoded,
                family_id=fid,
                divergence=divergence,
                annotated=fam.annotated and branch == 0,
                cluster_id=cluster_id,
            )
        )
        if duplicate_rate > 0.0:
            for dup in range(int(rng.poisson(duplicate_rate))):
                entries.append(
                    LibraryEntry(
                        entry_id=f"{cluster_id}_dup{dup}",
                        encoded=mutate_sequence(
                            encoded, rng, substitution_rate=0.005
                        ),
                        family_id=fid,
                        divergence=divergence,
                        annotated=fam.annotated and branch == 0,
                        cluster_id=cluster_id,
                    )
                )

    for fid in family_ids:
        fam = universe.family(fid)
        if annotated_only and not fam.annotated:
            continue
        n_members = int(
            min(
                max_members_per_family,
                round(fam.library_multiplicity * members_per_multiplicity),
            )
        )
        for m in range(n_members):
            add_member(fam, fid, m, 0, float(rng.uniform(0.02, 0.55)))
        n_branch = int(round(n_members * branch_fraction))
        for m in range(n_branch):
            branch = 1 + int(rng.integers(0, 2))
            add_member(
                fam, fid, 5000 + m, branch, float(rng.uniform(0.02, 0.40))
            )
    for i in range(noise_entries):
        length = int(np.clip(np.round(rng.lognormal(5.4, 0.5)), 30, 1500))
        entry_id = f"{name}_noise_{i:05d}"
        entries.append(
            LibraryEntry(
                entry_id=entry_id,
                encoded=universe.orphan(seed * 1_000_003 + i, length),
                family_id=None,
                divergence=1.0,
                # Background mass of an annotated-only library (e.g. the
                # PDB) is still experimentally annotated material.
                annotated=annotated_only,
                cluster_id=entry_id,
            )
        )
    return SequenceLibrary(
        name=name,
        entries=entries,
        modeled_bytes=modeled_bytes,
        files_per_search=files_per_search,
    )


@dataclass
class LibrarySuite:
    """The four library groups the AlphaFold pipeline searches.

    ``pdb_seqs`` doubles as the template source: hits there provide
    structural templates consumed by two of the five model heads.
    """

    uniref: SequenceLibrary
    bfd: SequenceLibrary
    mgnify: SequenceLibrary
    pdb_seqs: SequenceLibrary
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def libraries(self) -> list[SequenceLibrary]:
        return [self.uniref, self.bfd, self.mgnify, self.pdb_seqs]

    @property
    def total_modeled_bytes(self) -> int:
        return sum(lib.modeled_bytes for lib in self.libraries)

    @property
    def total_entries(self) -> int:
        return sum(len(lib) for lib in self.libraries)

    def fingerprint(self) -> str:
        """Combined content hash of the four libraries (see
        :meth:`SequenceLibrary.fingerprint`); the suite component of
        feature-cache keys.

        Memoised on the suite itself — libraries are immutable once
        built — so consumers never need an identity-keyed side table
        (``id()``-keyed memos go stale when ids are reused after GC).
        A racing double-compute is benign: both writers store the same
        content hash.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            for lib in self.libraries:
                h.update(lib.fingerprint().encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def reduced(self) -> "LibrarySuite":
        """The reduced suite: BFD deduplicated (§3.2.1)."""
        return LibrarySuite(
            uniref=self.uniref,
            bfd=self.bfd.deduplicated(),
            mgnify=self.mgnify,
            pdb_seqs=self.pdb_seqs,
        )


def build_suite(
    universe: SequenceUniverse,
    species_names: list[str],
    seed: int = 0,
    scale: float = 1.0,
    family_pool: int | None = None,
    noise_scale: float = 1.0,
) -> LibrarySuite:
    """Build a library suite covering the families of the given species.

    ``scale`` (or an explicit ``family_pool``) must match the value used
    by :func:`~repro.sequences.proteome.synthetic_proteome` for each
    species: both default to a pool of 60% of the (scaled) protein
    count, so a suite and a proteome built with the same ``scale`` cover
    the same families.  Modeled byte sizes follow the real libraries'
    proportions within the paper's 2.1 TB total: BFD dominates.
    """
    family_ids: list[int] = []
    for species in species_names:
        spec = SPECIES[species]
        if family_pool is not None:
            pool = family_pool
        else:
            n_scaled = max(1, int(round(spec.n_proteins * scale)))
            pool = max(1, int(n_scaled * 0.6))
        base = species_family_base(species)
        family_ids.extend(range(base, base + pool))
    bfd_bytes = FULL_DATASET_BYTES - REDUCED_DATASET_BYTES + 270_000_000_000
    other = FULL_DATASET_BYTES - bfd_bytes
    uniref = build_library(
        universe,
        "uniref90",
        family_ids,
        seed,
        members_per_multiplicity=0.5,
        max_members_per_family=24,
        noise_entries=int(300 * noise_scale),
        modeled_bytes=int(other * 0.40),
        files_per_search=16,
    )
    # BFD is the deep, redundant metagenomic library: high multiplicity
    # plus near-identical duplicates (the dedup target).
    bfd = build_library(
        universe,
        "bfd",
        family_ids,
        seed + 1,
        members_per_multiplicity=1.0,
        max_members_per_family=48,
        noise_entries=int(900 * noise_scale),
        modeled_bytes=bfd_bytes,
        files_per_search=256,
        duplicate_rate=1.3,
    )
    mgnify = build_library(
        universe,
        "mgnify",
        family_ids,
        seed + 2,
        members_per_multiplicity=0.7,
        max_members_per_family=24,
        noise_entries=int(300 * noise_scale),
        modeled_bytes=int(other * 0.45),
        files_per_search=32,
    )
    # The PDB holds only the canonical, experimentally characterised
    # lineages: no remote-branch sequences (branch_fraction=0) — which
    # is exactly why twilight-zone proteins have no usable templates.
    pdb_seqs = build_library(
        universe,
        "pdb_seqres",
        family_ids,
        seed + 3,
        members_per_multiplicity=0.15,
        max_members_per_family=4,
        noise_entries=int(60 * noise_scale),
        modeled_bytes=int(other * 0.15),
        files_per_search=8,
        annotated_only=True,
        branch_fraction=0.0,
    )
    return LibrarySuite(uniref=uniref, bfd=bfd, mgnify=mgnify, pdb_seqs=pdb_seqs)
