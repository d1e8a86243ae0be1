"""The four workloads and the inputs they run on.

Closed-loop batch jobs: one driver process, ``COMPUTE_WORKERS`` workers,
every other ``ProteomePipeline`` field at the ``repro campaign`` default.

The *world* — sequence families, their folds and the four search
libraries — is fixed (``WORLD_SEED``), as UniRef/BFD are to a real
deployment.  ``--seed`` draws the proteome that is searched against it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMPUTE_WORKERS",
    "WORLD_SEED",
    "Workload",
    "WORKLOADS",
    "SIZES",
    "SMOKE_SIZES",
    "PRESET_OF_INPUT",
    "build_proteome",
    "build_suite_for",
]

#: Fixed, not auto: nproc is 2 on the sizing box.
COMPUTE_WORKERS = 2
WORLD_SEED = 2022
SPECIES = "D_vulgaris"

#: Targets per input.  The issue's 80 / 500 scaled down until 4 + 22 x 4
#: driver runs of a serial probe plus about 14 s of campaigns fit the cap
#: even on a box half as fast again.
SIZES = {"mixed": 40, "tiny": 128}
SMOKE_SIZES = {"mixed": 8, "tiny": 12}

#: ``mixed`` keeps one record out of each run of this many like-length
#: records of the generated proteome (see ``_mixed``).
MIXED_OVERSAMPLE = 8
TINY_LENGTHS = (30, 60)
#: Library scale of the tiny input: ``build_suite(scale=0.01)``.
TINY_SUITE_SCALE = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    input: str  # "mixed" | "tiny"
    preset: str
    schedule: str
    backend: str
    durable: bool
    #: Workload whose untraced wall is the base of ``telemetry.overhead_share``.
    overhead_base: str
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The CLI's default path: all three stage methods on
        # ThreadedExecutor.  No pipes or shm, so a transport change must
        # not move it; the workload that exposes GIL contention.
        Workload(
            "mixed_barrier_threaded", "mixed", "genome", "barrier",
            "threaded", False, "mixed_barrier_threaded",
            "CLI default path: three stage maps on threads, no pipes or "
            "shm; exposes GIL contention",
        ),
        # The north-star path.  Same input as mixed_barrier_threaded, so
        # the digests must be equal and process-vs-threaded and
        # streaming-vs-barrier are read on identical work.
        Workload(
            "mixed_streaming_process", "mixed", "genome", "streaming",
            "process", False, "mixed_streaming_process",
            "north-star path: one dependency-driven map on processes, shm "
            "transport, CPU/GPU pool split; same input as "
            "mixed_barrier_threaded",
        ),
        # Hundreds of ~5 ms tasks under 4 KiB (pipe path): maximises
        # per-task fixed costs relative to compute; fixed-recycle fold;
        # uniform lengths are the best case for length-bucketed batching.
        Workload(
            "tiny_streaming_process", "tiny", "reduced_db", "streaming",
            "process", False, "tiny_streaming_process",
            "many tiny uniform targets on the pipe path: per-task fixed "
            "costs dominate, fixed-recycle fold",
        ),
        # The same work with RunState + TelemetrySession on: the
        # difference from tiny_streaming_process is the cost of a ledger
        # fsync + artifact write per attempt plus span recording and an
        # export; then a cross-schedule resume puts reads beside writes.
        Workload(
            "tiny_durable_process", "tiny", "reduced_db", "streaming",
            "process", True, "tiny_streaming_process",
            "tiny_streaming_process plus durable state and telemetry: "
            "the cost of a ledger fsync + artifact write per attempt, "
            "then a full-restore resume",
        ),
    )
}

#: ``mixed_plain`` is no workload's input: it is what ``repro campaign``
#: itself would run, kept so that the probe can show ``mixed`` has the
#: same layer shares (README, "Inputs").
PRESET_OF_INPUT = {
    **{w.input: w.preset for w in WORKLOADS.values()},
    "mixed_plain": "genome",
}


def _scale_for(n_targets: int) -> float:
    """The ``scale`` at which the species' proteome has ``n_targets``."""
    from repro.sequences import SPECIES as SPECIES_SPECS

    return n_targets / SPECIES_SPECS[SPECIES].n_proteins


def _mixed(seed: int, n_targets: int):
    """The CLI's proteome, ``synthetic_proteome`` at the scale of
    ``n_targets``, thinned by length.

    The proteome is generated ``MIXED_OVERSAMPLE`` times too large from the
    family pool of the target scale, sorted by length and cut into
    ``n_targets`` runs of like-length records; ``seed`` picks one record
    per run.  Orphans, remote branches and indels come through as the
    generator makes them.  Drawn without the thinning, ten seeds' total
    residues, and the serial compute with them, spread by a fifth to a
    quarter of the median (quartile to quartile), as much as the widest
    bound the driver allows a metric; thinned, by 0.03.
    """
    import numpy as np
    from repro.sequences import Proteome, SequenceUniverse, synthetic_proteome
    from repro.sequences.generator import rng_for

    universe = SequenceUniverse(WORLD_SEED)
    population = synthetic_proteome(
        SPECIES,
        universe,
        WORLD_SEED,
        scale=MIXED_OVERSAMPLE * _scale_for(n_targets),
        family_pool=max(1, int(n_targets * 0.6)),  # build_suite's, at scale
    ).sorted_by_length()
    rng = rng_for(seed, "campaign-bench", "mixed")
    records = [
        population[int(rng.choice(run))]
        for run in np.array_split(np.arange(len(population)), n_targets)
    ]
    return universe, Proteome(SPECIES, records)


def _mixed_plain(seed: int, n_targets: int):
    """Exactly what ``repro campaign --seed`` builds."""
    from repro.sequences import SequenceUniverse, synthetic_proteome

    universe = SequenceUniverse(seed)
    return universe, synthetic_proteome(
        SPECIES, universe, seed, scale=_scale_for(n_targets)
    )


def _tiny(seed: int, n_targets: int):
    """Lengths U[30, 60], records built as ``core.workloads.benchmark_set``
    builds them (``family_length``/``member`` into ``ProteinRecord`` into
    ``Proteome``), from the families ``build_suite(scale=0.01)`` covers."""
    from repro.sequences import SPECIES as SPECIES_SPECS
    from repro.sequences import Proteome, SequenceUniverse
    from repro.sequences.generator import ProteinRecord, rng_for
    from repro.sequences.proteome import species_family_base

    universe = SequenceUniverse(WORLD_SEED)
    rng = rng_for(seed, "campaign-bench", "tiny")
    base = species_family_base(SPECIES)
    n_library = round(SPECIES_SPECS[SPECIES].n_proteins * TINY_SUITE_SCALE)
    pool = max(1, int(n_library * 0.6))
    lo, hi = TINY_LENGTHS
    records = []
    for i, length in enumerate(rng.integers(lo, hi + 1, size=n_targets)):
        family_id = base + int(rng.integers(0, pool))
        family = universe.family_length(family_id, int(length))
        divergence = float(rng.uniform(0.05, 0.45))
        encoded = universe.member(
            family,
            divergence,
            member_seed=int(rng.integers(2**31)),
            indel_rate=0.0,
        )
        records.append(
            ProteinRecord(
                record_id=f"DvH_tiny_{i:04d}",
                encoded=encoded,
                species=SPECIES,
                family_id=family_id,
                divergence=divergence,
                annotated=family.annotated,
            )
        )
    return universe, Proteome(SPECIES, records)


_BUILDERS = {"mixed": _mixed, "mixed_plain": _mixed_plain, "tiny": _tiny}


def build_proteome(kind: str, seed: int, n_targets: int):
    """``(universe, proteome)`` of one input, drawn by ``seed``."""
    return _BUILDERS[kind](seed, n_targets)


def build_suite_for(kind: str, universe, n_targets: int):
    """The reduced library suite the CLI would search for this input."""
    from repro.msa import build_suite

    scale = TINY_SUITE_SCALE if kind == "tiny" else _scale_for(n_targets)
    return build_suite(
        universe, [SPECIES], seed=universe.seed, scale=scale
    ).reduced()
