"""Library construction and deduplication tests."""

import threading

import pytest

from repro.msa import build_library

from repro.msa.databases import LibraryEntry, SequenceLibrary
from repro.msa.kmer import KmerIndex
from repro.sequences import encode
from repro.telemetry import MetricsRegistry, use_metrics

from ..bounded import run_bounded, wait_until



@pytest.fixture(scope="module")
def small_library(universe):
    fids = [universe.family(i).family_id for i in range(40)]
    return build_library(
        universe,
        "testlib",
        fids,
        seed=5,
        members_per_multiplicity=0.5,
        duplicate_rate=1.0,
    )


class TestBuildLibrary:
    def test_clusters_group_duplicates(self, small_library):
        by_cluster = {}
        for e in small_library.entries:
            by_cluster.setdefault(e.cluster_id, []).append(e)
        sizes = [len(v) for v in by_cluster.values()]
        assert max(sizes) > 1  # duplicates exist
        # Duplicates are near-identical to their cluster head.
        for entries in by_cluster.values():
            if len(entries) < 2:
                continue
            head = entries[0].encoded
            for dup in entries[1:]:
                if dup.encoded.size == head.size:
                    assert float((dup.encoded == head).mean()) > 0.95

    def test_zero_multiplicity_families_absent(self, universe, small_library):
        present = {e.family_id for e in small_library.entries} - {None}
        for fid in present:
            assert universe.family(fid).library_multiplicity > 0

    def test_branches_present(self, small_library):
        branches = {e.entry_id.split("_b")[1][0] for e in small_library.entries
                    if "_b" in e.entry_id}
        assert "0" in branches
        assert branches & {"1", "2"}

    def test_deterministic(self, universe):
        fids = [universe.family(i).family_id for i in range(10)]
        a = build_library(universe, "det", fids, seed=2)
        b = build_library(universe, "det", fids, seed=2)
        assert [e.entry_id for e in a.entries] == [e.entry_id for e in b.entries]


class TestDedup:
    def test_dedup_removes_only_duplicates(self, small_library):
        reduced = small_library.deduplicated()
        assert len(reduced) < len(small_library)
        full_clusters = {e.cluster_id for e in small_library.entries}
        red_clusters = {e.cluster_id for e in reduced.entries}
        assert red_clusters == full_clusters  # one rep per cluster survives
        assert len(reduced.entries) == len(red_clusters)

    def test_dedup_scales_bytes(self, small_library):
        reduced = small_library.deduplicated()
        ratio = len(reduced) / len(small_library)
        assert reduced.modeled_bytes == pytest.approx(
            small_library.modeled_bytes * ratio, rel=0.01, abs=1
        )

    def test_dedup_idempotent(self, small_library):
        once = small_library.deduplicated()
        twice = once.deduplicated()
        assert len(once) == len(twice)


class TestIndexLifecycle:
    def test_index_lazy_and_cached(self, universe):
        lib = SequenceLibrary(
            "tiny",
            [
                LibraryEntry("a", encode("ACDEFGHIKLMNPQ"), 1, 0.1, True, "a"),
            ],
            modeled_bytes=10,
        )
        idx1 = lib.index
        assert lib.index is idx1
        assert idx1.n_sequences == 1

    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_racing_threads_freeze_one_index(self, small_library, n_threads):
        """Threads that miss the index together share one CSR build."""
        lib = SequenceLibrary("race", small_library.entries, modeled_bytes=10)
        registry = MetricsRegistry()
        start = threading.Barrier(n_threads)
        building, parked = threading.Event(), threading.Event()
        real_freeze = KmerIndex.freeze

        def held_freeze(index):
            # Hold the one build open until every other thread has
            # asked for the index and found it in flight.
            building.set()
            assert parked.wait(30.0)
            real_freeze(index)

        def ask():
            start.wait(30.0)
            return lib.index

        def release_when_parked():
            assert building.wait(30.0)
            wait_until(
                lambda: registry.counter_values().get("msa.index.coalesced")
                == n_threads - 1
            )
            parked.set()

        with use_metrics(registry), pytest.MonkeyPatch.context() as patch:
            patch.setattr(KmerIndex, "freeze", held_freeze)
            *indexes, _ = run_bounded([ask] * n_threads + [release_when_parked])
        assert all(index is indexes[0] for index in indexes)
        counters = registry.counter_values("msa.index.")
        assert counters["msa.index.rebuild"] == 1
        assert counters["msa.index.coalesced"] == n_threads - 1
        assert lib._index_flights._inflight == {}

    def test_library_pickles_with_its_flight_table(self, small_library):
        """Spawned workers receive the suite by pickle: the lock stays
        behind, the frozen index travels, searches agree."""
        import pickle

        lib = SequenceLibrary("ship", small_library.entries, modeled_bytes=10)
        query = lib.entries[0].encoded
        expected = lib.index.count_hits(query)
        clone = pickle.loads(pickle.dumps(lib))
        assert (clone.index.count_hits(query) == expected).all()
        fresh = pickle.loads(
            pickle.dumps(SequenceLibrary("cold", lib.entries, modeled_bytes=10))
        )
        assert fresh._index is None
        assert (fresh.index.count_hits(query) == expected).all()
